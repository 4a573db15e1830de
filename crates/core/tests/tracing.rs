//! End-to-end acceptance tests for the distributed-tracing layer: a
//! sampled publication crossing several brokers — including one that was
//! parked during a mid-run relocation and merged out of the holding
//! buffer — reassembles into a single causal tree, and the whole span
//! stream is byte-stable across identical simulator runs.

use std::collections::BTreeSet;

use rebeca_broker::ClientId;
use rebeca_core::{BrokerConfig, ClientAction, LogicalMobilityMode, MobilitySystem, SystemBuilder};
use rebeca_filter::{Constraint, Filter, Notification};
use rebeca_location::MovementGraph;
use rebeca_obs::{render_trace_tree, trace_ids, SpanRecord};
use rebeca_routing::RoutingStrategyKind;
use rebeca_sim::{DelayModel, SimDuration, SimTime, Topology};

fn parking_filter() -> Filter {
    Filter::new().with("service", Constraint::Eq("parking".into()))
}

fn vacancy(i: i64) -> Notification {
    Notification::builder()
        .attr("service", "parking")
        .attr("spot", i)
        .build()
}

/// The Figure 5 walk-through with tracing on: producer at B8 (index 7),
/// consumer subscribed at B6 (index 5) moving to B1 (index 0) mid-stream.
fn traced_figure5(publications: u64) -> (MobilitySystem, ClientId, ClientId) {
    let topo = Topology::figure5();
    let mut sys = SystemBuilder::new(&topo)
        .config(
            BrokerConfig::default()
                .with_strategy(RoutingStrategyKind::Covering)
                .with_movement_graph(MovementGraph::paper_example())
                .with_relocation_timeout(SimDuration::from_secs(30)),
        )
        .link_delay(DelayModel::constant_millis(5))
        .seed(7)
        .trace_sample(1.0)
        .build()
        .unwrap();
    sys.metrics_mut().set_span_capacity(100_000);

    let consumer = ClientId::new(1);
    let producer = ClientId::new(2);
    let old_broker = sys.broker_node(5).unwrap();
    let new_broker = sys.broker_node(0).unwrap();

    sys.add_client(
        consumer,
        LogicalMobilityMode::LocationDependent,
        &[5, 0],
        vec![
            (
                SimTime::from_millis(1),
                ClientAction::Attach { broker: old_broker },
            ),
            (
                SimTime::from_millis(2),
                ClientAction::Subscribe(parking_filter()),
            ),
            (
                SimTime::from_millis(500),
                ClientAction::MoveTo { broker: new_broker },
            ),
        ],
    )
    .unwrap();

    let mut producer_script = vec![(
        SimTime::from_millis(1),
        ClientAction::Attach {
            broker: sys.broker_node(7).unwrap(),
        },
    )];
    for i in 0..publications {
        producer_script.push((
            SimTime::from_millis(50 + i * 25),
            ClientAction::Publish(vacancy(i as i64)),
        ));
    }
    sys.add_client(
        producer,
        LogicalMobilityMode::LocationDependent,
        &[7],
        producer_script,
    )
    .unwrap();

    (sys, consumer, producer)
}

fn run_traced(publications: u64) -> (Vec<SpanRecord>, ClientId, ClientId) {
    let (mut sys, consumer, producer) = traced_figure5(publications);
    sys.run_until(SimTime::from_secs(10));
    let log = sys.client_log(consumer).unwrap();
    assert!(log.is_clean(), "violations: {:?}", log.violations());
    let spans: Vec<SpanRecord> = sys.metrics().spans().spans().cloned().collect();
    (spans, consumer, producer)
}

/// Every trace of the run renders as exactly one causal tree: a single
/// root (the publish or resubscribe span) and no orphaned or unrooted
/// spans — including the publication that sat in the old broker's
/// counterpart during the relocation and reached the consumer through
/// the holding-buffer merge.
#[test]
fn sampled_publication_across_brokers_reassembles_one_causal_tree() {
    let (spans, ..) = run_traced(40);
    assert!(!spans.is_empty(), "tracing at rate 1.0 must record spans");

    let ids = trace_ids(&spans);
    assert!(
        ids.len() >= 40,
        "every publication plus the relocation is traced"
    );
    for trace_id in &ids {
        let in_trace: Vec<&SpanRecord> = spans.iter().filter(|s| s.trace_id == *trace_id).collect();
        let present: BTreeSet<u64> = in_trace.iter().map(|s| s.span_id).collect();
        let roots = in_trace
            .iter()
            .filter(|s| s.parent_span == 0 || !present.contains(&s.parent_span))
            .count();
        assert_eq!(
            roots,
            1,
            "trace {trace_id:016x} must form one tree, got {roots} roots:\n{}",
            render_trace_tree(*trace_id, &spans)
        );
        let tree = render_trace_tree(*trace_id, &spans);
        assert!(
            !tree.contains("(unrooted)"),
            "trace {trace_id:016x} has unreachable spans:\n{tree}"
        );
    }
}

/// The publication that was parked during the relocation carries its
/// trace through the replay: its tree spans the publisher's broker, at
/// least one transit broker and the new border broker, and contains the
/// stitched `replay` → `deliver` tail.
#[test]
fn replayed_publication_spans_at_least_three_brokers_with_replay_tail() {
    let (spans, ..) = run_traced(40);

    // Find a trace with a `replay` span (stitched at the new border
    // broker out of the holding merge).
    let replayed: Vec<u64> = spans
        .iter()
        .filter(|s| s.kind == "replay")
        .map(|s| s.trace_id)
        .collect();
    assert!(
        !replayed.is_empty(),
        "a 500 ms move inside a 1 s publication stream must park at least one publication"
    );
    let trace_id = replayed[0];
    let in_trace: Vec<&SpanRecord> = spans.iter().filter(|s| s.trace_id == trace_id).collect();

    let brokers: BTreeSet<u64> = in_trace.iter().map(|s| s.broker).collect();
    assert!(
        brokers.len() >= 3,
        "the traced publication must cross at least three brokers, saw {brokers:?}:\n{}",
        render_trace_tree(trace_id, &spans)
    );
    let kinds: BTreeSet<&str> = in_trace.iter().map(|s| s.kind.as_str()).collect();
    for kind in ["publish", "match", "route", "replay", "deliver"] {
        assert!(
            kinds.contains(kind),
            "trace must contain a {kind:?} span:\n{}",
            render_trace_tree(trace_id, &spans)
        );
    }
    // The deliver span of the replayed copy hangs under the replay span.
    let replay_span = in_trace.iter().find(|s| s.kind == "replay").unwrap();
    assert!(
        in_trace
            .iter()
            .any(|s| s.kind == "deliver" && s.parent_span == replay_span.span_id),
        "the stitched deliver must be a child of the replay span"
    );
}

/// The relocation itself is traced: resubscribe roots the tree, the
/// relocate/fetch flood and the replay hang off it hop by hop, and the
/// hold span (nested under the resubscribe at the new border broker)
/// covers the buffering window.
#[test]
fn relocation_trace_mirrors_the_section4_protocol() {
    let (spans, ..) = run_traced(40);

    let resub = spans
        .iter()
        .find(|s| s.kind == "relocation.resubscribe")
        .expect("the move is sampled at rate 1.0");
    let trace_id = resub.trace_id;
    let in_trace: Vec<&SpanRecord> = spans.iter().filter(|s| s.trace_id == trace_id).collect();

    let kinds: BTreeSet<&str> = in_trace.iter().map(|s| s.kind.as_str()).collect();
    for kind in [
        "relocation.resubscribe",
        "relocation.relocate",
        "relocation.fetch",
        "relocation.replay",
        "relocation.settled",
        "hold",
    ] {
        assert!(
            kinds.contains(kind),
            "relocation trace must contain {kind:?}, got {kinds:?}:\n{}",
            render_trace_tree(trace_id, &spans)
        );
    }
    assert_eq!(resub.parent_span, 0, "the resubscribe roots the trace");
    let hold = in_trace.iter().find(|s| s.kind == "hold").unwrap();
    assert_eq!(
        hold.parent_span, resub.span_id,
        "the hold span nests under the resubscribe at the new border broker"
    );
    assert!(
        hold.end_micros > hold.start_micros,
        "the hold span covers the buffering window"
    );
    let tree = render_trace_tree(trace_id, &spans);
    assert!(!tree.contains("(unrooted)"), "single tree:\n{tree}");
}

/// Two identical SimDriver runs produce byte-identical span streams —
/// sampling, span ids and timestamps are all deterministic.
#[test]
fn span_stream_is_byte_stable_across_identical_runs() {
    let (a, ..) = run_traced(20);
    let (b, ..) = run_traced(20);
    assert_eq!(a, b, "identical runs must record identical spans");

    let ids = trace_ids(&a);
    for trace_id in ids {
        assert_eq!(
            render_trace_tree(trace_id, &a),
            render_trace_tree(trace_id, &b)
        );
    }
}

/// With sampling off (the default), a full run records no spans at all.
#[test]
fn tracing_is_off_by_default() {
    let topo = Topology::figure5();
    let mut sys = SystemBuilder::new(&topo)
        .config(BrokerConfig::default())
        .link_delay(DelayModel::constant_millis(5))
        .seed(7)
        .build()
        .unwrap();
    let producer = ClientId::new(2);
    sys.add_client(
        producer,
        LogicalMobilityMode::LocationDependent,
        &[7],
        vec![
            (
                SimTime::from_millis(1),
                ClientAction::Attach {
                    broker: sys.broker_node(7).unwrap(),
                },
            ),
            (SimTime::from_millis(50), ClientAction::Publish(vacancy(1))),
        ],
    )
    .unwrap();
    sys.run_until(SimTime::from_secs(1));
    assert!(sys.metrics().spans().is_empty());
}
