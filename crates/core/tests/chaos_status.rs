//! The in-process chaos acceptance of the status plane: run the scripted
//! relocation scenario on the deterministic simulator, crash-restart the
//! old border broker under traffic, and assert from [`MobilitySystem::status`]
//! alone that
//!
//! * the restarted broker's epoch/generation bumped,
//! * its WAL state recovered (non-zero depth),
//! * the hand-off latency histogram has non-zero quantiles after the
//!   relocation, and
//! * delivery stayed exactly-once end to end.
//!
//! This is deliberately the same report shape `rebeca-ctl status` reads off
//! a live TCP cluster — what the operator sees in production is what this
//! test pins down deterministically.

use rebeca_broker::ClientId;
use rebeca_core::{BrokerConfig, MobilitySystem, SystemBuilder};
use rebeca_filter::{Constraint, Filter, Notification};
use rebeca_location::MovementGraph;
use rebeca_routing::RoutingStrategyKind;
use rebeca_sim::{DelayModel, SimDuration, SimTime, Topology};

const CONSUMER: ClientId = ClientId::new(1);
const PRODUCER: ClientId = ClientId::new(2);

fn parking() -> Filter {
    Filter::new().with("service", Constraint::Eq("parking".into()))
}

fn vacancy(i: u64) -> Notification {
    Notification::builder()
        .attr("service", "parking")
        .attr("spot", i as i64)
        .build()
}

fn build() -> MobilitySystem {
    SystemBuilder::new(&Topology::line(3))
        .config(
            BrokerConfig::default()
                .with_strategy(RoutingStrategyKind::Covering)
                .with_movement_graph(MovementGraph::paper_example())
                .with_relocation_timeout(SimDuration::from_secs(5)),
        )
        .link_delay(DelayModel::constant_millis(5))
        .seed(7)
        .build()
        .expect("sim system builds")
}

fn run_until_deliveries(sys: &mut MobilitySystem, want: usize) {
    let deadline = sys.now() + SimDuration::from_secs(30);
    while sys.client_log(CONSUMER).unwrap().len() < want {
        let now = sys.now();
        assert!(now < deadline, "deliveries stalled at {want}");
        sys.run_until(now + SimDuration::from_millis(25));
    }
}

#[test]
fn crash_restart_under_traffic_is_visible_in_status_and_stays_exactly_once() {
    let mut sys = build();
    let consumer = sys.connect(CONSUMER, 0).expect("consumer connects");
    consumer.subscribe(&mut sys, parking()).expect("subscribe");
    let producer = sys.connect(PRODUCER, 2).expect("producer connects");
    let now = sys.now();
    sys.run_until(now + SimDuration::from_millis(200));

    // Baseline status: every broker reports, routing state is installed,
    // nothing relocation-shaped happened yet.
    let before = sys.status();
    assert_eq!(before.brokers.len(), 3, "one entry per broker");
    assert_eq!(before.node_count, 5, "3 brokers + 2 clients");
    for b in &before.brokers {
        assert_eq!(b.generation, 0, "no broker has restarted yet");
        assert!(
            b.handoff_latency_micros.is_empty(),
            "no hand-off happened yet"
        );
    }
    assert!(
        before.brokers.iter().any(|b| b.routing_entries > 0),
        "the subscription must be installed somewhere"
    );
    for b in &before.brokers {
        assert!(
            b.routing_subgroups <= b.routing_entries,
            "subgroups compact entries, never exceed them"
        );
        assert_eq!(
            b.routing_subgroups == 0,
            b.routing_entries == 0,
            "a non-empty table has at least one subgroup"
        );
    }

    // First half of the stream, then the scripted relocation.
    for i in 1..=5 {
        producer.publish(&mut sys, vacancy(i)).expect("publish");
    }
    run_until_deliveries(&mut sys, 5);
    consumer.move_to(&mut sys, 1).expect("relocate");
    for i in 6..=8 {
        producer.publish(&mut sys, vacancy(i)).expect("publish");
    }
    run_until_deliveries(&mut sys, 8);

    // The hand-off settled: its latency histogram has real quantiles.
    let settled = sys.status();
    let histogram = &settled.brokers[0].handoff_latency_micros;
    assert!(histogram.count() > 0, "hand-off latency was recorded");
    assert!(histogram.p50() > 0, "p50 is non-zero");
    assert!(histogram.p99() >= histogram.p50(), "quantiles are ordered");
    let relocations: u64 = settled.brokers[0]
        .relocations
        .iter()
        .map(|(_, count)| count)
        .sum();
    assert!(relocations > 0, "relocation counters are in the report");

    // Chaos: kill and restart the OLD border broker under traffic.
    sys.crash_and_restart_broker(0).expect("crash/restart");
    for i in 9..=10 {
        producer.publish(&mut sys, vacancy(i)).expect("publish");
    }
    run_until_deliveries(&mut sys, 10);

    let after = sys.status();
    let restarted = &after.brokers[0];
    assert_eq!(restarted.broker, 0);
    assert_eq!(
        restarted.generation, 1,
        "recovery bumps the WAL generation exactly once"
    );
    assert_eq!(
        restarted.restart_epoch, 1,
        "in-process restart epoch is the generation"
    );
    assert!(restarted.wal_depth > 0, "the WAL recovered, not wiped");
    for b in &after.brokers[1..] {
        assert_eq!(b.generation, 0, "only broker 0 restarted");
    }
    // Per-link liveness: the line topology gives broker 1 two neighbours,
    // always-connected under the in-process driver.
    let middle = &after.brokers[1];
    assert_eq!(middle.links.len(), 2);
    assert!(middle.links.iter().all(|l| l.connected));

    // The journal saw the whole story, with monotonically increasing seqs.
    let journal = sys.metrics().journal();
    let kinds: Vec<&str> = journal.events().map(|e| e.kind.as_str()).collect();
    assert!(
        kinds.iter().any(|k| k.starts_with("relocation.")),
        "relocation phase transitions journaled: {kinds:?}"
    );
    assert!(
        kinds.contains(&"wal.append"),
        "WAL appends journaled: {kinds:?}"
    );
    assert!(
        kinds.contains(&"wal.recovered"),
        "the recovery itself is journaled: {kinds:?}"
    );
    let seqs: Vec<u64> = journal.events().map(|e| e.seq).collect();
    assert!(seqs.windows(2).all(|w| w[0] < w[1]), "seqs increase");

    // And through all of it: exactly-once delivery.
    let log = sys.client_log(CONSUMER).unwrap();
    assert!(log.is_clean(), "violations: {:?}", log.violations());
    assert_eq!(
        log.distinct_publisher_seqs(PRODUCER),
        (1..=10).collect::<Vec<u64>>(),
        "complete, no duplicates"
    );

    // The report renders as JSON with the documented field names — the
    // exact shape `rebeca-ctl status --json` emits.
    let json = after.to_json();
    for field in [
        "\"now_micros\"",
        "\"brokers\"",
        "\"routing_entries\"",
        "\"routing_subgroups\"",
        "\"wal_depth\"",
        "\"restart_epoch\"",
        "\"handoff_latency_micros\"",
        "\"p99\"",
        "\"links\"",
        "\"last_heartbeat_age_ms\"",
    ] {
        assert!(json.contains(field), "JSON misses {field}: {json}");
    }
}

/// A broker no message ever reaches journals its restart anyway: the
/// recovery is recorded when it happens, not on the first event handled
/// after it, and a broker with retention says its history was reset.
#[test]
fn a_restart_is_journaled_even_when_no_message_reaches_the_broker() {
    let mut sys = SystemBuilder::new(&Topology::line(3))
        .config(BrokerConfig::default().with_retention(Some(Default::default())))
        .seed(7)
        .build()
        .expect("sim system builds");
    sys.run_until(SimTime::from_millis(100));
    sys.crash_and_restart_broker(2).expect("broker 2 restarts");

    let metrics = sys.metrics();
    assert_eq!(metrics.counter("wal.recoveries"), 1);
    assert_eq!(metrics.counter("retain.reset_on_recovery"), 1);
    let journal: Vec<(String, String)> = metrics
        .journal()
        .events()
        .map(|e| (e.kind.clone(), e.detail.clone()))
        .collect();
    for kind in ["wal.recovered", "retain.reset"] {
        assert!(
            journal
                .iter()
                .any(|(k, d)| k == kind && d.starts_with("broker=n2")),
            "{kind} journaled at the restart: {journal:?}"
        );
    }
}
