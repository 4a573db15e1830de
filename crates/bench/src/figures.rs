//! Regeneration of the paper's figures (2, 3, 5, 9).
//!
//! Each function returns a structured result that the `exp_*` binaries print
//! and that EXPERIMENTS.md records; the unit tests assert the qualitative
//! *shape* the paper reports (who wins, where the blackouts are, by roughly
//! what factor), not absolute numbers.

use serde::Serialize;

use rebeca_broker::ClientId;
use rebeca_core::{BrokerConfig, ClientAction, LogicalMobilityMode, SystemBuilder};
use rebeca_location::{AdaptivityPlan, LocationId, MovementGraph};
use rebeca_routing::RoutingStrategyKind;
use rebeca_sim::{DelayModel, SimDuration, SimTime, Topology};

use crate::scenarios::{
    self, parking_template, run_logical, run_physical, vacancy_at, HandoffKind, LogicalScenario,
    LogicalScheme, PhysicalScenario,
};

// ---------------------------------------------------------------------------
// Figure 2 — lost and duplicated notifications with the naive hand-off
// ---------------------------------------------------------------------------

/// One row of the Figure 2 experiment.
#[derive(Debug, Clone, Serialize)]
pub struct Figure2Row {
    /// Human-readable name of the hand-off scheme.
    pub scheme: String,
    /// Publications received at least once.
    pub received: usize,
    /// Publications never received.
    pub lost: usize,
    /// Publications received more than once.
    pub duplicated: usize,
    /// Whether per-producer FIFO order held.
    pub fifo_preserved: bool,
}

/// Figure 2: the naive hand-off either loses notifications (when the client
/// signs off and re-subscribes from scratch) or delivers duplicates (when it
/// cannot sign off and the old broker keeps delivering under flooding), while
/// the relocation protocol does neither.
pub fn figure2() -> Vec<Figure2Row> {
    let runs = [
        (
            "relocation protocol (Section 4)",
            RoutingStrategyKind::Covering,
            HandoffKind::Relocation,
        ),
        (
            "naive hand-off with sign-off",
            RoutingStrategyKind::Covering,
            HandoffKind::NaiveWithSignOff,
        ),
        (
            "naive hand-off, no sign-off, flooding",
            RoutingStrategyKind::Flooding,
            HandoffKind::NaiveSilent,
        ),
    ];
    runs.iter()
        .map(|(name, strategy, handoff)| {
            let outcome = run_physical(&PhysicalScenario {
                strategy: *strategy,
                handoff: *handoff,
                ..PhysicalScenario::default()
            });
            Figure2Row {
                scheme: (*name).to_string(),
                received: outcome.received,
                lost: outcome.lost,
                duplicated: outcome.duplicated,
                fifo_preserved: outcome.fifo_preserved,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Figure 3 — blackout period after a location change
// ---------------------------------------------------------------------------

/// One row of the Figure 3 experiment.
#[derive(Debug, Clone, Serialize)]
pub struct Figure3Row {
    /// Human-readable name of the scheme.
    pub scheme: String,
    /// Measured time from the location change until the first delivery for
    /// the new location, in milliseconds.
    pub blackout_ms: Option<u64>,
    /// Total messages transmitted over links during the run.
    pub total_messages: u64,
}

/// Parameters of the Figure 3 experiment.
#[derive(Debug, Clone)]
pub struct Figure3Params {
    /// Number of brokers on the line between consumer and producer.
    pub brokers: usize,
    /// Per-link delay (the paper's `t_d`).
    pub link_delay_ms: u64,
    /// Gap between publication rounds (one notification per location per
    /// round).
    pub publish_interval_ms: u64,
}

impl Default for Figure3Params {
    fn default() -> Self {
        Self {
            brokers: 4,
            link_delay_ms: 20,
            publish_interval_ms: 20,
        }
    }
}

/// Figure 3: measures the blackout after a single location change (a → b on
/// the Figure 7 graph) for the manual sub/unsub baseline, flooding with
/// client-side filtering, and the paper's location-dependent subscriptions.
pub fn figure3(params: &Figure3Params) -> Vec<Figure3Row> {
    let graph = MovementGraph::paper_example();
    let a = graph.space().id("a").expect("location a");
    let b = graph.space().id("b").expect("location b");
    let move_at = SimTime::from_secs(1);
    let horizon = SimTime::from_secs(3);

    let run = |name: &str,
               strategy: RoutingStrategyKind,
               mode: LogicalMobilityMode,
               plan: AdaptivityPlan|
     -> Figure3Row {
        let config = BrokerConfig::default()
            .with_strategy(strategy)
            .with_movement_graph(graph.clone())
            .with_relocation_timeout(SimDuration::from_secs(30));
        let topo = Topology::line(params.brokers);
        let mut sys = SystemBuilder::new(&topo)
            .config(config)
            .link_delay(DelayModel::constant_millis(params.link_delay_ms))
            .seed(5)
            .build()
            .unwrap();
        let consumer = scenarios::CONSUMER;
        let producer = ClientId::new(2);
        sys.add_client(
            consumer,
            mode,
            &[0],
            vec![
                (
                    SimTime::from_millis(1),
                    ClientAction::Attach {
                        broker: sys.broker_node(0).unwrap(),
                    },
                ),
                (
                    SimTime::from_millis(2),
                    ClientAction::LocSubscribe {
                        template: parking_template(),
                        plan,
                        location: a,
                    },
                ),
                (move_at, ClientAction::SetLocation(b)),
            ],
        )
        .unwrap();
        let far = params.brokers - 1;
        let mut script = vec![(
            SimTime::from_millis(1),
            ClientAction::Attach {
                broker: sys.broker_node(far).unwrap(),
            },
        )];
        let mut t = SimTime::from_millis(40);
        let mut spot = 0i64;
        while t < horizon {
            for location in graph.space().ids() {
                script.push((t, ClientAction::Publish(vacancy_at(location, spot))));
                spot += 1;
            }
            t += SimDuration::from_millis(params.publish_interval_ms);
        }
        sys.add_client(
            producer,
            LogicalMobilityMode::LocationDependent,
            &[far],
            script,
        )
        .unwrap();
        sys.run_until(horizon);

        // Blackout: first delivery for location b at or after the move.
        let client = sys.client(consumer).unwrap();
        let blackout_ms = client
            .log()
            .deliveries()
            .iter()
            .zip(client.delivery_times())
            .filter(|(d, (at, _))| {
                *at >= move_at
                    && d.envelope
                        .notification
                        .get("location")
                        .and_then(|v| v.as_location())
                        == Some(b.raw())
            })
            .map(|(_, (at, _))| (*at - move_at).as_millis())
            .min();
        Figure3Row {
            scheme: name.to_string(),
            blackout_ms,
            total_messages: sys.total_messages(),
        }
    };

    vec![
        run(
            "simple re-subscription (Fig. 3a baseline)",
            RoutingStrategyKind::Covering,
            LogicalMobilityMode::ManualSubUnsub { vicinity: 0 },
            AdaptivityPlan::global_sub_unsub(params.brokers),
        ),
        run(
            "flooding with client-side filtering (Fig. 3b)",
            RoutingStrategyKind::Flooding,
            LogicalMobilityMode::ManualSubUnsub { vicinity: 0 },
            AdaptivityPlan::flooding(params.brokers),
        ),
        run(
            "location-dependent subscriptions (Section 5)",
            RoutingStrategyKind::Covering,
            LogicalMobilityMode::LocationDependent,
            AdaptivityPlan::one_step_per_hop(params.brokers),
        ),
    ]
}

// ---------------------------------------------------------------------------
// Figure 5 — relocation walk-through
// ---------------------------------------------------------------------------

/// Summary of the Figure 5 relocation walk-through.
#[derive(Debug, Clone, Serialize)]
pub struct Figure5Report {
    /// Publications received exactly once by the roaming consumer.
    pub received: usize,
    /// Lost publications (must be 0).
    pub lost: usize,
    /// Duplicated publications (must be 0).
    pub duplicated: usize,
    /// Whether FIFO order held.
    pub fifo_preserved: bool,
    /// Junction candidates detected during the run.  B4 is the real junction
    /// of the figure; brokers on the old path may report further candidates
    /// because the relocation request keeps propagating (see the aliasing
    /// discussion in DESIGN.md).
    pub junctions_detected: u64,
    /// Notifications replayed from the virtual counterpart.
    pub replayed: u64,
    /// Whether the old border broker garbage collected the client.
    pub old_broker_clean: bool,
    /// Total messages transmitted over links.
    pub total_messages: u64,
}

/// Figure 5: runs the relocation walk-through (one producer at B8, consumer
/// moving B6 → B1) and reports the protocol-internal counters.
pub fn figure5() -> Figure5Report {
    let topo = Topology::figure5();
    let config = BrokerConfig::default()
        .with_strategy(RoutingStrategyKind::Covering)
        .with_movement_graph(MovementGraph::paper_example())
        .with_relocation_timeout(SimDuration::from_secs(30));
    let mut sys = SystemBuilder::new(&topo)
        .config(config)
        .link_delay(DelayModel::constant_millis(5))
        .seed(23)
        .build()
        .unwrap();
    let consumer = scenarios::CONSUMER;
    let producer = ClientId::new(2);

    sys.add_client(
        consumer,
        LogicalMobilityMode::LocationDependent,
        &[5, 0],
        vec![
            (
                SimTime::from_millis(1),
                ClientAction::Attach {
                    broker: sys.broker_node(5).unwrap(),
                },
            ),
            (
                SimTime::from_millis(2),
                ClientAction::Subscribe(scenarios::parking_filter()),
            ),
            (
                SimTime::from_millis(500),
                ClientAction::MoveTo {
                    broker: sys.broker_node(0).unwrap(),
                },
            ),
        ],
    )
    .unwrap();
    let mut script = vec![(
        SimTime::from_millis(1),
        ClientAction::Attach {
            broker: sys.broker_node(7).unwrap(),
        },
    )];
    let publications = 40u64;
    for i in 0..publications {
        script.push((
            SimTime::from_millis(50 + i * 25),
            ClientAction::Publish(vacancy_at(LocationId(0), i as i64)),
        ));
    }
    sys.add_client(
        producer,
        LogicalMobilityMode::LocationDependent,
        &[7],
        script,
    )
    .unwrap();
    sys.run_until(SimTime::from_secs(10));

    let log = sys.client_log(consumer).unwrap();
    Figure5Report {
        received: log.distinct_publisher_seqs(producer).len(),
        lost: log.missing_from(producer, 1..=publications).len(),
        duplicated: log.duplicate_publications(producer),
        fifo_preserved: log.is_clean(),
        junctions_detected: sys.metrics().counter("mobility.junction_detected"),
        replayed: sys.metrics().counter("mobility.replayed"),
        old_broker_clean: sys.broker(5).unwrap().counterpart_count() == 0
            && sys.broker(5).unwrap().core().client(consumer).is_none(),
        total_messages: sys.total_messages(),
    }
}

// ---------------------------------------------------------------------------
// Figure 9 — total number of messages: flooding vs. the new algorithm
// ---------------------------------------------------------------------------

/// Parameters of the Figure 9 experiment.
#[derive(Debug, Clone)]
pub struct Figure9Params {
    /// Number of brokers on the line between consumer and producers.
    pub brokers: usize,
    /// Number of producers at the far end.
    pub producers: usize,
    /// Side length of the square-grid location space (`side²` locations).
    pub grid_side: usize,
    /// Interval between publications per producer.
    pub publish_interval: SimDuration,
    /// Per-link delay (also used as the per-hop subscription-processing time
    /// `δ_i` when deriving the adaptivity plan).
    pub link_delay_ms: u64,
    /// Total simulated time.
    pub horizon_secs: u64,
    /// Random seed.
    pub seed: u64,
}

impl Default for Figure9Params {
    fn default() -> Self {
        Self {
            brokers: 10,
            producers: 10,
            grid_side: 10,
            publish_interval: SimDuration::from_millis(100),
            link_delay_ms: 5,
            horizon_secs: 100,
            seed: 42,
        }
    }
}

/// One series of Figure 9: cumulative total messages per second.
#[derive(Debug, Clone, Serialize)]
pub struct Figure9Series {
    /// Name of the scheme ("flooding", "new alg. Δ=1s", "new alg. Δ=10s").
    pub scheme: String,
    /// `(second, cumulative messages)` samples.
    pub samples: Vec<(u64, u64)>,
    /// Final cumulative count.
    pub total: u64,
    /// Notifications delivered to the consumer.
    pub delivered: usize,
}

/// Figure 9: total number of messages generated by flooding and by the new
/// algorithm for residence times Δ = 1 s and Δ = 10 s, sampled once per
/// simulated second over the whole run.
pub fn figure9(params: &Figure9Params) -> Vec<Figure9Series> {
    let graph = MovementGraph::grid(params.grid_side, params.grid_side);
    let horizon = SimTime::from_secs(params.horizon_secs);
    let hop_delays = vec![params.link_delay_ms * 1_000; params.brokers.saturating_sub(1)];

    let base = |scheme: LogicalScheme, residence: SimDuration| LogicalScenario {
        scheme,
        movement_graph: graph.clone(),
        brokers: params.brokers,
        producers: params.producers,
        residence,
        publish_interval: params.publish_interval,
        link_delay: DelayModel::constant_millis(params.link_delay_ms),
        horizon,
        seed: params.seed,
    };

    let runs = [
        (
            "flooding",
            LogicalScheme::Flooding,
            SimDuration::from_secs(1),
        ),
        (
            "new alg. Delta=1s",
            LogicalScheme::LocationDependent(AdaptivityPlan::adaptive(1_000_000, &hop_delays)),
            SimDuration::from_secs(1),
        ),
        (
            "new alg. Delta=10s",
            LogicalScheme::LocationDependent(AdaptivityPlan::adaptive(10_000_000, &hop_delays)),
            SimDuration::from_secs(10),
        ),
    ];

    runs.into_iter()
        .map(|(name, scheme, residence)| {
            let outcome = run_logical(&base(scheme, residence));
            Figure9Series {
                scheme: name.to_string(),
                samples: outcome.message_series.clone(),
                total: outcome.total_messages,
                delivered: outcome.delivered,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure2_shape_matches_the_paper() {
        let rows = figure2();
        assert_eq!(rows.len(), 3);
        let relocation = &rows[0];
        assert_eq!(relocation.lost, 0);
        assert_eq!(relocation.duplicated, 0);
        assert!(relocation.fifo_preserved);
        let naive_signoff = &rows[1];
        assert!(
            naive_signoff.lost > 0,
            "naive sign-off must lose notifications"
        );
        let naive_silent = &rows[2];
        assert!(
            naive_silent.duplicated > 0,
            "silent naive hand-off must duplicate notifications"
        );
    }

    #[test]
    fn figure3_shape_matches_the_paper() {
        let rows = figure3(&Figure3Params::default());
        assert_eq!(rows.len(), 3);
        let baseline = rows[0].blackout_ms.expect("baseline eventually recovers");
        let flooding = rows[1].blackout_ms.expect("flooding delivers");
        let managed = rows[2].blackout_ms.expect("managed delivers");
        // The baseline blackout is about 2·t_d (the subscription travels to
        // the producer and notifications travel back) — with 20 ms links and
        // 4 brokers that is at least ~100 ms.
        assert!(
            baseline >= 100,
            "baseline blackout too short: {baseline} ms"
        );
        // Flooding and the location-dependent scheme recover within roughly
        // one client-link round trip plus one publication interval.
        assert!(flooding < 100, "flooding blackout too long: {flooding} ms");
        assert!(managed < 100, "managed blackout too long: {managed} ms");
        // And the managed scheme costs fewer messages than flooding.
        assert!(rows[2].total_messages < rows[1].total_messages);
    }

    #[test]
    fn figure5_walkthrough_is_clean() {
        let report = figure5();
        assert_eq!(report.lost, 0);
        assert_eq!(report.duplicated, 0);
        assert!(report.fifo_preserved);
        // B4 is the real junction; because the relocation request keeps
        // propagating (to stay correct when identical filters alias), brokers
        // on the old path may also report an apparent junction.
        assert!(report.junctions_detected >= 1, "at least the B4 junction");
        assert!(report.replayed > 0, "the counterpart must replay something");
        assert!(report.old_broker_clean);
        // Deterministic: the walk-through including the teardown of the old
        // delivery path, which travels behind the replay.
        assert_eq!(report.total_messages, 298);
    }

    #[test]
    fn figure9_shape_matches_the_paper() {
        // A scaled-down configuration so the test stays fast; the shape is
        // what matters: flooding ≫ new algorithm, and Δ = 10 s cheaper than
        // Δ = 1 s.
        let series = figure9(&Figure9Params {
            brokers: 5,
            producers: 3,
            grid_side: 5,
            publish_interval: SimDuration::from_millis(200),
            link_delay_ms: 5,
            horizon_secs: 20,
            seed: 7,
        });
        assert_eq!(series.len(), 3);
        let flooding = &series[0];
        let delta1 = &series[1];
        let delta10 = &series[2];
        assert!(
            flooding.total > delta1.total,
            "flooding ({}) must generate more messages than the new algorithm with Δ=1s ({})",
            flooding.total,
            delta1.total
        );
        assert!(
            delta1.total > delta10.total,
            "Δ=1s ({}) must generate more messages than Δ=10s ({})",
            delta1.total,
            delta10.total
        );
        // Cumulative series grow monotonically.
        for s in &series {
            assert!(s.samples.windows(2).all(|w| w[0].1 <= w[1].1));
            assert_eq!(s.samples.len(), 20);
        }
    }
}
