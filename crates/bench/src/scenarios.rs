//! Shared simulation scenarios used by the figure experiments.
//!
//! Each builder assembles a [`MobilitySystem`](rebeca_core::MobilitySystem)
//! that mirrors one of the
//! paper's evaluation settings; the figure modules run them with different
//! parameters and extract the series the paper plots.

use rebeca_broker::ClientId;
use rebeca_core::{BrokerConfig, ClientAction, LogicalMobilityMode, SystemBuilder};
use rebeca_filter::{Constraint, Filter, LocationDependentFilter, Notification, Value};
use rebeca_location::{AdaptivityPlan, LocationId, MovementGraph};
use rebeca_routing::RoutingStrategyKind;
use rebeca_sim::{DelayModel, SimDuration, SimTime, Topology};

/// Identity of the roaming / location-aware consumer in every scenario.
pub const CONSUMER: ClientId = ClientId::new(1);

/// The parking-service subscription used throughout the experiments.
pub fn parking_filter() -> Filter {
    Filter::new().with("service", Constraint::Eq("parking".into()))
}

/// The location-dependent parking subscription (`location ∈ myloc`).
pub fn parking_template() -> LocationDependentFilter {
    LocationDependentFilter::new("location", 0)
        .with_concrete("service", Constraint::Eq("parking".into()))
}

/// A parking-vacancy notification at the given location.
pub fn vacancy_at(location: LocationId, spot: i64) -> Notification {
    Notification::builder()
        .attr("service", "parking")
        .attr("location", Value::Location(location.raw()))
        .attr("spot", spot)
        .build()
}

/// How the consumer of the physical-mobility scenarios hands over between
/// brokers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HandoffKind {
    /// The paper's relocation protocol (Section 4).
    Relocation,
    /// Naive hand-off with an explicit sign-off at the old broker.
    NaiveWithSignOff,
    /// Naive hand-off without sign-off (the client just disappears).
    NaiveSilent,
}

/// Parameters of the Figure 2 / Figure 5 physical-mobility scenario.
#[derive(Debug, Clone)]
pub struct PhysicalScenario {
    /// Routing strategy of the broker network.
    pub strategy: RoutingStrategyKind,
    /// How the consumer hands over.
    pub handoff: HandoffKind,
    /// When the consumer moves from the old to the new border broker.
    pub move_at: SimTime,
    /// Number of publications.
    pub publications: u64,
    /// Gap between publications.
    pub publish_interval: SimDuration,
    /// Per-link delay.
    pub link_delay: DelayModel,
}

impl Default for PhysicalScenario {
    fn default() -> Self {
        Self {
            strategy: RoutingStrategyKind::Covering,
            handoff: HandoffKind::Relocation,
            move_at: SimTime::from_millis(500),
            publications: 40,
            publish_interval: SimDuration::from_millis(25),
            link_delay: DelayModel::constant_millis(5),
        }
    }
}

/// Result of a physical-mobility run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhysicalOutcome {
    /// Publications that reached the consumer at least once.
    pub received: usize,
    /// Publications that never reached the consumer.
    pub lost: usize,
    /// Publications that reached the consumer more than once.
    pub duplicated: usize,
    /// Whether per-publisher FIFO order held.
    pub fifo_preserved: bool,
    /// Total messages transmitted over links.
    pub total_messages: u64,
}

/// Runs the Figure 5 scenario (producer at B8, consumer moving B6 → B1) with
/// the given parameters and reports completeness / duplication / ordering.
pub fn run_physical(params: &PhysicalScenario) -> PhysicalOutcome {
    let topo = Topology::figure5();
    let config = BrokerConfig::default()
        .with_strategy(params.strategy)
        .with_movement_graph(MovementGraph::paper_example())
        .with_relocation_timeout(SimDuration::from_secs(30));
    let mut sys = SystemBuilder::new(&topo)
        .config(config)
        .link_delay(params.link_delay)
        .seed(17)
        .build()
        .unwrap();
    let producer = ClientId::new(2);
    let old_broker = sys.broker_node(5).unwrap();
    let new_broker = sys.broker_node(0).unwrap();

    let move_action = match params.handoff {
        HandoffKind::Relocation => ClientAction::MoveTo { broker: new_broker },
        HandoffKind::NaiveWithSignOff => ClientAction::NaiveMoveTo {
            broker: new_broker,
            sign_off: true,
        },
        HandoffKind::NaiveSilent => ClientAction::NaiveMoveTo {
            broker: new_broker,
            sign_off: false,
        },
    };
    sys.add_client(
        CONSUMER,
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
            (params.move_at, move_action),
        ],
    )
    .unwrap();
    let mut script = vec![(
        SimTime::from_millis(1),
        ClientAction::Attach {
            broker: sys.broker_node(7).unwrap(),
        },
    )];
    for i in 0..params.publications {
        let at = SimTime::from_millis(50) + params.publish_interval.saturating_mul(i);
        script.push((
            at,
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

    let horizon = SimTime::from_millis(50)
        + params
            .publish_interval
            .saturating_mul(params.publications + 10)
        + SimDuration::from_secs(2);
    sys.run_until(horizon);

    let log = sys.client_log(CONSUMER).unwrap();
    let received = log.distinct_publisher_seqs(producer).len();
    let lost = log.missing_from(producer, 1..=params.publications).len();
    let duplicated = log.duplicate_publications(producer);
    let fifo_preserved = log
        .violations()
        .iter()
        .all(|v| !matches!(v, rebeca_broker::DeliveryViolation::FifoViolation { .. }));
    PhysicalOutcome {
        received,
        lost,
        duplicated,
        fifo_preserved,
        total_messages: sys.total_messages(),
    }
}

/// Which logical-mobility scheme a Figure 3 / Figure 9 run uses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogicalScheme {
    /// The paper's location-dependent subscriptions with the given adaptivity
    /// plan.
    LocationDependent(AdaptivityPlan),
    /// The manual sub/unsub baseline (Figure 3a).
    ManualSubUnsub,
    /// Flooding with client-side filtering (Figure 3b).
    Flooding,
}

/// Parameters of the logical-mobility scenario: a broker line with the
/// consumer at one end and producers at the other, the consumer walking
/// through a movement graph.
#[derive(Debug, Clone)]
pub struct LogicalScenario {
    /// The scheme under test.
    pub scheme: LogicalScheme,
    /// Movement graph of the location space.
    pub movement_graph: MovementGraph,
    /// Number of brokers in the line (consumer at index 0, producers at the
    /// far end).
    pub brokers: usize,
    /// Number of producers (all attached to the last broker).
    pub producers: usize,
    /// Residence time at each location (`Δ`).
    pub residence: SimDuration,
    /// Interval between publications of one producer (each publication is
    /// addressed to a location drawn uniformly from the location space).
    pub publish_interval: SimDuration,
    /// Per-link delay.
    pub link_delay: DelayModel,
    /// Total simulated time.
    pub horizon: SimTime,
    /// Seed for delays and the random walk / publication locations.
    pub seed: u64,
}

impl Default for LogicalScenario {
    fn default() -> Self {
        Self {
            scheme: LogicalScheme::LocationDependent(AdaptivityPlan::global_sub_unsub(4)),
            movement_graph: MovementGraph::grid(4, 4),
            brokers: 5,
            producers: 2,
            residence: SimDuration::from_secs(1),
            publish_interval: SimDuration::from_millis(100),
            link_delay: DelayModel::constant_millis(5),
            horizon: SimTime::from_secs(20),
            seed: 42,
        }
    }
}

/// Result of a logical-mobility run.
#[derive(Debug, Clone, PartialEq)]
pub struct LogicalOutcome {
    /// Notifications delivered to the consumer.
    pub delivered: usize,
    /// Total messages transmitted over links (notifications + admin), the
    /// quantity plotted in Figure 9.
    pub total_messages: u64,
    /// Per-second samples of the cumulative total message count
    /// (`(seconds, total)`), the Figure 9 series.
    pub message_series: Vec<(u64, u64)>,
    /// Virtual arrival times of deliveries for the consumer's location at the
    /// time of delivery (used to measure blackouts for Figure 3).
    pub delivery_times: Vec<SimTime>,
    /// The consumer's location-change times.
    pub move_times: Vec<SimTime>,
}

/// Runs a logical-mobility scenario and samples the cumulative message count
/// once per simulated second.
pub fn run_logical(params: &LogicalScenario) -> LogicalOutcome {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(params.seed);

    let strategy = match params.scheme {
        LogicalScheme::Flooding => RoutingStrategyKind::Flooding,
        _ => RoutingStrategyKind::Covering,
    };
    let config = BrokerConfig::default()
        .with_strategy(strategy)
        .with_movement_graph(params.movement_graph.clone())
        .with_relocation_timeout(SimDuration::from_secs(30));
    let topo = Topology::line(params.brokers);
    let mut sys = SystemBuilder::new(&topo)
        .config(config)
        .link_delay(params.link_delay)
        .seed(params.seed)
        .build()
        .unwrap();

    // Consumer: a random walk over the movement graph, one step per residence
    // period.
    let start = LocationId(0);
    let steps = (params.horizon.as_micros() / params.residence.as_micros().max(1)) as usize + 2;
    let itinerary = rebeca_location::Itinerary::random_walk(
        &params.movement_graph,
        start,
        steps,
        params.residence.as_micros(),
        &mut rng,
    );
    let (mode, plan) = match &params.scheme {
        LogicalScheme::LocationDependent(plan) => {
            (LogicalMobilityMode::LocationDependent, plan.clone())
        }
        LogicalScheme::ManualSubUnsub => (
            LogicalMobilityMode::ManualSubUnsub { vicinity: 0 },
            AdaptivityPlan::global_sub_unsub(params.brokers),
        ),
        LogicalScheme::Flooding => (
            LogicalMobilityMode::ManualSubUnsub { vicinity: 0 },
            AdaptivityPlan::flooding(params.brokers),
        ),
    };
    let mut consumer_script = vec![
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
                location: start,
            },
        ),
    ];
    let mut move_times = Vec::new();
    for (at_micros, location) in itinerary.change_times() {
        let at = SimTime::from_micros(at_micros.max(3_000));
        move_times.push(at);
        consumer_script.push((at, ClientAction::SetLocation(location)));
    }
    sys.add_client(CONSUMER, mode, &[0], consumer_script)
        .unwrap();

    // Producers at the far broker, each publishing to a uniformly random
    // location (one of the paper's explicitly conservative assumptions).
    let far = params.brokers - 1;
    let locations: Vec<LocationId> = params.movement_graph.space().ids().collect();
    for p in 0..params.producers {
        let id = ClientId::new(100 + p as u32);
        let mut script = vec![(
            SimTime::from_millis(1),
            ClientAction::Attach {
                broker: sys.broker_node(far).unwrap(),
            },
        )];
        let mut t = SimTime::from_millis(40 + p as u64 * 7);
        let mut spot = 0i64;
        while t < params.horizon {
            let location = locations[rng.gen_range(0..locations.len())];
            script.push((t, ClientAction::Publish(vacancy_at(location, spot))));
            spot += 1;
            t += params.publish_interval;
        }
        sys.add_client(id, LogicalMobilityMode::LocationDependent, &[far], script)
            .unwrap();
    }

    // Run second by second, sampling the cumulative link-message count.
    let mut message_series = Vec::new();
    let seconds = params.horizon.as_micros() / 1_000_000;
    for s in 1..=seconds {
        sys.run_until(SimTime::from_secs(s));
        message_series.push((s, sys.total_messages()));
    }
    sys.run_until(params.horizon);

    let client = sys.client(CONSUMER).unwrap();
    LogicalOutcome {
        delivered: client.log().len(),
        total_messages: sys.total_messages(),
        message_series,
        delivery_times: client.delivery_times().iter().map(|(t, _)| *t).collect(),
        move_times,
    }
}

/// Parameters of the relocation-churn scenario: a whole population of
/// mobile consumers on a broker line, each relocating once mid-stream while
/// a producer publishes round-robin over subscription groups.  This is the
/// mobility engine's end-to-end stress load (durable counterpart appends,
/// relocation floods, batched replays) and the workload behind
/// `BENCH_mobility.json`.
#[derive(Debug, Clone)]
pub struct ChurnScenario {
    /// Number of mobile consumers.
    pub clients: usize,
    /// Number of distinct subscription groups (each notification matches
    /// exactly `clients / groups` consumers).
    pub groups: usize,
    /// Brokers in the line topology (the last one hosts the producer).
    pub brokers: usize,
    /// Number of publications, round-robin over the groups.
    pub publications: u64,
    /// Gap between publications.
    pub publish_interval: SimDuration,
    /// Whether every consumer relocates once (staggered over ~200 ms).
    pub relocate: bool,
    /// Per-link delay.
    pub link_delay: DelayModel,
    /// Simulation seed.
    pub seed: u64,
    /// When set, the outcome additionally audits every consumer log for
    /// lost and duplicated publications (linear in clients × publications;
    /// leave off inside timed benchmark loops).
    pub verify: bool,
}

impl Default for ChurnScenario {
    fn default() -> Self {
        Self {
            clients: 2_000,
            groups: 50,
            brokers: 6,
            publications: 200,
            publish_interval: SimDuration::from_millis(1),
            relocate: true,
            link_delay: DelayModel::constant_millis(1),
            seed: 29,
            verify: false,
        }
    }
}

/// Result of a relocation-churn run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChurnOutcome {
    /// Deliveries that reached consumers.
    pub delivered: u64,
    /// Deliveries the scenario owes its consumers.
    pub expected: u64,
    /// Publications a consumer never received (audited only with
    /// [`ChurnScenario::verify`]; completeness must always hold).
    pub lost: u64,
    /// Publications a consumer received more than once (audited only with
    /// [`ChurnScenario::verify`]).  A small number is inherent to the
    /// simulator's hand-over model: a delivery in flight on the old client
    /// link at the instant of the move is recorded by the client *and* —
    /// when the new border broker lies downstream of the old one — held and
    /// re-delivered at the new broker (the same bounded race the flooding
    /// hand-over test documents).
    pub duplicated: u64,
    /// Notifications replayed from virtual counterparts.
    pub replayed: u64,
    /// Total messages transmitted over links.
    pub total_messages: u64,
    /// Relocation-timeout guards still alive at the end (must be 0: the tag
    /// map is reclaimed per settled relocation).
    pub leaked_timeout_guards: usize,
}

/// The subscription of churn group `g`.
fn churn_filter(g: usize) -> Filter {
    Filter::new()
        .with("service", Constraint::Eq("telemetry".into()))
        .with("group", Constraint::Eq(Value::Int(g as i64)))
}

/// Runs the relocation-churn scenario.
pub fn run_churn(params: &ChurnScenario) -> ChurnOutcome {
    assert!(params.brokers >= 3, "need at least producer + two homes");
    assert!(params.clients >= params.groups && params.groups > 0);
    let config = BrokerConfig::default()
        .with_strategy(RoutingStrategyKind::Covering)
        .with_movement_graph(MovementGraph::paper_example())
        .with_relocation_timeout(SimDuration::from_secs(60));
    let topo = Topology::line(params.brokers);
    let mut sys = SystemBuilder::new(&topo)
        .config(config)
        .link_delay(params.link_delay)
        .seed(params.seed)
        .build()
        .unwrap();

    // Consumers spread over the brokers before the producer's; each one
    // relocates to the neighbouring home broker, staggered over ~200 ms so
    // relocations overlap the publication stream.
    let homes = params.brokers - 1;
    for i in 0..params.clients {
        let id = ClientId::new(10 + i as u32);
        let group = i % params.groups;
        let home = i % homes;
        let target = (home + 1) % homes;
        let mut script = vec![
            (
                SimTime::from_millis(1),
                ClientAction::Attach {
                    broker: sys.broker_node(home).unwrap(),
                },
            ),
            (
                SimTime::from_millis(2),
                ClientAction::Subscribe(churn_filter(group)),
            ),
        ];
        let mut reachable = vec![home];
        if params.relocate {
            if target != home {
                reachable.push(target);
            }
            script.push((
                SimTime::from_millis(120 + (i % 211) as u64),
                ClientAction::MoveTo {
                    broker: sys.broker_node(target).unwrap(),
                },
            ));
        }
        sys.add_client(
            id,
            LogicalMobilityMode::LocationDependent,
            &reachable,
            script,
        )
        .unwrap();
    }

    // Producer at the far end, publishing round-robin over the groups.
    let producer = ClientId::new(2);
    let mut script = vec![(
        SimTime::from_millis(1),
        ClientAction::Attach {
            broker: sys.broker_node(params.brokers - 1).unwrap(),
        },
    )];
    for i in 0..params.publications {
        let at = SimTime::from_millis(50) + params.publish_interval.saturating_mul(i);
        let notification = Notification::builder()
            .attr("service", "telemetry")
            .attr("group", (i as usize % params.groups) as i64)
            .attr("reading", i as i64)
            .build();
        script.push((at, ClientAction::Publish(notification)));
    }
    sys.add_client(
        producer,
        LogicalMobilityMode::LocationDependent,
        &[params.brokers - 1],
        script,
    )
    .unwrap();

    let horizon = SimTime::from_millis(50)
        + params
            .publish_interval
            .saturating_mul(params.publications + 1)
        + SimDuration::from_secs(3);
    sys.run_until(horizon);

    let leaked_timeout_guards = (0..sys.broker_count())
        .map(|b| sys.broker(b).unwrap().timeout_tag_count())
        .sum();
    // Group g holds every client index ≡ g (mod groups); publication i goes
    // to group i mod groups.
    let group_size = |g: usize| -> u64 {
        (params.clients / params.groups + usize::from(g < params.clients % params.groups)) as u64
    };
    let expected = (0..params.publications)
        .map(|i| group_size(i as usize % params.groups))
        .sum();
    let (mut lost, mut duplicated) = (0u64, 0u64);
    if params.verify {
        for i in 0..params.clients {
            let id = ClientId::new(10 + i as u32);
            let group = i % params.groups;
            let log = sys.client_log(id).unwrap();
            // Publication j (publisher_seq j + 1) goes to group j mod groups.
            let expected_seqs = (0..params.publications)
                .filter(|j| (*j as usize) % params.groups == group)
                .map(|j| j + 1);
            let received = log.distinct_publisher_seqs(producer);
            lost += expected_seqs.filter(|s| !received.contains(s)).count() as u64;
            duplicated += log.duplicate_publications(producer) as u64;
        }
    }
    ChurnOutcome {
        delivered: sys.metrics().counter("client.delivered"),
        expected,
        lost,
        duplicated,
        replayed: sys.metrics().counter("mobility.replayed"),
        total_messages: sys.total_messages(),
        leaked_timeout_guards,
    }
}

/// Parameters of the relocation-storm scenario: spatially clustered
/// subscription groups on a longer broker line, zipf-skewed group
/// popularity, and every consumer relocating within its cluster inside a
/// short window.  The setting where covering-scoped relocation floods pay
/// off: a relocation's `Relocate` control messages only need to travel
/// within the group's cluster, while the unscoped protocol floods the whole
/// line.
#[derive(Debug, Clone)]
pub struct StormScenario {
    /// Number of mobile consumers.
    pub clients: usize,
    /// Number of distinct subscription groups.  Group `g`'s consumers all
    /// live on the adjacent broker pair `{g % (homes-1), g % (homes-1) + 1}`.
    pub groups: usize,
    /// Brokers in the line topology (the last one hosts the producer).
    pub brokers: usize,
    /// Number of publications, zipf-distributed over the groups.
    pub publications: u64,
    /// Gap between publications.
    pub publish_interval: SimDuration,
    /// Zipf exponent of group popularity (consumers and publications).
    pub zipf_exponent: f64,
    /// Whether relocation floods are scoped to covering links (the broker
    /// default) or flood every broker link (the unscoped oracle baseline).
    pub scoped_relocation: bool,
    /// Per-link delay.
    pub link_delay: DelayModel,
    /// Simulation seed.
    pub seed: u64,
    /// When set, the outcome audits every consumer log for lost and
    /// duplicated publications.
    pub verify: bool,
}

impl Default for StormScenario {
    fn default() -> Self {
        Self {
            clients: 400,
            groups: 30,
            brokers: 13,
            publications: 150,
            publish_interval: SimDuration::from_millis(1),
            zipf_exponent: 1.0,
            scoped_relocation: true,
            link_delay: DelayModel::constant_millis(1),
            seed: 41,
            verify: false,
        }
    }
}

/// Result of a relocation-storm run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StormOutcome {
    /// Deliveries that reached consumers.
    pub delivered: u64,
    /// Deliveries the scenario owes its consumers.
    pub expected: u64,
    /// Publications a consumer never received (audited only with
    /// [`StormScenario::verify`]).
    pub lost: u64,
    /// Publications a consumer received more than once (audited only with
    /// [`StormScenario::verify`]; the same bounded hand-over sliver as
    /// [`ChurnOutcome::duplicated`]).
    pub duplicated: u64,
    /// Notifications replayed from virtual counterparts.
    pub replayed: u64,
    /// Broker-to-broker `Subscribe` + `Unsubscribe` forwards.
    pub subscribe_messages: u64,
    /// Broker-to-broker `Relocate` floods.
    pub relocate_messages: u64,
    /// Broker-to-broker `Fetch` requests.
    pub fetch_messages: u64,
    /// All broker-to-broker subscription-control messages
    /// (subscribe + unsubscribe + relocate + fetch).
    pub control_messages: u64,
    /// Total messages transmitted over links.
    pub total_messages: u64,
    /// Relocation-timeout guards still alive at the end (must be 0).
    pub leaked_timeout_guards: usize,
}

/// The deterministic group assignment of storm consumer `i`.
fn storm_groups(params: &StormScenario) -> Vec<usize> {
    let mut zipf =
        crate::workload::ZipfSampler::new(params.groups, params.zipf_exponent, params.seed);
    (0..params.clients).map(|_| zipf.sample()).collect()
}

/// The deterministic publication groups of a storm run.
fn storm_publication_groups(params: &StormScenario) -> Vec<usize> {
    let mut zipf = crate::workload::ZipfSampler::new(
        params.groups,
        params.zipf_exponent,
        params.seed.wrapping_add(1),
    );
    (0..params.publications).map(|_| zipf.sample()).collect()
}

/// Runs the relocation-storm scenario.
pub fn run_storm(params: &StormScenario) -> StormOutcome {
    assert!(
        params.brokers >= 4,
        "need producer + at least three home brokers"
    );
    assert!(params.clients > 0 && params.groups > 0);
    let config = BrokerConfig::default()
        .with_strategy(RoutingStrategyKind::Covering)
        .with_movement_graph(MovementGraph::paper_example())
        .with_relocation_timeout(SimDuration::from_secs(60))
        .with_scoped_relocation(params.scoped_relocation);
    let topo = Topology::line(params.brokers);
    let mut sys = SystemBuilder::new(&topo)
        .config(config)
        .link_delay(params.link_delay)
        .seed(params.seed)
        .build()
        .unwrap();

    // Consumers of group g are clustered on the adjacent home-broker pair
    // {base, base+1}; each relocates to the other broker of its pair inside
    // a ~70 ms window, so floods overlap heavily ("storm").
    let homes = params.brokers - 1;
    let groups = storm_groups(params);
    for (i, &group) in groups.iter().enumerate() {
        let id = ClientId::new(10 + i as u32);
        let base = group % (homes - 1);
        let home = base + i % 2;
        let target = base + (i + 1) % 2;
        let script = vec![
            (
                SimTime::from_millis(1),
                ClientAction::Attach {
                    broker: sys.broker_node(home).unwrap(),
                },
            ),
            (
                SimTime::from_millis(2),
                ClientAction::Subscribe(crate::workload::group_filter(group)),
            ),
            (
                SimTime::from_millis(120 + (i % 67) as u64),
                ClientAction::MoveTo {
                    broker: sys.broker_node(target).unwrap(),
                },
            ),
        ];
        sys.add_client(
            id,
            LogicalMobilityMode::LocationDependent,
            &[home, target],
            script,
        )
        .unwrap();
    }

    // Producer at the far end; publication popularity follows subscription
    // popularity (an independent zipf stream over the same groups).
    let producer = ClientId::new(2);
    let pub_groups = storm_publication_groups(params);
    let mut script = vec![(
        SimTime::from_millis(1),
        ClientAction::Attach {
            broker: sys.broker_node(params.brokers - 1).unwrap(),
        },
    )];
    for (i, &g) in pub_groups.iter().enumerate() {
        let at = SimTime::from_millis(50) + params.publish_interval.saturating_mul(i as u64);
        script.push((
            at,
            ClientAction::Publish(crate::workload::group_notification(g, i as i64)),
        ));
    }
    sys.add_client(
        producer,
        LogicalMobilityMode::LocationDependent,
        &[params.brokers - 1],
        script,
    )
    .unwrap();

    let horizon = SimTime::from_millis(50)
        + params
            .publish_interval
            .saturating_mul(params.publications + 1)
        + SimDuration::from_secs(3);
    sys.run_until(horizon);

    let leaked_timeout_guards = (0..sys.broker_count())
        .map(|b| sys.broker(b).unwrap().timeout_tag_count())
        .sum();
    let group_size = |g: usize| -> u64 { groups.iter().filter(|&&x| x == g).count() as u64 };
    let expected = pub_groups.iter().map(|&g| group_size(g)).sum();
    let (mut lost, mut duplicated) = (0u64, 0u64);
    if params.verify {
        for (i, &group) in groups.iter().enumerate() {
            let id = ClientId::new(10 + i as u32);
            let log = sys.client_log(id).unwrap();
            // Publication j (publisher_seq j + 1) goes to group
            // pub_groups[j].
            let expected_seqs = pub_groups
                .iter()
                .enumerate()
                .filter(|(_, &g)| g == group)
                .map(|(j, _)| j as u64 + 1);
            let received = log.distinct_publisher_seqs(producer);
            lost += expected_seqs.filter(|s| !received.contains(s)).count() as u64;
            duplicated += log.duplicate_publications(producer) as u64;
        }
    }
    let m = sys.metrics();
    let subscribe_messages = m.counter("broker.tx.subscribe") + m.counter("broker.tx.unsubscribe");
    let relocate_messages = m.counter("broker.tx.relocate");
    let fetch_messages = m.counter("broker.tx.fetch");
    StormOutcome {
        delivered: m.counter("client.delivered"),
        expected,
        lost,
        duplicated,
        replayed: m.counter("mobility.replayed"),
        subscribe_messages,
        relocate_messages,
        fetch_messages,
        control_messages: subscribe_messages + relocate_messages + fetch_messages,
        total_messages: sys.total_messages(),
        leaked_timeout_guards,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relocation_scenario_is_lossless() {
        let outcome = run_physical(&PhysicalScenario::default());
        assert_eq!(outcome.lost, 0);
        assert_eq!(outcome.duplicated, 0);
        assert!(outcome.fifo_preserved);
        assert_eq!(outcome.received, 40);
    }

    #[test]
    fn naive_sign_off_loses_messages() {
        let outcome = run_physical(&PhysicalScenario {
            handoff: HandoffKind::NaiveWithSignOff,
            ..PhysicalScenario::default()
        });
        assert!(outcome.lost > 0);
    }

    #[test]
    fn naive_silent_handoff_duplicates_under_flooding() {
        let outcome = run_physical(&PhysicalScenario {
            strategy: RoutingStrategyKind::Flooding,
            handoff: HandoffKind::NaiveSilent,
            ..PhysicalScenario::default()
        });
        assert!(outcome.duplicated > 0);
    }

    #[test]
    fn churn_scenario_is_complete_and_leak_free() {
        // 200 publications at 1 ms span t = 50..250 ms, overlapping the
        // relocation window (moves staggered from 120 ms), so counterparts
        // really buffer and replay.
        let outcome = run_churn(&ChurnScenario {
            clients: 60,
            groups: 12,
            verify: true,
            ..ChurnScenario::default()
        });
        assert_eq!(outcome.lost, 0, "relocation churn must lose nothing");
        assert!(
            outcome.duplicated * 50 <= outcome.expected,
            "hand-over duplicates must stay a bounded sliver: {} of {}",
            outcome.duplicated,
            outcome.expected
        );
        assert_eq!(outcome.delivered, outcome.expected + outcome.duplicated);
        assert!(
            outcome.replayed > 0,
            "relocations must exercise the replay path"
        );
        assert_eq!(outcome.leaked_timeout_guards, 0);
    }

    #[test]
    fn storm_scenario_is_complete_and_leak_free() {
        let outcome = run_storm(&StormScenario {
            clients: 150,
            groups: 20,
            publications: 150,
            verify: true,
            ..StormScenario::default()
        });
        assert_eq!(outcome.lost, 0, "relocation storm must lose nothing");
        assert!(
            outcome.duplicated * 50 <= outcome.expected,
            "hand-over duplicates must stay a bounded sliver: {} of {}",
            outcome.duplicated,
            outcome.expected
        );
        assert_eq!(outcome.delivered, outcome.expected + outcome.duplicated);
        assert!(
            outcome.replayed > 0,
            "relocations must exercise the replay path"
        );
        assert_eq!(outcome.leaked_timeout_guards, 0);
    }

    #[test]
    fn scoped_relocation_cuts_control_traffic_by_thirty_percent() {
        // Same storm twice, only the flood scope differs.  The unscoped
        // (paper-baseline) protocol forwards every Relocate across every
        // broker link of a 13-broker line; the scoped protocol stops at
        // links without a covering routing entry, so each relocation stays
        // inside its group's two-broker cluster.
        let base = StormScenario {
            clients: 150,
            groups: 20,
            publications: 150,
            verify: true,
            ..StormScenario::default()
        };
        let scoped = run_storm(&base);
        let unscoped = run_storm(&StormScenario {
            scoped_relocation: false,
            ..base
        });
        // Equal deliveries: both runs owe the same publications and lose
        // nothing (duplicates are the usual bounded hand-over sliver).
        assert_eq!(scoped.expected, unscoped.expected);
        assert_eq!(scoped.lost, 0);
        assert_eq!(unscoped.lost, 0);
        assert_eq!(scoped.delivered, scoped.expected + scoped.duplicated);
        assert_eq!(unscoped.delivered, unscoped.expected + unscoped.duplicated);
        // ...at ≥ 30 % fewer broker-to-broker subscription-control messages.
        assert!(
            scoped.control_messages * 10 <= unscoped.control_messages * 7,
            "scoped {} vs unscoped {} control messages",
            scoped.control_messages,
            unscoped.control_messages
        );
        assert_eq!(scoped.leaked_timeout_guards, 0);
        assert_eq!(unscoped.leaked_timeout_guards, 0);
    }

    #[test]
    fn logical_scenario_flooding_costs_more_than_location_dependent() {
        let base = LogicalScenario {
            horizon: SimTime::from_secs(5),
            ..LogicalScenario::default()
        };
        let managed = run_logical(&LogicalScenario {
            scheme: LogicalScheme::LocationDependent(AdaptivityPlan::global_sub_unsub(5)),
            ..base.clone()
        });
        let flooding = run_logical(&LogicalScenario {
            scheme: LogicalScheme::Flooding,
            ..base
        });
        assert!(flooding.total_messages > managed.total_messages);
        assert!(!managed.message_series.is_empty());
        // The cumulative series is non-decreasing.
        assert!(managed.message_series.windows(2).all(|w| w[0].1 <= w[1].1));
    }
}
