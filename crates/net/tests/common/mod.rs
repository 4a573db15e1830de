//! Shared scenario pieces of the TCP integration tests: the quickstart
//! topology, the mid-run relocation script, and the reference run on the
//! deterministic simulator the TCP runs must match byte for byte.
//!
//! Each integration-test binary uses its own subset of these helpers.
#![allow(dead_code)]

use rebeca_broker::{ClientId, ConsumerLog};
use rebeca_core::{BrokerConfig, MobilitySystem, RetentionConfig, SystemBuilder};
use rebeca_filter::{Constraint, Filter, Notification};
use rebeca_location::MovementGraph;
use rebeca_routing::RoutingStrategyKind;
use rebeca_sim::{DelayModel, SimDuration, Topology};

pub const CONSUMER: ClientId = ClientId::new(1);
pub const PRODUCER: ClientId = ClientId::new(2);
pub const PUBLICATIONS: u64 = 10;
/// The consumer relocates from broker 0 to broker 1 after this many
/// publications have been delivered.
pub const MOVE_AFTER: u64 = 5;

pub fn parking_filter() -> Filter {
    Filter::new().with("service", Constraint::Eq("parking".into()))
}

pub fn vacancy(i: u64) -> Notification {
    Notification::builder()
        .attr("service", "parking")
        .attr("spot", i as i64)
        .build()
}

pub fn broker_config() -> BrokerConfig {
    BrokerConfig::default()
        .with_strategy(RoutingStrategyKind::Covering)
        .with_movement_graph(MovementGraph::paper_example())
        .with_relocation_timeout(SimDuration::from_secs(5))
}

pub fn builder(delay_millis: u64) -> SystemBuilder {
    SystemBuilder::new(&Topology::line(3))
        .config(broker_config())
        .link_delay(DelayModel::constant_millis(delay_millis))
        .seed(7)
}

/// Publications delivered live before the detach in the retention scenario.
pub const RETAIN_PRE: u64 = 10;
/// Matching publications missed while detached (the acceptance floor is
/// 100).
pub const RETAIN_MISSED: u64 = 110;
/// Live publications after the history replay settled.
pub const RETAIN_TAIL: u64 = 10;
/// Total publications of the retention scenario.
pub const RETAIN_TOTAL: u64 = RETAIN_PRE + RETAIN_MISSED + RETAIN_TAIL;

/// Retention-enabled broker config for the time-aware subscription tests;
/// the relocation timeout doubles as the history-gather timeout.
pub fn retention_broker_config() -> BrokerConfig {
    broker_config()
        .with_relocation_timeout(SimDuration::from_secs(2))
        .with_retention(Some(RetentionConfig {
            segment_max_records: 32,
            max_segments: 64,
            retention_window_micros: 0,
        }))
}

pub fn retention_builder(delay_millis: u64) -> SystemBuilder {
    SystemBuilder::new(&Topology::line(3))
        .config(retention_broker_config())
        .link_delay(DelayModel::constant_millis(delay_millis))
        .seed(7)
}

/// Drives the retention acceptance scenario on an already-built system
/// (works on any driver): the consumer detaches from broker 0, misses
/// [`RETAIN_MISSED`] matching publications, reattaches at broker 1 with a
/// `since`-scoped subscription that replays the gap from the origin
/// broker's retention store, then receives a live tail.  Returns the
/// consumer's delivery log.
///
/// Every phase boundary is padded by a full second of quiet so the window
/// start is unambiguous even across the loosely-synchronised clocks of
/// separate wall-clock drivers.
pub fn drive_retention_scenario(sys: &mut MobilitySystem, budget_ms: u64) -> ConsumerLog {
    let consumer = sys.connect(CONSUMER, 0).expect("consumer connects");
    consumer
        .subscribe(sys, parking_filter())
        .expect("subscribe");
    let producer = sys.connect(PRODUCER, 2).expect("producer connects");
    let now = sys.now();
    sys.run_until(now + SimDuration::from_millis(300));

    for i in 1..=RETAIN_PRE {
        producer.publish(sys, vacancy(i)).expect("publish");
    }
    assert!(
        run_until_deliveries(sys, RETAIN_PRE as usize, budget_ms),
        "pre-detach publications not delivered in time: {:?}",
        sys.client_log(CONSUMER).unwrap().len()
    );
    let now = sys.now();
    sys.run_until(now + SimDuration::from_millis(1_000));

    consumer.detach(sys).expect("detach");
    let now = sys.now();
    sys.run_until(now + SimDuration::from_millis(1_000));
    // Mid-gap: strictly after every pre-detach retention timestamp,
    // strictly before every offline one.
    let since_micros = sys.now().as_micros();
    let now = sys.now();
    sys.run_until(now + SimDuration::from_millis(1_000));

    for i in RETAIN_PRE + 1..=RETAIN_PRE + RETAIN_MISSED {
        producer.publish(sys, vacancy(i)).expect("publish");
    }
    // Let the origin broker retain the offline batch.
    let now = sys.now();
    sys.run_until(now + SimDuration::from_millis(1_000));

    consumer.reattach(sys, 1).expect("reattach");
    let now = sys.now();
    sys.run_until(now + SimDuration::from_millis(300));
    consumer
        .subscribe_since(sys, parking_filter(), since_micros)
        .expect("subscribe_since");
    assert!(
        run_until_deliveries(sys, (RETAIN_PRE + RETAIN_MISSED) as usize, budget_ms),
        "history replay not delivered in time: {:?}",
        sys.client_log(CONSUMER).unwrap().len()
    );

    for i in RETAIN_PRE + RETAIN_MISSED + 1..=RETAIN_TOTAL {
        producer.publish(sys, vacancy(i)).expect("publish");
    }
    assert!(
        run_until_deliveries(sys, RETAIN_TOTAL as usize, budget_ms),
        "live tail not delivered in time: {:?}",
        sys.client_log(CONSUMER).unwrap().len()
    );
    sys.client_log(CONSUMER).unwrap().clone()
}

/// The never-detached oracle of the retention scenario: the identical
/// publication stream received live from start to finish on the
/// deterministic simulator.  A correct history merge is indistinguishable
/// from never having been away, so the detach/reattach runs must produce
/// a byte-identical consumer log.
pub fn retention_oracle_sim_log() -> ConsumerLog {
    let mut sys = retention_builder(1).build().expect("sim build");
    let consumer = sys.connect(CONSUMER, 0).expect("consumer connects");
    consumer
        .subscribe(&mut sys, parking_filter())
        .expect("subscribe");
    let producer = sys.connect(PRODUCER, 2).expect("producer connects");
    let now = sys.now();
    sys.run_until(now + SimDuration::from_millis(300));
    for i in 1..=RETAIN_TOTAL {
        producer.publish(&mut sys, vacancy(i)).expect("publish");
    }
    assert!(
        run_until_deliveries(&mut sys, RETAIN_TOTAL as usize, 60_000),
        "oracle run incomplete"
    );
    let log = sys.client_log(CONSUMER).unwrap().clone();
    assert!(log.is_clean(), "oracle run must be clean");
    log
}

/// Runs the driver until the consumer's log holds `want` deliveries or the
/// wall/virtual deadline passes.  Returns whether the target was reached.
pub fn run_until_deliveries(sys: &mut MobilitySystem, want: usize, budget_ms: u64) -> bool {
    run_until_all_deliveries(sys, &[CONSUMER], want, budget_ms)
}

/// Runs the driver until every log of `clients` holds `want` deliveries or
/// the wall/virtual deadline passes.  Returns whether the target was
/// reached.
pub fn run_until_all_deliveries(
    sys: &mut MobilitySystem,
    clients: &[ClientId],
    want: usize,
    budget_ms: u64,
) -> bool {
    let deadline = sys.now() + SimDuration::from_millis(budget_ms);
    loop {
        if clients
            .iter()
            .all(|&c| sys.client_log(c).unwrap().len() >= want)
        {
            return true;
        }
        let now = sys.now();
        if now >= deadline {
            return false;
        }
        sys.run_until(now + SimDuration::from_millis(25));
    }
}

/// Drives the quickstart-plus-relocation scenario through interactive
/// sessions on an already-built system (works on any driver): consumer at
/// broker 0 subscribes, producer at broker 2 publishes
/// [`PUBLICATIONS`] vacancies, and the consumer moves to broker 1
/// mid-stream.  Returns the consumer's delivery log.
pub fn drive_scenario(sys: &mut MobilitySystem, budget_ms: u64) -> ConsumerLog {
    let consumer = sys.connect(CONSUMER, 0).expect("consumer connects");
    consumer
        .subscribe(sys, parking_filter())
        .expect("subscribe");
    let producer = sys.connect(PRODUCER, 2).expect("producer connects");
    // Let attach + subscription flooding settle before publishing.
    let now = sys.now();
    sys.run_until(now + SimDuration::from_millis(200));

    for i in 1..=MOVE_AFTER {
        producer.publish(sys, vacancy(i)).expect("publish");
    }
    assert!(
        run_until_deliveries(sys, MOVE_AFTER as usize, budget_ms),
        "first half not delivered in time: {:?}",
        sys.client_log(CONSUMER).unwrap().len()
    );

    // Mid-run relocation; the next publications race the hand-over.
    consumer.move_to(sys, 1).expect("relocate");
    for i in MOVE_AFTER + 1..=PUBLICATIONS {
        producer.publish(sys, vacancy(i)).expect("publish");
    }
    assert!(
        run_until_deliveries(sys, PUBLICATIONS as usize, budget_ms),
        "second half not delivered in time: {:?}",
        sys.client_log(CONSUMER).unwrap().len()
    );
    sys.client_log(CONSUMER).unwrap().clone()
}

/// The reference run: the identical scenario on the deterministic
/// simulator.  The TCP runs must produce a byte-identical consumer log.
pub fn reference_sim_log() -> ConsumerLog {
    let mut sys = builder(1).build().expect("sim build");
    let log = drive_scenario(&mut sys, 60_000);
    assert!(log.is_clean(), "reference run must be clean");
    log
}

/// Stationary consumers of the watched scenario, one per broker, each
/// subscribed to every vacancy.
pub const WATCHERS: [(ClientId, usize); 3] = [
    (ClientId::new(3), 0),
    (ClientId::new(4), 1),
    (ClientId::new(5), 2),
];

/// [`drive_scenario`] with the [`WATCHERS`] attached first, so several
/// consumers share every connection between the client process and the
/// brokers.  Returns the roaming consumer's log, then each watcher's.
pub fn drive_watched_scenario(sys: &mut MobilitySystem, budget_ms: u64) -> Vec<ConsumerLog> {
    for (watcher, broker) in WATCHERS {
        let session = sys.connect(watcher, broker).expect("watcher connects");
        session.subscribe(sys, parking_filter()).expect("subscribe");
    }
    let mut logs = vec![drive_scenario(sys, budget_ms)];
    let watchers = WATCHERS.map(|(watcher, _)| watcher);
    assert!(
        run_until_all_deliveries(sys, &watchers, PUBLICATIONS as usize, budget_ms),
        "watchers not served in time"
    );
    logs.extend(watchers.map(|w| sys.client_log(w).unwrap().clone()));
    logs
}

/// The watched scenario on the deterministic simulator: the oracle of
/// every consumer's log.
pub fn reference_watched_sim_logs() -> Vec<ConsumerLog> {
    let mut sys = builder(1).build().expect("sim build");
    let logs = drive_watched_scenario(&mut sys, 60_000);
    assert!(
        logs.iter().all(ConsumerLog::is_clean),
        "oracle must be clean"
    );
    logs
}

/// Asserts the paper's QoS triple on a finished log: completeness, no
/// duplicates, sender-FIFO order.
pub fn assert_exactly_once(log: &ConsumerLog) {
    assert!(log.is_clean(), "violations: {:?}", log.violations());
    assert_eq!(log.len(), PUBLICATIONS as usize);
    assert_eq!(
        log.distinct_publisher_seqs(PRODUCER),
        (1..=PUBLICATIONS).collect::<Vec<u64>>(),
        "incomplete delivery"
    );
}
