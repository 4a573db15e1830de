//! Acceptance tests of the retention subsystem: time-aware subscriptions
//! over the segment-rotated retained-publication store.
//!
//! The headline scenario is the one the paper's relocation protocol cannot
//! cover: a client detaches, stays away long enough that it misses more
//! than a hundred matching publications, and reattaches *at a different
//! broker* with a `since`-scoped subscription.  The history replay must
//! close the gap exactly once, merged in order with live traffic — the
//! delivery log must be byte-identical to a run that never detached.

use rebeca_broker::ClientId;
use rebeca_core::{BrokerConfig, MobilitySystem, SystemBuilder};
use rebeca_filter::{Constraint, Filter, Notification};
use rebeca_retain::RetentionConfig;
use rebeca_sim::{DelayModel, SimDuration, SimTime, Topology};

const CONSUMER: ClientId = ClientId::new(1);
const PRODUCER: ClientId = ClientId::new(2);

/// Publications delivered live before the detach.
const PRE: u64 = 20;
/// Matching publications published while the consumer is away (the
/// acceptance floor is 100).
const MISSED: u64 = 110;
/// Publications after the reattach: one inside the open history-gather
/// window (exercising the hold-and-merge path) plus a live tail.
const TAIL: u64 = 9;
const TOTAL: u64 = PRE + MISSED + 1 + TAIL;

/// The consumer detaches at t = 1 s and the offline publications start at
/// t = 1.5 s; any instant in the quiet gap is a correct window start.
const SINCE_MICROS: u64 = 1_250_000;

fn parking_filter() -> Filter {
    Filter::new().with("service", Constraint::Eq("parking".into()))
}

fn vacancy(i: u64) -> Notification {
    Notification::builder()
        .attr("service", "parking")
        .attr("spot", i as i64)
        .build()
}

fn retention_config() -> BrokerConfig {
    BrokerConfig::default()
        // Doubles as the history-gather timeout; short keeps the test fast.
        .with_relocation_timeout(SimDuration::from_secs(1))
        .with_retention(Some(RetentionConfig {
            segment_max_records: 32,
            max_segments: 64,
            retention_window_micros: 0,
        }))
}

fn retention_system(config: BrokerConfig) -> MobilitySystem {
    SystemBuilder::new(&Topology::line(3))
        .config(config)
        .link_delay(DelayModel::constant_millis(2))
        .seed(42)
        .build()
        .expect("non-empty topology")
}

/// Runs the scenario on a fixed virtual-time schedule; `detach` switches
/// between the detach/reattach run and the never-detached oracle.  The
/// publication timeline is identical either way, so the two delivery logs
/// are comparable byte for byte.
fn drive(detach: bool) -> MobilitySystem {
    let mut sys = retention_system(retention_config());
    let consumer = sys.connect(CONSUMER, 0).expect("consumer connects");
    consumer
        .subscribe(&mut sys, parking_filter())
        .expect("subscribe");
    let producer = sys.connect(PRODUCER, 2).expect("producer connects");
    sys.run_until(SimTime::from_millis(100));

    // Phase 1: live deliveries at broker 0.
    for i in 1..=PRE {
        producer.publish(&mut sys, vacancy(i)).expect("publish");
    }
    sys.run_until(SimTime::from_millis(1_000));

    if detach {
        consumer.detach(&mut sys).expect("detach");
    }
    sys.run_until(SimTime::from_millis(1_500));

    // Phase 2: published while the consumer is away — only the origin
    // broker's retention store sees them through to the reattached client.
    for i in PRE + 1..=PRE + MISSED {
        producer.publish(&mut sys, vacancy(i)).expect("publish");
    }
    sys.run_until(SimTime::from_millis(3_000));

    if detach {
        // Reattach at a *different* broker and close the gap from history.
        consumer.reattach(&mut sys, 1).expect("reattach");
        sys.run_until(SimTime::from_millis(3_100));
        consumer
            .subscribe_since(&mut sys, parking_filter(), SINCE_MICROS)
            .expect("subscribe_since");
    }
    sys.run_until(SimTime::from_millis(3_500));

    // Phase 3: one publication inside the open history-gather window (the
    // session closes at ~4.1 s): routed live, held, merged exactly once.
    producer
        .publish(&mut sys, vacancy(PRE + MISSED + 1))
        .expect("publish");
    sys.run_until(SimTime::from_millis(6_000));

    // Phase 4: plain live tail after the session has closed.
    for i in PRE + MISSED + 2..=TOTAL {
        producer.publish(&mut sys, vacancy(i)).expect("publish");
    }
    sys.run_until(SimTime::from_millis(8_000));
    sys
}

/// The acceptance criterion: detach, miss >100 matching publications,
/// reattach elsewhere with a `since`-scoped subscription — and the
/// delivery log is byte-identical to the never-detached oracle.
#[test]
fn reattach_with_subscribe_since_matches_never_detached_oracle() {
    let with_gap = drive(true);
    let oracle = drive(false);

    let gap_log = with_gap.client_log(CONSUMER).unwrap();
    let oracle_log = oracle.client_log(CONSUMER).unwrap();

    assert!(gap_log.is_clean(), "violations: {:?}", gap_log.violations());
    assert!(oracle_log.is_clean());
    assert_eq!(oracle_log.len(), TOTAL as usize);
    assert_eq!(
        gap_log.distinct_publisher_seqs(PRODUCER),
        (1..=TOTAL).collect::<Vec<u64>>(),
        "history must close the offline gap exactly once"
    );
    assert_eq!(
        gap_log, oracle_log,
        "detach/reattach-with-history and never-detached runs must record \
         identical deliveries"
    );
    // Literally byte-identical, not just structurally equal.
    assert_eq!(
        format!("{gap_log:?}").into_bytes(),
        format!("{oracle_log:?}").into_bytes()
    );

    // The machinery actually ran: a session opened and closed, remote
    // retained history was replayed, and the in-window live publication
    // went through the hold-and-merge path.
    let m = with_gap.metrics();
    assert_eq!(m.counter("retain.history_session_opened"), 1);
    assert_eq!(m.counter("retain.history_session_closed"), 1);
    assert!(
        m.counter("retain.replayed") >= MISSED,
        "remote broker replayed its retained slice"
    );
    assert!(
        m.counter("retain.history_held") >= 1,
        "the in-window live delivery was held and merged"
    );
}

/// Retention surfaces in the status plane, and the broker-path store
/// honours the segment cap: with 8-record segments and at most 3 segments,
/// 100 appends must leave exactly 2 archived + 1 live segment.
#[test]
fn status_reports_capped_segment_rotation() {
    let config = BrokerConfig::default().with_retention(Some(RetentionConfig {
        segment_max_records: 8,
        max_segments: 3,
        retention_window_micros: 0,
    }));
    let mut sys = retention_system(config);
    let consumer = sys.connect(CONSUMER, 0).expect("consumer connects");
    consumer
        .subscribe(&mut sys, parking_filter())
        .expect("subscribe");
    let producer = sys.connect(PRODUCER, 2).expect("producer connects");
    sys.run_until(SimTime::from_millis(100));
    for i in 1..=100u64 {
        producer.publish(&mut sys, vacancy(i)).expect("publish");
    }
    sys.run_until(SimTime::from_secs(2));

    let status = sys.status();
    let b2 = status
        .brokers
        .iter()
        .find(|b| b.broker == 2)
        .expect("broker 2 reports");
    // 100 appends in 8-record segments: 12 rotations, the cap keeps the
    // newest 2 archived segments (16 records) plus 4 in the live tail.
    assert_eq!(b2.retained_segments, 3);
    assert_eq!(b2.retained_publications, 20);
    assert!(
        b2.oldest_retained_age_ms.is_some(),
        "a non-empty store reports its oldest record's age"
    );
    // The consumer-only brokers retain nothing (origin-broker retention).
    let b0 = status.brokers.iter().find(|b| b.broker == 0).unwrap();
    assert_eq!(b0.retained_publications, 0);
}

/// Time-based expiry through the broker path drops whole archived
/// segments — never a partial segment, never the live tail.
#[test]
fn expiry_drops_whole_archived_segments_through_the_broker() {
    let config = BrokerConfig::default().with_retention(Some(RetentionConfig {
        segment_max_records: 8,
        max_segments: 64,
        retention_window_micros: 1_000_000,
    }));
    let mut sys = retention_system(config);
    let consumer = sys.connect(CONSUMER, 0).expect("consumer connects");
    consumer
        .subscribe(&mut sys, parking_filter())
        .expect("subscribe");
    let producer = sys.connect(PRODUCER, 2).expect("producer connects");
    sys.run_until(SimTime::from_millis(100));
    // 20 appends: 2 sealed segments of 8 plus 4 live records.
    for i in 1..=20u64 {
        producer.publish(&mut sys, vacancy(i)).expect("publish");
    }
    sys.run_until(SimTime::from_millis(200));

    // Let both archived segments age past the 1 s window, then append one
    // more record — expiry runs on the append path.
    sys.run_until(SimTime::from_secs(3));
    producer.publish(&mut sys, vacancy(21)).expect("publish");
    sys.run_until(SimTime::from_secs(4));

    let status = sys.status();
    let b2 = status
        .brokers
        .iter()
        .find(|b| b.broker == 2)
        .expect("broker 2 reports");
    // The two sealed segments aged out wholesale; the live tail (4 old
    // records + the fresh one) is never expired.
    assert_eq!(b2.retained_segments, 1);
    assert_eq!(b2.retained_publications, 5);
}

/// Lease-based counterpart GC: a client that detaches and never returns
/// has its virtual counterpart (and the buffered deliveries behind it)
/// reclaimed once the lease expires, visible in the status plane.
#[test]
fn expired_lease_reaps_the_abandoned_counterpart() {
    let config = BrokerConfig::default()
        .with_counterpart_lease(Some(SimDuration::from_millis(500)))
        .with_retention(Some(RetentionConfig::default()));
    let mut sys = retention_system(config);
    let consumer = sys.connect(CONSUMER, 0).expect("consumer connects");
    consumer
        .subscribe(&mut sys, parking_filter())
        .expect("subscribe");
    let producer = sys.connect(PRODUCER, 2).expect("producer connects");
    sys.run_until(SimTime::from_millis(100));
    for i in 1..=5u64 {
        producer.publish(&mut sys, vacancy(i)).expect("publish");
    }
    sys.run_until(SimTime::from_millis(500));

    consumer.detach(&mut sys).expect("detach");
    sys.run_until(SimTime::from_millis(600));
    let status = sys.status();
    let b0 = status.brokers.iter().find(|b| b.broker == 0).unwrap();
    assert_eq!(b0.counterparts, 1, "detach opens a virtual counterpart");
    assert_eq!(b0.expired_leases, 0);

    // Published into the void: buffered by the counterpart of a client
    // that will never come back.
    for i in 6..=10u64 {
        producer.publish(&mut sys, vacancy(i)).expect("publish");
    }
    sys.run_until(SimTime::from_millis(700));
    let status = sys.status();
    let b0 = status.brokers.iter().find(|b| b.broker == 0).unwrap();
    assert!(
        b0.buffered_deliveries > 0,
        "counterpart buffers while leased"
    );

    // Let the lease sweep fire.
    sys.run_until(SimTime::from_secs(5));
    let status = sys.status();
    let b0 = status.brokers.iter().find(|b| b.broker == 0).unwrap();
    assert_eq!(b0.counterparts, 0, "expired counterpart is reclaimed");
    assert_eq!(b0.expired_leases, 1, "the expiry is counted");
    assert_eq!(b0.buffered_deliveries, 0, "its buffer is released");

    // The client's pre-detach log is untouched by the GC.
    let log = sys.client_log(CONSUMER).unwrap();
    assert!(log.is_clean());
    assert_eq!(log.len(), 5);
}

/// `subscribe_since` on brokers without a retention store degrades to a
/// plain subscription: no history, but live delivery stays exactly-once
/// (in-window deliveries ride through the hold-and-merge path).
#[test]
fn subscribe_since_without_retention_degrades_to_live_only() {
    let config = BrokerConfig::default().with_relocation_timeout(SimDuration::from_secs(1));
    let mut sys = retention_system(config);
    let consumer = sys.connect(CONSUMER, 0).expect("consumer connects");
    let producer = sys.connect(PRODUCER, 2).expect("producer connects");
    sys.run_until(SimTime::from_millis(100));
    // Published before the subscription ever existed: unrecoverable
    // without a retention store.
    producer.publish(&mut sys, vacancy(1)).expect("publish");
    sys.run_until(SimTime::from_millis(500));

    consumer
        .subscribe_since(&mut sys, parking_filter(), 0)
        .expect("subscribe_since");
    // Inside the gather window: held, then merged.
    sys.run_until(SimTime::from_millis(800));
    producer.publish(&mut sys, vacancy(2)).expect("publish");
    // After the session closed: plain live delivery.
    sys.run_until(SimTime::from_secs(3));
    producer.publish(&mut sys, vacancy(3)).expect("publish");
    sys.run_until(SimTime::from_secs(4));

    let log = sys.client_log(CONSUMER).unwrap();
    assert!(log.is_clean(), "violations: {:?}", log.violations());
    assert_eq!(
        log.distinct_publisher_seqs(PRODUCER),
        vec![2, 3],
        "without retention only post-subscription publications arrive"
    );
}

/// A restart empties the in-memory retention store.  The recovered broker
/// reports that on the first event it handles — a counter and a journal
/// event — so a later `subscribe_since` gap is not silent.  A broker
/// without retention has no history to lose and reports nothing.
#[test]
fn recovery_reports_the_retention_reset() {
    for (config, resets) in [(retention_config(), 1), (BrokerConfig::default(), 0)] {
        let mut sys = retention_system(config);
        let consumer = sys.connect(CONSUMER, 0).expect("consumer connects");
        consumer
            .subscribe(&mut sys, parking_filter())
            .expect("subscribe");
        let producer = sys.connect(PRODUCER, 2).expect("producer connects");
        sys.run_until(SimTime::from_millis(100));
        for i in 1..=5u64 {
            producer.publish(&mut sys, vacancy(i)).expect("publish");
        }
        sys.run_until(SimTime::from_millis(500));

        // Restart the producer's broker, then give it an event to handle.
        sys.crash_and_restart_broker(2).expect("crash/restart");
        producer.publish(&mut sys, vacancy(6)).expect("publish");
        sys.run_until(SimTime::from_secs(1));

        let m = sys.metrics();
        assert_eq!(m.counter("retain.reset_on_recovery"), resets);
        let journaled = m
            .journal()
            .events()
            .filter(|e| e.kind == "retain.reset")
            .count();
        assert_eq!(journaled as u64, resets);
        assert_eq!(m.counter("wal.recoveries"), 1, "the broker did recover");
    }
}

/// History routes go with the gather timeout: the brokers a
/// `subscribe_since` fetch passed keep their reverse-path pointer only
/// until the first event they handle more than one gather timeout later.
#[test]
fn history_routes_expire_with_the_gather_timeout() {
    let mut sys = retention_system(retention_config());
    let consumer = sys.connect(CONSUMER, 0).expect("consumer connects");
    let producer = sys.connect(PRODUCER, 2).expect("producer connects");
    sys.run_until(SimTime::from_millis(100));
    consumer
        .subscribe_since(&mut sys, parking_filter(), 0)
        .expect("subscribe_since");
    sys.run_until(SimTime::from_millis(200));
    let routes = |sys: &MobilitySystem| -> Vec<usize> {
        (0..3)
            .map(|b| sys.broker(b).unwrap().history_route_count())
            .collect()
    };
    assert_eq!(routes(&sys), vec![0, 1, 1], "the fetch passed 1 and 2");

    // The 1 s gather timeout passes without traffic: nothing expires yet.
    sys.run_until(SimTime::from_millis(1_500));
    assert_eq!(routes(&sys), vec![0, 1, 1]);
    assert_eq!(sys.broker(0).unwrap().open_history_sessions(), 0);

    // One more event at every broker: a publication from broker 2 reaches
    // the consumer at broker 0 through broker 1.
    producer.publish(&mut sys, vacancy(1)).expect("publish");
    sys.run_until(SimTime::from_millis(1_600));
    assert_eq!(routes(&sys), vec![0, 0, 0]);
    assert_eq!(sys.client_log(CONSUMER).unwrap().len(), 1);
}
