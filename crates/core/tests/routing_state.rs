//! What the routing tables hold after a relocation, measured in link
//! notifications per publication and in entries per broker.
//!
//! A 4-broker line with 5 ms links, the producer at broker 3 and one
//! consumer subscribing at broker 0, under Simple, Identity, Covering and
//! Merging routing. A relocation leaves the tables an unsubscription at the
//! old broker plus a subscription at the new one would: the old border
//! broker retracts the departed client's subscription through the routing
//! engine, and the `Unsubscribe`s travel behind its replay.
//!
//! - After the consumer's `move_to(2)`, every publication crosses 1 broker
//!   link (3 → 2), not the 3 of the old path (ROADMAP Finding 6).
//! - After the moved consumer unsubscribes, every table is empty
//!   (`[0, 0, 0, 0]`) and a matching publication crosses no link (Finding
//!   7). The same unsubscription without the move is the control.
//! - A consumer that detaches and never returns is reaped when its
//!   counterpart lease expires, and its delivery path goes with it.
//! - A consumer that detaches and returns to the same broker keeps one
//!   entry per subscription, so its unsubscription still clears the
//!   network.
//!
//! Two static cases pin what each neighbour holds (ROADMAP Findings 12 and
//! 14): a cover sent after the subscription it covers is retracted with its
//! own unsubscription under Covering and Merging, and Simple routing's one
//! copy per subscriber is retracted one copy per unsubscriber.
//!
//! Five restart cases on `line(3)` pin that routing state is soft state: a
//! restarted broker keeps only consumer-side state from its log and
//! re-learns every route from its neighbours (`Resync`), so after each
//! settle every broker's entries from a neighbour are what that neighbour
//! holds as sent to it.

mod common;

use rebeca_broker::ClientId;
use rebeca_core::{BrokerConfig, MobilitySystem, Session, SystemBuilder};
use rebeca_filter::{Constraint, Filter, Notification};
use rebeca_routing::RoutingStrategyKind;
use rebeca_sim::{DelayModel, SimDuration, Topology};

const PUBLICATIONS: u64 = 10;

fn parking() -> Filter {
    Filter::new().with("service", Constraint::Eq("parking".into()))
}

fn vacancy(i: u64) -> Notification {
    Notification::builder()
        .attr("service", "parking")
        .attr("spot", i as i64)
        .build()
}

fn settle(sys: &mut MobilitySystem) {
    let until = sys.now() + SimDuration::from_millis(500);
    sys.run_until(until);
}

/// Publishes `count` matching vacancies numbered from `first` and returns
/// the broker-to-broker notifications they caused.
fn link_notifications(sys: &mut MobilitySystem, producer: Session, first: u64, count: u64) -> u64 {
    let before = sys.metrics().counter("broker.tx.notification");
    for i in first..first + count {
        producer.publish(sys, vacancy(i)).unwrap();
        let until = sys.now() + SimDuration::from_millis(10);
        sys.run_until(until);
    }
    settle(sys);
    sys.metrics().counter("broker.tx.notification") - before
}

/// Publishes [`PUBLICATIONS`] matching vacancies and returns the
/// broker-to-broker notifications they caused, per publication.
fn link_notifications_per_publication(
    sys: &mut MobilitySystem,
    producer: Session,
    first: u64,
) -> f64 {
    link_notifications(sys, producer, first, PUBLICATIONS) as f64 / PUBLICATIONS as f64
}

fn routing_entries(sys: &MobilitySystem) -> Vec<usize> {
    (0..sys.broker_count())
        .map(|b| sys.broker(b).unwrap().routing_entries())
        .collect()
}

/// Runs the scenario and returns (link notifications per publication after
/// the subscription is in place or moved, routing entries after the
/// unsubscription, link notifications per publication after it).
fn run(strategy: RoutingStrategyKind, relocate: bool) -> (f64, Vec<usize>, f64) {
    let mut sys = SystemBuilder::new(&Topology::line(4))
        .strategy(strategy)
        .link_delay(DelayModel::constant_millis(5))
        .seed(1)
        .build()
        .unwrap();
    let consumer = sys.connect(ClientId::new(1), 0).unwrap();
    let producer = sys.connect(ClientId::new(2), 3).unwrap();
    consumer.subscribe(&mut sys, parking()).unwrap();
    settle(&mut sys);
    if relocate {
        consumer.move_to(&mut sys, 2).unwrap();
        settle(&mut sys);
    }
    let subscribed = link_notifications_per_publication(&mut sys, producer, 0);
    let log = consumer.log(&sys).unwrap();
    assert_eq!(log.len() as u64, PUBLICATIONS, "{strategy:?}");
    assert!(log.is_clean(), "{strategy:?}");

    consumer.unsubscribe(&mut sys, parking()).unwrap();
    settle(&mut sys);
    let entries = routing_entries(&sys);
    let unsubscribed = link_notifications_per_publication(&mut sys, producer, PUBLICATIONS);
    assert_eq!(consumer.log(&sys).unwrap().len() as u64, PUBLICATIONS);
    (subscribed, entries, unsubscribed)
}

const STRATEGIES: [RoutingStrategyKind; 4] = [
    RoutingStrategyKind::Simple,
    RoutingStrategyKind::Identity,
    RoutingStrategyKind::Covering,
    RoutingStrategyKind::Merging,
];

#[test]
fn a_relocation_tears_down_the_old_path_and_leaves_no_stale_entries() {
    for strategy in STRATEGIES {
        let (subscribed, entries, unsubscribed) = run(strategy, true);
        // Finding 6: broker 3 → broker 2 only.
        assert_eq!(subscribed, 1.0, "{strategy:?}");
        // Finding 7: the unsubscription clears the network.
        assert_eq!(entries, vec![0, 0, 0, 0], "{strategy:?}");
        assert_eq!(unsubscribed, 0.0, "{strategy:?}");
    }
}

#[test]
fn without_a_relocation_an_unsubscription_clears_the_network() {
    for strategy in STRATEGIES {
        let (subscribed, entries, unsubscribed) = run(strategy, false);
        assert_eq!(subscribed, 3.0, "{strategy:?}");
        assert_eq!(entries, vec![0, 0, 0, 0], "{strategy:?}");
        assert_eq!(unsubscribed, 0.0, "{strategy:?}");
    }
}

/// The consumer detaches at broker 0 and never returns: once the 200 ms
/// counterpart lease expires, broker 0 reaps the counterpart and retracts
/// the subscription like an unsubscription, so no table keeps an entry and
/// no publication from broker 3 crosses a link to nobody.
#[test]
fn an_expired_lease_tears_down_the_abandoned_delivery_path() {
    for strategy in STRATEGIES {
        let config =
            BrokerConfig::default().with_counterpart_lease(Some(SimDuration::from_millis(200)));
        let mut sys = SystemBuilder::new(&Topology::line(4))
            .config(config)
            .strategy(strategy)
            .link_delay(DelayModel::constant_millis(5))
            .seed(1)
            .build()
            .unwrap();
        let consumer = sys.connect(ClientId::new(1), 0).unwrap();
        let producer = sys.connect(ClientId::new(2), 3).unwrap();
        consumer.subscribe(&mut sys, parking()).unwrap();
        settle(&mut sys);
        assert_eq!(routing_entries(&sys), vec![1, 1, 1, 1], "{strategy:?}");

        consumer.detach(&mut sys).unwrap();
        settle(&mut sys);
        assert_eq!(sys.broker(0).unwrap().expired_leases(), 1, "{strategy:?}");
        assert_eq!(routing_entries(&sys), vec![0, 0, 0, 0], "{strategy:?}");
        let abandoned = link_notifications_per_publication(&mut sys, producer, 0);
        assert_eq!(abandoned, 0.0, "{strategy:?}");
    }
}

/// The consumer detaches and comes back to the broker that still holds its
/// subscription: the relocation replays locally and must not add a second
/// entry for the same subscription, so the later unsubscription still
/// clears the network.
#[test]
fn a_return_to_the_same_broker_leaves_one_entry_per_subscription() {
    for strategy in STRATEGIES {
        let mut sys = SystemBuilder::new(&Topology::line(4))
            .strategy(strategy)
            .link_delay(DelayModel::constant_millis(5))
            .seed(1)
            .build()
            .unwrap();
        let consumer = sys.connect(ClientId::new(1), 0).unwrap();
        let producer = sys.connect(ClientId::new(2), 3).unwrap();
        consumer.subscribe(&mut sys, parking()).unwrap();
        settle(&mut sys);
        consumer.detach(&mut sys).unwrap();
        settle(&mut sys);
        consumer.move_to(&mut sys, 0).unwrap();
        settle(&mut sys);
        assert_eq!(routing_entries(&sys), vec![1, 1, 1, 1], "{strategy:?}");
        assert_eq!(
            link_notifications_per_publication(&mut sys, producer, 0),
            3.0,
            "{strategy:?}"
        );

        consumer.unsubscribe(&mut sys, parking()).unwrap();
        settle(&mut sys);
        assert_eq!(routing_entries(&sys), vec![0, 0, 0, 0], "{strategy:?}");
        let log = consumer.log(&sys).unwrap();
        assert_eq!(log.len() as u64, PUBLICATIONS, "{strategy:?}");
        assert!(log.is_clean(), "{strategy:?}");
    }
}

fn cost_below(bound: i64) -> Filter {
    Filter::new().with("cost", Constraint::Lt(bound.into()))
}

/// Finding 12: on `star(3)` one client at broker 3 subscribes `cost < 5`,
/// then subscribes and unsubscribes `cost < 10` (a cover sent after the
/// subscription it covers), then unsubscribes `cost < 5`. Every table ends
/// empty; before the held table the cover stayed at brokers 0, 1 and 2.
#[test]
fn a_later_cover_leaves_with_its_own_unsubscription() {
    for strategy in [RoutingStrategyKind::Covering, RoutingStrategyKind::Merging] {
        let mut sys = SystemBuilder::new(&Topology::star(3))
            .strategy(strategy)
            .link_delay(DelayModel::constant_millis(5))
            .seed(1)
            .build()
            .unwrap();
        let client = sys.connect(ClientId::new(1), 3).unwrap();
        client.subscribe(&mut sys, cost_below(5)).unwrap();
        settle(&mut sys);
        client.subscribe(&mut sys, cost_below(10)).unwrap();
        settle(&mut sys);
        client.unsubscribe(&mut sys, cost_below(10)).unwrap();
        settle(&mut sys);
        assert_eq!(routing_entries(&sys), vec![1, 1, 1, 1], "{strategy:?}");
        client.unsubscribe(&mut sys, cost_below(5)).unwrap();
        settle(&mut sys);
        assert_eq!(routing_entries(&sys), vec![0, 0, 0, 0], "{strategy:?}");
    }
}

/// Finding 14: on `line(3)` two clients at broker 0 subscribe the same
/// filter under Simple routing, which sends one copy per subscription, and
/// both unsubscribe. Every copy is retracted: the tables end empty and 5
/// publications from broker 2 cross no link (before the held table the
/// entries ended at `[0, 1, 2]` and the publications crossed 10 links).
#[test]
fn simple_routing_retracts_one_copy_per_unsubscription() {
    let mut sys = SystemBuilder::new(&Topology::line(3))
        .strategy(RoutingStrategyKind::Simple)
        .link_delay(DelayModel::constant_millis(5))
        .seed(1)
        .build()
        .unwrap();
    let first = sys.connect(ClientId::new(1), 0).unwrap();
    let second = sys.connect(ClientId::new(2), 0).unwrap();
    let producer = sys.connect(ClientId::new(3), 2).unwrap();
    for client in [first, second] {
        client.subscribe(&mut sys, parking()).unwrap();
    }
    settle(&mut sys);
    assert_eq!(routing_entries(&sys), vec![2, 2, 2]);
    for client in [first, second] {
        client.unsubscribe(&mut sys, parking()).unwrap();
    }
    settle(&mut sys);
    assert_eq!(routing_entries(&sys), vec![0, 0, 0]);
    assert_eq!(link_notifications(&mut sys, producer, 0, 5), 0);
}

/// Runs the network quiet, then checks that every broker's entries from a
/// neighbour are what that neighbour holds as sent to it.
fn settle_held(sys: &mut MobilitySystem) {
    settle(sys);
    if let Err(e) = common::check_held(sys) {
        panic!("{e}");
    }
}

/// `line(3)` with 5 ms links under `strategy`: a consumer subscribed to
/// [`parking`] at broker `consumer_at`, and a producer at broker
/// `producer_at`.
fn restart_line(
    strategy: RoutingStrategyKind,
    consumer_at: usize,
    producer_at: usize,
) -> (MobilitySystem, Session, Session) {
    let mut sys = SystemBuilder::new(&Topology::line(3))
        .strategy(strategy)
        .link_delay(DelayModel::constant_millis(5))
        .seed(1)
        .build()
        .unwrap();
    let consumer = sys.connect(ClientId::new(1), consumer_at).unwrap();
    let producer = sys.connect(ClientId::new(2), producer_at).unwrap();
    consumer.subscribe(&mut sys, parking()).unwrap();
    settle_held(&mut sys);
    (sys, consumer, producer)
}

/// The consumer at broker 0 and the producer at broker 2: 3 publications,
/// a restart of broker `restarted`, 3 more.  Returns the consumer's log
/// length, whether it is clean, and the entries at the end.
fn restart_between_bursts(
    strategy: RoutingStrategyKind,
    restarted: usize,
) -> (usize, bool, Vec<usize>) {
    let (mut sys, consumer, producer) = restart_line(strategy, 0, 2);
    link_notifications(&mut sys, producer, 0, 3);
    sys.crash_and_restart_broker(restarted).unwrap();
    settle_held(&mut sys);
    link_notifications(&mut sys, producer, 3, 3);
    common::check_held(&sys).unwrap();
    let log = consumer.log(&sys).unwrap();
    (log.len(), log.is_clean(), routing_entries(&sys))
}

/// Finding 2(a), transit broker: a restart of broker 1 between two bursts
/// lost the second burst (3 of 6, entries `[1, 0, 1]`).  The restarted
/// broker re-learns its route from broker 0, and broker 2 replaces what it
/// held from broker 1's old incarnation.
#[test]
fn a_restarted_transit_broker_relearns_its_routes() {
    for strategy in STRATEGIES {
        let (delivered, clean, entries) = restart_between_bursts(strategy, 1);
        assert_eq!(delivered, 6, "{strategy:?}");
        assert!(clean, "{strategy:?}");
        assert_eq!(entries, vec![1, 1, 1], "{strategy:?}");
    }
}

/// Finding 2(a), the producer's border broker: a restart of broker 2 lost
/// the second burst too (3 of 6).  Now all 6 arrive, but the log is not
/// clean: the restarted border broker numbers the producer's
/// `publisher_seq` from 1 again (Finding 1, which direction 9's publisher
/// identity mends).
#[test]
fn a_restarted_producer_border_relearns_its_routes_but_renumbers_its_publisher() {
    for strategy in STRATEGIES {
        let (delivered, clean, entries) = restart_between_bursts(strategy, 2);
        assert_eq!(delivered, 6, "{strategy:?}");
        assert!(
            !clean,
            "{strategy:?}: publisher_seq restarts at 1 (Finding 1)"
        );
        assert_eq!(entries, vec![1, 1, 1], "{strategy:?}");
    }
}

/// Finding 2(b): transit broker 1 restarts after the consumer at broker 0
/// subscribed, then the consumer unsubscribes.  The tables ended at
/// `[0, 0, 1]`: broker 1 had no entry to remove, so broker 2 kept the one
/// from broker 1 forever.  Now broker 1 has re-learnt it and retracts it.
#[test]
fn an_unsubscription_after_a_transit_restart_clears_the_network() {
    for strategy in STRATEGIES {
        let (mut sys, consumer, _producer) = restart_line(strategy, 0, 2);
        sys.crash_and_restart_broker(1).unwrap();
        settle_held(&mut sys);
        consumer.unsubscribe(&mut sys, parking()).unwrap();
        settle_held(&mut sys);
        assert_eq!(routing_entries(&sys), vec![0, 0, 0], "{strategy:?}");
    }
}

/// Finding 16: a consumer at broker 0 subscribes, moves to broker 2 and
/// unsubscribes, which empties every table; a restart of broker 0 then
/// re-installed the journaled re-point (`[1, 0, 0]`), and 5 publications
/// from a producer at broker 0 crossed 5 links to nobody.  The log keeps
/// no routing state now, so the restart leaves the tables empty.
#[test]
fn a_restart_resurrects_no_torn_down_relocation_path() {
    for strategy in STRATEGIES {
        let (mut sys, consumer, producer) = restart_line(strategy, 0, 0);
        consumer.move_to(&mut sys, 2).unwrap();
        settle_held(&mut sys);
        consumer.unsubscribe(&mut sys, parking()).unwrap();
        settle_held(&mut sys);
        assert_eq!(routing_entries(&sys), vec![0, 0, 0], "{strategy:?}");
        sys.crash_and_restart_broker(0).unwrap();
        settle_held(&mut sys);
        assert_eq!(routing_entries(&sys), vec![0, 0, 0], "{strategy:?}");
        assert_eq!(
            link_notifications(&mut sys, producer, 0, 5),
            0,
            "{strategy:?}"
        );
    }
}

/// The one case the journaled re-points served: the consumer at broker 1
/// moves to broker 0 with the producer at broker 2, and the old border
/// broker 1 restarts after its commit.  It re-learns the relocated path
/// from broker 0, so all 6 publications arrive, in order.
#[test]
fn a_restarted_old_border_relearns_the_relocated_path() {
    for strategy in STRATEGIES {
        let (mut sys, consumer, producer) = restart_line(strategy, 1, 2);
        consumer.move_to(&mut sys, 0).unwrap();
        settle_held(&mut sys);
        link_notifications(&mut sys, producer, 0, 3);
        sys.crash_and_restart_broker(1).unwrap();
        settle_held(&mut sys);
        link_notifications(&mut sys, producer, 3, 3);
        common::check_held(&sys).unwrap();
        let log = consumer.log(&sys).unwrap();
        assert_eq!(log.len(), 6, "{strategy:?}");
        assert!(log.is_clean(), "{strategy:?}");
        assert_eq!(routing_entries(&sys), vec![1, 1, 1], "{strategy:?}");
    }
}
