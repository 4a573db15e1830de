//! What the routing tables hold after a relocation, measured in link
//! notifications per publication and in entries per broker.
//!
//! A 4-broker line with 5 ms links, the producer at broker 3 and one
//! consumer subscribing at broker 0. The asserted values are **two known
//! bugs**, pinned under Simple, Identity, Covering and Merging routing so
//! that the change fixing them has to flip these asserts (ROADMAP direction
//! 13):
//!
//! - After the consumer's `move_to(2)`, every publication still crosses all
//!   3 broker links, where 1 (broker 3 → 2) is enough: the relocation never
//!   tears down the old delivery path (ROADMAP Finding 6).
//! - After the moved consumer unsubscribes, every broker keeps one entry
//!   (`[1, 1, 1, 1]`) and every later matching publication still crosses 3
//!   links to nobody (ROADMAP Finding 7). The same unsubscription without
//!   the move leaves `[0, 0, 0, 0]` and sends nothing, which is the control.

use rebeca_broker::ClientId;
use rebeca_core::{MobilitySystem, Session, SystemBuilder};
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

/// Publishes [`PUBLICATIONS`] matching vacancies and returns the
/// broker-to-broker notifications they caused, per publication.
fn link_notifications_per_publication(
    sys: &mut MobilitySystem,
    producer: Session,
    first: u64,
) -> f64 {
    let before = sys.metrics().counter("broker.tx.notification");
    for i in first..first + PUBLICATIONS {
        producer.publish(sys, vacancy(i)).unwrap();
        let until = sys.now() + SimDuration::from_millis(10);
        sys.run_until(until);
    }
    settle(sys);
    let sent = sys.metrics().counter("broker.tx.notification") - before;
    sent as f64 / PUBLICATIONS as f64
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
fn a_relocation_leaves_the_old_path_and_stale_entries_behind() {
    for strategy in STRATEGIES {
        let (subscribed, entries, unsubscribed) = run(strategy, true);
        // Bug (Finding 6): the ideal is 1.00, broker 3 → broker 2 only.
        assert_eq!(subscribed, 3.0, "{strategy:?}");
        // Bug (Finding 7): the ideal is [0, 0, 0, 0] and 0.00.
        assert_eq!(entries, vec![1, 1, 1, 1], "{strategy:?}");
        assert_eq!(unsubscribed, 3.0, "{strategy:?}");
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
