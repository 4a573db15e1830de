//! Replay routes do not outlive their relocation.
//!
//! A broker that passes a `Relocate` or `Fetch` on records the next hop
//! back towards the new border broker, and reads as
//! [`RelocationPhase::AwaitingReplay`] while it holds one.  The route goes
//! when the replay passes, or with the first event the broker handles after
//! the relocation timeout.  The old border broker sends its `Replay`
//! straight back, and a broker the request dead-ends at sends nothing, so
//! neither records a route.
//!
//! Two 5 ms-link lines with a 200 ms relocation timeout, the consumer
//! subscribing at broker 0, then `move_to`, five publications 10 ms apart,
//! a 2 s settle and one more publication:
//!
//! - `line(4)`, producer at broker 3, `move_to(2)`: the replay path is
//!   0 → 1 → 2.  The old border broker 0 answers the junction's `Fetch`
//!   and then receives the flooded `Relocate` too, once it holds nothing
//!   for the consumer any more: a dead end.
//! - `line(6)` with a second subscriber at broker 4 and the producer at
//!   broker 5, `move_to(1)`: the scoped `Relocate` flood also reaches
//!   brokers 2–5, off the replay path, which never see the `Replay`; the
//!   last publication is the event after the timeout that clears 2–4.

use rebeca_broker::ClientId;
use rebeca_core::{MobilitySystem, RelocationPhase, Session, SystemBuilder};
use rebeca_filter::{Constraint, Filter, Notification};
use rebeca_sim::{DelayModel, SimDuration, Topology};

const PUBLICATIONS: u64 = 5;

fn parking() -> Filter {
    Filter::new().with("service", Constraint::Eq("parking".into()))
}

fn vacancy(i: u64) -> Notification {
    Notification::builder()
        .attr("service", "parking")
        .attr("spot", i as i64)
        .build()
}

fn run_for(sys: &mut MobilitySystem, millis: u64) {
    let until = sys.now() + SimDuration::from_millis(millis);
    sys.run_until(until);
}

fn system(brokers: usize) -> MobilitySystem {
    SystemBuilder::new(&Topology::line(brokers))
        .link_delay(DelayModel::constant_millis(5))
        .relocation_timeout(SimDuration::from_millis(200))
        .seed(1)
        .build()
        .unwrap()
}

/// Moves `consumer` to `to`, publishes [`PUBLICATIONS`] vacancies 10 ms
/// apart, settles for 2 s, publishes once more and returns the consumer's
/// relocation phase at every broker.
fn move_and_settle(
    sys: &mut MobilitySystem,
    consumer: Session,
    producer: Session,
    to: usize,
) -> Vec<RelocationPhase> {
    consumer.move_to(sys, to).unwrap();
    for i in 0..PUBLICATIONS {
        producer.publish(sys, vacancy(i)).unwrap();
        run_for(sys, 10);
    }
    run_for(sys, 2_000);
    producer.publish(sys, vacancy(PUBLICATIONS)).unwrap();
    run_for(sys, 100);
    let log = consumer.log(sys).unwrap();
    assert_eq!(log.len() as u64, PUBLICATIONS + 1);
    assert!(log.is_clean());
    (0..sys.broker_count())
        .map(|b| {
            sys.broker(b)
                .unwrap()
                .relocation_phase(consumer.client(), &parking())
        })
        .collect()
}

#[test]
fn the_old_border_broker_keeps_no_replay_route() {
    let mut sys = system(4);
    let consumer = sys.connect(ClientId::new(1), 0).unwrap();
    let producer = sys.connect(ClientId::new(2), 3).unwrap();
    consumer.subscribe(&mut sys, parking()).unwrap();
    run_for(&mut sys, 500);

    let phases = move_and_settle(&mut sys, consumer, producer, 2);
    assert_eq!(phases, vec![RelocationPhase::Local; 4]);
}

#[test]
fn replay_routes_off_the_replay_path_expire() {
    let mut sys = system(6);
    let consumer = sys.connect(ClientId::new(1), 0).unwrap();
    let bystander = sys.connect(ClientId::new(3), 4).unwrap();
    let producer = sys.connect(ClientId::new(2), 5).unwrap();
    consumer.subscribe(&mut sys, parking()).unwrap();
    bystander.subscribe(&mut sys, parking()).unwrap();
    run_for(&mut sys, 500);

    let phases = move_and_settle(&mut sys, consumer, producer, 1);
    assert_eq!(phases, vec![RelocationPhase::Local; 6]);
    assert_eq!(
        bystander.log(&sys).unwrap().len() as u64,
        PUBLICATIONS + 1,
        "the second subscriber is served throughout"
    );
}
