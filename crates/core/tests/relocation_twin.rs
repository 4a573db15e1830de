//! Differential test of relocation against its definition: after a
//! relocation, the routing tables must route as "unsubscribe at the old
//! border broker, subscribe at the new one" would.
//!
//! Two simulators run the same random script in lockstep: subscribe,
//! unsubscribe, `move_to` and broker restarts over the filters
//! `cost < {3, 5, 10}` (a
//! covering chain) and `location in {2}, {1, 2}, {2, 3}` (sets that
//! perfect merging unions), on `line(4)`, `star(3)` and `figure5()` under
//! Simple, Identity, Covering and Merging routing. The twin replaces every
//! move with exactly that: unsubscribe everything at the old broker, move,
//! subscribe everything at the new one. A restart crashes a broker that
//! hosts no client and restarts it from its log in the system under test
//! only: routing state is soft state, re-learnt from the neighbours, so the
//! twin that never crashed is still the reference. After every step, once
//! the network
//! is quiet, each broker's routing decision for probes of every cost and
//! location is checked on every broker link, and each broker's entries
//! against its neighbours:
//!
//! - against the ideal: a link must carry the probe when a subscriber
//!   behind it holds a matching filter (no under-routing);
//! - against the twin: a link may carry the probe only if the twin's
//!   broker sends it there too (no old path left behind);
//! - in both systems, against what each neighbour holds: a broker's entries
//!   from a neighbouring broker are, as a multiset, exactly the filters that
//!   neighbour's engine holds as sent to it (its `held()` table), so no
//!   `Subscribe`, `Unsubscribe`, `Relocate`, `Fetch` or `Resync` left an
//!   entry the sender does not know about.
//!
//! The twin unsubscribes and re-subscribes in the order the client keeps
//! its subscriptions, the order its `ReSubscribe`s relocate them in. Moves
//! are drawn for clients with and without subscriptions. When everyone has
//! unsubscribed, the checks run once more and every table of both systems
//! must be empty, under every strategy: what a neighbour holds is retracted
//! with the last subscription it served, whether a subscription or a
//! relocation put it there.

mod common;

use std::collections::BTreeSet;

use common::check_held;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rebeca_broker::ClientId;
use rebeca_core::{MobilitySystem, Session, SystemBuilder};
use rebeca_filter::{Constraint, Filter, Notification, Value};
use rebeca_routing::RoutingStrategyKind;
use rebeca_sim::{DelayModel, NodeId, SimDuration, Topology};

/// The filters clients draw from, by index: `cost <` a bound, or
/// `location in` a set.
const FILTERS: [(i64, &[u32]); 6] = [
    (3, &[]),
    (5, &[]),
    (10, &[]),
    (0, &[2]),
    (0, &[1, 2]),
    (0, &[2, 3]),
];
const PROBES: i64 = 11;
const CLIENTS: usize = 3;
const STEPS: usize = 12;
const SEEDS: u64 = 25;

const STRATEGIES: [RoutingStrategyKind; 4] = [
    RoutingStrategyKind::Simple,
    RoutingStrategyKind::Identity,
    RoutingStrategyKind::Covering,
    RoutingStrategyKind::Merging,
];

fn filter(id: usize) -> Filter {
    match FILTERS[id] {
        (bound, []) => Filter::new().with("cost", Constraint::Lt(bound.into())),
        (_, places) => Filter::new().with(
            "location",
            Constraint::any_location_of(places.iter().copied()),
        ),
    }
}

/// Probe `i` costs `i` and stands at location `i % 4`.
fn probe(i: i64) -> Notification {
    Notification::builder()
        .attr("cost", i)
        .attr("location", Value::Location((i % 4) as u32))
        .build()
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Subscribe(usize, usize),
    Unsubscribe(usize, usize),
    Move(usize, usize),
    /// Crash and restart a broker that hosts no client, in `ours` only.
    Restart(usize),
}

/// Where each client is attached and what it holds, in the order the
/// client keeps its subscriptions (the same in both systems: the script is
/// logical, only the twin's moves are spelled out).
#[derive(Debug, Clone)]
struct Client {
    broker: usize,
    filters: Vec<usize>,
}

fn build(topology: &Topology, strategy: RoutingStrategyKind) -> MobilitySystem {
    SystemBuilder::new(topology)
        .strategy(strategy)
        .link_delay(DelayModel::constant_millis(5))
        .seed(1)
        .build()
        .unwrap()
}

fn settle(sys: &mut MobilitySystem) {
    let until = sys.now() + SimDuration::from_millis(300);
    sys.run_until(until);
}

fn draw(rng: &mut StdRng, clients: &[Client], brokers: usize) -> Op {
    loop {
        let c = rng.gen_range(0..CLIENTS);
        let f = rng.gen_range(0..FILTERS.len());
        match rng.gen_range(0..4u32) {
            0 if !clients[c].filters.contains(&f) => return Op::Subscribe(c, f),
            1 if clients[c].filters.contains(&f) => return Op::Unsubscribe(c, f),
            2 => {
                let to = rng.gen_range(0..brokers);
                if to != clients[c].broker {
                    return Op::Move(c, to);
                }
            }
            3 => {
                let b = rng.gen_range(0..brokers);
                if clients.iter().all(|c| c.broker != b) {
                    return Op::Restart(b);
                }
            }
            _ => {}
        }
    }
}

/// Applies one step to both systems and to the logical state.
fn apply(
    op: Op,
    ours: &mut MobilitySystem,
    twin: &mut MobilitySystem,
    sessions: &[Session],
    clients: &mut [Client],
) {
    match op {
        Op::Subscribe(c, f) => {
            for sys in [&mut *ours, &mut *twin] {
                sessions[c].subscribe(sys, filter(f)).unwrap();
            }
            clients[c].filters.push(f);
        }
        Op::Unsubscribe(c, f) => {
            for sys in [&mut *ours, &mut *twin] {
                sessions[c].unsubscribe(sys, filter(f)).unwrap();
            }
            clients[c].filters.retain(|&held| held != f);
        }
        Op::Move(c, to) => {
            sessions[c].move_to(ours, to).unwrap();
            for &f in &clients[c].filters {
                sessions[c].unsubscribe(twin, filter(f)).unwrap();
            }
            sessions[c].detach(twin).unwrap();
            settle(twin);
            sessions[c].reattach(twin, to).unwrap();
            for &f in &clients[c].filters {
                sessions[c].subscribe(twin, filter(f)).unwrap();
            }
            clients[c].broker = to;
        }
        Op::Restart(b) => {
            ours.crash_and_restart_broker(b).unwrap();
        }
    }
    settle(ours);
    settle(twin);
}

/// The broker links of broker `b` that carry `notification`.
fn routed(sys: &MobilitySystem, b: usize, notification: &Notification) -> BTreeSet<NodeId> {
    let core = sys.broker(b).unwrap().core();
    let links = core.broker_links();
    core.engine()
        .route(notification, None, links)
        .into_iter()
        .filter(|dest| links.contains(dest))
        .collect()
}

/// The broker links of broker `b` with a subscriber behind them whose
/// filter matches `notification`.
fn ideal(
    sys: &MobilitySystem,
    topology: &Topology,
    clients: &[Client],
    b: usize,
    notification: &Notification,
) -> BTreeSet<NodeId> {
    clients
        .iter()
        .filter(|c| c.broker != b && c.filters.iter().any(|&f| filter(f).matches(notification)))
        .map(|c| {
            let path = topology.path(b, c.broker).unwrap();
            sys.broker_node(path[1]).unwrap()
        })
        .collect()
}

fn check_routes(
    ours: &MobilitySystem,
    twin: &MobilitySystem,
    topology: &Topology,
    clients: &[Client],
) -> Result<(), String> {
    for b in 0..topology.len() {
        for i in 0..PROBES {
            let n = probe(i);
            let got = routed(ours, b, &n);
            let need = ideal(ours, topology, clients, b, &n);
            if !need.is_subset(&got) {
                return Err(format!(
                    "broker {b} under-routes probe {i}: routes {got:?}, needs {need:?}"
                ));
            }
            let twin_routes = routed(twin, b, &n);
            if !got.is_subset(&twin_routes) {
                return Err(format!(
                    "broker {b} routes probe {i} on {got:?}, the twin only on {twin_routes:?}"
                ));
            }
        }
    }
    Ok(())
}

/// Every check of one quiet point, in both systems.
fn check(
    ours: &MobilitySystem,
    twin: &MobilitySystem,
    topology: &Topology,
    clients: &[Client],
) -> Result<(), String> {
    check_routes(ours, twin, topology, clients)?;
    check_held(ours)?;
    check_held(twin).map_err(|e| format!("twin: {e}"))
}

fn entries(sys: &MobilitySystem) -> Vec<usize> {
    (0..sys.broker_count())
        .map(|b| sys.broker(b).unwrap().routing_entries())
        .collect()
}

/// Runs one script; `Err` describes the first divergence.
fn run(topology: &Topology, strategy: RoutingStrategyKind, seed: u64) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ours = build(topology, strategy);
    let mut twin = build(topology, strategy);
    let mut sessions = Vec::new();
    let mut clients = Vec::new();
    for c in 0..CLIENTS {
        let broker = rng.gen_range(0..topology.len());
        let id = ClientId::new(c as u32 + 1);
        sessions.push(ours.connect(id, broker).unwrap());
        twin.connect(id, broker).unwrap();
        clients.push(Client {
            broker,
            filters: Vec::new(),
        });
    }
    settle(&mut ours);
    settle(&mut twin);

    for step in 0..STEPS {
        let op = draw(&mut rng, &clients, topology.len());
        apply(op, &mut ours, &mut twin, &sessions, &mut clients);
        check(&ours, &twin, topology, &clients)
            .map_err(|e| format!("step {step} ({op:?}): {e}"))?;
    }

    for c in 0..CLIENTS {
        for f in clients[c].filters.clone() {
            apply(
                Op::Unsubscribe(c, f),
                &mut ours,
                &mut twin,
                &sessions,
                &mut clients,
            );
        }
    }
    check(&ours, &twin, topology, &clients)
        .map_err(|e| format!("after every unsubscription: {e}"))?;
    let (left, twin_left) = (entries(&ours), entries(&twin));
    let empty = vec![0; topology.len()];
    if left != empty || twin_left != empty {
        return Err(format!(
            "after every unsubscription: entries {left:?}, the twin's {twin_left:?}"
        ));
    }
    Ok(())
}

#[test]
fn relocation_routes_like_unsubscribe_then_subscribe() {
    let shapes = [
        ("line(4)", Topology::line(4)),
        ("star(3)", Topology::star(3)),
        ("figure5", Topology::figure5()),
    ];
    let mut failures = Vec::new();
    let mut runs = 0;
    for (name, topology) in &shapes {
        for strategy in STRATEGIES {
            for seed in 0..SEEDS {
                runs += 1;
                if let Err(e) = run(topology, strategy, seed) {
                    failures.push(format!("{name} {strategy:?} seed {seed}: {e}"));
                }
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {runs} runs diverge from the twin:\n{}",
        failures.len(),
        failures.join("\n")
    );
}
