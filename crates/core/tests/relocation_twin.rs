//! Differential test of relocation against its definition: after a
//! relocation, the routing tables must route as "unsubscribe at the old
//! border broker, subscribe at the new one" would.
//!
//! Two simulators run the same random script in lockstep: subscribe,
//! unsubscribe and `move_to` over the filters `cost < {3, 5, 10}`, on
//! `line(4)`, `star(3)` and `figure5()` under Simple, Identity, Covering and
//! Merging routing. The twin replaces every move with exactly that:
//! unsubscribe everything at the old broker, move, subscribe everything at
//! the new one. After every step, once the network is quiet, each broker's
//! routing decision for a probe of every cost is checked on every broker
//! link:
//!
//! - against the ideal: a link must carry the probe when a subscriber
//!   behind it holds a matching filter (no under-routing);
//! - against the twin: a link may carry the probe only if the twin's
//!   broker sends it there too (no old path left behind).
//!
//! The twin unsubscribes and re-subscribes in the order the client keeps
//! its subscriptions, the order its `ReSubscribe`s relocate them in. When
//! everyone has unsubscribed, the routing checks run once more, and under
//! Simple and Identity no broker may keep more entries than the twin's.
//! Under Covering and Merging the static engine itself can keep a cover
//! after its last dependant is gone (it keeps a forwarded cover while a
//! covered subscription it suppressed still needs it, and never retracts
//! it afterwards); the twin and a relocation strand different such covers,
//! so there the entry counts are not comparable, only the routes.
//!
//! Moves are drawn only for clients holding a subscription: a `move_to`
//! without one sends the new broker nothing to attach by.

use std::collections::BTreeSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rebeca_broker::ClientId;
use rebeca_core::{MobilitySystem, Session, SystemBuilder};
use rebeca_filter::{Constraint, Filter, Notification};
use rebeca_routing::RoutingStrategyKind;
use rebeca_sim::{DelayModel, NodeId, SimDuration, Topology};

const BOUNDS: [i64; 3] = [3, 5, 10];
const CLIENTS: usize = 3;
const STEPS: usize = 12;
const SEEDS: u64 = 25;

const STRATEGIES: [RoutingStrategyKind; 4] = [
    RoutingStrategyKind::Simple,
    RoutingStrategyKind::Identity,
    RoutingStrategyKind::Covering,
    RoutingStrategyKind::Merging,
];

fn filter(bound: i64) -> Filter {
    Filter::new().with("cost", Constraint::Lt(bound.into()))
}

fn probe(cost: i64) -> Notification {
    Notification::builder().attr("cost", cost).build()
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Subscribe(usize, i64),
    Unsubscribe(usize, i64),
    Move(usize, usize),
}

/// Where each client is attached and what it holds, in the order the
/// client keeps its subscriptions (the same in both systems: the script is
/// logical, only the twin's moves are spelled out).
#[derive(Debug, Clone)]
struct Client {
    broker: usize,
    filters: Vec<i64>,
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
        let bound = BOUNDS[rng.gen_range(0..BOUNDS.len())];
        match rng.gen_range(0..3u32) {
            0 if !clients[c].filters.contains(&bound) => return Op::Subscribe(c, bound),
            1 if clients[c].filters.contains(&bound) => return Op::Unsubscribe(c, bound),
            2 if !clients[c].filters.is_empty() => {
                let to = rng.gen_range(0..brokers);
                if to != clients[c].broker {
                    return Op::Move(c, to);
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
        Op::Subscribe(c, bound) => {
            for sys in [&mut *ours, &mut *twin] {
                sessions[c].subscribe(sys, filter(bound)).unwrap();
            }
            clients[c].filters.push(bound);
        }
        Op::Unsubscribe(c, bound) => {
            for sys in [&mut *ours, &mut *twin] {
                sessions[c].unsubscribe(sys, filter(bound)).unwrap();
            }
            clients[c].filters.retain(|&b| b != bound);
        }
        Op::Move(c, to) => {
            sessions[c].move_to(ours, to).unwrap();
            for &bound in &clients[c].filters {
                sessions[c].unsubscribe(twin, filter(bound)).unwrap();
            }
            sessions[c].detach(twin).unwrap();
            settle(twin);
            sessions[c].reattach(twin, to).unwrap();
            for &bound in &clients[c].filters {
                sessions[c].subscribe(twin, filter(bound)).unwrap();
            }
            clients[c].broker = to;
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
/// filter matches `cost`.
fn ideal(
    sys: &MobilitySystem,
    topology: &Topology,
    clients: &[Client],
    b: usize,
    cost: i64,
) -> BTreeSet<NodeId> {
    clients
        .iter()
        .filter(|c| c.broker != b && c.filters.iter().any(|&bound| cost < bound))
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
        for cost in 0..=BOUNDS[BOUNDS.len() - 1] {
            let n = probe(cost);
            let got = routed(ours, b, &n);
            let need = ideal(ours, topology, clients, b, cost);
            if !need.is_subset(&got) {
                return Err(format!(
                    "broker {b} under-routes cost {cost}: routes {got:?}, needs {need:?}"
                ));
            }
            let twin_routes = routed(twin, b, &n);
            if !got.is_subset(&twin_routes) {
                return Err(format!(
                    "broker {b} routes cost {cost} on {got:?}, the twin only on {twin_routes:?}"
                ));
            }
        }
    }
    Ok(())
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
        check_routes(&ours, &twin, topology, &clients)
            .map_err(|e| format!("step {step} ({op:?}): {e}"))?;
    }

    for c in 0..CLIENTS {
        for bound in clients[c].filters.clone() {
            apply(
                Op::Unsubscribe(c, bound),
                &mut ours,
                &mut twin,
                &sessions,
                &mut clients,
            );
        }
    }
    check_routes(&ours, &twin, topology, &clients)
        .map_err(|e| format!("after every unsubscription: {e}"))?;
    // Covering and merging are held to the routing checks only: see the
    // module docs.
    let bounded = matches!(
        strategy,
        RoutingStrategyKind::Simple | RoutingStrategyKind::Identity
    );
    let (left, twin_left) = (entries(&ours), entries(&twin));
    if bounded && left.iter().zip(&twin_left).any(|(o, t)| o > t) {
        return Err(format!(
            "after every unsubscription: entries {left:?}, the twin keeps {twin_left:?}"
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
