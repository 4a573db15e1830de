//! A broker that receives a message meant for a client drops it, counts it
//! and keeps routing.
//!
//! `Deliver` and `DeliverBatch` travel from a border broker to its clients;
//! the static broker core has no handler for them.  A peer can still send
//! one to a broker (over TCP any introduced node can), and that must not
//! take the broker process down.

use rebeca_broker::{BrokerRole, ClientId, Delivery, Envelope, Message};
use rebeca_core::{BrokerConfig, MobileBroker};
use rebeca_filter::{Constraint, Filter, Notification};
use rebeca_sim::{Context, DelayModel, Incoming, Network, Node, NodeId, SimDuration};

const BROKER: NodeId = NodeId(0);
const CONSUMER: ClientId = ClientId::new(1);
const PRODUCER: ClientId = ClientId::new(2);

/// A client stand-in that sends its script to the broker, one message per
/// timer tag, and records everything the broker sends back.
struct RawPeer {
    script: Vec<Message>,
    received: Vec<Message>,
}

impl Node for RawPeer {
    type Message = Message;
    fn handle(&mut self, ctx: &mut Context<'_, Message>, event: Incoming<Message>) {
        match event {
            Incoming::Timer { tag } => ctx.send(BROKER, self.script[tag as usize].clone()),
            Incoming::Message { message, .. } => self.received.push(message),
        }
    }
}

#[allow(clippy::large_enum_variant)]
enum TestNode {
    Broker(MobileBroker),
    Peer(RawPeer),
}

impl Node for TestNode {
    type Message = Message;
    fn handle(&mut self, ctx: &mut Context<'_, Message>, event: Incoming<Message>) {
        match self {
            TestNode::Broker(b) => b.handle(ctx, event),
            TestNode::Peer(p) => p.handle(ctx, event),
        }
    }
}

fn parking() -> Filter {
    Filter::new().with("service", Constraint::Eq("parking".into()))
}

fn vacancy() -> Notification {
    Notification::builder().attr("service", "parking").build()
}

fn add_peer(net: &mut Network<TestNode>, script: Vec<Message>, start_ms: u64) -> NodeId {
    let len = script.len();
    let node = net.add_node(TestNode::Peer(RawPeer {
        script,
        received: Vec::new(),
    }));
    net.connect(BROKER, node, DelayModel::constant_millis(1));
    for tag in 0..len {
        net.schedule_timer(
            node,
            SimDuration::from_millis(start_ms + tag as u64),
            tag as u64,
        );
    }
    node
}

#[test]
fn a_client_bound_message_is_dropped_and_routing_continues() {
    let mut net: Network<TestNode> = Network::new(7);
    let broker = net.add_node(TestNode::Broker(MobileBroker::new(
        BROKER,
        BrokerRole::Border,
        Vec::new(),
        BrokerConfig::default(),
    )));
    assert_eq!(broker, BROKER);
    let consumer = add_peer(
        &mut net,
        vec![
            Message::Attach { client: CONSUMER },
            Message::Subscribe {
                subscriber: CONSUMER,
                filter: parking(),
            },
        ],
        1,
    );
    let stray = Delivery {
        subscriber: CONSUMER,
        filter: parking(),
        seq: 1,
        envelope: Envelope::new(PRODUCER, 1, vacancy()),
    };
    add_peer(
        &mut net,
        vec![
            Message::Attach { client: PRODUCER },
            Message::Deliver(stray),
            Message::Publish {
                publisher: PRODUCER,
                notification: vacancy(),
            },
        ],
        10,
    );
    net.run(10_000);

    let m = net.metrics();
    assert_eq!(m.counter("broker.rx_unexpected"), 1);
    let events: Vec<_> = m
        .journal()
        .events()
        .filter(|e| e.kind == "broker.unexpected")
        .collect();
    assert_eq!(events.len(), 1);
    assert!(
        events[0].detail.contains("kind=deliver"),
        "{}",
        events[0].detail
    );

    // The publication after the stray frame was still routed, exactly once.
    let TestNode::Peer(peer) = net.node(consumer) else {
        unreachable!("the consumer is a peer node")
    };
    let delivered: Vec<&Delivery> = peer
        .received
        .iter()
        .filter_map(|m| match m {
            Message::Deliver(d) => Some(d),
            _ => None,
        })
        .collect();
    assert_eq!(delivered.len(), 1);
    assert_eq!(delivered[0].envelope.publisher, PRODUCER);
    assert_eq!(delivered[0].envelope.notification, vacancy());
}
