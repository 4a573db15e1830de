//! Property test for the border broker's local delivery: whatever sequence
//! of attach / detach / (un)subscribe / garbage-collection operations a
//! [`BrokerCore`] goes through, every publication must produce exactly the
//! deliveries — destinations, order, filters, sequence numbers, parked
//! deliveries and `deliver` trace spans — of a linear scan over per-client
//! filter lists.  The scan is the oracle kept in this file; the broker
//! answers from its indexed local-subscription table.

use std::collections::BTreeMap;

use proptest::prelude::*;
use rebeca_broker::{BrokerCore, BrokerRole, ClientId, Envelope, Message, Outgoing, TraceContext};
use rebeca_filter::{Constraint, Filter, Notification, Value};
use rebeca_routing::RoutingStrategyKind;
use rebeca_sim::NodeId;

const BROKER_LINKS: [NodeId; 2] = [NodeId(10), NodeId(11)];

/// Four clients behind three client nodes, so two clients can end up
/// behind one node (a source node then resolves to the lower client id).
fn client() -> impl Strategy<Value = ClientId> {
    (1u32..5).prop_map(ClientId::new)
}

fn client_node() -> impl Strategy<Value = NodeId> {
    (100usize..103).prop_map(NodeId)
}

/// A client node or a broker link: where a message can come from.
fn any_node() -> impl Strategy<Value = NodeId> {
    prop_oneof![client_node(), client_node(), (10usize..12).prop_map(NodeId)]
}

/// A small filter universe: clients share filters, filters overlap.
fn filter() -> impl Strategy<Value = Filter> {
    let service = || (0u8..3).prop_map(|s| format!("s{s}"));
    prop_oneof![
        service().prop_map(|s| Filter::new().with("service", Constraint::Eq(s.into()))),
        (1i64..6).prop_map(|p| Filter::new().with("cost", Constraint::Lt(Value::Int(p)))),
        (service(), 1i64..6).prop_map(|(s, p)| Filter::new()
            .with("service", Constraint::Eq(s.into()))
            .with("cost", Constraint::Lt(Value::Int(p)))),
    ]
}

fn notification() -> impl Strategy<Value = Notification> {
    (0u8..3, 0i64..6).prop_map(|(s, cost)| {
        Notification::builder()
            .attr("service", format!("s{s}"))
            .attr("cost", cost)
            .build()
    })
}

#[derive(Debug, Clone)]
enum Op {
    Attach(ClientId, NodeId),
    Detach(ClientId),
    Subscribe(NodeId, Filter),
    Unsubscribe(NodeId, Filter),
    RemoveClient(ClientId),
    /// A location-filter swap: retract the old filter, install the new one.
    Swap(NodeId, Filter, Filter),
    /// What the mobility layer does to a departed client's subscription.
    RelocationGc(ClientId, Filter),
    /// What crash recovery does to re-create a logged subscription.
    Restore(ClientId, Filter),
    /// A local publication: excluded from delivery is the source node.
    Publish(NodeId, Notification),
    /// A notification from a neighbouring broker.
    Notify(Notification),
    /// A replayed envelope routed with nothing excluded.
    RouteUnexcluded(Notification),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (client(), client_node()).prop_map(|(c, n)| Op::Attach(c, n)),
        (client(), client_node()).prop_map(|(c, n)| Op::Attach(c, n)),
        client().prop_map(Op::Detach),
        (any_node(), filter()).prop_map(|(n, f)| Op::Subscribe(n, f)),
        (any_node(), filter()).prop_map(|(n, f)| Op::Subscribe(n, f)),
        (any_node(), filter()).prop_map(|(n, f)| Op::Subscribe(n, f)),
        (any_node(), filter()).prop_map(|(n, f)| Op::Unsubscribe(n, f)),
        client().prop_map(Op::RemoveClient),
        (any_node(), filter(), filter()).prop_map(|(n, old, new)| Op::Swap(n, old, new)),
        (client(), filter()).prop_map(|(c, f)| Op::RelocationGc(c, f)),
        (client(), filter()).prop_map(|(c, f)| Op::Restore(c, f)),
        (client_node(), notification()).prop_map(|(n, x)| Op::Publish(n, x)),
        (client_node(), notification()).prop_map(|(n, x)| Op::Publish(n, x)),
        notification().prop_map(Op::Notify),
        notification().prop_map(Op::RouteUnexcluded),
    ]
}

/// `(destination, subscriber, filter, seq, notification)` of one delivery.
type Delivered = (NodeId, ClientId, Filter, u64, Notification);
/// `(subscriber, filter, seq, notification)` of one parked delivery.
type Parked = (ClientId, Filter, u64, Notification);

struct OracleClient {
    node: NodeId,
    connected: bool,
    subscriptions: Vec<Filter>,
}

/// The pre-index broker: a filter list per client, scanned per publication.
#[derive(Default)]
struct Oracle {
    clients: BTreeMap<ClientId, OracleClient>,
    seq: BTreeMap<(ClientId, Filter), u64>,
}

impl Oracle {
    fn client_by_node(&self, node: NodeId) -> Option<ClientId> {
        self.clients
            .iter()
            .find(|(_, r)| r.node == node)
            .map(|(id, _)| *id)
    }

    fn subscribe(&mut self, client: ClientId, filter: &Filter) {
        if let Some(record) = self.clients.get_mut(&client) {
            if !record.subscriptions.contains(filter) {
                record.subscriptions.push(filter.clone());
            }
        }
    }

    fn unsubscribe(&mut self, client: ClientId, filter: &Filter) {
        if let Some(record) = self.clients.get_mut(&client) {
            record.subscriptions.retain(|f| f != filter);
        }
    }

    fn remove_client(&mut self, client: ClientId) {
        self.clients.remove(&client);
        self.seq.retain(|(c, _), _| *c != client);
    }

    fn deliver(
        &mut self,
        n: &Notification,
        exclude: Option<NodeId>,
        delivered: &mut Vec<Delivered>,
        parked: &mut Vec<Parked>,
        spans: &mut Vec<String>,
    ) {
        for (client, record) in &self.clients {
            if Some(record.node) == exclude {
                continue;
            }
            for filter in record.subscriptions.iter().filter(|f| f.matches(n)) {
                let counter = self.seq.entry((*client, filter.clone())).or_insert(1);
                let seq = *counter;
                *counter += 1;
                if record.connected {
                    spans.push(format!("client={} seq={}", client.raw(), seq));
                    delivered.push((record.node, *client, filter.clone(), seq, n.clone()));
                } else {
                    parked.push((*client, filter.clone(), seq, n.clone()));
                }
            }
        }
    }
}

/// An envelope as it arrives from another broker.
fn remote_envelope(seq: u64, n: Notification, traced: bool) -> Envelope {
    let mut envelope = Envelope::new(ClientId::new(8), seq, n);
    envelope.trace = traced.then_some(TraceContext {
        trace_id: seq,
        parent_span: 1,
        sampled: true,
    });
    envelope
}

fn deliveries_of(out: &Outgoing) -> Vec<Delivered> {
    out.iter()
        .filter_map(|(dest, m)| match m {
            Message::Deliver(d) => Some((
                *dest,
                d.subscriber,
                d.filter.clone(),
                d.seq,
                d.envelope.notification.clone(),
            )),
            _ => None,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn indexed_local_delivery_equals_the_linear_scan(
        script in prop::collection::vec(op(), 1..60),
        traced in any::<bool>(),
    ) {
        let mut broker = BrokerCore::new(
            NodeId(0),
            BrokerRole::Border,
            BROKER_LINKS.to_vec(),
            RoutingStrategyKind::Covering,
        );
        // Traced: every publication is sampled and every delivery drafts a
        // span.  Untraced: no spans.
        if traced {
            broker.set_trace_sampling(rebeca_obs::rate_per_64k(1.0));
        }
        let mut oracle = Oracle::default();
        let publisher = ClientId::new(9);
        let mut remote_seq = 0u64;

        for (step, op) in script.into_iter().enumerate() {
            let mut delivered = Vec::new();
            let mut parked = Vec::new();
            let mut spans = Vec::new();
            let out = match op {
                Op::Attach(client, node) => {
                    let record = oracle.clients.entry(client).or_insert(OracleClient {
                        node,
                        connected: true,
                        subscriptions: Vec::new(),
                    });
                    record.node = node;
                    record.connected = true;
                    broker.handle_attach(client, node)
                }
                Op::Detach(client) => {
                    if let Some(record) = oracle.clients.get_mut(&client) {
                        record.connected = false;
                    }
                    broker.handle_detach(client)
                }
                Op::Subscribe(from, filter) => {
                    if let Some(client) = oracle.client_by_node(from) {
                        oracle.subscribe(client, &filter);
                    }
                    broker.handle_subscribe(publisher, filter, from)
                }
                Op::Unsubscribe(from, filter) => {
                    if let Some(client) = oracle.client_by_node(from) {
                        oracle.unsubscribe(client, &filter);
                    }
                    broker.handle_unsubscribe(publisher, filter, from)
                }
                Op::RemoveClient(client) => {
                    oracle.remove_client(client);
                    broker.remove_client(client);
                    Vec::new()
                }
                Op::Swap(node, old, new) => {
                    if let Some(client) = oracle.client_by_node(node) {
                        oracle.unsubscribe(client, &old);
                        oracle.subscribe(client, &new);
                    }
                    broker.retract_subscription(&old, node);
                    broker.install_subscription(new, node);
                    Vec::new()
                }
                Op::RelocationGc(client, filter) => {
                    // An ordinary unsubscription from the client's node,
                    // then its sequence state and, once bare, its record.
                    if let Some(node) = oracle.clients.get(&client).map(|r| r.node) {
                        if let Some(owner) = oracle.client_by_node(node) {
                            oracle.unsubscribe(owner, &filter);
                        }
                        oracle.seq.remove(&(client, filter.clone()));
                        if oracle.clients[&client].subscriptions.is_empty() {
                            oracle.remove_client(client);
                        }
                    }
                    match broker.client(client).map(|r| r.node) {
                        Some(node) => {
                            let out = broker.handle_unsubscribe(client, filter.clone(), node);
                            broker.sequences_mut().remove(client, &filter);
                            if broker.local_subscriptions(client).is_empty() {
                                broker.remove_client(client);
                            }
                            out
                        }
                        None => Vec::new(),
                    }
                }
                Op::Restore(client, filter) => {
                    oracle.subscribe(client, &filter);
                    broker.subscribe_local(client, filter);
                    Vec::new()
                }
                Op::Publish(from, n) => {
                    oracle.deliver(&n, Some(from), &mut delivered, &mut parked, &mut spans);
                    broker.handle_publish(publisher, n, from)
                }
                Op::Notify(n) => {
                    let from = BROKER_LINKS[0];
                    oracle.deliver(&n, Some(from), &mut delivered, &mut parked, &mut spans);
                    remote_seq += 1;
                    broker.handle_notification(remote_envelope(remote_seq, n, traced), from)
                }
                Op::RouteUnexcluded(n) => {
                    oracle.deliver(&n, None, &mut delivered, &mut parked, &mut spans);
                    remote_seq += 1;
                    broker.route_envelope(remote_envelope(remote_seq, n, traced), None)
                }
            };

            prop_assert_eq!(deliveries_of(&out), delivered, "deliveries at step {}", step);
            let broker_parked: Vec<Parked> = broker
                .take_parked()
                .into_iter()
                .map(|d| (d.subscriber, d.filter, d.seq, d.envelope.notification))
                .collect();
            prop_assert_eq!(broker_parked, parked, "parked at step {}", step);
            let broker_spans: Vec<String> = broker
                .take_trace_spans()
                .into_iter()
                .filter(|s| s.kind == "deliver")
                .map(|s| s.detail)
                .collect();
            if !traced {
                spans.clear();
            }
            prop_assert_eq!(broker_spans, spans, "deliver spans at step {}", step);

            // The bookkeeping the mobility layer reads agrees as well.
            for (client, record) in &oracle.clients {
                let held: Vec<&Filter> = record.subscriptions.iter().collect();
                prop_assert_eq!(broker.local_subscriptions(*client), held);
                prop_assert_eq!(broker.client_by_node(record.node), oracle.client_by_node(record.node));
            }
            prop_assert_eq!(broker.clients().count(), oracle.clients.len());
        }
    }
}
