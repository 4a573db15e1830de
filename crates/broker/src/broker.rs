//! The static Rebeca broker: the unchanged pub/sub middleware that the
//! mobility extension of `rebeca-core` builds on.
//!
//! [`BrokerCore`] is a *pure state machine*: every handler consumes one
//! incoming message (already demultiplexed into typed parameters) and returns
//! the messages to emit, as `(destination node, message)` pairs.  It is
//! therefore runnable both inside the discrete-event simulator and in the
//! threaded runtime, and straightforward to unit-test in isolation.
//!
//! Responsibilities (Section 2 of the paper):
//!
//! * maintain the routing table via the configured [`RoutingStrategyKind`];
//! * accept local clients (attach/detach), their subscriptions and
//!   publications;
//! * forward notifications towards matching subscriptions;
//! * annotate deliveries to local consumers with per-`(client, filter)`
//!   sequence numbers (the numbers the relocation protocol relies on).
//!
//! Deliveries addressed to a *disconnected* local client are not sent (the
//! link is down); they are parked and can be drained by the caller — the
//! mobility layer turns them into the virtual counterpart's buffer, while the
//! plain static broker simply drops them (which is exactly the naive
//! behaviour whose notification loss Figure 2 of the paper illustrates).
//!
//! Local delivery answers from an indexed local-subscription table and
//! lists deliveries in a contract order; see the crate docs.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use serde::{Deserialize, Serialize};

use rebeca_filter::{Filter, Notification};
use rebeca_obs::TraceContext;
use rebeca_routing::{RoutingEngine, RoutingStrategyKind, RoutingTable};
use rebeca_sim::NodeId;

use crate::ids::ClientId;
use crate::message::{Delivery, Envelope, Message};
use crate::seqnum::SequenceRegistry;

/// The role of a broker in the topology (Figure 1 of the paper).
///
/// Local brokers are part of the client library and are not modelled as
/// separate nodes; a border broker is simply a broker with attached clients.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum BrokerRole {
    /// Connected only to other brokers.
    #[default]
    Inner,
    /// May accept local clients.
    Border,
}

/// Bookkeeping for one local client of a border broker.
///
/// The client's subscriptions are not part of the record: they live in the
/// broker's local-subscription table (see the [crate docs](crate)) and are
/// read through [`BrokerCore::local_subscriptions`] and
/// [`BrokerCore::has_local_subscription`].  Records are handed out
/// read-only; attach, detach and the subscription methods of
/// [`BrokerCore`] are the only writers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClientRecord {
    /// The simulation node the client is reachable at.
    pub node: NodeId,
    /// Whether the client is currently connected (reachable).
    pub connected: bool,
}

/// Messages a broker wants to emit, as `(destination node, message)` pairs.
pub type Outgoing = Vec<(NodeId, Message)>;

/// A trace span drafted by the pure broker core.  The core knows the causal
/// structure (ids, parents, stage names) but has no clock and no metrics
/// store; the runtime layer drains the drafts
/// ([`BrokerCore::take_trace_spans`]) and stamps them with the broker index
/// and timestamps before recording them into the span buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSpanDraft {
    /// The trace this span belongs to.
    pub trace_id: u64,
    /// This span's id.
    pub span_id: u64,
    /// The causal parent's span id (0 for a trace root).
    pub parent_span: u64,
    /// Stage name (`"publish"`, `"match"`, `"route"`, `"deliver"`).
    pub kind: &'static str,
    /// Free-form `key=value` detail text.
    pub detail: String,
}

/// The trace context a sampled envelope carries to its next stage.
fn sampled(trace_id: u64, parent_span: u64) -> Option<TraceContext> {
    Some(TraceContext {
        trace_id,
        parent_span,
        sampled: true,
    })
}

/// The static (mobility-unaware) Rebeca broker state machine.
#[derive(Debug, Clone)]
pub struct BrokerCore {
    id: NodeId,
    role: BrokerRole,
    broker_links: Vec<NodeId>,
    clients: BTreeMap<ClientId, ClientRecord>,
    /// `(node, client)` for every record, so a message's source node finds
    /// its client without a scan; ordered, so two clients behind one node
    /// resolve to the lower id.
    clients_by_node: BTreeSet<(NodeId, ClientId)>,
    /// The subscriptions of local clients (set semantics per client).
    local: RoutingTable<ClientId>,
    engine: RoutingEngine<NodeId>,
    seq: SequenceRegistry,
    /// Next per-publisher sequence number.  Looked up on every publish and
    /// never iterated in order, so a hash map beats the ordered map it
    /// replaced.
    publisher_seq: HashMap<ClientId, u64>,
    parked: Vec<Delivery>,
    /// When set, envelopes published by *local* clients are also copied to
    /// [`BrokerCore::take_published`].  The retention layer of `rebeca-core`
    /// drains the copies into its segment store; origin-broker recording
    /// guarantees each publication is retained by exactly one broker.
    record_published: bool,
    recent_published: Vec<Envelope>,
    /// Trace sampling rate in parts per 65536 (0 = tracing off, the
    /// default).  Sampling is a pure hash of `(publisher, publisher_seq)`,
    /// so every broker — and every driver — samples the same publications.
    trace_rate: u32,
    /// Per-broker span-id nonce (deterministic under the simulator's total
    /// event order).
    trace_nonce: u64,
    trace_spans: Vec<TraceSpanDraft>,
}

impl BrokerCore {
    /// Creates a broker with the given identity, role, neighbouring broker
    /// links and routing strategy.
    pub fn new(
        id: NodeId,
        role: BrokerRole,
        broker_links: Vec<NodeId>,
        strategy: RoutingStrategyKind,
    ) -> Self {
        Self {
            id,
            role,
            broker_links,
            clients: BTreeMap::new(),
            clients_by_node: BTreeSet::new(),
            local: RoutingTable::new(),
            engine: RoutingEngine::new(strategy),
            seq: SequenceRegistry::new(),
            publisher_seq: HashMap::new(),
            parked: Vec::new(),
            record_published: false,
            recent_published: Vec::new(),
            trace_rate: 0,
            trace_nonce: 0,
            trace_spans: Vec::new(),
        }
    }

    /// The broker's own node id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The broker's role.
    pub fn role(&self) -> BrokerRole {
        self.role
    }

    /// The neighbouring broker nodes.
    pub fn broker_links(&self) -> &[NodeId] {
        &self.broker_links
    }

    /// The neighbouring broker nodes except `exclude` (the flood-forwarding
    /// set for a message that arrived over `exclude`).
    pub fn broker_links_except(&self, exclude: NodeId) -> Vec<NodeId> {
        self.broker_links
            .iter()
            .copied()
            .filter(|&l| l != exclude)
            .collect()
    }

    /// Read access to the routing engine.
    pub fn engine(&self) -> &RoutingEngine<NodeId> {
        &self.engine
    }

    /// Read access to the per-`(client, filter)` sequence registry.
    pub fn sequences(&self) -> &SequenceRegistry {
        &self.seq
    }

    /// Mutable access to the sequence registry (the relocation protocol fast
    /// forwards streams it takes over).
    pub fn sequences_mut(&mut self) -> &mut SequenceRegistry {
        &mut self.seq
    }

    /// The record of a local client, if attached here.
    pub fn client(&self, client: ClientId) -> Option<&ClientRecord> {
        self.clients.get(&client)
    }

    /// All local clients.
    pub fn clients(&self) -> impl Iterator<Item = (ClientId, &ClientRecord)> {
        self.clients.iter().map(|(id, r)| (*id, r))
    }

    /// Looks a local client up by its node id.
    pub fn client_by_node(&self, node: NodeId) -> Option<ClientId> {
        self.clients_by_node
            .range((node, ClientId::new(0))..)
            .next()
            .filter(|(n, _)| *n == node)
            .map(|(_, client)| *client)
    }

    /// Removes a local client entirely (garbage collection after relocation),
    /// returning its record.  Its local subscriptions and sequence state go
    /// with it; routing entries are the caller's business.
    pub fn remove_client(&mut self, client: ClientId) -> Option<ClientRecord> {
        let record = self.clients.remove(&client)?;
        self.clients_by_node.remove(&(record.node, client));
        self.local.remove_destination(&client);
        self.seq.remove_client(client);
        Some(record)
    }

    // ------------------------------------------------------------------
    // Local subscriptions
    // ------------------------------------------------------------------

    /// The client's subscriptions at this broker, in the order they were
    /// subscribed — the order local deliveries to the client are listed in
    /// (see the [crate docs](crate)).
    pub fn local_subscriptions(&self, client: ClientId) -> Vec<&Filter> {
        self.local.filters_for(&client)
    }

    /// `true` when the client holds exactly this filter here.
    pub fn has_local_subscription(&self, client: ClientId, filter: &Filter) -> bool {
        self.local.contains_entry(filter, &client)
    }

    /// Adds `filter` to the local-subscription table as the last
    /// subscription of `client`, which the caller has found attached.  Set
    /// semantics: a filter the client already holds is left where it is.
    fn insert_local(&mut self, client: ClientId, filter: &Filter) {
        if !self.has_local_subscription(client, filter) {
            self.local.insert(filter.clone(), client);
        }
    }

    /// Installs a subscription of an attached client without propagating
    /// it (a restart's resync offers a recovered one; a relocation's
    /// `Relocate` is its propagation): the client holds `filter`
    /// afterwards — appended to its subscriptions unless already
    /// held — and the routing table routes `filter` towards the client's
    /// node, with one entry however often this is called (see
    /// [`BrokerCore::route_towards`]).  Does nothing for a client that is
    /// not attached.
    pub fn subscribe_local(&mut self, client: ClientId, filter: Filter) {
        let Some(node) = self.clients.get(&client).map(|r| r.node) else {
            return;
        };
        self.insert_local(client, &filter);
        self.route_towards(filter, node);
    }

    /// Routes `filter` towards `towards` as a subscription arriving from
    /// `towards` would, but sends nothing: the caller's own message (a
    /// relocation's `Relocate` or `Fetch`) is the propagation, and a
    /// restart has its resync ([`BrokerCore::resync`]).  Skipped when the
    /// table already routes it there (see [`RoutingEngine::route_towards`]).
    pub fn route_towards(&mut self, filter: Filter, towards: NodeId) {
        self.engine
            .route_towards(filter, towards, &self.broker_links);
    }

    /// Records that a request routing `filter` back to this broker (a
    /// relocation's `Relocate` or `Fetch`) goes to the neighbouring broker
    /// `to`, which routes it with [`BrokerCore::route_towards`] — so the
    /// engine knows what `to` holds (see [`RoutingEngine::note_relayed`]).
    pub fn note_relayed(&mut self, filter: &Filter, to: NodeId) {
        self.engine.note_relayed(filter, &to);
    }

    /// [`BrokerCore::handle_subscribe`] without the propagation decision,
    /// for protocols that carry their own control message from hop to hop
    /// (location-dependent subscriptions): adds the routing entry
    /// `(filter, from)`, which is never propagated (see
    /// [`RoutingEngine::install`]), and, when `from` is a local client's
    /// node, appends `filter` to that client's subscriptions unless already
    /// held.
    pub fn install_subscription(&mut self, filter: Filter, from: NodeId) {
        if let Some(client) = self.client_by_node(from) {
            self.insert_local(client, &filter);
        }
        self.engine.install(filter, from);
    }

    /// The reverse of [`BrokerCore::install_subscription`]: removes one
    /// installed routing entry `(filter, from)` and, when `from` is a local
    /// client's node, the filter from that client's subscriptions.
    pub fn retract_subscription(&mut self, filter: &Filter, from: NodeId) {
        if let Some(client) = self.client_by_node(from) {
            self.local.remove(filter, &client);
        }
        self.engine.retract(filter, &from);
    }

    /// Deliveries to disconnected local clients that accumulated since the
    /// last call.  The mobility layer turns them into buffered state; the
    /// static broker drops them.
    pub fn take_parked(&mut self) -> Vec<Delivery> {
        std::mem::take(&mut self.parked)
    }

    /// Enables (or disables) recording of locally published envelopes for
    /// [`BrokerCore::take_published`].  Off by default; switched on by the
    /// retention layer.
    pub fn set_record_published(&mut self, enabled: bool) {
        self.record_published = enabled;
        if !enabled {
            self.recent_published.clear();
        }
    }

    /// Envelopes published by local clients since the last call (empty
    /// unless [`BrokerCore::set_record_published`] enabled recording).
    pub fn take_published(&mut self) -> Vec<Envelope> {
        std::mem::take(&mut self.recent_published)
    }

    /// Sets the trace sampling rate in parts per 65536 (0 disables tracing,
    /// the default; see [`rebeca_obs::rate_per_64k`]).
    pub fn set_trace_sampling(&mut self, rate_per_64k: u32) {
        self.trace_rate = rate_per_64k;
    }

    /// The trace sampling rate in parts per 65536.
    pub fn trace_sampling(&self) -> u32 {
        self.trace_rate
    }

    /// Span drafts accumulated since the last call.  The runtime layer
    /// stamps them with timestamps and the broker index and records them
    /// into the metrics span buffer.  Cheap when tracing is off: taking an
    /// empty `Vec` neither allocates nor deallocates.
    pub fn take_trace_spans(&mut self) -> Vec<TraceSpanDraft> {
        std::mem::take(&mut self.trace_spans)
    }

    /// Drafts a span and returns its id.
    fn new_span(
        &mut self,
        trace_id: u64,
        parent_span: u64,
        kind: &'static str,
        detail: String,
    ) -> u64 {
        let span_id = rebeca_obs::span_id(trace_id, self.id.index() as u64, self.trace_nonce);
        self.trace_nonce += 1;
        self.trace_spans.push(TraceSpanDraft {
            trace_id,
            span_id,
            parent_span,
            kind,
            detail,
        });
        span_id
    }

    /// Stamps a freshly published envelope with a trace context when the
    /// deterministic sampler selects it, drafting the root `publish` span.
    fn sample_publication(&mut self, envelope: &mut Envelope) {
        if self.trace_rate == 0 {
            return;
        }
        if let Some(trace_id) = rebeca_obs::sample_publication(
            envelope.publisher.raw() as u64,
            envelope.publisher_seq,
            self.trace_rate,
        ) {
            let detail = format!(
                "publisher={} seq={}",
                envelope.publisher.raw(),
                envelope.publisher_seq
            );
            let span = self.new_span(trace_id, 0, "publish", detail);
            envelope.trace = sampled(trace_id, span);
        }
    }

    // ------------------------------------------------------------------
    // Handlers
    // ------------------------------------------------------------------

    /// A client attaches at this (border) broker.
    pub fn handle_attach(&mut self, client: ClientId, node: NodeId) -> Outgoing {
        let record = ClientRecord {
            node,
            connected: true,
        };
        if let Some(previous) = self.clients.insert(client, record) {
            self.clients_by_node.remove(&(previous.node, client));
        }
        self.clients_by_node.insert((node, client));
        Vec::new()
    }

    /// A client detaches (or is detected as unreachable).  Its subscriptions
    /// stay in place so that the mobility layer can keep buffering for it.
    pub fn handle_detach(&mut self, client: ClientId) -> Outgoing {
        if let Some(record) = self.clients.get_mut(&client) {
            record.connected = false;
        }
        Vec::new()
    }

    /// A subscription arrives, either from a local client (`from` is the
    /// client's node) or from a neighbouring broker.
    pub fn handle_subscribe(
        &mut self,
        subscriber: ClientId,
        filter: Filter,
        from: NodeId,
    ) -> Outgoing {
        if let Some(client) = self.client_by_node(from) {
            self.insert_local(client, &filter);
        }
        self.engine
            .handle_subscribe(filter, from, &self.broker_links)
            .into_iter()
            .map(|(link, forward)| {
                (
                    link,
                    Message::Subscribe {
                        subscriber,
                        filter: forward,
                    },
                )
            })
            .collect()
    }

    /// A subscription is retracted.  What the retracted filter served and
    /// nothing else the neighbours hold serves is subscribed again before
    /// the `Unsubscribe`s go out (see [`RoutingEngine::handle_unsubscribe`]).
    pub fn handle_unsubscribe(
        &mut self,
        subscriber: ClientId,
        filter: Filter,
        from: NodeId,
    ) -> Outgoing {
        if let Some(client) = self.client_by_node(from) {
            self.local.remove(&filter, &client);
        }
        let effect = self
            .engine
            .handle_unsubscribe(&filter, &from, &self.broker_links);
        let subscribes = effect
            .subscribes
            .into_iter()
            .map(|(link, filter)| (link, Message::Subscribe { subscriber, filter }));
        let unsubscribes = effect
            .forwards
            .into_iter()
            .map(|(link, filter)| (link, Message::Unsubscribe { subscriber, filter }));
        subscribes.chain(unsubscribes).collect()
    }

    /// The `Resync` for the neighbouring broker `to`: what this broker
    /// holds as sent there, recomputed ([`RoutingEngine::resync`]).  A
    /// restarted broker sends one to each neighbour with `answer` set.
    pub fn resync(&mut self, to: NodeId, answer: bool) -> (NodeId, Message) {
        let filters = self.engine.resync(&to);
        (to, Message::Resync { filters, answer })
    }

    /// A neighbouring broker's `Resync`: its propagating entries here
    /// become exactly what it `held`, as multisets, through
    /// [`BrokerCore::handle_subscribe`] and
    /// [`BrokerCore::handle_unsubscribe`], so the other neighbours hear
    /// only the difference (sent for the default client id: a resync names
    /// no subscriber).  With `answer` set, the sender gets this broker's.
    pub fn handle_resync(&mut self, held: Vec<Filter>, answer: bool, from: NodeId) -> Outgoing {
        // Per filter: copies the sender holds minus entries from it here.
        let mut surplus: BTreeMap<Filter, i64> = BTreeMap::new();
        let entries = self.engine.table().propagating().into_iter();
        let here = entries.filter(|(d, _)| *d == from).map(|(_, f)| (f, -1));
        for (filter, n) in held.into_iter().map(|f| (f, 1)).chain(here) {
            *surplus.entry(filter).or_default() += n;
        }
        let subscriber = ClientId::default();
        let mut out = Vec::new();
        for (filter, &n) in &surplus {
            for _ in 0..n {
                out.extend(self.handle_subscribe(subscriber, filter.clone(), from));
            }
        }
        for (filter, n) in surplus {
            for _ in n..0 {
                out.extend(self.handle_unsubscribe(subscriber, filter.clone(), from));
            }
        }
        if answer {
            out.push(self.resync(from, false));
        }
        out
    }

    /// A local client publishes a notification.  The border broker assigns
    /// the per-publisher sequence number and routes the resulting envelope.
    pub fn handle_publish(
        &mut self,
        publisher: ClientId,
        notification: Notification,
        from: NodeId,
    ) -> Outgoing {
        let counter = self.publisher_seq.entry(publisher).or_insert(0);
        *counter += 1;
        let mut envelope = Envelope::new(publisher, *counter, notification);
        self.sample_publication(&mut envelope);
        if self.record_published {
            self.recent_published.push(envelope.clone());
        }
        self.route_envelope(envelope, Some(from))
    }

    /// A routed notification arrives from a neighbouring broker.
    pub fn handle_notification(&mut self, envelope: Envelope, from: NodeId) -> Outgoing {
        self.route_envelope(envelope, Some(from))
    }

    /// Routes an envelope: forwards it to matching neighbouring brokers and
    /// delivers it (with sequence annotation) to matching local clients.
    ///
    /// A sampled envelope drafts a `match` span first; after the walk each
    /// forwarded copy gets a `route` span of its own as its new parent (so
    /// the receiving broker's `match` attaches under the hop that carried
    /// it), and the local copy is re-parented under `match` so `deliver`
    /// spans nest correctly.  Unsampled envelopes skip both steps.
    pub fn route_envelope(&mut self, mut envelope: Envelope, exclude: Option<NodeId>) -> Outgoing {
        let traced = envelope.trace.filter(|ctx| ctx.sampled).map(|ctx| {
            let detail = format!(
                "publisher={} seq={}",
                envelope.publisher.raw(),
                envelope.publisher_seq
            );
            let match_span = self.new_span(ctx.trace_id, ctx.parent_span, "match", detail);
            (ctx.trace_id, match_span)
        });
        let mut out = Vec::new();

        // Broker-to-broker forwarding, via the routing engine's visitor walk
        // (skips the matching-key and cloned-destination vectors).
        let broker_links = &self.broker_links;
        self.engine.for_each_route(
            &envelope.notification,
            exclude.as_ref(),
            broker_links,
            |dest| {
                if broker_links.contains(dest) {
                    out.push((*dest, Message::Notification(envelope.clone())));
                }
            },
        );

        if let Some((trace_id, match_span)) = traced {
            for (dest, message) in &mut out {
                let detail = format!("dest={}", dest.index());
                let route_span = self.new_span(trace_id, match_span, "route", detail);
                if let Message::Notification(copy) = message {
                    copy.trace = sampled(trace_id, route_span);
                }
            }
            envelope.trace = sampled(trace_id, match_span);
        }
        self.deliver_locally(&envelope, exclude, &mut out);
        out
    }

    /// Delivers an envelope (with per-`(client, filter)` sequence
    /// annotation) to matching local clients, parking deliveries addressed
    /// to disconnected ones.  One counting match over the
    /// local-subscription table; the matched entries are then put into the
    /// contract order of the [crate docs](crate) — ascending client, then
    /// subscription order — before sequence numbers are assigned.
    fn deliver_locally(
        &mut self,
        envelope: &Envelope,
        exclude: Option<NodeId>,
        out: &mut Outgoing,
    ) {
        if self.local.is_empty() {
            return; // a transit broker: no counting match for nobody
        }
        let clients = &self.clients;
        let mut matches: Vec<(ClientId, u64, NodeId, bool, Filter)> = Vec::new();
        self.local
            .for_each_matching_entry(&envelope.notification, |client, entry, filter| {
                let record = clients
                    .get(client)
                    .expect("local subscriptions belong to attached clients");
                if Some(record.node) != exclude {
                    matches.push((
                        *client,
                        entry,
                        record.node,
                        record.connected,
                        filter.clone(),
                    ));
                }
            });
        matches.sort_unstable_by_key(|&(client, entry, ..)| (client, entry));
        for (client, _, node, connected, filter) in matches {
            let seq = self.seq.next(client, &filter);
            let delivery = Delivery {
                subscriber: client,
                filter,
                seq,
                envelope: envelope.clone(),
            };
            if connected {
                if let Some(ctx) = envelope.trace.filter(|ctx| ctx.sampled) {
                    self.new_span(
                        ctx.trace_id,
                        ctx.parent_span,
                        "deliver",
                        format!("client={} seq={}", client.raw(), seq),
                    );
                }
                out.push((node, Message::Deliver(delivery)));
            } else {
                // Parked (counterpart-buffered) deliveries get their span at
                // replay time instead — the `replay` stage the mobility
                // layer records when the hold settles.
                self.parked.push(delivery);
            }
        }
    }

    /// Dispatches a raw [`Message`] to the appropriate handler.  Mobility
    /// control messages are **not** handled here (the static broker does not
    /// understand them); they are returned as `Err` so the caller — the
    /// mobility-aware broker of `rebeca-core` — can process them.  So is a
    /// `Resync` from a node that is not a neighbouring broker.
    pub fn handle_message(&mut self, from: NodeId, message: Message) -> Result<Outgoing, Message> {
        match message {
            Message::Attach { client } => Ok(self.handle_attach(client, from)),
            Message::Detach { client } => Ok(self.handle_detach(client)),
            Message::Publish {
                publisher,
                notification,
            } => Ok(self.handle_publish(publisher, notification, from)),
            Message::Notification(envelope) => Ok(self.handle_notification(envelope, from)),
            Message::Subscribe { subscriber, filter } => {
                Ok(self.handle_subscribe(subscriber, filter, from))
            }
            Message::Unsubscribe { subscriber, filter } => {
                Ok(self.handle_unsubscribe(subscriber, filter, from))
            }
            Message::Resync { filters, answer } if self.broker_links.contains(&from) => {
                Ok(self.handle_resync(filters, answer, from))
            }
            other => Err(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rebeca_filter::Constraint;

    fn parking() -> Filter {
        Filter::new().with("service", Constraint::Eq("parking".into()))
    }

    fn weather() -> Filter {
        Filter::new().with("service", Constraint::Eq("weather".into()))
    }

    fn vacancy() -> Notification {
        Notification::builder()
            .attr("service", "parking")
            .attr("cost", 2)
            .build()
    }

    /// Broker 0 with broker links to nodes 10 and 11; client c1 at node 100.
    fn broker() -> BrokerCore {
        BrokerCore::new(
            NodeId(0),
            BrokerRole::Border,
            vec![NodeId(10), NodeId(11)],
            RoutingStrategyKind::Covering,
        )
    }

    #[test]
    fn local_subscription_is_forwarded_to_all_broker_links() {
        let mut b = broker();
        b.handle_attach(ClientId::new(1), NodeId(100));
        let out = b.handle_subscribe(ClientId::new(1), parking(), NodeId(100));
        assert_eq!(out.len(), 2);
        assert!(out
            .iter()
            .all(|(_, m)| matches!(m, Message::Subscribe { .. })));
        assert_eq!(b.local_subscriptions(ClientId::new(1)), vec![&parking()]);
    }

    #[test]
    fn remote_subscription_is_forwarded_to_the_other_links_only() {
        let mut b = broker();
        let out = b.handle_subscribe(ClientId::new(5), parking(), NodeId(10));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, NodeId(11));
    }

    #[test]
    fn covered_subscription_is_not_forwarded_to_links_that_know_a_cover() {
        let mut b = broker();
        let wide = Filter::new().with("service", Constraint::Exists);
        // The wide filter from link 10 is forwarded to link 11 only.
        assert_eq!(
            b.handle_subscribe(ClientId::new(5), wide, NodeId(10)).len(),
            1
        );
        // A covered filter from link 11 does not need to be propagated to
        // link 11 again (it came from there) nor re-announced to it; only
        // link 10 — which has not been told about any cover — learns it.
        let out = b.handle_subscribe(ClientId::new(6), parking(), NodeId(11));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, NodeId(10));
        // A third covered filter from a local client adds no new forwards at
        // all: both broker links already know a cover.
        b.handle_attach(ClientId::new(1), NodeId(100));
        let wide2 = Filter::new().with("service", Constraint::Exists);
        b.handle_subscribe(ClientId::new(5), wide2, NodeId(11));
        assert!(b
            .handle_subscribe(ClientId::new(1), parking(), NodeId(100))
            .is_empty());
    }

    #[test]
    fn publication_reaches_local_subscriber_with_sequence_numbers() {
        let mut b = broker();
        b.handle_attach(ClientId::new(1), NodeId(100));
        b.handle_subscribe(ClientId::new(1), parking(), NodeId(100));
        b.handle_attach(ClientId::new(2), NodeId(101));

        let out = b.handle_publish(ClientId::new(2), vacancy(), NodeId(101));
        // Delivered locally only (no remote subscriptions).
        let delivers: Vec<&Delivery> = out
            .iter()
            .filter_map(|(_, m)| match m {
                Message::Deliver(d) => Some(d),
                _ => None,
            })
            .collect();
        assert_eq!(delivers.len(), 1);
        assert_eq!(delivers[0].seq, 1);
        assert_eq!(delivers[0].subscriber, ClientId::new(1));
        assert_eq!(delivers[0].envelope.publisher, ClientId::new(2));
        assert_eq!(delivers[0].envelope.publisher_seq, 1);

        // A second publication gets the next sequence numbers.
        let out = b.handle_publish(ClientId::new(2), vacancy(), NodeId(101));
        let d = out
            .iter()
            .find_map(|(_, m)| match m {
                Message::Deliver(d) => Some(d),
                _ => None,
            })
            .unwrap();
        assert_eq!(d.seq, 2);
        assert_eq!(d.envelope.publisher_seq, 2);
    }

    #[test]
    fn remote_notification_is_forwarded_towards_matching_subscriptions() {
        let mut b = broker();
        // Subscription from broker link 11.
        b.handle_subscribe(ClientId::new(5), parking(), NodeId(11));
        let envelope = Envelope::new(ClientId::new(9), 1, vacancy());
        let out = b.handle_notification(envelope, NodeId(10));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, NodeId(11));
        assert!(matches!(out[0].1, Message::Notification(_)));
    }

    #[test]
    fn notifications_do_not_bounce_back_to_their_source_link() {
        let mut b = broker();
        b.handle_subscribe(ClientId::new(5), parking(), NodeId(10));
        let envelope = Envelope::new(ClientId::new(9), 1, vacancy());
        let out = b.handle_notification(envelope, NodeId(10));
        assert!(out.is_empty());
    }

    #[test]
    fn non_matching_notifications_are_dropped() {
        let mut b = broker();
        b.handle_attach(ClientId::new(1), NodeId(100));
        b.handle_subscribe(ClientId::new(1), weather(), NodeId(100));
        let out = b.handle_publish(ClientId::new(1), vacancy(), NodeId(100));
        assert!(out.is_empty());
    }

    #[test]
    fn deliveries_to_disconnected_clients_are_parked() {
        let mut b = broker();
        b.handle_attach(ClientId::new(1), NodeId(100));
        b.handle_subscribe(ClientId::new(1), parking(), NodeId(100));
        b.handle_detach(ClientId::new(1));
        b.handle_attach(ClientId::new(2), NodeId(101));
        let out = b.handle_publish(ClientId::new(2), vacancy(), NodeId(101));
        assert!(
            out.is_empty(),
            "nothing must be sent to a disconnected client"
        );
        let parked = b.take_parked();
        assert_eq!(parked.len(), 1);
        assert_eq!(parked[0].seq, 1);
        assert!(b.take_parked().is_empty());
    }

    #[test]
    fn unsubscribe_removes_the_client_subscription_and_propagates() {
        let mut b = broker();
        b.handle_attach(ClientId::new(1), NodeId(100));
        b.handle_subscribe(ClientId::new(1), parking(), NodeId(100));
        let out = b.handle_unsubscribe(ClientId::new(1), parking(), NodeId(100));
        assert_eq!(out.len(), 2);
        assert!(b.local_subscriptions(ClientId::new(1)).is_empty());
        // Publishing afterwards delivers nothing.
        b.handle_attach(ClientId::new(2), NodeId(101));
        assert!(b
            .handle_publish(ClientId::new(2), vacancy(), NodeId(101))
            .is_empty());
    }

    #[test]
    fn handle_message_dispatches_and_rejects_mobility_messages() {
        let mut b = broker();
        let ok = b.handle_message(
            NodeId(100),
            Message::Attach {
                client: ClientId::new(1),
            },
        );
        assert!(ok.is_ok());
        let err = b.handle_message(
            NodeId(10),
            Message::Fetch {
                client: ClientId::new(1),
                filter: parking(),
                last_seq: 0,
                junction: NodeId(0),
            },
        );
        assert!(err.is_err());
    }

    #[test]
    fn client_bookkeeping_accessors() {
        let mut b = broker();
        b.handle_attach(ClientId::new(1), NodeId(100));
        assert_eq!(b.client_by_node(NodeId(100)), Some(ClientId::new(1)));
        assert_eq!(b.client_by_node(NodeId(7)), None);
        assert_eq!(b.clients().count(), 1);
        assert!(b.remove_client(ClientId::new(1)).is_some());
        assert!(b.remove_client(ClientId::new(1)).is_none());
        assert_eq!(b.role(), BrokerRole::Border);
        assert_eq!(b.id(), NodeId(0));
        assert_eq!(b.broker_links(), &[NodeId(10), NodeId(11)]);
    }

    #[test]
    fn tracing_off_stamps_no_context_and_drafts_no_spans() {
        let mut b = broker();
        b.handle_attach(ClientId::new(1), NodeId(100));
        b.handle_subscribe(ClientId::new(1), parking(), NodeId(100));
        b.handle_attach(ClientId::new(2), NodeId(101));
        let out = b.handle_publish(ClientId::new(2), vacancy(), NodeId(101));
        let d = out
            .iter()
            .find_map(|(_, m)| match m {
                Message::Deliver(d) => Some(d),
                _ => None,
            })
            .unwrap();
        assert_eq!(d.envelope.trace, None);
        assert!(b.take_trace_spans().is_empty());
    }

    #[test]
    fn traced_publication_drafts_a_causal_chain() {
        let mut b = broker();
        let mut plain = broker();
        b.set_trace_sampling(rebeca_obs::rate_per_64k(1.0));
        assert_eq!(b.trace_sampling(), 1 << 16);
        // One local subscriber and one remote subscription behind link 10.
        for core in [&mut b, &mut plain] {
            core.handle_attach(ClientId::new(1), NodeId(100));
            core.handle_subscribe(ClientId::new(1), parking(), NodeId(100));
            core.handle_subscribe(ClientId::new(5), parking(), NodeId(10));
            core.handle_attach(ClientId::new(2), NodeId(101));
        }

        let out = b.handle_publish(ClientId::new(2), vacancy(), NodeId(101));
        let spans = b.take_trace_spans();
        let kinds: Vec<&str> = spans.iter().map(|s| s.kind).collect();
        assert_eq!(kinds, vec!["publish", "match", "route", "deliver"]);
        let trace_id = rebeca_obs::trace_id_for(2, 1);
        assert!(spans.iter().all(|s| s.trace_id == trace_id));
        // publish is the root; match nests under it; route and deliver
        // under match.
        assert_eq!(spans[0].parent_span, 0);
        assert_eq!(spans[1].parent_span, spans[0].span_id);
        assert_eq!(spans[2].parent_span, spans[1].span_id);
        assert_eq!(spans[3].parent_span, spans[1].span_id);

        // The forwarded copy's parent was rewritten to the route span; the
        // delivered copy's to the match span.
        let forwarded = out
            .iter()
            .find_map(|(dest, m)| match m {
                Message::Notification(e) if *dest == NodeId(10) => Some(e),
                _ => None,
            })
            .unwrap();
        assert_eq!(forwarded.trace.unwrap().parent_span, spans[2].span_id);
        let delivered = out
            .iter()
            .find_map(|(_, m)| match m {
                Message::Deliver(d) => Some(&d.envelope),
                _ => None,
            })
            .unwrap();
        assert_eq!(delivered.trace.unwrap().parent_span, spans[1].span_id);

        // The receiving broker continues the chain under the route span.
        let mut b2 = BrokerCore::new(
            NodeId(1),
            BrokerRole::Border,
            vec![NodeId(0)],
            RoutingStrategyKind::Covering,
        );
        b2.handle_attach(ClientId::new(5), NodeId(200));
        b2.handle_subscribe(ClientId::new(5), parking(), NodeId(200));
        b2.handle_notification(forwarded.clone(), NodeId(0));
        let spans2 = b2.take_trace_spans();
        let kinds2: Vec<&str> = spans2.iter().map(|s| s.kind).collect();
        assert_eq!(kinds2, vec!["match", "deliver"]);
        assert_eq!(spans2[0].parent_span, spans[2].span_id);
        // Span ids never collide across brokers.
        assert!(spans
            .iter()
            .all(|s| spans2.iter().all(|t| t.span_id != s.span_id)));

        // Sampling never changes where a publication goes: apart from the
        // trace contexts, the traced output equals the untraced one.
        let plain_out = plain.handle_publish(ClientId::new(2), vacancy(), NodeId(101));
        assert!(plain.take_trace_spans().is_empty());
        let mut stripped = out.clone();
        for (_, message) in &mut stripped {
            match message {
                Message::Notification(copy) => copy.trace = None,
                Message::Deliver(d) => d.envelope.trace = None,
                _ => {}
            }
        }
        assert_eq!(stripped, plain_out);
    }

    #[test]
    fn route_towards_adds_one_silent_entry_unless_already_routed() {
        let mut b = broker();
        let wide = Filter::new().with("service", Constraint::Exists);
        b.handle_subscribe(ClientId::new(5), wide.clone(), NodeId(10));
        // Covered by what link 10 already sent: nothing to add.
        b.route_towards(parking(), NodeId(10));
        assert_eq!(b.engine().table_size(), 1);
        // Towards link 11 it is new; repeating it adds nothing more.
        b.route_towards(parking(), NodeId(11));
        b.route_towards(parking(), NodeId(11));
        assert_eq!(b.engine().table_size(), 2);
        // A cover towards a local client's node stands in for nothing, and
        // installing a held subscription again adds no second entry.
        b.handle_attach(ClientId::new(1), NodeId(100));
        b.subscribe_local(ClientId::new(1), wide.clone());
        b.subscribe_local(ClientId::new(1), parking());
        b.subscribe_local(ClientId::new(1), parking());
        assert_eq!(b.engine().table_size(), 4);
        assert_eq!(
            b.local_subscriptions(ClientId::new(1)),
            vec![&wide, &parking()]
        );
    }

    #[test]
    fn reattach_marks_the_client_connected_again() {
        let mut b = broker();
        b.handle_attach(ClientId::new(1), NodeId(100));
        b.handle_detach(ClientId::new(1));
        assert!(!b.client(ClientId::new(1)).unwrap().connected);
        b.handle_attach(ClientId::new(1), NodeId(100));
        assert!(b.client(ClientId::new(1)).unwrap().connected);
    }
}
