//! The transport-agnostic relocation state machine.
//!
//! [`RelocationMachine`] is the extracted heart of the paper's Section 4
//! protocol: virtual counterparts, reactive relocation, junction fetch,
//! in-order replay merge and garbage collection — previously an ad-hoc trio
//! of `BTreeMap`s inside the mobility-aware broker.  The machine owns all
//! per-stream relocation state, appends every durable event to its
//! [`HandoffLog`] *before* mutating memory, and communicates with the
//! outside world exclusively through returned [`Effect`]s, so it runs
//! unchanged under the deterministic simulator, a threaded runtime, or a
//! unit test driving it directly.
//!
//! # Stream state
//!
//! A broker keeps one map per role, each keyed by the `(client, filter)`
//! stream, so every count is a map length and an event touches only the
//! streams it names:
//!
//! ```text
//!   old border broker        brokers on the way back        new border broker
//!  ┌─────────────┐  Fetch   ┌───────────────┐  Relocate    ┌─────────┐
//!  │ counterpart │◀─────────│ replay route  │◀─────────────│ holding │◀─ ReSubscribe
//!  │  (buffers)  │─────────▶│  (next hop)   │─────────────▶│ (held)  │─▶ merged batch
//!  └─────────────┘  Replay  └───────────────┘  Replay      └─────────┘
//!  opened on detach;        noted by Relocate/Fetch;       opened on ReSubscribe;
//!  GC'd once replayed       taken by the Replay, or        closed by the Replay
//!  (or its lease expires)   expired after the timeout      or the timeout flush
//! ```
//!
//! The observable [`RelocationPhase`] reads those maps:
//!
//! * **Holding** — the *new* border broker holds fresh deliveries back
//!   until the replay has been merged (or the relocation timeout fires).
//! * **AwaitingReplay** — a broker recorded the route a replay will travel
//!   back over: every broker that passed a `Relocate`/`Fetch` on.  The old
//!   border broker sends its `Replay` straight back and a dead end sends
//!   nothing, so neither records one.  The route goes when the replay
//!   passes or, at the latest, with the first event handled after the
//!   relocation timeout ([`RelocationMachine::expire_replay_routes`]).
//! * **Local** — everything else, including a disconnected stream at the
//!   *old* border broker whose virtual counterpart buffers in place of the
//!   client.
//!
//! # Routing state
//!
//! The machine writes the routing table only through the broker's
//! [`RoutingEngine`](rebeca_routing::RoutingEngine), so a move leaves the
//! table "unsubscribe at the old border broker, subscribe at the new one"
//! would leave.  Every broker a `Relocate` or `Fetch` reaches routes the
//! filter back the way it came ([`BrokerCore::route_towards`]): the request
//! is the subscription's propagation, so its sender records it as held by
//! the receiver ([`BrokerCore::note_relayed`]) and a later unsubscription
//! retracts it like any forwarded subscription.  The old border broker
//! sends its `Replay`, then retracts the departed client's subscription
//! with an ordinary unsubscription, whose `Unsubscribe`s tear the old path
//! down FIFO behind the replay (an expired lease does the same).  None of
//! this is journaled: routing state is soft state, and a restarted broker
//! re-learns it from its neighbours (`Message::Resync`).

use std::collections::{btree_map::Entry, BTreeMap, BTreeSet};

use rebeca_broker::{BrokerCore, ClientId, Delivery, DeliveryBuffer, Envelope, Message, Outgoing};
use rebeca_filter::Filter;
use rebeca_routing::RoutingStrategyKind;
use rebeca_sim::{NodeId, SimDuration};

use crate::log::{HandoffLog, HoldingSnapshot, StreamSnapshot, WalRecord};
use crate::routes::ReplayRoutes;

/// Identity of one relocatable subscription stream.
pub type StreamKey = (ClientId, Filter);

/// Observable phase of a stream's relocation (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RelocationPhase {
    /// Served normally (possibly buffering into a virtual counterpart).
    Local,
    /// Fresh deliveries held back at the new border broker, replay awaited.
    Holding,
    /// A replay route is recorded; the replay is expected to pass through.
    AwaitingReplay,
}

/// A side effect requested by the machine, interpreted by the hosting
/// broker adapter (send over a link, arm a timer, bump a metric).
#[derive(Debug, Clone, PartialEq)]
pub enum Effect {
    /// Send a message to a node.
    Send(NodeId, Message),
    /// Arm a timer that fires back into [`RelocationMachine::on_timeout`]
    /// with the given tag.
    SetTimer(SimDuration, u64),
    /// Increment a metrics counter by one.
    Incr(&'static str),
    /// Add to a metrics counter.
    Add(&'static str, u64),
}

/// A virtual counterpart at the old border broker: buffers deliveries for
/// a disconnected client until a relocation replays them.
#[derive(Debug, Clone)]
struct Counterpart {
    buffer: DeliveryBuffer,
    /// The node the (disconnected) client was last reachable at.
    client_node: NodeId,
    /// Sequence watermark at the time the counterpart was opened.
    next_seq: u64,
    /// Lease start: broker time (microseconds) the counterpart was opened
    /// at.  The lease sweep expires counterparts whose client never
    /// returned within the configured counterpart lease.
    opened_at: u64,
}

/// Holding-buffer state at the new border broker for one in-flight
/// relocation.
#[derive(Debug, Clone)]
struct HoldingState {
    /// Envelopes that arrived for the relocating subscription since the
    /// re-subscription, in arrival order.
    envelopes: Vec<Envelope>,
    /// The node the re-subscribing client is attached at.
    client_node: NodeId,
    /// The last sequence number the client reported on re-subscription.
    last_seq: u64,
    /// The timer tag guarding this relocation.
    timeout_tag: u64,
}

/// The relocation protocol engine: explicit transitions over per-stream
/// states, write-ahead logging, and effect-based output.
#[derive(Debug, Clone)]
pub struct RelocationMachine {
    counterparts: BTreeMap<StreamKey, Counterpart>,
    holdings: BTreeMap<StreamKey, HoldingState>,
    /// The next hop back towards the new border broker.  The latest flood
    /// wins: its `from` pointers always lead back to the new border broker,
    /// whereas a route left from an earlier relocation of the same stream
    /// may point anywhere (a client returning to a visited broker).
    replay_routes: ReplayRoutes<StreamKey>,
    /// Timer tags mapping back to the relocation they guard.  Tags are
    /// removed both when the timer fires *and* when the replay settles the
    /// relocation first, so the map stays empty across settled relocations.
    timeout_tags: BTreeMap<u64, StreamKey>,
    next_timeout_tag: u64,
    /// Restart generation: timeout tags are numbered from
    /// `generation << 32`, so timers armed by a previous (crashed)
    /// incarnation — which survive in the simulator's event queue and
    /// cannot be cancelled — can never alias a tag of this one.
    generation: u64,
    relocation_timeout: SimDuration,
    /// Monotonic count of counterparts expired by the lease sweep.
    leases_expired: u64,
    /// When set (the default), `Relocate` floods are scoped to broker links
    /// holding a routing entry that covers the relocating filter (see
    /// [`RelocationMachine::set_scoped_flood`]); when cleared, every broker
    /// link is flooded (the paper's unscoped baseline).
    scoped_flood: bool,
    log: HandoffLog,
}

impl RelocationMachine {
    /// Creates a machine with an empty state over the given log.
    pub fn new(relocation_timeout: SimDuration, log: HandoffLog) -> Self {
        Self {
            counterparts: BTreeMap::new(),
            holdings: BTreeMap::new(),
            replay_routes: ReplayRoutes::default(),
            timeout_tags: BTreeMap::new(),
            next_timeout_tag: 0,
            generation: 0,
            relocation_timeout,
            leases_expired: 0,
            scoped_flood: true,
            log,
        }
    }

    /// Enables or disables scoped relocation flooding.
    ///
    /// When enabled (the default), `Relocate` requests are forwarded only
    /// over broker links whose routing table holds an entry **covering** the
    /// relocating filter.  Under every subscription-propagating strategy the
    /// reverse delivery path towards the old border broker always carries
    /// such an entry (the subscription itself, or the covering filter that
    /// suppressed its propagation), so the scoped flood still reaches the
    /// virtual counterpart — it just skips subtrees that never routed the
    /// subscription.  Under [`RoutingStrategyKind::Flooding`] (no
    /// subscription propagation) and whenever no covering link exists, the
    /// machine falls back to the full flood, so disabling this is purely an
    /// instrumentation baseline.
    pub fn set_scoped_flood(&mut self, enabled: bool) {
        self.scoped_flood = enabled;
    }

    /// Reconstructs a machine (and the consumer-side parts of the static
    /// broker: its recovered clients' records, their subscriptions and
    /// sequence watermarks) from the write-ahead log, as a restarted broker
    /// does.  The log holds no routing state: the restarted broker
    /// re-learns its other routes from its neighbours' held tables
    /// (`Message::Resync`).  Returns the machine plus the timer tags of
    /// recovered holdings, which the host must re-arm with
    /// [`RelocationMachine::timeout`] externally (a restarted node has no
    /// live timer context).
    pub fn recover(
        relocation_timeout: SimDuration,
        log: HandoffLog,
        core: &mut BrokerCore,
    ) -> (Self, Vec<u64>) {
        let recovered = log.recover();
        let mut machine = Self::new(relocation_timeout, log);
        // Tags of the previous incarnation (whose timers may still be
        // queued) all live below the new generation's range.
        machine.generation = recovered.generation + 1;
        machine.next_timeout_tag = machine.generation << 32;
        machine.log.note_recovered(recovered.records_read as u64);
        machine.log.append(&WalRecord::Epoch {
            generation: machine.generation,
        });

        for snap in recovered.streams {
            // Reconstruct the disconnected client record and its
            // subscription so parked deliveries keep feeding the
            // counterpart after the restart.
            if snap.client_node != NodeId(usize::MAX) {
                core.handle_attach(snap.client, snap.client_node);
                core.handle_detach(snap.client);
                core.subscribe_local(snap.client, snap.filter.clone());
            }
            let next_seq = snap
                .next_seq
                .max(snap.buffered.iter().map(|d| d.seq).max().unwrap_or(0) + 1);
            core.sequences_mut()
                .fast_forward(snap.client, &snap.filter, next_seq);

            let mut buffer = DeliveryBuffer::new();
            for delivery in snap.buffered {
                buffer.push(delivery);
            }
            machine.counterparts.insert(
                (snap.client, snap.filter),
                Counterpart {
                    buffer,
                    client_node: snap.client_node,
                    next_seq: snap.next_seq,
                    opened_at: snap.opened_at,
                },
            );
        }

        let mut tags = Vec::new();
        for holding in recovered.holdings {
            // Reconstruct the attached client and its subscription, so the
            // replay merge (which looks the client up) and fresh deliveries
            // work after the restart.  Held envelopes from before the crash
            // are not persisted (see the crate docs on scope).
            if holding.client_node != NodeId(usize::MAX) {
                core.handle_attach(holding.client, holding.client_node);
                core.subscribe_local(holding.client, holding.filter.clone());
            }
            let tag = machine.next_timeout_tag;
            machine.next_timeout_tag += 1;
            let key = (holding.client, holding.filter);
            machine.timeout_tags.insert(tag, key.clone());
            machine.holdings.insert(
                key,
                HoldingState {
                    envelopes: Vec::new(),
                    client_node: holding.client_node,
                    last_seq: holding.last_seq,
                    timeout_tag: tag,
                },
            );
            tags.push(tag);
        }
        (machine, tags)
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// The relocation timeout the machine arms for new holdings.
    pub fn timeout(&self) -> SimDuration {
        self.relocation_timeout
    }

    /// The restart generation (0 for a machine that never recovered; each
    /// recovery increments it and numbers timeout tags from
    /// `generation << 32`).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Read access to the write-ahead log.
    pub fn log(&self) -> &HandoffLog {
        &self.log
    }

    /// Number of streams with an active virtual counterpart.
    pub fn counterpart_count(&self) -> usize {
        self.counterparts.len()
    }

    /// Total number of deliveries buffered by virtual counterparts.
    pub fn buffered_deliveries(&self) -> usize {
        self.counterparts.values().map(|c| c.buffer.len()).sum()
    }

    /// Number of relocations currently holding back fresh deliveries.
    pub fn pending_relocations(&self) -> usize {
        self.holdings.len()
    }

    /// Monotonic count of counterparts the lease sweep expired.
    pub fn leases_expired(&self) -> u64 {
        self.leases_expired
    }

    /// Number of live relocation-timeout guards.  Stays zero across settled
    /// relocations: the guard of a relocation that completes before its
    /// timeout is reclaimed on replay completion, not leaked.
    pub fn timeout_tag_count(&self) -> usize {
        self.timeout_tags.len()
    }

    /// The current phase of a stream at this broker.
    pub fn phase(&self, client: ClientId, filter: &Filter) -> RelocationPhase {
        let key = (client, filter.clone());
        if self.holdings.contains_key(&key) {
            RelocationPhase::Holding
        } else if self.replay_routes.next_hop(&key).is_some() {
            RelocationPhase::AwaitingReplay
        } else {
            RelocationPhase::Local
        }
    }

    // ------------------------------------------------------------------
    // Durable buffering (old border broker side)
    // ------------------------------------------------------------------

    /// Observes a client disconnect: opens a durable virtual counterpart
    /// (leased from `now_micros`) for every subscription the client leaves
    /// behind.
    pub fn on_detach(&mut self, core: &BrokerCore, client: ClientId, now_micros: u64) {
        let Some(record) = core.client(client) else {
            return;
        };
        let node = record.node;
        for filter in core.local_subscriptions(client) {
            if let Entry::Vacant(slot) = self.counterparts.entry((client, filter.clone())) {
                let next_seq = core.sequences().peek(client, filter);
                self.log.append(&WalRecord::StreamOpen {
                    client,
                    client_node: node,
                    filter: filter.clone(),
                    next_seq,
                    opened_at: now_micros,
                });
                slot.insert(Counterpart {
                    buffer: DeliveryBuffer::new(),
                    client_node: node,
                    next_seq,
                    opened_at: now_micros,
                });
            }
        }
        self.maybe_checkpoint();
    }

    /// Moves parked deliveries (addressed to disconnected local clients)
    /// into their virtual counterparts, logging each append.
    pub fn absorb_parked(&mut self, core: &mut BrokerCore, now_micros: u64) {
        let parked = core.take_parked();
        if parked.is_empty() {
            return;
        }
        for delivery in parked {
            let key = (delivery.subscriber, delivery.filter.clone());
            let counterpart = match self.counterparts.entry(key) {
                Entry::Occupied(slot) => slot.into_mut(),
                Entry::Vacant(slot) => {
                    // A subscription that was never observed detaching (e.g.
                    // installed while the client was already away): open the
                    // stream on first append.
                    let node = core
                        .client(delivery.subscriber)
                        .map(|r| r.node)
                        .unwrap_or(NodeId(usize::MAX));
                    self.log.append(&WalRecord::StreamOpen {
                        client: delivery.subscriber,
                        client_node: node,
                        filter: delivery.filter.clone(),
                        next_seq: delivery.seq,
                        opened_at: now_micros,
                    });
                    slot.insert(Counterpart {
                        buffer: DeliveryBuffer::new(),
                        client_node: node,
                        next_seq: delivery.seq,
                        opened_at: now_micros,
                    })
                }
            };
            self.log.append(&WalRecord::Buffered {
                delivery: delivery.clone(),
            });
            counterpart.buffer.push(delivery);
        }
        self.maybe_checkpoint();
    }

    /// Lease sweep: expires the virtual counterpart of every stream whose
    /// client detached more than `lease_micros` ago and never returned.
    /// The expiry is logged (write-ahead) before the counterpart, the
    /// departed client's record, its subscription and its sequence state
    /// are garbage collected — the exact resources a committed relocation
    /// would have reclaimed, minus the replay (there is nobody to replay
    /// to).  Returns the effects of the sweep: metrics, and the
    /// `Unsubscribe`s that tear the departed client's delivery path down.
    pub fn expire_leases(
        &mut self,
        core: &mut BrokerCore,
        now_micros: u64,
        lease_micros: u64,
    ) -> Vec<Effect> {
        if lease_micros == 0 {
            return Vec::new();
        }
        let expired: Vec<StreamKey> = self
            .counterparts
            .iter()
            .filter(|(_, c)| now_micros.saturating_sub(c.opened_at) >= lease_micros)
            .map(|(key, _)| key.clone())
            .collect();
        let mut out = Vec::new();
        for key in expired {
            let (client, filter) = &key;
            // A client that is connected again is not expired, whatever the
            // lease says (belt and braces: a live counterpart and a
            // connected record should never coexist).
            if core.client(*client).map(|r| r.connected).unwrap_or(false) {
                continue;
            }
            self.log.append(&WalRecord::StreamExpired {
                client: *client,
                filter: filter.clone(),
            });
            let dropped = self
                .counterparts
                .remove(&key)
                .map(|c| c.buffer.len() as u64)
                .unwrap_or(0);
            out.extend(collect_subscription(core, *client, filter));
            self.leases_expired += 1;
            out.push(Effect::Incr("mobility.lease_expired"));
            out.push(Effect::Add("mobility.lease_dropped_deliveries", dropped));
        }
        if !out.is_empty() {
            self.maybe_checkpoint();
        }
        out
    }

    /// Post-processes broker output: deliveries that belong to a relocating
    /// (held) subscription are retained instead of sent.
    pub fn intercept_holding(&mut self, out: Outgoing) -> Outgoing {
        if self.holdings.is_empty() {
            return out;
        }
        let mut kept = Vec::with_capacity(out.len());
        for (node, message) in out {
            match message {
                Message::Deliver(delivery) => {
                    let key = (delivery.subscriber, delivery.filter.clone());
                    match self.holdings.get_mut(&key) {
                        Some(holding) => holding.envelopes.push(delivery.envelope),
                        None => kept.push((node, Message::Deliver(delivery))),
                    }
                }
                other => kept.push((node, other)),
            }
        }
        kept
    }

    // ------------------------------------------------------------------
    // Transitions
    // ------------------------------------------------------------------

    /// Handles the re-subscription of a roaming client at this (new) border
    /// broker: either replays locally (the client returned to the broker
    /// that holds its counterpart) or enters Holding and floods the
    /// relocation request.
    pub fn on_resubscribe(
        &mut self,
        core: &mut BrokerCore,
        client: ClientId,
        filter: Filter,
        last_seq: u64,
        from: NodeId,
    ) -> Vec<Effect> {
        let mut out = Vec::new();

        // Did this broker already serve the subscription before the client
        // disappeared?  Then it is its own "old border broker" and can
        // replay locally without any relocation round trip.
        let was_local_subscription = core.has_local_subscription(client, &filter);

        // The client is (re-)attached locally and its subscription installed
        // so that *new* notifications start flowing towards this broker.
        // The ordinary Subscribe propagation is replaced by the Relocate
        // control message below; a client returning to the broker that
        // still holds its subscription adds no second entry.
        core.handle_attach(client, from);
        core.subscribe_local(client, filter.clone());

        let key = (client, filter.clone());

        // Case 1: the client reconnected to the very broker that holds its
        // virtual counterpart — replay locally, no relocation needed.
        let counterpart = self.counterparts.remove(&key);
        if was_local_subscription || counterpart.is_some() {
            let buffer = counterpart.map(|c| c.buffer).unwrap_or_default();
            self.log.append(&WalRecord::RelocationCommit {
                client,
                filter: filter.clone(),
            });
            let replay = buffer.replay_after(last_seq);
            let next_seq = replay
                .iter()
                .map(|d| d.seq)
                .max()
                .unwrap_or(last_seq)
                .saturating_add(1);
            core.sequences_mut().fast_forward(client, &filter, next_seq);
            out.push(Effect::Add("mobility.replayed", replay.len() as u64));
            out.extend(Message::deliveries(replay).map(|m| Effect::Send(from, m)));
            self.maybe_checkpoint();
            return out;
        }

        // Case 2: genuine relocation — hold fresh notifications, look for
        // the old path.
        self.log.append(&WalRecord::RelocationBegin {
            client,
            client_node: from,
            filter: filter.clone(),
            last_seq,
        });
        let tag = self.next_timeout_tag;
        self.next_timeout_tag += 1;
        self.timeout_tags.insert(tag, key.clone());
        self.holdings.insert(
            key,
            HoldingState {
                envelopes: Vec::new(),
                client_node: from,
                last_seq,
                timeout_tag: tag,
            },
        );
        out.push(Effect::SetTimer(self.relocation_timeout, tag));

        let links = relocation_flood_links(core, &filter, None, self.scoped_flood);
        for &link in &links {
            core.note_relayed(&filter, link);
        }
        let relocate = Message::Relocate {
            client,
            filter,
            last_seq,
            new_broker: core.id(),
        };
        for link in links {
            out.push(Effect::Incr("mobility.relocate_sent"));
            out.push(Effect::Send(link, relocate.clone()));
        }
        self.maybe_checkpoint();
        out
    }

    /// Handles a relocation request travelling through the broker network:
    /// replays directly when this broker holds the counterpart, otherwise
    /// performs the junction test, re-points the delivery path, keeps the
    /// request flooding and records the replay route.
    #[allow(clippy::too_many_arguments)] // the Relocate fields plus link and clock
    pub fn on_relocate(
        &mut self,
        core: &mut BrokerCore,
        client: ClientId,
        filter: Filter,
        last_seq: u64,
        new_broker: NodeId,
        from: NodeId,
        now_micros: u64,
    ) -> Vec<Effect> {
        let mut out = Vec::new();
        let key = (client, filter.clone());

        // Case 1: this broker is the old border broker itself (it holds the
        // virtual counterpart) — it is its own junction: replay directly
        // and garbage collect.
        if self.counterparts.contains_key(&key)
            || (core.client(client).is_some_and(|r| !r.connected)
                && core.has_local_subscription(client, &filter))
        {
            out.extend(self.replay_and_collect(core, client, &filter, last_seq, from));
            return out;
        }

        // Install the subscription for the new path (without ordinary
        // propagation — the Relocate message itself propagates).
        core.route_towards(filter.clone(), from);

        // Junction test: an identical filter from a *different* link means
        // the old delivery path runs through this broker.  Section 4.1 has
        // the broker compare the re-issued subscription against its routing
        // table and advertisements; this one reads the routing table only.
        let old_links = core
            .engine()
            .table()
            .destinations_with_identical(&filter, Some(&from));
        let old_broker_links: Vec<NodeId> = old_links
            .into_iter()
            .filter(|l| core.broker_links().contains(l))
            .collect();

        if let Some(&old_link) = old_broker_links.first() {
            // This broker looks like the junction: from here on
            // notifications also flow towards the new path (the entry
            // installed above), and the buffered ones are fetched from the
            // old border broker.  The old entry goes when the old border
            // broker's teardown `Unsubscribe` arrives behind the replay —
            // and only if no other subscriber behind the old link needs it.
            out.push(Effect::Incr("mobility.junction_detected"));
            out.push(Effect::Incr("mobility.fetch_sent"));
            core.note_relayed(&filter, old_link);
            out.push(Effect::Send(
                old_link,
                Message::Fetch {
                    client,
                    filter: filter.clone(),
                    last_seq,
                    junction: core.id(),
                },
            ));
        }
        // The relocation request keeps propagating like a subscription even
        // past an apparent junction: with several clients holding identical
        // filters, the "identical filter from another link" test can point
        // away from this client's actual old path, so the flooded request
        // is what guarantees that the old border broker (which holds the
        // virtual counterpart) is always reached.  Redundant fetches and
        // replays are idempotent: whoever asks after the counterpart has
        // been collected gets nothing.
        for link in relocation_flood_links(core, &filter, Some(from), self.scoped_flood) {
            core.note_relayed(&filter, link);
            out.push(Effect::Incr("mobility.relocate_sent"));
            out.push(Effect::Send(
                link,
                Message::Relocate {
                    client,
                    filter: filter.clone(),
                    last_seq,
                    new_broker,
                },
            ));
        }
        // A replay can only come back over a link this broker sent the
        // request on: a dead end (e.g. the old border broker reached again
        // after it already replayed) needs no route.
        if !out.is_empty() {
            self.replay_routes.record(key, from, now_micros);
        }
        out
    }

    /// Handles a fetch request travelling down the old delivery path towards
    /// the old border broker.
    #[allow(clippy::too_many_arguments)] // the Fetch fields plus link and clock
    pub fn on_fetch(
        &mut self,
        core: &mut BrokerCore,
        client: ClientId,
        filter: Filter,
        last_seq: u64,
        junction: NodeId,
        from: NodeId,
        now_micros: u64,
    ) -> Vec<Effect> {
        let mut out = Vec::new();
        let key = (client, filter.clone());

        // Old border broker: replay and clean up.
        if self.counterparts.contains_key(&key) || core.has_local_subscription(client, &filter) {
            out.extend(self.replay_and_collect(core, client, &filter, last_seq, from));
            return out;
        }

        // Intermediate broker on the old path: point the delivery path
        // towards the junction as well — a dead end too, since the sender
        // counts on it — and forward the fetch towards the old border
        // broker.
        core.route_towards(filter.clone(), from);
        let old_links: Vec<NodeId> = core
            .engine()
            .table()
            .destinations_with_identical(&filter, Some(&from))
            .into_iter()
            .filter(|l| core.broker_links().contains(l))
            .collect();
        if let Some(&next) = old_links.first() {
            // The replay will travel back the way the fetch came.
            self.replay_routes.record(key, from, now_micros);
            core.note_relayed(&filter, next);
            out.push(Effect::Incr("mobility.fetch_forwarded"));
            out.push(Effect::Send(
                next,
                Message::Fetch {
                    client,
                    filter,
                    last_seq,
                    junction,
                },
            ));
        } else {
            out.push(Effect::Incr("mobility.fetch_dead_end"));
        }
        out
    }

    /// Drops every replay route recorded more than one relocation timeout
    /// before `now_micros`; the host calls this once per handled event.
    ///
    /// Exact, not a heuristic: the new border broker armed its relocation
    /// timeout before its `Relocate` left, so a replay that would still
    /// need an expired route can only reach the new border broker after the
    /// holding was flushed — where it is dropped anyway.  Brokers the scoped
    /// flood reached off the replay path never see the replay, so without
    /// this their routes would outlive the relocation.
    pub fn expire_replay_routes(&mut self, now_micros: u64) {
        self.replay_routes
            .expire(now_micros, self.relocation_timeout.as_micros());
    }

    /// Replays the virtual counterpart of `(client, filter)` towards
    /// `towards` and garbage collects every resource associated with the
    /// roaming client at this broker.  The commit is logged *before* the
    /// counterpart is dropped from memory.  The `Replay` is sent first and
    /// the teardown `Unsubscribe`s after it, so on the link back towards the
    /// new location they travel FIFO behind the replay.
    fn replay_and_collect(
        &mut self,
        core: &mut BrokerCore,
        client: ClientId,
        filter: &Filter,
        last_seq: u64,
        towards: NodeId,
    ) -> Vec<Effect> {
        self.log.append(&WalRecord::RelocationCommit {
            client,
            filter: filter.clone(),
        });
        let buffer = self
            .counterparts
            .remove(&(client, filter.clone()))
            .map(|c| c.buffer)
            .unwrap_or_default();
        let deliveries = buffer.replay_after(last_seq);
        // The old border broker may itself sit on the path between
        // producers and the new border broker (or host producers): future
        // notifications matching the subscription must keep flowing towards
        // the new location, so the delivery path is re-pointed here as
        // well.
        core.route_towards(filter.clone(), towards);
        let mut out = vec![
            Effect::Incr("mobility.replay_sent"),
            Effect::Add("mobility.replayed", deliveries.len() as u64),
            Effect::Send(
                towards,
                Message::Replay {
                    client,
                    filter: filter.clone(),
                    deliveries,
                },
            ),
        ];

        // Garbage collection: the subscription of the departed client and
        // its sequence state disappear from this broker, and the old
        // delivery path is torn down as an unsubscription would.
        out.extend(collect_subscription(core, client, filter));
        out.push(Effect::Incr("mobility.gc_old_broker"));
        self.maybe_checkpoint();
        out
    }

    /// Handles a replay travelling back towards the new border broker: the
    /// new border broker merges replayed and held-back notifications in
    /// order and releases them to the client as one batch; intermediate
    /// brokers forward along the recorded route.
    pub fn on_replay(
        &mut self,
        core: &mut BrokerCore,
        client: ClientId,
        filter: Filter,
        deliveries: Vec<Delivery>,
        _from: NodeId,
    ) -> Vec<Effect> {
        let key = (client, filter.clone());

        // New border broker: merge replayed and held-back notifications in
        // order and release them to the client.
        if let Some(holding) = self.holdings.remove(&key) {
            // The relocation settled before its timeout: reclaim the guard
            // so the tag map does not grow with every completed relocation.
            self.timeout_tags.remove(&holding.timeout_tag);
            self.log.append(&WalRecord::ReplayAck {
                client,
                filter: filter.clone(),
            });

            let client_node = match core.client(client) {
                Some(record) => record.node,
                None => {
                    // The client detached again in the meantime; buffer
                    // everything in a fresh counterpart instead.
                    for delivery in deliveries {
                        self.log.append(&WalRecord::Buffered {
                            delivery: delivery.clone(),
                        });
                        self.counterparts
                            .entry(key.clone())
                            .or_insert_with(|| Counterpart {
                                buffer: DeliveryBuffer::new(),
                                client_node: holding.client_node,
                                next_seq: 0,
                                opened_at: 0,
                            })
                            .buffer
                            .push(delivery);
                    }
                    self.maybe_checkpoint();
                    return Vec::new();
                }
            };
            let mut out = Vec::new();
            let mut batch = Vec::new();
            let mut max_seq = holding.last_seq;
            // Publications contained in the replay must not be delivered a
            // second time from the holding buffer (under flooding routing
            // the same notification reaches both the old and the new border
            // broker during the hand-over window).
            let mut replayed_publications = BTreeSet::new();
            for delivery in deliveries {
                max_seq = max_seq.max(delivery.seq);
                replayed_publications
                    .insert((delivery.envelope.publisher, delivery.envelope.publisher_seq));
                batch.push(delivery);
            }
            out.push(Effect::Add("mobility.replay_delivered", batch.len() as u64));
            // Continue the sequence numbering where the replay ended, then
            // release the held-back fresh notifications in arrival order.
            core.sequences_mut()
                .fast_forward(client, &filter, max_seq.saturating_add(1));
            for envelope in holding.envelopes {
                if replayed_publications.contains(&(envelope.publisher, envelope.publisher_seq)) {
                    out.push(Effect::Incr("mobility.held_duplicate_suppressed"));
                    continue;
                }
                let seq = core.sequences_mut().next(client, &filter);
                out.push(Effect::Incr("mobility.held_delivered"));
                batch.push(Delivery {
                    subscriber: client,
                    filter: filter.clone(),
                    seq,
                    envelope,
                });
            }
            out.extend(Message::deliveries(batch).map(|m| Effect::Send(client_node, m)));
            self.replay_routes.take(&key);
            self.maybe_checkpoint();
            return out;
        }

        // Intermediate broker: forward along the recorded route.
        if let Some(next_hop) = self.replay_routes.take(&key) {
            vec![
                Effect::Incr("mobility.replay_forwarded"),
                Effect::Send(
                    next_hop,
                    Message::Replay {
                        client,
                        filter,
                        deliveries,
                    },
                ),
            ]
        } else {
            vec![Effect::Incr("mobility.replay_dropped")]
        }
    }

    /// Relocation timeout: if the replay never arrived, flush the holding
    /// buffer so the client at least receives the fresh notifications.
    pub fn on_timeout(&mut self, core: &mut BrokerCore, tag: u64) -> Vec<Effect> {
        let Some(key) = self.timeout_tags.remove(&tag) else {
            return Vec::new();
        };
        let Some(holding) = self.holdings.remove(&key) else {
            return Vec::new(); // replay already arrived
        };
        let (client, filter) = &key;
        self.log.append(&WalRecord::ReplayAck {
            client: *client,
            filter: filter.clone(),
        });
        let Some(record) = core.client(*client) else {
            self.maybe_checkpoint();
            return Vec::new();
        };
        let client_node = record.node;
        let mut out = vec![Effect::Incr("mobility.relocation_timeout")];
        core.sequences_mut()
            .fast_forward(*client, filter, holding.last_seq.saturating_add(1));
        let mut batch = Vec::new();
        for envelope in holding.envelopes {
            let seq = core.sequences_mut().next(*client, filter);
            batch.push(Delivery {
                subscriber: *client,
                filter: filter.clone(),
                seq,
                envelope,
            });
        }
        out.extend(Message::deliveries(batch).map(|m| Effect::Send(client_node, m)));
        self.replay_routes.take(&key);
        self.maybe_checkpoint();
        out
    }

    // ------------------------------------------------------------------
    // Housekeeping
    // ------------------------------------------------------------------

    /// Durable snapshot of the machine (what a checkpoint writes):
    /// counterparts, then holdings, each in stream-key order.
    pub fn snapshot(&self) -> (Vec<StreamSnapshot>, Vec<HoldingSnapshot>) {
        let streams = self
            .counterparts
            .iter()
            .map(|((client, filter), c)| StreamSnapshot {
                client: *client,
                client_node: c.client_node,
                filter: filter.clone(),
                next_seq: c.next_seq,
                opened_at: c.opened_at,
                buffered: c.buffer.replay_after(0),
            })
            .collect();
        let holdings = self
            .holdings
            .iter()
            .map(|((client, filter), h)| HoldingSnapshot {
                client: *client,
                client_node: h.client_node,
                filter: filter.clone(),
                last_seq: h.last_seq,
            })
            .collect();
        (streams, holdings)
    }

    fn maybe_checkpoint(&mut self) {
        if self.log.wants_checkpoint() {
            let (streams, holdings) = self.snapshot();
            self.log.compact(streams, holdings, self.generation);
        }
    }
}

/// The broker links a `Relocate` request is forwarded over.
///
/// Scoped mode keeps only the links whose routing table holds an entry
/// covering the relocating filter: under every subscription-propagating
/// strategy the path back towards the old border broker always carries such
/// an entry (the original subscription, or the covering filter whose
/// propagation suppressed it), so the flood still reaches the virtual
/// counterpart while skipping subtrees that never routed the subscription.
/// Falls back to the full flood under [`RoutingStrategyKind::Flooding`]
/// (no subscription propagation, so covering entries prove nothing) and
/// whenever no covering broker link exists.
fn relocation_flood_links(
    core: &BrokerCore,
    filter: &Filter,
    except: Option<NodeId>,
    scoped: bool,
) -> Vec<NodeId> {
    let full = match except {
        Some(from) => core.broker_links_except(from),
        None => core.broker_links().to_vec(),
    };
    if !scoped || core.engine().kind() == RoutingStrategyKind::Flooding {
        return full;
    }
    let covering = core
        .engine()
        .table()
        .destinations_covering(filter, except.as_ref());
    let scoped_links: Vec<NodeId> = full
        .iter()
        .copied()
        .filter(|l| covering.contains(l))
        .collect();
    if scoped_links.is_empty() {
        full
    } else {
        scoped_links
    }
}

/// Garbage collects one subscription of a departed client at its old
/// border broker: the subscription, retracted by an ordinary
/// unsubscription from the client's node, its sequence state, and the
/// client record itself once nothing is left on it.  Returns the
/// `Unsubscribe`s the retraction propagates.
fn collect_subscription(core: &mut BrokerCore, client: ClientId, filter: &Filter) -> Vec<Effect> {
    let Some(node) = core.client(client).map(|r| r.node) else {
        return Vec::new();
    };
    let teardown = core.handle_unsubscribe(client, filter.clone(), node);
    core.sequences_mut().remove(client, filter);
    if core.local_subscriptions(client).is_empty() {
        core.remove_client(client);
    }
    teardown
        .into_iter()
        .map(|(to, message)| Effect::Send(to, message))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rebeca_broker::{BrokerRole, Envelope};
    use rebeca_filter::{Constraint, Notification};
    use rebeca_routing::RoutingStrategyKind;

    fn filter() -> Filter {
        Filter::new().with("service", Constraint::Eq("parking".into()))
    }

    fn notification(i: i64) -> Notification {
        Notification::builder()
            .attr("service", "parking")
            .attr("spot", i)
            .build()
    }

    fn core() -> BrokerCore {
        BrokerCore::new(
            NodeId(0),
            BrokerRole::Border,
            vec![NodeId(10), NodeId(11)],
            RoutingStrategyKind::Covering,
        )
    }

    fn machine() -> RelocationMachine {
        RelocationMachine::new(SimDuration::from_secs(10), HandoffLog::in_memory())
    }

    fn sends(effects: &[Effect]) -> Vec<(NodeId, Message)> {
        effects
            .iter()
            .filter_map(|e| match e {
                Effect::Send(to, m) => Some((*to, m.clone())),
                _ => None,
            })
            .collect()
    }

    /// Publishes `n` matching notifications through the core (so parked
    /// deliveries accumulate for disconnected subscribers).
    fn publish(core: &mut BrokerCore, n: u64) {
        core.handle_attach(ClientId::new(9), NodeId(101));
        for i in 0..n {
            core.handle_publish(ClientId::new(9), notification(i as i64), NodeId(101));
        }
    }

    #[test]
    fn detach_then_parked_deliveries_build_a_durable_counterpart() {
        let mut core = core();
        let mut m = machine();
        core.handle_attach(ClientId::new(1), NodeId(100));
        core.handle_subscribe(ClientId::new(1), filter(), NodeId(100));
        core.handle_detach(ClientId::new(1));
        m.on_detach(&core, ClientId::new(1), 0);
        assert_eq!(m.counterpart_count(), 1);
        assert_eq!(m.phase(ClientId::new(1), &filter()), RelocationPhase::Local);

        publish(&mut core, 3);
        m.absorb_parked(&mut core, 0);
        assert_eq!(m.buffered_deliveries(), 3);

        // The WAL alone reconstructs the same counterpart.
        let recovered = m.log().recover();
        assert_eq!(recovered.streams.len(), 1);
        assert_eq!(recovered.streams[0].buffered.len(), 3);
        assert_eq!(recovered.streams[0].client_node, NodeId(100));
    }

    #[test]
    fn resubscribe_enters_holding_and_floods_relocate() {
        let mut core = core();
        let mut m = machine();
        let effects = m.on_resubscribe(&mut core, ClientId::new(1), filter(), 5, NodeId(100));
        assert_eq!(
            m.phase(ClientId::new(1), &filter()),
            RelocationPhase::Holding
        );
        assert_eq!(m.pending_relocations(), 1);
        assert_eq!(m.timeout_tag_count(), 1);
        let sent = sends(&effects);
        assert_eq!(sent.len(), 2, "one Relocate per broker link");
        assert!(sent
            .iter()
            .all(|(_, msg)| matches!(msg, Message::Relocate { last_seq: 5, .. })));
        assert!(effects.iter().any(|e| matches!(e, Effect::SetTimer(_, _))));
    }

    /// Every broker a `Relocate` or `Fetch` reaches routes the filter back
    /// towards its sender, which records that in its held table: the
    /// relocation's requests are its propagation.
    #[test]
    fn relayed_requests_are_held_and_routed_back_even_at_a_dead_end() {
        let mut core = core();
        let mut m = machine();
        m.on_resubscribe(&mut core, ClientId::new(1), filter(), 5, NodeId(100));
        for link in [NodeId(10), NodeId(11)] {
            assert_eq!(core.engine().held().filters_for(&link), vec![&filter()]);
        }

        // A fetch reaching a broker with no old path to follow stops there,
        // but still routes the filter back the way it came.
        let mut dead_end = self::core();
        let effects = m.on_fetch(
            &mut dead_end,
            ClientId::new(1),
            filter(),
            5,
            NodeId(10),
            NodeId(10),
            0,
        );
        assert!(sends(&effects).is_empty());
        assert!(effects
            .iter()
            .any(|e| matches!(e, Effect::Incr("mobility.fetch_dead_end"))));
        assert!(dead_end
            .engine()
            .table()
            .contains_entry(&filter(), &NodeId(10)));
    }

    #[test]
    fn replay_merge_settles_holding_and_reclaims_the_timeout_tag() {
        let mut core = core();
        let mut m = machine();
        m.on_resubscribe(&mut core, ClientId::new(1), filter(), 0, NodeId(100));
        assert_eq!(m.timeout_tag_count(), 1);

        let deliveries: Vec<Delivery> = (1..=3)
            .map(|seq| Delivery {
                subscriber: ClientId::new(1),
                filter: filter(),
                seq,
                envelope: Envelope::new(ClientId::new(9), seq, notification(seq as i64)),
            })
            .collect();
        let effects = m.on_replay(
            &mut core,
            ClientId::new(1),
            filter(),
            deliveries,
            NodeId(10),
        );
        // Settled: no pending relocation, and crucially no leaked guard.
        assert_eq!(m.pending_relocations(), 0);
        assert_eq!(m.timeout_tag_count(), 0, "tag must be reclaimed on merge");
        assert_eq!(m.phase(ClientId::new(1), &filter()), RelocationPhase::Local);
        // The replay reaches the client as one batch message.
        let sent = sends(&effects);
        assert_eq!(sent.len(), 1);
        assert!(
            matches!(&sent[0].1, Message::DeliverBatch(ds) if ds.len() == 3),
            "replay must travel as a batch, got {:?}",
            sent[0].1
        );
    }

    #[test]
    fn timeout_flushes_holding_and_late_replay_is_dropped() {
        let mut core = core();
        let mut m = machine();
        let effects = m.on_resubscribe(&mut core, ClientId::new(1), filter(), 0, NodeId(100));
        let tag = effects
            .iter()
            .find_map(|e| match e {
                Effect::SetTimer(_, tag) => Some(*tag),
                _ => None,
            })
            .expect("timer armed");
        let held = Envelope::new(ClientId::new(9), 1, notification(1));
        let kept = m.intercept_holding(vec![(
            NodeId(100),
            Message::Deliver(Delivery {
                subscriber: ClientId::new(1),
                filter: filter(),
                seq: 1,
                envelope: held,
            }),
        )]);
        assert!(kept.is_empty(), "held deliveries are retained");

        let effects = m.on_timeout(&mut core, tag);
        assert_eq!(m.pending_relocations(), 0);
        assert_eq!(m.timeout_tag_count(), 0);
        let sent = sends(&effects);
        assert_eq!(sent.len(), 1, "the held envelope is flushed to the client");
        // A replay arriving after the flush is dropped, not re-held.
        let effects = m.on_replay(
            &mut core,
            ClientId::new(1),
            filter(),
            Vec::new(),
            NodeId(10),
        );
        assert!(sends(&effects).is_empty());
        assert!(effects.contains(&Effect::Incr("mobility.replay_dropped")));
    }

    #[test]
    fn replay_routes_expire_strictly_after_the_timeout_unless_re_recorded() {
        let mut core = core();
        let mut m = RelocationMachine::new(SimDuration::from_micros(100), HandoffLog::in_memory());
        let (c1, c2) = (ClientId::new(1), ClientId::new(2));
        let awaiting =
            |m: &RelocationMachine, c| m.phase(c, &filter()) == RelocationPhase::AwaitingReplay;
        // Link 10 brings the Relocate, link 11 takes it on: routes noted.
        m.on_relocate(&mut core, c1, filter(), 0, NodeId(10), NodeId(10), 0);
        m.on_relocate(&mut core, c2, filter(), 0, NodeId(10), NodeId(10), 50);
        // A later flood of c1 re-records its route.
        m.on_relocate(&mut core, c1, filter(), 0, NodeId(10), NodeId(10), 60);

        m.expire_replay_routes(100);
        m.expire_replay_routes(101);
        assert!(
            awaiting(&m, c1),
            "re-recorded at 60, not expired by the entry of 0"
        );
        assert!(awaiting(&m, c2), "exactly one timeout old is not expired");
        m.expire_replay_routes(151);
        assert!(awaiting(&m, c1));
        assert!(!awaiting(&m, c2));
        m.expire_replay_routes(161);
        assert!(!awaiting(&m, c1));

        // The old border broker replays straight back: no route.  Behind
        // the replay, on the same link, its teardown retracts the
        // subscription it once forwarded there; link 11 keeps routing
        // towards it, as the client now sits behind link 10.
        let c3 = ClientId::new(3);
        core.handle_attach(c3, NodeId(100));
        core.handle_subscribe(c3, filter(), NodeId(100));
        core.handle_detach(c3);
        m.on_detach(&core, c3, 200);
        let effects = m.on_relocate(&mut core, c3, filter(), 0, NodeId(10), NodeId(10), 200);
        assert!(matches!(
            sends(&effects)[..],
            [
                (NodeId(10), Message::Replay { .. }),
                (NodeId(10), Message::Unsubscribe { .. })
            ]
        ));
        assert_eq!(m.phase(c3, &filter()), RelocationPhase::Local);

        // A dead end (no link to pass the request on) records none either.
        let mut leaf = BrokerCore::new(
            NodeId(0),
            BrokerRole::Border,
            vec![NodeId(10)],
            RoutingStrategyKind::Covering,
        );
        let effects = m.on_relocate(&mut leaf, c1, filter(), 0, NodeId(10), NodeId(10), 300);
        assert!(sends(&effects).is_empty());
        assert_eq!(m.phase(c1, &filter()), RelocationPhase::Local);
    }

    #[test]
    fn recover_rebuilds_counterparts_and_core_state() {
        let backend = crate::log::MemoryBackend::new();
        let mut core1 = core();
        let mut m = RelocationMachine::new(
            SimDuration::from_secs(10),
            HandoffLog::with_backend(Box::new(backend.clone())),
        );
        core1.handle_attach(ClientId::new(1), NodeId(100));
        core1.handle_subscribe(ClientId::new(1), filter(), NodeId(100));
        core1.handle_detach(ClientId::new(1));
        m.on_detach(&core1, ClientId::new(1), 0);
        publish(&mut core1, 4);
        m.absorb_parked(&mut core1, 0);

        // "Crash": fresh core + machine recovered from the surviving WAL.
        let mut core2 = core();
        let (recovered, tags) = RelocationMachine::recover(
            SimDuration::from_secs(10),
            HandoffLog::with_backend(Box::new(backend)),
            &mut core2,
        );
        assert!(tags.is_empty(), "no holdings were open");
        assert_eq!(recovered.counterpart_count(), 1);
        assert_eq!(recovered.buffered_deliveries(), 4);
        let record = core2
            .client(ClientId::new(1))
            .expect("client reconstructed");
        assert!(!record.connected);
        assert_eq!(record.node, NodeId(100));
        assert!(core2.has_local_subscription(ClientId::new(1), &filter()));
        // The sequence watermark continues where the crashed broker left.
        assert_eq!(core2.sequences().peek(ClientId::new(1), &filter()), 5);
    }

    #[test]
    fn recovery_after_a_checkpoint_bumps_the_generation() {
        let backend = crate::log::MemoryBackend::new();
        let mut core1 = core();
        let mut m = RelocationMachine::new(
            SimDuration::from_secs(10),
            HandoffLog::with_backend(Box::new(backend.clone())).checkpoint_every(2),
        );
        // A full relocation commits at this (old border) broker.
        core1.handle_attach(ClientId::new(1), NodeId(100));
        core1.handle_subscribe(ClientId::new(1), filter(), NodeId(100));
        core1.handle_detach(ClientId::new(1));
        m.on_detach(&core1, ClientId::new(1), 0);
        m.on_relocate(
            &mut core1,
            ClientId::new(1),
            filter(),
            0,
            NodeId(10),
            NodeId(10),
            0,
        );
        // Enough later activity (a second detaching client) to trigger a
        // compaction checkpoint *after* the commit record.
        core1.handle_attach(ClientId::new(2), NodeId(102));
        core1.handle_subscribe(ClientId::new(2), filter(), NodeId(102));
        core1.handle_detach(ClientId::new(2));
        m.on_detach(&core1, ClientId::new(2), 0);
        publish(&mut core1, 3);
        m.absorb_parked(&mut core1, 0);
        let recovered_raw = m.log().recover();
        assert!(
            recovered_raw.records_read < 5,
            "compaction must have collapsed the history (read {} records)",
            recovered_raw.records_read
        );

        // First restart: the generation moves past the crashed
        // incarnation's tag range.  The log carries no routing state, so
        // the commit's re-point is not re-installed: the neighbours hold it.
        let mut core2 = core();
        let (m2, _) = RelocationMachine::recover(
            SimDuration::from_secs(10),
            HandoffLog::with_backend(Box::new(backend.clone())).checkpoint_every(2),
            &mut core2,
        );
        assert!(!core2
            .engine()
            .table()
            .contains_entry(&filter(), &NodeId(10)));
        assert_eq!(m2.generation(), 1);

        // Second restart from the same log: strictly newer generation, so
        // tags can never alias across incarnations.
        let mut core3 = core();
        let (m3, _) = RelocationMachine::recover(
            SimDuration::from_secs(10),
            HandoffLog::with_backend(Box::new(backend)).checkpoint_every(2),
            &mut core3,
        );
        assert_eq!(m3.generation(), 2);
        let effects = {
            let mut m3 = m3;
            m3.on_resubscribe(&mut core3, ClientId::new(9), filter(), 0, NodeId(100))
        };
        let tag = effects
            .iter()
            .find_map(|e| match e {
                Effect::SetTimer(_, tag) => Some(*tag),
                _ => None,
            })
            .expect("timer armed");
        assert_eq!(tag >> 32, 2, "tags are namespaced by generation");
    }

    #[test]
    fn lease_sweep_expires_stale_counterparts_and_reclaims_core_state() {
        let mut core = core();
        let mut m = machine();
        core.handle_attach(ClientId::new(1), NodeId(100));
        core.handle_subscribe(ClientId::new(1), filter(), NodeId(100));
        core.handle_detach(ClientId::new(1));
        m.on_detach(&core, ClientId::new(1), 1_000_000);
        publish(&mut core, 3);
        m.absorb_parked(&mut core, 1_500_000);
        assert_eq!(m.counterpart_count(), 1);

        // Within the lease: nothing happens.
        assert!(m.expire_leases(&mut core, 5_000_000, 10_000_000).is_empty());
        assert_eq!(m.counterpart_count(), 1);
        // Lease of zero disables the sweep entirely.
        assert!(m.expire_leases(&mut core, u64::MAX, 0).is_empty());

        // Past the lease: the counterpart, the client record, its routing
        // entry and its sequence state all go away, write-ahead logged.
        let effects = m.expire_leases(&mut core, 12_000_000, 10_000_000);
        assert!(effects.contains(&Effect::Incr("mobility.lease_expired")));
        assert!(effects.contains(&Effect::Add("mobility.lease_dropped_deliveries", 3)));
        assert_eq!(m.counterpart_count(), 0);
        assert_eq!(m.leases_expired(), 1);
        assert!(core.client(ClientId::new(1)).is_none());
        assert!(!core
            .engine()
            .table()
            .contains_entry(&filter(), &NodeId(100)));

        // The WAL folds to an empty stream set: a restart after the sweep
        // does not resurrect the expired counterpart.
        let recovered = m.log().recover();
        assert!(recovered.streams.is_empty());

        // Idempotent: a second sweep finds nothing.
        assert!(m
            .expire_leases(&mut core, 13_000_000, 10_000_000)
            .is_empty());
    }

    #[test]
    fn checkpoint_compaction_keeps_recovery_equivalent() {
        let backend = crate::log::MemoryBackend::new();
        let mut core1 = core();
        let mut m = RelocationMachine::new(
            SimDuration::from_secs(10),
            HandoffLog::with_backend(Box::new(backend.clone())).checkpoint_every(4),
        );
        core1.handle_attach(ClientId::new(1), NodeId(100));
        core1.handle_subscribe(ClientId::new(1), filter(), NodeId(100));
        core1.handle_detach(ClientId::new(1));
        m.on_detach(&core1, ClientId::new(1), 0);
        publish(&mut core1, 10);
        m.absorb_parked(&mut core1, 0);

        let recovered = HandoffLog::with_backend(Box::new(backend.clone())).recover();
        assert!(recovered.records_read < 11, "the log was compacted");
        assert_eq!(recovered.streams.len(), 1);
        assert_eq!(recovered.streams[0].buffered.len(), 10);
    }
}
