//! The mobility-aware Rebeca broker: the adapter that binds the extracted
//! mobility engine to `BrokerCore` — and, today, more than an adapter.
//! Besides the demultiplexing described below it carries the
//! location-dependent subscriptions, the history-replay sessions of
//! `subscribe_since`, retention recording and the trace-span plumbing.
//!
//! [`MobileBroker`] wraps the static [`BrokerCore`] of `rebeca-broker` and
//! wires it to the two mobility layers:
//!
//! * **Physical mobility** (Section 4 of the paper) is implemented by the
//!   [`RelocationMachine`] of `rebeca-mobility`: virtual counterparts with a
//!   write-ahead [`HandoffLog`], the reactive relocation protocol (junction
//!   detection, fetch, batched replay, in-order merge at the new border
//!   broker, garbage collection at the old one) and crash recovery.  This
//!   adapter only demultiplexes messages into machine transitions and
//!   interprets the returned [`Effect`]s against the simulator's
//!   [`Context`] (sends, timers, metrics).
//! * **Logical mobility** (Section 5): location-dependent subscriptions
//!   whose per-hop filters are instantiated from `ploc(location, q_hop)`
//!   according to an [`AdaptivityPlan`], and the location-update protocol
//!   that swaps those filters hop by hop when the client moves.
//!
//! Notifications are routed the moment they arrive, and no layer may hold
//! them back: the relocation protocol relies on per-link FIFO order between
//! a notification and the `Relocate`/`Fetch`/`Replay` messages chasing it
//! (Section 2.1's link contract).
//!
//! On top of the mobility layers, the broker optionally keeps a
//! **retention store** ([`rebeca_retain::RetentionStore`]) of the
//! publications its *local* publishers issued (origin-broker retention:
//! exactly one broker retains each publication).  A time-aware
//! subscription ([`Message::SubscribeSince`]) installs the live
//! subscription and opens a short *history session*: the border broker
//! serves its own retained slice, floods a [`Message::HistoryFetch`]
//! hop by hop, gathers [`Message::HistoryReplay`] slices routed back
//! along reverse-path pointers, holds concurrent live deliveries, and on
//! the gather timeout ships one time-ordered, duplicate-free
//! [`Message::DeliverBatch`] — missed history exactly once, merged in
//! order with live traffic.  Counterparts of clients that never
//! reattach are reclaimed by a lease sweep
//! ([`BrokerConfig::counterpart_lease`]).
//!
//! All control traffic uses the ordinary [`Message`] vocabulary and travels
//! over the ordinary broker links ("pub/sub adherence").

use std::collections::{BTreeMap, BTreeSet};

use rebeca_broker::{
    BrokerCore, BrokerRole, ClientId, Delivery, Envelope, Message, SubscriptionId,
};
use rebeca_filter::{Filter, LocationDependentFilter};
use rebeca_location::{AdaptivityPlan, LocationId, MovementGraph};
use rebeca_mobility::{
    Effect, HandoffLog, PersistenceConfig, RelocationMachine, RelocationPhase,
    DEFAULT_CHECKPOINT_EVERY,
};
use rebeca_obs::SpanRecord;
use rebeca_retain::{RetentionConfig, RetentionStore};
use rebeca_routing::RoutingStrategyKind;
use rebeca_sim::{Context, Incoming, Node, NodeId, SimDuration, SimTime};

/// Histogram name under which relocation hand-off latencies (ReSubscribe
/// hold to replay settle, in microseconds) are recorded.
pub const HANDOFF_LATENCY_HISTOGRAM: &str = "mobility.handoff_latency_micros";

/// Timer tag reserved for the periodic counterpart-lease sweep (relocation
/// timeouts use tags counted up from zero, so the top of the range never
/// collides).
const LEASE_SWEEP_TIMER_TAG: u64 = u64::MAX - 1;

/// History-session gather timers count up from here.  Relocation timeout
/// tags are `generation << 32 | counter` and a broker would need four
/// billion incarnations to reach this range.
const HISTORY_TIMER_BASE: u64 = 0xFFFF_FFFE_0000_0000;

/// One open history session at the border broker that accepted a
/// [`Message::SubscribeSince`]: retained slices gathered so far plus the
/// live deliveries held back until the merge.
#[derive(Debug, Clone)]
struct HistorySession {
    /// The client node the merged batch is shipped to.
    client_node: NodeId,
    /// Lower bound of the requested time window (micros).
    since_micros: u64,
    /// Last delivery sequence number the client saw for this subscription;
    /// the merged batch continues at `last_seq + 1`.
    last_seq: u64,
    /// Retained entries gathered so far: `(ts_micros, envelope)`.
    entries: Vec<(u64, Envelope)>,
    /// Live deliveries intercepted while the session was open.
    held: Vec<Envelope>,
}

/// Per-broker state of one location-dependent subscription.
#[derive(Debug, Clone)]
struct LocSubState {
    /// The link pointing towards the consumer (a client node at the border
    /// broker, a broker link elsewhere).
    towards_consumer: NodeId,
    /// Hop distance from the consumer's border broker (0 at that broker).
    hop: usize,
    /// The subscription template with its `myloc` markers.
    template: LocationDependentFilter,
    /// The adaptivity plan assigning uncertainty steps to hops.
    plan: AdaptivityPlan,
    /// The consumer's last known location.
    location: LocationId,
    /// The currently installed instantiation of the template at this hop.
    current_filter: Filter,
}

/// Configuration shared by all brokers of a deployment.
///
/// The struct is `#[non_exhaustive]`: build it with
/// [`BrokerConfig::default`] and the `with_*` setters (or mutate the public
/// fields on a default instance) so future fields are not a breaking change.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct BrokerConfig {
    /// Routing strategy used by the static routing engine.
    pub strategy: RoutingStrategyKind,
    /// The movement graph over which `ploc` is evaluated (the location model
    /// is deployment-wide configuration).
    pub movement_graph: MovementGraph,
    /// How long the new border broker waits for a replay before it flushes
    /// its holding buffer anyway (a safety valve; the paper notes that
    /// buffering approaches guarantee completeness only "within the
    /// boundaries of time and/or space limitations").
    pub relocation_timeout: SimDuration,
    /// Where the per-broker write-ahead handoff logs live.
    pub persistence: PersistenceConfig,
    /// Records between WAL compaction checkpoints (0 disables compaction).
    pub wal_checkpoint_every: usize,
    /// Scope relocation floods to broker links holding a covering routing
    /// entry (the default).  Disable only as an instrumentation baseline:
    /// unscoped floods send `Relocate` over every broker link, as the plain
    /// Section 4 protocol does.
    pub scoped_relocation: bool,
    /// When set, the broker retains the publications of its local
    /// publishers in a segment-rotated [`RetentionStore`] and serves
    /// time-aware subscriptions ([`Message::SubscribeSince`]) from it.
    /// `None` (the default) disables retention: `SubscribeSince` still
    /// installs the live subscription, but no history is replayed from
    /// this broker.
    pub retention: Option<RetentionConfig>,
    /// When set, counterparts whose client never reattaches are expired
    /// after this lease: their buffered deliveries, routing entries and
    /// WAL streams are reclaimed by a periodic sweep.  `None` (the
    /// default) keeps counterparts forever, as the plain Section 4
    /// protocol does.
    pub counterpart_lease: Option<SimDuration>,
    /// Trace-sampling rate in parts per 65536 (see
    /// [`rebeca_obs::rate_per_64k`]).  Sampling is a deterministic hash of
    /// `(publisher, publisher_seq)` — every broker, on every driver, makes
    /// the same decision for the same publication.  0 (the default)
    /// disables tracing entirely; the hot path then takes no allocation.
    pub trace_sample_per_64k: u32,
}

impl Default for BrokerConfig {
    fn default() -> Self {
        Self {
            strategy: RoutingStrategyKind::Covering,
            movement_graph: MovementGraph::paper_example(),
            relocation_timeout: SimDuration::from_secs(10),
            persistence: PersistenceConfig::InMemory,
            wal_checkpoint_every: DEFAULT_CHECKPOINT_EVERY,
            scoped_relocation: true,
            retention: None,
            counterpart_lease: None,
            trace_sample_per_64k: 0,
        }
    }
}

impl BrokerConfig {
    /// Sets the routing strategy.
    pub fn with_strategy(mut self, strategy: RoutingStrategyKind) -> Self {
        self.strategy = strategy;
        self
    }

    /// Sets the movement graph over which `ploc` is evaluated.
    pub fn with_movement_graph(mut self, graph: MovementGraph) -> Self {
        self.movement_graph = graph;
        self
    }

    /// Sets the holding-buffer safety-valve timeout of the relocation
    /// protocol.
    pub fn with_relocation_timeout(mut self, timeout: SimDuration) -> Self {
        self.relocation_timeout = timeout;
        self
    }

    /// Sets where the per-broker write-ahead handoff logs live.
    pub fn with_persistence(mut self, persistence: PersistenceConfig) -> Self {
        self.persistence = persistence;
        self
    }

    /// Sets the number of WAL records between compaction checkpoints
    /// (0 disables compaction).
    pub fn with_wal_checkpoint_every(mut self, records: usize) -> Self {
        self.wal_checkpoint_every = records;
        self
    }

    /// Enables or disables covering-scoped relocation floods.
    pub fn with_scoped_relocation(mut self, scoped: bool) -> Self {
        self.scoped_relocation = scoped;
        self
    }

    /// Sets (or, with `None`, disables) retained-publication storage and
    /// time-aware subscription replay.
    pub fn with_retention(mut self, retention: Option<RetentionConfig>) -> Self {
        self.retention = retention;
        self
    }

    /// Sets (or, with `None`, disables) the counterpart lease after which
    /// streams of clients that never reattach are reclaimed.
    pub fn with_counterpart_lease(mut self, lease: Option<SimDuration>) -> Self {
        self.counterpart_lease = lease;
        self
    }

    /// Sets the trace-sampling rate in parts per 65536 (0 disables
    /// tracing; [`rebeca_obs::rate_per_64k`] converts a fraction).
    pub fn with_trace_sampling(mut self, rate_per_64k: u32) -> Self {
        self.trace_sample_per_64k = rate_per_64k;
        self
    }
}

/// A Rebeca broker extended with the paper's mobility support.
#[derive(Debug, Clone)]
pub struct MobileBroker {
    core: BrokerCore,
    config: BrokerConfig,
    /// The extracted relocation engine (state machine + write-ahead log).
    machine: RelocationMachine,
    /// Location-dependent subscription state per subscription id.
    loc_subs: BTreeMap<SubscriptionId, LocSubState>,
    /// Streams currently held at this (new border) broker and when the hold
    /// began — settling them feeds the hand-off latency histogram.  A plain
    /// vector: relocations in flight at one broker are few.
    holding_since: Vec<((ClientId, Filter), SimTime)>,
    /// When this broker last compacted its WAL (observed via the log's
    /// checkpoint counter; `None` until the first compaction).
    last_checkpoint_at: Option<SimTime>,
    /// WAL lifetime-append count at the last observation — diffed after
    /// every event to journal `wal.append` without touching the log's
    /// append path.
    wal_appends_seen: u64,
    /// WAL checkpoint count at the last observation.
    wal_checkpoints_seen: u64,
    /// Set by [`MobileBroker::recover`]; the first handled event journals
    /// it as a `wal.recovered` event, plus `retain.reset` when retention is
    /// configured (a restarted node has no live metrics context at
    /// construction time).
    recovery_note: Option<String>,
    /// Retained publications of this broker's local publishers
    /// (`None` when [`BrokerConfig::retention`] is unset).
    retention: Option<RetentionStore>,
    /// Open history sessions at this (border) broker, keyed by stream.
    history_sessions: BTreeMap<(ClientId, Filter), HistorySession>,
    /// Reverse-path pointers for history replays travelling back to the
    /// border broker that flooded the fetch (mirrors the relocation
    /// machine's replay routes; latest fetch wins).
    history_routes: BTreeMap<(ClientId, Filter), NodeId>,
    /// Next history gather-timer tag (counts up from
    /// [`HISTORY_TIMER_BASE`]).
    next_history_tag: u64,
    /// Session keys by live gather-timer tag; a tag missing here fired
    /// after its session already closed.
    history_tags: BTreeMap<u64, (ClientId, Filter)>,
    /// Whether a lease-sweep timer is currently armed.
    lease_sweep_armed: bool,
    /// Trace ids of sampled relocations in flight at this broker, learned
    /// from the protocol messages that carry `last_seq` (ReSubscribe,
    /// Relocate, Fetch) and consumed when the Replay — which carries no
    /// `last_seq` to re-derive the id from — passes through or settles.
    relocation_traces: BTreeMap<(ClientId, Filter), u64>,
    /// Nonce for span ids minted at this layer (replay/merge stitching).
    /// The high bit is set on use so the ids never collide with the
    /// wrapped [`BrokerCore`]'s own nonce space.
    trace_nonce: u64,
}

impl MobileBroker {
    /// Creates a mobility-aware broker with a fresh in-memory handoff log.
    pub fn new(
        id: NodeId,
        role: BrokerRole,
        broker_links: Vec<NodeId>,
        config: BrokerConfig,
    ) -> Self {
        let log = HandoffLog::in_memory().checkpoint_every(config.wal_checkpoint_every);
        Self::with_log(id, role, broker_links, config, log)
    }

    /// Creates a mobility-aware broker over an explicit handoff log (the
    /// deployment facade passes per-broker logs whose backends it keeps
    /// handles to, so the "disk" survives a broker crash).
    pub fn with_log(
        id: NodeId,
        role: BrokerRole,
        broker_links: Vec<NodeId>,
        config: BrokerConfig,
        log: HandoffLog,
    ) -> Self {
        let machine = RelocationMachine::new(config.relocation_timeout, log);
        let core = BrokerCore::new(id, role, broker_links, config.strategy);
        Self::assemble(core, machine, config, None)
    }

    /// Restarts a broker from its write-ahead handoff log: the machine and
    /// the mobility-relevant parts of the static broker (disconnected
    /// client records, their routing entries, sequence watermarks, buffered
    /// counterparts) are reconstructed exactly.  Returns the broker plus
    /// the timer tags of recovered relocation holdings; the caller must
    /// re-arm each with the configured relocation timeout.
    pub fn recover(
        id: NodeId,
        role: BrokerRole,
        broker_links: Vec<NodeId>,
        config: BrokerConfig,
        log: HandoffLog,
    ) -> (Self, Vec<u64>) {
        let mut core = BrokerCore::new(id, role, broker_links, config.strategy);
        let (machine, tags) = RelocationMachine::recover(config.relocation_timeout, log, &mut core);
        let recovery_note = format!(
            "broker={id} generation={} wal_depth={} rearmed_holdings={}",
            machine.generation(),
            machine.log().depth(),
            tags.len()
        );
        (
            Self::assemble(core, machine, config, Some(recovery_note)),
            tags,
        )
    }

    /// Builds a broker around a static core and a relocation machine, fresh
    /// or recovered — the one place the broker's fields are spelled out.
    fn assemble(
        mut core: BrokerCore,
        mut machine: RelocationMachine,
        config: BrokerConfig,
        recovery_note: Option<String>,
    ) -> Self {
        machine.set_scoped_flood(config.scoped_relocation);
        let wal_appends_seen = machine.log().appends_total();
        let wal_checkpoints_seen = machine.log().checkpoints_total();
        // Retention is in-memory per incarnation: a restarted broker comes
        // back with an empty store (the WAL covers counterpart streams, not
        // retained history — a documented scope bound).  `note_wal` reports
        // the reset on the first handled event.
        let retention = config.retention.clone().map(RetentionStore::new);
        core.set_record_published(retention.is_some());
        core.set_trace_sampling(config.trace_sample_per_64k);
        Self {
            core,
            config,
            machine,
            loc_subs: BTreeMap::new(),
            holding_since: Vec::new(),
            last_checkpoint_at: None,
            wal_appends_seen,
            wal_checkpoints_seen,
            recovery_note,
            retention,
            history_sessions: BTreeMap::new(),
            history_routes: BTreeMap::new(),
            next_history_tag: HISTORY_TIMER_BASE,
            history_tags: BTreeMap::new(),
            lease_sweep_armed: false,
            relocation_traces: BTreeMap::new(),
            trace_nonce: 0,
        }
    }

    /// Read access to the wrapped static broker.
    pub fn core(&self) -> &BrokerCore {
        &self.core
    }

    /// The configuration the broker was created with.
    pub fn config(&self) -> &BrokerConfig {
        &self.config
    }

    /// Read access to the relocation engine.
    pub fn machine(&self) -> &RelocationMachine {
        &self.machine
    }

    /// Number of `(client, filter)` streams currently buffered by virtual
    /// counterparts at this broker.
    pub fn counterpart_count(&self) -> usize {
        self.machine.counterpart_count()
    }

    /// Total number of deliveries currently buffered by virtual counterparts.
    pub fn buffered_deliveries(&self) -> usize {
        self.machine.buffered_deliveries()
    }

    /// Number of relocations currently waiting for their replay at this
    /// broker.
    pub fn pending_relocations(&self) -> usize {
        self.machine.pending_relocations()
    }

    /// Number of live relocation-timeout guards (zero once every relocation
    /// has settled — guards of completed relocations are reclaimed, not
    /// leaked).
    pub fn timeout_tag_count(&self) -> usize {
        self.machine.timeout_tag_count()
    }

    /// The relocation phase of a stream at this broker.
    pub fn relocation_phase(&self, client: ClientId, filter: &Filter) -> RelocationPhase {
        self.machine.phase(client, filter)
    }

    /// Number of location-dependent subscriptions installed at this broker.
    pub fn loc_sub_count(&self) -> usize {
        self.loc_subs.len()
    }

    /// The currently installed filter for a location-dependent subscription,
    /// if this broker participates in it.
    pub fn loc_sub_filter(&self, sub_id: SubscriptionId) -> Option<&Filter> {
        self.loc_subs.get(&sub_id).map(|s| &s.current_filter)
    }

    /// The consumer location this broker last recorded for a
    /// location-dependent subscription.
    pub fn loc_sub_location(&self, sub_id: SubscriptionId) -> Option<LocationId> {
        self.loc_subs.get(&sub_id).map(|s| s.location)
    }

    /// Number of entries in the content-based routing table.
    pub fn routing_entries(&self) -> usize {
        self.core.engine().table_size()
    }

    /// Number of subscription subgroups (distinct filters) in the routing
    /// table; `routing_entries() / routing_subgroups()` is the table's
    /// compaction ratio.
    pub fn routing_subgroups(&self) -> usize {
        self.core.engine().subgroup_count()
    }

    /// When this broker last compacted its WAL (`None` until the first
    /// compaction of this incarnation).
    pub fn last_checkpoint_at(&self) -> Option<SimTime> {
        self.last_checkpoint_at
    }

    /// Read access to the retention store, when retention is configured.
    pub fn retention(&self) -> Option<&RetentionStore> {
        self.retention.as_ref()
    }

    /// Number of publications currently retained at this broker.
    pub fn retained_publications(&self) -> u64 {
        self.retention
            .as_ref()
            .map_or(0, RetentionStore::total_records)
    }

    /// Number of retention segments (archived + live) at this broker.
    pub fn retained_segments(&self) -> u64 {
        self.retention
            .as_ref()
            .map_or(0, RetentionStore::segment_count)
    }

    /// Timestamp (micros) of the oldest retained publication, if any.
    pub fn oldest_retained_ts(&self) -> Option<u64> {
        self.retention.as_ref().and_then(RetentionStore::oldest_ts)
    }

    /// Number of counterpart streams expired by the lease sweep over this
    /// broker incarnation's lifetime.
    pub fn expired_leases(&self) -> u64 {
        self.machine.leases_expired()
    }

    /// Number of history sessions currently gathering retained slices at
    /// this broker.
    pub fn open_history_sessions(&self) -> usize {
        self.history_sessions.len()
    }

    // ------------------------------------------------------------------
    // Observability
    // ------------------------------------------------------------------

    /// Starts the hand-off latency clock for a stream that entered a
    /// holding phase with this ReSubscribe, and journals the transition.
    fn note_resubscribed(
        &mut self,
        client: ClientId,
        filter: Filter,
        ctx: &mut Context<'_, Message>,
    ) {
        let phase = self.machine.phase(client, &filter);
        if !matches!(
            phase,
            RelocationPhase::Holding | RelocationPhase::AwaitingReplay
        ) {
            return;
        }
        let key = (client, filter);
        if !self.holding_since.iter().any(|(k, _)| *k == key) {
            if ctx.metrics().journal_enabled() {
                let now = ctx.now();
                let detail = format!("broker={} client={} phase={phase:?}", ctx.self_id(), key.0);
                ctx.metrics()
                    .record_event(now, "relocation.holding", detail);
            }
            let now = ctx.now();
            self.holding_since.push((key, now));
        }
    }

    /// Settles the hand-off latency clock for streams that left their
    /// holding phase: records the hold duration into the
    /// [`HANDOFF_LATENCY_HISTOGRAM`] and journals the transition under
    /// `kind`.
    ///
    /// `only` scopes the phase re-check to one client's streams — the
    /// per-replay path passes the replayed client so thousands of
    /// concurrent relocations do not turn each settle into a full
    /// phase-probe sweep of every held stream (`phase` walks the machine's
    /// relocation map with a filter comparison; the guard below is an
    /// integer compare).  `None` sweeps everything, for the timeout-flush
    /// path where the machine may have flushed arbitrary streams.
    fn note_settled(
        &mut self,
        ctx: &mut Context<'_, Message>,
        kind: &'static str,
        only: Option<ClientId>,
    ) {
        if self.holding_since.is_empty() {
            return;
        }
        let now = ctx.now();
        let mut settled = Vec::new();
        self.holding_since.retain(|(key, since)| {
            if only.is_some_and(|c| c != key.0) {
                return true;
            }
            let phase = self.machine.phase(key.0, &key.1);
            if matches!(
                phase,
                RelocationPhase::Holding | RelocationPhase::AwaitingReplay
            ) {
                true
            } else {
                settled.push((key.clone(), *since));
                false
            }
        });
        for (key, since) in settled {
            let client = key.0;
            let latency = now.since(since).as_micros();
            ctx.metrics().observe(HANDOFF_LATENCY_HISTOGRAM, latency);
            if ctx.metrics().journal_enabled() {
                let detail = format!(
                    "broker={} client={client} latency_micros={latency}",
                    ctx.self_id()
                );
                ctx.metrics().record_event(now, kind, detail);
            }
            // The hold span covers the buffering window at this (new
            // border) broker, nested under its own resubscribe span.
            if let Some(trace_id) = self.relocation_traces.remove(&key) {
                if ctx.metrics().span_enabled() {
                    let me = ctx.self_id().index() as u64;
                    Self::record_span(
                        ctx,
                        trace_id,
                        rebeca_obs::phase_span_id(trace_id, me, "hold"),
                        rebeca_obs::phase_span_id(trace_id, me, "relocation.resubscribe"),
                        "hold",
                        format!("client={client} latency_micros={latency}"),
                        since.as_micros(),
                    );
                }
            }
        }
    }

    /// Diffs the WAL's lifetime counters against the last observation and
    /// journals `wal.append` / `wal.checkpoint` / `wal.recovered` (and
    /// `retain.reset`) events.
    /// Called once per handled event: the steady-state cost is two integer
    /// compares, so the notification hot path stays flat.
    fn note_wal(&mut self, ctx: &mut Context<'_, Message>) {
        if let Some(note) = self.recovery_note.take() {
            ctx.metrics().incr("wal.recoveries");
            let now = ctx.now();
            ctx.metrics().record_event(now, "wal.recovered", note);
            if self.retention.is_some() {
                // The retained history did not survive the restart; say so
                // instead of letting `subscribe_since` return a silent gap.
                ctx.metrics().incr("retain.reset_on_recovery");
                if ctx.metrics().journal_enabled() {
                    let detail = format!("broker={}", ctx.self_id());
                    ctx.metrics().record_event(now, "retain.reset", detail);
                }
            }
        }
        let appends = self.machine.log().appends_total();
        if appends != self.wal_appends_seen {
            let grew = appends - self.wal_appends_seen;
            self.wal_appends_seen = appends;
            ctx.metrics().add("wal.appends", grew);
            if ctx.metrics().journal_enabled() {
                let now = ctx.now();
                let detail = format!(
                    "broker={} records={grew} depth={}",
                    ctx.self_id(),
                    self.machine.log().depth()
                );
                ctx.metrics().record_event(now, "wal.append", detail);
            }
        }
        let checkpoints = self.machine.log().checkpoints_total();
        if checkpoints != self.wal_checkpoints_seen {
            let grew = checkpoints - self.wal_checkpoints_seen;
            self.wal_checkpoints_seen = checkpoints;
            self.last_checkpoint_at = Some(ctx.now());
            ctx.metrics().add("wal.checkpoints", grew);
            if ctx.metrics().journal_enabled() {
                let now = ctx.now();
                let detail = format!(
                    "broker={} depth={}",
                    ctx.self_id(),
                    self.machine.log().depth()
                );
                ctx.metrics().record_event(now, "wal.checkpoint", detail);
            }
        }
    }

    /// Journals a relocation-protocol control message (old-broker side of
    /// the hand-off: Relocate repoints routing, Fetch starts the replay).
    fn note_control(
        &mut self,
        kind: &'static str,
        client: ClientId,
        ctx: &mut Context<'_, Message>,
    ) {
        if ctx.metrics().journal_enabled() {
            let now = ctx.now();
            let detail = format!("broker={} client={client}", ctx.self_id());
            ctx.metrics().record_event(now, kind, detail);
        }
    }

    // ------------------------------------------------------------------
    // Distributed tracing (relocation-phase and replay/merge spans)
    // ------------------------------------------------------------------

    /// Records one finished span into the metrics span buffer.
    fn record_span(
        ctx: &mut Context<'_, Message>,
        trace_id: u64,
        span_id: u64,
        parent_span: u64,
        kind: &str,
        detail: String,
        start_micros: u64,
    ) {
        let end_micros = ctx.now().as_micros();
        let broker = ctx.self_id().index() as u64;
        ctx.metrics().record_span(SpanRecord {
            seq: 0,
            trace_id,
            span_id,
            parent_span,
            broker,
            kind: kind.to_string(),
            start_micros,
            end_micros,
            detail,
        });
    }

    /// Derives the trace id of a sampled relocation from the fields every
    /// `last_seq`-carrying protocol message repeats.
    fn sample_relocation(&self, client: ClientId, last_seq: u64) -> Option<u64> {
        rebeca_obs::sample_relocation(
            u64::from(client.raw()),
            last_seq,
            self.core.trace_sampling(),
        )
    }

    /// Records a relocation-phase span whose id is a pure function of
    /// `(trace_id, broker, phase)` — the broker handling the *next*
    /// protocol message derives its causal parent the same way, so the
    /// control messages carry no trace fields on the wire.
    fn note_phase(
        &mut self,
        ctx: &mut Context<'_, Message>,
        trace_id: u64,
        phase: &'static str,
        parent_span: u64,
        client: ClientId,
    ) {
        if !ctx.metrics().span_enabled() {
            return;
        }
        let span_id = rebeca_obs::phase_span_id(trace_id, ctx.self_id().index() as u64, phase);
        let now = ctx.now().as_micros();
        Self::record_span(
            ctx,
            trace_id,
            span_id,
            parent_span,
            phase,
            format!("client={client}"),
            now,
        );
    }

    /// A span id minted at this layer (high bit keeps it disjoint from the
    /// wrapped core's nonce space).
    fn next_trace_nonce(&mut self) -> u64 {
        let nonce = self.trace_nonce;
        self.trace_nonce += 1;
        nonce | (1 << 63)
    }

    /// Stitches publication traces back together after a relocation
    /// replay: deliveries that ride a [`Message::Replay`] were parked in a
    /// counterpart at the old broker, so the static core never recorded
    /// their delivery.  Each sampled envelope in the merged output gets a
    /// `replay` span (spanning the hold, parented on the envelope's
    /// recorded routing hop) and a `deliver` child.
    fn stitch_replayed(
        &mut self,
        out: &[(NodeId, Message)],
        hold_start_micros: Option<u64>,
        ctx: &mut Context<'_, Message>,
    ) {
        if !ctx.metrics().span_enabled() {
            return;
        }
        let now = ctx.now().as_micros();
        let broker = ctx.self_id().index() as u64;
        let mut sampled = Vec::new();
        for (_, message) in out {
            match message {
                Message::Deliver(d) => sampled.extend(
                    d.envelope
                        .trace
                        .filter(|t| t.sampled)
                        .map(|t| (t, d.subscriber, d.seq)),
                ),
                Message::DeliverBatch(batch) => {
                    for d in batch {
                        sampled.extend(
                            d.envelope
                                .trace
                                .filter(|t| t.sampled)
                                .map(|t| (t, d.subscriber, d.seq)),
                        );
                    }
                }
                _ => {}
            }
        }
        for (trace, subscriber, seq) in sampled {
            let replay_span = rebeca_obs::span_id(trace.trace_id, broker, self.next_trace_nonce());
            Self::record_span(
                ctx,
                trace.trace_id,
                replay_span,
                trace.parent_span,
                "replay",
                format!("client={subscriber} seq={seq}"),
                hold_start_micros.unwrap_or(now),
            );
            let deliver_span = rebeca_obs::span_id(trace.trace_id, broker, self.next_trace_nonce());
            Self::record_span(
                ctx,
                trace.trace_id,
                deliver_span,
                replay_span,
                "deliver",
                format!("client={subscriber} seq={seq}"),
                now,
            );
        }
    }

    // ------------------------------------------------------------------
    // Shared helpers
    // ------------------------------------------------------------------

    /// Runs a static-broker handler and applies the mobility
    /// post-processing (holding interception and counterpart absorption).
    ///
    /// A message the static broker does not handle is client-bound
    /// (`Deliver`, `DeliverBatch`): a peer sent it to the wrong node.  It
    /// is dropped and counted under `broker.rx_unexpected`, never trusted
    /// to be impossible — over TCP any introduced peer can send one.
    fn run_core(
        &mut self,
        from: NodeId,
        message: Message,
        ctx: &mut Context<'_, Message>,
    ) -> Vec<(NodeId, Message)> {
        let out = match self.core.handle_message(from, message) {
            Ok(out) => out,
            Err(unexpected) => {
                ctx.metrics().incr("broker.rx_unexpected");
                if ctx.metrics().journal_enabled() {
                    let now = ctx.now();
                    let detail = format!("from={from} kind={}", unexpected.kind_name());
                    ctx.metrics().record_event(now, "broker.unexpected", detail);
                }
                return Vec::new();
            }
        };
        let out = self.machine.intercept_holding(out);
        self.machine
            .absorb_parked(&mut self.core, ctx.now().as_micros());
        out
    }

    /// Moves publications the static broker recorded from local publishers
    /// into the retention store and expires aged-out segments.  Called once
    /// per handled event; a no-op without retention.
    fn absorb_published(&mut self, ctx: &mut Context<'_, Message>) {
        let Some(store) = self.retention.as_mut() else {
            return;
        };
        let now = ctx.now().as_micros();
        let published = self.core.take_published();
        if !published.is_empty() {
            ctx.metrics().add("retain.appended", published.len() as u64);
            for envelope in published {
                store.append(now, envelope);
            }
        }
        store.expire(now);
    }

    /// Interprets machine effects against the simulation context, collecting
    /// outgoing messages.
    fn apply_effects(
        &mut self,
        effects: Vec<Effect>,
        ctx: &mut Context<'_, Message>,
        out: &mut Vec<(NodeId, Message)>,
    ) {
        for effect in effects {
            match effect {
                Effect::Send(to, message) => out.push((to, message)),
                Effect::SetTimer(delay, tag) => ctx.set_timer(delay, tag),
                Effect::Incr(name) => ctx.metrics().incr(name),
                Effect::Add(name, amount) => ctx.metrics().add(name, amount),
            }
        }
    }

    // ------------------------------------------------------------------
    // Logical mobility (Section 5)
    // ------------------------------------------------------------------

    /// Installs (or refreshes) the filter of a location-dependent
    /// subscription at this hop and returns the old filter, if any.
    fn install_loc_filter(&mut self, sub_id: SubscriptionId, state: LocSubState) -> Option<Filter> {
        let previous = self.loc_subs.insert(sub_id, state.clone());
        if let Some(prev) = &previous {
            self.core
                .retract_subscription(&prev.current_filter, prev.towards_consumer);
        }
        self.core
            .install_subscription(state.current_filter, state.towards_consumer);
        previous.map(|p| p.current_filter)
    }

    /// Handles a location-dependent subscription entering or travelling
    /// through the network.
    #[allow(clippy::too_many_arguments)] // mirrors the LocSubscribe message fields
    fn handle_loc_subscribe(
        &mut self,
        sub_id: SubscriptionId,
        template: LocationDependentFilter,
        plan: AdaptivityPlan,
        location: LocationId,
        hop: usize,
        from: NodeId,
        ctx: &mut Context<'_, Message>,
    ) -> Vec<(NodeId, Message)> {
        // If the subscription comes directly from a local client, make sure
        // the client is attached.
        if self.core.client_by_node(from).is_none() && !self.core.broker_links().contains(&from) {
            self.core.handle_attach(sub_id.client, from);
        }

        let q = plan.step_at(hop);
        let locations = self
            .config
            .movement_graph
            .ploc(location, q)
            .into_iter()
            .map(|l| l.raw());
        let current_filter = template.instantiate(locations);
        self.install_loc_filter(
            sub_id,
            LocSubState {
                towards_consumer: from,
                hop,
                template: template.clone(),
                plan: plan.clone(),
                location,
                current_filter,
            },
        );
        ctx.metrics().incr("logical.subscription_installed");

        self.core
            .broker_links_except(from)
            .into_iter()
            .map(|link| {
                ctx.metrics().incr("logical.subscribe_forwarded");
                (
                    link,
                    Message::LocSubscribe {
                        sub_id,
                        template: template.clone(),
                        plan: plan.clone(),
                        location,
                        hop: hop + 1,
                    },
                )
            })
            .collect()
    }

    /// Handles the retraction of a location-dependent subscription.
    fn handle_loc_unsubscribe(
        &mut self,
        sub_id: SubscriptionId,
        from: NodeId,
    ) -> Vec<(NodeId, Message)> {
        if let Some(state) = self.loc_subs.remove(&sub_id) {
            self.core
                .retract_subscription(&state.current_filter, state.towards_consumer);
        }
        self.core
            .broker_links_except(from)
            .into_iter()
            .map(|link| (link, Message::LocUnsubscribe { sub_id }))
            .collect()
    }

    /// Handles a location update travelling along the delivery paths: the
    /// broker swaps its instantiated filter (unsubscribing vanished
    /// locations, subscribing new ones) and forwards the update.
    fn handle_location_update(
        &mut self,
        sub_id: SubscriptionId,
        location: LocationId,
        hop: usize,
        from: NodeId,
        ctx: &mut Context<'_, Message>,
    ) -> Vec<(NodeId, Message)> {
        let Some(state) = self.loc_subs.get(&sub_id).cloned() else {
            // Not participating in this subscription (e.g. the update reached
            // a broker the subscription never covered): nothing to do.
            return Vec::new();
        };
        let q = state.plan.step_at(state.hop);
        let locations = self
            .config
            .movement_graph
            .ploc(location, q)
            .into_iter()
            .map(|l| l.raw());
        let new_filter = state.template.instantiate(locations);
        let unchanged = new_filter == state.current_filter;
        self.install_loc_filter(
            sub_id,
            LocSubState {
                location,
                current_filter: new_filter,
                ..state
            },
        );
        if unchanged {
            ctx.metrics().incr("logical.update_noop");
        } else {
            ctx.metrics().incr("logical.filter_swapped");
        }

        self.core
            .broker_links_except(from)
            .into_iter()
            .map(|link| {
                ctx.metrics().incr("logical.update_forwarded");
                (
                    link,
                    Message::LocationUpdate {
                        sub_id,
                        location,
                        hop: hop + 1,
                    },
                )
            })
            .collect()
    }

    // ------------------------------------------------------------------
    // Time-aware subscriptions: retained-history replay
    // ------------------------------------------------------------------

    /// The broker's local retained slice for a history window, as
    /// `(ts_micros, envelope)` pairs.
    fn retained_slice(&self, since_micros: u64, filter: &Filter) -> Vec<(u64, Envelope)> {
        self.retention
            .as_ref()
            .map(|store| {
                store
                    .fetch_since(since_micros, filter)
                    .into_iter()
                    .map(|p| (p.ts_micros, p.envelope))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Handles a time-aware subscription at the client's border broker:
    /// installs the live subscription, opens a history session seeded with
    /// the local retained slice, floods a [`Message::HistoryFetch`] over
    /// the broker links and arms the gather timeout.  With no broker links
    /// (single-broker deployment) the session closes — and the merged
    /// batch ships — immediately.
    fn handle_subscribe_since(
        &mut self,
        client: ClientId,
        filter: Filter,
        since_micros: u64,
        last_seq: u64,
        from: NodeId,
        ctx: &mut Context<'_, Message>,
    ) -> Vec<(NodeId, Message)> {
        if self.core.client_by_node(from).is_none() && !self.core.broker_links().contains(&from) {
            self.core.handle_attach(client, from);
        }
        let mut out = self.run_core(
            from,
            Message::Subscribe {
                subscriber: client,
                filter: filter.clone(),
            },
            ctx,
        );

        let entries = self.retained_slice(since_micros, &filter);
        let tag = self.next_history_tag;
        self.next_history_tag += 1;
        let key = (client, filter.clone());
        self.history_tags.insert(tag, key.clone());
        self.history_sessions.insert(
            key,
            HistorySession {
                client_node: from,
                since_micros,
                last_seq,
                entries,
                held: Vec::new(),
            },
        );
        ctx.metrics().incr("retain.history_session_opened");

        let links = self.core.broker_links_except(from);
        if links.is_empty() {
            out.extend(self.close_history_session(tag, ctx));
        } else {
            let origin = ctx.self_id();
            for link in links {
                out.push((
                    link,
                    Message::HistoryFetch {
                        client,
                        filter: filter.clone(),
                        since_micros,
                        origin,
                    },
                ));
            }
            ctx.set_timer(self.config.relocation_timeout, tag);
        }
        out
    }

    /// Handles a history fetch travelling through the network: records the
    /// reverse-path pointer, replies with the local retained slice (when
    /// non-empty) and forwards the fetch over the remaining broker links.
    fn handle_history_fetch(
        &mut self,
        client: ClientId,
        filter: Filter,
        since_micros: u64,
        origin: NodeId,
        from: NodeId,
        ctx: &mut Context<'_, Message>,
    ) -> Vec<(NodeId, Message)> {
        self.history_routes.insert((client, filter.clone()), from);
        let mut out = Vec::new();
        let entries = self.retained_slice(since_micros, &filter);
        if !entries.is_empty() {
            ctx.metrics().add("retain.replayed", entries.len() as u64);
            out.push((
                from,
                Message::HistoryReplay {
                    client,
                    filter: filter.clone(),
                    entries,
                },
            ));
        }
        for link in self.core.broker_links_except(from) {
            out.push((
                link,
                Message::HistoryFetch {
                    client,
                    filter: filter.clone(),
                    since_micros,
                    origin,
                },
            ));
        }
        out
    }

    /// Handles a history replay: absorbed into the open session at the
    /// border broker, forwarded along the recorded reverse path elsewhere.
    /// A replay arriving after its session closed is dropped (counted) —
    /// the gather timeout is the completeness bound, exactly like the
    /// relocation holding timeout.
    fn handle_history_replay(
        &mut self,
        client: ClientId,
        filter: Filter,
        entries: Vec<(u64, Envelope)>,
        ctx: &mut Context<'_, Message>,
    ) -> Vec<(NodeId, Message)> {
        let key = (client, filter.clone());
        if let Some(session) = self.history_sessions.get_mut(&key) {
            ctx.metrics()
                .add("retain.replay_absorbed", entries.len() as u64);
            session.entries.extend(entries);
            Vec::new()
        } else if let Some(&next) = self.history_routes.get(&key) {
            vec![(
                next,
                Message::HistoryReplay {
                    client,
                    filter,
                    entries,
                },
            )]
        } else {
            ctx.metrics().incr("retain.replay_dropped");
            Vec::new()
        }
    }

    /// Closes a history session: filters the gathered entries to the
    /// requested window, orders them by `(ts, publisher, publisher_seq)`,
    /// de-duplicates against themselves and the held live deliveries by
    /// publication identity, assigns delivery sequence numbers continuing
    /// the client's `last_seq`, and ships everything as one batch.
    fn close_history_session(
        &mut self,
        tag: u64,
        ctx: &mut Context<'_, Message>,
    ) -> Vec<(NodeId, Message)> {
        let Some(key) = self.history_tags.remove(&tag) else {
            return Vec::new();
        };
        let Some(session) = self.history_sessions.remove(&key) else {
            return Vec::new();
        };
        let (client, filter) = key;

        let mut entries = session.entries;
        entries.retain(|(ts, e)| *ts >= session.since_micros && filter.matches(&e.notification));
        entries.sort_by(|a, b| {
            (a.0, a.1.publisher, a.1.publisher_seq).cmp(&(b.0, b.1.publisher, b.1.publisher_seq))
        });
        let mut seen = BTreeSet::new();
        entries.retain(|(_, e)| seen.insert((e.publisher, e.publisher_seq)));

        let mut next_seq = session.last_seq + 1;
        let mut deliveries = Vec::new();
        for (_, envelope) in entries {
            deliveries.push(Delivery {
                subscriber: client,
                filter: filter.clone(),
                seq: next_seq,
                envelope,
            });
            next_seq += 1;
        }
        // Held live deliveries already present in the history (the
        // publication was both retained and routed live) are suppressed;
        // the rest follow the history in arrival order.
        for envelope in session.held {
            if seen.insert((envelope.publisher, envelope.publisher_seq)) {
                deliveries.push(Delivery {
                    subscriber: client,
                    filter: filter.clone(),
                    seq: next_seq,
                    envelope,
                });
                next_seq += 1;
            }
        }
        // Future live deliveries continue after the merged batch.  (The
        // registry may already sit past `next_seq` from the intercepted
        // deliveries; the resulting gap in broker sequence numbers is
        // harmless — delivery QoS is checked on publication identity.)
        self.core
            .sequences_mut()
            .fast_forward(client, &filter, next_seq);

        // Sampled publications that reach the client through the merged
        // batch mark the merge point in their trace: the `history.merge`
        // span hangs off whatever hop the envelope last recorded (a route
        // span for live-held traffic, the publish span for retained
        // history served at the origin broker).
        if ctx.metrics().span_enabled() {
            let now = ctx.now().as_micros();
            let broker = ctx.self_id().index() as u64;
            let spans: Vec<_> = deliveries
                .iter()
                .filter_map(|d| {
                    d.envelope
                        .trace
                        .filter(|t| t.sampled)
                        .map(|t| (t, d.seq, self.next_trace_nonce()))
                })
                .collect();
            for (trace, seq, nonce) in spans {
                Self::record_span(
                    ctx,
                    trace.trace_id,
                    rebeca_obs::span_id(trace.trace_id, broker, nonce),
                    trace.parent_span,
                    "history.merge",
                    format!("client={client} seq={seq}"),
                    now,
                );
            }
        }

        ctx.metrics()
            .add("retain.history_delivered", deliveries.len() as u64);
        ctx.metrics().incr("retain.history_session_closed");
        match deliveries.len() {
            0 => Vec::new(),
            1 => vec![(
                session.client_node,
                Message::Deliver(deliveries.into_iter().next().expect("len checked")),
            )],
            _ => vec![(session.client_node, Message::DeliverBatch(deliveries))],
        }
    }

    /// Diverts deliveries addressed to streams with an open history session
    /// into that session's hold buffer, passing everything else through.
    fn intercept_history(
        &mut self,
        out: Vec<(NodeId, Message)>,
        ctx: &mut Context<'_, Message>,
    ) -> Vec<(NodeId, Message)> {
        let mut kept = Vec::new();
        let mut held = 0u64;
        for (to, message) in out {
            match message {
                Message::Deliver(d) => {
                    let key = (d.subscriber, d.filter);
                    if let Some(session) = self.history_sessions.get_mut(&key) {
                        session.held.push(d.envelope);
                        held += 1;
                    } else {
                        kept.push((
                            to,
                            Message::Deliver(Delivery {
                                subscriber: key.0,
                                filter: key.1,
                                seq: d.seq,
                                envelope: d.envelope,
                            }),
                        ));
                    }
                }
                Message::DeliverBatch(batch) => {
                    let mut pass = Vec::new();
                    for d in batch {
                        let key = (d.subscriber, d.filter.clone());
                        if let Some(session) = self.history_sessions.get_mut(&key) {
                            session.held.push(d.envelope);
                            held += 1;
                        } else {
                            pass.push(d);
                        }
                    }
                    match pass.len() {
                        0 => {}
                        1 => kept.push((
                            to,
                            Message::Deliver(pass.into_iter().next().expect("len checked")),
                        )),
                        _ => kept.push((to, Message::DeliverBatch(pass))),
                    }
                }
                other => kept.push((to, other)),
            }
        }
        if held > 0 {
            ctx.metrics().add("retain.history_held", held);
        }
        kept
    }

    // ------------------------------------------------------------------
    // Counterpart lease sweep
    // ------------------------------------------------------------------

    /// Arms the periodic lease-sweep timer when a lease is configured and
    /// no sweep is pending.
    fn arm_lease_sweep(&mut self, ctx: &mut Context<'_, Message>) {
        if self.lease_sweep_armed {
            return;
        }
        if let Some(lease) = self.config.counterpart_lease {
            self.lease_sweep_armed = true;
            ctx.set_timer(lease, LEASE_SWEEP_TIMER_TAG);
        }
    }

    /// Runs one lease sweep: expires counterparts whose client never
    /// reattached within the lease, then re-arms while counterparts remain.
    fn sweep_leases(&mut self, ctx: &mut Context<'_, Message>) -> Vec<(NodeId, Message)> {
        self.lease_sweep_armed = false;
        let Some(lease) = self.config.counterpart_lease else {
            return Vec::new();
        };
        let now = ctx.now().as_micros();
        let effects = self
            .machine
            .expire_leases(&mut self.core, now, lease.as_micros());
        let mut out = Vec::new();
        self.apply_effects(effects, ctx, &mut out);
        if self.machine.counterpart_count() > 0 {
            self.arm_lease_sweep(ctx);
        }
        out
    }
}

impl Node for MobileBroker {
    type Message = Message;

    fn handle(&mut self, ctx: &mut Context<'_, Message>, event: Incoming<Message>) {
        let mut out = Vec::new();
        match event {
            Incoming::Timer {
                tag: LEASE_SWEEP_TIMER_TAG,
            } => {
                out = self.sweep_leases(ctx);
            }
            Incoming::Timer { tag } if tag >= HISTORY_TIMER_BASE => {
                out = self.close_history_session(tag, ctx);
            }
            Incoming::Timer { tag } => {
                let effects = self.machine.on_timeout(&mut self.core, tag);
                self.apply_effects(effects, ctx, &mut out);
                // A fired timeout may have flushed held streams without a
                // replay — settle their latency clocks under the flush kind.
                self.note_settled(ctx, "relocation.timeout_flush", None);
            }
            Incoming::Message { from, message } => {
                ctx.metrics().incr(message.rx_counter());
                match message {
                    Message::ReSubscribe {
                        client,
                        filter,
                        last_seq,
                    } => {
                        let effects = self.machine.on_resubscribe(
                            &mut self.core,
                            client,
                            filter.clone(),
                            last_seq,
                            from,
                        );
                        self.apply_effects(effects, ctx, &mut out);
                        if let Some(trace_id) = self.sample_relocation(client, last_seq) {
                            self.relocation_traces
                                .insert((client, filter.clone()), trace_id);
                            // The new border broker roots the relocation trace.
                            self.note_phase(ctx, trace_id, "relocation.resubscribe", 0, client);
                        }
                        self.note_resubscribed(client, filter, ctx);
                    }
                    Message::Relocate {
                        client,
                        filter,
                        last_seq,
                        new_broker,
                    } => {
                        let trace_id = self.sample_relocation(client, last_seq);
                        if let Some(trace_id) = trace_id {
                            self.relocation_traces
                                .insert((client, filter.clone()), trace_id);
                        }
                        let effects = self.machine.on_relocate(
                            &mut self.core,
                            client,
                            filter,
                            last_seq,
                            new_broker,
                            from,
                        );
                        self.apply_effects(effects, ctx, &mut out);
                        if let Some(trace_id) = trace_id {
                            // Sent by the new border broker directly, or
                            // forwarded by a broker that handled it first.
                            let parent_phase = if from == new_broker {
                                "relocation.resubscribe"
                            } else {
                                "relocation.relocate"
                            };
                            let parent = rebeca_obs::phase_span_id(
                                trace_id,
                                from.index() as u64,
                                parent_phase,
                            );
                            self.note_phase(ctx, trace_id, "relocation.relocate", parent, client);
                        }
                        self.note_control("relocation.relocate", client, ctx);
                    }
                    Message::Fetch {
                        client,
                        filter,
                        last_seq,
                        junction,
                    } => {
                        let trace_id = self.sample_relocation(client, last_seq);
                        if let Some(trace_id) = trace_id {
                            self.relocation_traces
                                .insert((client, filter.clone()), trace_id);
                        }
                        let effects = self.machine.on_fetch(
                            &mut self.core,
                            client,
                            filter,
                            last_seq,
                            junction,
                            from,
                        );
                        self.apply_effects(effects, ctx, &mut out);
                        if let Some(trace_id) = trace_id {
                            // The junction converts Relocate into Fetch;
                            // downstream brokers forward the Fetch.
                            let parent_phase = if from == junction {
                                "relocation.relocate"
                            } else {
                                "relocation.fetch"
                            };
                            let parent = rebeca_obs::phase_span_id(
                                trace_id,
                                from.index() as u64,
                                parent_phase,
                            );
                            self.note_phase(ctx, trace_id, "relocation.fetch", parent, client);
                            // If this broker answered with the counterpart's
                            // replay, that emission is causally under the
                            // fetch that triggered it.
                            let replied = out.iter().any(|(_, m)| {
                                matches!(m, Message::Replay { client: c, .. } if *c == client)
                            });
                            if replied {
                                let me = ctx.self_id().index() as u64;
                                let parent =
                                    rebeca_obs::phase_span_id(trace_id, me, "relocation.fetch");
                                self.note_phase(ctx, trace_id, "relocation.replay", parent, client);
                            }
                        }
                        self.note_control("relocation.fetch", client, ctx);
                    }
                    Message::Replay {
                        client,
                        filter,
                        deliveries,
                    } => {
                        let key = (client, filter.clone());
                        let trace_id = self.relocation_traces.get(&key).copied();
                        let hold_start = self
                            .holding_since
                            .iter()
                            .find(|(k, _)| *k == key)
                            .map(|(_, since)| since.as_micros());
                        let effects = self.machine.on_replay(
                            &mut self.core,
                            client,
                            filter,
                            deliveries,
                            from,
                        );
                        self.apply_effects(effects, ctx, &mut out);
                        if let Some(trace_id) = trace_id {
                            let parent = rebeca_obs::phase_span_id(
                                trace_id,
                                from.index() as u64,
                                "relocation.replay",
                            );
                            let forwarded = out.iter().any(|(_, m)| {
                                matches!(m, Message::Replay { client: c, .. } if *c == client)
                            });
                            if forwarded {
                                // A relay hop towards the new border broker.
                                self.note_phase(ctx, trace_id, "relocation.replay", parent, client);
                                self.relocation_traces.remove(&key);
                            } else {
                                self.note_phase(
                                    ctx,
                                    trace_id,
                                    "relocation.settled",
                                    parent,
                                    client,
                                );
                            }
                        }
                        // Sampled publications that were parked at the old
                        // broker get their replay/deliver spans now.
                        self.stitch_replayed(&out, hold_start, ctx);
                        // The replay settles the holding phase; record the
                        // hand-off latency.
                        self.note_settled(ctx, "relocation.settled", Some(client));
                    }
                    Message::Detach { client } => {
                        // The static broker marks the client disconnected,
                        // then the machine opens durable counterparts for
                        // what is left behind.
                        out = self.run_core(from, Message::Detach { client }, ctx);
                        let now = ctx.now().as_micros();
                        self.machine.on_detach(&self.core, client, now);
                        self.note_control("relocation.detach", client, ctx);
                    }
                    Message::SubscribeSince {
                        subscriber,
                        filter,
                        since_micros,
                        last_seq,
                    } => {
                        out = self.handle_subscribe_since(
                            subscriber,
                            filter,
                            since_micros,
                            last_seq,
                            from,
                            ctx,
                        );
                    }
                    Message::HistoryFetch {
                        client,
                        filter,
                        since_micros,
                        origin,
                    } => {
                        out = self.handle_history_fetch(
                            client,
                            filter,
                            since_micros,
                            origin,
                            from,
                            ctx,
                        );
                    }
                    Message::HistoryReplay {
                        client,
                        filter,
                        entries,
                    } => {
                        out = self.handle_history_replay(client, filter, entries, ctx);
                    }
                    Message::LocSubscribe {
                        sub_id,
                        template,
                        plan,
                        location,
                        hop,
                    } => {
                        out = self
                            .handle_loc_subscribe(sub_id, template, plan, location, hop, from, ctx);
                    }
                    Message::LocUnsubscribe { sub_id } => {
                        out = self.handle_loc_unsubscribe(sub_id, from);
                    }
                    Message::LocationUpdate {
                        sub_id,
                        location,
                        hop,
                    } => {
                        out = self.handle_location_update(sub_id, location, hop, from, ctx);
                    }
                    other => {
                        out = self.run_core(from, other, ctx);
                    }
                }
            }
        }
        if !self.history_sessions.is_empty() {
            out = self.intercept_history(out, ctx);
        }
        self.absorb_published(ctx);
        if self.machine.counterpart_count() > 0 {
            self.arm_lease_sweep(ctx);
        }
        self.note_wal(ctx);
        // Stamp and flush the span drafts the static core accumulated
        // while handling this event.  With tracing off this takes an empty
        // Vec — no allocation, no iteration.
        let drafts = self.core.take_trace_spans();
        if !drafts.is_empty() {
            let now = ctx.now().as_micros();
            let broker = ctx.self_id().index() as u64;
            for draft in drafts {
                ctx.metrics().record_span(SpanRecord {
                    seq: 0,
                    trace_id: draft.trace_id,
                    span_id: draft.span_id,
                    parent_span: draft.parent_span,
                    broker,
                    kind: draft.kind.to_string(),
                    start_micros: now,
                    end_micros: now,
                    detail: draft.detail,
                });
            }
        }
        for (to, message) in out {
            ctx.metrics().incr(message.tx_counter());
            ctx.send(to, message);
        }
    }
}
