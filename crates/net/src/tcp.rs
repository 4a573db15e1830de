//! [`TcpDriver`]: the sans-IO [`Driver`] over real TCP sockets.
//!
//! A deployment is a set of OS processes, each running one `TcpDriver`
//! hosting a subset of the global node space — classically one broker per
//! process (the `rebeca-node` binary), plus one process per application
//! hosting its client nodes.  Every process shares the same broker
//! topology, so broker `i` is [`NodeId`] `i` everywhere; client nodes get
//! ids above the broker range, allocated by the process that hosts them.
//!
//! The driver runs a single-threaded event loop over the local nodes:
//! dispatch due events, harvest sends and timers, encode each send straight
//! into its connection's outbound window, and write every connection that
//! has something to say **once per turn**.  Every node pair between two
//! processes shares one connection per direction, so threads per process
//! follow the peer processes, not the nodes: the event loop, one acceptor,
//! and per peer process one reader (inbound) and one cold dialer + one
//! cold ack pump (outbound) — no writer thread; see the
//! [`link`](crate::link) module docs.
//!
//! *Flush discipline.*  Every send originates in a dispatch (the `Driver`
//! trait has no other send site), so the loop flushes before every blocking
//! wait, on leaving a phase, after the dispatch of a `step`, and every
//! [`FLUSH_EVERY`] dispatches while it never goes idle: no frame sits in a
//! buffer while the loop sleeps.  A peer cannot wedge the loop either:
//! data sockets carry a write timeout of the liveness horizon (`heartbeat ×
//! missed_heartbeats`), a write that errors or times out is a broken
//! connection (redial, replay), and reader threads keep draining into the
//! unbounded inbound channel independently of their loop, so two brokers
//! writing to each other cannot deadlock.
//!
//! The event-ordering machinery —
//! due-time heaps with insertion-order tie-break and the per-direction
//! monotonic due-time clamp — is shared with
//! [`ThreadedDriver`](rebeca_core::ThreadedDriver) via
//! [`rebeca_core::driver_util`], so the FIFO rules cannot diverge between
//! the wall-clock drivers.
//!
//! # Remote nodes
//!
//! [`Driver::add_node`] calls for nodes another process hosts park the
//! state as an inert *placeholder*: it is never dispatched, and reading it
//! through [`Driver::node`] observes the initial state only.  Inspect
//! brokers and client logs from the process that hosts them.
//!
//! # Link delays
//!
//! Configured [`DelayModel`]s are honoured over TCP: the sender samples the
//! delay and ships it in the frame; the receiver schedules the event that
//! much later than its arrival (clamped per direction, so the link stays
//! FIFO).  Deployments that want raw socket latency configure
//! `DelayModel::Constant(0)`.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use rebeca_core::driver_util::{broker_status, FifoClamp, PendingQueue, WallClock};
use rebeca_core::{Driver, MobilitySystem, RebecaError, SystemBuilder, SystemNode};
use rebeca_obs::{LinkStatus, SpanRecord, StatusReport, TraceReport};
use rebeca_sim::{Context, DelayModel, Incoming, Metrics, Node, NodeId, SimDuration, SimTime};

use crate::endpoint::Endpoint;
use crate::link::{
    spawn_acceptor, FaultPlan, Inbound, Link, LinkConfig, LinkEvent, LinkRegistry, ACK_EVERY,
};
use crate::wire::Frame;

/// Upper bound on how long the event loop blocks waiting for network
/// traffic before re-checking its deadlines.
const MAX_WAIT: Duration = Duration::from_millis(1);

/// Dispatches between two flushes while the loop never goes idle.
const FLUSH_EVERY: u64 = 32;

/// Smallest accepted `resend_window`: peers acknowledge every [`ACK_EVERY`]
/// frames, so a window of only a few multiples of that would fail a healthy
/// link under a steady stream.
const MIN_RESEND_WINDOW: usize = 4 * ACK_EVERY as usize;

/// Configuration of one process of a TCP deployment.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Listen endpoint of every broker, indexed by topology index (broker
    /// `i` is `NodeId(i)` in every process).
    endpoints: Vec<Endpoint>,
    /// Which brokers THIS process hosts (empty for a pure client process).
    local: BTreeSet<usize>,
    /// Where this process listens.  Defaults to the endpoint of its lowest
    /// hosted broker, or an ephemeral loopback port for client processes.
    listen: Option<Endpoint>,
    /// Restart epoch carried in every handshake.  Readers fence peers
    /// whose epoch regresses, so a restarted process MUST bump it.
    epoch: u64,
    /// Seed of the per-process link-delay sampling.
    seed: u64,
    /// Idle interval after which a link sends a heartbeat.
    heartbeat: Duration,
    /// Interval between dial attempts while a peer process is not up yet.
    dial_retry: Duration,
    /// Backoff cap for redials after a connection loss (the backoff starts
    /// at `dial_retry` and doubles with jitter up to this cap).
    redial_max: Duration,
    /// Maximum unacknowledged frames a connection holds for replay across
    /// a reconnect, per node pair it carries; overflow fails the connection
    /// loudly instead of losing frames.
    resend_window: usize,
    /// Heartbeat intervals of silence after which an inbound link is
    /// declared down (surfaced in status reports and the journal).
    missed_heartbeats: u32,
    /// Optional link-layer fault injection (tests, benches, chaos drills).
    fault: Option<FaultPlan>,
    /// First node id this process allocates for client nodes.  Defaults to
    /// the end of the broker range; set distinct bases on different client
    /// processes so their client node ids cannot collide.
    first_client_node: Option<usize>,
    /// The endpoint advertised in handshakes for reverse connections.
    /// Defaults to the listen host (wildcard hosts fall back to loopback)
    /// with the actually bound port; LAN deployments binding a wildcard
    /// must set this to a routable address.
    advertise: Option<Endpoint>,
}

impl NetConfig {
    /// Starts a config over the cluster's broker endpoints (index `i` is
    /// broker `i` of the topology).
    pub fn new(endpoints: Vec<Endpoint>) -> Self {
        Self {
            endpoints,
            local: BTreeSet::new(),
            listen: None,
            epoch: 0,
            seed: 0,
            heartbeat: Duration::from_millis(500),
            dial_retry: Duration::from_millis(50),
            redial_max: Duration::from_secs(1),
            resend_window: 1024,
            missed_heartbeats: 3,
            fault: None,
            first_client_node: None,
            advertise: None,
        }
    }

    /// Declares broker `index` as hosted by this process.
    pub fn host(mut self, index: usize) -> Self {
        self.local.insert(index);
        self
    }

    /// Declares every broker as hosted by this process (a single-process
    /// cluster over loopback TCP — useful for tests and benches).
    pub fn host_all(mut self) -> Self {
        self.local = (0..self.endpoints.len()).collect();
        self
    }

    /// Overrides the listen endpoint of this process.
    pub fn listen(mut self, endpoint: Endpoint) -> Self {
        self.listen = Some(endpoint);
        self
    }

    /// Sets the restart epoch carried in handshakes.
    pub fn epoch(mut self, epoch: u64) -> Self {
        self.epoch = epoch;
        self
    }

    /// Seeds the link-delay sampling of this process.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the link-idle heartbeat interval.  Heartbeats are written by
    /// the event loop, so they mean "this process's loop is turning": see
    /// the liveness note on [`TcpDriver`].  `interval × missed_heartbeats`
    /// is also the write timeout of every data socket and must not be zero.
    pub fn heartbeat(mut self, interval: Duration) -> Self {
        self.heartbeat = interval;
        self
    }

    /// Caps the exponential redial backoff after a connection loss.
    pub fn redial_max(mut self, cap: Duration) -> Self {
        self.redial_max = cap;
        self
    }

    /// Bounds the resend window per node pair: a connection holds up to
    /// this many unacknowledged frames for replay across reconnects for
    /// every pair it carries, so a pair never fails sooner than on a
    /// connection of its own.  Peers acknowledge every 32 frames, so
    /// [`TcpDriver::new`] rejects a window under 128.
    pub fn resend_window(mut self, frames: usize) -> Self {
        self.resend_window = frames;
        self
    }

    /// Sets how many silent heartbeat intervals declare an inbound link
    /// down.
    pub fn missed_heartbeats(mut self, count: u32) -> Self {
        self.missed_heartbeats = count;
        self
    }

    /// Installs a link-layer [`FaultPlan`] (drop connections after k
    /// frames) for chaos tests and reconnect benchmarks.
    pub fn fault(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Sets the first node id allocated for client nodes (see the field
    /// docs; only needed when several client processes join one cluster).
    pub fn first_client_node(mut self, base: usize) -> Self {
        self.first_client_node = Some(base);
        self
    }

    /// Sets the endpoint advertised in handshakes for reverse connections
    /// (needed when the process binds a wildcard address on a LAN — peers
    /// cannot dial `0.0.0.0` back).
    pub fn advertise(mut self, endpoint: Endpoint) -> Self {
        self.advertise = Some(endpoint);
        self
    }
}

/// The TCP transport driver.  See the module docs for the deployment and
/// execution model.
///
/// **Liveness needs a turning loop.**  There is no background writer: the
/// handshake, the replay after a reconnect, idle heartbeats and the
/// take-over of a redialled connection all happen inside `run_until` /
/// `run_to_idle` / `step`.  An embedding application that publishes and
/// then stops calling them goes silent, and its brokers report the link
/// stale after `heartbeat × missed_heartbeats`; keep calling `run_until`
/// (with nothing due it sleeps on the inbound channel) for as long as the
/// process should count as alive.
pub struct TcpDriver {
    cfg: NetConfig,
    /// The endpoint peers dial back (advertised in every Hello).
    advertised: Endpoint,
    /// Locally hosted nodes, by node index.
    nodes: HashMap<usize, SystemNode>,
    /// Inert stand-ins for nodes hosted by other processes.
    placeholders: HashMap<usize, SystemNode>,
    /// Per local node: the peers it may send to.
    neighbours: HashMap<usize, Vec<NodeId>>,
    delays: HashMap<(NodeId, NodeId), DelayModel>,
    /// Listen endpoints of client peers, learned from their handshakes.
    learned: HashMap<usize, Endpoint>,
    /// Highest epoch seen per peer (handshake bookkeeping).
    peer_epochs: HashMap<usize, u64>,
    /// Receive-side clamp per directed link (network arrivals).
    clamp_in: FifoClamp<(NodeId, NodeId)>,
    /// Send-side clamp for local-to-local deliveries.
    clamp_local: FifoClamp<(NodeId, NodeId)>,
    pending: HashMap<usize, PendingQueue>,
    /// Outbound connections, one per peer process, each the loop-owned
    /// state of every node pair towards that process.
    links: Vec<Link>,
    /// Peer process endpoint → its connection in `links`.
    link_at: HashMap<Endpoint, usize>,
    /// Node pair `(local node, peer node)` → the connection carrying it.
    pairs: HashMap<(usize, usize), usize>,
    /// The connections that took frames since the last
    /// [`TcpDriver::flush_links`], in the order they first did: they are
    /// written in send order, as the simulator delivers.
    dirty: Vec<usize>,
    /// Fencing/dedup bookkeeping shared with the reader threads, and the
    /// ack counters of the helper threads.
    registry: Arc<LinkRegistry>,
    /// When each peer was last heard from (any frame on an inbound
    /// connection) — the source of `last_heartbeat_age_ms` in status
    /// reports.
    last_seen: HashMap<usize, Instant>,
    /// Whether the outbound connection to a peer is currently established.
    link_up: HashMap<usize, bool>,
    /// Peers declared down by heartbeat silence (cleared as soon as any
    /// frame arrives from them again).
    stale_links: HashSet<usize>,
    /// When each currently-down peer link went down (either direction).
    down_since: HashMap<usize, Instant>,
    /// Lifetime redial attempts per peer, as reported by the dialers.
    redials: HashMap<usize, u64>,
    /// Next wall-clock instant at which heartbeat-silence liveness is
    /// re-evaluated (throttled to the heartbeat cadence).
    next_liveness: Instant,
    /// A handle on the inbound event channel, handed to dialers and ack
    /// pumps so they can report on their connections.
    incoming_tx: Sender<Inbound>,
    incoming_rx: Receiver<Inbound>,
    clock: WallClock,
    rng: StdRng,
    metrics: Metrics,
    shutdown: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    wake_addr: std::net::SocketAddr,
    next_node: usize,
    /// Nonce for the `link.tx`/`link.rx` span ids this driver mints (the
    /// high bits keep them disjoint from broker-minted span ids).
    trace_nonce: u64,
}

impl TcpDriver {
    /// Binds the process listener and starts accepting connections.
    ///
    /// # Errors
    ///
    /// Besides bind failures, rejects a config that hosts a broker index
    /// outside the cluster, and one whose co-hosted brokers have differing
    /// configured endpoints: the process has exactly one listener, so peers
    /// resolving any hosted broker must all arrive at the same address
    /// (otherwise their dial-retry loops would spin forever against an
    /// endpoint nobody serves).  A `resend_window` under 128 frames is
    /// rejected as well (acknowledgements arrive every 32 frames), and so
    /// is a zero `heartbeat × missed_heartbeats`: that product is the write
    /// timeout of every data socket, and a socket without one could wedge
    /// the event loop on a peer that never reads.
    pub fn new(cfg: NetConfig) -> std::io::Result<Self> {
        if cfg.resend_window < MIN_RESEND_WINDOW {
            return Err(std::io::Error::other(format!(
                "resend_window {} is below the floor of {MIN_RESEND_WINDOW} frames \
                 (peers acknowledge every {ACK_EVERY} frames)",
                cfg.resend_window
            )));
        }
        if (cfg.heartbeat * cfg.missed_heartbeats).is_zero() {
            return Err(std::io::Error::other(
                "heartbeat × missed_heartbeats is zero: it is the liveness horizon and \
                 the socket write timeout, and a socket cannot time out after no time",
            ));
        }
        if let Some(&bad) = cfg.local.iter().find(|&&i| i >= cfg.endpoints.len()) {
            return Err(std::io::Error::other(format!(
                "hosted broker index {bad} is outside the cluster \
                 (endpoints declare {} brokers, indices 0-{})",
                cfg.endpoints.len(),
                cfg.endpoints.len().saturating_sub(1)
            )));
        }
        let mut hosted = cfg.local.iter().filter_map(|&i| cfg.endpoints.get(i));
        if let Some(first) = hosted.next() {
            if let Some(other) = hosted.find(|&ep| ep != first) {
                return Err(std::io::Error::other(format!(
                    "co-hosted brokers must share one configured endpoint \
                     (got {first} and {other}); run them in separate \
                     processes or point their endpoints at the same address"
                )));
            }
        }
        let listen = match &cfg.listen {
            Some(ep) => ep.clone(),
            None => match cfg.local.iter().next() {
                Some(&lowest) => cfg.endpoints[lowest].clone(),
                None => Endpoint::new("127.0.0.1", 0),
            },
        };
        let listener = TcpListener::bind(listen.socket_addr()?)?;
        let bound = listener.local_addr()?;
        let advertised = match &cfg.advertise {
            Some(ep) => ep.clone(),
            None => {
                // A wildcard bind is reachable on every interface but
                // dialable on none; default the dial-back address to
                // loopback (LAN deployments set `NetConfig::advertise`).
                let host = match listen.host() {
                    "0.0.0.0" | "::" | "" => "127.0.0.1",
                    host => host,
                };
                Endpoint::new(host, bound.port())
            }
        };
        let (incoming_tx, incoming_rx) = channel();
        let shutdown = Arc::new(AtomicBool::new(false));
        // Shared fencing/dedup bookkeeping of every reader thread: newest
        // epoch per peer, receive high-water mark per direction.
        let registry = Arc::new(LinkRegistry::default());
        let acceptor = spawn_acceptor(
            listener,
            incoming_tx.clone(),
            shutdown.clone(),
            registry.clone(),
        );
        let seed = cfg.seed;
        Ok(Self {
            cfg,
            advertised,
            nodes: HashMap::new(),
            placeholders: HashMap::new(),
            neighbours: HashMap::new(),
            delays: HashMap::new(),
            learned: HashMap::new(),
            peer_epochs: HashMap::new(),
            clamp_in: FifoClamp::new(),
            clamp_local: FifoClamp::new(),
            pending: HashMap::new(),
            links: Vec::new(),
            link_at: HashMap::new(),
            pairs: HashMap::new(),
            dirty: Vec::new(),
            registry,
            last_seen: HashMap::new(),
            link_up: HashMap::new(),
            stale_links: HashSet::new(),
            down_since: HashMap::new(),
            redials: HashMap::new(),
            next_liveness: Instant::now(),
            incoming_tx,
            incoming_rx,
            clock: WallClock::anchored_now(SimTime::ZERO),
            rng: StdRng::seed_from_u64(seed),
            metrics: Metrics::new(),
            shutdown,
            acceptor: Some(acceptor),
            wake_addr: bound,
            next_node: 0,
            trace_nonce: 0,
        })
    }

    /// The endpoint this process advertises in handshakes (its bound
    /// listener; the port is concrete even when configured as `:0`).
    pub fn listen_endpoint(&self) -> &Endpoint {
        &self.advertised
    }

    /// The highest restart epoch a peer has announced, if it ever dialled
    /// this process.
    pub fn peer_epoch(&self, node: NodeId) -> Option<u64> {
        self.peer_epochs.get(&node.index()).copied()
    }

    fn is_local(&self, index: usize) -> bool {
        self.nodes.contains_key(&index)
    }

    /// The endpoint of a peer node: brokers from the config, clients from
    /// their handshakes.
    fn endpoint_of(&self, peer: usize) -> Option<Endpoint> {
        self.cfg
            .endpoints
            .get(peer)
            .cloned()
            .or_else(|| self.learned.get(&peer).cloned())
    }

    /// Returns the connection that carries the node pair `(local, peer)`:
    /// the one to the peer's process, created (with its dialer thread) on
    /// first use.  A pair new to it is added there, its `Hello` written
    /// ahead of the pair's first frame.  `None` while the peer's endpoint
    /// is still unknown (a client that has not dialled in yet).
    fn link_for(&mut self, local: usize, peer: NodeId) -> Option<usize> {
        if let Some(&index) = self.pairs.get(&(local, peer.index())) {
            return Some(index);
        }
        let target = self.endpoint_of(peer.index())?;
        let index = match self.link_at.get(&target) {
            Some(&index) => index,
            None => {
                let index = self.links.len();
                self.links.push(Link::spawn(
                    LinkConfig {
                        id: index,
                        target: target.clone(),
                        listen: self.advertised.clone(),
                        write_timeout: self.cfg.heartbeat * self.cfg.missed_heartbeats,
                        dial_retry: self.cfg.dial_retry,
                        redial_max: self.cfg.redial_max,
                        resend_window: self.cfg.resend_window,
                        epoch: self.cfg.epoch,
                        fault: self.cfg.fault,
                    },
                    self.incoming_tx.clone(),
                    self.shutdown.clone(),
                    self.registry.clone(),
                ));
                self.link_at.insert(target, index);
                index
            }
        };
        let from = NodeId::new(local);
        let delay = self
            .delays
            .get(&(from, peer))
            .copied()
            .unwrap_or(DelayModel::Constant(0));
        if self.links[index].add_pair(from, peer, delay) {
            self.dirty.push(index);
        }
        self.pairs.insert((local, peer.index()), index);
        Some(index)
    }

    fn handle_inbound(&mut self, inbound: Inbound) {
        match inbound {
            Inbound::Hello {
                from,
                to,
                epoch,
                listen,
                delay,
            } => {
                self.learned.insert(from.index(), listen);
                self.mark_alive(from.index());
                let known = self.peer_epochs.entry(from.index()).or_insert(epoch);
                *known = (*known).max(epoch);
                self.metrics.incr("net.hello_in");
                if !self.is_local(to.index()) {
                    self.metrics.incr("net.hello_misrouted");
                    return;
                }
                // A dial-in creates the reverse half of the link on demand
                // (the dialling side already ran ensure_link; this side may
                // never have heard of the peer — a client, typically).
                self.delays.entry((to, from)).or_insert(delay);
                self.delays.entry((from, to)).or_insert(delay);
                let neighbours = self.neighbours.entry(to.index()).or_default();
                if !neighbours.contains(&from) {
                    neighbours.push(from);
                }
            }
            Inbound::Message {
                from,
                to,
                delay,
                message,
            } => {
                self.mark_alive(from.index());
                if !self.is_local(to.index()) {
                    self.metrics.incr("net.frames_misrouted");
                    return;
                }
                self.metrics.incr("net.frames_in");
                self.record_link_span("link.rx", to.index() as u64, from, to, &message);
                let due = self.clamp_in.clamp((from, to), self.clock.now() + delay);
                self.pending
                    .get_mut(&to.index())
                    .expect("local node has a queue")
                    .push(due, Incoming::Message { from, message });
            }
            Inbound::Heartbeat { from, epoch } => {
                for peer in &from {
                    self.mark_alive(peer.index());
                    let known = self.peer_epochs.entry(peer.index()).or_insert(epoch);
                    *known = (*known).max(epoch);
                }
                self.metrics.incr("net.heartbeats_in");
                if self.metrics.journal_enabled() {
                    let now = self.clock.now();
                    self.metrics.record_event(
                        now,
                        "link.heartbeat",
                        format!("peer={} epoch={epoch}", node_list(&from)),
                    );
                }
            }
            Inbound::Conn {
                link: index,
                generation,
                signal,
            } => {
                let Some(link) = self.links.get_mut(index) else {
                    return;
                };
                let event = link.on_signal(generation, signal, &mut self.metrics);
                // On a fresh connection this is the replay; otherwise a
                // no-op.
                let replay = link.flush(&mut self.metrics);
                for event in [event, replay].into_iter().flatten() {
                    self.note_link(index, event);
                }
            }
            Inbound::Stale {
                from,
                epoch,
                expected,
            } => {
                self.metrics.incr("net.link_fenced_rejected");
                if self.metrics.journal_enabled() {
                    let now = self.clock.now();
                    self.metrics.record_event(
                        now,
                        "link.fenced",
                        format!(
                            "peer={from} stale_epoch={epoch} expected_epoch={expected} side=reader"
                        ),
                    );
                }
            }
            Inbound::Duplicate { from, seq } => {
                let _ = (from, seq);
                self.metrics.incr("net.frames_duplicate");
            }
            Inbound::Unintroduced => self.metrics.incr("net.frames_unintroduced"),
            Inbound::AdminDrop { peer } => {
                self.metrics.incr("net.admin_drops");
                if self.metrics.journal_enabled() {
                    let now = self.clock.now();
                    self.metrics
                        .record_event(now, "link.admin_drop", format!("peer={peer}"));
                }
                // The connection redials and replays as if the socket had
                // broken.
                for index in 0..self.links.len() {
                    let link = &mut self.links[index];
                    if !link.peers().contains(&peer) {
                        continue;
                    }
                    if let Some(event) = link.lose("admin-injected drop".into(), false) {
                        self.note_link(index, event);
                    }
                }
            }
            Inbound::Status {
                mut reply,
                events_after,
            } => {
                self.metrics.incr("net.status_requests");
                self.fold_ack_counts();
                let report = self.status_report(events_after);
                // Best effort: a requester that hung up mid-flight loses
                // its own report, nothing else.
                if reply
                    .write_all(&Frame::StatusReport(report).encode_framed())
                    .is_err()
                {
                    self.metrics.incr("net.status_reply_failed");
                }
            }
            Inbound::Trace {
                mut reply,
                spans_after,
            } => {
                self.metrics.incr("net.trace_requests");
                let report = self.trace_report(spans_after);
                if reply
                    .write_all(&Frame::TraceReport(report).encode_framed())
                    .is_err()
                {
                    self.metrics.incr("net.trace_reply_failed");
                }
            }
        }
    }

    /// Books one state transition of outbound connection `index` once —
    /// `net.link_*` counter, journal — and its liveness bookkeeping for
    /// every peer node it carries frames to.
    fn note_link(&mut self, index: usize, event: LinkEvent) {
        let peers = self.links[index].peers();
        let (counter, kind, detail) = match event {
            LinkEvent::Up { resent } => {
                for p in peers.iter().map(|peer| peer.index()) {
                    self.link_up.insert(p, true);
                    if !self.stale_links.contains(&p) {
                        self.down_since.remove(&p);
                    }
                }
                if resent > 0 {
                    self.metrics.add("net.frames_resent", resent as u64);
                }
                ("net.link_up", "link.up", format!("resent={resent}"))
            }
            LinkEvent::Redial { attempt } => {
                for peer in &peers {
                    self.redials.insert(peer.index(), attempt);
                }
                (
                    "net.link_redial",
                    "link.redial",
                    format!("attempt={attempt}"),
                )
            }
            LinkEvent::Down { reason } => {
                ("net.link_down", "link.drop", format!("reason={reason}"))
            }
            LinkEvent::Fenced { expected } => (
                "net.link_fenced",
                "link.fenced",
                format!("expected_epoch={expected} side=writer"),
            ),
            LinkEvent::Failed { reason } => {
                ("net.link_failed", "link.failed", format!("reason={reason}"))
            }
        };
        if matches!(kind, "link.drop" | "link.fenced" | "link.failed") {
            for p in peers.iter().map(|peer| peer.index()) {
                self.link_up.insert(p, false);
                self.down_since.entry(p).or_insert_with(Instant::now);
            }
        }
        self.metrics.incr(counter);
        if self.metrics.journal_enabled() {
            let now = self.clock.now();
            let peers = node_list(&peers);
            self.metrics
                .record_event(now, kind, format!("peer={peers} {detail}"));
        }
    }

    /// Records a wire-hop span when a sampled message crosses a TCP link:
    /// `link.tx` at the sending process, `link.rx` at the receiving one.
    /// Leaf spans — they parent on whatever hop the envelope carries and
    /// nothing parents on them, so the driver needs no wire-format changes
    /// beyond the envelope's own trace tag.
    fn record_link_span(
        &mut self,
        kind: &str,
        broker: u64,
        from: NodeId,
        to: NodeId,
        message: &rebeca_broker::Message,
    ) {
        if !self.metrics.span_enabled() {
            return;
        }
        let Some(ctx) = message.trace_context().filter(|c| c.sampled) else {
            return;
        };
        // High two bits keep driver-minted span ids disjoint from both the
        // broker core's nonce space and the mobility layer's.
        let nonce = self.trace_nonce | (0b11 << 62);
        self.trace_nonce += 1;
        let now = self.clock.now().as_micros();
        self.metrics.record_span(SpanRecord {
            seq: 0,
            trace_id: ctx.trace_id,
            span_id: rebeca_obs::span_id(ctx.trace_id, broker, nonce),
            parent_span: ctx.parent_span,
            broker,
            kind: kind.to_string(),
            start_micros: now,
            end_micros: now,
            detail: format!("from={from} to={to}"),
        });
    }

    /// Builds the trace report this process serves: the retained span
    /// buffer, optionally only past the `spans_after` cursor.
    fn trace_report(&self, spans_after: Option<u64>) -> TraceReport {
        let spans = match spans_after {
            Some(seq) => self.metrics.spans().spans_after(seq).cloned().collect(),
            None => self.metrics.spans().spans().cloned().collect(),
        };
        TraceReport {
            now_micros: self.clock.now().as_micros(),
            spans,
        }
    }

    /// Builds the live status report this process serves: one
    /// [`rebeca_obs::BrokerStatus`] per hosted broker, with real link
    /// liveness, plus the journal tail past `events_after` when requested.
    fn status_report(&self, events_after: Option<u64>) -> StatusReport {
        let now = self.clock.now();
        let mut brokers: Vec<_> = self
            .nodes
            .iter()
            .filter_map(|(&index, node)| match node {
                SystemNode::Broker(broker) => {
                    // One incarnation counter per broker: the process
                    // restart epoch and the WAL generation both count
                    // restarts, so report whichever has seen more.
                    let restart_epoch = self.cfg.epoch.max(broker.machine().generation());
                    Some(broker_status(
                        index as u64,
                        broker,
                        &self.metrics,
                        now,
                        restart_epoch,
                        self.links_of(index),
                    ))
                }
                SystemNode::Client(_) => None,
            })
            .collect();
        brokers.sort_by_key(|b| b.broker);
        let events = match events_after {
            Some(seq) => self.metrics.journal().events_after(seq).cloned().collect(),
            None => Vec::new(),
        };
        StatusReport {
            now_micros: now.as_micros(),
            node_count: self.node_count() as u64,
            brokers,
            events,
        }
    }

    /// Records inbound traffic from a peer, clearing any heartbeat-silence
    /// staleness the moment it speaks again.
    fn mark_alive(&mut self, peer: usize) {
        self.last_seen.insert(peer, Instant::now());
        if self.stale_links.remove(&peer) {
            if self.link_up.get(&peer).copied().unwrap_or(false) {
                self.down_since.remove(&peer);
            }
            if self.metrics.journal_enabled() {
                let now = self.clock.now();
                self.metrics.record_event(
                    now,
                    "link.up",
                    format!("peer={peer} reason=traffic-resumed"),
                );
            }
        }
    }

    /// Heartbeat liveness in both directions, throttled to the heartbeat
    /// cadence.  Outbound: every connected link that has written nothing
    /// for half an interval gets a heartbeat (so a peer hears from a healthy
    /// link at least every 1.5 intervals) — written by the links' single
    /// owner, so one can never interleave with a data flush.  Inbound: a
    /// peer we have not heard from for more than `heartbeat ×
    /// missed_heartbeats` is marked stale until it speaks again.
    fn check_liveness(&mut self) {
        let now = Instant::now();
        if now < self.next_liveness {
            return;
        }
        self.next_liveness = now + self.cfg.heartbeat;
        let idle = self.cfg.heartbeat / 2;
        for index in 0..self.links.len() {
            if let Some(event) = self.links[index].keep_alive(now, idle, &mut self.metrics) {
                self.note_link(index, event);
            }
        }
        let limit = self.cfg.heartbeat * self.cfg.missed_heartbeats;
        let newly_stale: Vec<usize> = self
            .last_seen
            .iter()
            .filter(|(peer, at)| {
                !self.is_local(**peer) && !self.stale_links.contains(*peer) && at.elapsed() > limit
            })
            .map(|(peer, _)| *peer)
            .collect();
        for peer in newly_stale {
            self.stale_links.insert(peer);
            self.down_since.entry(peer).or_insert_with(Instant::now);
            self.metrics.incr("net.link_stale");
            if self.metrics.journal_enabled() {
                let at = self.clock.now();
                self.metrics.record_event(
                    at,
                    "link.drop",
                    format!("peer={peer} reason=heartbeat-silence"),
                );
            }
        }
    }

    /// Link liveness for one hosted broker: its neighbours, with connection
    /// state from the outbound links and freshness from inbound traffic.
    fn links_of(&self, index: usize) -> Vec<LinkStatus> {
        self.neighbours
            .get(&index)
            .map(|neighbours| {
                neighbours
                    .iter()
                    .map(|peer| {
                        let p = peer.index();
                        if self.is_local(p) {
                            // In-process links cannot drop and carry no
                            // heartbeats.
                            LinkStatus {
                                peer: p as u64,
                                connected: true,
                                last_heartbeat_age_ms: None,
                                down_since_ms: None,
                                redial_attempts: 0,
                            }
                        } else {
                            let up = self.link_up.get(&p).copied().unwrap_or(false);
                            let stale = self.stale_links.contains(&p);
                            LinkStatus {
                                peer: p as u64,
                                connected: up && !stale,
                                last_heartbeat_age_ms: self
                                    .last_seen
                                    .get(&p)
                                    .map(|at| at.elapsed().as_millis() as u64),
                                down_since_ms: self
                                    .down_since
                                    .get(&p)
                                    .map(|at| at.elapsed().as_millis() as u64),
                                redial_attempts: self.redials.get(&p).copied().unwrap_or(0),
                            }
                        }
                    })
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Drains everything the reader threads delivered so far, then
    /// re-evaluates heartbeat liveness.
    fn drain_incoming(&mut self) {
        while let Ok(inbound) = self.incoming_rx.try_recv() {
            self.handle_inbound(inbound);
        }
        self.check_liveness();
    }

    /// Writes every connection that took frames since the last flush — one
    /// `write` per connection, however many frames and node pairs the turn
    /// produced.
    fn flush_links(&mut self) {
        let mut dirty = std::mem::take(&mut self.dirty);
        for index in dirty.drain(..) {
            if let Some(event) = self.links[index].flush(&mut self.metrics) {
                self.note_link(index, event);
            }
        }
        self.dirty = dirty;
    }

    /// Leaves the event loop: nothing stays buffered, and the metrics are
    /// complete.
    fn leave_loop(&mut self) {
        self.flush_links();
        self.fold_ack_counts();
    }

    /// Folds the ack counts the helper threads kept into the metrics (they
    /// have no `Metrics` of their own): whenever the loop is left, and
    /// before a status report is built inside it.
    fn fold_ack_counts(&mut self) {
        for (name, counter) in [
            ("net.acks_out", &self.registry.acks_out),
            ("net.acks_in", &self.registry.acks_in),
        ] {
            let n = counter.swap(0, Ordering::Relaxed);
            if n > 0 {
                self.metrics.add(name, n);
            }
        }
    }

    /// The earliest due time over every local pending event.
    fn next_due(&self) -> Option<SimTime> {
        self.pending.values().filter_map(|q| q.next_due()).min()
    }

    /// Routes one harvested send: straight into a local queue, or sequenced
    /// and encoded into the outbound window of the connection to the
    /// peer's process (written at the next flush).  A send to a node this
    /// process has no link to is counted and dropped.
    fn send_from(&mut self, from: usize, to: NodeId, at: SimTime, message: rebeca_broker::Message) {
        let from_id = NodeId::new(from);
        let Some(delay) = self.delays.get(&(from_id, to)) else {
            self.metrics.incr("net.frames_unroutable");
            return;
        };
        let delay = delay.sample(&mut self.rng);
        self.metrics.incr("network.messages");
        if self.is_local(to.index()) {
            let due = self.clamp_local.clamp((from_id, to), at + delay);
            self.pending
                .get_mut(&to.index())
                .expect("local node has a queue")
                .push(
                    due,
                    Incoming::Message {
                        from: from_id,
                        message,
                    },
                );
        } else {
            self.record_link_span("link.tx", from as u64, from_id, to, &message);
            let Some(index) = self.link_for(from, to) else {
                self.metrics.incr("net.frames_unroutable");
                return;
            };
            // A link only refuses a frame when it is closed for good: fenced,
            // or failed (by this very frame, in which case it says so).
            // Transient disconnects never reject sends — the frame waits in
            // the window and leaves with the replay.
            match self.links[index].enqueue(from_id, to, delay.as_micros(), message) {
                Ok(first_unwritten) => {
                    if first_unwritten {
                        self.dirty.push(index);
                    }
                    self.metrics.incr("net.frames_out");
                }
                Err(failed) => {
                    self.metrics.incr("net.frames_dropped");
                    if let Some(event) = failed {
                        self.note_link(index, event);
                    }
                }
            }
        }
    }

    /// Dispatches the earliest due event of node `index`, if any.
    fn dispatch(&mut self, index: usize, now: SimTime) -> bool {
        let Some(pending) = self
            .pending
            .get_mut(&index)
            .and_then(|queue| queue.pop_due(now))
        else {
            return false;
        };
        // A node observes its event no earlier than the event's deadline,
        // even if the loop woke early.
        let at = pending.due.max(now);
        // Move the node and its neighbour list out for the dispatch (no
        // per-event clone) and put both back before routing the harvest.
        let mut node = self
            .nodes
            .remove(&index)
            .expect("dispatch targets a local node");
        let neighbours = self.neighbours.remove(&index).unwrap_or_default();
        let mut ctx = Context::external(at, NodeId::new(index), &neighbours, &mut self.metrics);
        node.handle(&mut ctx, pending.event);
        let (outgoing, timers) = ctx.into_harvest();
        self.nodes.insert(index, node);
        self.neighbours.insert(index, neighbours);
        for (to, message) in outgoing {
            self.send_from(index, to, at, message);
        }
        for (delay, tag) in timers {
            self.pending
                .get_mut(&index)
                .expect("local node has a queue")
                .push(at + delay, Incoming::Timer { tag });
        }
        true
    }

    /// The core event loop: runs until the wall clock reaches `until`.
    fn run_phase(&mut self, until: SimTime) -> u64 {
        let mut processed = 0;
        loop {
            self.drain_incoming();
            let now = self.clock.now();
            if now >= until {
                break;
            }
            // Dispatch everything due across the local nodes.
            let due_node = self
                .pending
                .iter()
                .filter_map(|(&i, q)| q.next_due().map(|due| (due, i)))
                .min();
            if let Some((due, index)) = due_node {
                if due <= now && self.dispatch(index, now) {
                    processed += 1;
                    if processed % FLUSH_EVERY == 0 {
                        self.flush_links();
                    }
                    continue;
                }
            }
            // Nothing due: write what the turn produced, then wait for
            // network traffic, capped by the next local deadline and the
            // phase deadline.
            self.flush_links();
            let wall_now = Instant::now();
            let mut wait = MAX_WAIT;
            if let Some((due, _)) = due_node {
                wait = wait.min(self.clock.to_wall(due).saturating_duration_since(wall_now));
            }
            wait = wait.min(
                self.clock
                    .to_wall(until)
                    .saturating_duration_since(wall_now),
            );
            let wait = wait.max(Duration::from_micros(20));
            let received = self.incoming_rx.recv_timeout(wait);
            match received {
                Ok(inbound) => self.handle_inbound(inbound),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        self.leave_loop();
        processed
    }
}

/// `n1,n2`: how the journal names the peer nodes one connection serves.
fn node_list(nodes: &[NodeId]) -> String {
    let names: Vec<String> = nodes.iter().map(NodeId::to_string).collect();
    names.join(",")
}

impl Driver for TcpDriver {
    fn add_node(&mut self, node: SystemNode) -> NodeId {
        if self.next_node >= self.cfg.endpoints.len() {
            if let Some(base) = self.cfg.first_client_node {
                if self.next_node < base {
                    self.next_node = base;
                }
            }
        }
        let index = self.next_node;
        self.next_node += 1;
        let is_remote_broker = index < self.cfg.endpoints.len() && !self.cfg.local.contains(&index);
        if is_remote_broker {
            self.placeholders.insert(index, node);
        } else {
            self.nodes.insert(index, node);
            self.pending.insert(index, PendingQueue::new());
            self.neighbours.entry(index).or_default();
        }
        NodeId::new(index)
    }

    fn ensure_link(&mut self, a: NodeId, b: NodeId, delay: DelayModel) -> bool {
        if self.delays.contains_key(&(a, b)) {
            return false;
        }
        self.delays.insert((a, b), delay);
        self.delays.insert((b, a), delay);
        for (x, y) in [(a, b), (b, a)] {
            if self.is_local(x.index()) {
                let neighbours = self.neighbours.entry(x.index()).or_default();
                if !neighbours.contains(&y) {
                    neighbours.push(y);
                }
                if !self.is_local(y.index()) {
                    // Dial eagerly when the peer endpoint is already known
                    // (a broker); a client peer's endpoint arrives with its
                    // handshake and the link is created on first send.
                    self.link_for(x.index(), y);
                }
            }
        }
        true
    }

    fn schedule_timer(&mut self, node: NodeId, at: SimTime, tag: u64) {
        let Some(queue) = self.pending.get_mut(&node.index()) else {
            // Timers on remote nodes belong to the hosting process.
            self.metrics.incr("net.timer_misrouted");
            return;
        };
        let due = at.max(self.clock.now());
        queue.push(due, Incoming::Timer { tag });
    }

    fn now(&self) -> SimTime {
        self.clock.now()
    }

    fn step(&mut self) -> bool {
        // Dispatch the earliest pending event directly (waiting up to its
        // deadline) instead of racing a tiny run_phase window against the
        // live wall clock — `while system.step() {}` must never report idle
        // while an event is still queued.  The wait watches the incoming
        // channel, so a network message arriving (and becoming due) before
        // a far-out timer is dispatched first, as under run_until.
        let dispatched = loop {
            self.drain_incoming();
            let Some((due, index)) = self
                .pending
                .iter()
                .filter_map(|(&i, q)| q.next_due().map(|d| (d, i)))
                .min()
            else {
                break false;
            };
            let wall_due = self.clock.to_wall(due);
            let now = Instant::now();
            if wall_due <= now {
                break self.dispatch(index, self.clock.now());
            }
            // Capped by the heartbeat interval: idle links are kept alive
            // from this loop, however far out the next event is.
            let wait = (wall_due - now).min(self.cfg.heartbeat);
            match self.incoming_rx.recv_timeout(wait) {
                // New traffic may carry an earlier due event: re-evaluate.
                Ok(inbound) => self.handle_inbound(inbound),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break false,
            }
        };
        self.leave_loop();
        dispatched
    }

    fn run_until(&mut self, until: SimTime) -> u64 {
        self.run_phase(until)
    }

    fn run_to_idle(&mut self, max_events: u64) -> u64 {
        let mut processed = 0;
        let mut idle_rounds = 0;
        while processed < max_events && idle_rounds < 3 {
            self.drain_incoming();
            match self.next_due() {
                Some(due) => {
                    idle_rounds = 0;
                    // Jump to the next deadline plus a settling window so
                    // cascades of follow-up events drain in one phase.
                    let target = due.max(self.clock.now()) + SimDuration::from_millis(20);
                    processed += self.run_phase(target);
                }
                None => {
                    // Locally idle; give in-flight network traffic a grace
                    // window before concluding the deployment is quiet.
                    idle_rounds += 1;
                    let received = self.incoming_rx.recv_timeout(Duration::from_millis(30));
                    if let Ok(inbound) = received {
                        self.handle_inbound(inbound);
                        idle_rounds = 0;
                    }
                }
            }
        }
        processed
    }

    fn node(&self, id: NodeId) -> &SystemNode {
        self.nodes
            .get(&id.index())
            .or_else(|| self.placeholders.get(&id.index()))
            .expect("node id from add_node")
    }

    fn node_mut(&mut self, id: NodeId) -> &mut SystemNode {
        self.nodes
            .get_mut(&id.index())
            .or_else(|| self.placeholders.get_mut(&id.index()))
            .expect("node id from add_node")
    }

    fn replace_node(&mut self, id: NodeId, node: SystemNode) -> SystemNode {
        let slot = self
            .nodes
            .get_mut(&id.index())
            .or_else(|| self.placeholders.get_mut(&id.index()))
            .expect("node id from add_node");
        std::mem::replace(slot, node)
    }

    fn node_count(&self) -> usize {
        self.nodes.len() + self.placeholders.len()
    }

    fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.metrics
    }

    fn status(&self) -> StatusReport {
        self.status_report(None)
    }
}

impl Drop for TcpDriver {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Dropping the links dismisses their dialers.
        self.links.clear();
        // Wake the acceptor out of its poll loop, then join it; readers
        // notice the flag within their read timeout on their own.
        let _ = TcpStream::connect(self.wake_addr);
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for TcpDriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpDriver")
            .field("listen", &self.advertised)
            .field("local_nodes", &self.nodes.len())
            .field("remote_nodes", &self.placeholders.len())
            .field("connections_out", &self.links.len())
            .field(
                "pending",
                &self.pending.values().map(|q| q.len()).sum::<usize>(),
            )
            .finish()
    }
}

/// Extension trait giving [`SystemBuilder`] a TCP build mode.
///
/// (The method lives here rather than on the builder itself because
/// `rebeca-core` must not depend on the transport crate; importing this
/// trait makes `builder.build_tcp(net)` read exactly like the built-in
/// `build()` / `build_threaded()` modes.)
pub trait SystemBuilderTcp {
    /// Builds the system on a [`TcpDriver`] configured by `net`: brokers
    /// this process hosts run here; all others are reached over TCP.
    fn build_tcp(self, net: NetConfig) -> Result<MobilitySystem, RebecaError>;
}

impl SystemBuilderTcp for SystemBuilder {
    fn build_tcp(self, net: NetConfig) -> Result<MobilitySystem, RebecaError> {
        let driver = TcpDriver::new(net).map_err(|e| RebecaError::Transport(e.to_string()))?;
        self.build_with(Box::new(driver))
    }
}
