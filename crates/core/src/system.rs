//! The deployment facade: a broker network plus clients behind one handle.
//!
//! [`MobilitySystem`] is the public entry point used by applications, the
//! examples, the integration tests and the experiment harness.  It hosts one
//! [`MobileBroker`] per node of a [`Topology`] on a sans-IO
//! [`Driver`](crate::Driver) — the deterministic discrete-event simulator by
//! default, the wall-clock [`ThreadedDriver`](crate::ThreadedDriver) on
//! request — and exposes two ways to run clients:
//!
//! * **interactive sessions** ([`MobilitySystem::connect`] →
//!   [`Session`](crate::Session)): imperative subscribe/publish/move calls
//!   interleaved with [`MobilitySystem::run_until`], with received
//!   notifications polled from a mailbox, so application code can *react*
//!   to deliveries mid-run;
//! * **scripted clients** ([`MobilitySystem::add_client`]): pre-arranged
//!   `(time, action)` scripts, replayed through the same per-client action
//!   queue the sessions use — the scripted path is a thin adapter over the
//!   session machinery.
//!
//! Systems are constructed with [`SystemBuilder`]; every entry point reports
//! bad input as a typed [`RebecaError`] instead of panicking.

use std::collections::BTreeMap;

use rebeca_broker::{BrokerRole, Message};
use rebeca_broker::{ClientId, ConsumerLog};
use rebeca_location::MovementGraph;
use rebeca_mobility::{HandoffLog, LogBackend, PersistenceConfig};
use rebeca_routing::RoutingStrategyKind;
use rebeca_sim::{
    Context, DelayModel, Incoming, Metrics, Node, NodeId, SimDuration, SimTime, Topology,
};

use crate::client::{ClientAction, ClientNode, LogicalMobilityMode};
use crate::driver::{Driver, SimDriver};
use crate::error::RebecaError;
use crate::mobile_broker::{BrokerConfig, MobileBroker, RESYNC_TIMER_TAG};
use crate::session::Session;
use crate::threaded::ThreadedDriver;

/// A node of the deployment: either a broker or a client.
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)] // one node per simulated process; size is irrelevant
pub enum SystemNode {
    /// A mobility-aware broker.
    Broker(MobileBroker),
    /// A client (scripted or session-driven).
    Client(ClientNode),
}

impl Node for SystemNode {
    type Message = Message;

    fn handle(&mut self, ctx: &mut Context<'_, Message>, event: Incoming<Message>) {
        match self {
            SystemNode::Broker(b) => b.handle(ctx, event),
            SystemNode::Client(c) => c.handle(ctx, event),
        }
    }
}

/// Fluent constructor for a [`MobilitySystem`].
///
/// ```
/// use rebeca_core::SystemBuilder;
/// use rebeca_sim::{DelayModel, Topology};
///
/// let system = SystemBuilder::new(&Topology::line(3))
///     .link_delay(DelayModel::constant_millis(5))
///     .seed(42)
///     .build()
///     .expect("non-empty topology");
/// assert_eq!(system.broker_count(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct SystemBuilder {
    topology: Topology,
    config: BrokerConfig,
    link_delay: DelayModel,
    client_link_delay: Option<DelayModel>,
    seed: u64,
}

impl SystemBuilder {
    /// Starts a builder over the given broker topology.
    pub fn new(topology: &Topology) -> Self {
        Self {
            topology: topology.clone(),
            config: BrokerConfig::default(),
            link_delay: DelayModel::default(),
            client_link_delay: None,
            seed: 0,
        }
    }

    /// Replaces the whole broker configuration at once.
    pub fn config(mut self, config: BrokerConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the routing strategy of every broker.
    pub fn strategy(mut self, strategy: RoutingStrategyKind) -> Self {
        self.config.strategy = strategy;
        self
    }

    /// Sets the movement graph over which `ploc` is evaluated.
    pub fn movement_graph(mut self, graph: MovementGraph) -> Self {
        self.config.movement_graph = graph;
        self
    }

    /// Sets the relocation holding-buffer timeout.
    pub fn relocation_timeout(mut self, timeout: SimDuration) -> Self {
        self.config.relocation_timeout = timeout;
        self
    }

    /// Sets where the per-broker write-ahead handoff logs live.
    pub fn persistence(mut self, persistence: PersistenceConfig) -> Self {
        self.config.persistence = persistence;
        self
    }

    /// Persists the per-broker write-ahead logs as files under the given
    /// root directory (shorthand for [`PersistenceConfig::Directory`]).
    pub fn persist_to(mut self, root: impl Into<std::path::PathBuf>) -> Self {
        self.config.persistence = PersistenceConfig::Directory(root.into());
        self
    }

    /// Sets the delay model of broker ↔ broker links.
    pub fn link_delay(mut self, delay: DelayModel) -> Self {
        self.link_delay = delay;
        self
    }

    /// Sets the delay model of client ↔ broker links (defaults to the
    /// broker link delay).
    pub fn client_link_delay(mut self, delay: DelayModel) -> Self {
        self.client_link_delay = Some(delay);
        self
    }

    /// Seeds the random link delays (and, in wall-clock mode, the per-link
    /// delay sampling).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables distributed-trace sampling at the given fraction of
    /// publications (and relocations); 1.0 traces everything.  Sampling is
    /// a deterministic hash, so every broker — on any driver — makes the
    /// same decision for the same publication.
    pub fn trace_sample(mut self, rate: f64) -> Self {
        self.config.trace_sample_per_64k = rebeca_obs::rate_per_64k(rate);
        self
    }

    /// Builds the system on the deterministic discrete-event simulator.
    pub fn build(self) -> Result<MobilitySystem, RebecaError> {
        let driver = Box::new(SimDriver::new(self.seed));
        self.build_with(driver)
    }

    /// Builds the system on the wall-clock
    /// [`ThreadedDriver`](crate::ThreadedDriver): one thread per node, std
    /// channels as links, real `Instant` timers.
    pub fn build_threaded(self) -> Result<MobilitySystem, RebecaError> {
        let driver = Box::new(ThreadedDriver::new(self.seed));
        self.build_with(driver)
    }

    /// Builds the system on any [`Driver`] implementation.
    pub fn build_with(self, mut driver: Box<dyn Driver>) -> Result<MobilitySystem, RebecaError> {
        if self.topology.is_empty() {
            return Err(RebecaError::EmptyTopology);
        }
        let Self {
            topology,
            config,
            link_delay,
            client_link_delay,
            ..
        } = self;

        // First pass: allocate node ids so that broker index i gets NodeId(i).
        let mut wal_backends: Vec<Box<dyn LogBackend>> = Vec::with_capacity(topology.len());
        let broker_nodes: Vec<NodeId> = (0..topology.len())
            .map(|i| {
                let links: Vec<NodeId> = topology
                    .neighbours(i)
                    .into_iter()
                    .map(NodeId::new)
                    .collect();
                let backend = config.persistence.backend_for(i);
                let log = HandoffLog::with_backend(backend.boxed_clone())
                    .checkpoint_every(config.wal_checkpoint_every);
                wal_backends.push(backend);
                driver.add_node(SystemNode::Broker(MobileBroker::with_log(
                    NodeId::new(i),
                    BrokerRole::Border,
                    links,
                    config.clone(),
                    log,
                )))
            })
            .collect();
        for &(a, b) in topology.edges() {
            driver.ensure_link(broker_nodes[a], broker_nodes[b], link_delay);
        }

        Ok(MobilitySystem {
            driver,
            broker_nodes,
            clients: BTreeMap::new(),
            client_link_delay: client_link_delay.unwrap_or(link_delay),
            wal_backends,
        })
    }
}

/// A complete deployment: broker network plus clients, hosted on a sans-IO
/// [`Driver`].
pub struct MobilitySystem {
    driver: Box<dyn Driver>,
    broker_nodes: Vec<NodeId>,
    clients: BTreeMap<ClientId, NodeId>,
    client_link_delay: DelayModel,
    /// Per-broker handles to the write-ahead handoff log backends.  The
    /// handles share storage with the brokers' own backends (the "disk"),
    /// so a crashed broker's log survives and a restarted broker recovers
    /// from it.
    wal_backends: Vec<Box<dyn LogBackend>>,
}

impl MobilitySystem {
    /// Starts a [`SystemBuilder`] over the given topology — the entry point
    /// for constructing a system.
    pub fn builder(topology: &Topology) -> SystemBuilder {
        SystemBuilder::new(topology)
    }

    /// The driver node of broker `index` (the topology numbering).
    pub fn broker_node(&self, index: usize) -> Result<NodeId, RebecaError> {
        self.broker_nodes
            .get(index)
            .copied()
            .ok_or(RebecaError::UnknownBroker {
                index,
                brokers: self.broker_nodes.len(),
            })
    }

    /// Number of brokers.
    pub fn broker_count(&self) -> usize {
        self.broker_nodes.len()
    }

    /// Opens an interactive session: registers client `id`, links it to
    /// broker `broker` (topology index) and attaches it there.  The returned
    /// [`Session`] handle drives the client imperatively, interleaved with
    /// [`MobilitySystem::run_until`] / [`MobilitySystem::step`].
    pub fn connect(&mut self, id: ClientId, broker: usize) -> Result<Session, RebecaError> {
        self.connect_with_mode(id, broker, LogicalMobilityMode::LocationDependent)
    }

    /// Like [`MobilitySystem::connect`], with an explicit logical-mobility
    /// mode for the client.
    pub fn connect_with_mode(
        &mut self,
        id: ClientId,
        broker: usize,
        mode: LogicalMobilityMode,
    ) -> Result<Session, RebecaError> {
        let broker_node = self.broker_node(broker)?;
        let node = self.register_client(id, mode, &[broker])?;
        if let SystemNode::Client(c) = self.driver.node_mut(node) {
            c.enable_mailbox();
        }
        self.enqueue_now(
            id,
            ClientAction::Attach {
                broker: broker_node,
            },
        )?;
        Ok(Session::new(id))
    }

    /// Adds a scripted client — a thin adapter that replays the script
    /// through the same per-client action queue interactive [`Session`]s
    /// use.
    ///
    /// * `reachable_brokers` — topology indices of every broker the client
    ///   will ever attach to (links are created up front; attachment itself
    ///   is a scripted [`ClientAction::Attach`] / [`ClientAction::MoveTo`]).
    /// * `script` — `(time, action)` pairs executed at the given times.
    pub fn add_client(
        &mut self,
        id: ClientId,
        mode: LogicalMobilityMode,
        reachable_brokers: &[usize],
        script: Vec<(SimTime, ClientAction)>,
    ) -> Result<NodeId, RebecaError> {
        // Validate the whole script before mutating anything, so an error
        // never leaves a half-configured client behind.
        for (_, action) in &script {
            if let ClientAction::Attach { broker }
            | ClientAction::MoveTo { broker }
            | ClientAction::NaiveMoveTo { broker, .. } = action
            {
                if broker.index() >= self.broker_nodes.len() {
                    return Err(RebecaError::UnknownBroker {
                        index: broker.index(),
                        brokers: self.broker_nodes.len(),
                    });
                }
            }
        }
        let node = self.register_client(id, mode, reachable_brokers)?;
        for (at, action) in script {
            self.schedule_action_at(id, at, action)?;
        }
        Ok(node)
    }

    /// Creates the client node and its up-front links; shared by the
    /// scripted and interactive paths.
    fn register_client(
        &mut self,
        id: ClientId,
        mode: LogicalMobilityMode,
        reachable_brokers: &[usize],
    ) -> Result<NodeId, RebecaError> {
        if self.clients.contains_key(&id) {
            return Err(RebecaError::DuplicateClient(id));
        }
        let mut links = Vec::with_capacity(reachable_brokers.len());
        for &broker in reachable_brokers {
            links.push(self.broker_node(broker)?);
        }
        let movement_graph = match self.driver.node(self.broker_nodes[0]) {
            SystemNode::Broker(b) => b.config().movement_graph.clone(),
            SystemNode::Client(_) => unreachable!("broker nodes are created first"),
        };
        let node = self.driver.add_node(SystemNode::Client(ClientNode::new(
            id,
            Vec::new(),
            mode,
            movement_graph,
        )));
        for broker_node in links {
            self.driver
                .ensure_link(node, broker_node, self.client_link_delay);
        }
        self.clients.insert(id, node);
        Ok(node)
    }

    /// Appends `action` to the client's queue and schedules its execution at
    /// absolute time `at` (times in the past execute as soon as the driver
    /// runs).  Actions that attach to a broker get their client ↔ broker
    /// link created on demand.
    pub(crate) fn schedule_action_at(
        &mut self,
        id: ClientId,
        at: SimTime,
        action: ClientAction,
    ) -> Result<(), RebecaError> {
        let node = self.client_node_id(id)?;
        if let ClientAction::Attach { broker }
        | ClientAction::MoveTo { broker }
        | ClientAction::NaiveMoveTo { broker, .. } = &action
        {
            if broker.index() >= self.broker_nodes.len() {
                return Err(RebecaError::UnknownBroker {
                    index: broker.index(),
                    brokers: self.broker_nodes.len(),
                });
            }
            self.driver
                .ensure_link(node, *broker, self.client_link_delay);
        }
        let tag = match self.driver.node_mut(node) {
            SystemNode::Client(c) => c.enqueue(action),
            SystemNode::Broker(_) => return Err(RebecaError::NotAClient(id)),
        };
        self.driver.schedule_timer(node, at, tag);
        Ok(())
    }

    /// Appends `action` to the client's queue for execution at the current
    /// time (the interactive path behind every [`Session`] method).
    pub(crate) fn enqueue_now(
        &mut self,
        id: ClientId,
        action: ClientAction,
    ) -> Result<(), RebecaError> {
        let now = self.driver.now();
        self.schedule_action_at(id, now, action)
    }

    /// Drains the client's mailbox of deliveries received since the last
    /// drain (the implementation behind
    /// [`Session::poll_deliveries`](crate::Session::poll_deliveries)).
    pub(crate) fn drain_client_deliveries(
        &mut self,
        id: ClientId,
    ) -> Result<Vec<rebeca_broker::Delivery>, RebecaError> {
        let node = self.client_node_id(id)?;
        match self.driver.node_mut(node) {
            SystemNode::Client(c) => Ok(c.drain_deliveries()),
            SystemNode::Broker(_) => Err(RebecaError::NotAClient(id)),
        }
    }

    fn client_node_id(&self, id: ClientId) -> Result<NodeId, RebecaError> {
        self.clients
            .get(&id)
            .copied()
            .ok_or(RebecaError::UnknownClient(id))
    }

    /// Runs the deployment until the given time (virtual under the
    /// simulator, elapsed wall time under a wall-clock driver).  Returns the
    /// number of events processed.
    pub fn run_until(&mut self, until: SimTime) -> u64 {
        self.driver.run_until(until)
    }

    /// Processes a single due event (a minimal forward step on wall-clock
    /// drivers).  Returns `false` when nothing was pending.
    pub fn step(&mut self) -> bool {
        self.driver.step()
    }

    /// Runs until no further events are pending (clients stop publishing and
    /// all in-flight messages are drained), with an event budget as a safety
    /// net.  On wall-clock drivers this sleeps through real timer gaps;
    /// prefer [`MobilitySystem::run_until`] there.
    pub fn run_to_idle(&mut self, max_events: u64) -> u64 {
        self.driver.run_to_idle(max_events)
    }

    /// The driver's current time.
    pub fn now(&self) -> SimTime {
        self.driver.now()
    }

    /// The global metrics store.
    pub fn metrics(&self) -> &Metrics {
        self.driver.metrics()
    }

    /// Mutable access to the global metrics (for time-series sampling from
    /// experiment drivers).
    pub fn metrics_mut(&mut self) -> &mut Metrics {
        self.driver.metrics_mut()
    }

    /// A live status report over every hosted broker (routing table size,
    /// WAL depth, restart epoch, relocation activity, link liveness) — the
    /// same shape `rebeca-ctl status` reads from a TCP cluster, answered
    /// here from the driver's in-process state.
    pub fn status(&self) -> rebeca_obs::StatusReport {
        self.driver.status()
    }

    /// Total number of messages transmitted over links so far (notifications
    /// plus administrative messages), the quantity plotted in Figure 9.
    pub fn total_messages(&self) -> u64 {
        self.driver.metrics().counter("network.messages")
    }

    /// Crashes broker `index` and immediately restarts it from its
    /// write-ahead handoff log, as a quickly rebooting process would: every
    /// in-memory state of the broker is discarded, then the consumer-side
    /// state (virtual counterparts, recovered client records and their
    /// subscriptions, sequence watermarks, unresolved relocation holdings)
    /// is reconstructed from the surviving log.  Links and in-flight
    /// messages addressed to the broker are untouched; recovered relocation
    /// holdings get their timeout re-armed from the current time.  Routing
    /// state is soft: a timer at the current time makes the restarted
    /// broker send a `Resync` on every broker link, and each neighbour
    /// replaces what it holds from it and answers with what it holds as
    /// sent to it.  Returns the crashed broker state (e.g. for post-mortem
    /// assertions).
    pub fn crash_and_restart_broker(&mut self, index: usize) -> Result<MobileBroker, RebecaError> {
        let node_id = self.broker_node(index)?;
        let (role, links, config) = match self.driver.node(node_id) {
            SystemNode::Broker(b) => (
                b.core().role(),
                b.core().broker_links().to_vec(),
                b.config().clone(),
            ),
            SystemNode::Client(_) => unreachable!("broker index maps to a broker node"),
        };
        let log = HandoffLog::with_backend(self.wal_backends[index].boxed_clone())
            .checkpoint_every(config.wal_checkpoint_every);
        let relocation_timeout = config.relocation_timeout;
        let (restarted, recovered_tags) = MobileBroker::recover(node_id, role, links, config, log);
        let now = self.driver.now();
        restarted.note_recovery(self.driver.metrics_mut(), now);
        let old = match self
            .driver
            .replace_node(node_id, SystemNode::Broker(restarted))
        {
            SystemNode::Broker(b) => b,
            SystemNode::Client(_) => unreachable!("broker index maps to a broker node"),
        };
        let rearm_at = now + relocation_timeout;
        for tag in recovered_tags {
            self.driver.schedule_timer(node_id, rearm_at, tag);
        }
        self.driver.schedule_timer(node_id, now, RESYNC_TIMER_TAG);
        self.driver.metrics_mut().incr("mobility.broker_restart");
        Ok(old)
    }

    /// A durable handle to the write-ahead log backend of broker `index`
    /// (shares storage with the broker's own backend).
    pub fn wal_backend(&self, index: usize) -> Result<Box<dyn LogBackend>, RebecaError> {
        self.wal_backends
            .get(index)
            .map(|b| b.boxed_clone())
            .ok_or(RebecaError::UnknownBroker {
                index,
                brokers: self.broker_nodes.len(),
            })
    }

    /// Read access to a broker by topology index.
    pub fn broker(&self, index: usize) -> Result<&MobileBroker, RebecaError> {
        let node = self.broker_node(index)?;
        match self.driver.node(node) {
            SystemNode::Broker(b) => Ok(b),
            SystemNode::Client(_) => unreachable!("broker index maps to a broker node"),
        }
    }

    /// Read access to a client.
    pub fn client(&self, id: ClientId) -> Result<&ClientNode, RebecaError> {
        let node = self.client_node_id(id)?;
        match self.driver.node(node) {
            SystemNode::Client(c) => Ok(c),
            SystemNode::Broker(_) => Err(RebecaError::NotAClient(id)),
        }
    }

    /// The delivery log of a client.
    pub fn client_log(&self, id: ClientId) -> Result<&ConsumerLog, RebecaError> {
        Ok(self.client(id)?.log())
    }

    /// Ids of all clients added to the system.
    pub fn client_ids(&self) -> impl Iterator<Item = ClientId> + '_ {
        self.clients.keys().copied()
    }
}

impl std::fmt::Debug for MobilitySystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MobilitySystem")
            .field("brokers", &self.broker_nodes.len())
            .field("clients", &self.clients.len())
            .field("now", &self.driver.now())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rebeca_filter::{Constraint, Filter, Notification};
    use rebeca_location::MovementGraph;
    use rebeca_routing::RoutingStrategyKind;

    fn parking_filter() -> Filter {
        Filter::new().with("service", Constraint::Eq("parking".into()))
    }

    fn vacancy(seq: i64) -> Notification {
        Notification::builder()
            .attr("service", "parking")
            .attr("spot", seq)
            .build()
    }

    fn config() -> BrokerConfig {
        BrokerConfig::default()
            .with_strategy(RoutingStrategyKind::Covering)
            .with_movement_graph(MovementGraph::paper_example())
            .with_relocation_timeout(SimDuration::from_secs(5))
    }

    fn system(topology: &Topology, delay_millis: u64, seed: u64) -> MobilitySystem {
        SystemBuilder::new(topology)
            .config(config())
            .link_delay(DelayModel::constant_millis(delay_millis))
            .seed(seed)
            .build()
            .expect("valid topology")
    }

    /// Static scenario: a consumer at broker 0 and a producer at broker 2 of
    /// a 3-broker line; every publication must arrive exactly once, in order.
    #[test]
    fn static_end_to_end_delivery_over_a_line() {
        let topo = Topology::line(3);
        let mut sys = system(&topo, 5, 1);

        let consumer = ClientId::new(1);
        let producer = ClientId::new(2);
        sys.add_client(
            consumer,
            LogicalMobilityMode::LocationDependent,
            &[0],
            vec![
                (
                    SimTime::from_millis(1),
                    ClientAction::Attach {
                        broker: sys.broker_node(0).unwrap(),
                    },
                ),
                (
                    SimTime::from_millis(2),
                    ClientAction::Subscribe(parking_filter()),
                ),
            ],
        )
        .unwrap();
        let mut script = vec![(
            SimTime::from_millis(1),
            ClientAction::Attach {
                broker: sys.broker_node(2).unwrap(),
            },
        )];
        for i in 0..10 {
            script.push((
                SimTime::from_millis(100 + i * 10),
                ClientAction::Publish(vacancy(i as i64)),
            ));
        }
        sys.add_client(
            producer,
            LogicalMobilityMode::LocationDependent,
            &[2],
            script,
        )
        .unwrap();

        sys.run_until(SimTime::from_secs(2));

        let log = sys.client_log(consumer).unwrap();
        assert!(log.is_clean(), "violations: {:?}", log.violations());
        assert_eq!(log.len(), 10);
        assert_eq!(
            log.distinct_publisher_seqs(producer),
            (1..=10).collect::<Vec<u64>>()
        );
    }

    /// The same scenario driven through interactive sessions instead of
    /// scripts: imperative calls interleaved with `run_until`, and the
    /// mailbox drains every delivery.
    #[test]
    fn interactive_sessions_deliver_end_to_end() {
        let topo = Topology::line(3);
        let mut sys = system(&topo, 5, 1);

        let consumer = sys.connect(ClientId::new(1), 0).unwrap();
        consumer.subscribe(&mut sys, parking_filter()).unwrap();
        let producer = sys.connect(ClientId::new(2), 2).unwrap();
        sys.run_until(SimTime::from_millis(50));

        for i in 0..10 {
            producer.publish(&mut sys, vacancy(i)).unwrap();
        }
        sys.run_until(SimTime::from_millis(200));

        let polled = consumer.poll_deliveries(&mut sys).unwrap();
        assert_eq!(polled.len(), 10);
        assert!(polled
            .iter()
            .zip(1..)
            .all(|(d, seq)| d.envelope.publisher_seq == seq));
        // The mailbox drains: polling again yields nothing new.
        assert!(consumer.poll_deliveries(&mut sys).unwrap().is_empty());
        assert!(sys.client_log(consumer.client()).unwrap().is_clean());
    }

    /// A session can relocate mid-run with the usual guarantees.
    #[test]
    fn session_relocation_is_lossless() {
        let topo = Topology::line(3);
        let mut sys = system(&topo, 5, 1);

        let consumer = sys.connect(ClientId::new(1), 0).unwrap();
        consumer.subscribe(&mut sys, parking_filter()).unwrap();
        let producer = sys.connect(ClientId::new(2), 2).unwrap();
        sys.run_until(SimTime::from_millis(50));

        for i in 0..5 {
            producer.publish(&mut sys, vacancy(i)).unwrap();
        }
        sys.run_until(SimTime::from_millis(100));
        consumer.move_to(&mut sys, 1).unwrap();
        for i in 5..10 {
            producer.publish(&mut sys, vacancy(i)).unwrap();
        }
        sys.run_until(SimTime::from_secs(6));

        let log = sys.client_log(consumer.client()).unwrap();
        assert!(log.is_clean(), "violations: {:?}", log.violations());
        assert_eq!(
            log.distinct_publisher_seqs(producer.client()),
            (1..=10).collect::<Vec<u64>>()
        );
    }

    /// The same scenario under flooding routing: delivery is identical (the
    /// flooding baseline over-transmits but the border broker still filters
    /// for its local client).
    #[test]
    fn flooding_strategy_delivers_the_same_notifications() {
        let topo = Topology::line(3);
        let mut sys = SystemBuilder::new(&topo)
            .config(config())
            .strategy(RoutingStrategyKind::Flooding)
            .link_delay(DelayModel::constant_millis(5))
            .seed(1)
            .build()
            .unwrap();

        let consumer = ClientId::new(1);
        let producer = ClientId::new(2);
        sys.add_client(
            consumer,
            LogicalMobilityMode::LocationDependent,
            &[0],
            vec![
                (
                    SimTime::from_millis(1),
                    ClientAction::Attach {
                        broker: sys.broker_node(0).unwrap(),
                    },
                ),
                (
                    SimTime::from_millis(2),
                    ClientAction::Subscribe(parking_filter()),
                ),
            ],
        )
        .unwrap();
        sys.add_client(
            producer,
            LogicalMobilityMode::LocationDependent,
            &[1],
            vec![
                (
                    SimTime::from_millis(1),
                    ClientAction::Attach {
                        broker: sys.broker_node(1).unwrap(),
                    },
                ),
                (SimTime::from_millis(100), ClientAction::Publish(vacancy(1))),
                (SimTime::from_millis(110), ClientAction::Publish(vacancy(2))),
            ],
        )
        .unwrap();
        sys.run_until(SimTime::from_secs(1));
        assert_eq!(sys.client_log(consumer).unwrap().len(), 2);
        assert!(sys.client_log(consumer).unwrap().is_clean());
    }

    /// A consumer without a matching subscription receives nothing.
    #[test]
    fn unrelated_subscriptions_receive_nothing() {
        let topo = Topology::line(2);
        let mut sys = system(&topo, 5, 1);
        let consumer = ClientId::new(1);
        let producer = ClientId::new(2);
        sys.add_client(
            consumer,
            LogicalMobilityMode::LocationDependent,
            &[0],
            vec![
                (
                    SimTime::from_millis(1),
                    ClientAction::Attach {
                        broker: sys.broker_node(0).unwrap(),
                    },
                ),
                (
                    SimTime::from_millis(2),
                    ClientAction::Subscribe(
                        Filter::new().with("service", Constraint::Eq("weather".into())),
                    ),
                ),
            ],
        )
        .unwrap();
        sys.add_client(
            producer,
            LogicalMobilityMode::LocationDependent,
            &[1],
            vec![
                (
                    SimTime::from_millis(1),
                    ClientAction::Attach {
                        broker: sys.broker_node(1).unwrap(),
                    },
                ),
                (SimTime::from_millis(100), ClientAction::Publish(vacancy(1))),
            ],
        )
        .unwrap();
        sys.run_until(SimTime::from_secs(1));
        assert!(sys.client_log(consumer).unwrap().is_empty());
        assert_eq!(sys.client(producer).unwrap().published(), 1);
    }

    /// System accessors behave as documented.
    #[test]
    fn accessors_expose_brokers_and_clients() {
        let topo = Topology::star(3);
        let mut sys = system(&topo, 1, 7);
        assert_eq!(sys.broker_count(), 4);
        let c = ClientId::new(9);
        sys.add_client(
            c,
            LogicalMobilityMode::LocationDependent,
            &[1],
            vec![(
                SimTime::from_millis(1),
                ClientAction::Attach {
                    broker: sys.broker_node(1).unwrap(),
                },
            )],
        )
        .unwrap();
        sys.run_until(SimTime::from_millis(50));
        assert_eq!(sys.client(c).unwrap().id(), c);
        assert_eq!(sys.client_ids().collect::<Vec<_>>(), vec![c]);
        assert_eq!(sys.broker(0).unwrap().core().id(), NodeId::new(0));
        assert!(sys.total_messages() >= 1);
        assert!(sys.now() >= SimTime::from_millis(50));
    }

    /// Every entry point reports bad input as a typed error, never a panic.
    #[test]
    fn bad_input_yields_typed_errors() {
        let topo = Topology::line(2);
        let mut sys = system(&topo, 1, 1);

        assert_eq!(
            SystemBuilder::new(&Topology::line(0)).build().unwrap_err(),
            RebecaError::EmptyTopology
        );
        assert!(matches!(
            sys.broker_node(7),
            Err(RebecaError::UnknownBroker { index: 7, .. })
        ));
        assert!(matches!(
            sys.broker(9),
            Err(RebecaError::UnknownBroker { .. })
        ));
        assert!(matches!(
            sys.crash_and_restart_broker(5),
            Err(RebecaError::UnknownBroker { .. })
        ));
        assert!(matches!(
            sys.wal_backend(5),
            Err(RebecaError::UnknownBroker { .. })
        ));
        assert_eq!(
            sys.client_log(ClientId::new(3)).unwrap_err(),
            RebecaError::UnknownClient(ClientId::new(3))
        );
        assert!(matches!(
            sys.add_client(
                ClientId::new(1),
                LogicalMobilityMode::LocationDependent,
                &[9],
                Vec::new()
            ),
            Err(RebecaError::UnknownBroker { index: 9, .. })
        ));
        assert!(matches!(
            sys.connect(ClientId::new(1), 9),
            Err(RebecaError::UnknownBroker { .. })
        ));
        let session = sys.connect(ClientId::new(1), 0).unwrap();
        assert_eq!(
            sys.connect(ClientId::new(1), 1).unwrap_err(),
            RebecaError::DuplicateClient(ClientId::new(1))
        );
        assert!(matches!(
            session.move_to(&mut sys, 42),
            Err(RebecaError::UnknownBroker { .. })
        ));
    }

    /// A rejected `add_client` leaves no trace: the same id can be re-added
    /// with a corrected script (registration is atomic on error).
    #[test]
    fn failed_add_client_leaves_no_half_configured_client() {
        let topo = Topology::line(2);
        let mut sys = system(&topo, 1, 1);
        let id = ClientId::new(4);
        let bad = vec![
            (
                SimTime::from_millis(1),
                ClientAction::Attach {
                    broker: sys.broker_node(0).unwrap(),
                },
            ),
            (
                SimTime::from_millis(2),
                ClientAction::Attach {
                    broker: NodeId::new(99),
                },
            ),
        ];
        assert!(matches!(
            sys.add_client(id, LogicalMobilityMode::LocationDependent, &[0], bad),
            Err(RebecaError::UnknownBroker { index: 99, .. })
        ));
        // The failed call registered nothing...
        assert_eq!(sys.client_ids().count(), 0);
        assert!(matches!(sys.client(id), Err(RebecaError::UnknownClient(_))));
        // ...so the corrected retry succeeds.
        sys.add_client(
            id,
            LogicalMobilityMode::LocationDependent,
            &[0],
            vec![(
                SimTime::from_millis(1),
                ClientAction::Attach {
                    broker: sys.broker_node(0).unwrap(),
                },
            )],
        )
        .unwrap();
        sys.run_until(SimTime::from_millis(10));
        assert_eq!(sys.client(id).unwrap().id(), id);
    }

    /// Scripted clients do not accumulate mailbox copies (only interactive
    /// sessions buffer for polling), so long scripted runs stay lean.
    #[test]
    fn scripted_clients_do_not_buffer_a_mailbox() {
        let topo = Topology::line(2);
        let mut sys = system(&topo, 1, 1);
        sys.add_client(
            ClientId::new(1),
            LogicalMobilityMode::LocationDependent,
            &[0],
            vec![
                (
                    SimTime::from_millis(1),
                    ClientAction::Attach {
                        broker: sys.broker_node(0).unwrap(),
                    },
                ),
                (
                    SimTime::from_millis(2),
                    ClientAction::Subscribe(parking_filter()),
                ),
            ],
        )
        .unwrap();
        let producer = sys.connect(ClientId::new(2), 1).unwrap();
        sys.run_until(SimTime::from_millis(20));
        producer.publish(&mut sys, vacancy(1)).unwrap();
        sys.run_until(SimTime::from_millis(200));

        // The log recorded the delivery, but no mailbox copy was kept.
        assert_eq!(sys.client_log(ClientId::new(1)).unwrap().len(), 1);
        assert!(sys
            .drain_client_deliveries(ClientId::new(1))
            .unwrap()
            .is_empty());
    }
}
