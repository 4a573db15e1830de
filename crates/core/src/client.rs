//! Simulated clients: scripted producers and consumers, including roaming
//! (physically mobile) and location-aware (logically mobile) ones.
//!
//! A [`ClientNode`] executes a script of [`ClientAction`]s at pre-arranged
//! virtual times (the experiment driver schedules one timer per action).  It
//! records every delivery in a [`ConsumerLog`], which the tests and the
//! experiment harness use to check the paper's quality-of-service
//! requirements (completeness, no duplicates, sender-FIFO order) and to
//! measure blackout periods.

use rebeca_broker::{ClientId, ConsumerLog, Delivery, Message, SubscriptionId};
use rebeca_filter::{Filter, LocationDependentFilter, Notification};
use rebeca_location::{AdaptivityPlan, LocationId, MovementGraph};
use rebeca_sim::{Context, Incoming, Node, NodeId, SimTime};

/// How a consumer reacts to its own movement through the location space.
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalMobilityMode {
    /// Use the paper's location-dependent subscriptions: the middleware keeps
    /// the per-hop filters aligned (Section 5); the client only announces its
    /// new location.
    LocationDependent,
    /// The trivial baseline: the *application* reacts to each move by
    /// unsubscribing from the old location filter and subscribing to the new
    /// one with ordinary administration messages (Figure 3a — exhibits a
    /// blackout of about `2·t_d`).
    ManualSubUnsub {
        /// How many movement-graph hops around the current location the
        /// manually managed subscription covers.
        vicinity: usize,
    },
}

/// One scripted step of a client.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientAction {
    /// Attach to a border broker.
    Attach {
        /// The broker node to attach to.
        broker: NodeId,
    },
    /// Detach from the current border broker (explicit sign-off).  The
    /// broker keeps a virtual counterpart buffering for the client, so a
    /// later [`ClientAction::MoveTo`] resumes the stream without loss.
    Detach,
    /// Issue a plain (location-independent) subscription.
    Subscribe(Filter),
    /// Issue a time-aware subscription: like [`ClientAction::Subscribe`],
    /// but the border broker additionally replays retained publications
    /// with a timestamp at or after the given instant (micros), merged
    /// exactly once and in order with live traffic.  The client echoes the
    /// last delivery sequence number it received for this filter, exactly
    /// like a relocation re-subscription.
    SubscribeSince(Filter, u64),
    /// Retract a plain subscription.
    Unsubscribe(Filter),
    /// Publish one notification.
    Publish(Notification),
    /// Physically move to a different border broker using the paper's
    /// relocation protocol: the old broker observes the connection drop, the
    /// client re-subscribes at the new broker with the last received
    /// sequence number per subscription.
    MoveTo {
        /// The new border broker.
        broker: NodeId,
    },
    /// Physically move using the naive hand-off of Section 3.2 (no replay,
    /// no buffering): optionally sign off at the old broker, then subscribe
    /// from scratch at the new one.  Exhibits the lost/duplicated
    /// notifications of Figure 2.
    NaiveMoveTo {
        /// The new border broker.
        broker: NodeId,
        /// Whether the client manages to unsubscribe/detach at the old broker
        /// before leaving (often impossible in practice, as the paper notes).
        sign_off: bool,
    },
    /// Issue a location-dependent subscription (Section 5) with the given
    /// template, adaptivity plan and initial location.
    LocSubscribe {
        /// The subscription template (contains `myloc` markers).
        template: LocationDependentFilter,
        /// The adaptivity plan assigning uncertainty steps to hops.
        plan: AdaptivityPlan,
        /// The client's location at subscription time.
        location: LocationId,
    },
    /// Retract a previously issued location-dependent subscription, addressed
    /// by the order in which the client issued them (the first
    /// [`ClientAction::LocSubscribe`] has index 0).
    LocUnsubscribe {
        /// Index of the location-dependent subscription to retract.
        index: u32,
    },
    /// Announce a new location (logical mobility).  Behaviour depends on the
    /// client's [`LogicalMobilityMode`].
    SetLocation(LocationId),
}

/// A scripted client (producer, consumer, or both).
#[derive(Debug, Clone)]
pub struct ClientNode {
    id: ClientId,
    script: Vec<ClientAction>,
    mode: LogicalMobilityMode,
    movement_graph: MovementGraph,
    broker: Option<NodeId>,
    subscriptions: Vec<Filter>,
    loc_subs: Vec<(SubscriptionId, LocationDependentFilter, AdaptivityPlan)>,
    manual_loc_filter: Option<(LocationDependentFilter, Filter)>,
    location: Option<LocationId>,
    log: ConsumerLog,
    delivery_times: Vec<(SimTime, u64)>,
    /// Deliveries received since the last [`ClientNode::drain_deliveries`]
    /// call — the application-facing mailbox behind
    /// [`Session::poll_deliveries`](crate::Session::poll_deliveries).
    /// Only filled while `mailbox` is on (interactive clients): scripted
    /// clients never poll, and buffering for them would grow without bound.
    pending: Vec<Delivery>,
    mailbox: bool,
    published: u64,
    next_sub_index: u32,
}

impl ClientNode {
    /// Creates a client with the given identity, script and logical-mobility
    /// mode.  The movement graph is needed to instantiate `myloc` filters in
    /// the manual baseline mode (and mirrors the graph configured on the
    /// brokers).
    pub fn new(
        id: ClientId,
        script: Vec<ClientAction>,
        mode: LogicalMobilityMode,
        movement_graph: MovementGraph,
    ) -> Self {
        Self {
            id,
            script,
            mode,
            movement_graph,
            broker: None,
            subscriptions: Vec::new(),
            loc_subs: Vec::new(),
            manual_loc_filter: None,
            location: None,
            log: ConsumerLog::new(),
            delivery_times: Vec::new(),
            pending: Vec::new(),
            mailbox: false,
            published: 0,
            next_sub_index: 0,
        }
    }

    /// Turns the poll mailbox on: deliveries are additionally buffered until
    /// [`ClientNode::drain_deliveries`] collects them.  Enabled by the
    /// interactive [`Session`](crate::Session) path; scripted clients leave
    /// it off (they are read through [`ClientNode::log`]).
    pub fn enable_mailbox(&mut self) {
        self.mailbox = true;
    }

    /// Appends an action to the client's action queue and returns the timer
    /// tag that executes it.  The deployment facade schedules a timer with
    /// this tag — immediately for interactive [`Session`](crate::Session)
    /// operations, at the scripted virtual time for the scripted adapter
    /// (both paths replay through the same queue).
    pub fn enqueue(&mut self, action: ClientAction) -> u64 {
        self.script.push(action);
        (self.script.len() - 1) as u64
    }

    /// Drains every delivery received since the previous drain, in arrival
    /// order.
    pub fn drain_deliveries(&mut self) -> Vec<Delivery> {
        std::mem::take(&mut self.pending)
    }

    /// The client's identity.
    pub fn id(&self) -> ClientId {
        self.id
    }

    /// The delivery log recorded so far.
    pub fn log(&self) -> &ConsumerLog {
        &self.log
    }

    /// Virtual arrival time and publisher sequence number of every delivery,
    /// in arrival order (used to measure blackout periods for Figure 3).
    pub fn delivery_times(&self) -> &[(SimTime, u64)] {
        &self.delivery_times
    }

    /// Number of notifications this client has published.
    pub fn published(&self) -> u64 {
        self.published
    }

    /// The broker the client is currently attached to.
    pub fn current_broker(&self) -> Option<NodeId> {
        self.broker
    }

    /// The client's current location (if it ever announced one).
    pub fn current_location(&self) -> Option<LocationId> {
        self.location
    }

    fn send_to_broker(&self, ctx: &mut Context<'_, Message>, message: Message) {
        if let Some(broker) = self.broker {
            ctx.send(broker, message);
        }
    }

    fn instantiate_manual(
        &self,
        template: &LocationDependentFilter,
        vicinity: usize,
        location: LocationId,
    ) -> Filter {
        let locations = self
            .movement_graph
            .ploc(location, vicinity)
            .into_iter()
            .map(|l| l.raw());
        template.instantiate(locations)
    }

    fn execute(&mut self, action: ClientAction, ctx: &mut Context<'_, Message>) {
        match action {
            ClientAction::Attach { broker } => {
                self.broker = Some(broker);
                ctx.send(broker, Message::Attach { client: self.id });
            }
            ClientAction::Detach => {
                if let Some(old) = self.broker.take() {
                    ctx.send(old, Message::Detach { client: self.id });
                }
            }
            ClientAction::Subscribe(filter) => {
                if !self.subscriptions.contains(&filter) {
                    self.subscriptions.push(filter.clone());
                }
                self.send_to_broker(
                    ctx,
                    Message::Subscribe {
                        subscriber: self.id,
                        filter,
                    },
                );
            }
            ClientAction::SubscribeSince(filter, since_micros) => {
                if !self.subscriptions.contains(&filter) {
                    self.subscriptions.push(filter.clone());
                }
                let last_seq = self.log.last_seq(&filter);
                self.send_to_broker(
                    ctx,
                    Message::SubscribeSince {
                        subscriber: self.id,
                        filter,
                        since_micros,
                        last_seq,
                    },
                );
            }
            ClientAction::Unsubscribe(filter) => {
                self.subscriptions.retain(|f| f != &filter);
                self.send_to_broker(
                    ctx,
                    Message::Unsubscribe {
                        subscriber: self.id,
                        filter,
                    },
                );
            }
            ClientAction::Publish(notification) => {
                self.published += 1;
                self.send_to_broker(
                    ctx,
                    Message::Publish {
                        publisher: self.id,
                        notification,
                    },
                );
            }
            ClientAction::MoveTo { broker } => {
                // The old border broker observes the connection drop (it is
                // not an application-level sign-off) and starts buffering.
                if let Some(old) = self.broker {
                    ctx.send(old, Message::Detach { client: self.id });
                }
                self.broker = Some(broker);
                // Reactive re-subscription at the new broker with the last
                // received sequence number per subscription; a `ReSubscribe`
                // attaches the client there, so without one it attaches
                // explicitly.
                if self.subscriptions.is_empty() {
                    ctx.send(broker, Message::Attach { client: self.id });
                }
                for filter in self.subscriptions.clone() {
                    let last_seq = self.log.last_seq(&filter);
                    ctx.metrics().incr("client.resubscribe");
                    ctx.send(
                        broker,
                        Message::ReSubscribe {
                            client: self.id,
                            filter,
                            last_seq,
                        },
                    );
                }
                // Integration of logical and physical mobility (sketched as
                // future work in the paper's conclusion): location-dependent
                // subscriptions are re-issued at the new border broker so the
                // client keeps receiving location-relevant notifications
                // after roaming.  Buffering/replay does not apply to them.
                if let Some(location) = self.location {
                    for (sub_id, template, plan) in self.loc_subs.clone() {
                        ctx.metrics().incr("client.loc_resubscribe");
                        ctx.send(
                            broker,
                            Message::LocSubscribe {
                                sub_id,
                                template,
                                plan,
                                location,
                                hop: 0,
                            },
                        );
                    }
                }
            }
            ClientAction::NaiveMoveTo { broker, sign_off } => {
                if sign_off {
                    if let Some(old) = self.broker {
                        for filter in self.subscriptions.clone() {
                            ctx.send(
                                old,
                                Message::Unsubscribe {
                                    subscriber: self.id,
                                    filter,
                                },
                            );
                        }
                        ctx.send(old, Message::Detach { client: self.id });
                    }
                }
                self.broker = Some(broker);
                ctx.send(broker, Message::Attach { client: self.id });
                for filter in self.subscriptions.clone() {
                    ctx.send(
                        broker,
                        Message::Subscribe {
                            subscriber: self.id,
                            filter,
                        },
                    );
                }
            }
            ClientAction::LocSubscribe {
                template,
                plan,
                location,
            } => {
                self.location = Some(location);
                match self.mode.clone() {
                    LogicalMobilityMode::LocationDependent => {
                        let sub_id = SubscriptionId::new(self.id, self.next_sub_index);
                        self.next_sub_index += 1;
                        self.loc_subs.push((sub_id, template.clone(), plan.clone()));
                        self.send_to_broker(
                            ctx,
                            Message::LocSubscribe {
                                sub_id,
                                template,
                                plan,
                                location,
                                hop: 0,
                            },
                        );
                    }
                    LogicalMobilityMode::ManualSubUnsub { vicinity } => {
                        let filter = self.instantiate_manual(&template, vicinity, location);
                        self.manual_loc_filter = Some((template, filter.clone()));
                        if !self.subscriptions.contains(&filter) {
                            self.subscriptions.push(filter.clone());
                        }
                        self.send_to_broker(
                            ctx,
                            Message::Subscribe {
                                subscriber: self.id,
                                filter,
                            },
                        );
                    }
                }
            }
            ClientAction::LocUnsubscribe { index } => {
                let sub_id = SubscriptionId::new(self.id, index);
                if let Some(pos) = self.loc_subs.iter().position(|(id, _, _)| *id == sub_id) {
                    self.loc_subs.remove(pos);
                    self.send_to_broker(ctx, Message::LocUnsubscribe { sub_id });
                } else if let LogicalMobilityMode::ManualSubUnsub { .. } = self.mode {
                    // In the manual baseline the "location-dependent"
                    // subscription is an ordinary filter; retract that.
                    if let Some((_, filter)) = self.manual_loc_filter.take() {
                        self.subscriptions.retain(|f| f != &filter);
                        self.send_to_broker(
                            ctx,
                            Message::Unsubscribe {
                                subscriber: self.id,
                                filter,
                            },
                        );
                    }
                }
            }
            ClientAction::SetLocation(location) => {
                self.location = Some(location);
                match self.mode.clone() {
                    LogicalMobilityMode::LocationDependent => {
                        for (sub_id, _, _) in self.loc_subs.clone() {
                            ctx.metrics().incr("client.location_update");
                            self.send_to_broker(
                                ctx,
                                Message::LocationUpdate {
                                    sub_id,
                                    location,
                                    hop: 0,
                                },
                            );
                        }
                    }
                    LogicalMobilityMode::ManualSubUnsub { vicinity } => {
                        if let Some((template, old_filter)) = self.manual_loc_filter.clone() {
                            let new_filter = self.instantiate_manual(&template, vicinity, location);
                            if new_filter != old_filter {
                                self.subscriptions.retain(|f| f != &old_filter);
                                if !self.subscriptions.contains(&new_filter) {
                                    self.subscriptions.push(new_filter.clone());
                                }
                                ctx.metrics().incr("client.manual_resubscribe");
                                self.send_to_broker(
                                    ctx,
                                    Message::Unsubscribe {
                                        subscriber: self.id,
                                        filter: old_filter,
                                    },
                                );
                                self.send_to_broker(
                                    ctx,
                                    Message::Subscribe {
                                        subscriber: self.id,
                                        filter: new_filter.clone(),
                                    },
                                );
                                self.manual_loc_filter = Some((template, new_filter));
                            }
                        }
                    }
                }
            }
        }
    }
}

impl Node for ClientNode {
    type Message = Message;

    fn handle(&mut self, ctx: &mut Context<'_, Message>, event: Incoming<Message>) {
        match event {
            Incoming::Timer { tag } => {
                if let Some(action) = self.script.get(tag as usize).cloned() {
                    self.execute(action, ctx);
                }
            }
            Incoming::Message { message, .. } => {
                let mut record = |delivery: Delivery| {
                    ctx.metrics().incr("client.delivered");
                    self.delivery_times
                        .push((ctx.now(), delivery.envelope.publisher_seq));
                    if self.mailbox {
                        self.pending.push(delivery.clone());
                    }
                    self.log.record(delivery);
                };
                match message {
                    Message::Deliver(delivery) => record(delivery),
                    // A counterpart replay (or merged holding flush) arriving
                    // as one batch message: record each delivery in order.
                    Message::DeliverBatch(deliveries) => deliveries.into_iter().for_each(record),
                    _ => {}
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rebeca_broker::{Delivery, Envelope};
    use rebeca_filter::Constraint;
    use rebeca_sim::{DelayModel, Network};

    fn parking() -> Filter {
        Filter::new().with("service", Constraint::Eq("parking".into()))
    }

    /// A trivial sink node standing in for a broker in client-only tests.
    #[derive(Default)]
    struct Sink {
        received: Vec<Message>,
    }
    impl Node for Sink {
        type Message = Message;
        fn handle(&mut self, _ctx: &mut Context<'_, Message>, event: Incoming<Message>) {
            if let Incoming::Message { message, .. } = event {
                self.received.push(message);
            }
        }
    }

    /// Wrapper so a network can host both clients and sinks.
    #[allow(clippy::large_enum_variant)]
    enum TestNode {
        Client(ClientNode),
        Sink(Sink),
    }
    impl Node for TestNode {
        type Message = Message;
        fn handle(&mut self, ctx: &mut Context<'_, Message>, event: Incoming<Message>) {
            match self {
                TestNode::Client(c) => c.handle(ctx, event),
                TestNode::Sink(s) => s.handle(ctx, event),
            }
        }
    }

    fn run_script(script: Vec<ClientAction>) -> (Vec<Message>, ClientNode) {
        let mut net: Network<TestNode> = Network::new(1);
        let broker = net.add_node(TestNode::Sink(Sink::default()));
        let client_node = ClientNode::new(
            ClientId::new(1),
            script.clone(),
            LogicalMobilityMode::LocationDependent,
            MovementGraph::paper_example(),
        );
        let client = net.add_node(TestNode::Client(client_node));
        net.connect(broker, client, DelayModel::constant_millis(1));
        for (i, _) in script.iter().enumerate() {
            net.schedule_timer(
                client,
                rebeca_sim::SimDuration::from_millis(i as u64 + 1),
                i as u64,
            );
        }
        net.run(10_000);
        let received = match net.node(broker) {
            TestNode::Sink(s) => s.received.clone(),
            _ => unreachable!(),
        };
        let client_state = match net.node(client) {
            TestNode::Client(c) => c.clone(),
            _ => unreachable!(),
        };
        (received, client_state)
    }

    #[test]
    fn attach_subscribe_publish_reach_the_broker_in_order() {
        let script = vec![
            ClientAction::Attach { broker: NodeId(0) },
            ClientAction::Subscribe(parking()),
            ClientAction::Publish(Notification::builder().attr("service", "parking").build()),
        ];
        let (received, client) = run_script(script);
        assert_eq!(received.len(), 3);
        assert!(matches!(received[0], Message::Attach { .. }));
        assert!(matches!(received[1], Message::Subscribe { .. }));
        assert!(matches!(received[2], Message::Publish { .. }));
        assert_eq!(client.published(), 1);
        assert_eq!(client.current_broker(), Some(NodeId(0)));
    }

    #[test]
    fn loc_subscribe_sends_the_template_with_hop_zero() {
        let template = LocationDependentFilter::new("location", 0);
        let plan = AdaptivityPlan::one_step_per_hop(3);
        let script = vec![
            ClientAction::Attach { broker: NodeId(0) },
            ClientAction::LocSubscribe {
                template,
                plan,
                location: LocationId(0),
            },
            ClientAction::SetLocation(LocationId(1)),
        ];
        let (received, client) = run_script(script);
        assert!(matches!(received[1], Message::LocSubscribe { hop: 0, .. }));
        assert!(matches!(
            received[2],
            Message::LocationUpdate {
                hop: 0,
                location: LocationId(1),
                ..
            }
        ));
        assert_eq!(client.current_location(), Some(LocationId(1)));
    }

    #[test]
    fn manual_mode_reacts_to_moves_with_unsub_and_sub() {
        let template = LocationDependentFilter::new("location", 0)
            .with_concrete("service", Constraint::Eq("parking".into()));
        let script = vec![
            ClientAction::Attach { broker: NodeId(0) },
            ClientAction::LocSubscribe {
                template,
                plan: AdaptivityPlan::global_sub_unsub(3),
                location: LocationId(0),
            },
            ClientAction::SetLocation(LocationId(1)),
        ];
        let mut net: Network<TestNode> = Network::new(1);
        let broker = net.add_node(TestNode::Sink(Sink::default()));
        let client_node = ClientNode::new(
            ClientId::new(1),
            script.clone(),
            LogicalMobilityMode::ManualSubUnsub { vicinity: 0 },
            MovementGraph::paper_example(),
        );
        let client = net.add_node(TestNode::Client(client_node));
        net.connect(broker, client, DelayModel::constant_millis(1));
        for (i, _) in script.iter().enumerate() {
            net.schedule_timer(
                client,
                rebeca_sim::SimDuration::from_millis(i as u64 + 1),
                i as u64,
            );
        }
        net.run(10_000);
        let received = match net.node(broker) {
            TestNode::Sink(s) => s.received.clone(),
            _ => unreachable!(),
        };
        // Attach, Subscribe (initial), Unsubscribe(old), Subscribe(new).
        assert_eq!(received.len(), 4);
        assert!(matches!(received[1], Message::Subscribe { .. }));
        assert!(matches!(received[2], Message::Unsubscribe { .. }));
        assert!(matches!(received[3], Message::Subscribe { .. }));
    }

    #[test]
    fn move_to_re_subscribes_with_the_last_sequence_number() {
        let script = vec![
            ClientAction::Attach { broker: NodeId(0) },
            ClientAction::Subscribe(parking()),
            ClientAction::MoveTo { broker: NodeId(0) },
        ];
        let (received, _) = run_script(script);
        // Attach, Subscribe, Detach (old broker), ReSubscribe (new broker —
        // same sink here).
        assert_eq!(received.len(), 4);
        assert!(matches!(received[2], Message::Detach { .. }));
        assert!(
            matches!(received[3], Message::ReSubscribe { last_seq: 0, .. }),
            "no deliveries were received, so the echoed sequence number is 0"
        );
    }

    #[test]
    fn move_to_without_a_subscription_attaches_at_the_new_broker() {
        let script = vec![
            ClientAction::Attach { broker: NodeId(0) },
            ClientAction::MoveTo { broker: NodeId(0) },
        ];
        let (received, _) = run_script(script);
        // Attach, Detach (old broker), Attach (new broker — same sink).
        assert_eq!(received.len(), 3);
        assert!(matches!(received[1], Message::Detach { .. }));
        assert!(matches!(received[2], Message::Attach { .. }));
    }

    #[test]
    fn naive_move_without_sign_off_does_not_detach() {
        let script = vec![
            ClientAction::Attach { broker: NodeId(0) },
            ClientAction::Subscribe(parking()),
            ClientAction::NaiveMoveTo {
                broker: NodeId(0),
                sign_off: false,
            },
        ];
        let (received, _) = run_script(script);
        // Attach, Subscribe, Attach (new), Subscribe (new) — no Detach, no
        // Unsubscribe.
        assert_eq!(received.len(), 4);
        assert!(received
            .iter()
            .all(|m| !matches!(m, Message::Detach { .. })));
        assert!(received
            .iter()
            .all(|m| !matches!(m, Message::Unsubscribe { .. })));
    }

    #[test]
    fn deliveries_are_logged_with_arrival_times() {
        let mut client = ClientNode::new(
            ClientId::new(1),
            Vec::new(),
            LogicalMobilityMode::LocationDependent,
            MovementGraph::paper_example(),
        );
        // Feed a delivery directly through the Node interface using a tiny
        // network so a Context exists.
        let mut net: Network<TestNode> = Network::new(1);
        let sink = net.add_node(TestNode::Sink(Sink::default()));
        client.broker = Some(sink);
        let c = net.add_node(TestNode::Client(client));
        net.connect(sink, c, DelayModel::constant_millis(1));
        net.inject(
            c,
            Message::Deliver(Delivery {
                subscriber: ClientId::new(1),
                filter: parking(),
                seq: 1,
                envelope: Envelope::new(
                    ClientId::new(9),
                    1,
                    Notification::builder().attr("service", "parking").build(),
                ),
            }),
        );
        net.run(10);
        let client_state = match net.node(c) {
            TestNode::Client(cl) => cl.clone(),
            _ => unreachable!(),
        };
        assert_eq!(client_state.log().len(), 1);
        assert_eq!(client_state.delivery_times().len(), 1);
        assert!(client_state.log().is_clean());
    }
}
