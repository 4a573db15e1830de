//! The message vocabulary exchanged between clients and brokers.
//!
//! The first group of variants is the unchanged Rebeca interface of
//! Section 2 (publish, subscribe, unsubscribe, delivery).
//! The remaining variants are the *extension* the paper contributes: the
//! administrative control messages of the physical-mobility relocation
//! protocol (Section 4) and of the logical-mobility location-update protocol
//! (Section 5).  Keeping them in the same enum reflects the paper's
//! "pub/sub adherence" requirement: all relocation traffic travels over the
//! ordinary broker links, never out-of-band.

use serde::{Deserialize, Serialize};

use rebeca_filter::{Filter, LocationDependentFilter, Notification};
use rebeca_location::{AdaptivityPlan, LocationId};
use rebeca_obs::TraceContext;
use rebeca_sim::NodeId;

use crate::ids::{ClientId, SubscriptionId};

/// A published notification together with its provenance: the publishing
/// client and a per-publisher sequence number (used to check sender-FIFO
/// order end to end).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Envelope {
    /// The publishing client.
    pub publisher: ClientId,
    /// Sequence number assigned by the publisher (1, 2, 3, …).
    pub publisher_seq: u64,
    /// The notification content.
    pub notification: Notification,
    /// Causal trace context, set by the origin broker when the publication
    /// falls inside the configured sampling rate.  `None` for unsampled
    /// traffic — the overwhelmingly common case, which therefore pays no
    /// tracing cost anywhere downstream.
    pub trace: Option<TraceContext>,
}

impl Envelope {
    /// A fresh untraced envelope.
    pub fn new(publisher: ClientId, publisher_seq: u64, notification: Notification) -> Self {
        Self {
            publisher,
            publisher_seq,
            notification,
            trace: None,
        }
    }
}

/// A notification as delivered to one consumer for one of its subscriptions,
/// annotated by the consumer's border broker with a per-`(client, filter)`
/// sequence number — the number the client echoes back when it re-subscribes
/// after a relocation (`(C, F, 123)` in the paper).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Delivery {
    /// The consumer the notification is delivered to.
    pub subscriber: ClientId,
    /// The subscription (filter) that matched.
    pub filter: Filter,
    /// Border-broker sequence number for this `(client, filter)` stream.
    pub seq: u64,
    /// The underlying published notification.
    pub envelope: Envelope,
}

/// All messages exchanged over links between clients and brokers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Message {
    // ------------------------------------------------------------------
    // Unchanged Rebeca interface (Section 2)
    // ------------------------------------------------------------------
    /// A client attaches to a border broker (becomes a local client).
    Attach {
        /// The attaching client.
        client: ClientId,
    },
    /// A client detaches from its border broker (explicit sign-off).
    Detach {
        /// The detaching client.
        client: ClientId,
    },
    /// A client publishes a notification through its border broker.
    Publish {
        /// The publishing client.
        publisher: ClientId,
        /// The notification to publish.
        notification: Notification,
    },
    /// A routed notification travelling between brokers.
    Notification(Envelope),
    /// A subscription travelling from a client into (and through) the broker
    /// network.
    Subscribe {
        /// The subscribing client.
        subscriber: ClientId,
        /// The subscription filter.
        filter: Filter,
    },
    /// Retraction of a subscription.
    Unsubscribe {
        /// The unsubscribing client.
        subscriber: ClientId,
        /// The filter to retract.
        filter: Filter,
    },
    /// A notification delivered by a border broker to a local consumer.
    Deliver(Delivery),
    /// A queue of deliveries travelling to a local consumer as one message.
    /// Used by the mobility engine to ship counterpart replays (and merged
    /// held-back notifications) as a single batch instead of N
    /// per-notification sends.
    DeliverBatch(Vec<Delivery>),

    // ------------------------------------------------------------------
    // Physical mobility: the relocation protocol of Section 4
    // ------------------------------------------------------------------
    /// Re-issued subscription of a roaming client at its *new* border
    /// broker, carrying the last sequence number received for this
    /// subscription (`(C, F, 123)` in the paper).
    ReSubscribe {
        /// The roaming client.
        client: ClientId,
        /// The subscription being relocated.
        filter: Filter,
        /// Last sequence number the client received for this subscription.
        last_seq: u64,
    },
    /// The relocation request propagated broker-to-broker from the new
    /// border broker towards the old delivery path.
    Relocate {
        /// The roaming client.
        client: ClientId,
        /// The subscription being relocated.
        filter: Filter,
        /// Last sequence number the client received.
        last_seq: u64,
        /// The new border broker that initiated the relocation.
        new_broker: NodeId,
    },
    /// The fetch request sent by the junction broker along the *old* path
    /// towards the old border broker (`(C, F, 123, B4)` in the paper).
    /// Brokers on the old path route the filter towards the junction while
    /// forwarding it; their old entries go with the `Unsubscribe`s the old
    /// border broker sends behind its replay.
    Fetch {
        /// The roaming client.
        client: ClientId,
        /// The subscription being relocated.
        filter: Filter,
        /// Last sequence number the client received.
        last_seq: u64,
        /// The junction broker the replay has to be routed back to.
        junction: NodeId,
    },
    /// Replay of the notifications buffered by the virtual counterpart at
    /// the old border broker, in sequence order, routed back along the
    /// (re-pointed) path towards the new border broker.
    Replay {
        /// The roaming client.
        client: ClientId,
        /// The subscription the replay belongs to.
        filter: Filter,
        /// The buffered deliveries, in increasing sequence order.
        deliveries: Vec<Delivery>,
    },
    /// Everything the sending broker holds as sent to the receiving one,
    /// whose entries from the sender become exactly `filters`.  A restarted
    /// broker sends one on each broker link with `answer` set, and each
    /// neighbour replies with its own: routing state is soft state.
    Resync {
        /// The filters the receiver holds from the sender, as a multiset.
        filters: Vec<Filter>,
        /// `true` when the receiver must reply with its own set.
        answer: bool,
    },

    // ------------------------------------------------------------------
    // Time-aware subscriptions: retained-history replay
    // ------------------------------------------------------------------
    /// A subscription carrying a *time scope*: besides installing the filter
    /// for live traffic, the border broker gathers the retained publications
    /// with timestamps `>= since_micros` from the whole broker network and
    /// delivers them exactly once, merged in order with the live stream.
    SubscribeSince {
        /// The subscribing client.
        subscriber: ClientId,
        /// The subscription filter.
        filter: Filter,
        /// Start of the requested time window (microseconds).
        since_micros: u64,
        /// Last sequence number the client received for this subscription
        /// (0 for a fresh subscription); history deliveries continue the
        /// client's sequence stream from here.
        last_seq: u64,
    },
    /// The history request flooded broker-to-broker: every broker answers
    /// with the matching slice of its local retention store, routed back
    /// hop-by-hop towards `origin`.
    HistoryFetch {
        /// The subscribing client the history is gathered for.
        client: ClientId,
        /// The subscription filter retained publications are matched against.
        filter: Filter,
        /// Start of the requested time window (microseconds).
        since_micros: u64,
        /// The border broker that opened the history session.
        origin: NodeId,
    },
    /// A broker's answer to a [`Message::HistoryFetch`]: the matching
    /// retained publications with their retention timestamps, travelling
    /// hop-by-hop back along the reverse of the fetch path.
    HistoryReplay {
        /// The subscribing client the history is gathered for.
        client: ClientId,
        /// The subscription filter the entries matched.
        filter: Filter,
        /// `(ts_micros, envelope)` pairs in retention order.
        entries: Vec<(u64, Envelope)>,
    },

    // ------------------------------------------------------------------
    // Logical mobility: location-dependent subscriptions of Section 5
    // ------------------------------------------------------------------
    /// A location-dependent subscription entering (and propagating through)
    /// the broker network.  Each broker instantiates the `myloc` marker with
    /// `ploc(location, q_hop)` according to the adaptivity plan and increments
    /// `hop` before propagating further.
    LocSubscribe {
        /// Identifies the subscription (a client may hold several).
        sub_id: SubscriptionId,
        /// The subscription template containing `myloc` markers.
        template: LocationDependentFilter,
        /// The adaptivity plan assigning uncertainty steps to hops.
        plan: AdaptivityPlan,
        /// The client's current location.
        location: LocationId,
        /// Distance (in broker hops) from the consumer's border broker;
        /// 0 at the border broker itself.
        hop: usize,
    },
    /// Retraction of a location-dependent subscription.
    LocUnsubscribe {
        /// The subscription to retract.
        sub_id: SubscriptionId,
    },
    /// A location change of a logically mobile client, propagated along the
    /// delivery paths.  Each broker swaps its instantiated filter for the
    /// subscription and forwards the update with an incremented hop count.
    LocationUpdate {
        /// The subscription whose location changed.
        sub_id: SubscriptionId,
        /// The client's new location.
        location: LocationId,
        /// Distance (in broker hops) from the consumer's border broker.
        hop: usize,
    },
}

impl Message {
    /// The message that ships `deliveries` to one client link: nothing for
    /// none, a [`Message::Deliver`] for one, a [`Message::DeliverBatch`]
    /// for more.
    pub fn deliveries(mut deliveries: Vec<Delivery>) -> Option<Message> {
        match deliveries.len() {
            0 => None,
            1 => deliveries.pop().map(Message::Deliver),
            _ => Some(Message::DeliverBatch(deliveries)),
        }
    }

    /// A short, stable name used as a metrics counter suffix.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Message::Attach { .. } => "attach",
            Message::Detach { .. } => "detach",
            Message::Publish { .. } => "publish",
            Message::Notification(_) => "notification",
            Message::Subscribe { .. } => "subscribe",
            Message::Unsubscribe { .. } => "unsubscribe",
            Message::Deliver(_) => "deliver",
            Message::DeliverBatch(_) => "deliver_batch",
            Message::ReSubscribe { .. } => "resubscribe",
            Message::Relocate { .. } => "relocate",
            Message::Fetch { .. } => "fetch",
            Message::Replay { .. } => "replay",
            Message::Resync { .. } => "resync",
            Message::SubscribeSince { .. } => "subscribe_since",
            Message::HistoryFetch { .. } => "history_fetch",
            Message::HistoryReplay { .. } => "history_replay",
            Message::LocSubscribe { .. } => "loc_subscribe",
            Message::LocUnsubscribe { .. } => "loc_unsubscribe",
            Message::LocationUpdate { .. } => "location_update",
        }
    }

    /// The pre-interned `broker.rx.<kind>` counter name for this message —
    /// a static table, so the broker's receive hot path increments its
    /// per-kind counter without allocating (see `Metrics::add`).
    pub fn rx_counter(&self) -> &'static str {
        match self {
            Message::Attach { .. } => "broker.rx.attach",
            Message::Detach { .. } => "broker.rx.detach",
            Message::Publish { .. } => "broker.rx.publish",
            Message::Notification(_) => "broker.rx.notification",
            Message::Subscribe { .. } => "broker.rx.subscribe",
            Message::Unsubscribe { .. } => "broker.rx.unsubscribe",
            Message::Deliver(_) => "broker.rx.deliver",
            Message::DeliverBatch(_) => "broker.rx.deliver_batch",
            Message::ReSubscribe { .. } => "broker.rx.resubscribe",
            Message::Relocate { .. } => "broker.rx.relocate",
            Message::Fetch { .. } => "broker.rx.fetch",
            Message::Replay { .. } => "broker.rx.replay",
            Message::Resync { .. } => "broker.rx.resync",
            Message::SubscribeSince { .. } => "broker.rx.subscribe_since",
            Message::HistoryFetch { .. } => "broker.rx.history_fetch",
            Message::HistoryReplay { .. } => "broker.rx.history_replay",
            Message::LocSubscribe { .. } => "broker.rx.loc_subscribe",
            Message::LocUnsubscribe { .. } => "broker.rx.loc_unsubscribe",
            Message::LocationUpdate { .. } => "broker.rx.location_update",
        }
    }

    /// The trace context of the first sampled envelope this message carries
    /// (if any) — the link layer records its `link.tx`/`link.rx` spans
    /// against it.  Control messages carry no context: their relocation
    /// phase spans derive deterministically from the client instead.
    pub fn trace_context(&self) -> Option<TraceContext> {
        match self {
            Message::Notification(e) => e.trace,
            Message::Deliver(d) => d.envelope.trace,
            Message::DeliverBatch(ds) => ds.iter().find_map(|d| d.envelope.trace),
            Message::Replay { deliveries, .. } => deliveries.iter().find_map(|d| d.envelope.trace),
            Message::HistoryReplay { entries, .. } => entries.iter().find_map(|(_, e)| e.trace),
            _ => None,
        }
    }

    /// The pre-interned `broker.tx.<kind>` counter name for this message
    /// (see [`Message::rx_counter`]).
    pub fn tx_counter(&self) -> &'static str {
        match self {
            Message::Attach { .. } => "broker.tx.attach",
            Message::Detach { .. } => "broker.tx.detach",
            Message::Publish { .. } => "broker.tx.publish",
            Message::Notification(_) => "broker.tx.notification",
            Message::Subscribe { .. } => "broker.tx.subscribe",
            Message::Unsubscribe { .. } => "broker.tx.unsubscribe",
            Message::Deliver(_) => "broker.tx.deliver",
            Message::DeliverBatch(_) => "broker.tx.deliver_batch",
            Message::ReSubscribe { .. } => "broker.tx.resubscribe",
            Message::Relocate { .. } => "broker.tx.relocate",
            Message::Fetch { .. } => "broker.tx.fetch",
            Message::Replay { .. } => "broker.tx.replay",
            Message::Resync { .. } => "broker.tx.resync",
            Message::SubscribeSince { .. } => "broker.tx.subscribe_since",
            Message::HistoryFetch { .. } => "broker.tx.history_fetch",
            Message::HistoryReplay { .. } => "broker.tx.history_replay",
            Message::LocSubscribe { .. } => "broker.tx.loc_subscribe",
            Message::LocUnsubscribe { .. } => "broker.tx.loc_unsubscribe",
            Message::LocationUpdate { .. } => "broker.tx.location_update",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rebeca_filter::Constraint;

    fn filter() -> Filter {
        Filter::new().with("service", Constraint::Eq("parking".into()))
    }

    #[test]
    fn kind_names_are_distinct_for_the_main_kinds() {
        let n = Notification::new();
        let msgs = [
            Message::Attach {
                client: ClientId::new(1),
            },
            Message::Publish {
                publisher: ClientId::new(1),
                notification: n.clone(),
            },
            Message::Subscribe {
                subscriber: ClientId::new(1),
                filter: filter(),
            },
            Message::Deliver(Delivery {
                subscriber: ClientId::new(1),
                filter: filter(),
                seq: 1,
                envelope: Envelope::new(ClientId::new(2), 1, n),
            }),
        ];
        let names: std::collections::BTreeSet<&str> = msgs.iter().map(|m| m.kind_name()).collect();
        assert_eq!(names.len(), msgs.len());
    }

    #[test]
    fn trace_context_surfaces_the_first_sampled_envelope() {
        let n = Notification::new();
        let ctx = TraceContext {
            trace_id: 7,
            parent_span: 3,
            sampled: true,
        };
        let mut traced = Envelope::new(ClientId::new(1), 1, n.clone());
        traced.trace = Some(ctx);
        let plain = Envelope::new(ClientId::new(1), 2, n);
        assert_eq!(
            Message::Notification(traced.clone()).trace_context(),
            Some(ctx)
        );
        assert_eq!(Message::Notification(plain.clone()).trace_context(), None);
        assert_eq!(
            Message::DeliverBatch(
                [plain.clone(), traced.clone()]
                    .into_iter()
                    .map(|envelope| Delivery {
                        subscriber: ClientId::new(3),
                        filter: filter(),
                        seq: envelope.publisher_seq,
                        envelope,
                    })
                    .collect()
            )
            .trace_context(),
            Some(ctx)
        );
        assert_eq!(
            Message::HistoryReplay {
                client: ClientId::new(1),
                filter: filter(),
                entries: vec![(5, traced)],
            }
            .trace_context(),
            Some(ctx)
        );
        assert_eq!(
            Message::Attach {
                client: ClientId::new(1)
            }
            .trace_context(),
            None
        );
    }
}
