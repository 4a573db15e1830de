//! The Rebeca broker network substrate for the mobility reproduction.
//!
//! This crate implements the *unchanged* content-based publish/subscribe
//! middleware of Section 2 of
//! *"Supporting Mobility in Content-Based Publish/Subscribe Middleware"*
//! (Fiege et al., Middleware 2003), i.e. everything that exists before the
//! mobility extension:
//!
//! * [`ClientId`] / [`SubscriptionId`] — client and subscription identities;
//! * [`Message`] — the message vocabulary of the system, including the
//!   mobility control messages that `rebeca-core` adds on top (kept in one
//!   enum because the paper requires all relocation traffic to travel over
//!   the ordinary pub/sub links).  As in the paper's `pub(n)`/`notify`
//!   interface, a publication is one `Publish`, routed as one
//!   `Notification` per next hop and delivered as one `Deliver` per
//!   matching subscription; only replays and history merges group
//!   deliveries, through [`Message::deliveries`];
//! * [`BrokerCore`] — the static broker state machine: the routing table,
//!   local clients, publication routing and sequence-annotated delivery;
//! * [`SequenceRegistry`] / [`DeliveryBuffer`] — per-`(client, filter)`
//!   sequence numbering and the buffer type behind the virtual counterparts
//!   of roaming clients;
//! * [`ConsumerLog`] — the client-side delivery log with built-in checks of
//!   the paper's quality-of-service requirements (completeness, no
//!   duplicates, sender-FIFO order).
//!
//! # Local delivery and its ordering contract
//!
//! The subscriptions of local clients live in one **local-subscription
//! table**, a [`RoutingTable`](rebeca_routing::RoutingTable) keyed by
//! [`ClientId`]: the same subgrouped counting index the forwarding side
//! uses, one index key per *distinct* local filter.  A publication costs one
//! counting match over that table plus work proportional to the
//! subscriptions that actually match — not a
//! [`Filter::matches`](rebeca_filter::Filter::matches) call per subscription
//! of every attached client.
//!
//! The order of local deliveries is a contract, because the simulator's
//! event order (and with it every byte-identical delivery log) follows the
//! order of [`Outgoing`]: deliveries are listed in **ascending
//! [`ClientId`], and within one client in the order its filters were
//! subscribed** (a filter that is removed and subscribed again moves to the
//! end).  The table's entry ids are monotonic in insertion order, so
//! sorting the matched entries by `(ClientId, entry id)` reproduces exactly
//! that order; sequence numbers, the parked list and the `deliver` trace
//! spans are assigned while walking it.
//!
//! The mobility-aware broker that extends [`BrokerCore`] with the relocation
//! protocol (Section 4) and location-dependent subscriptions (Section 5)
//! lives in the `rebeca-core` crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod broker;
mod client;
mod ids;
mod message;
mod seqnum;

pub use broker::{BrokerCore, BrokerRole, ClientRecord, Outgoing, TraceSpanDraft};
pub use client::{ConsumerLog, DeliveryViolation};
pub use ids::{ClientId, ParseClientIdError, SubscriptionId};
pub use message::{Delivery, Envelope, Message};
pub use rebeca_obs::TraceContext;
pub use seqnum::{DeliveryBuffer, SequenceRegistry};
