//! Interactive client sessions.
//!
//! A [`Session`] is a lightweight handle to one client of a
//! [`MobilitySystem`](crate::MobilitySystem), obtained from
//! [`MobilitySystem::connect`](crate::MobilitySystem::connect).  Its methods
//! are imperative — subscribe, publish, move, poll — and take the system as
//! an explicit argument, so any number of session handles coexist and
//! interleave freely with [`run_until`](crate::MobilitySystem::run_until) /
//! [`step`](crate::MobilitySystem::step):
//!
//! ```
//! use rebeca_broker::ClientId;
//! use rebeca_core::SystemBuilder;
//! use rebeca_filter::{Constraint, Filter, Notification};
//! use rebeca_sim::{DelayModel, SimTime, Topology};
//!
//! # fn main() -> Result<(), rebeca_core::RebecaError> {
//! let mut system = SystemBuilder::new(&Topology::line(2))
//!     .link_delay(DelayModel::constant_millis(2))
//!     .build()?;
//! let consumer = system.connect(ClientId::new(1), 0)?;
//! consumer.subscribe(
//!     &mut system,
//!     Filter::new().with("service", Constraint::Eq("news".into())),
//! )?;
//! let producer = system.connect(ClientId::new(2), 1)?;
//! system.run_until(SimTime::from_millis(10));
//!
//! producer.publish(
//!     &mut system,
//!     Notification::builder().attr("service", "news").build(),
//! )?;
//! system.run_until(SimTime::from_millis(20));
//!
//! // The application reacts to what actually arrived.
//! let inbox = consumer.poll_deliveries(&mut system)?;
//! assert_eq!(inbox.len(), 1);
//! # Ok(())
//! # }
//! ```
//!
//! Under the hood every call appends a [`ClientAction`] to the client's
//! action queue and schedules its execution at the driver's current time —
//! exactly the mechanism the scripted
//! [`add_client`](crate::MobilitySystem::add_client) path uses, so session
//! traffic takes the same code path through broker and protocol code as
//! every existing test.

use rebeca_broker::{ClientId, ConsumerLog, Delivery};
use rebeca_filter::{Filter, LocationDependentFilter, Notification};
use rebeca_location::{AdaptivityPlan, LocationId};

use crate::client::ClientAction;
use crate::error::RebecaError;
use crate::system::MobilitySystem;

/// An interactive handle to one client of a
/// [`MobilitySystem`](crate::MobilitySystem).
///
/// The handle is `Copy`: it holds only the client identity.  All methods
/// take effect when the system next runs (they are queued at the current
/// time), matching the sans-IO execution model of the drivers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Session {
    client: ClientId,
}

impl Session {
    pub(crate) fn new(client: ClientId) -> Self {
        Self { client }
    }

    /// The identity of the client this session drives.
    pub fn client(&self) -> ClientId {
        self.client
    }

    /// Issues a plain (location-independent) subscription.
    pub fn subscribe(
        &self,
        system: &mut MobilitySystem,
        filter: Filter,
    ) -> Result<(), RebecaError> {
        system.enqueue_now(self.client, ClientAction::Subscribe(filter))
    }

    /// Issues a time-aware subscription: like [`Session::subscribe`], but
    /// the border broker additionally replays retained publications with a
    /// timestamp at or after `since_micros` (virtual micros since the
    /// simulation epoch), merged exactly once and in time order with live
    /// traffic.  Requires [`BrokerConfig::retention`](crate::BrokerConfig)
    /// to be configured on the brokers; without it only the live
    /// subscription is installed.  The canonical detach/reattach pattern:
    /// note the detach time, and reattach elsewhere with
    /// `subscribe_since(detached_at)` to close the gap.
    pub fn subscribe_since(
        &self,
        system: &mut MobilitySystem,
        filter: Filter,
        since_micros: u64,
    ) -> Result<(), RebecaError> {
        system.enqueue_now(
            self.client,
            ClientAction::SubscribeSince(filter, since_micros),
        )
    }

    /// Retracts a plain subscription.
    pub fn unsubscribe(
        &self,
        system: &mut MobilitySystem,
        filter: Filter,
    ) -> Result<(), RebecaError> {
        system.enqueue_now(self.client, ClientAction::Unsubscribe(filter))
    }

    /// Publishes one notification.
    pub fn publish(
        &self,
        system: &mut MobilitySystem,
        notification: Notification,
    ) -> Result<(), RebecaError> {
        system.enqueue_now(self.client, ClientAction::Publish(notification))
    }

    /// Physically relocates to the border broker with topology index
    /// `broker` using the paper's relocation protocol: the old broker
    /// buffers, the new broker merges the replay, and the application keeps
    /// receiving every notification exactly once, in order.
    pub fn move_to(&self, system: &mut MobilitySystem, broker: usize) -> Result<(), RebecaError> {
        let target = system.broker_node(broker)?;
        system.enqueue_now(self.client, ClientAction::MoveTo { broker: target })
    }

    /// Detaches from the current border broker (explicit sign-off).  The
    /// broker keeps buffering through a virtual counterpart, so a later
    /// [`Session::move_to`] resumes the stream without loss.
    pub fn detach(&self, system: &mut MobilitySystem) -> Result<(), RebecaError> {
        system.enqueue_now(self.client, ClientAction::Detach)
    }

    /// Re-attaches to the border broker with topology index `broker` after
    /// a [`Session::detach`] — a plain attach, without the relocation
    /// protocol.  Combine with [`Session::subscribe_since`] to close the
    /// offline gap from retained history instead of a counterpart replay.
    pub fn reattach(&self, system: &mut MobilitySystem, broker: usize) -> Result<(), RebecaError> {
        let target = system.broker_node(broker)?;
        system.enqueue_now(self.client, ClientAction::Attach { broker: target })
    }

    /// Issues a location-dependent subscription (Section 5 of the paper)
    /// with the given template, adaptivity plan and initial location.
    pub fn loc_subscribe(
        &self,
        system: &mut MobilitySystem,
        template: LocationDependentFilter,
        plan: AdaptivityPlan,
        location: LocationId,
    ) -> Result<(), RebecaError> {
        system.enqueue_now(
            self.client,
            ClientAction::LocSubscribe {
                template,
                plan,
                location,
            },
        )
    }

    /// Retracts a previously issued location-dependent subscription,
    /// addressed by issue order (the first
    /// [`Session::loc_subscribe`] has index 0).
    pub fn loc_unsubscribe(
        &self,
        system: &mut MobilitySystem,
        index: u32,
    ) -> Result<(), RebecaError> {
        system.enqueue_now(self.client, ClientAction::LocUnsubscribe { index })
    }

    /// Announces a new location (logical mobility).
    pub fn set_location(
        &self,
        system: &mut MobilitySystem,
        location: LocationId,
    ) -> Result<(), RebecaError> {
        system.enqueue_now(self.client, ClientAction::SetLocation(location))
    }

    /// Drains every delivery received since the previous poll, in arrival
    /// order — the reactive read side of the session.  Interleave with
    /// [`MobilitySystem::run_until`](crate::MobilitySystem::run_until) to
    /// react to notifications mid-run (e.g. re-subscribe based on content).
    pub fn poll_deliveries(
        &self,
        system: &mut MobilitySystem,
    ) -> Result<Vec<Delivery>, RebecaError> {
        system.drain_client_deliveries(self.client)
    }

    /// The client's full delivery log (every delivery ever received, with
    /// QoS violation tracking) — unlike
    /// [`Session::poll_deliveries`] this does not drain anything.
    pub fn log<'a>(&self, system: &'a MobilitySystem) -> Result<&'a ConsumerLog, RebecaError> {
        system.client_log(self.client)
    }
}
