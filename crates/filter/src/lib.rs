//! Content-based data and filter model for the Rebeca mobility reproduction.
//!
//! This crate implements the substrate that every other crate in the
//! workspace builds on: the notification data model (flat name/value pairs),
//! conjunctive content-based filters with *matching*, *covering*,
//! *overlapping* and *perfect merging*, covering-aware filter sets, and the
//! location-dependent filter templates (`myloc` markers) introduced in
//! Section 5 of
//! *"Supporting Mobility in Content-Based Publish/Subscribe Middleware"*
//! (Fiege, Gärtner, Kasten, Zeidler — Middleware 2003).
//!
//! # Overview
//!
//! * [`Value`] / [`Notification`] — typed attribute values and the immutable
//!   notifications published into the system.
//! * [`Constraint`] — per-attribute predicates (equality, ranges, sets,
//!   string predicates) with covering and overlap checks.
//! * [`Filter`] — conjunctions of constraints; the unit of subscription and
//!   of routing-table entries.
//! * [`LocationDependentFilter`] — subscription templates with `myloc`
//!   markers, instantiated against concrete location sets by the
//!   logical-mobility layer.
//!
//! # Example
//!
//! ```
//! use rebeca_filter::{Constraint, Filter, Notification, Value};
//!
//! // Subscription: (service = "parking") ∧ (cost < 3) ∧ (location ∈ {4, 5})
//! let sub = Filter::new()
//!     .with("service", Constraint::Eq("parking".into()))
//!     .with("cost", Constraint::Lt(3.into()))
//!     .with("location", Constraint::any_location_of([4, 5]));
//!
//! let vacancy = Notification::builder()
//!     .attr("service", "parking")
//!     .attr("cost", 2)
//!     .attr("location", Value::Location(4))
//!     .build();
//!
//! assert!(sub.matches(&vacancy));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

// This crate stays the dependency-free data model: covering and merging
// decisions over many filters run on `rebeca-matcher`'s predicate index.
mod constraint;
mod filter;
mod notification;
mod template;
mod value;

pub use constraint::Constraint;
pub use filter::Filter;
pub use notification::{Notification, NotificationBuilder};
pub use template::{LocationDependentFilter, TemplateConstraint};
pub use value::{Value, ValueKind};
