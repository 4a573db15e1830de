//! Content-based routing engine for the Rebeca mobility reproduction.
//!
//! Implements the routing machinery of Section 2.2 of
//! *"Supporting Mobility in Content-Based Publish/Subscribe Middleware"*
//! (Fiege et al., Middleware 2003): broker routing tables whose entries are
//! `(filter, link)` pairs, and the flooding / simple / identity / covering /
//! merging routing strategies whose covering and merging optimizations the
//! paper's mobility algorithms exploit.
//!
//! The strategies differ in one predicate only.  Beside its table each
//! [`RoutingEngine`] keeps a second [`RoutingTable`] of what every
//! neighbour holds from it (one entry per `Subscribe` sent and not
//! retracted), and decides every subscription and unsubscription by one
//! rule over it; the strategy says only whether a held filter serves a
//! table entry (never, when identical, or when covering).  So no strategy
//! leaves a neighbour holding a filter nobody behind the broker needs.
//!
//! The crate is deliberately independent of any concrete broker or network
//! implementation: destinations are a generic type parameter (`D`), so the
//! same engine drives the discrete-event simulation in `rebeca-sim`, the
//! threaded runtime in `rebeca-broker`, and the unit tests in this crate.
//!
//! # Example
//!
//! ```
//! use rebeca_filter::{Constraint, Filter, Notification};
//! use rebeca_routing::{RoutingEngine, RoutingStrategyKind};
//!
//! let mut engine: RoutingEngine<&str> = RoutingEngine::new(RoutingStrategyKind::Covering);
//!
//! let cheap = Filter::new().with("cost", Constraint::Lt(3.into()));
//! let any = Filter::new().with("cost", Constraint::Lt(10.into()));
//! let links = ["north", "south", "east"];
//!
//! // The wide filter from "north" is propagated to the other links; the
//! // covered one from "south" only needs to reach "north" (which has not
//! // been told about any cover yet).
//! assert_eq!(engine.handle_subscribe(any, "north", &links).len(), 2);
//! assert_eq!(engine.handle_subscribe(cheap, "south", &links), vec![("north", Filter::new().with("cost", Constraint::Lt(3.into())))]);
//!
//! // Routing remains exact.
//! let pricey = Notification::builder().attr("cost", 5).build();
//! assert_eq!(engine.route(&pricey, None, &links), vec!["north"]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod strategy;
mod table;

pub use strategy::{RoutingEngine, RoutingStrategyKind, UnsubscriptionEffect};
pub use table::RoutingTable;
