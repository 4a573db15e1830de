//! Sub-linear content-based matching for the Rebeca mobility reproduction.
//!
//! Every hot path of a content-based broker — forwarding a notification,
//! deciding whether a new subscription is already covered, compacting
//! routing state by merging — ultimately asks questions about a large set of
//! stored filters.  Answering them by scanning every filter caps the system
//! at a few thousand subscriptions; content-based matching engines
//! (Gough/Smith-style counting algorithms, Siena, and the matching cores the
//! semantic pub/sub literature builds on) answer them with a **predicate
//! index** instead.  This crate is that index plus the filter collection
//! built on it:
//!
//! * [`FilterIndex`] — the attribute-partitioned predicate index and
//!   counting matcher.  Constraints are interned (one arena shared across
//!   attributes) and deduplicated into per-attribute partitions with inline
//!   small-vector posting lists; notifications are matched by evaluating
//!   each satisfied predicate once and counting hits per filter; and the
//!   exact covering queries of the §2.2 covering/merging optimizations run
//!   the same counting walk over only the predicates whose partition ranges
//!   overlap the probe.  Counters live in a thread-local scratchpad, so the
//!   index is `Send + Sync` and any number of threads can match against a
//!   shared `&FilterIndex`.  [`FilterIndex::match_batch`] matches whole
//!   notification queues with per-predicate lane masks, walking every
//!   posting list once per 64-notification chunk.
//! * [`FilterSet`] — the covering/merging-aware filter collection used by
//!   routing state, re-homed from `rebeca-filter` and rebuilt on top of the
//!   index.
//!
//! Exactness is a hard requirement: every fast path either proves its answer
//! by construction or falls back to the exact predicate evaluation of
//! `rebeca-filter`, and the crate's property tests assert byte-identical
//! results against the linear-scan oracle, for single notifications and
//! batches alike.
//!
//! # Example
//!
//! ```
//! use rebeca_filter::{Constraint, Filter, Notification};
//! use rebeca_matcher::FilterIndex;
//!
//! let mut index: FilterIndex<u64> = FilterIndex::new();
//! for i in 0..1000u64 {
//!     index.insert(i, &Filter::new()
//!         .with("stock", Constraint::Eq("REBECA".into()))
//!         .with("price", Constraint::Lt((i as i64).into())));
//! }
//! let tick = Notification::builder().attr("stock", "REBECA").attr("price", 997).build();
//! // Only the 2 filters with price bounds above 997 match; the index finds
//! // them without touching the other 998.
//! assert_eq!(index.matching_keys(&tick).len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;
mod filterset;
mod index;
mod scratch;
mod store;

pub use filterset::{FilterSet, InsertOutcome};
pub use index::FilterIndex;

/// Former name of [`FilterIndex`], kept only for the benchmark harness.
pub type ShardedFilterIndex<K> = FilterIndex<K>;
