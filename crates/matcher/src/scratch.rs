//! The thread-local matching scratchpad.
//!
//! The counting algorithm needs a per-filter hit counter for every walk.
//! Allocating (or clearing) one per query would dominate the cost of small
//! matches, so counters are epoch-stamped and reused: bumping the epoch
//! invalidates every counter in O(1), and a counter is lazily reset the
//! first time it is touched in a new epoch.
//!
//! The scratchpad is per-thread state outside the index, so the index
//! itself is immutable during matching — `Send + Sync` by construction (a
//! `RefCell` inside the index would make it `!Sync`).

use std::cell::RefCell;

/// The full-lane-batch mask: one bit per notification of a batch chunk.
pub(crate) const LANE_COUNT: usize = 64;

/// Epoch-stamped counter/mask scratchpad for the counting walks.
///
/// One scratchpad serves any number of indexes (it grows to the largest
/// entry/predicate id it has seen) and any number of sequential queries
/// (each query begins a new epoch; stale slots reset lazily).
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    /// Per-entry hit counters (single-notification counting walks).
    stamps: Vec<u64>,
    counts: Vec<u32>,
    epoch: u64,

    /// Per-predicate satisfaction masks (one bit per batch lane), indexed
    /// by the predicate's mask slot.
    pub(crate) pred_stamps: Vec<u64>,
    pub(crate) pred_masks: Vec<u64>,
    pub(crate) pred_epoch: u64,
    /// `(attr id, pred id)` of every predicate satisfied by the current
    /// batch chunk.
    pub(crate) touched_preds: Vec<(u32, u32)>,

    /// Per-entry conjunction state for batch matching: the running AND of
    /// the entry's predicate masks and the number of predicates seen.
    pub(crate) entry_stamps: Vec<u64>,
    pub(crate) entry_masks: Vec<u64>,
    pub(crate) entry_counts: Vec<u32>,
    pub(crate) entry_epoch: u64,
    pub(crate) touched_entries: Vec<u32>,
}

impl Scratch {
    /// Starts a new single-notification counting walk over `size` entries.
    pub(crate) fn begin(&mut self, size: usize) {
        if self.stamps.len() < size {
            self.stamps.resize(size, 0);
            self.counts.resize(size, 0);
        }
        self.epoch += 1;
    }

    /// Increments the counter for `fid`, returning the new count.
    #[inline]
    pub(crate) fn bump(&mut self, fid: u32) -> u32 {
        let fid = fid as usize;
        if self.stamps[fid] != self.epoch {
            self.stamps[fid] = self.epoch;
            self.counts[fid] = 0;
        }
        self.counts[fid] += 1;
        self.counts[fid]
    }

    /// Starts a new predicate-mask phase over `slots` predicate slots
    /// (batch matching runs one phase per lane chunk).
    pub(crate) fn begin_preds(&mut self, slots: usize) {
        if self.pred_stamps.len() < slots {
            self.pred_stamps.resize(slots, 0);
            self.pred_masks.resize(slots, 0);
        }
        self.pred_epoch += 1;
        self.touched_preds.clear();
    }

    /// Starts a new batch conjunction phase over `size` entries (one phase
    /// per batch chunk).
    pub(crate) fn begin_entries_batch(&mut self, size: usize) {
        if self.entry_stamps.len() < size {
            self.entry_stamps.resize(size, 0);
            self.entry_masks.resize(size, 0);
            self.entry_counts.resize(size, 0);
        }
        self.entry_epoch += 1;
        self.touched_entries.clear();
    }
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// Runs `f` with the calling thread's scratchpad.
///
/// The scratchpad is *taken* for the duration of the call (a re-entrant
/// query from inside a visitor callback gets a fresh, empty scratchpad
/// instead of panicking on a double borrow) and put back afterwards.
pub(crate) fn with_thread_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    SCRATCH.with(|cell| {
        let mut scratch = cell.take();
        let result = f(&mut scratch);
        cell.replace(scratch);
        result
    })
}
