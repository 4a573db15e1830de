//! The predicate index.
//!
//! # Data structure
//!
//! A [`FilterIndex`] decomposes every inserted [`Filter`] into its
//! per-attribute [`Constraint`](rebeca_filter::Constraint)s.  Constraints
//! are **interned and deduplicated**: each distinct `(attribute,
//! constraint)` pair is stored once as a *predicate* with an inline
//! small-vector posting list of the filters using it, and the constraint
//! payload itself lives once in an arena shared across attributes.
//! Predicates are partitioned by attribute, and within one attribute by
//! evaluation class (hashed equality classes, ordered numeric bound maps
//! over monotone `f64` sort keys, an existence class, and an exact residual
//! class) — see [`store`](crate::store) for the partition layout.
//!
//! # Matching: the counting algorithm
//!
//! Matching a [`Notification`] walks its attributes once, collects the
//! satisfied predicates per attribute from the partitions above, and
//! increments a per-filter hit counter over the predicates' posting lists.
//! A filter matches exactly when its counter reaches its constraint count
//! (conjunctive semantics); filters without constraints match always.  Cost
//! is proportional to the satisfied predicates and their postings — not to
//! the number of stored filters.
//!
//! Counters live in a thread-local scratchpad, so the index holds no
//! interior mutability: it is `Send + Sync`, and any number of threads can
//! match against a shared `&FilterIndex` concurrently.
//!
//! # Batch matching
//!
//! [`FilterIndex::match_batch`] matches up to 64 notifications per *lane
//! chunk* using per-predicate bitmasks: each satisfied predicate
//! accumulates a mask of the lanes satisfying it, and every posting list is
//! then walked **once per chunk** (folding the mask into a per-entry
//! AND-accumulator) instead of once per notification.  An entry matches
//! lane `j` exactly when all of its predicates were seen and bit `j`
//! survived the conjunction.
//!
//! # Covering queries
//!
//! The covering/merging optimizations of Fiege et al. §2.2 run the *same*
//! counting walk in the covering domain: for each attribute of a probe
//! filter, the attribute's deduplicated predicates whose partition ranges
//! overlap the probe are tested with `Constraint::covers` and the covering
//! predicates' postings are counted.  A stored filter covers the probe
//! exactly when its counter reaches its constraint count, so
//! [`FilterIndex::covering_keys`] and [`FilterIndex::covered_keys`] are
//! **exact** (identical to running [`Filter::covers`] against every stored
//! filter) while paying one constraint-level test per distinct predicate
//! *overlapping the probe's bounds*.

use std::borrow::Borrow;
use std::collections::{BTreeSet, HashMap};
use std::hash::Hash;

use rebeca_filter::{Filter, Notification};
use smallvec::SmallVec;

use crate::scratch::{with_thread_scratch, Scratch, LANE_COUNT};
use crate::store::PredStore;

/// Deterministic structural hash of a filter (`DefaultHasher` uses fixed
/// SipHash keys, and `Filter` iterates in canonical attribute order, so
/// equal filters always collide).  Used as the identity-bucket key; matches
/// are verified exactly, so hash collisions cost time, never correctness.
fn filter_fingerprint(filter: &Filter) -> u64 {
    use std::hash::Hasher;
    let mut h = std::collections::hash_map::DefaultHasher::new();
    filter.len().hash(&mut h);
    for (name, constraint) in filter.iter() {
        name.hash(&mut h);
        constraint.hash(&mut h);
    }
    h.finish()
}

/// Location of one constraint of an indexed filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct PredRef {
    attr: u32,
    pred: u32,
}

/// One indexed filter.
#[derive(Debug, Clone)]
struct IndexEntry<K> {
    key: K,
    constraint_count: u32,
    preds: Vec<PredRef>,
    /// Structural hash of the filter, keying the identity buckets.
    fingerprint: u64,
}

/// An attribute-partitioned predicate index over content-based filters.
///
/// Filters are registered under an external key `K` (a routing-table entry
/// id, a destination, a subscription id …) and matched with the counting
/// algorithm; see the module source docs for the data-structure
/// and algorithm description.
///
/// All query results are deterministic: they depend only on the sequence of
/// insertions and removals, never on hash iteration order.  The index holds
/// no interior mutability — matching state lives in a thread-local
/// scratchpad — so `&FilterIndex` is freely shareable across threads.
///
/// # Examples
///
/// ```
/// use rebeca_filter::{Constraint, Filter, Notification};
/// use rebeca_matcher::FilterIndex;
///
/// let mut index: FilterIndex<&str> = FilterIndex::new();
/// index.insert("cheap-parking", &Filter::new()
///     .with("service", Constraint::Eq("parking".into()))
///     .with("cost", Constraint::Lt(3.into())));
/// index.insert("all-parking", &Filter::new()
///     .with("service", Constraint::Eq("parking".into())));
///
/// let n = Notification::builder().attr("service", "parking").attr("cost", 5).build();
/// assert_eq!(index.matching_keys(&n), vec![&"all-parking"]);
/// ```
#[derive(Debug, Clone)]
pub struct FilterIndex<K> {
    store: PredStore,
    keys: HashMap<K, u32>,
    entries: Vec<Option<IndexEntry<K>>>,
    free: Vec<u32>,
    /// Filters with zero constraints (they match everything and cover
    /// nothing but other universal filters); kept sorted for determinism.
    universal: BTreeSet<u32>,
    /// Identity buckets: structural filter hash → entries with that hash.
    /// `covers_any` answers a probe identical to any stored filter in
    /// O(|probe|) from here (covering is reflexive), which is the common
    /// case for subscription churn — crowds re-subscribing with the same
    /// handful of filters.
    identity: HashMap<u64, SmallVec<u32, 2>>,
}

impl<K> Default for FilterIndex<K> {
    fn default() -> Self {
        FilterIndex {
            store: PredStore::default(),
            keys: HashMap::new(),
            entries: Vec::new(),
            free: Vec::new(),
            universal: BTreeSet::new(),
            identity: HashMap::new(),
        }
    }
}

impl<K: Eq + Hash + Clone> FilterIndex<K> {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of indexed filters.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// `true` when nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Number of distinct predicates currently stored (after deduplication);
    /// exposed for diagnostics and benchmarks.
    pub fn predicate_count(&self) -> usize {
        self.store.pred_count()
    }

    /// Number of distinct interned constraints (shared across attributes);
    /// exposed for diagnostics and benchmarks.
    pub fn interned_constraint_count(&self) -> usize {
        self.store.interned_count()
    }

    #[inline]
    fn entry(&self, fid: u32) -> &IndexEntry<K> {
        self.entries[fid as usize].as_ref().expect("live entry")
    }

    /// Indexes `filter` under `key`, replacing any previous filter with the
    /// same key.
    pub fn insert(&mut self, key: K, filter: &Filter) {
        if self.keys.contains_key(&key) {
            self.remove(&key);
        }
        let fid = match self.free.pop() {
            Some(fid) => fid,
            None => {
                self.entries.push(None);
                (self.entries.len() - 1) as u32
            }
        };
        let solo = filter.len() == 1;
        let mut preds = Vec::with_capacity(filter.len());
        for (name, constraint) in filter.iter() {
            let attr = self.store.ensure_attr(name);
            let pred = self.store.add_constraint(attr, constraint, fid, solo);
            preds.push(PredRef { attr, pred });
        }
        if preds.is_empty() {
            self.universal.insert(fid);
        }
        let fingerprint = filter_fingerprint(filter);
        self.identity.entry(fingerprint).or_default().push(fid);
        self.entries[fid as usize] = Some(IndexEntry {
            key: key.clone(),
            constraint_count: preds.len() as u32,
            preds,
            fingerprint,
        });
        self.keys.insert(key, fid);
    }

    /// Removes the filter registered under `key`; returns `true` when one
    /// was present.
    pub fn remove(&mut self, key: &K) -> bool {
        let Some(fid) = self.keys.remove(key) else {
            return false;
        };
        let entry = self.entries[fid as usize].take().expect("live entry");
        let solo = entry.constraint_count == 1;
        for PredRef { attr, pred } in entry.preds {
            self.store.remove_constraint(attr, pred, fid, solo);
        }
        let bucket = self
            .identity
            .get_mut(&entry.fingerprint)
            .expect("identity bucket");
        let pos = bucket
            .iter()
            .position(|&f| f == fid)
            .expect("fid in identity bucket");
        bucket.remove(pos);
        if bucket.is_empty() {
            self.identity.remove(&entry.fingerprint);
        }
        self.universal.remove(&fid);
        self.free.push(fid);
        true
    }

    /// Keys of every filter matching the notification, via the counting
    /// algorithm: universal filters first (insertion-slot order), then each
    /// match in the deterministic order its counter completes.
    pub fn matching_keys(&self, notification: &Notification) -> Vec<&K> {
        let mut result = Vec::new();
        self.for_each_match(notification, |k| result.push(k));
        result
    }

    /// Visits the key of every matching filter without building a vector
    /// (the allocation-free variant of [`FilterIndex::matching_keys`], in
    /// the same order).
    pub fn for_each_match<'a>(&'a self, notification: &Notification, mut visit: impl FnMut(&'a K)) {
        for &fid in &self.universal {
            visit(&self.entry(fid).key);
        }
        with_thread_scratch(|scratch| {
            scratch.begin(self.entries.len());
            for (name, value) in notification.iter() {
                let Some(attr_id) = self.store.attr_id(name) else {
                    continue;
                };
                self.store.for_each_satisfied(attr_id, value, &mut |pred| {
                    for &fid in &pred.postings {
                        let entry = self.entry(fid);
                        if scratch.bump(fid) == entry.constraint_count {
                            visit(&entry.key);
                        }
                    }
                });
            }
        })
    }

    /// Bumps the counters of `postings`; `true` as soon as one completes.
    fn completes_any(&self, postings: &[u32], scratch: &mut Scratch) -> bool {
        postings
            .iter()
            .any(|&fid| scratch.bump(fid) == self.entry(fid).constraint_count)
    }

    fn keys_of(&self, mut fids: Vec<u32>) -> Vec<&K> {
        fids.sort_unstable();
        fids.iter().map(|&fid| &self.entry(fid).key).collect()
    }

    /// Keys of **exactly** the stored filters that cover `filter` (in the
    /// sense of [`rebeca_filter::Filter::covers`]), sorted by insertion
    /// slot.
    ///
    /// Runs the counting algorithm in the covering domain: for every
    /// attribute of `filter`, the deduplicated predicates overlapping the
    /// probe's partition ranges are tested with
    /// [`rebeca_filter::Constraint::covers`] — not once per filter — and
    /// the covering predicates' postings are counted.
    pub fn covering_keys(&self, filter: &Filter) -> Vec<&K> {
        let mut fids: Vec<u32> = self.universal.iter().copied().collect();
        with_thread_scratch(|scratch| {
            scratch.begin(self.entries.len());
            for (name, constraint) in filter.iter() {
                let Some(attr_id) = self.store.attr_id(name) else {
                    continue;
                };
                self.store
                    .for_each_covering(attr_id, constraint, &mut |pred| {
                        for &fid in &pred.postings {
                            if scratch.bump(fid) == self.entry(fid).constraint_count {
                                fids.push(fid);
                            }
                        }
                    });
            }
        });
        self.keys_of(fids)
    }

    /// `true` when at least one stored filter covers `filter` — the
    /// early-exiting variant of [`FilterIndex::covering_keys`].
    ///
    /// Fast paths, in order: a stored universal filter covers everything; a
    /// stored filter identical to the probe covers it reflexively (one hash
    /// lookup); a stored single-constraint filter covering one probe
    /// constraint covers the whole probe (answered by the per-attribute
    /// covering summaries).  Only when all three miss does the counting
    /// walk over the covering partitions run.
    pub fn covers_any(&self, filter: &Filter) -> bool {
        if !self.universal.is_empty() || self.has_identical(filter) {
            return true;
        }
        let known_attrs = || {
            filter
                .iter()
                .filter_map(|(name, c)| Some((self.store.attr_id(name)?, c)))
        };
        if known_attrs().any(|(attr_id, c)| self.store.solo_covers(attr_id, c)) {
            return true;
        }
        with_thread_scratch(|scratch| {
            scratch.begin(self.entries.len());
            known_attrs().any(|(attr_id, constraint)| {
                let mut found = false;
                self.store
                    .for_each_covering(attr_id, constraint, &mut |pred| {
                        found = found || self.completes_any(&pred.postings, scratch);
                    });
                found
            })
        })
    }

    /// `true` when a stored filter is structurally identical to `filter`.
    ///
    /// Resolves the probe's constraints against the store (pure lookups, no
    /// interning) and compares the resulting predicate list against each
    /// entry in the probe's identity bucket — `Filter` iterates in
    /// canonical attribute order, so equal filters resolve to equal
    /// predicate lists in equal order.
    fn has_identical(&self, filter: &Filter) -> bool {
        let Some(bucket) = self.identity.get(&filter_fingerprint(filter)) else {
            return false;
        };
        let mut resolved: SmallVec<PredRef, 8> = SmallVec::new();
        for (name, constraint) in filter.iter() {
            let Some(attr) = self.store.attr_id(name) else {
                return false;
            };
            let Some(pred) = self.store.resolve_pred(attr, constraint) else {
                return false;
            };
            resolved.push(PredRef { attr, pred });
        }
        bucket
            .iter()
            .any(|&fid| self.entry(fid).preds.as_slice() == resolved.as_slice())
    }

    /// Keys of **exactly** the stored filters that `filter` covers, sorted
    /// by insertion slot.
    ///
    /// Runs an *anchored* walk: a covered filter must constrain every probe
    /// attribute, so only the probe attribute with the smallest candidate
    /// posting volume is enumerated, and each candidate is verified exactly
    /// against the remaining probe constraints through its own predicate
    /// list.  With a selective anchor (e.g. the group id of a subscription
    /// class) the walk is proportional to the covered group's size, not to
    /// the table size.
    pub fn covered_keys(&self, filter: &Filter) -> Vec<&K> {
        if filter.is_empty() {
            // The universal filter covers everything.
            return self.keys_of(self.keys.values().copied().collect());
        }
        let mut probes = Vec::with_capacity(filter.len());
        for (name, constraint) in filter.iter() {
            let Some(attr_id) = self.store.attr_id(name) else {
                // Some attribute of `filter` is constrained by no stored
                // filter at all — nothing can be covered.
                return Vec::new();
            };
            probes.push((attr_id, constraint));
        }
        let anchor = probes
            .iter()
            .enumerate()
            .min_by_key(|&(_, &(a, c))| self.store.covered_volume(a, c))
            .map(|(i, _)| i)
            .expect("non-empty probe");
        let (aattr, aconstraint) = probes[anchor];
        let mut fids = Vec::new();
        self.store
            .for_each_covered(aattr, aconstraint, &mut |pred| {
                'candidate: for &fid in &pred.postings {
                    let entry = self.entry(fid);
                    if (entry.constraint_count as usize) < probes.len() {
                        continue;
                    }
                    for (i, &(a, c)) in probes.iter().enumerate() {
                        if i == anchor {
                            // The anchor constraint was verified by the walk.
                            continue;
                        }
                        let Some(pr) = entry.preds.iter().find(|p| p.attr == a) else {
                            continue 'candidate;
                        };
                        if !c.covers(self.store.constraint_of(a, pr.pred)) {
                            continue 'candidate;
                        }
                    }
                    fids.push(fid);
                }
            });
        self.keys_of(fids)
    }

    /// Matches a queue of notifications at once, returning each
    /// notification's matching keys in insertion-slot order.
    ///
    /// The queue is processed in 64-notification lane chunks with
    /// per-predicate bitmasks, so every posting list is walked once per
    /// chunk instead of once per notification.
    ///
    /// ```
    /// use rebeca_filter::{Constraint, Filter, Notification};
    /// use rebeca_matcher::FilterIndex;
    ///
    /// let mut index: FilterIndex<u64> = FilterIndex::new();
    /// for i in 0..1000u64 {
    ///     index.insert(i, &Filter::new()
    ///         .with("stock", Constraint::Eq("REBECA".into()))
    ///         .with("price", Constraint::Lt((i as i64).into())));
    /// }
    /// let ticks: Vec<Notification> = (0..128)
    ///     .map(|i| Notification::builder().attr("stock", "REBECA").attr("price", 990 + i % 10).build())
    ///     .collect();
    /// let matches = index.match_batch(&ticks);
    /// assert_eq!(matches.len(), 128);
    /// assert_eq!(matches[0].len(), index.matching_keys(&ticks[0]).len());
    /// ```
    pub fn match_batch<N: Borrow<Notification>>(&self, notifications: &[N]) -> Vec<Vec<&K>> {
        with_thread_scratch(|scratch| {
            let mut out = Vec::with_capacity(notifications.len());
            for chunk in notifications.chunks(LANE_COUNT) {
                self.match_chunk(chunk, scratch, &mut out);
            }
            out
        })
    }

    /// Matches one chunk of at most [`LANE_COUNT`] notifications, appending
    /// each lane's matching keys (in insertion-slot order) to `out`.
    fn match_chunk<'a, N: Borrow<Notification>>(
        &'a self,
        chunk: &[N],
        scratch: &mut Scratch,
        out: &mut Vec<Vec<&'a K>>,
    ) {
        debug_assert!(chunk.len() <= LANE_COUNT);
        scratch.begin_entries_batch(self.entries.len());
        scratch.begin_preds(self.store.mask_slot_count());
        {
            // Phase 1: per-predicate lane masks.  A predicate satisfied by
            // several lanes accumulates all their bits before its postings
            // are touched at all.
            let Scratch {
                pred_stamps,
                pred_masks,
                pred_epoch,
                touched_preds,
                ..
            } = scratch;
            let epoch = *pred_epoch;
            for (lane, n) in chunk.iter().enumerate() {
                let lane_bit = 1u64 << lane;
                for (name, value) in n.borrow().iter() {
                    let Some(attr_id) = self.store.attr_id(name) else {
                        continue;
                    };
                    self.store.for_each_satisfied(attr_id, value, &mut |pred| {
                        let slot = pred.mask_slot as usize;
                        if pred_stamps[slot] == epoch {
                            pred_masks[slot] |= lane_bit;
                        } else {
                            pred_stamps[slot] = epoch;
                            pred_masks[slot] = lane_bit;
                            touched_preds.push((attr_id, pred.id));
                        }
                    });
                }
            }
        }
        {
            // Phase 2: fold each touched predicate's mask into its postings'
            // conjunction accumulators — one posting-list walk per chunk.
            // Dense chunks (most entries touched) stop recording touched
            // entries once the harvest would switch to a linear stamp scan
            // anyway.
            let Scratch {
                pred_masks,
                touched_preds,
                entry_stamps,
                entry_masks,
                entry_counts,
                entry_epoch,
                touched_entries,
                ..
            } = scratch;
            let epoch = *entry_epoch;
            let dense_limit = self.entries.len() / 8;
            for &(attr_id, pred_id) in touched_preds.iter() {
                let pred = self.store.pred(attr_id, pred_id);
                let mask = pred_masks[pred.mask_slot as usize];
                for &fid in pred.postings.as_slice() {
                    let f = fid as usize;
                    if entry_stamps[f] == epoch {
                        entry_masks[f] &= mask;
                        entry_counts[f] += 1;
                    } else {
                        entry_stamps[f] = epoch;
                        entry_masks[f] = mask;
                        entry_counts[f] = 1;
                        if touched_entries.len() <= dense_limit {
                            touched_entries.push(fid);
                        }
                    }
                }
            }
        }
        // Harvest: an entry matches lane `j` when every one of its
        // predicates was satisfied by some lane (count reached) and bit `j`
        // survived the conjunction.  Universal entries match every lane.
        let full: u64 = if chunk.len() == LANE_COUNT {
            u64::MAX
        } else {
            (1u64 << chunk.len()) - 1
        };
        let mut candidates: Vec<(u32, u64, &K)> = Vec::new();
        let push_candidate =
            |candidates: &mut Vec<(u32, u64, &'a K)>, scratch: &Scratch, fid: u32| {
                let f = fid as usize;
                let mask = scratch.entry_masks[f];
                if mask != 0 {
                    let entry = self.entry(fid);
                    if scratch.entry_counts[f] == entry.constraint_count {
                        candidates.push((fid, mask, &entry.key));
                    }
                }
            };
        // Candidates must come out in insertion-slot order.  When most
        // entries were touched, a linear scan over the stamp array is far
        // cheaper than sorting the touched list (phase 2 stops recording
        // past that threshold); when few were, sorting the short list wins.
        if scratch.touched_entries.len() * 8 >= self.entries.len() {
            for f in 0..self.entries.len() {
                if scratch.entry_stamps[f] == scratch.entry_epoch {
                    push_candidate(&mut candidates, scratch, f as u32);
                }
            }
        } else {
            let mut touched_entries = std::mem::take(&mut scratch.touched_entries);
            touched_entries.sort_unstable();
            for &fid in &touched_entries {
                push_candidate(&mut candidates, scratch, fid);
            }
            scratch.touched_entries = touched_entries;
        }
        if !self.universal.is_empty() {
            candidates.extend(
                self.universal
                    .iter()
                    .map(|&fid| (fid, full, &self.entry(fid).key)),
            );
            candidates.sort_unstable_by_key(|&(fid, _, _)| fid);
        }
        let base = out.len();
        out.resize_with(base + chunk.len(), Vec::new);
        for (_, mask, key) in candidates {
            let mut m = mask;
            while m != 0 {
                out[base + m.trailing_zeros() as usize].push(key);
                m &= m - 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rebeca_filter::Constraint;

    fn parking(max: i64) -> Filter {
        Filter::new()
            .with("service", Constraint::Eq("parking".into()))
            .with("cost", Constraint::Lt(max.into()))
    }

    fn vacancy(cost: i64) -> Notification {
        Notification::builder()
            .attr("service", "parking")
            .attr("cost", cost)
            .build()
    }

    #[test]
    fn counting_match_requires_every_constraint() {
        let mut idx: FilterIndex<u32> = FilterIndex::new();
        idx.insert(1, &parking(3));
        idx.insert(2, &parking(10));
        assert_eq!(idx.matching_keys(&vacancy(2)), vec![&1, &2]);
        assert_eq!(idx.matching_keys(&vacancy(5)), vec![&2]);
        assert!(idx.matching_keys(&vacancy(20)).is_empty());
        let missing_attr = Notification::builder().attr("cost", 1).build();
        assert!(idx.matching_keys(&missing_attr).is_empty());
    }

    #[test]
    fn universal_filters_always_match() {
        let mut idx: FilterIndex<u32> = FilterIndex::new();
        idx.insert(7, &Filter::universal());
        assert_eq!(idx.matching_keys(&Notification::new()), vec![&7]);
    }

    #[test]
    fn insert_is_upsert_and_remove_unindexes() {
        let mut idx: FilterIndex<&str> = FilterIndex::new();
        idx.insert("a", &parking(3));
        idx.insert("a", &parking(10));
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.matching_keys(&vacancy(5)), vec![&"a"]);
        assert!(idx.remove(&"a"));
        assert!(!idx.remove(&"a"));
        assert!(idx.is_empty());
        assert_eq!(idx.predicate_count(), 0);
        assert_eq!(idx.interned_constraint_count(), 0);
        assert!(idx.matching_keys(&vacancy(1)).is_empty());
    }

    #[test]
    fn predicates_are_deduplicated_across_filters() {
        let mut idx: FilterIndex<u32> = FilterIndex::new();
        for i in 0..10 {
            idx.insert(i, &parking(3));
        }
        // Two distinct predicates (service eq, cost lt) shared by 10 filters.
        assert_eq!(idx.predicate_count(), 2);
        assert_eq!(idx.matching_keys(&vacancy(1)).len(), 10);
    }

    #[test]
    fn constraints_are_interned_across_attributes() {
        let mut idx: FilterIndex<u32> = FilterIndex::new();
        // The same constraint on two different attributes is two predicates
        // but one interned constraint.
        idx.insert(
            1,
            &Filter::new()
                .with("a", Constraint::Eq(1.into()))
                .with("b", Constraint::Eq(1.into())),
        );
        assert_eq!(idx.predicate_count(), 2);
        assert_eq!(idx.interned_constraint_count(), 1);
        idx.remove(&1);
        assert_eq!(idx.interned_constraint_count(), 0);
    }

    #[test]
    fn numeric_partitions_cover_all_comparison_kinds() {
        let mut idx: FilterIndex<&str> = FilterIndex::new();
        idx.insert("lt", &Filter::new().with("x", Constraint::Lt(5.into())));
        idx.insert("le", &Filter::new().with("x", Constraint::Le(5.into())));
        idx.insert("gt", &Filter::new().with("x", Constraint::Gt(5.into())));
        idx.insert("ge", &Filter::new().with("x", Constraint::Ge(5.into())));
        idx.insert(
            "bw",
            &Filter::new().with("x", Constraint::Between(2.into(), 8.into())),
        );
        let at = |v: i64| Notification::builder().attr("x", v).build();
        let names = |v: i64| {
            let mut ks: Vec<&str> = idx.matching_keys(&at(v)).into_iter().copied().collect();
            ks.sort_unstable();
            ks
        };
        assert_eq!(names(4), vec!["bw", "le", "lt"]);
        assert_eq!(names(5), vec!["bw", "ge", "le"]);
        assert_eq!(names(6), vec!["bw", "ge", "gt"]);
        assert_eq!(names(9), vec!["ge", "gt"]);
        assert_eq!(names(1), vec!["le", "lt"]);
    }

    #[test]
    fn int_float_equality_collapses_like_value_eq() {
        let mut idx: FilterIndex<&str> = FilterIndex::new();
        idx.insert("eq3", &Filter::new().with("x", Constraint::Eq(3.into())));
        let float3 = Notification::builder().attr("x", 3.0).build();
        assert_eq!(idx.matching_keys(&float3), vec![&"eq3"]);
    }

    #[test]
    fn covering_queries_are_exact() {
        let mut idx: FilterIndex<u32> = FilterIndex::new();
        idx.insert(1, &Filter::new().with("service", Constraint::Exists));
        idx.insert(2, &parking(3));
        idx.insert(3, &Filter::new().with("other", Constraint::Exists));
        idx.insert(4, &Filter::universal());

        // Covers of parking(1): the service-Exists filter, the wider parking
        // filter, and the universal filter (sorted by insertion slot).
        assert_eq!(idx.covering_keys(&parking(1)), vec![&1, &2, &4]);
        assert!(idx.covers_any(&parking(1)));

        // parking(1) covers nothing stored (parking(3) is wider).
        assert!(idx.covered_keys(&parking(1)).is_empty());
        // parking(10) covers parking(3).
        assert_eq!(idx.covered_keys(&parking(10)), vec![&2]);

        // The universal probe covers everything.
        assert_eq!(idx.covered_keys(&Filter::universal()).len(), 4);

        // A probe with an unknown attribute can cover nothing.
        let probe = Filter::new().with("nope", Constraint::Exists);
        assert!(idx.covered_keys(&probe).is_empty());
    }

    #[test]
    fn covering_queries_survive_removal() {
        let mut idx: FilterIndex<u32> = FilterIndex::new();
        idx.insert(1, &Filter::new().with("service", Constraint::Exists));
        idx.insert(2, &parking(3));
        idx.insert(4, &Filter::universal());
        assert_eq!(idx.covering_keys(&parking(1)), vec![&1, &2, &4]);
        assert!(idx.covers_any(&parking(1)));
        assert_eq!(idx.covered_keys(&parking(10)), vec![&2]);
        assert!(idx.remove(&2));
        assert!(idx.covered_keys(&parking(10)).is_empty());
        assert_eq!(idx.covering_keys(&parking(1)), vec![&1, &4]);
    }

    #[test]
    fn residual_predicates_stay_exact() {
        let mut idx: FilterIndex<&str> = FilterIndex::new();
        idx.insert(
            "pre",
            &Filter::new().with("s", Constraint::Prefix("Re".into())),
        );
        idx.insert("ne", &Filter::new().with("s", Constraint::Ne("x".into())));
        idx.insert(
            "strlt",
            &Filter::new().with("s", Constraint::Lt("m".into())),
        );
        let n = |s: &str| Notification::builder().attr("s", s).build();
        let names = |s: &str| {
            let mut ks: Vec<&str> = idx.matching_keys(&n(s)).into_iter().copied().collect();
            ks.sort_unstable();
            ks
        };
        // "Rebeca" < "m" lexicographically, so the string range matches too.
        assert_eq!(names("Rebeca"), vec!["ne", "pre", "strlt"]);
        assert_eq!(names("abc"), vec!["ne", "strlt"]);
        assert_eq!(names("x"), vec![] as Vec<&str>);
    }

    #[test]
    fn empty_in_sets_match_nothing_but_take_part_in_covering() {
        let mut idx: FilterIndex<&str> = FilterIndex::new();
        let empty = Filter::new().with("x", Constraint::In(Default::default()));
        idx.insert("empty", &empty);
        assert!(idx
            .matching_keys(&Notification::builder().attr("x", 1).build())
            .is_empty());
        // Any `In` probe covers the empty set; the empty set covers only
        // itself.
        let wide = Filter::new().with("x", Constraint::any_of([1, 2]));
        assert_eq!(idx.covered_keys(&wide), vec![&"empty"]);
        assert_eq!(idx.covering_keys(&empty), vec![&"empty"]);
        assert!(idx.covering_keys(&wide).is_empty());

        // The reverse direction: stored `In` and numeric `Between` filters
        // cover an empty-`In` probe vacuously (`Constraint::covers`'s
        // `all()` over no members), so the covering walk must surface them.
        idx.insert("in", &wide);
        idx.insert(
            "bw",
            &Filter::new().with("x", Constraint::Between(1.into(), 5.into())),
        );
        idx.insert("lt", &Filter::new().with("x", Constraint::Lt(9.into())));
        let mut covering: Vec<&str> = idx.covering_keys(&empty).into_iter().copied().collect();
        covering.sort_unstable();
        assert_eq!(covering, vec!["bw", "empty", "in"]);
        assert!(idx.covers_any(&empty));
    }

    #[test]
    fn match_batch_agrees_with_single_matching() {
        let mut idx: FilterIndex<u32> = FilterIndex::new();
        for i in 0..100 {
            idx.insert(i, &parking((i % 10) as i64));
        }
        idx.insert(100, &Filter::universal());
        let batch: Vec<Notification> = (0..150).map(|i| vacancy(i % 12)).collect();
        let got = idx.match_batch(&batch);
        assert_eq!(got.len(), batch.len());
        for (n, keys) in batch.iter().zip(&got) {
            let mut expected: Vec<u32> = idx.matching_keys(n).into_iter().copied().collect();
            expected.sort_unstable();
            let found: Vec<u32> = keys.iter().map(|k| **k).collect();
            assert_eq!(found, expected, "batch disagrees on {n}");
        }
    }

    #[test]
    fn for_each_match_visits_the_matching_keys() {
        let mut idx: FilterIndex<u32> = FilterIndex::new();
        idx.insert(1, &parking(3));
        idx.insert(2, &parking(10));
        let mut seen = Vec::new();
        idx.for_each_match(&vacancy(2), |k| seen.push(*k));
        seen.sort_unstable();
        assert_eq!(seen, vec![1, 2]);
    }
}
