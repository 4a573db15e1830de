//! The predicate store: deduplicated `(attribute, constraint)` predicates
//! partitioned by attribute and evaluation class.
//!
//! A [`PredStore`] owns the per-attribute partitions of a
//! [`FilterIndex`](crate::FilterIndex).  Constraints are interned in one
//! [`ConstraintArena`] shared across attributes; each distinct
//! `(attribute, constraint)` pair becomes one predicate with an inline
//! small-vector posting list of the filters using it.
//!
//! Within one attribute, predicates are partitioned by evaluation class:
//!
//! * **equality** (`Eq`, `In`) — a hash table from canonical value keys to
//!   predicates; numeric members are additionally registered in an ordered
//!   map (`eq_num`, keyed by the smallest member's sort key) so the
//!   covering walks can range-scan them;
//! * **ordered numeric** (`Lt`, `Le`, `Gt`, `Ge`, `Between` with `Int`/
//!   `Float` bounds) — ordered maps keyed by a monotone encoding of the
//!   bound;
//! * **existence** (`Exists`) — satisfied by presence alone;
//! * **residual** (string predicates, `Ne`, non-numeric ordered bounds,
//!   empty `In` sets) — a short list evaluated directly; exactness is never
//!   traded for speed.
//!
//! # Range-partitioned covering walks
//!
//! The covering queries used to test **every** distinct predicate of a
//! probe's attributes.  The walks below instead enumerate, per probe class,
//! only the partition ranges that can possibly contain a covering (or
//! covered) predicate — e.g. the predicates covering `cost < 5` are the
//! `Lt`/`Le` predicates with bounds at or above 5, plus `Exists` and the
//! residual class.  Every candidate is still verified with the exact
//! [`Constraint::covers`] test (except `Exists`, which covers everything by
//! definition), so the walks visit fewer predicates without ever changing a
//! result.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::ops::Bound::{Excluded, Unbounded};

use rebeca_filter::{Constraint, Value};
use smallvec::SmallVec;

use crate::arena::ConstraintArena;

/// Canonical hash key of a value under the filter model's equality
/// semantics ([`Value::value_eq`]): numeric values collapse onto the total
/// order of `f64`, every other kind is keyed by its exact payload.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum CanonKey {
    /// `Int` or `Float`, encoded with [`num_sort_key`].
    Num(u64),
    Str(String),
    Bool(bool),
    Loc(u32),
}

/// Monotone encoding of the `f64` total order into `u64`: `a.total_cmp(b)`
/// agrees with `num_sort_key(a).cmp(&num_sort_key(b))`.
pub(crate) fn num_sort_key(f: f64) -> u64 {
    let bits = f.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1 << 63)
    }
}

/// Numeric sort key of a value, when it has one.
pub(crate) fn value_num_key(v: &Value) -> Option<u64> {
    match v {
        Value::Int(i) => Some(num_sort_key(*i as f64)),
        Value::Float(f) => Some(num_sort_key(*f)),
        _ => None,
    }
}

pub(crate) fn canon_key(v: &Value) -> CanonKey {
    match v {
        Value::Int(i) => CanonKey::Num(num_sort_key(*i as f64)),
        Value::Float(f) => CanonKey::Num(num_sort_key(*f)),
        Value::Str(s) => CanonKey::Str(s.clone()),
        Value::Bool(b) => CanonKey::Bool(*b),
        Value::Location(l) => CanonKey::Loc(*l),
    }
}

/// Where a predicate lives inside its attribute partition (needed to undo
/// the insertion when the last filter using the predicate is removed).
#[derive(Debug, Clone)]
enum Slot {
    Eq {
        /// Canonical keys the predicate is registered under (one per
        /// distinct member value).
        keys: Vec<CanonKey>,
        /// Sort key of the smallest numeric member when **all** members are
        /// numeric; the predicate is then also registered in `eq_num`.
        num_key: Option<u64>,
    },
    Lt(u64),
    Le(u64),
    Gt(u64),
    Ge(u64),
    /// Keyed by the sort key of the lower bound.
    Between(u64),
    Exists,
    Residual,
}

/// One deduplicated `(attribute, constraint)` predicate.
#[derive(Debug, Clone)]
pub(crate) struct Pred {
    /// The predicate's own slot within its attribute (so visitors can refer
    /// back to it without re-deriving the id).
    pub(crate) id: u32,
    /// Arena id of the interned constraint.
    pub(crate) cid: u32,
    slot: Slot,
    /// Store-wide dense slot used by the batch kernel's per-predicate lane
    /// masks.
    pub(crate) mask_slot: u32,
    /// Filters using this predicate (insertion order, deterministic).
    pub(crate) postings: SmallVec<u32, 4>,
    /// How many of the postings belong to *single-constraint* filters.  A
    /// solo predicate that covers a probe constraint proves covering of the
    /// whole probe filter, which is what the covering summary exploits.
    solo: u32,
}

type ClassMap = BTreeMap<u64, SmallVec<u32, 2>>;

/// All predicates of one attribute, partitioned by evaluation class.
#[derive(Debug, Clone, Default)]
struct AttrIndex {
    /// Deduplication map: interned constraint id → predicate slot.
    dedup: HashMap<u32, u32>,
    preds: Vec<Option<Pred>>,
    free: Vec<u32>,
    /// Equality classes: canonical value key → predicates that a value with
    /// this key may satisfy (`Eq`, `In`).  Verified exactly on lookup.
    eq: HashMap<CanonKey, SmallVec<u32, 2>>,
    /// All-numeric equality predicates keyed by their smallest member's
    /// sort key, so range probes can enumerate the point predicates they
    /// may cover without touching the hash classes.
    eq_num: ClassMap,
    /// Ordered numeric predicates, keyed by the bound's sort key.  A query
    /// value strictly below/above the key is satisfied without further
    /// checks; the boundary class is verified exactly (this keeps huge-`i64`
    /// versus `f64` edge cases byte-identical to the linear scan).
    lt: ClassMap,
    le: ClassMap,
    gt: ClassMap,
    ge: ClassMap,
    /// `Between` predicates keyed by lower-bound sort key; candidates with a
    /// lower bound ≤ the query value are verified exactly.
    between: ClassMap,
    /// `Exists` predicates — satisfied by attribute presence.
    exists: SmallVec<u32, 2>,
    /// Predicates evaluated directly (`Ne`, string predicates, ordered
    /// constraints with non-numeric bounds, empty `In` sets).
    residual: SmallVec<u32, 4>,
    /// Filters constraining this attribute (sorted, deterministic), used by
    /// the same-attribute counting walks.
    filters: BTreeSet<u32>,
    /// Covering summary, maintained incrementally on insert/remove: the
    /// bound keys of predicates used by at least one single-constraint
    /// filter, per ordered class, with the number of such predicates at
    /// each key.  [`PredStore::solo_covers`] answers "does some stored
    /// one-constraint filter cover this probe constraint?" from these maps
    /// in a handful of ordered lookups — no posting list is walked at all.
    solo_lt: BTreeMap<u64, u32>,
    solo_le: BTreeMap<u64, u32>,
    solo_gt: BTreeMap<u64, u32>,
    solo_ge: BTreeMap<u64, u32>,
    /// Canonical value keys of solo `Eq`/`In` predicates — the value-set
    /// union of the equality summary (one count per registered key).
    solo_eq: HashMap<CanonKey, u32>,
    /// Number of solo `Exists` predicates (each covers every probe).
    solo_exists: u32,
    /// Number of solo residual predicates (verified exactly when probed;
    /// the residual list stays short by construction).
    solo_residual: u32,
}

impl AttrIndex {
    #[inline]
    fn pred(&self, id: u32) -> &Pred {
        self.preds[id as usize].as_ref().expect("live pred")
    }
}

/// The attribute partitions of one index plus the shared constraint arena
/// and the mask-slot allocator.
#[derive(Debug, Clone, Default)]
pub(crate) struct PredStore {
    arena: ConstraintArena,
    attr_ids: HashMap<String, u32>,
    attrs: Vec<AttrIndex>,
    free_mask_slots: Vec<u32>,
    mask_slots: u32,
}

impl PredStore {
    /// Id of an attribute already seen by this store.
    #[inline]
    pub(crate) fn attr_id(&self, name: &str) -> Option<u32> {
        self.attr_ids.get(name).copied()
    }

    /// Id of `name`, creating the attribute partition if needed.
    pub(crate) fn ensure_attr(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.attr_ids.get(name) {
            return id;
        }
        let id = self.attrs.len() as u32;
        self.attr_ids.insert(name.to_string(), id);
        self.attrs.push(AttrIndex::default());
        id
    }

    /// The predicate `(attr_id, pred_id)`.
    #[inline]
    pub(crate) fn pred(&self, attr_id: u32, pred_id: u32) -> &Pred {
        self.attrs[attr_id as usize].pred(pred_id)
    }

    /// Filters (by entry id) constraining the attribute.
    pub(crate) fn attr_filters(&self, attr_id: u32) -> impl Iterator<Item = u32> + '_ {
        self.attrs[attr_id as usize].filters.iter().copied()
    }

    /// Number of live predicates across all attributes.
    pub(crate) fn pred_count(&self) -> usize {
        self.attrs
            .iter()
            .map(|a| a.preds.len() - a.free.len())
            .sum()
    }

    /// Number of distinct interned constraints.
    pub(crate) fn interned_count(&self) -> usize {
        self.arena.len()
    }

    /// Upper bound (exclusive) of the mask slots handed out so far; sizes
    /// the batch kernel's per-predicate scratch.
    pub(crate) fn mask_slot_count(&self) -> usize {
        self.mask_slots as usize
    }

    /// Registers `fid` as a user of `constraint` on the attribute, creating
    /// the deduplicated predicate if this is its first user.  `solo` marks
    /// `fid` as a single-constraint filter, which feeds the covering
    /// summary.  Returns the predicate id.
    pub(crate) fn add_constraint(
        &mut self,
        attr_id: u32,
        constraint: &Constraint,
        fid: u32,
        solo: bool,
    ) -> u32 {
        let cid = self.arena.intern(constraint);
        let attr = &mut self.attrs[attr_id as usize];
        let pred_id = match attr.dedup.get(&cid) {
            Some(&id) => {
                // The predicate already holds a reference to the constraint.
                self.arena.release(cid);
                id
            }
            None => {
                let mask_slot = match self.free_mask_slots.pop() {
                    Some(slot) => slot,
                    None => {
                        self.mask_slots += 1;
                        self.mask_slots - 1
                    }
                };
                let id = add_pred(attr, constraint, cid, mask_slot);
                attr.dedup.insert(cid, id);
                id
            }
        };
        let attr = &mut self.attrs[attr_id as usize];
        let first_solo = {
            let pred = attr.preds[pred_id as usize].as_mut().expect("live pred");
            pred.postings.push(fid);
            if solo {
                pred.solo += 1;
            }
            solo && pred.solo == 1
        };
        if first_solo {
            register_solo(attr, pred_id);
        }
        attr.filters.insert(fid);
        pred_id
    }

    /// Unregisters `fid` from the predicate, dropping the predicate when its
    /// posting list becomes empty.  `solo` must match the flag the filter
    /// was inserted with so the covering summary stays balanced.
    pub(crate) fn remove_constraint(&mut self, attr_id: u32, pred_id: u32, fid: u32, solo: bool) {
        let attr = &mut self.attrs[attr_id as usize];
        let last_solo = {
            let pred = attr.preds[pred_id as usize].as_mut().expect("live pred");
            let pos = pred
                .postings
                .iter()
                .position(|&f| f == fid)
                .expect("fid in postings");
            pred.postings.remove(pos);
            if solo {
                pred.solo -= 1;
            }
            solo && pred.solo == 0
        };
        if last_solo {
            unregister_solo(attr, pred_id);
        }
        attr.filters.remove(&fid);
        if attr.preds[pred_id as usize]
            .as_ref()
            .expect("live pred")
            .postings
            .is_empty()
        {
            let pred = attr.preds[pred_id as usize].take().expect("live pred");
            attr.dedup.remove(&pred.cid);
            drop_pred_registration(attr, pred_id, &pred.slot);
            attr.free.push(pred_id);
            self.free_mask_slots.push(pred.mask_slot);
            self.arena.release(pred.cid);
        }
    }

    /// Walks every predicate of the attribute that the value satisfies,
    /// exactly once each, in deterministic order.
    pub(crate) fn for_each_satisfied(
        &self,
        attr_id: u32,
        value: &Value,
        visit: &mut impl FnMut(&Pred),
    ) {
        let attr = &self.attrs[attr_id as usize];
        // Equality class: one hash lookup, then exact verification (canonical
        // numeric keys can collide across `i64`/`f64` extremes).
        if let Some(list) = attr.eq.get(&canon_key(value)) {
            for &id in list {
                let pred = attr.pred(id);
                if self.arena.get(pred.cid).matches_value(value) {
                    visit(pred);
                }
            }
        }
        // Ordered numeric partitions: strictly-inside classes are satisfied
        // by construction of the sort key; the boundary class is verified.
        if let Some(vk) = value_num_key(value) {
            for (&k, list) in attr.lt.range((Excluded(vk), Unbounded)) {
                debug_assert!(k > vk);
                for &id in list {
                    visit(attr.pred(id));
                }
            }
            for (&k, list) in attr.le.range(vk..) {
                for &id in list {
                    let pred = attr.pred(id);
                    if k > vk || self.arena.get(pred.cid).matches_value(value) {
                        visit(pred);
                    }
                }
            }
            for (&k, list) in attr.gt.range(..vk) {
                debug_assert!(k < vk);
                for &id in list {
                    visit(attr.pred(id));
                }
            }
            for (&k, list) in attr.ge.range(..=vk) {
                for &id in list {
                    let pred = attr.pred(id);
                    if k < vk || self.arena.get(pred.cid).matches_value(value) {
                        visit(pred);
                    }
                }
            }
            // Boundary classes of the strict partitions still need the exact
            // check (e.g. `Int(2^53)` and `Float(2^53 as f64)` share a key).
            for map in [&attr.lt, &attr.gt] {
                if let Some(list) = map.get(&vk) {
                    for &id in list {
                        let pred = attr.pred(id);
                        if self.arena.get(pred.cid).matches_value(value) {
                            visit(pred);
                        }
                    }
                }
            }
            // `Between` candidates: every class whose lower bound is ≤ the
            // value, verified exactly (the upper bound needs checking anyway).
            for (_, list) in attr.between.range(..=vk) {
                for &id in list {
                    let pred = attr.pred(id);
                    if self.arena.get(pred.cid).matches_value(value) {
                        visit(pred);
                    }
                }
            }
        }
        // Presence satisfies every `Exists` predicate.
        for &id in &attr.exists {
            visit(attr.pred(id));
        }
        // Residual predicates: direct evaluation.
        for &id in &attr.residual {
            let pred = attr.pred(id);
            if self.arena.get(pred.cid).matches_value(value) {
                visit(pred);
            }
        }
    }

    /// Walks every live predicate of the attribute whose constraint
    /// **covers** `probe`, exactly once each, in deterministic order.
    ///
    /// Candidates are enumerated per partition range (see the module
    /// documentation) and verified with the exact [`Constraint::covers`]
    /// test, so the walk visits only the predicates whose bounds overlap
    /// the probe's instead of every distinct predicate of the attribute.
    pub(crate) fn for_each_covering(
        &self,
        attr_id: u32,
        probe: &Constraint,
        visit: &mut impl FnMut(&Pred),
    ) {
        let attr = &self.attrs[attr_id as usize];
        // `Exists` covers every constraint; no verification needed.
        for &id in &attr.exists {
            visit(attr.pred(id));
        }
        // Residual predicates (strings, `Ne`, non-numeric bounds) are always
        // candidates; verify exactly.
        for &id in &attr.residual {
            let pred = attr.pred(id);
            if self.arena.get(pred.cid).covers(probe) {
                visit(pred);
            }
        }
        let mut verify = |pred: &Pred| {
            if self.arena.get(pred.cid).covers(probe) {
                visit(pred);
            }
        };
        match probe {
            // Only `Exists` covers `Exists` (already visited above).
            Constraint::Exists => {}
            // A predicate covers a point exactly when it accepts the point,
            // so the candidate ranges mirror `for_each_satisfied`.
            Constraint::Eq(v) => {
                visit_class(attr, attr.eq.get(&canon_key(v)), &mut verify);
                if let Some(vk) = value_num_key(v) {
                    visit_range(attr, attr.lt.range(vk..), &mut verify);
                    visit_range(attr, attr.le.range(vk..), &mut verify);
                    visit_range(attr, attr.gt.range(..=vk), &mut verify);
                    visit_range(attr, attr.ge.range(..=vk), &mut verify);
                    visit_range(attr, attr.between.range(..=vk), &mut verify);
                }
            }
            Constraint::In(set) => {
                // A covering equality predicate accepts every member, so it
                // is registered under the first member's class; a covering
                // `Between` needs a lower bound at or below the smallest
                // numeric member (and covers nothing if any member is
                // non-numeric).
                if let Some(first) = set.iter().next() {
                    visit_class(attr, attr.eq.get(&canon_key(first)), &mut verify);
                    let keys: Option<Vec<u64>> = set.iter().map(value_num_key).collect();
                    if let Some(min) = keys.and_then(|ks| ks.into_iter().min()) {
                        visit_range(attr, attr.between.range(..=min), &mut verify);
                    }
                } else {
                    // The empty set is covered *vacuously* by every `In` and
                    // every numeric `Between` predicate; there is no member
                    // class to anchor a range walk on, so test the equality
                    // and interval partitions exhaustively.
                    for pred in attr.preds.iter().flatten() {
                        if matches!(pred.slot, Slot::Eq { .. } | Slot::Between(_)) {
                            verify(pred);
                        }
                    }
                }
            }
            Constraint::Lt(b) | Constraint::Le(b) => {
                // Downward-unbounded probes are covered only by
                // downward-unbounded predicates with bounds at or above the
                // probe's.  (Non-numeric bounds live in the residual class.)
                if let Some(bk) = value_num_key(b) {
                    visit_range(attr, attr.lt.range(bk..), &mut verify);
                    visit_range(attr, attr.le.range(bk..), &mut verify);
                }
            }
            Constraint::Gt(b) | Constraint::Ge(b) => {
                if let Some(bk) = value_num_key(b) {
                    visit_range(attr, attr.gt.range(..=bk), &mut verify);
                    visit_range(attr, attr.ge.range(..=bk), &mut verify);
                }
            }
            Constraint::Between(lo, hi) => {
                if let (Some(lk), Some(hk)) = (value_num_key(lo), value_num_key(hi)) {
                    visit_range(attr, attr.lt.range(hk..), &mut verify);
                    visit_range(attr, attr.le.range(hk..), &mut verify);
                    visit_range(attr, attr.gt.range(..=lk), &mut verify);
                    visit_range(attr, attr.ge.range(..=lk), &mut verify);
                    visit_range(attr, attr.between.range(..=lk), &mut verify);
                    // Point intervals can additionally be covered by
                    // equality predicates containing the point.
                    if lo.value_eq(hi) {
                        visit_class(attr, attr.eq.get(&canon_key(lo)), &mut verify);
                    }
                }
            }
            // Equality and ordered-numeric predicates never cover `Ne` or
            // string constraints (`Constraint::covers` is sound-but-not-
            // complete and proves none of these cases).
            Constraint::Ne(_)
            | Constraint::Prefix(_)
            | Constraint::Suffix(_)
            | Constraint::Contains(_) => {}
        }
    }

    /// Walks every live predicate of the attribute whose constraint is
    /// **covered by** `probe`, exactly once each, in deterministic order.
    pub(crate) fn for_each_covered(
        &self,
        attr_id: u32,
        probe: &Constraint,
        visit: &mut impl FnMut(&Pred),
    ) {
        let attr = &self.attrs[attr_id as usize];
        if matches!(probe, Constraint::Exists) {
            // `Exists` covers everything; no verification needed.
            for pred in attr.preds.iter().flatten() {
                visit(pred);
            }
            return;
        }
        let mut verify = |pred: &Pred| {
            if probe.covers(self.arena.get(pred.cid)) {
                visit(pred);
            }
        };
        match probe {
            Constraint::Exists => unreachable!("handled above"),
            Constraint::Eq(v) => {
                // Covered predicates accept at most the point: equality
                // predicates in the point's class and point `Between`s.
                visit_class(attr, attr.eq.get(&canon_key(v)), &mut verify);
                if let Some(vk) = value_num_key(v) {
                    visit_class(attr, attr.between.get(&vk), &mut verify);
                }
                visit_list(attr, &attr.residual, &mut verify);
            }
            Constraint::In(set) if !set.is_empty() => {
                // An equality predicate covered by the set has all its
                // members in it; visiting it only from its *first* member's
                // class keeps the walk exactly-once even though `In`
                // predicates are registered under every member.  Member
                // values that alias under `value_eq` (e.g. `3` vs `3.0`)
                // are deduplicated first for the same reason.
                let mut keys: Vec<CanonKey> = Vec::with_capacity(set.len());
                for v in set {
                    let k = canon_key(v);
                    if !keys.contains(&k) {
                        keys.push(k);
                    }
                }
                for k in &keys {
                    if let Some(list) = attr.eq.get(k) {
                        for &id in list {
                            let pred = attr.pred(id);
                            let first_key = match &pred.slot {
                                Slot::Eq { keys, .. } => keys.first(),
                                _ => unreachable!("eq class holds Eq slots"),
                            };
                            if first_key == Some(k) {
                                verify(pred);
                            }
                        }
                    }
                    if let CanonKey::Num(nk) = k {
                        visit_class(attr, attr.between.get(nk), &mut verify);
                    }
                }
                visit_list(attr, &attr.residual, &mut verify);
            }
            Constraint::Lt(b) | Constraint::Le(b) if value_num_key(b).is_some() => {
                let bk = value_num_key(b).expect("checked numeric");
                visit_range(attr, attr.lt.range(..=bk), &mut verify);
                visit_range(attr, attr.le.range(..=bk), &mut verify);
                visit_range(attr, attr.between.range(..=bk), &mut verify);
                visit_range(attr, attr.eq_num.range(..=bk), &mut verify);
                visit_list(attr, &attr.residual, &mut verify);
            }
            Constraint::Gt(b) | Constraint::Ge(b) if value_num_key(b).is_some() => {
                let bk = value_num_key(b).expect("checked numeric");
                visit_range(attr, attr.gt.range(bk..), &mut verify);
                visit_range(attr, attr.ge.range(bk..), &mut verify);
                visit_range(attr, attr.between.range(bk..), &mut verify);
                visit_range(attr, attr.eq_num.range(bk..), &mut verify);
                visit_list(attr, &attr.residual, &mut verify);
            }
            Constraint::Between(lo, hi)
                if value_num_key(lo).is_some() && value_num_key(hi).is_some() =>
            {
                let (lk, hk) = (
                    value_num_key(lo).expect("checked numeric"),
                    value_num_key(hi).expect("checked numeric"),
                );
                if lk <= hk {
                    // A covered `Between` starts inside the probe interval;
                    // a covered equality predicate has its smallest member
                    // inside it.
                    visit_range(attr, attr.between.range(lk..=hk), &mut verify);
                    visit_range(attr, attr.eq_num.range(lk..=hk), &mut verify);
                }
                visit_list(attr, &attr.residual, &mut verify);
            }
            // Residual-class probes (`Ne`, strings, non-numeric bounds,
            // empty `In`): the covered set is not range-enumerable, so fall
            // back to the full exact walk.
            _ => {
                for pred in attr.preds.iter().flatten() {
                    verify(pred);
                }
            }
        }
    }

    /// `true` when some stored **single-constraint** filter on this
    /// attribute provably covers `probe` — a sufficient covering witness
    /// for any probe filter constraining the attribute, answered from the
    /// covering summary without walking a single posting list.
    ///
    /// Summary keys strictly inside the covering range imply covering by
    /// monotonicity of [`num_sort_key`] (a strictly larger key is a strictly
    /// larger bound); boundary keys are verified exactly against the class
    /// lists, since distinct huge `i64`/`f64` bounds can collide on one key.
    /// A `false` result only means "no one-constraint witness found" — the
    /// caller falls back to the counting walk.
    pub(crate) fn solo_covers(&self, attr_id: u32, probe: &Constraint) -> bool {
        let attr = &self.attrs[attr_id as usize];
        if attr.solo_exists > 0 {
            return true;
        }
        if attr.solo_residual > 0
            && attr.residual.iter().any(|&id| {
                let pred = attr.pred(id);
                pred.solo > 0 && self.arena.get(pred.cid).covers(probe)
            })
        {
            return true;
        }
        let above =
            |map: &BTreeMap<u64, u32>, k: u64| map.range((Excluded(k), Unbounded)).next().is_some();
        let below = |map: &BTreeMap<u64, u32>, k: u64| map.range(..k).next().is_some();
        let verify_at = |class: &ClassMap, solo: &BTreeMap<u64, u32>, k: u64| {
            solo.contains_key(&k)
                && class.get(&k).is_some_and(|list| {
                    list.iter().any(|&id| {
                        let pred = attr.pred(id);
                        pred.solo > 0 && self.arena.get(pred.cid).covers(probe)
                    })
                })
        };
        let verify_eq_class = |k: &CanonKey| {
            attr.solo_eq.contains_key(k)
                && attr.eq.get(k).is_some_and(|list| {
                    list.iter().any(|&id| {
                        let pred = attr.pred(id);
                        pred.solo > 0 && self.arena.get(pred.cid).covers(probe)
                    })
                })
        };
        match probe {
            // Only `Exists` covers `Exists` (summary count checked above).
            Constraint::Exists => false,
            Constraint::Eq(v) => {
                if verify_eq_class(&canon_key(v)) {
                    return true;
                }
                value_num_key(v).is_some_and(|vk| {
                    above(&attr.solo_lt, vk)
                        || above(&attr.solo_le, vk)
                        || below(&attr.solo_gt, vk)
                        || below(&attr.solo_ge, vk)
                        || verify_at(&attr.lt, &attr.solo_lt, vk)
                        || verify_at(&attr.le, &attr.solo_le, vk)
                        || verify_at(&attr.gt, &attr.solo_gt, vk)
                        || verify_at(&attr.ge, &attr.solo_ge, vk)
                })
            }
            // A covering equality predicate accepts every member, so it is
            // registered under the first member's key; ordered predicates
            // never provably cover a set (`Constraint::covers` is sound but
            // not complete there, matching `for_each_covering`).
            Constraint::In(set) => set
                .iter()
                .next()
                .is_some_and(|first| verify_eq_class(&canon_key(first))),
            Constraint::Lt(b) | Constraint::Le(b) => value_num_key(b).is_some_and(|bk| {
                above(&attr.solo_lt, bk)
                    || above(&attr.solo_le, bk)
                    || verify_at(&attr.lt, &attr.solo_lt, bk)
                    || verify_at(&attr.le, &attr.solo_le, bk)
            }),
            Constraint::Gt(b) | Constraint::Ge(b) => value_num_key(b).is_some_and(|bk| {
                below(&attr.solo_gt, bk)
                    || below(&attr.solo_ge, bk)
                    || verify_at(&attr.gt, &attr.solo_gt, bk)
                    || verify_at(&attr.ge, &attr.solo_ge, bk)
            }),
            Constraint::Between(lo, hi) => {
                match (value_num_key(lo), value_num_key(hi)) {
                    (Some(lk), Some(hk)) => {
                        // Point intervals can additionally be covered by
                        // equality predicates containing the point.
                        (lo.value_eq(hi) && verify_eq_class(&canon_key(lo)))
                            || above(&attr.solo_lt, hk)
                            || above(&attr.solo_le, hk)
                            || below(&attr.solo_gt, lk)
                            || below(&attr.solo_ge, lk)
                            || verify_at(&attr.lt, &attr.solo_lt, hk)
                            || verify_at(&attr.le, &attr.solo_le, hk)
                            || verify_at(&attr.gt, &attr.solo_gt, lk)
                            || verify_at(&attr.ge, &attr.solo_ge, lk)
                    }
                    _ => false,
                }
            }
            // Nothing in the summarized classes covers `Ne` or string
            // constraints (residual witnesses were checked above).
            Constraint::Ne(_)
            | Constraint::Prefix(_)
            | Constraint::Suffix(_)
            | Constraint::Contains(_) => false,
        }
    }

    /// Upper bound on the number of postings [`PredStore::for_each_covered`]
    /// would touch for `probe` on this attribute (candidate enumeration
    /// without verification).  The anchored covered walk uses this to pick
    /// the cheapest probe attribute to enumerate.
    pub(crate) fn covered_volume(&self, attr_id: u32, probe: &Constraint) -> usize {
        let attr = &self.attrs[attr_id as usize];
        let ids_vol =
            |ids: &[u32]| -> usize { ids.iter().map(|&id| attr.pred(id).postings.len()).sum() };
        let class_vol = |list: Option<&SmallVec<u32, 2>>| list.map_or(0, |l| ids_vol(l));
        let range_vol = |range: std::collections::btree_map::Range<'_, u64, SmallVec<u32, 2>>| {
            range.map(|(_, l)| ids_vol(l)).sum::<usize>()
        };
        let residual_vol = ids_vol(&attr.residual);
        match probe {
            Constraint::Exists => attr
                .preds
                .iter()
                .flatten()
                .map(|p| p.postings.len())
                .sum::<usize>(),
            Constraint::Eq(v) => {
                let mut vol = class_vol(attr.eq.get(&canon_key(v))) + residual_vol;
                if let Some(vk) = value_num_key(v) {
                    vol += class_vol(attr.between.get(&vk));
                }
                vol
            }
            Constraint::In(set) if !set.is_empty() => {
                let mut vol = residual_vol;
                for v in set {
                    let k = canon_key(v);
                    vol += class_vol(attr.eq.get(&k));
                    if let CanonKey::Num(nk) = k {
                        vol += class_vol(attr.between.get(&nk));
                    }
                }
                vol
            }
            Constraint::Lt(b) | Constraint::Le(b) if value_num_key(b).is_some() => {
                let bk = value_num_key(b).expect("checked numeric");
                range_vol(attr.lt.range(..=bk))
                    + range_vol(attr.le.range(..=bk))
                    + range_vol(attr.between.range(..=bk))
                    + range_vol(attr.eq_num.range(..=bk))
                    + residual_vol
            }
            Constraint::Gt(b) | Constraint::Ge(b) if value_num_key(b).is_some() => {
                let bk = value_num_key(b).expect("checked numeric");
                range_vol(attr.gt.range(bk..))
                    + range_vol(attr.ge.range(bk..))
                    + range_vol(attr.between.range(bk..))
                    + range_vol(attr.eq_num.range(bk..))
                    + residual_vol
            }
            Constraint::Between(lo, hi)
                if value_num_key(lo).is_some() && value_num_key(hi).is_some() =>
            {
                let (lk, hk) = (
                    value_num_key(lo).expect("checked numeric"),
                    value_num_key(hi).expect("checked numeric"),
                );
                let mut vol = residual_vol;
                if lk <= hk {
                    vol += range_vol(attr.between.range(lk..=hk))
                        + range_vol(attr.eq_num.range(lk..=hk));
                }
                vol
            }
            _ => attr
                .preds
                .iter()
                .flatten()
                .map(|p| p.postings.len())
                .sum::<usize>(),
        }
    }

    /// The live predicate for `constraint` on the attribute, when one
    /// exists — a pure lookup that never interns.
    pub(crate) fn resolve_pred(&self, attr_id: u32, constraint: &Constraint) -> Option<u32> {
        let cid = self.arena.lookup(constraint)?;
        self.attrs[attr_id as usize].dedup.get(&cid).copied()
    }

    /// The constraint behind predicate `(attr_id, pred_id)`.
    #[inline]
    pub(crate) fn constraint_of(&self, attr_id: u32, pred_id: u32) -> &Constraint {
        self.arena.get(self.pred(attr_id, pred_id).cid)
    }
}

/// Visits every predicate of one partition class through `verify`.
#[inline]
fn visit_class<const N: usize>(
    attr: &AttrIndex,
    list: Option<&SmallVec<u32, N>>,
    verify: &mut impl FnMut(&Pred),
) {
    if let Some(list) = list {
        for &id in list {
            verify(attr.pred(id));
        }
    }
}

/// Visits every predicate of a run of ordered classes through `verify`.
#[inline]
fn visit_range<'a, const N: usize>(
    attr: &AttrIndex,
    range: impl Iterator<Item = (&'a u64, &'a SmallVec<u32, N>)>,
    verify: &mut impl FnMut(&Pred),
) where
    SmallVec<u32, N>: 'a,
{
    for (_, list) in range {
        for &id in list {
            verify(attr.pred(id));
        }
    }
}

#[inline]
fn visit_list<const N: usize>(
    attr: &AttrIndex,
    list: &SmallVec<u32, N>,
    verify: &mut impl FnMut(&Pred),
) {
    for &id in list {
        verify(attr.pred(id));
    }
}

/// Classifies a constraint and registers a new predicate in the right
/// partitions, returning its id within the attribute.
fn add_pred(attr: &mut AttrIndex, constraint: &Constraint, cid: u32, mask_slot: u32) -> u32 {
    let slot = match constraint {
        Constraint::Eq(v) => Slot::Eq {
            keys: vec![canon_key(v)],
            num_key: value_num_key(v),
        },
        Constraint::In(set) if !set.is_empty() => {
            let mut keys: Vec<CanonKey> = Vec::with_capacity(set.len());
            for v in set {
                let k = canon_key(v);
                if !keys.contains(&k) {
                    keys.push(k);
                }
            }
            let num_key = set
                .iter()
                .map(value_num_key)
                .collect::<Option<Vec<u64>>>()
                .and_then(|ks| ks.into_iter().min());
            Slot::Eq { keys, num_key }
        }
        Constraint::Lt(v) => value_num_key(v).map(Slot::Lt).unwrap_or(Slot::Residual),
        Constraint::Le(v) => value_num_key(v).map(Slot::Le).unwrap_or(Slot::Residual),
        Constraint::Gt(v) => value_num_key(v).map(Slot::Gt).unwrap_or(Slot::Residual),
        Constraint::Ge(v) => value_num_key(v).map(Slot::Ge).unwrap_or(Slot::Residual),
        Constraint::Between(lo, hi) => match (value_num_key(lo), value_num_key(hi)) {
            (Some(lo_key), Some(_)) => Slot::Between(lo_key),
            _ => Slot::Residual,
        },
        Constraint::Exists => Slot::Exists,
        // Empty `In` sets accept nothing but still take part in covering
        // relations; the residual class keeps them exact.
        Constraint::In(_)
        | Constraint::Ne(_)
        | Constraint::Prefix(_)
        | Constraint::Suffix(_)
        | Constraint::Contains(_) => Slot::Residual,
    };
    let id = match attr.free.pop() {
        Some(id) => id,
        None => {
            attr.preds.push(None);
            (attr.preds.len() - 1) as u32
        }
    };
    match &slot {
        Slot::Eq { keys, num_key } => {
            for k in keys {
                attr.eq.entry(k.clone()).or_default().push(id);
            }
            if let Some(nk) = num_key {
                attr.eq_num.entry(*nk).or_default().push(id);
            }
        }
        Slot::Lt(k) => attr.lt.entry(*k).or_default().push(id),
        Slot::Le(k) => attr.le.entry(*k).or_default().push(id),
        Slot::Gt(k) => attr.gt.entry(*k).or_default().push(id),
        Slot::Ge(k) => attr.ge.entry(*k).or_default().push(id),
        Slot::Between(k) => attr.between.entry(*k).or_default().push(id),
        Slot::Exists => attr.exists.push(id),
        Slot::Residual => attr.residual.push(id),
    }
    attr.preds[id as usize] = Some(Pred {
        id,
        cid,
        slot,
        mask_slot,
        postings: SmallVec::new(),
        solo: 0,
    });
    id
}

/// Registers a predicate that just gained its first single-constraint-filter
/// posting in the covering summary of its class.  `Between` predicates are
/// not summarized (their covering test needs both bounds); probes they could
/// cover simply fall through to the range-partitioned walk.
fn register_solo(attr: &mut AttrIndex, pred_id: u32) {
    let slot = attr.preds[pred_id as usize]
        .as_ref()
        .expect("live pred")
        .slot
        .clone();
    match &slot {
        Slot::Eq { keys, .. } => {
            for k in keys {
                *attr.solo_eq.entry(k.clone()).or_insert(0) += 1;
            }
        }
        Slot::Lt(k) => *attr.solo_lt.entry(*k).or_insert(0) += 1,
        Slot::Le(k) => *attr.solo_le.entry(*k).or_insert(0) += 1,
        Slot::Gt(k) => *attr.solo_gt.entry(*k).or_insert(0) += 1,
        Slot::Ge(k) => *attr.solo_ge.entry(*k).or_insert(0) += 1,
        Slot::Between(_) => {}
        Slot::Exists => attr.solo_exists += 1,
        Slot::Residual => attr.solo_residual += 1,
    }
}

/// Removes a predicate that lost its last single-constraint-filter posting
/// from the covering summary.
fn unregister_solo(attr: &mut AttrIndex, pred_id: u32) {
    fn dec_map(map: &mut BTreeMap<u64, u32>, key: u64) {
        let count = map.get_mut(&key).expect("solo summary key");
        *count -= 1;
        if *count == 0 {
            map.remove(&key);
        }
    }
    let slot = attr.preds[pred_id as usize]
        .as_ref()
        .expect("live pred")
        .slot
        .clone();
    match &slot {
        Slot::Eq { keys, .. } => {
            for k in keys {
                let count = attr.solo_eq.get_mut(k).expect("solo eq key");
                *count -= 1;
                if *count == 0 {
                    attr.solo_eq.remove(k);
                }
            }
        }
        Slot::Lt(k) => dec_map(&mut attr.solo_lt, *k),
        Slot::Le(k) => dec_map(&mut attr.solo_le, *k),
        Slot::Gt(k) => dec_map(&mut attr.solo_gt, *k),
        Slot::Ge(k) => dec_map(&mut attr.solo_ge, *k),
        Slot::Between(_) => {}
        Slot::Exists => attr.solo_exists -= 1,
        Slot::Residual => attr.solo_residual -= 1,
    }
}

/// Unregisters a dropped predicate from its partition classes.
fn drop_pred_registration(attr: &mut AttrIndex, id: u32, slot: &Slot) {
    fn remove_from<const N: usize>(list: &mut SmallVec<u32, N>, id: u32) {
        let pos = list
            .iter()
            .position(|p| *p == id)
            .expect("pred in partition");
        list.remove(pos);
    }
    fn remove_from_map(map: &mut ClassMap, key: u64, id: u32) {
        let list = map.get_mut(&key).expect("bound class exists");
        remove_from(list, id);
        if list.is_empty() {
            map.remove(&key);
        }
    }
    match slot {
        Slot::Eq { keys, num_key } => {
            for k in keys {
                let list = attr.eq.get_mut(k).expect("eq class exists");
                remove_from(list, id);
                if list.is_empty() {
                    attr.eq.remove(k);
                }
            }
            if let Some(nk) = num_key {
                remove_from_map(&mut attr.eq_num, *nk, id);
            }
        }
        Slot::Lt(k) => remove_from_map(&mut attr.lt, *k, id),
        Slot::Le(k) => remove_from_map(&mut attr.le, *k, id),
        Slot::Gt(k) => remove_from_map(&mut attr.gt, *k, id),
        Slot::Ge(k) => remove_from_map(&mut attr.ge, *k, id),
        Slot::Between(k) => remove_from_map(&mut attr.between, *k, id),
        Slot::Exists => remove_from(&mut attr.exists, id),
        Slot::Residual => remove_from(&mut attr.residual, id),
    }
}
