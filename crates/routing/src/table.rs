//! Broker routing tables.
//!
//! Each broker maintains a routing table whose entries are pairs `(F, L)` of
//! a filter and the link it was received from, denoting that notifications
//! matching `F` are to be forwarded along `L` (Section 2.2 of the paper).
//!
//! # Subscription subgrouping
//!
//! Real subscription populations are heavily skewed: thousands of clients
//! subscribe with byte-identical filters (every subscriber of one stock
//! ticker, one parking lot, one chat group).  The table therefore clusters
//! identical filters into **subgroups**: the predicate index
//! ([`rebeca_matcher::FilterIndex`]) holds **one key per distinct
//! filter**, while a subgroup record keeps per-destination reference counts
//! and the member entry ids underneath.  Matching, covering and identity
//! queries run over the compacted index (cost proportional to *distinct*
//! filters), while per-instance bookkeeping (`remove` of exactly one
//! instance, insertion order, multiset equality) stays exact through the
//! entry table.  [`RoutingTable::destinations_with_identical`] and
//! [`RoutingTable::contains_entry`] become O(1) hash lookups.
//!
//! [`RoutingTable::matching_destinations`] runs the counting algorithm over
//! subgroups instead of scanning all filters, while the covering-based queries
//! ([`RoutingTable::is_covered`], [`RoutingTable::remove_covered_by`],
//! [`RoutingTable::covered_entries`]) run the same counting walk over
//! deduplicated predicates in the covering domain.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;

use rebeca_filter::{Filter, Notification};
use rebeca_matcher::FilterIndex;

/// One subgroup: all table entries sharing one distinct filter.
#[derive(Debug, Clone)]
struct Subgroup<D> {
    /// The shared filter (stored once; entries refer to it by subgroup id).
    filter: Filter,
    /// Reference count per destination — how many member entries point at
    /// each link.  A destination is routed to iff its count is non-zero.
    dests: BTreeMap<D, u32>,
    /// Member entry ids in insertion order.
    members: Vec<u64>,
}

/// A routing table mapping destinations (links) to the filters subscribed
/// from that direction.
///
/// The table stores *every* active subscription (with multiplicity), so the
/// routing decision is always exact regardless of which optimization the
/// surrounding [`RoutingEngine`](crate::RoutingEngine) applies to the
/// *forwarding* of administration messages.  Identical filters share one
/// subgroup (and one predicate-index key), so index size and matching cost
/// scale with the number of *distinct* filters, not subscriptions.
#[derive(Debug, Clone)]
pub struct RoutingTable<D> {
    /// Entry ids per destination, in insertion order.
    dests: BTreeMap<D, Vec<u64>>,
    /// Entry id → `(destination, subgroup id)`.
    entries: HashMap<u64, (D, u64)>,
    /// Subgroup id → shared filter + per-destination refcounts + members.
    subgroups: HashMap<u64, Subgroup<D>>,
    /// Distinct filter → its subgroup id.
    by_filter: HashMap<Filter, u64>,
    /// Predicate index keyed by **subgroup id** (one key per distinct
    /// filter).
    index: FilterIndex<u64>,
    next_entry: u64,
    next_sgid: u64,
}

impl<D: Ord + Clone> Default for RoutingTable<D> {
    fn default() -> Self {
        Self {
            dests: BTreeMap::new(),
            entries: HashMap::new(),
            subgroups: HashMap::new(),
            by_filter: HashMap::new(),
            index: FilterIndex::new(),
            next_entry: 0,
            next_sgid: 0,
        }
    }
}

impl<D: Ord + Clone> RoutingTable<D> {
    /// Creates an empty routing table.
    pub fn new() -> Self {
        Self::default()
    }

    /// The shared filter of an entry's subgroup.
    fn filter_of(&self, id: u64) -> &Filter {
        &self.subgroups[&self.entries[&id].1].filter
    }

    /// Adds an entry `(filter, destination)`.
    pub fn insert(&mut self, filter: Filter, destination: D) {
        let id = self.next_entry;
        self.next_entry += 1;
        let sgid = match self.by_filter.get(&filter) {
            Some(&sgid) => sgid,
            None => {
                let sgid = self.next_sgid;
                self.next_sgid += 1;
                self.index.insert(sgid, &filter);
                self.by_filter.insert(filter.clone(), sgid);
                self.subgroups.insert(
                    sgid,
                    Subgroup {
                        filter,
                        dests: BTreeMap::new(),
                        members: Vec::new(),
                    },
                );
                sgid
            }
        };
        let sub = self.subgroups.get_mut(&sgid).expect("live subgroup");
        *sub.dests.entry(destination.clone()).or_insert(0) += 1;
        sub.members.push(id);
        self.dests.entry(destination.clone()).or_default().push(id);
        self.entries.insert(id, (destination, sgid));
    }

    /// Drops entry `id` from its subgroup, removing the subgroup (and its
    /// index key) when the last member is gone.  Returns the shared filter.
    fn release_member(&mut self, sgid: u64, id: u64, dest: &D) -> Filter {
        let last = {
            let sub = self.subgroups.get_mut(&sgid).expect("live subgroup");
            sub.members.retain(|&i| i != id);
            let count = sub.dests.get_mut(dest).expect("live destination count");
            *count -= 1;
            if *count == 0 {
                sub.dests.remove(dest);
            }
            sub.members.is_empty()
        };
        if last {
            let sub = self.subgroups.remove(&sgid).expect("live subgroup");
            self.index.remove(&sgid);
            self.by_filter.remove(&sub.filter);
            sub.filter
        } else {
            self.subgroups[&sgid].filter.clone()
        }
    }

    fn remove_id(&mut self, id: u64) -> Option<(D, Filter)> {
        let (dest, sgid) = self.entries.remove(&id)?;
        if let Some(ids) = self.dests.get_mut(&dest) {
            ids.retain(|&i| i != id);
            if ids.is_empty() {
                self.dests.remove(&dest);
            }
        }
        let filter = self.release_member(sgid, id, &dest);
        Some((dest, filter))
    }

    /// Removes **one** instance of the exact filter for the destination.
    /// Returns `true` when an entry was removed.
    pub fn remove(&mut self, filter: &Filter, destination: &D) -> bool {
        let Some(&sgid) = self.by_filter.get(filter) else {
            return false;
        };
        let Some(ids) = self.dests.get(destination) else {
            return false;
        };
        let found = ids.iter().find(|id| self.entries[id].1 == sgid).copied();
        match found {
            Some(id) => {
                self.remove_id(id);
                true
            }
            None => false,
        }
    }

    /// Removes every entry for the destination and returns the filters.
    pub fn remove_destination(&mut self, destination: &D) -> Vec<Filter> {
        let ids = self.dests.remove(destination).unwrap_or_default();
        ids.into_iter()
            .map(|id| {
                let (_, sgid) = self.entries.remove(&id).expect("live entry");
                self.release_member(sgid, id, destination)
            })
            .collect()
    }

    /// Entry ids whose filter is covered by `filter`, in deterministic
    /// (destination, insertion) order.
    fn covered_ids(&self, filter: &Filter) -> Vec<u64> {
        // The index answers per *subgroup*; expand each covered subgroup to
        // its member entries and report grouped by destination, insertion
        // order within each (matching the pre-index behaviour) — but sort
        // only the covered ids instead of walking the whole table.
        let mut keyed: Vec<((&D, usize), u64)> = self
            .index
            .covered_keys(filter)
            .into_iter()
            .flat_map(|sgid| self.subgroups[sgid].members.iter().copied())
            .map(|id| {
                let dest = &self.entries[&id].0;
                let pos = self.dests[dest]
                    .iter()
                    .position(|&i| i == id)
                    .expect("id in its destination's list");
                ((dest, pos), id)
            })
            .collect();
        keyed.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        keyed.into_iter().map(|(_, id)| id).collect()
    }

    /// Removes every entry (for any destination) covered by `filter` and
    /// returns the removed `(destination, filter)` pairs.
    pub fn remove_covered_by(&mut self, filter: &Filter) -> Vec<(D, Filter)> {
        self.covered_ids(filter)
            .into_iter()
            .map(|id| self.remove_id(id).expect("live entry"))
            .collect()
    }

    /// The `(destination, filter)` entries covered by `filter` (including
    /// exact matches), answered by the index's exact covering query.
    pub fn covered_entries(&self, filter: &Filter) -> Vec<(&D, &Filter)> {
        self.covered_ids(filter)
            .into_iter()
            .map(|id| {
                let (d, sgid) = &self.entries[&id];
                (d, &self.subgroups[sgid].filter)
            })
            .collect()
    }

    /// The destinations whose filters match the notification.  The optional
    /// `exclude` destination (usually the link the notification came from)
    /// is never returned.
    ///
    /// Runs the index's counting algorithm over subgroups: cost is
    /// proportional to the matching *distinct* filters, not the table size.
    pub fn matching_destinations(&self, n: &Notification, exclude: Option<&D>) -> Vec<D> {
        let mut dests: Vec<D> = Vec::new();
        self.for_each_matching_destination(n, exclude, |d| dests.push(d.clone()));
        dests
    }

    /// Visits each destination with a matching filter exactly once, in
    /// ascending destination order, skipping `exclude`.  Unlike
    /// [`RoutingTable::matching_destinations`] it neither materializes the
    /// matching entry-id vector nor clones the destinations — only the
    /// deduplication set (one `&D` per distinct matching destination) is
    /// built per call.
    pub fn for_each_matching_destination(
        &self,
        n: &Notification,
        exclude: Option<&D>,
        mut visit: impl FnMut(&D),
    ) {
        let mut dests: BTreeSet<&D> = BTreeSet::new();
        self.index.for_each_match(n, |sgid| {
            for dest in self.subgroups[sgid].dests.keys() {
                if Some(dest) != exclude {
                    dests.insert(dest);
                }
            }
        });
        for d in dests {
            visit(d);
        }
    }

    /// Visits every entry whose filter matches the notification, exactly
    /// once each, as `(destination, entry id, filter)` — the per-instance
    /// counterpart of [`RoutingTable::for_each_matching_destination`] for
    /// callers that act on each subscription rather than each link (a
    /// border broker's local delivery).  Entry ids are monotonic in
    /// insertion order, so sorting the visited triples by
    /// `(destination, entry id)` yields the order of
    /// [`RoutingTable::iter`]; the visiting order itself is unspecified.
    pub fn for_each_matching_entry(
        &self,
        n: &Notification,
        mut visit: impl FnMut(&D, u64, &Filter),
    ) {
        self.index.for_each_match(n, |sgid| {
            let sub = &self.subgroups[sgid];
            for id in &sub.members {
                visit(&self.entries[id].0, *id, &sub.filter);
            }
        });
    }

    /// The destinations holding at least one filter that *overlaps* the given
    /// filter (used to decide where a new subscription or a fetch request has
    /// to travel).  Scans subgroups (distinct filters), not entries.
    pub fn destinations_overlapping(&self, filter: &Filter, exclude: Option<&D>) -> Vec<D> {
        let dests: BTreeSet<&D> = self
            .subgroups
            .values()
            .filter(|sub| sub.filter.overlaps(filter))
            .flat_map(|sub| sub.dests.keys())
            .filter(|d| Some(*d) != exclude)
            .collect();
        dests.into_iter().cloned().collect()
    }

    /// The destinations holding at least one filter that **covers** `filter`
    /// (including identical ones), via the index's exact covering query.
    /// Used by the mobility layer to scope relocation floods to links that
    /// actually lie on a delivery path for the relocating subscription.
    pub fn destinations_covering(&self, filter: &Filter, exclude: Option<&D>) -> Vec<D> {
        let dests: BTreeSet<&D> = self
            .index
            .covering_keys(filter)
            .into_iter()
            .flat_map(|sgid| self.subgroups[sgid].dests.keys())
            .filter(|d| Some(*d) != exclude)
            .collect();
        dests.into_iter().cloned().collect()
    }

    /// The destinations holding at least one filter identical to `filter` —
    /// a single subgroup lookup.
    pub fn destinations_with_identical(&self, filter: &Filter, exclude: Option<&D>) -> Vec<D> {
        match self.by_filter.get(filter) {
            Some(sgid) => self.subgroups[sgid]
                .dests
                .keys()
                .filter(|d| Some(*d) != exclude)
                .cloned()
                .collect(),
            None => Vec::new(),
        }
    }

    /// All filters currently stored for a destination, in insertion order.
    pub fn filters_for(&self, destination: &D) -> Vec<&Filter> {
        self.dests
            .get(destination)
            .map(|ids| ids.iter().map(|&id| self.filter_of(id)).collect())
            .unwrap_or_default()
    }

    /// `true` when the exact filter is stored for the destination — a single
    /// subgroup lookup.
    pub fn contains_entry(&self, filter: &Filter, destination: &D) -> bool {
        self.by_filter
            .get(filter)
            .is_some_and(|sgid| self.subgroups[sgid].dests.contains_key(destination))
    }

    /// Iterates over every `(destination, filter)` entry in deterministic
    /// (destination, insertion) order.
    pub fn iter(&self) -> impl Iterator<Item = (&D, &Filter)> {
        self.dests
            .iter()
            .flat_map(move |(d, ids)| ids.iter().map(move |&id| (d, self.filter_of(id))))
    }

    /// All destinations currently present in the table.
    pub fn destinations(&self) -> impl Iterator<Item = &D> {
        self.dests.keys()
    }

    /// Returns `true` when any stored filter (from any destination other than
    /// `exclude`) covers the given filter, via the index's exact covering
    /// query.
    pub fn is_covered(&self, filter: &Filter, exclude: Option<&D>) -> bool {
        match exclude {
            None => self.index.covers_any(filter),
            Some(excl) => self
                .index
                .covering_keys(filter)
                .into_iter()
                .any(|sgid| self.subgroups[sgid].dests.keys().any(|d| d != excl)),
        }
    }

    /// Returns `true` when any stored filter from any destination other than
    /// `exclude` equals the given filter — a single subgroup lookup.
    pub fn contains_identical(&self, filter: &Filter, exclude: Option<&D>) -> bool {
        self.by_filter.get(filter).is_some_and(|sgid| {
            self.subgroups[sgid]
                .dests
                .keys()
                .any(|d| Some(d) != exclude)
        })
    }

    /// Total number of `(filter, destination)` entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of subgroups — distinct filters across all destinations.  The
    /// predicate index holds exactly this many keys; `len() /
    /// subgroup_count()` is the table's compaction ratio.
    pub fn subgroup_count(&self) -> usize {
        self.subgroups.len()
    }
}

impl<D: Ord + Clone> PartialEq for RoutingTable<D> {
    /// Logical equality: the same destinations hold the same multisets of
    /// filters (entry ids, subgroup ids and index internals are
    /// representation).
    fn eq(&self, other: &Self) -> bool {
        if self.dests.len() != other.dests.len() {
            return false;
        }
        self.dests
            .iter()
            .zip(other.dests.iter())
            .all(|((d1, ids1), (d2, ids2))| {
                if d1 != d2 || ids1.len() != ids2.len() {
                    return false;
                }
                let mut f1: Vec<&Filter> = ids1.iter().map(|&id| self.filter_of(id)).collect();
                let mut f2: Vec<&Filter> = ids2.iter().map(|&id| other.filter_of(id)).collect();
                f1.sort_unstable();
                f2.sort_unstable();
                f1 == f2
            })
    }
}

impl<D: Ord + Clone + fmt::Debug> fmt::Display for RoutingTable<D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (dest, filter) in self.iter() {
            writeln!(f, "{filter}  ->  {dest:?}")?;
        }
        Ok(())
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
    fn insert_and_route() {
        let mut t: RoutingTable<u32> = RoutingTable::new();
        t.insert(parking(3), 1);
        t.insert(parking(10), 2);
        assert_eq!(t.len(), 2);
        assert_eq!(t.matching_destinations(&vacancy(2), None), vec![1, 2]);
        assert_eq!(t.matching_destinations(&vacancy(5), None), vec![2]);
        assert!(t.matching_destinations(&vacancy(20), None).is_empty());
    }

    #[test]
    fn exclusion_of_the_source_link() {
        let mut t: RoutingTable<u32> = RoutingTable::new();
        t.insert(parking(3), 1);
        t.insert(parking(3), 2);
        assert_eq!(t.matching_destinations(&vacancy(1), Some(&1)), vec![2]);
    }

    #[test]
    fn remove_only_one_instance() {
        let mut t: RoutingTable<u32> = RoutingTable::new();
        t.insert(parking(3), 1);
        t.insert(parking(3), 1);
        assert_eq!(t.subgroup_count(), 1);
        assert!(t.remove(&parking(3), &1));
        assert_eq!(t.len(), 1);
        assert!(t.remove(&parking(3), &1));
        assert!(t.is_empty());
        assert_eq!(t.subgroup_count(), 0);
        assert!(!t.remove(&parking(3), &1));
    }

    #[test]
    fn remove_destination_drops_all_its_filters() {
        let mut t: RoutingTable<u32> = RoutingTable::new();
        t.insert(parking(3), 1);
        t.insert(parking(5), 1);
        t.insert(parking(5), 2);
        let removed = t.remove_destination(&1);
        assert_eq!(removed.len(), 2);
        assert_eq!(t.len(), 1);
        assert_eq!(t.subgroup_count(), 1);
    }

    #[test]
    fn remove_covered_by_prunes_across_destinations() {
        let mut t: RoutingTable<u32> = RoutingTable::new();
        t.insert(parking(3), 1);
        t.insert(parking(5), 2);
        t.insert(parking(20), 3);
        let removed = t.remove_covered_by(&parking(10));
        assert_eq!(removed.len(), 2);
        assert_eq!(t.len(), 1);
        assert_eq!(t.filters_for(&3).len(), 1);
    }

    #[test]
    fn covering_and_identity_queries() {
        let mut t: RoutingTable<u32> = RoutingTable::new();
        t.insert(parking(10), 1);
        assert!(t.is_covered(&parking(3), None));
        assert!(!t.is_covered(&parking(20), None));
        assert!(!t.is_covered(&parking(3), Some(&1)));
        assert!(t.contains_identical(&parking(10), None));
        assert!(!t.contains_identical(&parking(3), None));
        assert!(t.contains_entry(&parking(10), &1));
        assert!(!t.contains_entry(&parking(10), &2));
    }

    #[test]
    fn overlapping_destinations() {
        let mut t: RoutingTable<u32> = RoutingTable::new();
        t.insert(parking(10), 1);
        let weather = Filter::new().with("service", Constraint::Eq("weather".into()));
        t.insert(weather.clone(), 2);
        assert_eq!(t.destinations_overlapping(&parking(3), None), vec![1]);
        assert_eq!(t.destinations_overlapping(&weather, None), vec![2]);
    }

    #[test]
    fn iteration_and_destinations() {
        let mut t: RoutingTable<u32> = RoutingTable::new();
        t.insert(parking(3), 2);
        t.insert(parking(5), 1);
        let dests: Vec<u32> = t.destinations().copied().collect();
        assert_eq!(dests, vec![1, 2]);
        assert_eq!(t.iter().count(), 2);
    }

    #[test]
    fn covered_entries_lists_destination_and_filter() {
        let mut t: RoutingTable<u32> = RoutingTable::new();
        t.insert(parking(3), 1);
        t.insert(parking(20), 2);
        let covered = t.covered_entries(&parking(10));
        assert_eq!(covered, vec![(&1, &parking(3))]);
    }

    #[test]
    fn destination_visitor_agrees_with_matching_destinations() {
        let mut t: RoutingTable<u32> = RoutingTable::new();
        t.insert(parking(3), 1);
        t.insert(parking(3), 2);
        t.insert(parking(10), 3);
        let mut seen = Vec::new();
        t.for_each_matching_destination(&vacancy(1), Some(&2), |d| seen.push(*d));
        assert_eq!(seen, t.matching_destinations(&vacancy(1), Some(&2)));
        assert_eq!(seen, vec![1, 3]);
    }

    #[test]
    fn entry_visitor_agrees_with_a_scan_of_iter_after_removals() {
        let mut t: RoutingTable<u32> = RoutingTable::new();
        for i in 0..60u32 {
            t.insert(parking((i % 6) as i64), i % 5);
        }
        // One instance of a duplicated pair, a whole destination, and a
        // whole subgroup go away.
        assert!(t.remove(&parking(4), &0));
        t.remove_destination(&3);
        t.remove_covered_by(&parking(1));
        t.insert(parking(2), 3);

        for cost in 0..7 {
            let n = vacancy(cost);
            let mut visited: Vec<(u32, u64, Filter)> = Vec::new();
            t.for_each_matching_entry(&n, |d, id, f| visited.push((*d, id, f.clone())));
            visited.sort_by_key(|(d, id, _)| (*d, *id));
            let ids: BTreeSet<u64> = visited.iter().map(|(_, id, _)| *id).collect();
            assert_eq!(ids.len(), visited.len(), "an entry was visited twice");
            // Sorted by (destination, entry id) the visit is `iter()` order.
            let visited: Vec<(u32, Filter)> = visited.into_iter().map(|(d, _, f)| (d, f)).collect();
            let scanned: Vec<(u32, Filter)> = t
                .iter()
                .filter(|(_, f)| f.matches(&n))
                .map(|(d, f)| (*d, f.clone()))
                .collect();
            assert_eq!(visited, scanned, "cost {cost}");
        }
    }

    #[test]
    fn logical_equality_ignores_entry_ids() {
        let mut a: RoutingTable<u32> = RoutingTable::new();
        a.insert(parking(3), 1);
        a.insert(parking(5), 1);
        let mut b: RoutingTable<u32> = RoutingTable::new();
        b.insert(parking(5), 1);
        b.insert(parking(3), 1);
        assert_eq!(a, b);
        b.insert(parking(9), 2);
        assert_ne!(a, b);
    }

    #[test]
    fn subgrouping_compacts_identical_filters() {
        let mut t: RoutingTable<u32> = RoutingTable::new();
        for i in 0..100 {
            t.insert(parking((i % 4) as i64), i % 7);
        }
        assert_eq!(t.len(), 100);
        assert_eq!(t.subgroup_count(), 4);
        // Removing one instance keeps the subgroup alive for the rest.
        assert!(t.remove(&parking(0), &0));
        assert_eq!(t.subgroup_count(), 4);
        assert_eq!(t.len(), 99);
        let with_zero = t.destinations_with_identical(&parking(0), None);
        assert!(with_zero.contains(&0), "dest 0 still holds instances");
    }

    #[test]
    fn subgroup_destination_refcounts_gate_matching() {
        let mut t: RoutingTable<u32> = RoutingTable::new();
        t.insert(parking(3), 1);
        t.insert(parking(3), 1);
        t.insert(parking(3), 2);
        assert_eq!(t.subgroup_count(), 1);
        assert_eq!(t.matching_destinations(&vacancy(1), None), vec![1, 2]);
        // One of destination 1's two instances goes away: still routed.
        assert!(t.remove(&parking(3), &1));
        assert_eq!(t.matching_destinations(&vacancy(1), None), vec![1, 2]);
        // The second removal drops destination 1 from the subgroup.
        assert!(t.remove(&parking(3), &1));
        assert_eq!(t.matching_destinations(&vacancy(1), None), vec![2]);
    }
}
