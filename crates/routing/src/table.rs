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
//! ([`RoutingTable::destinations_covering`],
//! [`RoutingTable::filters_covering`], [`RoutingTable::covered_propagating`])
//! run the same counting walk over deduplicated predicates in the covering
//! domain.
//!
//! # Silent entries
//!
//! An entry inserted with [`RoutingTable::insert_silent`] routes like any
//! other, but is not *propagating*: the routing engine never offers it to a
//! neighbour and never counts it as a reason to keep a forwarded filter.
//! The mark is a per-destination count inside the subgroup, so
//! [`RoutingTable::propagating_from_others`] stays one subgroup lookup.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;

use rebeca_filter::{Filter, Notification};
use rebeca_matcher::FilterIndex;

/// One subgroup: all table entries sharing one distinct filter.
#[derive(Debug, Clone)]
struct Subgroup<D> {
    /// The shared filter (stored once; entries refer to it by subgroup id).
    filter: Filter,
    /// Per destination, how many member entries point at it and how many of
    /// those are silent.  A destination is routed to iff it is present.
    dests: BTreeMap<D, (u32, u32)>,
    /// Member entry ids in insertion order.
    members: Vec<u64>,
}

impl<D: Ord> Subgroup<D> {
    /// Propagating member entries pointing at destinations other than
    /// `except`.
    fn propagating_from_others(&self, except: &D) -> u32 {
        self.dests
            .iter()
            .filter(|(d, _)| *d != except)
            .map(|(_, (count, silent))| count - silent)
            .sum()
    }
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
        self.insert_entry(filter, destination, false);
    }

    /// Adds a silent entry `(filter, destination)`: routed like any other,
    /// but never propagated by the routing engine nor counted by
    /// [`RoutingTable::propagating_from_others`].
    pub fn insert_silent(&mut self, filter: Filter, destination: D) {
        self.insert_entry(filter, destination, true);
    }

    fn insert_entry(&mut self, filter: Filter, destination: D, silent: bool) {
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
        let refs = sub.dests.entry(destination.clone()).or_insert((0, 0));
        refs.0 += 1;
        refs.1 += u32::from(silent);
        sub.members.push(id);
        self.dests.entry(destination.clone()).or_default().push(id);
        self.entries.insert(id, (destination, sgid));
    }

    /// Drops entry `id` from its subgroup, removing the subgroup (and its
    /// index key) when the last member is gone.  Returns the shared filter.
    fn release_member(&mut self, sgid: u64, id: u64, dest: &D, silent: bool) -> Filter {
        let last = {
            let sub = self.subgroups.get_mut(&sgid).expect("live subgroup");
            sub.members.retain(|&i| i != id);
            let refs = sub.dests.get_mut(dest).expect("live destination count");
            refs.0 -= 1;
            refs.1 -= u32::from(silent);
            if refs.0 == 0 {
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

    /// Removes **one** propagating instance of the exact filter for the
    /// destination.  Returns `true` when an entry was removed.
    pub fn remove(&mut self, filter: &Filter, destination: &D) -> bool {
        self.remove_one(filter, destination, false)
    }

    /// Removes **one** silent instance of the exact filter for the
    /// destination.  Returns `true` when an entry was removed.
    pub fn remove_silent(&mut self, filter: &Filter, destination: &D) -> bool {
        self.remove_one(filter, destination, true)
    }

    fn remove_one(&mut self, filter: &Filter, destination: &D, silent: bool) -> bool {
        let Some(&sgid) = self.by_filter.get(filter) else {
            return false;
        };
        let (count, quiet) = self.subgroups[&sgid]
            .dests
            .get(destination)
            .copied()
            .unwrap_or_default();
        if (if silent { quiet } else { count - quiet }) == 0 {
            return false;
        }
        let ids = self.dests.get_mut(destination).expect("counted entry");
        let pos = ids
            .iter()
            .position(|id| self.entries[id].1 == sgid)
            .expect("counted entry");
        let id = ids.remove(pos);
        if ids.is_empty() {
            self.dests.remove(destination);
        }
        self.entries.remove(&id);
        self.release_member(sgid, id, destination, silent);
        true
    }

    /// Removes every entry for the destination and returns the filters.
    pub fn remove_destination(&mut self, destination: &D) -> Vec<Filter> {
        let ids = self.dests.remove(destination).unwrap_or_default();
        ids.into_iter()
            .map(|id| {
                let (_, sgid) = self.entries.remove(&id).expect("live entry");
                self.release_member(sgid, id, destination, false)
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

    /// The distinct stored filters that **cover** `filter` (including an
    /// identical one), in subgroup order — one covering walk.
    pub fn filters_covering(&self, filter: &Filter) -> Vec<&Filter> {
        self.index
            .covering_keys(filter)
            .into_iter()
            .map(|sgid| &self.subgroups[sgid].filter)
            .collect()
    }

    /// The distinct filters **strictly** covered by `filter` that have a
    /// propagating entry from a destination other than `except`, in
    /// subgroup order — one covered walk.
    pub fn covered_propagating(&self, filter: &Filter, except: &D) -> Vec<Filter> {
        self.index
            .covered_keys(filter)
            .into_iter()
            .map(|sgid| &self.subgroups[sgid])
            .filter(|sub| &sub.filter != filter && sub.propagating_from_others(except) > 0)
            .map(|sub| sub.filter.clone())
            .collect()
    }

    /// How many entries `(filter, destination)` the table holds, silent
    /// ones included — a single subgroup lookup.
    pub fn copies(&self, filter: &Filter, destination: &D) -> u32 {
        self.by_filter.get(filter).map_or(0, |sgid| {
            self.subgroups[sgid]
                .dests
                .get(destination)
                .map_or(0, |r| r.0)
        })
    }

    /// How many propagating entries identical to `filter` the table holds
    /// from destinations other than `except` — a single subgroup lookup.
    pub fn propagating_from_others(&self, filter: &Filter, except: &D) -> u32 {
        self.by_filter.get(filter).map_or(0, |sgid| {
            self.subgroups[sgid].propagating_from_others(except)
        })
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

    /// The propagating entries as `(destination, filter)`, in (destination,
    /// insertion) order: per filter and destination, silent copies skipped.
    pub fn propagating(&self) -> Vec<(D, Filter)> {
        let mut silent: BTreeMap<(&D, u64), u32> = BTreeMap::new();
        let mut out = Vec::new();
        for (dest, ids) in &self.dests {
            for id in ids {
                let sgid = self.entries[id].1;
                let sub = &self.subgroups[&sgid];
                match silent.entry((dest, sgid)).or_insert(sub.dests[dest].1) {
                    0 => out.push((dest.clone(), sub.filter.clone())),
                    left => *left -= 1,
                }
            }
        }
        out
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
    fn covering_and_identity_queries() {
        let mut t: RoutingTable<u32> = RoutingTable::new();
        t.insert(parking(10), 1);
        assert_eq!(t.destinations_covering(&parking(3), None), vec![1]);
        assert!(t.destinations_covering(&parking(20), None).is_empty());
        assert!(t.destinations_covering(&parking(3), Some(&1)).is_empty());
        assert!(t.contains_entry(&parking(10), &1));
        assert!(!t.contains_entry(&parking(10), &2));
    }

    #[test]
    fn overlapping_destinations() {
        let mut t: RoutingTable<u32> = RoutingTable::new();
        t.insert(parking(10), 1);
        let weather = Filter::new().with("service", Constraint::Eq("weather".into()));
        t.insert(weather.clone(), 2);
        assert_eq!(t.destinations_covering(&parking(3), None), vec![1]);
        assert_eq!(t.destinations_covering(&weather, None), vec![2]);
        assert!(t.destinations_covering(&parking(3), Some(&1)).is_empty());
        assert!(t.destinations_covering(&parking(20), None).is_empty());
    }

    #[test]
    fn iteration_and_destinations() {
        let mut t: RoutingTable<u32> = RoutingTable::new();
        t.insert(parking(3), 2);
        t.insert(parking(5), 1);
        let dests: Vec<u32> = t.iter().map(|(d, _)| *d).collect();
        assert_eq!(dests, vec![1, 2]);
    }

    #[test]
    fn silent_entries_route_but_do_not_propagate() {
        let mut t: RoutingTable<u32> = RoutingTable::new();
        t.insert(parking(3), 1);
        t.insert_silent(parking(3), 2);
        t.insert(parking(5), 2);
        assert_eq!(t.matching_destinations(&vacancy(1), None), vec![1, 2]);
        assert_eq!(t.copies(&parking(3), &2), 1);
        assert_eq!(t.propagating_from_others(&parking(3), &1), 0);
        assert_eq!(t.propagating_from_others(&parking(3), &2), 1);
        assert_eq!(t.covered_propagating(&parking(10), &1), vec![parking(5)]);
        assert_eq!(
            t.covered_propagating(&parking(10), &2),
            vec![parking(3)],
            "strictly covered, propagating, from another destination"
        );
        // A silent entry is not an unsubscription's to remove, and back.
        assert!(!t.remove(&parking(3), &2));
        assert!(!t.remove_silent(&parking(3), &1));
        assert!(t.remove_silent(&parking(3), &2));
        assert!(!t.remove_silent(&parking(3), &2));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn filters_covering_lists_each_distinct_cover_once() {
        let mut t: RoutingTable<u32> = RoutingTable::new();
        t.insert(parking(10), 2);
        t.insert(parking(10), 1);
        t.insert(parking(3), 1);
        t.insert(parking(5), 3);
        assert_eq!(
            t.filters_covering(&parking(4)),
            vec![&parking(10), &parking(5)]
        );
        assert_eq!(t.filters_covering(&parking(3)).len(), 3);
        assert!(t.filters_covering(&parking(20)).is_empty());
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
        for d in 0..5 {
            while t.remove(&parking(0), &d) {}
        }
        assert!(t.destinations_with_identical(&parking(0), None).is_empty());
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
