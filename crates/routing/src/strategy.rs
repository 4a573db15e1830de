//! Content-based routing strategies.
//!
//! Section 2.2 of the paper distinguishes *flooding*, *simple routing*,
//! *identity-based routing* (combining equal filters), *covering routing*
//! (Siena-style covering tests) and *merging routing* (creating covers of
//! existing filters).  A [`RoutingEngine`] bundles a
//! [`RoutingTable`](crate::RoutingTable) with one of these strategies and
//! answers the two questions every broker has to decide:
//!
//! 1. to which links must a notification be forwarded
//!    ([`RoutingEngine::route`]), and
//! 2. must an incoming (un)subscription be propagated to the remaining
//!    neighbours, and if so with which filter
//!    ([`RoutingEngine::handle_subscribe`] /
//!    [`RoutingEngine::handle_unsubscribe`]).
//!
//! The propagation decision is tracked **per neighbouring link**: a
//! subscription is suppressed towards a neighbour only when a filter covering
//! it has already been propagated *to that neighbour*.  (A broker never
//! propagates a subscription back over the link it came from, so a second
//! subscriber with an identical filter behind a different link still causes
//! the subscription to be propagated in its direction — getting this wrong
//! silently cuts delivery paths in multi-consumer deployments.)
//!
//! The routing decision itself always uses the full subscription information
//! and is therefore exact under every strategy; the strategies only differ in
//! how aggressively administration traffic is suppressed and how compact the
//! *forwarded* filters are — exactly the trade-off the paper's mobility
//! algorithms exploit ("covering and merging can be exploited, too").

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use rebeca_filter::{Filter, Notification};
use rebeca_matcher::FilterSet;

use crate::table::RoutingTable;

/// The routing strategy used by a broker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum RoutingStrategyKind {
    /// Notifications are forwarded on every link; subscriptions are never
    /// propagated.
    Flooding,
    /// Every subscription is stored and propagated unchanged.
    Simple,
    /// Identical subscriptions are combined: a subscription is propagated
    /// towards a neighbour only when no identical filter has been propagated
    /// to that neighbour before.
    Identity,
    /// Covered subscriptions are suppressed: a subscription is propagated
    /// towards a neighbour only when no filter covering it has been
    /// propagated to that neighbour before (default, matches the Rebeca
    /// deployment assumed by the paper).
    #[default]
    Covering,
    /// Like covering, but additionally tries to propagate perfect mergers of
    /// filters instead of the individual filters.
    Merging,
}

/// What a broker must do after processing an unsubscription.
#[derive(Debug, Clone, PartialEq)]
pub struct UnsubscriptionEffect<D> {
    /// Unsubscriptions to propagate, as `(neighbour, filter)` pairs.
    pub forwards: Vec<(D, Filter)>,
    /// `true` when the filter was actually found and removed locally.
    pub removed: bool,
}

/// A routing table plus the propagation logic of one routing strategy.
#[derive(Debug, Clone)]
pub struct RoutingEngine<D> {
    kind: RoutingStrategyKind,
    table: RoutingTable<D>,
    /// Filters this broker has already propagated to each neighbour (and not
    /// yet retracted), reduced under the strategy's redundancy notion.  Used
    /// to suppress duplicate administration traffic per link.
    forwarded: BTreeMap<D, FilterSet>,
}

impl<D: Ord + Clone> RoutingEngine<D> {
    /// Creates an engine with the given strategy and an empty table.
    pub fn new(kind: RoutingStrategyKind) -> Self {
        Self {
            kind,
            table: RoutingTable::new(),
            forwarded: BTreeMap::new(),
        }
    }

    /// The strategy in use.
    pub fn kind(&self) -> RoutingStrategyKind {
        self.kind
    }

    /// Read access to the underlying routing table.
    pub fn table(&self) -> &RoutingTable<D> {
        &self.table
    }

    /// Mutable access to the underlying routing table, bypassing the
    /// per-link propagation state: only for location-dependent filters,
    /// which are hop-specific and carry their own control message.
    pub fn table_mut(&mut self) -> &mut RoutingTable<D> {
        &mut self.table
    }

    /// Destinations a notification must be forwarded to.
    ///
    /// Under [`RoutingStrategyKind::Flooding`] this is every destination the
    /// broker knows (`all_links`) except the one the notification came from;
    /// under every other strategy it is the set of links with a matching
    /// subscription.
    pub fn route(&self, notification: &Notification, from: Option<&D>, all_links: &[D]) -> Vec<D> {
        match self.kind {
            RoutingStrategyKind::Flooding => all_links
                .iter()
                .filter(|l| Some(*l) != from)
                .cloned()
                .collect(),
            _ => self.table.matching_destinations(notification, from),
        }
    }

    /// Visits each destination a notification must be forwarded to, exactly
    /// once, in ascending destination order — the visitor variant of
    /// [`RoutingEngine::route`] used on the broker's forwarding hot path:
    /// no matching-key vector and no cloned destination vector are built
    /// (the table still keeps a small per-call deduplication set).
    pub fn for_each_route(
        &self,
        notification: &Notification,
        from: Option<&D>,
        all_links: &[D],
        mut visit: impl FnMut(&D),
    ) {
        match self.kind {
            RoutingStrategyKind::Flooding => {
                for l in all_links.iter().filter(|l| Some(*l) != from) {
                    visit(l);
                }
            }
            _ => self
                .table
                .for_each_matching_destination(notification, from, visit),
        }
    }

    /// `true` when a subscription of `filter` arriving from the neighbour
    /// `from` would add no route the table lacks: it holds an identical
    /// entry from `from` or, under covering and merging routing, a covering
    /// one — what the neighbour propagated in its place, and keeps in place
    /// while the covered subscription lives.
    pub fn routes_from(&self, filter: &Filter, from: &D) -> bool {
        self.table.contains_entry(filter, from)
            || (matches!(
                self.kind,
                RoutingStrategyKind::Covering | RoutingStrategyKind::Merging
            ) && self
                .table
                .destinations_covering(filter, None)
                .contains(from))
    }

    /// Processes a subscription received from `from` and decides towards
    /// which of the `neighbours` it has to be propagated, and as what filter.
    ///
    /// Returns `(neighbour, filter)` pairs; under merging routing the filter
    /// may be a perfect merger covering the original subscription.
    pub fn handle_subscribe(
        &mut self,
        filter: Filter,
        from: D,
        neighbours: &[D],
    ) -> Vec<(D, Filter)> {
        // The table always records the precise subscription so that routing
        // stays exact and unsubscription can later remove exactly one
        // instance.
        self.table.insert(filter.clone(), from.clone());

        if self.kind == RoutingStrategyKind::Flooding {
            return Vec::new();
        }

        let mut forwards = Vec::new();
        for target in neighbours {
            if *target == from {
                continue;
            }
            let sent = self.forwarded.entry(target.clone()).or_default();
            match self.kind {
                RoutingStrategyKind::Flooding => unreachable!("handled above"),
                RoutingStrategyKind::Simple => {
                    sent.insert_simple(filter.clone());
                    forwards.push((target.clone(), filter.clone()));
                }
                RoutingStrategyKind::Identity => {
                    if !sent.contains(&filter) {
                        sent.insert_simple(filter.clone());
                        forwards.push((target.clone(), filter.clone()));
                    }
                }
                RoutingStrategyKind::Covering => {
                    if !sent.covers(&filter) {
                        sent.insert_covering(filter.clone());
                        forwards.push((target.clone(), filter.clone()));
                    }
                }
                RoutingStrategyKind::Merging => {
                    if !sent.covers(&filter) {
                        sent.insert_merging(filter.clone());
                        let cover = sent
                            .iter()
                            .find(|f| f.covers(&filter))
                            .cloned()
                            .unwrap_or_else(|| filter.clone());
                        forwards.push((target.clone(), cover));
                    }
                }
            }
        }
        forwards
    }

    /// Processes an unsubscription received from `from`.
    ///
    /// The unsubscription is propagated towards a neighbour only when no
    /// remaining subscription (from any other link) still needs the
    /// previously propagated path.  The check is conservative: keeping a
    /// stale upstream subscription is safe (it only costs traffic), while
    /// retracting one that is still needed would cut a delivery path.
    pub fn handle_unsubscribe(
        &mut self,
        filter: &Filter,
        from: &D,
        neighbours: &[D],
    ) -> UnsubscriptionEffect<D> {
        let removed = self.table.remove(filter, from);
        if !removed || self.kind == RoutingStrategyKind::Flooding {
            return UnsubscriptionEffect {
                forwards: Vec::new(),
                removed,
            };
        }

        // Links whose remaining subscriptions the retracted filter still
        // pays for, pruned through the index instead of a full table scan
        // (identical filters cover each other, so the covered set subsumes
        // the equality case used by simple/identity routing).
        let dependants: Vec<D> = match self.kind {
            RoutingStrategyKind::Covering | RoutingStrategyKind::Merging => {
                self.table.destinations_covered_by(filter)
            }
            _ => self.table.destinations_with_identical(filter, None),
        };
        let mut forwards = Vec::new();
        for target in neighbours {
            if target == from {
                continue;
            }
            // The path from `target` towards us is still required while a
            // remaining subscription from another link is covered by the
            // retracted filter (identity/simple: is identical to it).
            let still_needed = dependants.iter().any(|link| link != target);
            if still_needed {
                continue;
            }
            let sent = self.forwarded.entry(target.clone()).or_default();
            let had_forwarded = sent.contains(filter) || sent.covers(filter);
            if had_forwarded {
                sent.remove(filter);
                forwards.push((target.clone(), filter.clone()));
            }
        }
        UnsubscriptionEffect { forwards, removed }
    }

    /// Number of `(filter, destination)` entries in the routing table.
    pub fn table_size(&self) -> usize {
        self.table.len()
    }

    /// Number of subscription subgroups (distinct filters) in the routing
    /// table — the size the predicate index actually pays.
    pub fn subgroup_count(&self) -> usize {
        self.table.subgroup_count()
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

    fn loc(l: &[u32]) -> Filter {
        Filter::new().with("location", Constraint::any_location_of(l.iter().copied()))
    }

    fn vacancy(cost: i64) -> Notification {
        Notification::builder()
            .attr("service", "parking")
            .attr("cost", cost)
            .build()
    }

    const LINKS: &[u32] = &[1, 2, 3];

    #[test]
    fn flooding_routes_everywhere_and_never_forwards_subs() {
        let mut e: RoutingEngine<u32> = RoutingEngine::new(RoutingStrategyKind::Flooding);
        let forwards = e.handle_subscribe(parking(3), 1, LINKS);
        assert!(forwards.is_empty());
        let dests = e.route(&vacancy(2), Some(&2), &[1, 2, 3]);
        assert_eq!(dests, vec![1, 3]);
    }

    #[test]
    fn simple_routing_forwards_every_subscription_to_every_other_link() {
        let mut e: RoutingEngine<u32> = RoutingEngine::new(RoutingStrategyKind::Simple);
        let forwards = e.handle_subscribe(parking(3), 1, LINKS);
        assert_eq!(forwards.len(), 2);
        assert!(forwards.iter().all(|(d, _)| *d != 1));
        let forwards = e.handle_subscribe(parking(3), 2, LINKS);
        assert_eq!(forwards.len(), 2);
        assert_eq!(e.table_size(), 2);
    }

    #[test]
    fn identity_routing_suppresses_identical_filters_per_target() {
        let mut e: RoutingEngine<u32> = RoutingEngine::new(RoutingStrategyKind::Identity);
        // First subscription from link 1: forwarded to links 2 and 3.
        assert_eq!(e.handle_subscribe(parking(3), 1, LINKS).len(), 2);
        // Identical subscription from link 2: link 3 already knows it, but
        // link 1 does not — exactly one forward, towards link 1.
        let forwards = e.handle_subscribe(parking(3), 2, LINKS);
        assert_eq!(forwards.len(), 1);
        assert_eq!(forwards[0].0, 1);
        // A different filter is forwarded everywhere again.
        assert_eq!(e.handle_subscribe(parking(5), 2, LINKS).len(), 2);
    }

    #[test]
    fn covering_routing_suppresses_covered_filters_per_target() {
        let mut e: RoutingEngine<u32> = RoutingEngine::new(RoutingStrategyKind::Covering);
        assert_eq!(e.handle_subscribe(parking(10), 1, LINKS).len(), 2);
        // Covered filter from link 2: only link 1 still needs to learn about
        // a path in that direction.
        let forwards = e.handle_subscribe(parking(3), 2, LINKS);
        assert_eq!(forwards.len(), 1);
        assert_eq!(forwards[0].0, 1);
        // A wider filter is not covered and propagates to the other links.
        let forwards = e.handle_subscribe(parking(20), 2, LINKS);
        assert_eq!(forwards.len(), 2);
        // Routing stays exact: only link 2 subscribed to vacancies this
        // expensive; cheaper ones reach both subscriber links.
        assert_eq!(e.route(&vacancy(15), None, LINKS), vec![2]);
        assert_eq!(e.route(&vacancy(5), None, LINKS), vec![1, 2]);
        assert_eq!(e.route(&vacancy(1), None, LINKS), vec![1, 2]);
    }

    #[test]
    fn merging_routing_forwards_mergers() {
        let mut e: RoutingEngine<u32> = RoutingEngine::new(RoutingStrategyKind::Merging);
        let forwards = e.handle_subscribe(loc(&[1]), 1, &[1, 2]);
        assert_eq!(forwards, vec![(2, loc(&[1]))]);
        let forwards = e.handle_subscribe(loc(&[2]), 1, &[1, 2]);
        // The forwarded filter towards link 2 is the merger {1, 2}.
        assert_eq!(forwards, vec![(2, loc(&[1, 2]))]);
        // A third subscription covered by the merger is suppressed.
        assert!(e.handle_subscribe(loc(&[1, 2]), 1, &[1, 2]).is_empty());
    }

    #[test]
    fn routing_is_exact_under_every_strategy() {
        for kind in [
            RoutingStrategyKind::Simple,
            RoutingStrategyKind::Identity,
            RoutingStrategyKind::Covering,
            RoutingStrategyKind::Merging,
        ] {
            let mut e: RoutingEngine<u32> = RoutingEngine::new(kind);
            e.handle_subscribe(parking(3), 1, LINKS);
            e.handle_subscribe(parking(10), 2, LINKS);
            assert_eq!(e.route(&vacancy(5), None, LINKS), vec![2], "{kind:?}");
            assert_eq!(e.route(&vacancy(1), None, LINKS), vec![1, 2], "{kind:?}");
        }
    }

    #[test]
    fn unsubscribe_forwards_only_when_no_other_link_needs_the_path() {
        let mut e: RoutingEngine<u32> = RoutingEngine::new(RoutingStrategyKind::Simple);
        e.handle_subscribe(parking(3), 1, LINKS);
        e.handle_subscribe(parking(3), 2, LINKS);
        // Removing link 1's subscription: link 3 still serves link 2's
        // identical subscription, so nothing is retracted towards link 3; the
        // path towards link 2 itself is no longer needed for link 1... but
        // link 2's own subscription never required a forward towards link 2,
        // so only the forward towards link 2 that served link 1 is retracted.
        let eff = e.handle_unsubscribe(&parking(3), &1, LINKS);
        assert!(eff.removed);
        assert!(eff.forwards.iter().all(|(d, _)| *d == 2));
        // Removing the last instance retracts the remaining forwards.
        let eff = e.handle_unsubscribe(&parking(3), &2, LINKS);
        assert!(eff.removed);
        assert!(!eff.forwards.is_empty());
        assert_eq!(e.table_size(), 0);
    }

    #[test]
    fn retracting_a_wider_filter_keeps_the_narrower_ones_retractable() {
        // Simple and identity routing forward every filter on its own, so
        // each needs its own retraction, whatever order they go in.
        for kind in [RoutingStrategyKind::Simple, RoutingStrategyKind::Identity] {
            let mut e: RoutingEngine<u32> = RoutingEngine::new(kind);
            for max in [10, 3, 5] {
                e.handle_subscribe(parking(max), 1, LINKS);
            }
            for max in [10, 3, 5] {
                let eff = e.handle_unsubscribe(&parking(max), &1, LINKS);
                assert_eq!(eff.forwards.len(), 2, "{kind:?}: cost < {max}");
            }
        }
    }

    #[test]
    fn unsubscribe_of_unknown_filter_is_a_noop() {
        let mut e: RoutingEngine<u32> = RoutingEngine::new(RoutingStrategyKind::Covering);
        let eff = e.handle_unsubscribe(&parking(3), &1, LINKS);
        assert!(!eff.removed);
        assert!(eff.forwards.is_empty());
    }

    #[test]
    fn covering_unsubscribe_keeps_cover_while_covered_subs_remain() {
        let mut e: RoutingEngine<u32> = RoutingEngine::new(RoutingStrategyKind::Covering);
        e.handle_subscribe(parking(10), 1, LINKS);
        e.handle_subscribe(parking(3), 2, LINKS);
        // Removing the wide filter: the narrow subscription from link 2 is
        // still covered by it, so the forward towards link 3 must stay.
        let eff = e.handle_unsubscribe(&parking(10), &1, LINKS);
        assert!(eff.removed);
        assert!(eff.forwards.iter().all(|(d, _)| *d != 3));
    }

    #[test]
    fn flooding_never_forwards_unsubscriptions() {
        let mut e: RoutingEngine<u32> = RoutingEngine::new(RoutingStrategyKind::Flooding);
        e.handle_subscribe(parking(3), 1, LINKS);
        let eff = e.handle_unsubscribe(&parking(3), &1, LINKS);
        assert!(eff.removed);
        assert!(eff.forwards.is_empty());
    }

    #[test]
    fn second_subscriber_behind_a_different_link_gets_a_path() {
        // Regression test for the multi-consumer propagation bug: after a
        // subscription from link 1 has been propagated, an identical
        // subscription arriving from link 2 must still be propagated towards
        // link 1 (otherwise producers behind link 1 would never route
        // notifications towards link 2's subscriber).
        for kind in [
            RoutingStrategyKind::Identity,
            RoutingStrategyKind::Covering,
            RoutingStrategyKind::Merging,
        ] {
            let mut e: RoutingEngine<u32> = RoutingEngine::new(kind);
            e.handle_subscribe(parking(3), 1, &[1, 2]);
            let forwards = e.handle_subscribe(parking(3), 2, &[1, 2]);
            assert_eq!(forwards.len(), 1, "{kind:?}");
            assert_eq!(forwards[0].0, 1, "{kind:?}");
        }
    }

    #[test]
    fn route_visitor_agrees_with_route() {
        for kind in [
            RoutingStrategyKind::Flooding,
            RoutingStrategyKind::Simple,
            RoutingStrategyKind::Covering,
        ] {
            let mut e: RoutingEngine<u32> = RoutingEngine::new(kind);
            e.handle_subscribe(parking(3), 1, LINKS);
            e.handle_subscribe(parking(10), 2, LINKS);
            for n in (0..5).map(|i| vacancy(i * 3)) {
                let mut visited = Vec::new();
                e.for_each_route(&n, Some(&3), LINKS, |d| visited.push(*d));
                assert_eq!(visited, e.route(&n, Some(&3), LINKS), "{kind:?}");
            }
        }
    }

    #[test]
    fn routes_from_counts_covers_only_where_the_strategy_suppresses() {
        for kind in [
            RoutingStrategyKind::Simple,
            RoutingStrategyKind::Identity,
            RoutingStrategyKind::Covering,
            RoutingStrategyKind::Merging,
        ] {
            let mut e: RoutingEngine<u32> = RoutingEngine::new(kind);
            e.handle_subscribe(parking(10), 1, LINKS);
            assert!(e.routes_from(&parking(10), &1), "{kind:?}");
            assert!(!e.routes_from(&parking(10), &2), "{kind:?}");
            assert!(!e.routes_from(&parking(20), &1), "{kind:?}");
            let covered = matches!(
                kind,
                RoutingStrategyKind::Covering | RoutingStrategyKind::Merging
            );
            assert_eq!(e.routes_from(&parking(3), &1), covered, "{kind:?}");
        }
    }

    #[test]
    fn default_strategy_is_covering() {
        assert_eq!(
            RoutingStrategyKind::default(),
            RoutingStrategyKind::Covering
        );
    }
}
