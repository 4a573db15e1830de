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
//! # One propagation rule
//!
//! Beside its table the engine keeps the **held table**
//! ([`RoutingEngine::held`]): one entry `(f, n)` for each `Subscribe(f)`
//! sent to the neighbour `n` and not yet retracted — exactly the entries
//! `n`'s table holds pointing back here.  Every strategy decides by the
//! same rule over it; the only per-strategy input is whether a held filter
//! `h` *serves* a table entry `e`: simple routing never (one copy per
//! instance), identity routing when `h == e`, covering and merging routing
//! when `h` covers `e`.
//!
//! - **Subscribe `f` from `from`:** offer `f` to every neighbour `n ≠ from`
//!   whose held filters do not serve it.  Under merging routing the filter
//!   sent is the perfect merger of `f` with a filter already held by `n`,
//!   when one exists.
//! - **Unsubscribe `f` from `from`:** at every neighbour `n ≠ from`,
//!   retract each held filter `h` that is `f` or served it and now has more
//!   copies held by `n` than the table has propagating entries identical
//!   to `h` from destinations other than `n`.  Before the `Unsubscribe(h)`,
//!   offer `n` again the propagating entries `h` served and that no other
//!   held filter serves; on a FIFO link that leaves no delivery gap.
//! - **Resync with `n`** (after a restart): forget `held(n)`, then offer
//!   `n` every propagating entry from another destination.
//!
//! So a neighbour never keeps a filter nobody behind this broker needs,
//! whatever the strategy.  An unsubscription whose identical twin remains
//! costs, under covering and merging routing, one covering walk of the held
//! table, and then per neighbour one subgroup lookup in each table; it
//! clones no filter.  A broker never
//! propagates a subscription back over the link it came from, so a second
//! subscriber with an identical filter behind a different link still causes
//! the subscription to be propagated in its direction.
//!
//! The routing decision itself always uses the full subscription information
//! and is therefore exact under every strategy; the strategies only differ in
//! how aggressively administration traffic is suppressed and how compact the
//! *forwarded* filters are — exactly the trade-off the paper's mobility
//! algorithms exploit ("covering and merging can be exploited, too").

use serde::{Deserialize, Serialize};

use rebeca_filter::{Filter, Notification};

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

impl RoutingStrategyKind {
    /// `true` when a held filter serves every filter it covers.
    fn by_covering(self) -> bool {
        matches!(self, Self::Covering | Self::Merging)
    }
}

/// What a broker must do after processing an unsubscription.
#[derive(Debug, Clone, PartialEq)]
pub struct UnsubscriptionEffect<D> {
    /// Subscriptions to propagate first, as `(neighbour, filter)` pairs:
    /// what a retracted cover served and nothing else held serves.
    pub subscribes: Vec<(D, Filter)>,
    /// Unsubscriptions to propagate after them, as `(neighbour, filter)`
    /// pairs.
    pub forwards: Vec<(D, Filter)>,
    /// `true` when the filter was actually found and removed locally.
    pub removed: bool,
}

/// A routing table plus the propagation logic of one routing strategy.
#[derive(Debug, Clone)]
pub struct RoutingEngine<D> {
    kind: RoutingStrategyKind,
    table: RoutingTable<D>,
    /// One entry `(f, n)` per `Subscribe(f)` sent to the neighbour `n` and
    /// not yet retracted (see the module docs).
    held: RoutingTable<D>,
}

impl<D: Ord + Clone> RoutingEngine<D> {
    /// Creates an engine with the given strategy and an empty table.
    pub fn new(kind: RoutingStrategyKind) -> Self {
        Self {
            kind,
            table: RoutingTable::new(),
            held: RoutingTable::new(),
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

    /// What each neighbour holds from this broker: one entry `(f, n)` per
    /// `Subscribe(f)` sent to `n` and not retracted, and per relocation
    /// request `n` installed (see [`RoutingEngine::note_relayed`]).
    pub fn held(&self) -> &RoutingTable<D> {
        &self.held
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
            || (self.kind.by_covering()
                && self
                    .table
                    .destinations_covering(filter, None)
                    .contains(from))
    }

    /// `true` when `held(n)` holds `filter` or, under covering and merging
    /// routing, a cover of it: what `n`'s [`RoutingEngine::routes_from`]
    /// answers for this broker.
    fn held_routes(&self, filter: &Filter, n: &D) -> bool {
        self.held.contains_entry(filter, n)
            || (self.kind.by_covering()
                && self.held.destinations_covering(filter, None).contains(n))
    }

    /// Offers `filter` to the neighbour `n` unless a held filter serves it;
    /// records and returns what is sent.
    fn offer(&mut self, filter: &Filter, n: &D, out: &mut Vec<(D, Filter)>) {
        let served = match self.kind {
            RoutingStrategyKind::Simple => false,
            _ => self.held_routes(filter, n),
        };
        if served {
            return;
        }
        let sent = match self.kind {
            RoutingStrategyKind::Merging => self
                .held
                .filters_for(n)
                .into_iter()
                .find_map(|partner| partner.try_merge(filter))
                .unwrap_or_else(|| filter.clone()),
            _ => filter.clone(),
        };
        self.held.insert(sent.clone(), n.clone());
        out.push((n.clone(), sent));
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
        let mut forwards = Vec::new();
        if self.kind != RoutingStrategyKind::Flooding {
            for n in neighbours.iter().filter(|n| **n != from) {
                self.offer(&filter, n, &mut forwards);
            }
        }
        // The table always records the precise subscription so that routing
        // stays exact and unsubscription can later remove exactly one
        // instance.
        self.table.insert(filter, from);
        forwards
    }

    /// Processes an unsubscription received from `from`.
    ///
    /// At each neighbour `n` other than `from`, every held filter that is
    /// `filter` or served it is retracted when `n` now holds more copies of
    /// it than the table has propagating identical entries from
    /// destinations other than `n`.  What a retracted filter served and no
    /// other held filter serves is offered to `n` again first, so the
    /// broker sends those `Subscribe`s before the `Unsubscribe`s.
    pub fn handle_unsubscribe(
        &mut self,
        filter: &Filter,
        from: &D,
        neighbours: &[D],
    ) -> UnsubscriptionEffect<D> {
        let mut effect = UnsubscriptionEffect {
            subscribes: Vec::new(),
            forwards: Vec::new(),
            removed: self.table.remove(filter, from),
        };
        if !effect.removed || self.kind == RoutingStrategyKind::Flooding {
            return effect;
        }
        // The held filters that may have served `filter`: itself and, under
        // covering and merging, every cover of it.
        let candidates = if self.kind.by_covering() {
            self.held.filters_covering(filter)
        } else {
            vec![filter]
        };
        let mut retract = Vec::new();
        for n in neighbours.iter().filter(|n| *n != from) {
            for &h in &candidates {
                let copies = self.held.copies(h, n);
                let needed = self.table.propagating_from_others(h, n);
                if copies > needed {
                    retract.push((n.clone(), h.clone(), copies - needed));
                }
            }
        }
        for (n, h, surplus) in &retract {
            for _ in 0..*surplus {
                self.held.remove(h, n);
                effect.forwards.push((n.clone(), h.clone()));
            }
        }
        // Re-offers only once every retracted filter is gone, so none is
        // served by, or merged into, a filter on its way out.
        if self.kind.by_covering() {
            for (n, h, _) in &retract {
                for e in self.table.covered_propagating(h, n) {
                    self.offer(&e, n, &mut effect.subscribes);
                }
            }
        }
        effect
    }

    /// Forgets what the neighbour `n` holds and offers it again every
    /// propagating entry from another destination: the filters `n` is to
    /// hold from this broker after a resynchronisation.
    pub fn resync(&mut self, n: &D) -> Vec<Filter> {
        self.held.remove_destination(n);
        let mut sent = Vec::new();
        if self.kind != RoutingStrategyKind::Flooding {
            for (d, e) in self.table.propagating() {
                if d != *n {
                    self.offer(&e, n, &mut sent);
                }
            }
        }
        sent.into_iter().map(|(_, f)| f).collect()
    }

    /// Routes `filter` towards `towards` as a subscription arriving from
    /// there would, but sends nothing: the caller's own request (a
    /// relocation's `Relocate` or `Fetch`) is the propagation.  Skipped when
    /// the table already routes it there: an identical entry or, from one
    /// of the `neighbours`, what [`RoutingEngine::routes_from`] counts.  A
    /// local client's node gets no such shortcut: its subscriptions are
    /// retracted one by one.
    pub fn route_towards(&mut self, filter: Filter, towards: D, neighbours: &[D]) {
        let routed = if neighbours.contains(&towards) {
            self.routes_from(&filter, &towards)
        } else {
            self.table.contains_entry(&filter, &towards)
        };
        if !routed {
            self.table.insert(filter, towards);
        }
    }

    /// Records a request that makes the neighbour `to` route `filter`
    /// towards this broker (a relocation's `Relocate` or `Fetch`): `to`
    /// installs it with [`RoutingEngine::route_towards`] unless its
    /// [`RoutingEngine::routes_from`] already counts it, and the held table
    /// mirrors that decision.
    pub fn note_relayed(&mut self, filter: &Filter, to: &D) {
        if !self.held_routes(filter, to) {
            self.held.insert(filter.clone(), to.clone());
        }
    }

    /// Adds the entry `(filter, from)` without propagating it, ever: for
    /// protocols that carry their own control message from hop to hop
    /// (location-dependent filters, which are hop-specific).
    pub fn install(&mut self, filter: Filter, from: D) {
        self.table.insert_silent(filter, from);
    }

    /// The reverse of [`RoutingEngine::install`]; `true` when an entry was
    /// removed.
    pub fn retract(&mut self, filter: &Filter, from: &D) -> bool {
        self.table.remove_silent(filter, from)
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
        // Simple routing sent one copy per subscription: link 2 holds link
        // 1's, link 3 holds both.  Removing link 1's subscription retracts
        // link 2's only copy and one of link 3's two; link 1 keeps the copy
        // link 2's subscriber needs.
        let eff = e.handle_unsubscribe(&parking(3), &1, LINKS);
        assert!(eff.removed);
        assert!(eff.subscribes.is_empty());
        assert_eq!(eff.forwards, vec![(2, parking(3)), (3, parking(3))]);
        assert_eq!(e.held().filters_for(&3), vec![&parking(3)]);
        // Removing the last instance retracts the remaining forwards.
        let eff = e.handle_unsubscribe(&parking(3), &2, LINKS);
        assert!(eff.removed);
        assert_eq!(eff.forwards, vec![(1, parking(3)), (3, parking(3))]);
        assert_eq!(e.table_size(), 0);
        assert!(e.held().is_empty());
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
        // Removing the wide filter: link 3 held only the cover, so it first
        // gets the narrow subscription from link 2 the cover served, then
        // loses the cover; FIFO leaves no gap.  Link 2 needs nothing back.
        let eff = e.handle_unsubscribe(&parking(10), &1, LINKS);
        assert!(eff.removed);
        assert_eq!(eff.subscribes, vec![(3, parking(3))]);
        assert_eq!(eff.forwards, vec![(2, parking(10)), (3, parking(10))]);
        assert_eq!(e.held().filters_for(&3), vec![&parking(3)]);
    }

    /// ROADMAP Finding 12 at one broker: a cover sent after the covered
    /// subscription goes with its own unsubscription, and the covered one
    /// with its own.
    #[test]
    fn a_later_cover_is_retracted_with_its_own_unsubscription() {
        for kind in [RoutingStrategyKind::Covering, RoutingStrategyKind::Merging] {
            let mut e: RoutingEngine<u32> = RoutingEngine::new(kind);
            e.handle_subscribe(parking(5), 1, LINKS);
            e.handle_subscribe(parking(10), 1, LINKS);
            let eff = e.handle_unsubscribe(&parking(10), &1, LINKS);
            assert!(eff.subscribes.is_empty(), "{kind:?}");
            assert_eq!(
                eff.forwards,
                vec![(2, parking(10)), (3, parking(10))],
                "{kind:?}"
            );
            let eff = e.handle_unsubscribe(&parking(5), &1, LINKS);
            assert_eq!(
                eff.forwards,
                vec![(2, parking(5)), (3, parking(5))],
                "{kind:?}"
            );
            assert!(e.held().is_empty(), "{kind:?}");
        }
    }

    #[test]
    fn merging_retracts_a_merger_once_nothing_it_served_remains() {
        let mut e: RoutingEngine<u32> = RoutingEngine::new(RoutingStrategyKind::Merging);
        e.handle_subscribe(loc(&[1]), 1, &[1, 2]);
        e.handle_subscribe(loc(&[2]), 1, &[1, 2]);
        // Link 2 holds {1} and the merger {1, 2}; {1} still serves {1}.
        let eff = e.handle_unsubscribe(&loc(&[2]), &1, &[1, 2]);
        assert!(eff.subscribes.is_empty());
        assert_eq!(eff.forwards, vec![(2, loc(&[1, 2]))]);
        let eff = e.handle_unsubscribe(&loc(&[1]), &1, &[1, 2]);
        assert_eq!(eff.forwards, vec![(2, loc(&[1]))]);
        assert!(e.held().is_empty());
    }

    /// Two held filters retracted by one unsubscription: what they served is
    /// offered again only after both are gone, so no re-offer merges into
    /// a filter on its way out.
    #[test]
    fn merging_re_offers_after_every_retraction() {
        let mut e: RoutingEngine<u32> = RoutingEngine::new(RoutingStrategyKind::Merging);
        let to = &[2];
        // Free an index slot, so the merger below sorts before its partner.
        e.handle_subscribe(parking(3), 1, to);
        e.handle_subscribe(loc(&[2, 3]), 1, to);
        e.handle_unsubscribe(&parking(3), &1, to);
        // Link 2 holds {2, 3} and the merger {1, 2, 3}; {2} is served.
        e.handle_subscribe(loc(&[1]), 1, to);
        e.handle_subscribe(loc(&[2]), 1, to);
        let eff = e.handle_unsubscribe(&loc(&[2, 3]), &1, to);
        // Retracting {1, 2, 3} first and re-offering {1} at once would
        // have merged it with {2, 3} into {1, 2, 3} again, for nobody.
        assert_eq!(eff.subscribes, vec![(2, loc(&[1])), (2, loc(&[1, 2]))]);
        assert_eq!(eff.forwards.len(), 2);
        assert_eq!(e.held().filters_for(&2), vec![&loc(&[1]), &loc(&[1, 2])]);
    }

    #[test]
    fn installed_entries_route_but_are_never_offered_or_counted() {
        let mut e: RoutingEngine<u32> = RoutingEngine::new(RoutingStrategyKind::Identity);
        e.install(parking(3), 1);
        assert_eq!(e.route(&vacancy(1), None, LINKS), vec![1]);
        // An identical subscription from link 2 is still offered to link 1
        // and link 3: the installed entry was never sent anywhere.
        assert_eq!(e.handle_subscribe(parking(3), 2, LINKS).len(), 2);
        // Its unsubscription retracts both, the installed entry
        // notwithstanding; an unsubscription cannot remove the installed
        // entry, its retraction can.
        let eff = e.handle_unsubscribe(&parking(3), &2, LINKS);
        assert_eq!(eff.forwards.len(), 2);
        assert!(!e.handle_unsubscribe(&parking(3), &1, LINKS).removed);
        assert!(e.retract(&parking(3), &1));
        assert_eq!(e.table_size(), 0);
        assert!(e.held().is_empty());
    }

    #[test]
    fn relayed_requests_are_held_where_the_receiver_installs_them() {
        for kind in [
            RoutingStrategyKind::Simple,
            RoutingStrategyKind::Identity,
            RoutingStrategyKind::Covering,
            RoutingStrategyKind::Merging,
        ] {
            let mut e: RoutingEngine<u32> = RoutingEngine::new(kind);
            e.handle_subscribe(parking(10), 1, LINKS);
            // Link 2 holds cost < 10: it installs a relayed cost < 3 unless
            // its `routes_from` counts the cover.
            e.note_relayed(&parking(3), &2);
            e.note_relayed(&parking(3), &2);
            let held = e.held().copies(&parking(3), &2);
            assert_eq!(held, u32::from(!kind.by_covering()), "{kind:?}");
            // Link 1 holds nothing and installs it once.
            e.note_relayed(&parking(3), &1);
            e.note_relayed(&parking(3), &1);
            assert_eq!(e.held().copies(&parking(3), &1), 1, "{kind:?}");
        }
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
