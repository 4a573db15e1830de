//! Property-based tests for the routing engine: every strategy delivers the
//! same notifications as simple routing (exactness), and the optimized
//! strategies never generate more administration traffic than simple routing.

use proptest::prelude::*;
use rebeca_filter::{Constraint, Filter, Notification, Value};
use rebeca_routing::{RoutingEngine, RoutingStrategyKind, RoutingTable};

/// A small universe of subscriptions over locations and prices so that
/// covering and merging actually trigger.
fn filter() -> impl Strategy<Value = Filter> {
    prop_oneof![
        // location subscriptions
        prop::collection::btree_set(0u32..6, 1..4)
            .prop_map(|locs| Filter::new().with("location", Constraint::any_location_of(locs))),
        // price subscriptions
        (1i64..10).prop_map(|p| Filter::new().with("cost", Constraint::Lt(Value::Int(p)))),
        // combined
        (1i64..10, 0u32..6).prop_map(|(p, l)| Filter::new()
            .with("cost", Constraint::Lt(Value::Int(p)))
            .with("location", Constraint::any_location_of([l]))),
    ]
}

fn notification() -> impl Strategy<Value = Notification> {
    (0i64..10, 0u32..6).prop_map(|(cost, loc)| {
        Notification::builder()
            .attr("cost", cost)
            .attr("location", Value::Location(loc))
            .build()
    })
}

/// A scripted sequence of subscribe events on links 0..3.
fn subscription_script() -> impl Strategy<Value = Vec<(Filter, u8)>> {
    prop::collection::vec((filter(), 0u8..4), 0..12)
}

const LINKS: [u8; 4] = [0, 1, 2, 3];

proptest! {
    /// Exactness: under every strategy the set of links a notification is
    /// routed to equals the set under simple routing (flooding excluded — it
    /// intentionally over-delivers).
    #[test]
    fn all_strategies_route_like_simple_routing(script in subscription_script(), n in notification()) {
        let mut reference: RoutingEngine<u8> = RoutingEngine::new(RoutingStrategyKind::Simple);
        for (f, l) in &script {
            reference.handle_subscribe(f.clone(), *l, &LINKS);
        }
        let expected = reference.route(&n, None, &LINKS);

        for kind in [
            RoutingStrategyKind::Identity,
            RoutingStrategyKind::Covering,
            RoutingStrategyKind::Merging,
        ] {
            let mut engine: RoutingEngine<u8> = RoutingEngine::new(kind);
            for (f, l) in &script {
                engine.handle_subscribe(f.clone(), *l, &LINKS);
            }
            prop_assert_eq!(engine.route(&n, None, &LINKS), expected.clone(), "strategy {:?}", kind);
        }
    }

    /// Flooding always delivers a superset of what any subscription-based
    /// strategy delivers.
    #[test]
    fn flooding_over_delivers(script in subscription_script(), n in notification()) {
        let mut simple: RoutingEngine<u8> = RoutingEngine::new(RoutingStrategyKind::Simple);
        let mut flooding: RoutingEngine<u8> = RoutingEngine::new(RoutingStrategyKind::Flooding);
        for (f, l) in &script {
            simple.handle_subscribe(f.clone(), *l, &LINKS);
            flooding.handle_subscribe(f.clone(), *l, &LINKS);
        }
        let s = simple.route(&n, None, &LINKS);
        let fl = flooding.route(&n, None, &LINKS);
        for link in s {
            prop_assert!(fl.contains(&link));
        }
    }

    /// Administration suppression: covering, merging and identity routing
    /// never forward more subscription messages than simple routing.
    #[test]
    fn optimized_strategies_forward_fewer_subscriptions(script in subscription_script()) {
        let mut forwarded = std::collections::BTreeMap::new();
        for kind in [
            RoutingStrategyKind::Simple,
            RoutingStrategyKind::Identity,
            RoutingStrategyKind::Covering,
            RoutingStrategyKind::Merging,
        ] {
            let mut engine: RoutingEngine<u8> = RoutingEngine::new(kind);
            let mut count = 0usize;
            for (f, l) in &script {
                count += engine.handle_subscribe(f.clone(), *l, &LINKS).len();
            }
            forwarded.insert(format!("{kind:?}"), count);
        }
        let simple = forwarded["Simple"];
        prop_assert!(forwarded["Identity"] <= simple);
        prop_assert!(forwarded["Covering"] <= simple);
        prop_assert!(forwarded["Merging"] <= simple);
    }

    /// Per-target completeness of the propagation decision: for every
    /// neighbour, the set of filters forwarded to it covers every active
    /// subscription received from the *other* links.  This is the invariant
    /// multi-broker delivery correctness rests on.
    #[test]
    fn forwarded_filters_cover_all_foreign_subscriptions(script in subscription_script(), n in notification()) {
        for kind in [
            RoutingStrategyKind::Simple,
            RoutingStrategyKind::Identity,
            RoutingStrategyKind::Covering,
            RoutingStrategyKind::Merging,
        ] {
            let mut engine: RoutingEngine<u8> = RoutingEngine::new(kind);
            // Record what is forwarded to each target over the whole run.
            let mut sent: std::collections::BTreeMap<u8, Vec<Filter>> = Default::default();
            for (f, l) in &script {
                for (target, filter) in engine.handle_subscribe(f.clone(), *l, &LINKS) {
                    sent.entry(target).or_default().push(filter);
                }
            }
            for target in LINKS {
                // Every subscription from a link other than `target` that the
                // notification matches must be covered by something sent to
                // `target`.
                for (f, l) in &script {
                    if *l == target || !f.matches(&n) {
                        continue;
                    }
                    let covered = sent
                        .get(&target)
                        .map(|filters| filters.iter().any(|s| s.covers(f)))
                        .unwrap_or(false);
                    prop_assert!(
                        covered,
                        "{:?}: subscription {} from link {} is not covered towards link {}",
                        kind, f, l, target
                    );
                }
            }
        }
    }

    /// Subgrouping equivalence: the subgroup-compacted [`RoutingTable`]
    /// behaves byte-identically to the per-subscription oracle (a plain
    /// entry list, exactly what the table was before subgrouping) across
    /// interleaved subscribe/unsubscribe churn — same `len`, same
    /// `matching_destinations`, same `destinations_covering`, same
    /// `destinations_with_identical`, same `filters_covering` and
    /// `covered_propagating`, same removal results.  Delivery-log
    /// equivalence at the system level rides the churn/storm scenario
    /// audits in `rebeca-bench`.
    #[test]
    fn subgrouped_table_matches_per_subscription_oracle(
        ops in prop::collection::vec((filter(), 0u8..4, any::<bool>()), 0..24),
        n in notification(),
    ) {
        let mut table: RoutingTable<u8> = RoutingTable::new();
        let mut oracle: Vec<(Filter, u8)> = Vec::new();
        for (f, l, subscribe) in &ops {
            if *subscribe {
                table.insert(f.clone(), *l);
                oracle.push((f.clone(), *l));
            } else {
                let removed = table.remove(f, l);
                let position = oracle.iter().position(|(of, ol)| of == f && ol == l);
                prop_assert_eq!(removed, position.is_some(), "removal must agree");
                if let Some(i) = position {
                    oracle.remove(i);
                }
            }

            prop_assert_eq!(table.len(), oracle.len());
            prop_assert!(table.subgroup_count() <= table.len().max(1));

            for exclude in [None, Some(&0u8)] {
                let got = table.matching_destinations(&n, exclude);
                let mut want: Vec<u8> = oracle
                    .iter()
                    .filter(|(of, ol)| Some(ol) != exclude && of.matches(&n))
                    .map(|(_, ol)| *ol)
                    .collect();
                want.sort_unstable();
                want.dedup();
                prop_assert_eq!(got, want);

                let covered = oracle
                    .iter()
                    .any(|(of, ol)| Some(ol) != exclude && of.covers(f));
                prop_assert_eq!(!table.destinations_covering(f, exclude).is_empty(), covered);

                let mut identical: Vec<u8> = oracle
                    .iter()
                    .filter(|(of, ol)| Some(ol) != exclude && of == f)
                    .map(|(_, ol)| *ol)
                    .collect();
                identical.sort_unstable();
                identical.dedup();
                prop_assert_eq!(table.destinations_with_identical(f, exclude), identical);
            }

            // The distinct filters covering `f`, and the distinct filters
            // `f` strictly covers held from a destination other than 0, as
            // sorted sets in both representations.
            let mut got: Vec<&Filter> = table.filters_covering(f);
            got.sort_unstable();
            let mut want: Vec<&Filter> = oracle
                .iter()
                .filter(|(of, _)| of.covers(f))
                .map(|(of, _)| of)
                .collect();
            want.sort_unstable();
            want.dedup();
            prop_assert_eq!(got, want);

            let mut got = table.covered_propagating(f, &0);
            got.sort_unstable();
            let mut want: Vec<Filter> = oracle
                .iter()
                .filter(|(of, ol)| *ol != 0 && of != f && f.covers(of))
                .map(|(of, _)| of.clone())
                .collect();
            want.sort_unstable();
            want.dedup();
            prop_assert_eq!(got, want);
        }
    }

    /// Subscribe followed by unsubscribe of the same script leaves the table
    /// and the held table empty, under every strategy.
    #[test]
    fn unsubscribe_is_the_inverse_of_subscribe(script in subscription_script()) {
        for kind in [
            RoutingStrategyKind::Simple,
            RoutingStrategyKind::Identity,
            RoutingStrategyKind::Covering,
            RoutingStrategyKind::Merging,
        ] {
            let mut engine: RoutingEngine<u8> = RoutingEngine::new(kind);
            for (f, l) in &script {
                engine.handle_subscribe(f.clone(), *l, &LINKS);
            }
            for (f, l) in &script {
                let eff = engine.handle_unsubscribe(f, l, &LINKS);
                prop_assert!(eff.removed, "{:?}: subscription must be found", kind);
            }
            prop_assert_eq!(engine.table_size(), 0, "{:?}: table must be empty", kind);
            prop_assert!(engine.held().is_empty(), "{:?}: every forward must be retracted", kind);
            // After the table drained, nothing is routed anywhere.
            let n = Notification::builder().attr("cost", 1).build();
            prop_assert!(engine.route(&n, None, &LINKS).is_empty());
        }
    }

    /// Through interleaved subscriptions and unsubscriptions, what each
    /// neighbour holds stays exactly what it needs: every subscription from
    /// another link is served by a held filter (no delivery gap), every
    /// held filter covers a subscription from another link (nothing
    /// stranded), and a notification matches a held filter exactly when it
    /// matches a subscription from another link (no merger wider than what
    /// it stands for).  Under simple routing the held multiset *is* the
    /// foreign multiset; under identity routing, its set.
    #[test]
    fn held_filters_track_foreign_subscriptions_through_churn(
        ops in prop::collection::vec((filter(), 0u8..4, any::<bool>()), 0..24),
        n in notification(),
    ) {
        for kind in [
            RoutingStrategyKind::Simple,
            RoutingStrategyKind::Identity,
            RoutingStrategyKind::Covering,
            RoutingStrategyKind::Merging,
        ] {
            let mut engine: RoutingEngine<u8> = RoutingEngine::new(kind);
            for (f, l, subscribe) in &ops {
                if *subscribe {
                    engine.handle_subscribe(f.clone(), *l, &LINKS);
                } else {
                    engine.handle_unsubscribe(f, l, &LINKS);
                }
                for target in LINKS {
                    let mut foreign: Vec<&Filter> = engine
                        .table()
                        .iter()
                        .filter(|(l, _)| **l != target)
                        .map(|(_, f)| f)
                        .collect();
                    let mut held = engine.held().filters_for(&target);
                    foreign.sort_unstable();
                    held.sort_unstable();
                    prop_assert_eq!(
                        held.iter().any(|h| h.matches(&n)),
                        foreign.iter().any(|f| f.matches(&n)),
                        "{:?}: held towards link {} routes {} differently", kind, target, n
                    );
                    match kind {
                        RoutingStrategyKind::Simple => prop_assert_eq!(&held, &foreign),
                        RoutingStrategyKind::Identity => {
                            foreign.dedup();
                            prop_assert_eq!(&held, &foreign);
                        }
                        _ => {
                            for f in &foreign {
                                prop_assert!(
                                    held.iter().any(|h| h.covers(f)),
                                    "{:?}: {} is not served towards link {}", kind, f, target
                                );
                            }
                            for h in &held {
                                prop_assert!(
                                    foreign.iter().any(|f| h.covers(f)),
                                    "{:?}: {} is stranded at link {}", kind, h, target
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}
