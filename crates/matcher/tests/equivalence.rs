//! Equivalence of the predicate index with the linear-scan oracle.
//!
//! These property tests are the exactness contract of `rebeca-matcher`: on
//! seeded, randomized filters and notifications spanning every constraint
//! kind and every index partition (hashed equality, ordered numeric bounds
//! with boundary collisions, existence, residual string/`Ne` predicates),
//! the index must return **byte-identical** results to evaluating
//! `Filter::matches` / `Filter::covers` over every stored filter — including
//! after random removal churn, and for whole notification queues matched
//! through the batch kernel.  A compile-time check pins the `Send + Sync`
//! bounds shared matching relies on, and a smoke test matches against one
//! shared index from several threads at once.

use proptest::prelude::*;
use rebeca_filter::{Constraint, Filter, Notification, Value};
use rebeca_matcher::{FilterIndex, FilterSet};

/// Values over a small shared domain so filters and notifications interact
/// often; includes every `Value` kind plus int/float aliasing (`3` vs `3.0`).
fn small_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-12i64..12).prop_map(Value::Int),
        (-12i64..12).prop_map(|i| Value::Float(i as f64 / 2.0)),
        (0u32..8).prop_map(Value::Location),
        prop_oneof![
            Just("parking"),
            Just("weather"),
            Just("Rebeca Drive"),
            Just("Re"),
            Just("stock")
        ]
        .prop_map(|s| Value::Str(s.to_string())),
        prop_oneof![Just(true), Just(false)].prop_map(Value::Bool),
    ]
}

fn ordered_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-12i64..12).prop_map(Value::Int),
        (-12i64..12).prop_map(|i| Value::Float(i as f64 / 2.0)),
        prop_oneof![Just("m"), Just("Re"), Just("parking")].prop_map(|s| Value::Str(s.to_string())),
    ]
}

/// Every constraint kind, so all index partitions (equality classes,
/// ordered numeric maps, exists, residual) are exercised.
fn constraint() -> impl Strategy<Value = Constraint> {
    prop_oneof![
        small_value().prop_map(Constraint::Eq),
        small_value().prop_map(Constraint::Ne),
        ordered_value().prop_map(Constraint::Lt),
        ordered_value().prop_map(Constraint::Le),
        ordered_value().prop_map(Constraint::Gt),
        ordered_value().prop_map(Constraint::Ge),
        (-12i64..12, 0i64..10)
            .prop_map(|(lo, len)| Constraint::Between(Value::Int(lo), Value::Int(lo + len))),
        // `0..4` includes the empty set: `In(∅)` matches nothing but is
        // covered vacuously by every `In`/`Between`, which once slipped
        // past the range-partitioned covering walk.
        prop::collection::btree_set(small_value(), 0..4).prop_map(Constraint::In),
        prop_oneof![Just("Re"), Just("park"), Just("e")]
            .prop_map(|p| Constraint::Prefix(p.to_string())),
        prop_oneof![Just("Drive"), Just("ing")].prop_map(|p| Constraint::Suffix(p.to_string())),
        prop_oneof![Just("bec"), Just("a")].prop_map(|p| Constraint::Contains(p.to_string())),
        Just(Constraint::Exists),
    ]
}

/// Filters over a small attribute alphabet (including none — the universal
/// filter).
fn filter() -> impl Strategy<Value = Filter> {
    prop::collection::btree_map(
        prop_oneof![Just("a"), Just("b"), Just("c"), Just("location")],
        constraint(),
        0..4,
    )
    .prop_map(|m| {
        m.into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect::<Filter>()
    })
}

fn notification() -> impl Strategy<Value = Notification> {
    prop::collection::btree_map(
        prop_oneof![Just("a"), Just("b"), Just("c"), Just("location")],
        small_value(),
        0..5,
    )
    .prop_map(|m| {
        let mut b = Notification::builder();
        for (k, v) in m {
            b = b.attr(k, v);
        }
        b.build()
    })
}

/// A filter workload with interleaved removals: `(filters, removal mask)`.
fn workload() -> impl Strategy<Value = (Vec<Filter>, Vec<bool>)> {
    (
        prop::collection::vec(filter(), 0..24),
        prop::collection::vec(prop_oneof![Just(false), Just(true)], 24..25),
    )
}

/// Builds the index and the parallel oracle list, applying the removal mask.
fn build(filters: &[Filter], removed: &[bool]) -> (FilterIndex<usize>, Vec<(usize, Filter)>) {
    let mut index = FilterIndex::new();
    for (i, f) in filters.iter().enumerate() {
        index.insert(i, f);
    }
    let mut oracle: Vec<(usize, Filter)> = filters.iter().cloned().enumerate().collect();
    for (i, _) in filters.iter().enumerate() {
        if removed[i % removed.len()] {
            index.remove(&i);
            oracle.retain(|(j, _)| *j != i);
        }
    }
    (index, oracle)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `matching_keys` returns exactly the filters the linear scan matches,
    /// for any insertion/removal history.
    #[test]
    fn index_matches_equal_linear_scan((filters, removed) in workload(), n in notification()) {
        let (index, oracle) = build(&filters, &removed);
        let mut got: Vec<usize> = index.matching_keys(&n).into_iter().copied().collect();
        got.sort_unstable();
        let expected: Vec<usize> = oracle
            .iter()
            .filter(|(_, f)| f.matches(&n))
            .map(|(i, _)| *i)
            .collect();
        prop_assert_eq!(got, expected, "index disagrees with linear scan on {}", n);
    }

    /// `any_match` agrees with the existential linear scan.
    #[test]
    fn any_match_equals_linear_scan((filters, removed) in workload(), n in notification()) {
        let (index, oracle) = build(&filters, &removed);
        prop_assert_eq!(index.any_match(&n), oracle.iter().any(|(_, f)| f.matches(&n)));
    }

    /// `covering_keys` returns exactly the filters the linear scan proves to
    /// cover the probe, and `covers_any` agrees with their existence.
    #[test]
    fn covering_keys_equal_linear_scan((filters, removed) in workload(), probe in filter()) {
        let (index, oracle) = build(&filters, &removed);
        let got: Vec<usize> = index.covering_keys(&probe).into_iter().copied().collect();
        let expected: Vec<usize> = oracle
            .iter()
            .filter(|(_, f)| f.covers(&probe))
            .map(|(i, _)| *i)
            .collect();
        prop_assert_eq!(&got, &expected, "covering keys disagree for {}", probe);
        prop_assert_eq!(index.covers_any(&probe), !expected.is_empty());
    }

    /// `covered_keys` returns exactly the stored filters the probe covers.
    #[test]
    fn covered_keys_equal_linear_scan((filters, removed) in workload(), probe in filter()) {
        let (index, oracle) = build(&filters, &removed);
        let got: Vec<usize> = index.covered_keys(&probe).into_iter().copied().collect();
        let expected: Vec<usize> = oracle
            .iter()
            .filter(|(_, f)| probe.covers(f))
            .map(|(i, _)| *i)
            .collect();
        prop_assert_eq!(got, expected, "covered keys disagree for {}", probe);
    }

    /// `match_batch` over queues spanning several 64-lane chunks returns,
    /// per notification, exactly the filters the linear scan matches, in
    /// insertion order.
    #[test]
    fn match_batch_equals_linear_scan(
        (filters, removed) in workload(),
        ns in prop::collection::vec(notification(), 0..200),
    ) {
        let (index, oracle) = build(&filters, &removed);
        let got: Vec<Vec<usize>> = index
            .match_batch(&ns)
            .into_iter()
            .map(|ks| ks.into_iter().copied().collect())
            .collect();
        let expected: Vec<Vec<usize>> = ns
            .iter()
            .map(|n| oracle.iter().filter(|(_, f)| f.matches(n)).map(|(i, _)| *i).collect())
            .collect();
        prop_assert_eq!(got, expected);
    }

    /// `same_attr_keys` returns exactly the stored filters constraining the
    /// probe's attribute set.
    #[test]
    fn same_attr_keys_equal_linear_scan((filters, removed) in workload(), probe in filter()) {
        let (index, oracle) = build(&filters, &removed);
        let got: Vec<usize> = index.same_attr_keys(&probe).into_iter().copied().collect();
        let probe_attrs: Vec<&str> = probe.iter().map(|(a, _)| a).collect();
        let expected: Vec<usize> = oracle
            .iter()
            .filter(|(_, f)| f.iter().map(|(a, _)| a).collect::<Vec<_>>() == probe_attrs)
            .map(|(i, _)| *i)
            .collect();
        prop_assert_eq!(got, expected, "same-attr keys disagree for {}", probe);
    }

    /// The index-backed `FilterSet` preserves the matched-notification set of
    /// plain insertion under covering insertion, and never loses matches
    /// under merging insertion (the property formerly tested in
    /// `rebeca-filter`, now running against the indexed implementation).
    #[test]
    fn covering_filterset_preserves_matching(fs in prop::collection::vec(filter(), 0..6), n in notification()) {
        let mut simple = FilterSet::new();
        let mut covering = FilterSet::new();
        let mut merging = FilterSet::new();
        for f in &fs {
            simple.insert_simple(f.clone());
            covering.insert_covering(f.clone());
            merging.insert_merging(f.clone());
        }
        prop_assert_eq!(simple.matches(&n), covering.matches(&n),
            "covering set differs from simple set on {}", n);
        if simple.matches(&n) {
            prop_assert!(merging.matches(&n), "merging set lost a match on {}", n);
        }
        prop_assert!(covering.len() <= simple.len());
        prop_assert!(merging.len() <= simple.len());
    }

    /// `FilterSet::matches`, `covers` and `contains` agree with a linear
    /// oracle over the stored filters after mixed insertions.
    #[test]
    fn filterset_queries_equal_linear_oracle(
        fs in prop::collection::vec(filter(), 0..10),
        n in notification(),
        probe in filter(),
    ) {
        let mut set = FilterSet::new();
        for f in &fs {
            set.insert_simple(f.clone());
        }
        let stored: Vec<&Filter> = set.iter().collect();
        prop_assert_eq!(set.matches(&n), stored.iter().any(|f| f.matches(&n)));
        prop_assert_eq!(set.covers(&probe), stored.iter().any(|f| f.covers(&probe)));
        prop_assert_eq!(set.contains(&probe), stored.contains(&&probe));
    }
}

/// Large seeded soak: 2000 mixed filters with churn, 500 notifications —
/// beyond what the per-case property tests reach, still deterministic.
#[test]
fn large_seeded_soak_matches_oracle() {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xEBECA);
    let services = ["parking", "weather", "traffic", "stock"];

    let mut index: FilterIndex<u32> = FilterIndex::new();
    let mut oracle: Vec<(u32, Filter)> = Vec::new();
    for i in 0..2000u32 {
        let mut f = Filter::new().with(
            "service",
            Constraint::Eq(services[rng.gen_range(0..services.len())].into()),
        );
        match rng.gen_range(0..4) {
            0 => f = f.with("cost", Constraint::Lt(Value::Int(rng.gen_range(-5i64..40)))),
            1 => {
                let lo = rng.gen_range(-5i64..30);
                f = f.with(
                    "cost",
                    Constraint::Between(Value::Int(lo), Value::Int(lo + rng.gen_range(0i64..15))),
                );
            }
            2 => {
                f = f.with(
                    "location",
                    Constraint::any_location_of([rng.gen_range(0u32..50), rng.gen_range(0u32..50)]),
                )
            }
            _ => {}
        }
        index.insert(i, &f);
        oracle.push((i, f));
        // Churn: occasionally remove a random earlier filter.
        if rng.gen_bool(0.2) && !oracle.is_empty() {
            let victim = oracle[rng.gen_range(0..oracle.len())].0;
            index.remove(&victim);
            oracle.retain(|(id, _)| *id != victim);
        }
    }

    for _ in 0..500 {
        let n = Notification::builder()
            .attr("service", services[rng.gen_range(0..services.len())])
            .attr("cost", rng.gen_range(-5i64..45))
            .attr("location", Value::Location(rng.gen_range(0u32..50)))
            .build();
        let mut got: Vec<u32> = index.matching_keys(&n).into_iter().copied().collect();
        got.sort_unstable();
        let mut expected: Vec<u32> = oracle
            .iter()
            .filter(|(_, f)| f.matches(&n))
            .map(|(id, _)| *id)
            .collect();
        expected.sort_unstable();
        assert_eq!(got, expected, "soak mismatch on {n}");
    }
}

/// Shared matching requires the index and the filter set to be shareable
/// across threads; pin that at compile time so a reintroduced `RefCell` (or
/// any other interior mutability) fails the build, not a race.
#[test]
fn indexes_are_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<FilterIndex<u64>>();
    assert_send_sync::<FilterSet>();
}

/// Four threads match concurrently against one shared `&index` while the
/// main thread runs batch matching — every result must equal the linear
/// scan.
#[test]
fn concurrent_matching_smoke() {
    let services = ["parking", "weather", "traffic", "stock"];
    let mut index: FilterIndex<u32> = FilterIndex::new();
    let mut filters = Vec::new();
    for i in 0..2000u32 {
        let mut f =
            Filter::new().with("service", Constraint::Eq(services[(i % 4) as usize].into()));
        if i % 3 == 0 {
            f = f.with("cost", Constraint::Lt(Value::Int((i % 40) as i64)));
        }
        if i % 2 == 0 {
            f = f.with(
                "location",
                Constraint::any_location_of([i % 50, (i + 7) % 50]),
            );
        }
        index.insert(i, &f);
        filters.push(f);
    }
    let notifications: Vec<Notification> = (0..256)
        .map(|i| {
            Notification::builder()
                .attr("service", services[(i % 4) as usize])
                .attr("cost", (i % 45) as i64)
                .attr("location", Value::Location(i % 50))
                .build()
        })
        .collect();
    let expected: Vec<Vec<u32>> = notifications
        .iter()
        .map(|n| {
            (0..2000u32)
                .filter(|&i| filters[i as usize].matches(n))
                .collect()
        })
        .collect();

    std::thread::scope(|scope| {
        for t in 0..4 {
            let index = &index;
            let notifications = &notifications;
            let expected = &expected;
            scope.spawn(move || {
                for (i, n) in notifications.iter().enumerate().skip(t).step_by(4) {
                    let mut got: Vec<u32> = index.matching_keys(n).into_iter().copied().collect();
                    got.sort_unstable();
                    assert_eq!(got, expected[i], "thread {t} disagrees on {n}");
                }
            });
        }
        let batched = index.match_batch(&notifications);
        for (i, keys) in batched.into_iter().enumerate() {
            let got: Vec<u32> = keys.into_iter().copied().collect();
            assert_eq!(got, expected[i], "batch lane {i} disagrees");
        }
    });
}
