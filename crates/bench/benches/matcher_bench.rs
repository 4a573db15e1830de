//! Benchmarks for the attribute-partitioned predicate index
//! (`rebeca-matcher`) against the linear scan it replaced.
//!
//! The workload models the paper's parking-guidance scenario at city scale:
//! `n` stored subscriptions over a handful of services, price bounds and
//! location sets, matched against a stream of notifications.  The linear
//! baseline evaluates `Filter::matches` over every stored filter — exactly
//! what `RoutingTable::matching_destinations` did before the index.
//!
//! `BENCH_matcher.json` at the repository root is generated from this bench
//! (see the file header there for the command).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rebeca_bench::workload::{
    group_filter, group_notification, zipf_group_filters, zipf_group_notifications,
};
use rebeca_filter::{Constraint, Filter, Notification, Value};
use rebeca_matcher::FilterIndex;

/// Deterministic subscription mix: equality on service, numeric price
/// bounds, location sets — the constraint kinds brokers actually store.
fn subscription(i: u32) -> Filter {
    let service = ["parking", "weather", "traffic", "stock"][(i % 4) as usize];
    let mut f = Filter::new().with("service", Constraint::Eq(service.into()));
    match i % 3 {
        0 => {
            f = f.with("cost", Constraint::Lt(Value::Int((i % 40) as i64)));
        }
        1 => {
            f = f.with(
                "cost",
                Constraint::Between(
                    Value::Int((i % 20) as i64),
                    Value::Int((i % 20 + 10) as i64),
                ),
            );
        }
        _ => {}
    }
    if i.is_multiple_of(2) {
        f = f.with(
            "location",
            Constraint::any_location_of([i % 100, (i + 7) % 100]),
        );
    }
    f
}

fn notification(i: u32) -> Notification {
    let service = ["parking", "weather", "traffic", "stock"][(i % 4) as usize];
    Notification::builder()
        .attr("service", service)
        .attr("cost", (i % 45) as i64)
        .attr("location", Value::Location(i % 100))
        .attr("spot", i as i64)
        .build()
}

fn build_filters(n: u32) -> Vec<Filter> {
    (0..n).map(subscription).collect()
}

fn build_index(filters: &[Filter]) -> FilterIndex<u32> {
    let mut index = FilterIndex::new();
    for (i, f) in filters.iter().enumerate() {
        index.insert(i as u32, f);
    }
    index
}

/// Matching throughput: indexed counting algorithm vs. linear scan, at
/// routing-table sizes from 1k to 100k subscriptions.
fn bench_matching(c: &mut Criterion) {
    let mut group = c.benchmark_group("matcher/match");
    for &n in &[1_000u32, 10_000, 100_000] {
        let filters = build_filters(n);
        let index = build_index(&filters);
        let notifications: Vec<Notification> = (0..64).map(notification).collect();

        group.bench_with_input(BenchmarkId::new("linear", n), &n, |b, _| {
            let mut i = 0usize;
            b.iter(|| {
                let n = &notifications[i % notifications.len()];
                i += 1;
                black_box(
                    filters
                        .iter()
                        .enumerate()
                        .filter(|(_, f)| f.matches(n))
                        .count(),
                )
            })
        });
        group.bench_with_input(BenchmarkId::new("indexed", n), &n, |b, _| {
            let mut i = 0usize;
            b.iter(|| {
                let n = &notifications[i % notifications.len()];
                i += 1;
                black_box(index.matching_keys(n).len())
            })
        });
    }
    group.finish();
}

/// Matching under realistic popularity skew: a zipf-skewed subscription
/// population (hot telemetry groups hold most subscribers) probed with a
/// zipf-skewed notification stream whose publication popularity follows
/// subscription popularity (`hit` — hot notifications match large posting
/// lists), and with notifications from groups nobody subscribes to
/// (`miss` — the matcher must prove the absence).  The linear scan pays
/// the full population either way; the index pays one posting-list union
/// on hits and an early empty intersection on misses.
fn bench_matching_zipf(c: &mut Criterion) {
    let mut group = c.benchmark_group("matcher/match_zipf");
    for &n in &[1_000u32, 10_000, 100_000] {
        let filters = zipf_group_filters(200, n as usize, 1.0, 97);
        let index = build_index(&filters);
        let hits = zipf_group_notifications(200, 64, 1.0, 131);
        // Groups 200.. are outside the subscribed domain: zero matches.
        let misses: Vec<Notification> = (0..64)
            .map(|i| group_notification(200 + i, i as i64))
            .collect();

        for (kind, stream) in [("hit", &hits), ("miss", &misses)] {
            group.bench_with_input(BenchmarkId::new(format!("linear_{kind}"), n), &n, |b, _| {
                let mut i = 0usize;
                b.iter(|| {
                    let n = &stream[i % stream.len()];
                    i += 1;
                    black_box(filters.iter().filter(|f| f.matches(n)).count())
                })
            });
            group.bench_with_input(
                BenchmarkId::new(format!("indexed_{kind}"), n),
                &n,
                |b, _| {
                    let mut i = 0usize;
                    b.iter(|| {
                        let n = &stream[i % stream.len()];
                        i += 1;
                        black_box(index.matching_keys(n).len())
                    })
                },
            );
        }
    }
    group.finish();
}

/// Covering queries: "is this new subscription already covered?" — the
/// decision covering routing makes on every subscription.  Measured for
/// probes that are covered (the
/// linear scan usually early-exits) and for probes that are not (the linear
/// scan must visit every filter; the index walk visits one constraint-level
/// test per *distinct* predicate).
fn bench_covering(c: &mut Criterion) {
    let mut group = c.benchmark_group("matcher/covering");
    for &n in &[1_000u32, 10_000] {
        let filters = build_filters(n);
        let index = build_index(&filters);
        let covered: Vec<Filter> = (0..64).map(|i| subscription(i * 31 + 5)).collect();
        // Not covered: a service value no stored filter accepts, so the
        // linear scan cannot early-exit.
        let uncovered: Vec<Filter> = (0..64)
            .map(|i| {
                subscription(i * 31 + 5).with("service", Constraint::Eq(format!("tele-{i}").into()))
            })
            .collect();

        for (kind, probes) in [("hit", &covered), ("miss", &uncovered)] {
            group.bench_with_input(BenchmarkId::new(format!("linear_{kind}"), n), &n, |b, _| {
                let mut i = 0usize;
                b.iter(|| {
                    let probe = &probes[i % probes.len()];
                    i += 1;
                    black_box(filters.iter().any(|f| f.covers(probe)))
                })
            });
            group.bench_with_input(
                BenchmarkId::new(format!("indexed_{kind}"), n),
                &n,
                |b, _| {
                    let mut i = 0usize;
                    b.iter(|| {
                        let probe = &probes[i % probes.len()];
                        i += 1;
                        black_box(index.covers_any(probe))
                    })
                },
            );
        }
    }
    group.finish();
}

/// Covering hits under realistic popularity skew: a zipf-distributed
/// telemetry-group population (hot groups repeat heavily) probed with
/// strictly-narrower variants of stored filters, so every probe is covered
/// by a non-identical stored filter and the index must walk its covering
/// path, not the identity fast path.  The linear side scans the full
/// per-subscription population (what a routing-table covering query cost
/// before subgrouping); the indexed side holds one key per *distinct*
/// filter, exactly the compaction `RoutingTable` subgrouping gives the
/// predicate index.  This is the group `scripts/bench_gate.py` holds to a
/// hard `>= 1.0x` floor: the subgrouped covering-hit walk may never again
/// lose to the linear scan (the pre-summary index did at 10k).
fn bench_covering_hit_zipf(c: &mut Criterion) {
    let mut group = c.benchmark_group("matcher/covering_hit");
    for &n in &[1_000u32, 10_000] {
        let filters = zipf_group_filters(200, n as usize, 1.0, 97);
        // One index key per distinct filter — the subgrouped table.
        let mut index = FilterIndex::new();
        let mut seen = std::collections::BTreeSet::new();
        for (i, f) in filters.iter().enumerate() {
            if seen.insert(f.clone()) {
                index.insert(i as u32, f);
            }
        }
        // Narrower than the stored group filter by one extra constraint:
        // covered, but never byte-identical to a stored filter.
        let probes: Vec<Filter> = (0..64)
            .map(|i| {
                group_filter(i % 25).with("reading", Constraint::Lt(Value::Int(i as i64 % 50)))
            })
            .collect();
        for probe in &probes {
            assert!(
                filters.iter().any(|f| f.covers(probe)),
                "probe must be a covering hit"
            );
        }

        group.bench_with_input(BenchmarkId::new("linear", n), &n, |b, _| {
            let mut i = 0usize;
            b.iter(|| {
                let probe = &probes[i % probes.len()];
                i += 1;
                black_box(filters.iter().any(|f| f.covers(probe)))
            })
        });
        group.bench_with_input(BenchmarkId::new("indexed", n), &n, |b, _| {
            let mut i = 0usize;
            b.iter(|| {
                let probe = &probes[i % probes.len()];
                i += 1;
                black_box(index.covers_any(probe))
            })
        });
    }
    group.finish();
}

/// Index maintenance: build cost and single insert/remove churn at 10k.
fn bench_maintenance(c: &mut Criterion) {
    let mut group = c.benchmark_group("matcher/maintenance");
    let filters = build_filters(10_000);
    group.sample_size(10);
    group.bench_function("build/10000", |b| {
        b.iter(|| black_box(build_index(&filters)).len())
    });
    let mut index = build_index(&filters);
    let churn = subscription(123_457);
    group.bench_function("churn/10000", |b| {
        b.iter(|| {
            index.insert(u32::MAX, &churn);
            index.remove(&u32::MAX)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_matching,
    bench_matching_zipf,
    bench_covering,
    bench_covering_hit_zipf,
    bench_maintenance
);
criterion_main!(benches);
