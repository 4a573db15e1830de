//! End-to-end benchmark of the mobility engine under relocation churn:
//! thousands of mobile consumers relocating once mid-stream while a
//! producer keeps publishing, exercising durable counterpart appends
//! (write-ahead log), relocation floods and batched replays.
//!
//! Two questions are measured:
//!
//! 1. **Churn throughput** — wall-clock per full scenario run at 2k and 10k
//!    mobile clients (`churn/relocation/*`), the headline scale numbers.
//! 2. **Durability overhead stays bounded** — the 2k churn run with the
//!    WAL checkpointing left at its default vs a run without relocations
//!    (`churn/static/2000`) as the floor.
//!
//! `BENCH_mobility.json` at the repository root is generated from this
//! bench (see the file header there for the command);
//! `scripts/bench_gate.py` regression-gates it in CI.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rebeca_bench::scenarios::{run_churn, run_storm, ChurnScenario, StormScenario};

/// The relocation-churn load at a given client count.
fn churn(clients: usize) -> ChurnScenario {
    ChurnScenario {
        clients,
        groups: (clients / 20).max(1),
        publications: 200,
        relocate: true,
        ..ChurnScenario::default()
    }
}

fn bench_relocation_churn(c: &mut Criterion) {
    let mut group = c.benchmark_group("churn/relocation");
    group.sample_size(10);
    for &clients in &[2_000usize, 10_000] {
        let params = churn(clients);
        // Sanity outside the timed loop: the scenario must be complete and
        // leak-free, otherwise the timing measures a broken run (hand-over
        // duplicates are bounded by the simulator's in-flight model, see
        // `ChurnOutcome::duplicated`).
        let outcome = run_churn(&ChurnScenario {
            verify: true,
            ..params.clone()
        });
        assert_eq!(outcome.lost, 0, "churn run lost notifications");
        assert!(
            outcome.duplicated * 50 <= outcome.expected,
            "hand-over duplicates out of bounds: {} of {}",
            outcome.duplicated,
            outcome.expected
        );
        assert_eq!(outcome.leaked_timeout_guards, 0, "timeout guards leaked");
        assert!(outcome.replayed > 0, "churn run exercised no replays");
        group.bench_with_input(BenchmarkId::from_parameter(clients), &clients, |b, _| {
            b.iter(|| black_box(run_churn(black_box(&params))))
        });
    }
    group.finish();
}

fn bench_static_floor(c: &mut Criterion) {
    let mut group = c.benchmark_group("churn");
    group.sample_size(10);
    let params = ChurnScenario {
        relocate: false,
        ..churn(2_000)
    };
    group.bench_with_input(BenchmarkId::new("static", 2_000), &(), |b, _| {
        b.iter(|| black_box(run_churn(black_box(&params))))
    });
    group.finish();
}

/// Appends a synthetic count sample to `CRITERION_JSON` in the same
/// concatenated-array format the criterion shim emits (the count rides the
/// `ns_per_iter` field), so `scripts/bench_gate.py` picks it up alongside
/// the timing samples.
fn report_count(name: &str, count: u64) {
    println!("{name:<60} count: {count:>10}");
    let Ok(path) = std::env::var("CRITERION_JSON") else {
        return;
    };
    let record =
        format!("[\n  {{\"name\": \"{name}\", \"ns_per_iter\": {count}.0, \"iters\": 1}}\n]\n");
    let result = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| std::io::Write::write_all(&mut f, record.as_bytes()));
    if let Err(e) = result {
        eprintln!("churn_bench: cannot write {path}: {e}");
    }
}

/// Subscription-control link messages in the relocation storm, scoped vs
/// unscoped (`churn/link_messages/{scoped,unscoped}/400`).  The simulation
/// is deterministic, so the counts are exact and machine-independent;
/// `scripts/bench_gate.py` holds the unscoped/scoped ratio to a hard
/// `>= 1.3x` floor (the tentpole's "≥ 30 % fewer subscription-control
/// messages" claim) on every run.
fn bench_link_messages(_c: &mut Criterion) {
    let base = StormScenario {
        verify: true,
        ..StormScenario::default()
    };
    let scoped = run_storm(&base);
    let unscoped = run_storm(&StormScenario {
        scoped_relocation: false,
        ..base
    });
    assert_eq!(
        scoped.lost + unscoped.lost,
        0,
        "storm run lost notifications"
    );
    assert_eq!(scoped.expected, unscoped.expected, "storm runs diverged");
    assert!(scoped.replayed > 0, "storm run exercised no replays");
    report_count(
        &format!("churn/link_messages/scoped/{}", base.clients),
        scoped.control_messages,
    );
    report_count(
        &format!("churn/link_messages/unscoped/{}", base.clients),
        unscoped.control_messages,
    );
}

criterion_group!(
    benches,
    bench_relocation_churn,
    bench_static_floor,
    bench_link_messages
);
criterion_main!(benches);
