//! From a run's raw measurements to the end-to-end metrics of
//! `BENCHMARK.json`.
//!
//! Every workload reports every metric.  On the TCP workloads a latency
//! sample is one publication, timed from its intended send time until the
//! last consumer it is owed to has received it (driver clock); on the
//! simulator workloads it is the wall-clock time of one publication step.
//!
//! Every number is a median of per-stretch values.  A TCP run is several
//! rounds, each on a cluster of its own; a metric is computed per round and
//! the run reports the median over the rounds.  A simulator run is one
//! timed section cut into windows: `deliver_p10_us` is the median over
//! one-second windows of each window's 10th percentile step, `pubs_per_s`
//! and `cpu_us_per_pub` the median over two-second windows of each window's
//! rate and cost.  Either way a stall of the host that spoils one round or
//! a few windows does not decide the run.
//!
//! The gated latency is the **10th percentile**, not the median.  On a
//! shared host the hypervisor takes a core away for a fraction of a
//! millisecond every few milliseconds; a publication crosses some thirteen
//! thread hand-offs, each of which such a pause can hit, so the upper part
//! of the latency distribution is the host's and only the lower part is the
//! program's.  With a tenth of each core taken that way (emulated with a
//! real-time-priority spinner) the 10th percentile on `tcp_rest` moved by a
//! tenth, the median by a third and the 90th percentile doubled; between
//! two sets of ten runs of the same code the median moved by 0.27 when the
//! host's mood changed, more than the largest bound the contract allows.
//!
//! The median, the tail ([`Summary::deliver_p50_us`],
//! [`Summary::deliver_p90_us`], [`Summary::deliver_p99_us`]) and the
//! blackout ([`Summary::blackout_p50_ms`]) are computed the same way but
//! are not end-to-end metrics of `BENCHMARK.json`: between sets of ten runs
//! of the same code their spread reached 0.26 (90th percentile, `tcp_rest`)
//! and 0.70 (hand-off blackout), so they cannot gate anything.  The traced
//! run prints them as `e2e.*`.
//!
//! The blackout is the longest silence a consumer sees from a scheduled
//! instant until 400 ms later, median over all instants.  On `tcp_handoff`
//! every instant is a `move_to`, so it is the hand-off blackout; on the
//! other TCP workloads the same instants pass without a move and it is the
//! stream's resting worst gap; on the simulator it is the slowest step of
//! every 500-step window (the virtual-time blackout is a hop count, not a
//! time).

use crate::report::{Metrics, RunResult};
use crate::sim::{SimOutcome, Window};
use crate::stats::{median, quantile, windowed_quantile};
use crate::tcp::{TcpOutcome, TcpShape};

const WINDOW_US: u64 = 1_000_000;

/// A run's end-to-end result plus what only the traced run reports.
#[derive(Debug)]
pub struct Summary {
    /// The end-to-end metrics of `BENCHMARK.json`.
    pub result: RunResult,
    /// Median of publish→deliver (median over rounds / windows).
    pub deliver_p50_us: f64,
    /// 90th percentile of publish→deliver (median over rounds / windows).
    pub deliver_p90_us: f64,
    /// 99th percentile of publish→deliver (median over rounds / windows).
    pub deliver_p99_us: f64,
    /// Median blackout over all scheduled instants of the run.
    pub blackout_p50_ms: f64,
}

/// The median of one value per round.
fn over_rounds(rounds: &[TcpOutcome], value: impl Fn(&TcpOutcome) -> Option<f64>) -> Option<f64> {
    let mut values = rounds.iter().map(value).collect::<Option<Vec<f64>>>()?;
    median(&mut values)
}

/// The end-to-end result of a TCP run: one [`TcpOutcome`] per round.
pub fn tcp_result(rounds: &[TcpOutcome], shape: &TcpShape) -> Result<Summary, String> {
    let missing = |what: &'static str| move || format!("no {what} was measured");
    let latency = |q: f64| {
        over_rounds(rounds, |r| {
            quantile(
                &mut r.latencies.iter().map(|s| s.1).collect::<Vec<f64>>(),
                q,
            )
        })
        .ok_or_else(missing("latency sample"))
    };
    let mut metrics = Metrics::new();
    metrics.set(
        "setup_s",
        over_rounds(rounds, |r| Some(r.setup_s)).ok_or_else(missing("set-up"))?,
        "s",
    );
    metrics.set("deliver_p10_us", latency(0.1)?, "us");
    metrics.set(
        "pubs_per_s",
        over_rounds(rounds, |r| {
            Some(r.closed_completed as f64 / r.closed_elapsed_s)
        })
        .ok_or_else(missing("closed loop"))?,
        "1/s",
    );
    metrics.set(
        "cpu_us_per_pub",
        over_rounds(rounds, |r| Some(r.open_cpu_s * 1e6 / r.open_pubs as f64))
            .ok_or_else(missing("open loop"))?,
        "us",
    );
    // The first round's: the client process lives through every round and
    // `VmHWM` never falls, so only then is it memory after a fixed amount
    // of work in fresh processes.
    metrics.set(
        "peak_rss_mb",
        rounds.first().ok_or_else(missing("round"))?.peak_rss_mb,
        "MB",
    );
    let mut blackouts: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.blackouts_ms.iter().copied())
        .collect();
    let mut verdict = crate::oracle::Verdict::default();
    for round in rounds {
        verdict.add(&round.verdict);
    }
    // A roaming consumer can see a delivery twice: one in flight on the old
    // client link at the instant of the move is also replayed by the new
    // broker (the hand-over race under ROADMAP "per-publisher watermarks in
    // `ReSubscribe`").  It counts as failed; every other class, and any
    // failure at all without moves, is unexpected.
    let unexpected = verdict.lost
        + verdict.out_of_order
        + verdict.outside_filter
        + if shape.roaming { 0 } else { verdict.duplicated };
    Ok(Summary {
        result: RunResult {
            correct: unexpected == 0,
            attempted: verdict.owed,
            failed: verdict.failed(),
            metrics,
        },
        deliver_p50_us: latency(0.5)?,
        deliver_p90_us: latency(0.9)?,
        deliver_p99_us: latency(0.99)?,
        blackout_p50_ms: median(&mut blackouts).ok_or_else(missing("blackout window"))?,
    })
}

/// The end-to-end result of a simulator run.
pub fn sim_result(out: &SimOutcome) -> Result<Summary, String> {
    let missing = |what: &'static str| move || format!("no {what} was measured");
    let per_window = (out.pubs as f64 / out.elapsed_s / 2.0) as usize;
    let step = |q: f64| {
        windowed_quantile(&out.step_us, WINDOW_US, q, per_window)
            .or_else(|| {
                quantile(
                    &mut out.step_us.iter().map(|s| s.1).collect::<Vec<f64>>(),
                    q,
                )
            })
            .ok_or_else(missing("step"))
    };
    let mut metrics = Metrics::new();
    metrics.set(
        "setup_s",
        median(&mut out.setup_s.clone()).ok_or_else(missing("set-up"))?,
        "s",
    );
    metrics.set("deliver_p10_us", step(0.1)?, "us");
    // Median over the windows; over the whole section when it was too short
    // to have three (`--quick`).
    let over_windows = |value: fn(&Window) -> f64, whole: f64| {
        let mut values: Vec<f64> = out.windows.iter().map(value).collect();
        match values.len() {
            0..=2 => whole,
            _ => median(&mut values).unwrap_or(whole),
        }
    };
    metrics.set(
        "pubs_per_s",
        over_windows(
            |w| w.pubs as f64 / w.elapsed_s,
            out.pubs as f64 / out.elapsed_s,
        ),
        "1/s",
    );
    metrics.set(
        "cpu_us_per_pub",
        over_windows(
            |w| w.cpu_s * 1e6 / w.pubs as f64,
            out.cpu_s * 1e6 / out.pubs as f64,
        ),
        "us",
    );
    metrics.set("peak_rss_mb", out.peak_rss_mb, "MB");
    // The simulator's stall: the slowest step of every 500-step window.
    let mut stalls: Vec<f64> = out
        .step_us
        .chunks(500)
        .filter(|w| w.len() == 500)
        .map(|w| w.iter().map(|s| s.1).fold(0.0, f64::max) / 1e3)
        .collect();
    Ok(Summary {
        result: RunResult {
            correct: out.verdict.failed() == 0 && out.deterministic,
            attempted: out.verdict.owed,
            failed: out.verdict.failed(),
            metrics,
        },
        deliver_p50_us: step(0.5)?,
        deliver_p90_us: step(0.9)?,
        deliver_p99_us: step(0.99)?,
        blackout_p50_ms: median(&mut stalls).ok_or_else(missing("stall window"))?,
    })
}
