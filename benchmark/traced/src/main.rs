//! `traced`: the traced run of one workload — the per-layer metrics of
//! `BENCHMARK.json`.
//!
//! ```text
//! traced --workload tcp_rest --seed 7 --seconds 20 --trace 1
//! ```
//!
//! Three parts share the run's seconds: the per-layer loops (each crate's
//! public functions on the workload's own inputs), then the workload itself
//! twice — harness spans off, then on; the ratio of the two CPU costs per
//! publication is the tracing overhead.  Spans stay in memory and are
//! written to `<out-dir>/trace-<workload>.json` at exit; the result line
//! (one JSON object) is the last line of stdout.

mod alloc;
mod layers;

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rebeca::net::{Endpoint, NetConfig, SystemBuilderTcp, TcpDriver};
use rebeca::sim::{DelayModel, SimDuration, Topology};
use rebeca::SystemBuilder;
use rebeca_benchmark::cli::{Args, USAGE};
use rebeca_benchmark::inputs::Workload;
use rebeca_benchmark::population::Population;
use rebeca_benchmark::report::{Metrics, RunResult, PER_LAYER};
use rebeca_benchmark::spans::Spans;
use rebeca_benchmark::stats::quantile;
use rebeca_benchmark::{e2e, sim, tcp};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Loops in `layers::Layers::run`, for dividing the loop budget.
const LOOPS: f64 = 45.0;

/// `deliver_p99_us` must stay at or under this on `tcp_rest` at its
/// nominal rate with no backlog at the end.
const LATENCY_LIMIT_US: f64 = 5_000.0;

/// What the two replays of the workload contribute.
#[derive(Default)]
struct Replay {
    /// End-to-end summary of the span-on replay.
    e2e: Option<e2e::Summary>,
    cpu_untraced: f64,
    lateness_p99_us: f64,
    backlog_at_end: f64,
    handoffs: f64,
    blackout_p90_ms: f64,
    mobility_ops_per_s: f64,
    deliveries_per_pub: f64,
    sim_events_per_s: f64,
    replayed_per_move: f64,
    wal_depth_max: f64,
    handoff_hist: (f64, f64),
    retained: f64,
    frames: (f64, f64, f64),
    status_fetch_us: f64,
    status_json_bytes: f64,
}

fn cpu(result: &RunResult) -> f64 {
    result.metrics.get("cpu_us_per_pub").unwrap_or(0.0)
}

fn replay_tcp(args: &Args, seconds: f64, spans: &mut Spans) -> Result<Replay, String> {
    let run = |traced: bool, spans: &mut Spans| {
        tcp::run(
            &tcp::TcpRun {
                workload: args.workload,
                seed: args.seed,
                seconds,
                node_bin: &args.node_bin,
                out_dir: &args.out_dir,
                traced,
            },
            spans,
        )
    };
    let shape = tcp::TcpShape::of(args.workload);
    let untraced = e2e::tcp_result(&[run(false, &mut Spans::disabled())?], &shape)?.result;
    let out = run(true, spans)?;
    let mut lateness = out.lateness_us.clone();
    let mut blackouts = out.blackouts_ms.clone();
    let mut fetches = out.status_fetch_us.clone();
    let hist = out
        .statuses
        .iter()
        .fold(rebeca::obs::Histogram::new(), |mut all, b| {
            all.merge(&b.handoff_latency_micros);
            all
        });
    let replayed: u64 = out
        .statuses
        .iter()
        .flat_map(|b| &b.relocations)
        .filter(|(name, _)| name == "mobility.replayed")
        .map(|(_, n)| n)
        .sum();
    let pubs = out.total_pubs.max(1) as f64;
    let sum = |f: fn(&rebeca_benchmark::cluster::NodeSummary) -> u64| {
        out.node_summaries.iter().flatten().map(f).sum::<u64>() as f64 / pubs
    };
    Ok(Replay {
        cpu_untraced: cpu(&untraced),
        lateness_p99_us: quantile(&mut lateness, 0.99).unwrap_or(0.0),
        backlog_at_end: out.backlog_at_end as f64,
        handoffs: out.moves as f64,
        blackout_p90_ms: quantile(&mut blackouts, 0.9).unwrap_or(0.0),
        deliveries_per_pub: shape.consumers.len() as f64,
        replayed_per_move: replayed as f64 / out.moves.max(1) as f64,
        wal_depth_max: out.wal_depth_max as f64,
        handoff_hist: (hist.p50() as f64, hist.p99() as f64),
        retained: out
            .statuses
            .iter()
            .map(|b| b.retained_publications)
            .sum::<u64>() as f64,
        frames: (
            sum(|s| s.frames_out),
            sum(|s| s.frames_in),
            sum(|s| s.link_messages),
        ),
        status_fetch_us: quantile(&mut fetches, 0.5).unwrap_or(0.0),
        status_json_bytes: out.status_json_bytes as f64,
        e2e: Some(e2e::tcp_result(&[out], &shape)?),
        ..Replay::default()
    })
}

fn replay_sim(args: &Args, seconds: f64, spans: &mut Spans) -> Result<Replay, String> {
    let run = |spans: &mut Spans| {
        sim::run(
            &sim::SimRun {
                workload: args.workload,
                seed: args.seed,
                seconds,
                setups: 1,
                sizes: args.sizes(),
            },
            spans,
        )
    };
    let untraced = e2e::sim_result(&run(&mut Spans::disabled())?)?.result;
    let out = run(spans)?;
    Ok(Replay {
        cpu_untraced: cpu(&untraced),
        handoffs: out.moves as f64,
        mobility_ops_per_s: out.mobility_ops as f64 / out.elapsed_s,
        deliveries_per_pub: out.deliveries_per_pub,
        sim_events_per_s: out.events as f64 / out.elapsed_s,
        replayed_per_move: out.replayed as f64 / out.moves.max(1) as f64,
        wal_depth_max: out.statuses.iter().map(|b| b.wal_depth).max().unwrap_or(0) as f64,
        retained: out
            .statuses
            .iter()
            .map(|b| b.retained_publications)
            .sum::<u64>() as f64,
        e2e: Some(e2e::sim_result(&out)?),
        ..Replay::default()
    })
}

/// One hop through a single broker on the `ThreadedDriver`.
fn threaded_hop_us(pop: &Population) -> Result<f64, String> {
    let system = SystemBuilder::new(&Topology::line(1))
        .link_delay(DelayModel::Constant(0))
        .build_threaded()
        .map_err(|e| e.to_string())?;
    let (notification, filter) = matching_pair(pop);
    layers::one_hop_us(system, notification, &filter, 200)
}

/// One hop through a single broker on the `TcpDriver`: the broker side in
/// its own driver on a loopback listener, pumped between client slices.
fn tcp_hop_us(pop: &Population) -> Result<f64, String> {
    let builder = || SystemBuilder::new(&Topology::line(1)).link_delay(DelayModel::Constant(0));
    let driver = TcpDriver::new(NetConfig::new(vec![Endpoint::new("127.0.0.1", 0)]).host_all())
        .map_err(|e| e.to_string())?;
    let endpoint = driver.listen_endpoint().clone();
    let mut brokers = builder()
        .build_with(Box::new(driver))
        .map_err(|e| e.to_string())?;
    let stop = Arc::new(AtomicBool::new(false));
    let pump = {
        let stop = stop.clone();
        std::thread::spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                let until = brokers.now() + SimDuration::from_millis(10);
                brokers.run_until(until);
            }
        })
    };
    let result = builder()
        .build_tcp(NetConfig::new(vec![endpoint]))
        .map_err(|e| e.to_string())
        .and_then(|client| {
            let (notification, filter) = matching_pair(pop);
            layers::one_hop_us(client, notification, &filter, 300)
        });
    stop.store(true, Ordering::SeqCst);
    pump.join()
        .map_err(|_| "broker pump panicked".to_string())?;
    result
}

/// A publication of the workload and a subscription of the workload that
/// matches it (the universal filter when the sample holds no such pair).
fn matching_pair(pop: &Population) -> (&rebeca::Notification, rebeca::Filter) {
    pop.notifications
        .iter()
        .find_map(|n| {
            pop.filters
                .iter()
                .find(|f| f.matches(n))
                .map(|f| (n, f.clone()))
        })
        .unwrap_or((&pop.notifications[0], rebeca::Filter::universal()))
}

fn run(args: &Args) -> Result<RunResult, String> {
    std::fs::create_dir_all(&args.out_dir).map_err(|e| format!("create out dir: {e}"))?;
    let sizes = args.sizes();
    let pop = Population::of(args.workload, args.seed, &sizes);
    let mut spans = Spans::enabled();

    // Layer loops first: the allocation counts want a process without
    // helper threads.
    let budget = Duration::from_secs_f64(args.seconds * 0.3 / LOOPS);
    // What a consumer's log holds half-way through the open loop of one of
    // the end-to-end run's rounds (warm-up included).
    let client_log_len = match args.workload {
        w if w.is_tcp() => {
            let round_secs = args.seconds / args.rounds() as f64;
            ((tcp::TcpShape::of(w).open_rate * round_secs * 0.425) as usize).min(50_000)
        }
        _ => 16,
    };
    let report = layers::Layers::new(&pop, &mut spans, budget, client_log_len, &args.out_dir).run();

    let seconds = args.seconds * 0.35;
    let replay = if args.workload.is_tcp() {
        replay_tcp(args, seconds, &mut spans)?
    } else {
        replay_sim(args, seconds, &mut spans)?
    };
    let threaded_hop = threaded_hop_us(&pop)?;
    // No socket on the simulator workloads, the traced run included.
    let tcp_hop = if args.workload.is_tcp() {
        tcp_hop_us(&pop)?
    } else {
        0.0
    };
    let control_msgs = if args.workload == Workload::SimMobility {
        sim::control_msgs_per_move(args.seed, &sizes, 400)?
    } else {
        0.0
    };

    let summary = replay.e2e.as_ref().expect("the replay ran");
    let e2e = &summary.result;
    let accounted = report.pieces.accounted_us();
    let mut metrics = Metrics::new();
    for (name, value, unit) in &report.metrics {
        metrics.set(name, *value, unit);
    }
    for (name, value, unit) in [
        ("routing.control_msgs_per_move", control_msgs, "count"),
        (
            "mobility.replayed_per_move",
            replay.replayed_per_move,
            "count",
        ),
        ("mobility.wal_depth_max", replay.wal_depth_max, "count"),
        ("mobility.handoff_hist_p50_us", replay.handoff_hist.0, "us"),
        ("mobility.handoff_hist_p99_us", replay.handoff_hist.1, "us"),
        ("retain.retained_publications", replay.retained, "count"),
        ("core.sim_events_per_s", replay.sim_events_per_s, "1/s"),
        ("core.threaded_hop_us", threaded_hop, "us"),
        ("net.tcp_hop_us", tcp_hop, "us"),
        ("net.frames_out_per_pub", replay.frames.0, "count"),
        ("net.frames_in_per_pub", replay.frames.1, "count"),
        ("net.link_msgs_per_pub", replay.frames.2, "count"),
        ("obs.status_fetch_us", replay.status_fetch_us, "us"),
        ("obs.status_json_bytes", replay.status_json_bytes, "bytes"),
        ("gen.lateness_p99_us", replay.lateness_p99_us, "us"),
        ("gen.backlog_at_end", replay.backlog_at_end, "count"),
        (
            "trace.overhead_ratio",
            cpu(e2e) / replay.cpu_untraced.max(f64::MIN_POSITIVE),
            "ratio",
        ),
        ("ledger.accounted_us_per_pub", accounted, "us"),
        ("ledger.unexplained_us_per_pub", cpu(e2e) - accounted, "us"),
        (
            "ledger.unexplained_latency_us",
            summary.deliver_p50_us - accounted,
            "us",
        ),
        ("e2e.deliver_p50_us", summary.deliver_p50_us, "us"),
        ("e2e.deliver_p90_us", summary.deliver_p90_us, "us"),
        ("e2e.deliver_p99_us", summary.deliver_p99_us, "us"),
        ("e2e.handoffs", replay.handoffs, "count"),
        ("e2e.blackout_p50_ms", summary.blackout_p50_ms, "ms"),
        ("e2e.blackout_p90_ms", replay.blackout_p90_ms, "ms"),
        ("e2e.mobility_ops_per_s", replay.mobility_ops_per_s, "1/s"),
        ("e2e.deliveries_per_pub", replay.deliveries_per_pub, "count"),
        (
            "e2e.failed_ops_ratio",
            e2e.failed as f64 / e2e.attempted.max(1) as f64,
            "ratio",
        ),
        (
            "e2e.latency_limit_met",
            f64::from(summary.deliver_p99_us <= LATENCY_LIMIT_US && replay.backlog_at_end == 0.0),
            "bool",
        ),
    ] {
        metrics.set(name, value, unit);
    }
    eprintln!(
        "{}: latency limit deliver_p99_us <= {LATENCY_LIMIT_US} with no backlog: {}",
        args.workload.name(),
        if metrics.get("e2e.latency_limit_met") == Some(1.0) {
            "met"
        } else {
            "NOT met"
        }
    );

    let trace_path = args
        .out_dir
        .join(format!("trace-{}.json", args.workload.name()));
    std::fs::write(&trace_path, spans.to_json(args.workload.name(), args.seed))
        .map_err(|e| format!("write {}: {e}", trace_path.display()))?;
    Ok(RunResult {
        correct: e2e.correct,
        attempted: e2e.attempted,
        failed: e2e.failed,
        metrics,
    })
}

fn main() -> ExitCode {
    let args = match Args::from_env() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("traced: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = run(&args).and_then(|r| r.metrics.check_against(PER_LAYER).map(|()| r));
    match result {
        Ok(result) => {
            eprint!("{}", result.to_table());
            println!("{}", result.to_json());
            if result.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("traced: the oracle found an unexpected failure class");
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("traced: {e}");
            ExitCode::from(1)
        }
    }
}
