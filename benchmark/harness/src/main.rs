//! `harness`: one end-to-end run of one workload.
//!
//! ```text
//! harness --workload tcp_rest --seed 7 --seconds 20 [--quick]
//! ```
//!
//! Prints a metric table to stderr and the result line (one JSON object)
//! as the last line of stdout.  Exits non-zero when the run could not be
//! measured or the oracle found an unexpected failure class.

use std::process::ExitCode;

use rebeca_benchmark::cli::{Args, USAGE};
use rebeca_benchmark::report::{RunResult, END_TO_END};
use rebeca_benchmark::spans::Spans;
use rebeca_benchmark::stats::median;
use rebeca_benchmark::{cluster, e2e, procstat, sim, tcp};

fn run(args: &Args) -> Result<RunResult, String> {
    // Descriptors inherited from the caller are not this run's doing.
    let inherited_sockets = procstat::open_sockets();
    let mut spans = Spans::disabled();
    if args.workload.is_tcp() {
        let shape = tcp::TcpShape::of(args.workload);
        let mut rounds = Vec::with_capacity(args.rounds());
        for round in 1..=args.rounds() {
            let out = tcp::run(
                &tcp::TcpRun {
                    workload: args.workload,
                    seed: args.seed,
                    seconds: args.seconds / args.rounds() as f64,
                    node_bin: &args.node_bin,
                    out_dir: &args.out_dir,
                    traced: false,
                },
                &mut spans,
            )?;
            eprintln!(
                "{} round {round}: open loop {} pubs, deliver p50 {:.0} us, \
                 generator lateness max {:.0} us, \
                 backlog at end {}; closed loop {} pubs in {:.2} s; {} hand-offs; oracle {:?}",
                args.workload.name(),
                out.open_pubs,
                median(&mut out.latencies.iter().map(|s| s.1).collect::<Vec<f64>>()).unwrap_or(0.0),
                out.lateness_us.iter().copied().fold(0.0, f64::max),
                out.backlog_at_end,
                out.closed_completed,
                out.closed_elapsed_s,
                out.moves,
                out.verdict,
            );
            rounds.push(out);
        }
        let summary = e2e::tcp_result(&rounds, &shape)?;
        eprintln!(
            "{}: loopback, delay_us 0, 3 rebeca-node processes + this client, {} rounds; \
             not gated: deliver p50 {:.0} us, p90 {:.0} us, p99 {:.0} us, blackout p50 {:.2} ms",
            args.workload.name(),
            rounds.len(),
            summary.deliver_p50_us,
            summary.deliver_p90_us,
            summary.deliver_p99_us,
            summary.blackout_p50_ms,
        );
        Ok(summary.result)
    } else {
        let out = sim::run(
            &sim::SimRun {
                workload: args.workload,
                seed: args.seed,
                seconds: args.seconds,
                setups: args.setups(),
                sizes: args.sizes(),
            },
            &mut spans,
        )?;
        // The bypass evidence: a simulator run touches no socket and
        // spawns no process.
        let sockets = procstat::open_sockets().saturating_sub(inherited_sockets);
        let spawned = cluster::processes_spawned();
        eprintln!(
            "{}: SimDriver, 6-broker line, 1 ms virtual links; {} publications, \
             {} mobility ops, {:.1} deliveries owed per publication; \
             sockets_open={sockets} processes_spawned={spawned}; deterministic={}; oracle {:?}",
            args.workload.name(),
            out.pubs,
            out.mobility_ops,
            out.deliveries_per_pub,
            out.deterministic,
            out.verdict,
        );
        if sockets + spawned as usize > 0 {
            return Err("a simulator workload opened a socket or spawned a process".into());
        }
        let summary = e2e::sim_result(&out)?;
        eprintln!(
            "{}: set-ups {:.3?} s; not gated: step p50 {:.0} us, p90 {:.0} us, p99 {:.0} us, \
             slowest step per 500 p50 {:.2} ms",
            args.workload.name(),
            out.setup_s,
            summary.deliver_p50_us,
            summary.deliver_p90_us,
            summary.deliver_p99_us,
            summary.blackout_p50_ms,
        );
        Ok(summary.result)
    }
}

fn main() -> ExitCode {
    let args = match Args::from_env() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("harness: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.trace {
        eprintln!("harness: --trace 1 is the `traced` binary's job (benchmark/run.py dispatches)");
        return ExitCode::from(2);
    }
    let result = run(&args).and_then(|r| r.metrics.check_against(END_TO_END).map(|()| r));
    match result {
        Ok(result) => {
            eprint!("{}", result.to_table());
            println!("{}", result.to_json());
            if result.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("harness: the oracle found an unexpected failure class");
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("harness: {e}");
            ExitCode::from(1)
        }
    }
}
