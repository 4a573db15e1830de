//! `rebeca-node`: one broker process of a TCP deployment.
//!
//! ```text
//! rebeca-node --config cluster.cfg --broker 1 [--run-secs 30] [--epoch 0] \
//!             [--status-file status.json] [--status-interval-ms 1000] \
//!             [--persist-dir DIR] [--recover] [--trace-sample RATE]
//! ```
//!
//! Reads the shared cluster config (see `rebeca_net::ClusterConfig` for the
//! format), hosts broker `--broker` on a `TcpDriver`, dials its topology
//! peers and serves until `--run-secs` elapses (forever when omitted).
//! Prints a single `listening` line once the socket is bound, so a harness
//! can wait for readiness, and a metrics summary on clean exit: link
//! messages, frames in/out, and what they cost in wake-ups — socket writes
//! made by the event loop, ack frames written and read.
//!
//! With `--status-file`, the process writes its live status report (the
//! same JSON `rebeca-ctl status --json` renders) to the given file every
//! `--status-interval-ms` (default 1000) — a zero-dependency way to scrape
//! a deployment into flat files.  Each snapshot replaces the previous one
//! atomically (written to a `.tmp` sibling, then renamed), so a concurrent
//! reader always sees one complete JSON document, never a torn write.
//!
//! With `--trace-sample RATE` (a fraction; 1.0 traces everything), the
//! hosted broker samples distributed-trace spans into its span buffer,
//! served to `rebeca-ctl trace` via the `TraceRequest` admin frame.  Pass
//! the same rate to every node: sampling is a deterministic hash, so equal
//! rates mean every broker traces the same publications.
//!
//! With `--persist-dir`, the hosted broker's write-ahead handoff log lives
//! as a file under the given directory instead of in memory, surviving
//! process crashes.  `--recover` replays that log on startup before the
//! `listening` line is printed — the flag a supervisor passes when it
//! relaunches a SIGKILLed broker (together with a bumped `--epoch`, so the
//! restarted incarnation fences off its own zombie connections).

use std::process::ExitCode;

use rebeca_core::SystemBuilder;
use rebeca_net::{ClusterConfig, NetConfig, SystemBuilderTcp};
use rebeca_sim::SimDuration;

struct Args {
    config: String,
    broker: usize,
    run_secs: Option<u64>,
    epoch: u64,
    status_file: Option<String>,
    status_interval: SimDuration,
    persist_dir: Option<String>,
    recover: bool,
    trace_sample: Option<f64>,
}

fn parse_args() -> Result<Args, String> {
    let mut config = None;
    let mut broker = None;
    let mut run_secs = None;
    let mut epoch = 0;
    let mut status_file = None;
    let mut status_interval_ms = 1_000;
    let mut persist_dir = None;
    let mut recover = false;
    let mut trace_sample = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| args.next().ok_or_else(|| format!("{flag} expects a value"));
        match flag.as_str() {
            "--config" => config = Some(value("--config")?),
            "--broker" => {
                broker = Some(
                    value("--broker")?
                        .parse::<usize>()
                        .map_err(|_| "--broker expects a broker index".to_string())?,
                )
            }
            "--run-secs" => {
                run_secs = Some(
                    value("--run-secs")?
                        .parse::<u64>()
                        .map_err(|_| "--run-secs expects a number of seconds".to_string())?,
                )
            }
            "--epoch" => {
                epoch = value("--epoch")?
                    .parse::<u64>()
                    .map_err(|_| "--epoch expects a number".to_string())?
            }
            "--status-file" => status_file = Some(value("--status-file")?),
            "--persist-dir" => persist_dir = Some(value("--persist-dir")?),
            "--recover" => recover = true,
            "--trace-sample" => {
                trace_sample = Some(
                    value("--trace-sample")?
                        .parse::<f64>()
                        .map_err(|_| "--trace-sample expects a fraction (e.g. 0.01)".to_string())?,
                )
            }
            "--status-interval-ms" => {
                status_interval_ms = value("--status-interval-ms")?
                    .parse::<u64>()
                    .map_err(|_| "--status-interval-ms expects milliseconds".to_string())?
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        config: config.ok_or("--config is required")?,
        broker: broker.ok_or("--broker is required")?,
        run_secs,
        epoch,
        status_file,
        status_interval: SimDuration::from_millis(status_interval_ms),
        persist_dir,
        recover,
        trace_sample,
    })
}

/// Replaces `path` with `contents` atomically: the bytes are written to a
/// `.tmp` sibling and renamed over the target, so a concurrent reader
/// always sees either the previous snapshot or the new one in full.
fn write_atomic(path: &str, contents: &str) -> std::io::Result<()> {
    let tmp = format!("{path}.tmp");
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, path)
}

fn run() -> Result<(), String> {
    let args = parse_args().map_err(|e| {
        format!(
            "{e}\nusage: rebeca-node --config FILE --broker N [--run-secs S] [--epoch E] \
             [--status-file PATH] [--status-interval-ms MS] [--persist-dir DIR] [--recover] \
             [--trace-sample RATE]"
        )
    })?;
    let cluster = ClusterConfig::load(&args.config).map_err(|e| e.to_string())?;
    if args.broker >= cluster.endpoints.len() {
        return Err(format!(
            "broker {} not in config (cluster has {} brokers)",
            args.broker,
            cluster.endpoints.len()
        ));
    }

    let net = NetConfig::new(cluster.endpoints.clone())
        .host(args.broker)
        .epoch(args.epoch)
        .seed(cluster.seed ^ args.broker as u64);
    let mut builder = SystemBuilder::new(&cluster.topology)
        .link_delay(cluster.delay)
        .seed(cluster.seed);
    if let Some(dir) = &args.persist_dir {
        builder = builder.persist_to(dir);
    }
    if let Some(rate) = args.trace_sample {
        builder = builder.trace_sample(rate);
    }
    let mut system = builder.build_tcp(net).map_err(|e| e.to_string())?;
    if args.recover {
        // Rebuild the mobility-relevant broker state from the surviving
        // write-ahead log before accepting any traffic.
        system
            .crash_and_restart_broker(args.broker)
            .map_err(|e| format!("recovery of broker {} failed: {e}", args.broker))?;
        println!("rebeca-node: broker {} recovered from WAL", args.broker);
    }

    println!(
        "rebeca-node: broker {} listening on {}",
        args.broker, cluster.endpoints[args.broker]
    );
    // The harness waits for this line before starting clients.
    use std::io::Write;
    let _ = std::io::stdout().flush();

    let mut status_sink = args.status_file.clone();

    let slice = SimDuration::from_millis(250);
    let deadline = args
        .run_secs
        .map(|secs| system.now() + SimDuration::from_secs(secs));
    let mut next_status = system.now();
    loop {
        let now = system.now();
        if let Some(deadline) = deadline {
            if now >= deadline {
                break;
            }
        }
        if let Some(path) = status_sink.as_ref() {
            if now >= next_status {
                next_status = now + args.status_interval;
                // The latest report only, replaced atomically: the same
                // JSON shape `rebeca-ctl status --json` prints.
                if write_atomic(path, &system.status().to_json()).is_err() {
                    eprintln!("rebeca-node: status file write failed; disabling snapshots");
                    status_sink = None;
                }
            }
        }
        system.run_until(now + slice);
    }

    let metrics = system.metrics();
    // New fields go at the end: harnesses find the first three by key.
    println!(
        "rebeca-node: broker {} done (link messages {}, frames in {}, frames out {}, \
         socket writes {}, acks out {}, acks in {})",
        args.broker,
        metrics.counter("network.messages"),
        metrics.counter("net.frames_in"),
        metrics.counter("net.frames_out"),
        metrics.counter("net.socket_writes"),
        metrics.counter("net.acks_out"),
        metrics.counter("net.acks_in"),
    );
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("rebeca-node: {message}");
            ExitCode::FAILURE
        }
    }
}
