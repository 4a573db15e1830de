//! `rebeca-ctl`: the operator CLI of a TCP deployment.
//!
//! ```text
//! rebeca-ctl status    --config cluster.cfg [--json] [--watch MS] [--timeout-ms 2000]
//! rebeca-ctl tail      --config cluster.cfg [--broker N] [--interval-ms 500] [--rounds R] [--follow]
//! rebeca-ctl trace     --config cluster.cfg (TRACE_ID | --latest) [--json]
//! rebeca-ctl publish   --config cluster.cfg [--broker N] [--client ID] key=value...
//! rebeca-ctl wait      --config cluster.cfg --until wal_depth>=1 [--broker N] [--deadline-ms 30000]
//! rebeca-ctl drop-link --config cluster.cfg --broker N --peer P
//! ```
//!
//! Reads the same cluster config as `rebeca-node` and talks to the running
//! broker processes:
//!
//! * `status` fans a `StatusRequest` out across every broker of the cluster
//!   and renders the reports — routing-table size, WAL depth and checkpoint
//!   age, restart epoch, relocation counters, hand-off latency quantiles,
//!   per-link liveness.  Unreachable brokers are *reported*, not fatal.
//!   `--json` emits one JSON object per broker (JSON lines), machine-ready.
//!   `--watch MS` re-fetches and re-renders every MS milliseconds instead
//!   of exiting — the live dashboard an operator keeps open during a
//!   relocation drill.
//! * `tail` streams the cluster's observability journal live: it polls each
//!   broker with a resumable sequence cursor and prints events as they
//!   happen (relocation phases, WAL appends and checkpoints, link churn).
//!   `--follow` keeps polling forever even when `--rounds` is given.
//! * `trace` fans a `TraceRequest` across every broker, merges the
//!   retained distributed-tracing spans and reassembles the causal tree of
//!   one trace — per-hop, per-stage latencies for a single publication or
//!   relocation.  Pass the 16-hex-digit trace id a previous invocation (or
//!   a span in `--json` output) printed, or `--latest` for the most
//!   recently started trace anywhere in the cluster.  Brokers only retain
//!   spans when sampling is on (`rebeca-node --trace-sample`).
//! * `publish` injects one notification into the running cluster through a
//!   short-lived client session — the smallest possible smoke test that
//!   routing works end to end.
//! * `wait` blocks until a numeric status field satisfies a condition
//!   (`<field><op><value>`, e.g. `restart_epoch>=1`) on any targeted
//!   broker, or fails when `--deadline-ms` elapses — the scriptable
//!   building block chaos harnesses use to wait for recovery.
//! * `drop-link` injects a fault: it asks a broker to sever its outbound
//!   connections to a peer, exercising the self-healing redial path.

use std::process::ExitCode;
use std::time::Duration;

use rebeca_broker::ClientId;
use rebeca_core::SystemBuilder;
use rebeca_filter::Notification;
use rebeca_net::wire::Frame;
use rebeca_net::{admin, AdminError, ClusterConfig, Endpoint, NetConfig, SystemBuilderTcp};
use rebeca_obs::{json_escape, BrokerStatus, SpanRecord, StatusReport};
use rebeca_sim::{NodeId, SimDuration};

const USAGE: &str = "usage:
  rebeca-ctl status    --config FILE [--json] [--watch MS] [--timeout-ms MS]
  rebeca-ctl tail      --config FILE [--broker N] [--interval-ms MS] [--rounds R] [--follow] \
                       [--timeout-ms MS]
  rebeca-ctl trace     --config FILE (TRACE_ID | --latest) [--json] [--timeout-ms MS]
  rebeca-ctl publish   --config FILE [--broker N] [--client ID] key=value...
  rebeca-ctl wait      --config FILE --until FIELD{>=,<=,==,!=,>,<}VALUE [--broker N] \
                       [--interval-ms MS] [--deadline-ms MS] [--timeout-ms MS]
  rebeca-ctl drop-link --config FILE --broker N --peer P";

struct CommonArgs {
    cluster: ClusterConfig,
    timeout: Duration,
}

fn parse_u64(flag: &str, value: String) -> Result<u64, String> {
    value
        .parse::<u64>()
        .map_err(|_| format!("{flag} expects a number"))
}

/// Parses `key=value` into a notification attribute: integers as integers,
/// everything else as a string.
fn parse_attr(pair: &str) -> Result<(String, Option<i64>, String), String> {
    let (key, value) = pair
        .split_once('=')
        .ok_or_else(|| format!("expected key=value, got {pair:?}"))?;
    if key.is_empty() {
        return Err(format!("empty attribute name in {pair:?}"));
    }
    Ok((
        key.to_string(),
        value.parse::<i64>().ok(),
        value.to_string(),
    ))
}

fn run() -> Result<(), String> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        return Err(USAGE.to_string());
    }
    let command = args.remove(0);

    // Flags shared by every command.
    let mut config = None;
    let mut timeout_ms = 2_000;
    let mut json = false;
    let mut broker: Option<usize> = None;
    let mut client = 9_001u32;
    let mut interval_ms = 500;
    let mut rounds: Option<u64> = None;
    let mut until: Option<String> = None;
    let mut deadline_ms = 30_000;
    let mut peer: Option<usize> = None;
    let mut latest = false;
    let mut follow = false;
    let mut watch_ms: Option<u64> = None;
    let mut positional = Vec::new();

    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} expects a value"));
        match flag.as_str() {
            "--config" => config = Some(value("--config")?),
            "--timeout-ms" => timeout_ms = parse_u64("--timeout-ms", value("--timeout-ms")?)?,
            "--interval-ms" => interval_ms = parse_u64("--interval-ms", value("--interval-ms")?)?,
            "--rounds" => rounds = Some(parse_u64("--rounds", value("--rounds")?)?),
            "--json" => json = true,
            "--broker" => {
                broker = Some(
                    value("--broker")?
                        .parse::<usize>()
                        .map_err(|_| "--broker expects a broker index".to_string())?,
                )
            }
            "--client" => {
                client = value("--client")?
                    .parse::<u32>()
                    .map_err(|_| "--client expects a client id".to_string())?
            }
            "--until" => until = Some(value("--until")?),
            "--latest" => latest = true,
            "--follow" => follow = true,
            "--watch" => watch_ms = Some(parse_u64("--watch", value("--watch")?)?),
            "--deadline-ms" => deadline_ms = parse_u64("--deadline-ms", value("--deadline-ms")?)?,
            "--peer" => {
                peer = Some(
                    value("--peer")?
                        .parse::<usize>()
                        .map_err(|_| "--peer expects a broker index".to_string())?,
                )
            }
            other if other.starts_with("--") => return Err(format!("unknown flag {other:?}")),
            other => positional.push(other.to_string()),
        }
    }

    let config = config.ok_or_else(|| format!("--config is required\n{USAGE}"))?;
    let cluster = ClusterConfig::load(&config).map_err(|e| e.to_string())?;
    if let Some(b) = broker {
        if b >= cluster.endpoints.len() {
            return Err(format!(
                "broker {b} not in config (cluster has {} brokers)",
                cluster.endpoints.len()
            ));
        }
    }
    let common = CommonArgs {
        cluster,
        timeout: Duration::from_millis(timeout_ms),
    };

    match command.as_str() {
        "status" => status(&common, json, watch_ms.map(Duration::from_millis)),
        "tail" => tail(
            &common,
            broker,
            Duration::from_millis(interval_ms),
            // --follow means "never stop", whatever --rounds says.
            if follow { None } else { rounds },
        ),
        "trace" => trace(
            &common,
            positional.first().map(String::as_str),
            latest,
            json,
        ),
        "publish" => publish(
            &common,
            broker.unwrap_or(0),
            ClientId::new(client),
            &positional,
        ),
        "wait" => {
            let until = until.ok_or_else(|| format!("--until is required\n{USAGE}"))?;
            wait(
                &common,
                broker,
                &until,
                Duration::from_millis(interval_ms),
                Duration::from_millis(deadline_ms),
            )
        }
        "drop-link" => {
            let broker = broker.ok_or_else(|| format!("--broker is required\n{USAGE}"))?;
            let peer = peer.ok_or_else(|| format!("--peer is required\n{USAGE}"))?;
            drop_link(&common, broker, peer)
        }
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    }
}

/// One fan-out round: fetch every targeted broker's report (or its error).
fn fetch_all(
    common: &CommonArgs,
    only: Option<usize>,
    events_after: Option<u64>,
) -> Vec<(usize, &Endpoint, Result<StatusReport, AdminError>)> {
    common
        .cluster
        .endpoints
        .iter()
        .enumerate()
        .filter(|(i, _)| only.is_none() || only == Some(*i))
        .map(|(i, ep)| (i, ep, admin::fetch_status(ep, events_after, common.timeout)))
        .collect()
}

fn status(common: &CommonArgs, json: bool, watch: Option<Duration>) -> Result<(), String> {
    let started = std::time::Instant::now();
    loop {
        if watch.is_some() && !json {
            println!("--- status +{}ms", started.elapsed().as_millis());
        }
        status_round(common, json);
        let Some(interval) = watch else {
            return Ok(());
        };
        std::thread::sleep(interval);
    }
}

/// One status fan-out pass: fetch and render every broker's report.
fn status_round(common: &CommonArgs, json: bool) {
    let mut unreachable = 0;
    for (i, endpoint, fetched) in fetch_all(common, None, None) {
        match fetched {
            Ok(report) => {
                if json {
                    println!(
                        "{{\"broker\":{i},\"endpoint\":\"{}\",\"reachable\":true,\"report\":{}}}",
                        json_escape(&endpoint.to_string()),
                        report.to_json()
                    );
                } else {
                    print_human(i, endpoint, &report);
                }
            }
            Err(e) => {
                unreachable += 1;
                if json {
                    println!(
                        "{{\"broker\":{i},\"endpoint\":\"{}\",\"reachable\":false,\"error\":\"{}\"}}",
                        json_escape(&endpoint.to_string()),
                        json_escape(&e.to_string())
                    );
                } else {
                    println!("broker {i} @ {endpoint}: UNREACHABLE ({e})");
                }
            }
        }
    }
    if !json && unreachable > 0 {
        println!("{unreachable} broker(s) unreachable");
    }
}

fn print_human(index: usize, endpoint: &Endpoint, report: &StatusReport) {
    for b in &report.brokers {
        println!(
            "broker {} @ {endpoint}: epoch {} gen {} routing {} ({} subgroups, {:.1}x) wal {} \
             (+{} since ckpt{})",
            b.broker,
            b.restart_epoch,
            b.generation,
            b.routing_entries,
            b.routing_subgroups,
            b.routing_entries as f64 / b.routing_subgroups.max(1) as f64,
            b.wal_depth,
            b.wal_since_checkpoint,
            match b.last_checkpoint_age_ms {
                Some(age) => format!(", {age}ms old"),
                None => String::new(),
            },
        );
        println!(
            "  relocation: counterparts {} buffered {} pending {} expired-leases {}",
            b.counterparts, b.buffered_deliveries, b.pending_relocations, b.expired_leases
        );
        println!(
            "  retention: {} publications in {} segments{}",
            b.retained_publications,
            b.retained_segments,
            match b.oldest_retained_age_ms {
                Some(age) => format!(", oldest {age}ms old"),
                None => String::new(),
            },
        );
        for (name, count) in &b.relocations {
            println!("    {name} = {count}");
        }
        let h = &b.handoff_latency_micros;
        if !h.is_empty() {
            println!(
                "  handoff latency: n={} p50={}us p95={}us p99={}us",
                h.count(),
                h.p50(),
                h.p95(),
                h.p99()
            );
        }
        for link in &b.links {
            let mut notes = Vec::new();
            if let Some(age) = link.last_heartbeat_age_ms {
                notes.push(format!("heard {age}ms ago"));
            }
            if let Some(down) = link.down_since_ms {
                notes.push(format!("down {down}ms"));
            }
            if link.redial_attempts > 0 {
                notes.push(format!("{} redials", link.redial_attempts));
            }
            println!(
                "  link -> {}: {}{}",
                link.peer,
                if link.connected { "up" } else { "DOWN" },
                if notes.is_empty() {
                    String::new()
                } else {
                    format!(" ({})", notes.join(", "))
                },
            );
        }
    }
    if report.brokers.is_empty() {
        println!("broker {index} @ {endpoint}: reachable, hosts no brokers");
    }
}

fn tail(
    common: &CommonArgs,
    only: Option<usize>,
    interval: Duration,
    rounds: Option<u64>,
) -> Result<(), String> {
    // Per-broker resumable cursor.  The journal's first event has seq 1, so
    // `events_after: Some(0)` means "everything still buffered".
    let mut cursors = vec![0u64; common.cluster.endpoints.len()];
    let mut round = 0u64;
    loop {
        let fetches: Vec<_> = (0..common.cluster.endpoints.len())
            .filter(|i| only.is_none() || only == Some(*i))
            .collect();
        for i in fetches {
            let endpoint = &common.cluster.endpoints[i];
            let report = match admin::fetch_status(endpoint, Some(cursors[i]), common.timeout) {
                Ok(report) => report,
                Err(_) => continue, // a broker being down is not the tail's business
            };
            for event in &report.events {
                if event.seq <= cursors[i] {
                    continue;
                }
                cursors[i] = event.seq;
                println!(
                    "broker={i} seq={} t={}us {} {}",
                    event.seq, event.at_micros, event.kind, event.detail
                );
            }
        }
        round += 1;
        if rounds.is_some_and(|max| round >= max) {
            return Ok(());
        }
        std::thread::sleep(interval);
    }
}

/// Fans a `TraceRequest` across the cluster, merges the retained spans and
/// renders the causal tree of one trace.
///
/// `spec` is an explicit 16-hex-digit trace id (with or without a `0x`
/// prefix); `latest` resolves to the most recently started trace on any
/// reachable broker instead.  Unreachable brokers are skipped with a
/// warning — a partial tree from the reachable majority is still useful —
/// but having *no* reachable broker is an error.
fn trace(common: &CommonArgs, spec: Option<&str>, latest: bool, json: bool) -> Result<(), String> {
    let mut spans: Vec<SpanRecord> = Vec::new();
    let mut reachable = 0usize;
    for (i, endpoint) in common.cluster.endpoints.iter().enumerate() {
        match admin::fetch_trace(endpoint, None, common.timeout) {
            Ok(report) => {
                reachable += 1;
                spans.extend(report.spans);
            }
            Err(e) => eprintln!("rebeca-ctl: broker {i} @ {endpoint} unreachable ({e})"),
        }
    }
    if reachable == 0 {
        return Err("no broker reachable to fetch traces from".to_string());
    }
    let trace_id = match (spec, latest) {
        (Some(s), _) => u64::from_str_radix(s.trim_start_matches("0x"), 16)
            .map_err(|_| format!("trace id {s:?} is not a hex id (like 1f00ba5e9d8c7766)"))?,
        (None, true) => rebeca_obs::latest_trace_id(&spans).ok_or_else(|| {
            "no spans retained on any reachable broker (is --trace-sample set on the nodes?)"
                .to_string()
        })?,
        (None, false) => return Err(format!("trace needs a TRACE_ID or --latest\n{USAGE}")),
    };
    if json {
        let mut out = format!("{{\"trace_id\":\"{trace_id:016x}\",\"spans\":[");
        let mut first = true;
        for span in spans.iter().filter(|s| s.trace_id == trace_id) {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&span.to_json());
        }
        out.push_str("]}");
        println!("{out}");
    } else {
        print!("{}", rebeca_obs::render_trace_tree(trace_id, &spans));
    }
    Ok(())
}

/// A parsed `--until` condition: numeric status field, comparison, value.
struct Condition {
    field: String,
    op: &'static str,
    value: u64,
}

impl Condition {
    /// Parses `<field><op><value>` — two-character operators first, so
    /// `>=`/`<=` are not misread as `>`/`<` with a leading `=` digit.
    fn parse(spec: &str) -> Result<Condition, String> {
        for op in [">=", "<=", "==", "!=", ">", "<"] {
            if let Some((field, value)) = spec.split_once(op) {
                let field = field.trim().to_string();
                if field.is_empty() {
                    return Err(format!("missing field in condition {spec:?}"));
                }
                // Reject unknown fields up front instead of waiting forever.
                Self::extract_probe(&field)?;
                let value = value
                    .trim()
                    .parse::<u64>()
                    .map_err(|_| format!("condition value must be a number in {spec:?}"))?;
                return Ok(Condition { field, op, value });
            }
        }
        Err(format!(
            "condition {spec:?} has no operator (expected one of >=, <=, ==, !=, >, <)"
        ))
    }

    fn extract_probe(field: &str) -> Result<(), String> {
        let probe = BrokerStatus {
            broker: 0,
            restart_epoch: 0,
            generation: 0,
            routing_entries: 0,
            routing_subgroups: 0,
            wal_depth: 0,
            wal_since_checkpoint: 0,
            last_checkpoint_age_ms: None,
            counterparts: 0,
            buffered_deliveries: 0,
            pending_relocations: 0,
            retained_publications: 0,
            retained_segments: 0,
            oldest_retained_age_ms: None,
            expired_leases: 0,
            relocations: Vec::new(),
            handoff_latency_micros: Default::default(),
            links: Vec::new(),
        };
        Self::extract(&probe, field).map(|_| ())
    }

    /// Reads the named numeric field from a broker status.
    fn extract(status: &BrokerStatus, field: &str) -> Result<u64, String> {
        Ok(match field {
            "restart_epoch" => status.restart_epoch,
            "generation" => status.generation,
            "routing_entries" => status.routing_entries,
            "routing_subgroups" => status.routing_subgroups,
            "wal_depth" => status.wal_depth,
            "wal_since_checkpoint" => status.wal_since_checkpoint,
            "counterparts" => status.counterparts,
            "buffered_deliveries" => status.buffered_deliveries,
            "pending_relocations" => status.pending_relocations,
            "retained_publications" => status.retained_publications,
            "retained_segments" => status.retained_segments,
            "expired_leases" => status.expired_leases,
            other => {
                return Err(format!(
                    "unknown status field {other:?} (numeric fields: restart_epoch, generation, \
                     routing_entries, routing_subgroups, wal_depth, wal_since_checkpoint, \
                     counterparts, buffered_deliveries, pending_relocations, \
                     retained_publications, retained_segments, expired_leases)"
                ))
            }
        })
    }

    fn holds(&self, observed: u64) -> bool {
        match self.op {
            ">=" => observed >= self.value,
            "<=" => observed <= self.value,
            "==" => observed == self.value,
            "!=" => observed != self.value,
            ">" => observed > self.value,
            "<" => observed < self.value,
            _ => unreachable!("parse only yields the operators above"),
        }
    }
}

fn wait(
    common: &CommonArgs,
    only: Option<usize>,
    spec: &str,
    interval: Duration,
    deadline: Duration,
) -> Result<(), String> {
    let condition = Condition::parse(spec)?;
    let started = std::time::Instant::now();
    let mut last_observed: Option<u64> = None;
    loop {
        for (i, _, fetched) in fetch_all(common, only, None) {
            let Ok(report) = fetched else { continue };
            for b in &report.brokers {
                let observed = Condition::extract(b, &condition.field)?;
                last_observed = Some(observed);
                if condition.holds(observed) {
                    println!(
                        "broker {i}: {}={observed} satisfies {spec} after {}ms",
                        condition.field,
                        started.elapsed().as_millis()
                    );
                    return Ok(());
                }
            }
        }
        if started.elapsed() >= deadline {
            return Err(format!(
                "deadline of {}ms elapsed waiting for {spec} (last observed {})",
                deadline.as_millis(),
                match last_observed {
                    Some(v) => v.to_string(),
                    None => "no reachable broker".to_string(),
                }
            ));
        }
        std::thread::sleep(interval);
    }
}

/// Asks broker `broker` to sever its outbound connections to `peer` by
/// sending the hello-less `LinkDrop` admin frame.  One-shot, best effort:
/// the links redial immediately, which is the point.
fn drop_link(common: &CommonArgs, broker: usize, peer: usize) -> Result<(), String> {
    use std::io::Write;
    if peer >= common.cluster.endpoints.len() {
        return Err(format!(
            "peer {peer} not in config (cluster has {} brokers)",
            common.cluster.endpoints.len()
        ));
    }
    let endpoint = &common.cluster.endpoints[broker];
    let mut stream = std::net::TcpStream::connect(endpoint.to_string())
        .map_err(|e| format!("cannot reach broker {broker} @ {endpoint}: {e}"))?;
    stream
        .write_all(
            &Frame::LinkDrop {
                peer: NodeId::new(peer),
            }
            .encode_framed(),
        )
        .map_err(|e| format!("sending drop to broker {broker} failed: {e}"))?;
    println!("asked broker {broker} to drop its links to peer {peer}");
    Ok(())
}

fn publish(
    common: &CommonArgs,
    broker: usize,
    client: ClientId,
    attrs: &[String],
) -> Result<(), String> {
    if attrs.is_empty() {
        return Err(format!(
            "publish needs at least one key=value attribute\n{USAGE}"
        ));
    }
    let mut builder = Notification::builder();
    for pair in attrs {
        let (key, int, text) = parse_attr(pair)?;
        builder = match int {
            Some(v) => builder.attr(key.as_str(), v),
            None => builder.attr(key.as_str(), text.as_str()),
        };
    }
    let notification = builder.build();

    let net = NetConfig::new(common.cluster.endpoints.clone()).seed(common.cluster.seed ^ 0xC71);
    let mut system = SystemBuilder::new(&common.cluster.topology)
        .link_delay(common.cluster.delay)
        .seed(common.cluster.seed)
        .build_tcp(net)
        .map_err(|e| e.to_string())?;
    let session = system.connect(client, broker).map_err(|e| e.to_string())?;
    // Let the attach reach the broker before publishing through it.
    let now = system.now();
    system.run_until(now + SimDuration::from_millis(300));
    session
        .publish(&mut system, notification)
        .map_err(|e| e.to_string())?;
    // Flush the frame out before tearing the driver down.
    let now = system.now();
    system.run_until(now + SimDuration::from_millis(300));
    println!("published to broker {broker} as client {}", client.raw());
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("rebeca-ctl: {e}");
            ExitCode::FAILURE
        }
    }
}
