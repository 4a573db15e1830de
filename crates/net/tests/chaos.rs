//! Process-kill chaos: the real-socket counterpart of
//! `crates/core/tests/chaos_status.rs`.
//!
//! 1. spawn three `rebeca-node` OS processes (broker 0 with a durable WAL
//!    directory), drive the quickstart scenario up to and past the
//!    relocation,
//! 2. `SIGKILL` the old border broker (broker 0 — off the delivery path
//!    once the consumer settled at broker 1) while publications keep
//!    flowing,
//! 3. publish through the dead broker's cluster, then relaunch broker 0
//!    with `--recover` and a bumped `--epoch`,
//! 4. assert the consumer's delivery log is exactly-once and byte-identical
//!    to the same interleaving on the deterministic `SimDriver` (crash and
//!    all), that the survivors journaled the link drop / redial / re-up,
//!    and that a zombie connection claiming the dead incarnation's epoch is
//!    fenced off.
//!
//! A second drill kills the transit broker between the consumer and the
//! producer and relaunches it from its WAL: the WAL holds no routing state,
//! so the relaunched broker re-learns its routes from its neighbours
//! (`Resync`), and every publication after the recovery is delivered
//! exactly once, in order.
//!
//! A third drill freezes the transit broker with `SIGSTOP` for a moment
//! shorter than any liveness horizon, resumes it with `SIGCONT` while
//! publications keep flowing, and asserts that no broker counted a link
//! loss and that delivery stayed exactly-once.
//!
//! Broker processes self-terminate after `--run-secs` as a safety net; the
//! test kills them as soon as the scenario completes.

mod common;

use std::io::{BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use rebeca_broker::ConsumerLog;
use rebeca_core::MobilitySystem;
use rebeca_net::wire::Frame;
use rebeca_net::{ClusterConfig, Endpoint, NetConfig, SystemBuilderTcp};
use rebeca_sim::{DelayModel, NodeId, SimDuration, Topology};

use common::{
    assert_exactly_once, run_until_deliveries, vacancy, CONSUMER, MOVE_AFTER, PRODUCER,
    PUBLICATIONS,
};

/// Publications sent before the kill (the relocation settles inside them).
const KILL_AFTER: u64 = 8;
/// The epoch every broker starts with, so a zombie claiming less than it
/// is provably stale.
const BASE_EPOCH: u64 = 1;
/// The epoch the relaunched broker 0 fences its own past with.
const RESTART_EPOCH: u64 = 2;
/// Publications sent before the frozen broker is resumed.
const RESUME_AFTER: u64 = 8;

/// Kills the spawned broker processes on scope exit, panic included.
struct Cluster {
    children: Vec<Child>,
}

impl Drop for Cluster {
    fn drop(&mut self) {
        for child in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Probes three free loopback ports by binding ephemeral listeners.
fn probe_ports() -> Vec<u16> {
    let probes: Vec<std::net::TcpListener> = (0..3)
        .map(|_| std::net::TcpListener::bind("127.0.0.1:0").expect("probe bind"))
        .collect();
    probes
        .iter()
        .map(|l| l.local_addr().unwrap().port())
        .collect()
}

/// Spawns one broker process and waits for its `listening` readiness line
/// (plus the `recovered` line when relaunching).  Returns `None` when the
/// child dies before reporting, so the caller can retry with fresh ports.
fn spawn_broker(
    config_path: &std::path::Path,
    broker: usize,
    epoch: u64,
    persist_dir: &std::path::Path,
    recover: bool,
) -> Option<Child> {
    let binary = env!("CARGO_BIN_EXE_rebeca-node");
    let mut command = Command::new(binary);
    command
        .arg("--config")
        .arg(config_path)
        .arg("--broker")
        .arg(broker.to_string())
        .arg("--run-secs")
        .arg("180")
        .arg("--epoch")
        .arg(epoch.to_string())
        .arg("--persist-dir")
        .arg(persist_dir);
    if recover {
        command.arg("--recover");
    }
    let mut child = command
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn rebeca-node");
    let stdout = child.stdout.take().expect("piped stdout");
    let (ready_tx, ready_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let mut lines = BufReader::new(stdout).lines();
        while let Some(Ok(line)) = lines.next() {
            if line.contains("listening") {
                let _ = ready_tx.send(());
                break;
            }
        }
        // Keep draining so the child never blocks on a full pipe.
        for _ in lines {}
    });
    match ready_rx.recv_timeout(Duration::from_secs(30)) {
        Ok(()) => Some(child),
        Err(_) => {
            let _ = child.kill();
            let _ = child.wait();
            None
        }
    }
}

/// Where broker `broker` keeps its WAL under the test's temp directory.
fn wal_dir(tmp: &Path, broker: usize) -> PathBuf {
    tmp.join(format!("wal{broker}"))
}

/// Writes a three-broker line cluster config on fresh loopback ports and
/// starts one `rebeca-node` process per broker, retrying with new ports
/// when a probed port was taken before a broker could bind it.
fn launch_cluster(tmp: &Path, config_path: &Path) -> (Cluster, Vec<Endpoint>) {
    let mut attempt = 0;
    'retry: loop {
        attempt += 1;
        let endpoints: Vec<Endpoint> = probe_ports()
            .into_iter()
            .map(|p| Endpoint::new("127.0.0.1", p))
            .collect();
        let cluster_cfg = ClusterConfig {
            endpoints: endpoints.clone(),
            topology: Topology::line(3),
            delay: DelayModel::constant_millis(1),
            seed: 7,
        };
        std::fs::write(config_path, cluster_cfg.render()).expect("write config");
        let mut cluster = Cluster {
            children: Vec::new(),
        };
        for broker in 0..3 {
            let dir = wal_dir(tmp, broker);
            std::fs::create_dir_all(&dir).expect("create wal dir");
            match spawn_broker(config_path, broker, BASE_EPOCH, &dir, false) {
                Some(child) => cluster.children.push(child),
                None if attempt < 3 => continue 'retry,
                None => panic!("broker processes failed to start after {attempt} attempts"),
            }
        }
        return (cluster, endpoints);
    }
}

/// The client process of a chaos drill: a TCP driver hosting the consumer
/// and the producer.  A short heartbeat makes it notice a broker's silence
/// quickly.
fn client_system(endpoints: &[Endpoint]) -> MobilitySystem {
    common::builder(1)
        .build_tcp(
            NetConfig::new(endpoints.to_vec())
                .seed(5)
                .heartbeat(Duration::from_millis(100)),
        )
        .expect("client system builds")
}

/// The oracle: the identical interleaving — publications, relocation,
/// mid-stream broker crash+recovery — on the deterministic simulator.
fn chaos_sim_oracle() -> ConsumerLog {
    let mut sys = common::builder(1).build().expect("sim build");
    let consumer = sys.connect(CONSUMER, 0).expect("consumer connects");
    consumer
        .subscribe(&mut sys, common::parking_filter())
        .expect("subscribe");
    let producer = sys.connect(PRODUCER, 2).expect("producer connects");
    let now = sys.now();
    sys.run_until(now + SimDuration::from_millis(200));

    for i in 1..=MOVE_AFTER {
        producer.publish(&mut sys, vacancy(i)).expect("publish");
    }
    assert!(run_until_deliveries(&mut sys, MOVE_AFTER as usize, 60_000));
    consumer.move_to(&mut sys, 1).expect("relocate");
    for i in MOVE_AFTER + 1..=KILL_AFTER {
        producer.publish(&mut sys, vacancy(i)).expect("publish");
    }
    assert!(run_until_deliveries(&mut sys, KILL_AFTER as usize, 60_000));

    sys.crash_and_restart_broker(0).expect("sim crash+recover");

    for i in KILL_AFTER + 1..=PUBLICATIONS {
        producer.publish(&mut sys, vacancy(i)).expect("publish");
    }
    assert!(run_until_deliveries(
        &mut sys,
        PUBLICATIONS as usize,
        60_000
    ));
    let log = sys.client_log(CONSUMER).unwrap().clone();
    assert!(log.is_clean(), "oracle run must be clean");
    log
}

/// Runs `rebeca-ctl` with the given arguments, returning (success, stdout).
fn ctl(config_path: &std::path::Path, args: &[&str]) -> (bool, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_rebeca-ctl"))
        .args(args)
        .arg("--config")
        .arg(config_path)
        .output()
        .expect("run rebeca-ctl");
    (
        output.status.success(),
        format!(
            "{}{}",
            String::from_utf8_lossy(&output.stdout),
            String::from_utf8_lossy(&output.stderr)
        ),
    )
}

/// Sends a stale-epoch `Hello` claiming to be node `from` and returns the
/// `Fenced { expected }` reply, if the target rejects it.
fn probe_zombie(endpoint: &Endpoint, from: usize, epoch: u64) -> Option<u64> {
    let mut socket = std::net::TcpStream::connect(endpoint.to_string()).ok()?;
    socket
        .set_read_timeout(Some(Duration::from_millis(200)))
        .ok()?;
    let hello = Frame::Hello {
        from: NodeId::new(from),
        to: NodeId::new(1),
        epoch,
        listen: Endpoint::new("127.0.0.1", 1),
        delay: DelayModel::Constant(0),
    };
    socket.write_all(&hello.encode_framed()).ok()?;
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    for _ in 0..50 {
        match socket.read(&mut chunk) {
            Ok(0) => return None, // closed without a reply
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(_) => continue,
        }
        if let Ok((Frame::Fenced { expected }, _)) = Frame::decode_framed(&buf) {
            return Some(expected);
        }
    }
    None
}

#[test]
fn sigkilled_broker_recovers_without_losing_or_duplicating_a_frame() {
    let tmp = std::env::temp_dir().join(format!("rebeca-chaos-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).expect("create temp dir");
    let config_path = tmp.join("cluster.cfg");
    let (mut cluster, endpoints) = launch_cluster(&tmp, &config_path);

    // This process is the client process.
    let mut sys = client_system(&endpoints);
    let consumer = sys.connect(CONSUMER, 0).expect("consumer connects");
    consumer
        .subscribe(&mut sys, common::parking_filter())
        .expect("subscribe");
    let producer = sys.connect(PRODUCER, 2).expect("producer connects");
    let now = sys.now();
    sys.run_until(now + SimDuration::from_millis(500));

    for i in 1..=MOVE_AFTER {
        producer.publish(&mut sys, vacancy(i)).expect("publish");
    }
    assert!(
        run_until_deliveries(&mut sys, MOVE_AFTER as usize, 60_000),
        "first half not delivered"
    );
    consumer.move_to(&mut sys, 1).expect("relocate");
    for i in MOVE_AFTER + 1..=KILL_AFTER {
        producer.publish(&mut sys, vacancy(i)).expect("publish");
    }
    assert!(
        run_until_deliveries(&mut sys, KILL_AFTER as usize, 60_000),
        "pre-kill publications not delivered"
    );

    // SIGKILL the old border broker.  The consumer has settled at broker 1,
    // so broker 0 is off the delivery path — but its links to the whole
    // cluster die mid-traffic, and only its write-ahead log survives.
    cluster.children[0].kill().expect("SIGKILL broker 0");
    let _ = cluster.children[0].wait();

    // Keep publishing while the broker is dead: the cluster must deliver
    // through the surviving route without a hiccup.
    for i in KILL_AFTER + 1..=PUBLICATIONS {
        producer.publish(&mut sys, vacancy(i)).expect("publish");
    }
    assert!(
        run_until_deliveries(&mut sys, PUBLICATIONS as usize, 60_000),
        "publications during the outage not delivered"
    );

    // Relaunch broker 0 from its surviving WAL, epoch bumped so its zombie
    // incarnation can never interleave with it.
    let relaunched = spawn_broker(&config_path, 0, RESTART_EPOCH, &wal_dir(&tmp, 0), true)
        .expect("broker 0 relaunches");
    cluster.children[0] = relaunched;

    // The scriptable recovery barrier: rebeca-ctl blocks until the
    // relaunched broker reports its bumped restart epoch and its recovered
    // WAL depth.
    let (ok, out) = ctl(
        &config_path,
        &[
            "wait",
            "--until",
            &format!("restart_epoch>={RESTART_EPOCH}"),
            "--broker",
            "0",
            "--deadline-ms",
            "30000",
        ],
    );
    assert!(ok, "ctl wait for restart epoch failed: {out}");
    assert!(out.contains("satisfies"), "wait reports the match: {out}");
    let (ok, out) = ctl(
        &config_path,
        &[
            "wait",
            "--until",
            "wal_depth>=1",
            "--broker",
            "0",
            "--deadline-ms",
            "30000",
        ],
    );
    assert!(ok, "ctl wait for recovered WAL failed: {out}");

    // The survivors noticed the death and healed their links: broker 1's
    // writer to broker 0 dropped, redialled with backoff, and came back up.
    let deadline = Instant::now() + Duration::from_secs(30);
    let link_back = loop {
        let report = rebeca_net::fetch_status(&endpoints[1], None, Duration::from_secs(5))
            .expect("broker 1 serves status");
        let link = report.brokers[0]
            .links
            .iter()
            .find(|l| l.peer == 0)
            .cloned();
        if link.as_ref().is_some_and(|l| l.connected) {
            break link.unwrap();
        }
        assert!(
            Instant::now() < deadline,
            "broker 1 never re-established its link to broker 0: {link:?}"
        );
        std::thread::sleep(Duration::from_millis(200));
    };
    assert!(
        link_back.redial_attempts >= 1,
        "the re-established link was redialled: {link_back:?}"
    );
    let journal = rebeca_net::fetch_status(&endpoints[1], Some(0), Duration::from_secs(5))
        .expect("broker 1 serves its journal");
    let kinds: Vec<&str> = journal.events.iter().map(|e| e.kind.as_str()).collect();
    assert!(kinds.contains(&"link.drop"), "drop journaled: {kinds:?}");
    assert!(
        kinds.contains(&"link.redial"),
        "redial journaled: {kinds:?}"
    );
    assert!(kinds.contains(&"link.up"), "re-up journaled: {kinds:?}");

    // Epoch fencing: a zombie connection claiming the pre-kill incarnation
    // of broker 0 (epoch 0 < BASE_EPOCH) is rejected by a survivor with the
    // epoch it expects instead.
    let expected = probe_zombie(&endpoints[1], 0, 0).expect("zombie hello is answered");
    assert!(
        expected >= BASE_EPOCH,
        "fence reports the superseding epoch, got {expected}"
    );
    let journal = rebeca_net::fetch_status(&endpoints[1], Some(0), Duration::from_secs(5))
        .expect("broker 1 serves its journal");
    assert!(
        journal.events.iter().any(|e| e.kind == "link.fenced"),
        "the rejection is journaled"
    );

    // The one acceptance criterion everything above serves: across a
    // process kill, an outage, and a recovery, the consumer saw every
    // publication exactly once, byte-identical to the simulator oracle.
    let log = sys.client_log(CONSUMER).unwrap().clone();
    assert_exactly_once(&log);
    assert_eq!(
        log,
        chaos_sim_oracle(),
        "chaos delivery log must be byte-identical to the SimDriver oracle"
    );

    drop(cluster);
    let _ = std::fs::remove_dir_all(&tmp);
}

/// Blocks until broker `broker` satisfies the `rebeca-ctl wait` predicate
/// `until`, or fails the test after 30 s.
fn ctl_wait(config_path: &Path, broker: usize, until: &str) {
    let broker = broker.to_string();
    let args = [
        "wait",
        "--until",
        until,
        "--broker",
        &broker,
        "--deadline-ms",
        "30000",
    ];
    let (ok, out) = ctl(config_path, &args);
    assert!(ok, "ctl wait for {until} on broker {broker} failed: {out}");
}

#[test]
fn sigkilled_transit_broker_relearns_its_routes_from_its_neighbours() {
    let tmp = std::env::temp_dir().join(format!("rebeca-resync-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).expect("create temp dir");
    let config_path = tmp.join("cluster.cfg");
    let (mut cluster, endpoints) = launch_cluster(&tmp, &config_path);

    // The consumer at broker 0 and the producer at broker 2: every
    // publication crosses transit broker 1.
    let mut sys = client_system(&endpoints);
    let consumer = sys.connect(CONSUMER, 0).expect("consumer connects");
    consumer
        .subscribe(&mut sys, common::parking_filter())
        .expect("subscribe");
    let producer = sys.connect(PRODUCER, 2).expect("producer connects");
    let now = sys.now();
    sys.run_until(now + SimDuration::from_millis(500));
    for i in 1..=MOVE_AFTER {
        producer.publish(&mut sys, vacancy(i)).expect("publish");
    }
    assert!(
        run_until_deliveries(&mut sys, MOVE_AFTER as usize, 60_000),
        "pre-kill publications not delivered"
    );

    // Kill broker 1 and relaunch it from its WAL, epoch bumped.  Nothing is
    // published while it is down: loss during the outage is not what this
    // drill measures.
    cluster.children[1].kill().expect("SIGKILL broker 1");
    let _ = cluster.children[1].wait();
    let relaunched = spawn_broker(&config_path, 1, RESTART_EPOCH, &wal_dir(&tmp, 1), true)
        .expect("broker 1 relaunches");
    cluster.children[1] = relaunched;
    ctl_wait(&config_path, 1, &format!("restart_epoch>={RESTART_EPOCH}"));
    // Its table started empty; broker 0's answer to its resync brings the
    // consumer's route back.  Publications routed before that answer
    // arrives are the resync round trip's open window, not measured here.
    ctl_wait(&config_path, 1, "routing_entries>=1");

    for i in MOVE_AFTER + 1..=PUBLICATIONS {
        producer.publish(&mut sys, vacancy(i)).expect("publish");
    }
    assert!(
        run_until_deliveries(&mut sys, PUBLICATIONS as usize, 60_000),
        "publications after the recovery not delivered: {:?}",
        sys.client_log(CONSUMER).unwrap().len()
    );
    assert_exactly_once(sys.client_log(CONSUMER).unwrap());

    drop(cluster);
    let _ = std::fs::remove_dir_all(&tmp);
}

/// Sends `kill -<signal>` to a broker process.
fn signal(child: &Child, signal: &str) {
    let status = Command::new("kill")
        .arg(format!("-{signal}"))
        .arg(child.id().to_string())
        .status()
        .expect("run kill");
    assert!(status.success(), "kill -{signal} failed");
}

/// The journal of the broker process at `endpoint` after sequence number
/// `cursor`.
fn journal_after(endpoint: &Endpoint, cursor: u64) -> Vec<rebeca_obs::ObsEvent> {
    rebeca_net::fetch_status(endpoint, Some(cursor), Duration::from_secs(5))
        .expect("broker serves its journal")
        .events
}

#[test]
fn sigstopped_broker_resumes_without_dropping_a_link() {
    let tmp = std::env::temp_dir().join(format!("rebeca-freeze-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).expect("create temp dir");
    let config_path = tmp.join("cluster.cfg");
    let (cluster, endpoints) = launch_cluster(&tmp, &config_path);

    let mut sys = client_system(&endpoints);
    let consumer = sys.connect(CONSUMER, 0).expect("consumer connects");
    consumer
        .subscribe(&mut sys, common::parking_filter())
        .expect("subscribe");
    let producer = sys.connect(PRODUCER, 2).expect("producer connects");
    let now = sys.now();
    sys.run_until(now + SimDuration::from_millis(500));
    for i in 1..=MOVE_AFTER {
        producer.publish(&mut sys, vacancy(i)).expect("publish");
    }
    assert!(
        run_until_deliveries(&mut sys, MOVE_AFTER as usize, 60_000),
        "pre-freeze publications not delivered"
    );
    let cursors: Vec<u64> = endpoints
        .iter()
        .map(|e| journal_after(e, 0).last().map_or(0, |event| event.seq))
        .collect();

    // Freeze broker 1, the transit hop between producer and consumer, for
    // 100 ms: under every process's liveness horizon (heartbeat ×
    // missed_heartbeats, 300 ms in this client process).  Readers blocked
    // in a timed socket read wake with EINTR when it resumes.
    signal(&cluster.children[1], "STOP");
    for i in MOVE_AFTER + 1..=RESUME_AFTER {
        producer.publish(&mut sys, vacancy(i)).expect("publish");
    }
    let now = sys.now();
    sys.run_until(now + SimDuration::from_millis(100));
    signal(&cluster.children[1], "CONT");
    for i in RESUME_AFTER + 1..=PUBLICATIONS {
        producer.publish(&mut sys, vacancy(i)).expect("publish");
    }
    assert!(
        run_until_deliveries(&mut sys, PUBLICATIONS as usize, 60_000),
        "publications across the freeze not delivered"
    );
    // Give a connection the resume broke time to be noticed and journaled.
    let now = sys.now();
    sys.run_until(now + SimDuration::from_millis(500));

    // `net.link_down` and `net.link_failed` journal `link.drop` and
    // `link.failed`; a heartbeat-silence `link.drop` is no connection loss.
    for (broker, (endpoint, cursor)) in endpoints.iter().zip(cursors).enumerate() {
        let losses: Vec<_> = journal_after(endpoint, cursor)
            .into_iter()
            .filter(|e| matches!(e.kind.as_str(), "link.drop" | "link.failed"))
            .filter(|e| !e.detail.contains("heartbeat-silence"))
            .collect();
        assert!(
            losses.is_empty(),
            "broker {broker} lost a link across the freeze: {losses:?}"
        );
    }
    assert_exactly_once(sys.client_log(CONSUMER).unwrap());

    drop(cluster);
    let _ = std::fs::remove_dir_all(&tmp);
}
