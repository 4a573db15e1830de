//! A three-process `rebeca-node` cluster on loopback, with the hygiene a
//! benchmark pipeline needs: children are killed on drop (panic included),
//! ports are probed and the whole set-up retried when one is stolen, config
//! and WAL live in a per-run directory removed on exit, and every wait has
//! a deadline so a wedged cluster fails in seconds instead of hanging.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rebeca::net::{ClusterConfig, Endpoint};
use rebeca::sim::{DelayModel, Topology};

/// Brokers in the cluster (a line: 0 – 1 – 2).
pub const BROKERS: usize = 3;

/// How long a broker process may take to report `listening`.
const READY_TIMEOUT: Duration = Duration::from_secs(15);

/// Processes spawned by this process so far (the `sim_*` bypass evidence).
static SPAWNED: AtomicU64 = AtomicU64::new(0);

/// Number of child processes this process has spawned.
pub fn processes_spawned() -> u64 {
    SPAWNED.load(Ordering::Relaxed)
}

/// What a child's stdout reader saw.
enum NodeLine {
    Ready,
    Done { line: String },
}

/// The counters a broker process prints on clean exit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeSummary {
    /// Messages the broker sent over links.
    pub link_messages: u64,
    /// Frames received from sockets.
    pub frames_in: u64,
    /// Frames handed to writer threads.
    pub frames_out: u64,
}

impl NodeSummary {
    /// Parses `rebeca-node: broker N done (link messages X, frames in Y,
    /// frames out Z)`.
    pub fn parse(line: &str) -> Option<Self> {
        let number_after = |key: &str| -> Option<u64> {
            let rest = &line[line.find(key)? + key.len()..];
            let digits: String = rest
                .trim_start()
                .chars()
                .take_while(char::is_ascii_digit)
                .collect();
            digits.parse().ok()
        };
        Some(Self {
            link_messages: number_after("link messages")?,
            frames_in: number_after("frames in")?,
            frames_out: number_after("frames out")?,
        })
    }
}

/// A running cluster.  Dropping it kills the processes, joins the stdout
/// readers and removes the run directory.
pub struct Cluster {
    children: Vec<Child>,
    readers: Vec<JoinHandle<()>>,
    lines: Receiver<(usize, NodeLine)>,
    dir: PathBuf,
    /// Listen endpoint of every broker, by broker index.
    pub endpoints: Vec<Endpoint>,
    /// The cluster config file (what `rebeca-ctl --config` would take).
    pub config_path: PathBuf,
}

/// How to start a cluster.
#[derive(Debug, Clone)]
pub struct ClusterSpec<'a> {
    /// The `rebeca-node` binary.
    pub node_bin: &'a Path,
    /// Parent of the per-run directory (inside the checkout).
    pub out_dir: &'a Path,
    /// Start every broker with `--persist-dir` (file WAL).
    pub persist: bool,
    /// `--run-secs`: matched to the run, so a broker that outlives the
    /// harness exits on its own and a traced run can wait for the clean-exit
    /// summary.
    pub run_secs: u64,
}

impl Cluster {
    /// Probes free ports, writes the config and spawns the brokers; retries
    /// the whole set-up when a probed port was taken in between.
    pub fn start(spec: &ClusterSpec<'_>) -> Result<Self, String> {
        static RUN: AtomicU64 = AtomicU64::new(0);
        let mut last_error = String::new();
        for _attempt in 0..3 {
            let dir = spec.out_dir.join(format!(
                "run-{}-{}",
                std::process::id(),
                RUN.fetch_add(1, Ordering::Relaxed)
            ));
            match Self::try_start(spec, dir) {
                Ok(cluster) => return Ok(cluster),
                Err(e) => last_error = e,
            }
        }
        Err(format!("cluster failed to start three times: {last_error}"))
    }

    fn try_start(spec: &ClusterSpec<'_>, dir: PathBuf) -> Result<Self, String> {
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        // From here on `Drop` removes the directory on every error path.
        let (tx, lines) = channel();
        let mut cluster = Cluster {
            children: Vec::new(),
            readers: Vec::new(),
            lines,
            config_path: dir.join("cluster.cfg"),
            dir,
            endpoints: Vec::new(),
        };
        // Bind all probes before reading any port, so the three differ.
        let probes: Vec<std::net::TcpListener> = (0..BROKERS)
            .map(|_| std::net::TcpListener::bind("127.0.0.1:0"))
            .collect::<Result<_, _>>()
            .map_err(|e| format!("probe bind: {e}"))?;
        cluster.endpoints = probes
            .iter()
            .map(|l| l.local_addr().map(|a| Endpoint::new("127.0.0.1", a.port())))
            .collect::<Result<_, _>>()
            .map_err(|e| format!("probe addr: {e}"))?;
        drop(probes);

        let config = ClusterConfig {
            endpoints: cluster.endpoints.clone(),
            topology: Topology::line(BROKERS),
            // Raw socket latency: no configured link delay.
            delay: DelayModel::Constant(0),
            seed: 7,
        };
        std::fs::write(&cluster.config_path, config.render())
            .map_err(|e| format!("write {}: {e}", cluster.config_path.display()))?;

        // Brokers start one after the other, each reporting `listening`
        // before the next is spawned: which dials succeed at once and which
        // wait for their 50 ms retry is then the same on every set-up
        // (started together, it is a race and `setup_s` comes out bimodal).
        for broker in 0..BROKERS {
            let mut command = Command::new(spec.node_bin);
            command
                .arg("--config")
                .arg(&cluster.config_path)
                .arg("--broker")
                .arg(broker.to_string())
                .arg("--run-secs")
                .arg(spec.run_secs.to_string());
            if spec.persist {
                command.arg("--persist-dir").arg(cluster.dir.join("wal"));
            }
            let mut child = command
                .stdin(Stdio::null())
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit())
                .spawn()
                .map_err(|e| format!("spawn {}: {e}", spec.node_bin.display()))?;
            SPAWNED.fetch_add(1, Ordering::Relaxed);
            let stdout = child.stdout.take().expect("stdout was piped");
            cluster.children.push(child);
            let tx = tx.clone();
            cluster.readers.push(std::thread::spawn(move || {
                // Reads to EOF, so the child never blocks on a full pipe.
                for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                    let event = if line.contains("listening") {
                        NodeLine::Ready
                    } else if line.contains(" done (") {
                        NodeLine::Done { line }
                    } else {
                        continue;
                    };
                    // Keep draining even when nobody listens any more.
                    let _ = tx.send((broker, event));
                }
            }));
            cluster.wait_listening(broker)?;
        }
        Ok(cluster)
    }

    /// Waits for `broker`'s `listening` line; an early exit (its probed port
    /// was taken in between) or silence past the deadline is an error.
    fn wait_listening(&mut self, broker: usize) -> Result<(), String> {
        let deadline = Instant::now() + READY_TIMEOUT;
        loop {
            match self.lines.recv_timeout(Duration::from_millis(20)) {
                Ok((b, NodeLine::Ready)) if b == broker => return Ok(()),
                Ok(_) | Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(format!("broker {broker} exited before listening"))
                }
            }
            if matches!(self.children[broker].try_wait(), Ok(Some(_))) {
                return Err(format!("broker {broker} exited before listening"));
            }
            if Instant::now() > deadline {
                return Err(format!("broker {broker} not listening in time"));
            }
        }
    }

    /// The broker process ids.
    pub fn pids(&self) -> Vec<u32> {
        self.children.iter().map(Child::id).collect()
    }

    /// Waits (up to `timeout`) for every broker to reach its `--run-secs`
    /// and print its clean-exit summary; `None` for a broker that did not.
    pub fn wait_clean_exit(&mut self, timeout: Duration) -> Vec<Option<NodeSummary>> {
        let deadline = Instant::now() + timeout;
        let mut summaries = vec![None; BROKERS];
        while summaries.iter().any(Option::is_none) {
            let left = deadline.saturating_duration_since(Instant::now());
            match self.lines.recv_timeout(left) {
                Ok((broker, NodeLine::Done { line })) => {
                    summaries[broker] = NodeSummary::parse(&line)
                }
                Ok(_) => {}
                Err(_) => break,
            }
        }
        summaries
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        for child in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
        for reader in self.readers.drain(..) {
            let _ = reader.join();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_exit_summary_parses() {
        let s = NodeSummary::parse(
            "rebeca-node: broker 1 done (link messages 120, frames in 77, frames out 9)",
        );
        assert_eq!(
            s,
            Some(NodeSummary {
                link_messages: 120,
                frames_in: 77,
                frames_out: 9
            })
        );
        assert_eq!(NodeSummary::parse("rebeca-node: broker 1 listening"), None);
    }

    #[test]
    fn a_missing_binary_fails_fast_and_cleans_up() {
        let out = std::env::temp_dir().join(format!("rebeca-bench-test-{}", std::process::id()));
        let err = Cluster::start(&ClusterSpec {
            node_bin: Path::new("/nonexistent/rebeca-node"),
            out_dir: &out,
            persist: false,
            run_secs: 1,
        })
        .err()
        .expect("must fail");
        assert!(err.contains("spawn"), "{err}");
        let leftovers = std::fs::read_dir(&out).map(|d| d.count()).unwrap_or(0);
        assert_eq!(leftovers, 0, "run directories are removed");
        let _ = std::fs::remove_dir_all(&out);
    }
}
