//! The command line both benchmark binaries share:
//! `--workload <name> --seed <n> --seconds <s> --trace <0|1>`, plus
//! `--quick`, `--node-bin` and `--out-dir`.

use std::path::PathBuf;

use crate::inputs::{Sizes, Workload};

/// Parsed command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// The workload to run.
    pub workload: Workload,
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Seconds one run measures.
    pub seconds: f64,
    /// `--trace 1`: the traced run (per-layer metrics).
    pub trace: bool,
    /// `--quick`: ≈2 s per workload on shrunken populations, same code
    /// paths; its numbers mean nothing.
    pub quick: bool,
    /// The `rebeca-node` binary (default: next to this executable).
    pub node_bin: PathBuf,
    /// Where run directories and trace files go (default `benchmark/out`).
    pub out_dir: PathBuf,
}

impl Args {
    /// Parses `std::env::args()`.
    pub fn from_env() -> Result<Self, String> {
        Self::parse(std::env::args().skip(1))
    }

    /// Parses an argument list.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = false;
        let mut quick = false;
        let mut node_bin = None;
        let mut out_dir = None;
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or_else(|| format!("{flag} expects a value"));
            match flag.as_str() {
                "--workload" => {
                    let name = value()?;
                    workload = Some(
                        Workload::parse(&name)
                            .ok_or_else(|| format!("unknown workload {name:?}"))?,
                    );
                }
                "--seed" => {
                    seed = Some(
                        value()?
                            .parse::<u64>()
                            .map_err(|_| "--seed expects a whole number".to_string())?,
                    )
                }
                "--seconds" => {
                    let s = value()?
                        .parse::<f64>()
                        .map_err(|_| "--seconds expects a number".to_string())?;
                    if !(s > 0.0 && s <= 120.0) {
                        return Err("--seconds must be in (0, 120]".into());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace expects 0 or 1, not {other:?}")),
                    }
                }
                "--quick" => quick = true,
                "--node-bin" => node_bin = Some(PathBuf::from(value()?)),
                "--out-dir" => out_dir = Some(PathBuf::from(value()?)),
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        let node_bin = match node_bin {
            Some(path) => path,
            None => std::env::current_exe()
                .map_err(|e| format!("current_exe: {e}"))?
                .with_file_name("rebeca-node"),
        };
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.unwrap_or(if quick { 2.0 } else { 20.0 }),
            trace,
            quick,
            node_bin,
            out_dir: out_dir.unwrap_or_else(|| PathBuf::from("benchmark/out")),
        })
    }

    /// Population sizes of this run.
    pub fn sizes(&self) -> Sizes {
        if self.quick {
            Sizes::QUICK
        } else {
            Sizes::FULL
        }
    }

    /// Set-ups a simulator run times for a steady `setup_s`.
    pub fn setups(&self) -> usize {
        if self.quick {
            1
        } else {
            3
        }
    }

    /// Rounds of a TCP run, each on a cluster of its own for an equal share
    /// of `--seconds`; the run reports the median over them.
    pub fn rounds(&self) -> usize {
        if self.quick {
            1
        } else {
            5
        }
    }
}

/// The usage line printed on a bad command line.
pub const USAGE: &str =
    "usage: --workload <tcp_rest|tcp_fanout|tcp_handoff|sim_match|sim_mobility> \
--seed <n> [--seconds <s>] [--trace <0|1>] [--quick] [--node-bin PATH] [--out-dir DIR]";

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn the_driver_command_line_parses() {
        let a = parse(&[
            "--workload",
            "tcp_rest",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .expect("parses");
        assert_eq!(a.workload, Workload::TcpRest);
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.quick),
            (7, 10.0, true, false)
        );
    }

    #[test]
    fn bad_command_lines_are_rejected() {
        assert!(parse(&["--seed", "1"]).unwrap_err().contains("--workload"));
        assert!(parse(&["--workload", "x", "--seed", "1"]).is_err());
        assert!(parse(&["--workload", "tcp_rest", "--seed", "-1"]).is_err());
        assert!(parse(&["--workload", "tcp_rest", "--seed", "1", "--trace", "2"]).is_err());
        assert!(parse(&["--workload", "tcp_rest", "--seed", "1", "--bogus"]).is_err());
    }
}
