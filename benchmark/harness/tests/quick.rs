//! The benchmark checks itself: `BENCHMARK.json` lists exactly the metrics
//! the binaries print, and a `--quick` pass of every workload (≈2 s each,
//! same code paths) prints every listed metric exactly once with its unit,
//! finds no failed delivery, writes its trace file and — on the simulator
//! workloads — touches no socket and spawns no process.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

use rebeca_benchmark::inputs::Workload;
use rebeca_benchmark::report::{END_TO_END, PER_LAYER};

// ---------------------------------------------------------------------------
// A JSON reader just big enough for BENCHMARK.json and the result line.
// Objects keep their members in order, duplicates included, so "printed
// exactly once" is checkable.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Number(f64),
    Text(String),
    Array(Vec<Json>),
    Object(Vec<(String, Json)>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let bytes = text.as_bytes();
        let mut at = 0;
        let value = Self::value(bytes, &mut at);
        Self::space(bytes, &mut at);
        assert_eq!(at, bytes.len(), "trailing characters after JSON value");
        value
    }

    fn space(b: &[u8], at: &mut usize) {
        while *at < b.len() && b[*at].is_ascii_whitespace() {
            *at += 1;
        }
    }

    fn value(b: &[u8], at: &mut usize) -> Json {
        Self::space(b, at);
        match b[*at] {
            b'{' => {
                *at += 1;
                let mut members = Vec::new();
                loop {
                    Self::space(b, at);
                    if b[*at] == b'}' {
                        *at += 1;
                        return Json::Object(members);
                    }
                    let Json::Text(key) = Self::value(b, at) else {
                        panic!("object key must be a string");
                    };
                    Self::space(b, at);
                    assert_eq!(b[*at], b':');
                    *at += 1;
                    members.push((key, Self::value(b, at)));
                    Self::space(b, at);
                    if b[*at] == b',' {
                        *at += 1;
                    }
                }
            }
            b'[' => {
                *at += 1;
                let mut items = Vec::new();
                loop {
                    Self::space(b, at);
                    if b[*at] == b']' {
                        *at += 1;
                        return Json::Array(items);
                    }
                    items.push(Self::value(b, at));
                    Self::space(b, at);
                    if b[*at] == b',' {
                        *at += 1;
                    }
                }
            }
            b'"' => {
                *at += 1;
                let start = *at;
                while b[*at] != b'"' {
                    assert_ne!(b[*at], b'\\', "escapes are not used in these files");
                    *at += 1;
                }
                *at += 1;
                Json::Text(String::from_utf8(b[start..*at - 1].to_vec()).expect("utf-8"))
            }
            b't' => {
                *at += 4;
                Json::Bool(true)
            }
            b'f' => {
                *at += 5;
                Json::Bool(false)
            }
            b'n' => {
                *at += 4;
                Json::Null
            }
            _ => {
                let start = *at;
                while *at < b.len()
                    && matches!(b[*at], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                {
                    *at += 1;
                }
                let text = std::str::from_utf8(&b[start..*at]).expect("ascii");
                Json::Number(
                    text.parse()
                        .unwrap_or_else(|_| panic!("bad number {text:?}")),
                )
            }
        }
    }

    fn get(&self, key: &str) -> &Json {
        let Json::Object(members) = self else {
            panic!("not an object: {self:?}");
        };
        let mut hits = members.iter().filter(|(k, _)| k == key);
        let hit = hits.next().unwrap_or_else(|| panic!("missing key {key:?}"));
        assert!(hits.next().is_none(), "key {key:?} appears more than once");
        &hit.1
    }

    fn members(&self) -> &[(String, Json)] {
        match self {
            Json::Object(members) => members,
            other => panic!("not an object: {other:?}"),
        }
    }

    fn items(&self) -> &[Json] {
        match self {
            Json::Array(items) => items,
            other => panic!("not an array: {other:?}"),
        }
    }

    fn text(&self) -> &str {
        match self {
            Json::Text(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }
}

// ---------------------------------------------------------------------------

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root")
}

fn benchmark_json() -> Json {
    let path = repo_root().join("BENCHMARK.json");
    Json::parse(
        &std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display())),
    )
}

fn listed(section: &Json) -> Vec<(String, String)> {
    section
        .items()
        .iter()
        .map(|m| {
            (
                m.get("name").text().to_string(),
                m.get("unit").text().to_string(),
            )
        })
        .collect()
}

fn catalogue(entries: &[(&str, &str)]) -> Vec<(String, String)> {
    entries
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn benchmark_json_lists_exactly_what_the_binaries_print() {
    let bench = benchmark_json();
    assert_eq!(listed(bench.get("end_to_end")), catalogue(END_TO_END));
    assert_eq!(listed(bench.get("per_layer")), catalogue(PER_LAYER));
    let workloads: Vec<&str> = bench
        .get("workloads")
        .items()
        .iter()
        .map(|w| w.get("name").text())
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
    assert_eq!(bench.get("paths").items(), [Json::Text("benchmark".into())]);

    let mut names = BTreeSet::new();
    let name_ok = |s: &str| {
        !s.is_empty()
            && s.len() <= 64
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    };
    let unit_ok = |s: &str| {
        !s.is_empty()
            && s.len() <= 16
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    };
    for section in ["workloads", "end_to_end", "per_layer"] {
        for entry in bench.get(section).items() {
            let name = entry.get("name").text();
            assert!(name_ok(name), "bad name {name:?}");
            assert!(
                names.insert(name.to_string()),
                "name {name:?} is used twice"
            );
            if section != "workloads" {
                assert!(unit_ok(entry.get("unit").text()), "bad unit on {name}");
            }
        }
    }
    for m in bench.get("end_to_end").items() {
        let Json::Number(bound) = m.get("bound") else {
            panic!("bound must be a number");
        };
        assert!(
            *bound > 0.0 && *bound <= 0.25,
            "bound of {:?}",
            m.get("name")
        );
    }
    let setup = bench
        .get("end_to_end")
        .items()
        .iter()
        .find(|m| m.get("name").text() == "setup_s")
        .expect("setup_s is listed");
    assert_eq!(
        (setup.get("unit").text(), setup.get("better").text()),
        ("s", "lower")
    );
}

/// Builds a release binary into this test's target directory.  The quick
/// pass runs optimised builds whatever profile the test itself has: at
/// 4 000 publications a second an unoptimised broker is simply overloaded,
/// and the pass would check the overload instead of the benchmark.
fn build_release(manifest: &Path, package: &str, bin: &str) -> PathBuf {
    let target_dir = Path::new(env!("CARGO_BIN_EXE_harness"))
        .parent()
        .and_then(Path::parent)
        .expect("target directory");
    let status = Command::new(env!("CARGO"))
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
        ])
        .arg(manifest)
        .args(["-p", package, "--bin", bin])
        .env("CARGO_TARGET_DIR", target_dir)
        .status()
        .expect("run cargo");
    assert!(status.success(), "building {bin} failed");
    let built = target_dir.join("release").join(bin);
    assert!(built.exists(), "{} was not built", built.display());
    built
}

struct Outcome {
    result: Json,
    stderr: String,
}

fn quick_run(
    binary: &Path,
    node_bin: &Path,
    out_dir: &Path,
    workload: Workload,
    trace: u8,
) -> Outcome {
    let output = Command::new(binary)
        .args([
            "--workload",
            workload.name(),
            "--seed",
            "11",
            "--quick",
            "--trace",
        ])
        .arg(trace.to_string())
        .arg("--node-bin")
        .arg(node_bin)
        .arg("--out-dir")
        .arg(out_dir)
        .output()
        .expect("run benchmark binary");
    let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
    assert!(
        output.status.success(),
        "{} --trace {trace} failed:\n{stderr}",
        workload.name()
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().expect("a result line");
    Outcome {
        result: Json::parse(last),
        stderr,
    }
}

fn assert_result(outcome: &Outcome, expected: &[(&str, &str)], what: &str) {
    let result = &outcome.result;
    let keys: Vec<&str> = result.members().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        ["correct", "attempted", "failed", "metrics"],
        "{what}"
    );
    assert_eq!(result.get("correct"), &Json::Bool(true), "{what}");
    assert_eq!(result.get("failed"), &Json::Number(0.0), "{what}");
    let Json::Number(attempted) = result.get("attempted") else {
        panic!("{what}: attempted must be a number");
    };
    assert!(*attempted >= 1.0, "{what}");
    let printed: Vec<(String, String)> = result
        .get("metrics")
        .members()
        .iter()
        .map(|(name, m)| {
            assert!(
                matches!(m.get("value"), Json::Number(v) if v.is_finite()),
                "{what} {name}"
            );
            (name.clone(), m.get("unit").text().to_string())
        })
        .collect();
    // Same names, same units, each exactly once (order is free).
    let mut printed_sorted = printed.clone();
    printed_sorted.sort();
    let mut expected_sorted = catalogue(expected);
    expected_sorted.sort();
    assert_eq!(printed_sorted, expected_sorted, "{what}");
}

#[test]
fn quick_pass_prints_every_listed_metric_once_and_stays_correct() {
    let root = repo_root();
    let manifest = root.join("benchmark/Cargo.toml");
    let harness = build_release(&manifest, "rebeca-benchmark", "harness");
    let traced = build_release(&manifest, "rebeca-benchmark-traced", "traced");
    let node = build_release(&root.join("Cargo.toml"), "rebeca-net", "rebeca-node");
    let out_dir = root.join(format!("benchmark/out/quick-test-{}", std::process::id()));

    for workload in Workload::ALL {
        let end_to_end = quick_run(&harness, &node, &out_dir, workload, 0);
        assert_result(&end_to_end, END_TO_END, workload.name());
        if !workload.is_tcp() {
            assert!(
                end_to_end
                    .stderr
                    .contains("sockets_open=0 processes_spawned=0"),
                "{} must not touch a socket or spawn a process:\n{}",
                workload.name(),
                end_to_end.stderr
            );
        }

        let per_layer = quick_run(&traced, &node, &out_dir, workload, 1);
        assert_result(&per_layer, PER_LAYER, workload.name());
        let trace = out_dir.join(format!("trace-{}.json", workload.name()));
        let spans = Json::parse(&std::fs::read_to_string(&trace).expect("trace file"));
        assert_eq!(spans.get("workload").text(), workload.name());
        assert!(!spans.get("spans").items().is_empty());
        let metric = |name: &str| match per_layer.result.get("metrics").get(name).get("value") {
            Json::Number(v) => *v,
            other => panic!("{name}: {other:?}"),
        };
        if workload == Workload::TcpRest {
            // The bypass: a workload at rest never touches the WAL and
            // holds one routing entry per consumer.
            assert_eq!(metric("mobility.wal_depth_max"), 0.0);
            assert!(metric("routing.entries") <= 2.0);
        }
        if !workload.is_tcp() {
            assert_eq!(metric("net.tcp_hop_us"), 0.0);
            assert_eq!(metric("net.frames_out_per_pub"), 0.0);
        }
    }
    // Run directories clean up after themselves; only trace files remain.
    let leftovers: Vec<_> = std::fs::read_dir(&out_dir)
        .expect("out dir")
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().starts_with("run-"))
        .collect();
    assert!(
        leftovers.is_empty(),
        "run directories left behind: {leftovers:?}"
    );
    let _ = std::fs::remove_dir_all(&out_dir);
}
