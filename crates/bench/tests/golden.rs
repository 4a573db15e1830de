//! Golden outputs of the paper experiments.
//!
//! Each `exp_*` binary reproduces one figure or table of the paper from a
//! seeded, deterministic simulation, so its standard output is a fixed
//! text. This test runs all eight (`exp_fig9` with `--quick`) and compares
//! their output byte for byte with `tests/golden/exp_*.txt`. A change that
//! moves any reproduced count (a link message, a lost or duplicated
//! publication, a replay) shows up here as a diff.
//!
//! When a change is meant to move a count, regenerate the file with
//! `cargo run -q -p rebeca-bench --bin exp_<name> > crates/bench/tests/golden/exp_<name>.txt`
//! (adding `-- --quick` for `exp_fig9`) and name the moved count and its
//! cause in the change's description.

use std::path::Path;
use std::process::Command;

fn check(name: &str, binary: &str, args: &[&str]) -> Result<(), String> {
    let output = Command::new(binary)
        .args(args)
        .output()
        .map_err(|e| format!("{name}: cannot run {binary}: {e}"))?;
    if !output.status.success() {
        return Err(format!("{name}: exited with {}", output.status));
    }
    let golden = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"));
    let expected =
        std::fs::read(&golden).map_err(|e| format!("{name}: cannot read {golden:?}: {e}"))?;
    if output.stdout == expected {
        return Ok(());
    }
    Err(format!(
        "{name} differs from {golden:?}:\n--- expected\n{}\n--- got\n{}",
        String::from_utf8_lossy(&expected),
        String::from_utf8_lossy(&output.stdout)
    ))
}

#[test]
fn paper_experiments_print_their_golden_outputs() {
    let runs = [
        ("exp_fig2", env!("CARGO_BIN_EXE_exp_fig2"), &[][..]),
        ("exp_fig3", env!("CARGO_BIN_EXE_exp_fig3"), &[]),
        ("exp_fig5", env!("CARGO_BIN_EXE_exp_fig5"), &[]),
        ("exp_fig9", env!("CARGO_BIN_EXE_exp_fig9"), &["--quick"]),
        ("exp_table1", env!("CARGO_BIN_EXE_exp_table1"), &[]),
        ("exp_table2", env!("CARGO_BIN_EXE_exp_table2"), &[]),
        ("exp_table3", env!("CARGO_BIN_EXE_exp_table3"), &[]),
        ("exp_table4", env!("CARGO_BIN_EXE_exp_table4"), &[]),
    ];
    let failures: Vec<String> = runs
        .iter()
        .filter_map(|(name, binary, args)| check(name, binary, args).err())
        .collect();
    assert!(failures.is_empty(), "{}", failures.join("\n\n"));
}
