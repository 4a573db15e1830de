//! The repo benchmark's end-to-end harness.
//!
//! Five workloads drive the middleware end to end through the `rebeca`
//! facade only (`SystemBuilder`, `Session`, `MobilitySystem`,
//! `ClusterConfig`, `SystemBuilderTcp`) and the `rebeca-node` CLI:
//! three against a 3-process TCP cluster on loopback, two on the
//! deterministic simulator.  See `benchmark/README.md` for the metric
//! glossary and the reason each workload exists.
//!
//! The sibling package `rebeca-benchmark-traced` reuses the input
//! generation, the workloads (with spans on) and the report format from
//! this library and adds the per-layer loops.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod cluster;
pub mod e2e;
pub mod inputs;
pub mod oracle;
pub mod population;
pub mod procstat;
pub mod report;
pub mod sim;
pub mod spans;
pub mod stats;
pub mod tcp;

/// Prefixes an error with what was being attempted (`map_err(err("..."))`).
pub(crate) fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}
