//! The result line of one run and the metric catalogue it is checked
//! against.
//!
//! A run prints a human-readable table to stderr and, as the last line of
//! stdout, one JSON object: `correct`, `attempted`, `failed` and `metrics`.
//! `BENCHMARK.json` lists the same names and units; the `quick` test of
//! this package fails when the two drift apart.

use std::fmt::Write as _;

/// End-to-end metrics printed by every `--trace 0` run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("deliver_p10_us", "us"),
    ("pubs_per_s", "1/s"),
    ("cpu_us_per_pub", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics printed by every `--trace 1` run: `(name, unit)`.
/// A metric whose layer the workload bypasses reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("filter.matches_ns", "ns"),
    ("filter.notification_clone_ns", "ns"),
    ("filter.notification_wire_bytes", "bytes"),
    ("matcher.match_ns", "ns"),
    ("matcher.match_batch_ns_per_item", "ns"),
    ("matcher.insert_ns", "ns"),
    ("matcher.remove_ns", "ns"),
    ("matcher.covering_probe_ns", "ns"),
    ("matcher.predicates", "count"),
    ("routing.route_ns", "ns"),
    ("routing.subscribe_ns", "ns"),
    ("routing.unsubscribe_ns", "ns"),
    ("routing.entries", "count"),
    ("routing.subgroups", "count"),
    ("routing.control_msgs_per_move", "count"),
    ("broker.route_transit_ns", "ns"),
    ("broker.route_border_ns", "ns"),
    ("broker.publish_ns", "ns"),
    ("broker.allocs_per_pub_transit", "count"),
    ("broker.allocs_per_pub_border", "count"),
    ("broker.alloc_bytes_per_pub_border", "bytes"),
    ("mobility.wal_append_mem_ns", "ns"),
    ("mobility.wal_append_file_ns", "ns"),
    ("mobility.wal_record_bytes", "bytes"),
    ("mobility.recover_us_per_krecord", "us"),
    ("mobility.replay_ns_per_delivery", "ns"),
    ("mobility.replayed_per_move", "count"),
    ("mobility.wal_depth_max", "count"),
    ("mobility.handoff_hist_p50_us", "us"),
    ("mobility.handoff_hist_p99_us", "us"),
    ("retain.append_ns", "ns"),
    ("retain.fetch_recent_us", "us"),
    ("retain.fetch_half_us", "us"),
    ("retain.retained_publications", "count"),
    ("location.location_sets_ns", "ns"),
    ("core.broker_handle_ns", "ns"),
    ("core.client_handle_ns", "ns"),
    ("core.session_publish_ns", "ns"),
    ("core.sim_events_per_s", "1/s"),
    ("core.threaded_hop_us", "us"),
    ("sim.dispatch_ns", "ns"),
    ("net.wire_encode_ns", "ns"),
    ("net.wire_decode_ns", "ns"),
    ("net.wire_bytes_per_pub", "bytes"),
    ("net.tcp_hop_us", "us"),
    ("net.frames_out_per_pub", "count"),
    ("net.frames_in_per_pub", "count"),
    ("net.link_msgs_per_pub", "count"),
    ("obs.incr_ns", "ns"),
    ("obs.status_fetch_us", "us"),
    ("obs.status_json_bytes", "bytes"),
    ("gen.lateness_p99_us", "us"),
    ("gen.backlog_at_end", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("ledger.accounted_us_per_pub", "us"),
    ("ledger.unexplained_us_per_pub", "us"),
    ("ledger.unexplained_latency_us", "us"),
    ("e2e.deliver_p50_us", "us"),
    ("e2e.deliver_p90_us", "us"),
    ("e2e.deliver_p99_us", "us"),
    ("e2e.handoffs", "count"),
    ("e2e.blackout_p50_ms", "ms"),
    ("e2e.blackout_p90_ms", "ms"),
    ("e2e.mobility_ops_per_s", "1/s"),
    ("e2e.deliveries_per_pub", "count"),
    ("e2e.failed_ops_ratio", "ratio"),
    ("e2e.latency_limit_met", "bool"),
];

/// The metrics of one run, in insertion order.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// An empty collection.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a metric.  Panics on a duplicate name or a non-finite value:
    /// both are harness bugs, not measurements.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(
            self.get(name).is_none(),
            "metric {name} recorded more than once"
        );
        self.entries.push((name.to_string(), value, unit));
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries.iter().find(|e| e.0 == name).map(|e| e.1)
    }

    /// Every recorded `(name, value, unit)`.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64, &'static str)> {
        self.entries.iter().map(|e| (e.0.as_str(), e.1, e.2))
    }

    /// Checks that exactly the catalogue's metrics were recorded, with the
    /// catalogue's units.
    pub fn check_against(&self, catalogue: &[(&str, &str)]) -> Result<(), String> {
        for (name, unit) in catalogue {
            match self.entries.iter().find(|e| e.0 == *name) {
                None => return Err(format!("metric {name} was not measured")),
                Some(e) if e.2 != *unit => {
                    return Err(format!("metric {name} has unit {} not {unit}", e.2))
                }
                Some(_) => {}
            }
        }
        match self
            .entries
            .iter()
            .find(|e| !catalogue.iter().any(|c| c.0 == e.0))
        {
            Some(extra) => Err(format!("metric {} is not in the catalogue", extra.0)),
            None => Ok(()),
        }
    }
}

/// The outcome of one run.
#[derive(Debug)]
pub struct RunResult {
    /// `false` when the oracle found a failure class the workload cannot
    /// explain (or the determinism digests differ).
    pub correct: bool,
    /// Deliveries owed to consumers.
    pub attempted: u64,
    /// Lost + duplicated + out-of-order + outside-filter deliveries.
    pub failed: u64,
    /// The measured metrics.
    pub metrics: Metrics,
}

impl RunResult {
    /// The one-line JSON object the driver reads.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }

    /// A table for people, one metric per line.
    pub fn to_table(&self) -> String {
        let mut s = String::new();
        for (name, value, unit) in self.metrics.iter() {
            let _ = writeln!(s, "  {name:<40} {value:>16.4} {unit}");
        }
        let _ = writeln!(
            s,
            "  correct={} attempted={} failed={}",
            self.correct, self.attempted, self.failed
        );
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_check_names_the_problem() {
        let mut m = Metrics::new();
        m.set("a", 1.0, "s");
        assert!(m.check_against(&[("a", "s")]).is_ok());
        assert!(m
            .check_against(&[("a", "ms")])
            .unwrap_err()
            .contains("unit"));
        assert!(m
            .check_against(&[("a", "s"), ("b", "s")])
            .unwrap_err()
            .contains("not measured"));
        assert!(m.check_against(&[]).unwrap_err().contains("catalogue"));
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut metrics = Metrics::new();
        metrics.set("setup_s", 0.25, "s");
        let r = RunResult {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics,
        };
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
