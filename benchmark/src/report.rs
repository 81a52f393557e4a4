//! Metric definitions and output. The tables here are the single
//! source for `BENCHMARK.json` (`bench manifest` prints it) and for the
//! check that a run emitted every metric it declares.

use std::fmt::Write as _;

use crate::worlds::SPECS;

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.to_owned(),
            value,
            unit,
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// `run_seconds` of BENCHMARK.json, and the default of `all` and `aa`.
pub const RUN_SECONDS: u64 = 15;

/// What a user of the cluster sees, per workload.
pub const END_TO_END: [EndToEnd; 8] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("idle_p50_ms", "ms", "lower", 0.25),
    e2e("paced_p50_ms", "ms", "lower", 0.25),
    e2e("goodput_qps", "1/s", "higher", 0.25),
    e2e("wire_bytes_per_query", "B", "lower", 0.01),
    e2e("frames_per_query", "count", "lower", 0.01),
    e2e("peak_rss_mb", "MB", "lower", 0.25),
    e2e("recover_s", "s", "lower", 0.25),
];

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// `(name, unit, better)` of every per-layer metric; README.md says
/// which end-to-end metric each should move, and on which workload.
pub const PER_LAYER: [(&str, &str, &str); 68] = [
    ("xml.canon_tokenize_mb_s", "MB/s", "higher"),
    ("xml.canon_build_mb_s", "MB/s", "higher"),
    ("algebra.plan_decode_mb_s", "MB/s", "higher"),
    ("algebra.plan_encode_mb_s", "MB/s", "higher"),
    ("algebra.plan_decode_small_us", "us", "lower"),
    ("core.mqp_from_wire_us.small", "us", "lower"),
    ("core.mqp_from_wire_us.bulk", "us", "lower"),
    ("core.mqp_to_wire_us.small", "us", "lower"),
    ("core.mqp_to_wire_us.bulk", "us", "lower"),
    ("core.process_us.bind", "us", "lower"),
    ("core.process_us.forward", "us", "lower"),
    ("core.process_us.reduce", "us", "lower"),
    ("core.rewrite_normalize_us", "us", "lower"),
    ("engine.compile_us", "us", "lower"),
    ("engine.eval_join_kitems_s", "kitems/s", "higher"),
    ("engine.eval_select_kitems_s", "kitems/s", "higher"),
    ("catalog.entries", "count", "lower"),
    ("catalog.bind_area_us", "us", "lower"),
    ("catalog.route_for_us", "us", "lower"),
    ("catalog.register_us", "us", "lower"),
    ("catalog.wal_log_us", "us", "lower"),
    ("catalog.wal_bytes_per_op", "B", "lower"),
    ("catalog.compact_ms", "ms", "lower"),
    ("catalog.recover_ms", "ms", "lower"),
    ("peer.frame_encode_ns", "ns", "lower"),
    ("peer.frame_decode_ns", "ns", "lower"),
    ("peer.framing_mb_s", "MB/s", "higher"),
    ("peer.wire_decode_us.small", "us", "lower"),
    ("peer.wire_decode_us.bulk", "us", "lower"),
    ("peer.wire_encode_us.small", "us", "lower"),
    ("peer.wire_encode_us.bulk", "us", "lower"),
    ("peer.node_core_ms_per_query", "ms", "lower"),
    ("peer.tcp_host_ms_per_hop", "ms", "lower"),
    ("peer.tcp_host_share", "%", "lower"),
    ("peer.tcp_ping_us", "us", "lower"),
    ("peer.tcp_idle_p50_ms", "ms", "lower"),
    ("peer.tcp_goodput_qps", "1/s", "higher"),
    ("peer.threaded_idle_p50_ms", "ms", "lower"),
    ("peer.threaded_goodput_qps", "1/s", "higher"),
    ("peer.tcp_connects", "count", "lower"),
    ("peer.tcp_retries", "count", "lower"),
    ("peer.tcp_dropped", "count", "lower"),
    ("peer.retry_detour_ms", "ms", "lower"),
    ("peer.hops_per_query", "count", "lower"),
    ("host.cpu_ms_per_query", "ms", "lower"),
    ("host.idle_cpu_pct", "%", "lower"),
    ("net.sim_queries_per_s", "1/s", "higher"),
    ("net.sim_events_per_s", "1/s", "higher"),
    ("net.mesh_roundtrip_us", "us", "lower"),
    ("lang.parse_query_us", "us", "lower"),
    ("namespace.area_overlap_ns", "ns", "lower"),
    ("load.paced_tail_ms", "ms", "lower"),
    ("load.paced_late_p99_ms", "ms", "lower"),
    ("load.paced_tail_pct", "%", "higher"),
    ("load.paced_tail_samples_beyond", "count", "higher"),
    ("load.fail_share", "%", "lower"),
    ("trace.queries", "count", "higher"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.reconcile_gap_pct", "%", "lower"),
    ("trace.self_us_per_query.xml", "us", "lower"),
    ("trace.self_us_per_query.algebra", "us", "lower"),
    ("trace.self_us_per_query.core", "us", "lower"),
    ("trace.self_us_per_query.engine", "us", "lower"),
    ("trace.self_us_per_query.catalog", "us", "lower"),
    ("trace.self_us_per_query.peer", "us", "lower"),
    ("trace.self_us_per_query.peer_framing", "us", "lower"),
    ("trace.self_us_per_query.peer_node", "us", "lower"),
    ("trace.spans_per_query", "count", "lower"),
];

/// One run's result, as the contract's last line wants it.
pub struct RunOutput {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
    /// Lines for a human: phases, sample counts, what failed.
    pub notes: Vec<String>,
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A float with all its digits, or 0 for what JSON cannot carry.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

impl RunOutput {
    /// Panics unless `self.metrics` is exactly the declared set.
    pub fn assert_complete(&self, declared: &[&str]) {
        let got: Vec<&str> = self.metrics.iter().map(|m| m.name.as_str()).collect();
        for name in declared {
            assert!(
                got.contains(name),
                "declared metric {name} was not measured"
            );
        }
        for name in &got {
            assert!(declared.contains(name), "metric {name} is not declared");
        }
        assert_eq!(got.len(), declared.len(), "a metric was emitted twice");
    }

    /// The one-line JSON object the driver reads.
    pub fn to_json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(&m.name),
                    json_num(m.value),
                    json_str(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// Name, value and unit of every metric, one per line.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ = writeln!(out, "  {:<44} {:>16.4} {}", m.name, m.value, m.unit);
        }
        out
    }
}

pub fn e2e_names() -> Vec<&'static str> {
    END_TO_END.iter().map(|m| m.name).collect()
}

pub fn per_layer_names() -> Vec<&'static str> {
    PER_LAYER.iter().map(|m| m.0).collect()
}

/// `BENCHMARK.json`, from the tables above.
pub fn manifest() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, s) in SPECS.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"name\": {}, \"why\": {}}}",
            json_str(s.name),
            json_str(s.why)
        );
        out.push_str(if i + 1 < SPECS.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
            json_str(m.name),
            json_str(m.unit),
            json_str(m.better),
            m.bound
        );
        out.push_str(if i + 1 < END_TO_END.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, (name, unit, better)) in PER_LAYER.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
            json_str(name),
            json_str(unit),
            json_str(better)
        );
        out.push_str(if i + 1 < PER_LAYER.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}
