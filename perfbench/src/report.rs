//! Metric names and units, the human-readable report, and the final JSON
//! line. The tables here mirror `BENCHMARK.json`; the self-test checks
//! that the two agree.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("fires_per_s", "1/s"),
    ("fire_p50_us", "us"),
    ("fire_p99_us", "us"),
    ("start_p99_us", "us"),
    ("poll_p99_us", "us"),
    ("compile_p50_us", "us"),
    ("verify_p50_us", "us"),
    ("verify_p99_us", "us"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run. A layer the workload
/// does not exercise reads 0 and is listed as idle in the report.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.protocol.decode_ns_per_req", "ns"),
    ("serve.protocol.encode_ns_per_resp", "ns"),
    ("serve.protocol.bytes_per_fire", "bytes"),
    ("serve.server.socket_us_per_burst", "us"),
    ("runtime.fire_runs_ns_per_fire", "ns"),
    ("engine.scheduler.fire_event_ns", "ns"),
    ("store.append_us_p50", "us"),
    ("store.append_us_p99", "us"),
    ("store.sync_us_p50", "us"),
    ("store.sync_us_p99", "us"),
    ("store.fsyncs_per_fire", "ratio"),
    ("store.events_per_append", "ratio"),
    ("store.frames_per_sync", "ratio"),
    ("store.bytes_per_event", "bytes"),
    ("store.appends.deploy", "count"),
    ("store.appends.start", "count"),
    ("store.appends.events", "count"),
    ("store.appends.complete", "count"),
    ("store.appends.timer_arm", "count"),
    ("store.appends.timer_fire", "count"),
    ("store.appends.timer_cancel", "count"),
    ("runtime.eligible_ns", "ns"),
    ("runtime.start_us", "us"),
    ("runtime.advance_us_per_expiry", "us"),
    ("runtime.wheel.armed", "count"),
    ("runtime.wheel.expired", "count"),
    ("runtime.wheel.pending_peak", "count"),
    ("parser.parse_spec_us", "us"),
    ("workflow.to_goal_us", "us"),
    ("core.apply_us", "us"),
    ("core.applied_size", "count"),
    ("core.excise_us", "us"),
    ("core.knots", "count"),
    ("core.memo.hit_ratio", "ratio"),
    ("core.memo.entries", "count"),
    ("loadgen.late_p99_us", "us"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.layer_sum_ratio", "ratio"),
    ("trace.spans", "count"),
];

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("metric {name} is not declared"))
}

/// Everything one run found: metrics, notes for the human report,
/// attempted and failed operations, and correctness errors.
#[derive(Default)]
pub struct Report {
    metrics: BTreeMap<&'static str, f64>,
    pub notes: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    /// The first correctness failures, and how many there were in all.
    errors: Vec<String>,
    error_count: usize,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        unit_of(name);
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Records a correctness failure unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            if self.errors.len() < 50 {
                self.errors.push(what());
            }
            self.error_count += 1;
        }
    }

    /// Prints the report lines and the final JSON line. With `trace`
    /// the JSON carries the per-layer metrics, otherwise the end-to-end
    /// ones.
    pub fn print(&mut self, trace: bool) {
        let table = if trace { PER_LAYER } else { END_TO_END };
        for (name, _) in table {
            if !self.metrics.contains_key(name) {
                self.metrics.insert(name, 0.0);
                if trace {
                    self.notes.push(format!("idle layer metric {name} = 0"));
                } else {
                    self.errors
                        .push(format!("end-to-end metric {name} was not measured"));
                }
            }
        }
        for line in &self.notes {
            println!("# {line}");
        }
        for (name, unit) in table {
            println!("# {name} = {} {unit}", self.metrics[name]);
        }
        for e in &self.errors {
            println!("# CHECK FAILED: {e}");
        }
        if self.error_count > self.errors.len() {
            println!(
                "# ... and {} more failed checks",
                self.error_count - self.errors.len()
            );
        }
        let metrics: Vec<String> = table
            .iter()
            .map(|(name, unit)| {
                let v = self.metrics[name];
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.error_count == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}
