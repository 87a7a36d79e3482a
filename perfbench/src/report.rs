//! Result collection: `# ` note lines on stdout while the run goes, then
//! the one-line JSON result, last.

use crate::stats::failure_share;
use std::fmt::Display;

/// End-to-end metrics: every untraced run prints all of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("makespan_naive_s", "s"),
    ("makespan_sync_s", "s"),
    ("makespan_single_io_s", "s"),
    ("makespan_multi_io_s", "s"),
    ("setup_s", "s"),
];

/// Per-layer metrics: every traced run prints all of them, with 0 for
/// those its workload does not exercise. METRICS.md gives each one's
/// meaning and the end-to-end metric it should move.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("hetmem.charge_inflation_4k", "x"),
    ("hetmem.charge_inflation_32k", "x"),
    ("hetmem.charge_inflation_256k", "x"),
    ("hetmem.registry_op_ns", "ns"),
    ("hetmem.migrate_us", "us"),
    ("hetmem.ddr_busy_frac", "frac"),
    ("hetmem.hbm_busy_frac", "frac"),
    ("hetmem.hbm_peak_frac", "frac"),
    ("hetmem.ddr_bytes", "B"),
    ("hetmem.hbm_bytes", "B"),
    ("converse.send_exec_us_p50", "us"),
    ("converse.send_exec_us_p99", "us"),
    ("converse.quiescence_ms", "ms"),
    ("core.queue_wait_ms_mean", "ms"),
    ("core.fetch_s", "s"),
    ("core.evict_s", "s"),
    ("core.block_wait_s", "s"),
    ("core.io_busy_frac", "frac"),
    ("core.fetch_us_p50", "us"),
    ("core.fetch_us_p99", "us"),
    ("core.fetches", "count"),
    ("core.evictions", "count"),
    ("core.no_space", "count"),
    ("core.admit_ratio", "frac"),
    ("core.reuse_ratio", "frac"),
    ("kernels.compute_s", "s"),
    ("kernels.compute_frac", "frac"),
    ("projections.overhead_frac", "frac"),
    ("projections.trace_cost_us", "us"),
    ("hetcheck.task_overhead_us", "us"),
    ("hetcheck.violations", "count"),
    ("vtsim.speedup_sync", "x"),
    ("vtsim.speedup_single_io", "x"),
    ("vtsim.speedup_multi_io", "x"),
    ("vtsim.fetches_sync", "count"),
    ("vtsim.fetches_single_io", "count"),
    ("vtsim.fetches_multi_io", "count"),
    ("vtsim.pe_util_naive", "frac"),
    ("vtsim.pe_util_sync", "frac"),
    ("vtsim.pe_util_single_io", "frac"),
    ("vtsim.pe_util_multi_io", "frac"),
    ("vtsim.queue_wait_ms_sync", "ms_virtual"),
    ("vtsim.queue_wait_ms_single_io", "ms_virtual"),
    ("vtsim.queue_wait_ms_multi_io", "ms_virtual"),
    ("vtsim.tasks_per_host_s", "1/s"),
];

/// What one run measured and whether its outputs were correct.
pub struct Report {
    trace: bool,
    correct: bool,
    attempted: u64,
    failed: u64,
    values: Vec<(&'static str, f64)>,
}

impl Report {
    /// An empty report for an untraced (`trace == false`) or traced run.
    pub fn new(trace: bool) -> Self {
        Self {
            trace,
            correct: true,
            attempted: 0,
            failed: 0,
            values: Vec::new(),
        }
    }

    fn expected(&self) -> &'static [(&'static str, &'static str)] {
        if self.trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// Print a note line ahead of the result.
    pub fn note(&self, msg: impl Display) {
        println!("# {msg}");
    }

    /// Mark the run incorrect, saying why.
    pub fn fail(&mut self, msg: impl Display) {
        self.correct = false;
        println!("# FAIL: {msg}");
    }

    /// Count tasks run and tasks that failed.
    pub fn tasks(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Record a metric. Workloads record both kinds; only those of the
    /// run's own kind are kept. A name neither list has, or one recorded
    /// twice, is a bug in the benchmark and panics.
    pub fn set(&mut self, name: &str, value: f64) {
        let find = |list: &'static [(&'static str, &'static str)]| {
            list.iter().map(|&(n, _)| n).find(|n| *n == name)
        };
        let Some(name) = find(self.expected()) else {
            assert!(
                find(END_TO_END).or(find(PER_LAYER)).is_some(),
                "unknown metric {name}"
            );
            return;
        };
        assert!(
            !self.values.iter().any(|(n, _)| *n == name),
            "metric {name} recorded twice"
        );
        self.values.push((name, value));
    }

    /// The result line: one JSON object with the run's metrics in list
    /// order; a metric not recorded reads 0.
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .expected()
            .iter()
            .map(|&(name, unit)| {
                let value = self
                    .values
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or(0.0, |&(_, v)| v);
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Check the metric set, print the JSON result as the last stdout
    /// line, and return whether the run was correct.
    pub fn finish(mut self) -> bool {
        let missing: Vec<&str> = self
            .expected()
            .iter()
            .map(|&(n, _)| n)
            .filter(|n| !self.values.iter().any(|(v, _)| v == n))
            .collect();
        if !missing.is_empty() {
            if self.trace {
                self.note(format_args!(
                    "not exercised by this workload, reported as 0: {}",
                    missing.join(", ")
                ));
            } else {
                self.fail(format_args!("not measured: {}", missing.join(", ")));
            }
        }
        let bad: Vec<&str> = self
            .values
            .iter()
            .filter(|(_, v)| !v.is_finite())
            .map(|&(n, _)| n)
            .collect();
        if !bad.is_empty() {
            self.fail(format_args!("non-finite values: {}", bad.join(", ")));
            self.values.retain(|(_, v)| v.is_finite());
        }
        if self.attempted == 0 {
            self.fail("no task ran");
            (self.attempted, self.failed) = (1, 1);
        }
        self.note(format_args!(
            "tasks attempted {}, failed {} (share {})",
            self.attempted,
            self.failed,
            failure_share(self.failed, self.attempted)
        ));
        println!("{}", self.json());
        self.correct
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_one_json_object_in_list_order() {
        let mut r = Report::new(false);
        for (i, &(name, _)) in END_TO_END.iter().enumerate().rev() {
            r.set(name, i as f64 + 0.5);
        }
        // A per-layer metric on an untraced run is dropped.
        r.set("core.fetches", 3.0);
        r.tasks(10, 0);
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
             \"makespan_naive_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"makespan_sync_s\": {\"value\": 1.5, \"unit\": \"s\"}, \
             \"makespan_single_io_s\": {\"value\": 2.5, \"unit\": \"s\"}, \
             \"makespan_multi_io_s\": {\"value\": 3.5, \"unit\": \"s\"}, \
             \"setup_s\": {\"value\": 4.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    #[should_panic(expected = "unknown metric")]
    fn unknown_metric_is_a_bug() {
        Report::new(true).set("core.nonsense", 1.0);
    }

    #[test]
    #[should_panic(expected = "recorded twice")]
    fn duplicate_metric_is_a_bug() {
        let mut r = Report::new(true);
        r.set("core.fetches", 1.0);
        r.set("core.fetches", 2.0);
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = text.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }
}
