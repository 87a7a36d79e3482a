//! Runtime statistics for the memory-aware layer.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Declares [`StatCells`] with one atomic per listed [`OocStats`]
/// field, plus the `adopt`/`snapshot` conversions between the two. A
/// new counter is one field on `OocStats` and one name in the list.
macro_rules! stat_cells {
    ($($field:ident),* $(,)?) => {
        /// Internal atomic counters shared between strategies and the engine.
        #[derive(Debug, Default)]
        pub struct StatCells {
            $($field: AtomicU64,)*
        }

        impl StatCells {
            /// Overwrite every counter with the values in `s` — used once,
            /// right after a restore, so cumulative statistics survive a
            /// kill-and-restore instead of restarting from zero. The restore
            /// itself is *not* included in `s`; bump it afterwards.
            pub(crate) fn adopt(&self, s: &OocStats) {
                $(self.$field.store(s.$field, Ordering::Relaxed);)*
            }

            /// Snapshot the counters. `violations` is not a cell: the
            /// runtime fills it from the attached checker. Nor is
            /// `rejected_tasks`, which is always 0.
            pub fn snapshot(&self) -> OocStats {
                OocStats {
                    $($field: self.$field.load(Ordering::Relaxed),)*
                    rejected_tasks: 0,
                    violations: 0,
                }
            }
        }
    };
}

stat_cells!(
    fetches,
    fetch_bytes,
    evictions,
    evict_bytes,
    no_space_events,
    intercepted,
    admitted,
    completed,
    queue_wait_ns,
    transient_retries,
    degraded_tasks,
    io_restarts,
    io_panics,
    checkpoints,
    checkpoint_bytes,
    restores,
);

impl StatCells {
    pub(crate) fn bump_fetches(&self, bytes: u64) {
        self.fetches.fetch_add(1, Ordering::Relaxed);
        self.fetch_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    pub(crate) fn bump_evictions(&self, bytes: u64) {
        self.evictions.fetch_add(1, Ordering::Relaxed);
        self.evict_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    pub(crate) fn bump_no_space(&self) {
        self.no_space_events.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn bump_intercepted(&self) {
        self.intercepted.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn bump_admitted(&self) {
        self.admitted.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn bump_completed(&self) {
        self.completed.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn bump_queue_wait(&self, ns: u64) {
        self.queue_wait_ns.fetch_add(ns, Ordering::Relaxed);
    }

    pub(crate) fn bump_transient_retry(&self) {
        self.transient_retries.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn bump_degraded(&self) {
        self.degraded_tasks.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn bump_io_restart(&self) {
        self.io_restarts.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn bump_io_panic(&self) {
        self.io_panics.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn bump_checkpoint(&self, bytes: u64) {
        self.checkpoints.fetch_add(1, Ordering::Relaxed);
        self.checkpoint_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    pub(crate) fn bump_restore(&self) {
        self.restores.fetch_add(1, Ordering::Relaxed);
    }

    /// [`OocStats::in_flight`] from the two counters it needs, without
    /// a full snapshot (quiescence polls this).
    pub(crate) fn in_flight(&self) -> u64 {
        self.intercepted
            .load(Ordering::Relaxed)
            .saturating_sub(self.completed.load(Ordering::Relaxed))
    }
}

/// Point-in-time statistics of the memory-aware runtime.
///
/// Serializable: the checkpoint subsystem embeds a snapshot in every
/// image so cumulative counters survive a kill-and-restore.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OocStats {
    /// Blocks moved DDR4 → HBM.
    pub fetches: u64,
    /// Bytes moved DDR4 → HBM.
    pub fetch_bytes: u64,
    /// Blocks moved HBM → DDR4.
    pub evictions: u64,
    /// Bytes moved HBM → DDR4.
    pub evict_bytes: u64,
    /// Fetch attempts rejected because HBM was full.
    pub no_space_events: u64,
    /// `[prefetch]` messages intercepted.
    pub intercepted: u64,
    /// Tasks admitted to run queues.
    pub admitted: u64,
    /// Admitted tasks completed.
    pub completed: u64,
    /// Total time tasks spent between interception and admission (ns) —
    /// the per-task wait the paper's Figure 5 visualises.
    pub queue_wait_ns: u64,
    /// Retries after transient (injected) migration faults: backed-off
    /// fetch re-attempts plus evictions deferred to a later pass.
    pub transient_retries: u64,
    /// Tasks that exhausted their retry budget (or were drained by the
    /// stall watchdog) and ran from DDR4 instead of HBM.
    pub degraded_tasks: u64,
    /// Restarts of a crashed IO thread's loop.
    pub io_restarts: u64,
    /// IO-thread panics, caught in the thread or at its join.
    pub io_panics: u64,
    /// Always 0: nothing writes it, because an oversize task runs
    /// degraded and is counted in `degraded_tasks`. The field stays
    /// for its readers and for the checkpoint image layout.
    pub rejected_tasks: u64,
    /// Checkpoints written.
    pub checkpoints: u64,
    /// Total block payload bytes across all checkpoints written.
    pub checkpoint_bytes: u64,
    /// Restores performed from a checkpoint image.
    pub restores: u64,
    /// hetcheck violations recorded by an attached checker running in
    /// counting mode. Only [`crate::OocRuntime::stats`] fills it; it is
    /// 0 when no checker is attached.
    pub violations: u64,
}

impl OocStats {
    /// Tasks intercepted but not yet completed.
    pub fn in_flight(&self) -> u64 {
        self.intercepted.saturating_sub(self.completed)
    }

    /// Mean wait-queue delay per admitted task, in milliseconds.
    pub fn mean_queue_wait_ms(&self) -> f64 {
        if self.admitted == 0 {
            0.0
        } else {
            self.queue_wait_ns as f64 / self.admitted as f64 / 1e6
        }
    }

    /// Render a compact report line. Fault-handling counters are only
    /// shown when nonzero, so clean runs read as before.
    pub fn render(&self) -> String {
        let mut line = format!(
            "tasks {}/{}/{} (intercepted/admitted/completed)  fetch {}x {} B  evict {}x {} B  no-space {}",
            self.intercepted,
            self.admitted,
            self.completed,
            self.fetches,
            self.fetch_bytes,
            self.evictions,
            self.evict_bytes,
            self.no_space_events
        );
        if self.transient_retries + self.degraded_tasks + self.io_restarts + self.io_panics > 0 {
            line.push_str(&format!(
                "  retries {}  degraded {}  io-restarts {}/{}",
                self.transient_retries, self.degraded_tasks, self.io_restarts, self.io_panics
            ));
        }
        if self.checkpoints + self.restores > 0 {
            line.push_str(&format!(
                "  ckpt {}x {} B  restores {}",
                self.checkpoints, self.checkpoint_bytes, self.restores
            ));
        }
        if self.violations > 0 {
            line.push_str(&format!("  HETCHECK VIOLATIONS {}", self.violations));
        }
        line
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let c = StatCells::default();
        c.bump_fetches(100);
        c.bump_fetches(50);
        c.bump_evictions(30);
        c.bump_no_space();
        c.bump_intercepted();
        c.bump_admitted();
        c.bump_completed();
        let s = c.snapshot();
        assert_eq!(s.fetches, 2);
        assert_eq!(s.fetch_bytes, 150);
        assert_eq!(s.evictions, 1);
        assert_eq!(s.evict_bytes, 30);
        assert_eq!(s.no_space_events, 1);
        assert_eq!(s.in_flight(), 0);
        assert!(s.render().contains("fetch 2x 150 B"));
    }

    #[test]
    fn in_flight_counts_outstanding() {
        let c = StatCells::default();
        c.bump_intercepted();
        c.bump_intercepted();
        c.bump_completed();
        assert_eq!(c.snapshot().in_flight(), 1);
        assert_eq!(c.in_flight(), 1);
    }

    #[test]
    fn fault_counters_hidden_when_clean() {
        let c = StatCells::default();
        assert!(!c.snapshot().render().contains("retries"));
        c.bump_transient_retry();
        c.bump_degraded();
        c.bump_io_panic();
        c.bump_io_restart();
        let s = c.snapshot();
        assert_eq!(s.transient_retries, 1);
        assert_eq!(s.degraded_tasks, 1);
        assert_eq!(s.io_restarts, 1);
        assert_eq!(s.io_panics, 1);
        assert!(s
            .render()
            .contains("retries 1  degraded 1  io-restarts 1/1"));
    }

    #[test]
    fn adopt_restores_counters_and_checkpoint_stats_render() {
        let c = StatCells::default();
        c.bump_fetches(64);
        c.bump_intercepted();
        c.bump_admitted();
        c.bump_completed();
        c.bump_checkpoint(4096);
        let saved = c.snapshot();

        let fresh = StatCells::default();
        fresh.adopt(&saved);
        fresh.bump_restore();
        let s = fresh.snapshot();
        assert_eq!(s.fetches, saved.fetches);
        assert_eq!(s.completed, saved.completed);
        assert_eq!(s.checkpoints, 1);
        assert_eq!(s.checkpoint_bytes, 4096);
        assert_eq!(s.restores, 1);
        assert!(s.render().contains("ckpt 1x 4096 B  restores 1"));
    }

    #[test]
    fn stats_round_trip_through_json() {
        let c = StatCells::default();
        c.bump_fetches(128);
        c.bump_checkpoint(256);
        let s = c.snapshot();
        let text = serde_json::to_string(&s).unwrap();
        let back: OocStats = serde_json::from_str(&text).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn violations_render_only_when_nonzero() {
        let c = StatCells::default();
        let mut s = c.snapshot();
        assert!(!s.render().contains("VIOLATIONS"));
        s.violations = 3;
        assert!(s.render().contains("HETCHECK VIOLATIONS 3"));
    }
}
