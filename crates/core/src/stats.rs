//! Runtime statistics for the memory-aware layer.

use hetmem::PerThread;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Declares [`StatCells`] with one atomic per listed [`OocStats`] field
/// in each thread's slot, plus the `adopt`/`snapshot` conversions
/// between the two. A new counter is one field on `OocStats` and one
/// name in the list.
macro_rules! stat_cells {
    ($($field:ident),* $(,)?) => {
        /// One thread's share of the counters.
        #[derive(Debug, Default)]
        struct StatSlot {
            $($field: AtomicU64,)*
        }

        /// Internal counters shared between strategies and the engine.
        /// Each thread bumps its own slot (see [`PerThread`]); a read
        /// sums the slots.
        #[derive(Debug, Default)]
        pub struct StatCells {
            slots: PerThread<StatSlot>,
        }

        impl StatCells {
            /// Overwrite every counter with the values in `s` — used once,
            /// right after a restore, so cumulative statistics survive a
            /// kill-and-restore instead of restarting from zero. The restore
            /// itself is *not* included in `s`; bump it afterwards. The
            /// totals go into the first slot and every other slot is
            /// zeroed; a restore runs on a fresh runtime before anything
            /// is sent, so no thread bumps a slot meanwhile.
            pub(crate) fn adopt(&self, s: &OocStats) {
                for (i, slot) in self.slots.iter().enumerate() {
                    let keep = u64::from(i == 0);
                    $(slot.$field.store(keep * s.$field, Ordering::Relaxed);)*
                }
            }

            /// Snapshot the counters. `violations` is not a cell: the
            /// runtime fills it from the attached checker. Nor is
            /// `rejected_tasks`, which is always 0.
            pub fn snapshot(&self) -> OocStats {
                OocStats {
                    $($field: self.slots.sum(|c| c.$field.load(Ordering::Relaxed)),)*
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
    /// The calling thread's slot.
    fn local(&self) -> &StatSlot {
        self.slots.local()
    }

    pub(crate) fn bump_fetches(&self, bytes: u64) {
        let c = self.local();
        c.fetches.fetch_add(1, Ordering::Relaxed);
        c.fetch_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    pub(crate) fn bump_evictions(&self, bytes: u64) {
        let c = self.local();
        c.evictions.fetch_add(1, Ordering::Relaxed);
        c.evict_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    pub(crate) fn bump_no_space(&self) {
        self.local().no_space_events.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn bump_intercepted(&self) {
        self.local().intercepted.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn bump_admitted(&self) {
        self.local().admitted.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn bump_completed(&self) {
        self.local().completed.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn bump_queue_wait(&self, ns: u64) {
        self.local().queue_wait_ns.fetch_add(ns, Ordering::Relaxed);
    }

    pub(crate) fn bump_transient_retry(&self) {
        self.local()
            .transient_retries
            .fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn bump_degraded(&self) {
        self.local().degraded_tasks.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn bump_io_restart(&self) {
        self.local().io_restarts.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn bump_io_panic(&self) {
        self.local().io_panics.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn bump_checkpoint(&self, bytes: u64) {
        let c = self.local();
        c.checkpoints.fetch_add(1, Ordering::Relaxed);
        c.checkpoint_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    pub(crate) fn bump_restore(&self) {
        self.local().restores.fetch_add(1, Ordering::Relaxed);
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
        assert_eq!(s.intercepted, s.completed);
        assert!(s.render().contains("fetch 2x 150 B"));
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
    fn adopted_totals_add_to_bumps_from_many_threads() {
        const THREADS: u64 = 24;
        const TASKS: u64 = 500;
        /// Every thread runs `TASKS` tasks' worth of bumps.
        fn storm(c: &StatCells) {
            std::thread::scope(|s| {
                for _ in 0..THREADS {
                    s.spawn(|| {
                        for _ in 0..TASKS {
                            c.bump_intercepted();
                            c.bump_fetches(4096);
                            c.bump_completed();
                        }
                    });
                }
            });
        }
        let saved = OocStats {
            fetches: 7,
            fetch_bytes: 7 << 12,
            intercepted: 9,
            completed: 9,
            checkpoints: 1,
            ..OocStats::default()
        };
        let c = StatCells::default();
        // Counts from before the restore, in many slots: adopt drops them.
        storm(&c);
        c.adopt(&saved);
        assert_eq!(c.snapshot(), saved);
        storm(&c);
        let s = c.snapshot();
        let n = THREADS * TASKS;
        assert_eq!(s.intercepted, saved.intercepted + n);
        assert_eq!(s.completed, saved.completed + n);
        assert_eq!(s.fetches, saved.fetches + n);
        assert_eq!(s.fetch_bytes, saved.fetch_bytes + (n << 12));
        assert_eq!(s.checkpoints, 1);
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
