//! A real schedule trace across a checkpoint restore lints clean.
//!
//! One recording checker spans a whole crash-and-resume: a stencil run
//! checkpoints after its first chunk, loses its second chunk to a
//! "crash", and a fresh runtime resumes from the checkpoint and runs to
//! the end. The trace must hold exactly one `Restart`, the restored
//! blocks' `Register` events after it, and lint clean.

use hetrt::core::{OocConfig, Placement, StrategyKind};
use hetrt::hetcheck::{self, lint, Checker, ScheduleEvent, Trace, TraceMeta, ViolationAction};
use hetrt::hetmem::{BlockEvent, Clock, MonotonicClock, Topology, HBM};
use hetrt::kernels::stencil::{StencilConfig, StencilDriver};
use std::sync::Arc;

const ITERATIONS: usize = 6;
const CHECKPOINT_EVERY: u64 = 2;

fn cfg(strategy: StrategyKind) -> StencilConfig {
    StencilConfig {
        chares: (2, 2, 1),
        block: (16, 16, 16),
        iterations: ITERATIONS,
        pes: 2,
        strategy,
        placement: Placement::DdrOnly,
        ooc: OocConfig {
            checkpoint_every: CHECKPOINT_EVERY,
            ..OocConfig::default()
        },
        topology: Topology::knl_flat_scaled_with(80 << 10, 96 << 20),
        compute_passes: 1,
        faults: None,
    }
}

/// Checkpoint after the first chunk, crash after the second, resume
/// and finish, with one recording checker installed globally (the
/// drivers build their runtimes internally). Returns the trace.
fn record_crash_and_resume(cfg: &StencilConfig) -> Trace {
    let path = std::env::temp_dir().join(format!(
        "hetrt-restart-trace-{}-{}.ckpt",
        cfg.strategy.label(),
        std::process::id()
    ));
    let clock: Arc<dyn Clock> = Arc::new(MonotonicClock::new());
    let meta = TraceMeta {
        hbm_capacity: cfg.topology.node(HBM).capacity_bytes as usize,
    };
    let checker = Arc::new(Checker::with_schedule_log(
        ViolationAction::Count,
        meta,
        clock,
    ));
    hetcheck::global::install(Arc::clone(&checker));

    let crashed = StencilDriver::new(cfg.clone());
    crashed.step();
    crashed.ooc().checkpoint(&path).expect("checkpoint");
    crashed.step();
    crashed.shutdown();
    drop(crashed);

    let resumed = StencilDriver::resume(cfg.clone(), &path).expect("resume");
    resumed.run(None).expect("run to the end");
    assert_eq!(resumed.completed_iterations(), ITERATIONS as u64);
    resumed.shutdown();
    drop(resumed);

    hetcheck::global::clear();
    let _ = std::fs::remove_file(&path);
    assert_eq!(checker.violations(), vec![], "live violations");
    checker.trace().expect("recording enabled")
}

// One test, not one per strategy: the global checker slot is shared by
// every test in this binary.
#[test]
fn a_trace_across_a_restore_lints_clean() {
    for strategy in [
        StrategyKind::SyncFetch,
        StrategyKind::single_io(),
        StrategyKind::multi_io(2),
    ] {
        let cfg = cfg(strategy);
        let label = strategy.label();
        let trace = record_crash_and_resume(&cfg);

        let restarts: Vec<usize> = (0..trace.events.len())
            .filter(|&i| trace.events[i].event == ScheduleEvent::Restart)
            .collect();
        assert_eq!(restarts.len(), 1, "{label}: one restart");
        let registered_after = trace.events[restarts[0]..]
            .iter()
            .filter(|e| matches!(e.event, ScheduleEvent::Block(BlockEvent::Register { .. })))
            .count();
        assert_eq!(
            registered_after,
            cfg.chare_count(),
            "{label}: every block is registered again after the restart"
        );

        let back = Trace::from_jsonl(&trace.to_jsonl()).expect("JSONL round trip");
        assert_eq!(back, trace, "{label}");
        let report = lint(&back);
        assert!(report.is_clean(), "{label}: {}", report.render());
        // Two chunks before the crash, then the four resumed iterations.
        let iterations = 2 * CHECKPOINT_EVERY as usize + (ITERATIONS - CHECKPOINT_EVERY as usize);
        assert_eq!(report.tasks, cfg.chare_count() * iterations, "{label}");
    }
}
