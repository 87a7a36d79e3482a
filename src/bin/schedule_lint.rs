//! Offline schedule linter driver.
//!
//! Default mode (no arguments) is the CI self-check:
//!
//! 1. run the stencil and matmul kernels with a recording hetcheck
//!    checker attached (via `hetcheck::global`, since the kernel
//!    drivers build their runtimes internally),
//! 2. write both traces as JSONL under `target/hetcheck/`,
//! 3. lint both — they must be clean and violation-free,
//! 4. corrupt copies of a real trace (an extra `ReleaseRef`, a shrunken
//!    HBM capacity) and verify the linter flags each corruption.
//!
//! `schedule_lint --trace <file.jsonl>` lints one saved trace instead.
//! Exit status is nonzero on any finding (or on a self-test failure).

use hetrt::core::{OocConfig, Placement, StrategyKind};
use hetrt::hetcheck::{self, lint, Checker, ScheduleEvent, Trace, TraceMeta, ViolationAction};
use hetrt::hetmem::{BlockEvent, Clock, MonotonicClock, Topology, HBM};
use hetrt::kernels::matmul::{run_matmul, MatmulConfig};
use hetrt::kernels::stencil::{run_stencil, StencilConfig};
use std::sync::Arc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let status = match args.as_slice() {
        [] => self_check(),
        [flag, path] if flag == "--trace" => lint_file(path),
        _ => {
            eprintln!("usage: schedule_lint [--trace <file.jsonl>]");
            2
        }
    };
    std::process::exit(status);
}

fn lint_file(path: &str) -> i32 {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("schedule_lint: cannot read {path}: {e}");
            return 2;
        }
    };
    let trace = match Trace::from_jsonl(&text) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("schedule_lint: {path}: {e}");
            return 2;
        }
    };
    let report = lint(&trace);
    print!("{path}: {}", report.render());
    i32::from(!report.is_clean())
}

/// Run `run` with a recording checker installed globally; return the
/// trace it captured. Fails (exit-worthy) if the live passes saw any
/// violation during the run.
fn record(name: &str, meta: TraceMeta, run: impl FnOnce()) -> Result<Trace, String> {
    let clock: Arc<dyn Clock> = Arc::new(MonotonicClock::new());
    let checker = Arc::new(Checker::with_schedule_log(
        ViolationAction::Count,
        meta,
        clock,
    ));
    hetcheck::global::install(Arc::clone(&checker));
    run();
    hetcheck::global::clear();
    if checker.violation_count() > 0 {
        let mut msg = format!("{name}: {} live violation(s):\n", checker.violation_count());
        for v in checker.violations() {
            msg.push_str(&format!("  - {v}\n"));
        }
        return Err(msg);
    }
    checker
        .trace()
        .ok_or_else(|| format!("{name}: no trace recorded"))
}

fn meta_for(topology: &Topology) -> TraceMeta {
    TraceMeta {
        hbm_capacity: topology.node(HBM).capacity_bytes as usize,
    }
}

fn self_check() -> i32 {
    let out_dir = std::path::Path::new("target/hetcheck");
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        eprintln!("schedule_lint: cannot create {}: {e}", out_dir.display());
        return 2;
    }

    // HBM sized well below each working set so both kernels exercise
    // the full fetch/evict protocol the linter checks.
    let matmul_cfg = MatmulConfig {
        grid: 4,
        block: 24,
        pes: 3,
        strategy: StrategyKind::IoThreads { threads: 2 },
        placement: Placement::DdrOnly,
        ooc: OocConfig::default(),
        topology: Topology::knl_flat_scaled_with(64 << 10, 96 << 20),
        compute_passes: 1,
        faults: None,
    };
    let stencil_cfg = StencilConfig {
        chares: (2, 2, 1),
        block: (16, 16, 16),
        iterations: 2,
        pes: 2,
        strategy: StrategyKind::multi_io(2),
        placement: Placement::DdrOnly,
        ooc: OocConfig::default(),
        topology: Topology::knl_flat_scaled_with(80 << 10, 96 << 20),
        compute_passes: 1,
        faults: None,
    };

    let mut failures = 0;
    let mut real_trace = None;
    let runs: Vec<(&str, Result<Trace, String>)> = vec![
        (
            "matmul",
            record("matmul", meta_for(&matmul_cfg.topology), || {
                run_matmul(&matmul_cfg);
            }),
        ),
        (
            "stencil",
            record("stencil", meta_for(&stencil_cfg.topology), || {
                run_stencil(&stencil_cfg);
            }),
        ),
    ];
    for (name, result) in runs {
        let trace = match result {
            Ok(t) => t,
            Err(msg) => {
                eprintln!("{msg}");
                failures += 1;
                continue;
            }
        };
        let path = out_dir.join(format!("{name}.jsonl"));
        if let Err(e) = std::fs::write(&path, trace.to_jsonl()) {
            eprintln!("schedule_lint: cannot write {}: {e}", path.display());
            return 2;
        }
        let report = lint(&trace);
        print!("{name} ({}): {}", path.display(), report.render());
        if !report.is_clean() {
            failures += 1;
        }
        if real_trace.is_none() {
            real_trace = Some(trace);
        }
    }

    // Self-test: the linter must flag deliberately corrupted traces —
    // a linter that passes everything proves nothing.
    if let Some(trace) = real_trace {
        failures += corruption_self_test(&trace);
    } else {
        eprintln!("schedule_lint: no real trace available for the corruption self-test");
        failures += 1;
    }

    if failures == 0 {
        println!("schedule_lint: all checks passed");
        0
    } else {
        eprintln!("schedule_lint: {failures} check(s) FAILED");
        1
    }
}

fn corruption_self_test(real: &Trace) -> i32 {
    let mut failures = 0;

    // Corruption 1: one extra ReleaseRef drives a refcount negative.
    let mut over_release = real.clone();
    let victim = real.events.iter().find_map(|e| match e.event {
        ScheduleEvent::Block(BlockEvent::Register { block, .. }) => Some(block),
        _ => None,
    });
    match victim {
        Some(block) => {
            let at_ns = over_release.events.last().map_or(0, |e| e.at_ns) + 1;
            over_release.events.push(hetrt::hetcheck::TimedEvent {
                at_ns,
                event: ScheduleEvent::Block(BlockEvent::ReleaseRef { block, refcount: 0 }),
            });
            let report = lint(&over_release);
            if report
                .findings
                .iter()
                .any(|f| matches!(f, hetrt::hetcheck::LintFinding::NegativeRefcount { .. }))
            {
                println!("self-test: extra ReleaseRef flagged as NegativeRefcount — ok");
            } else {
                eprintln!(
                    "self-test FAILED: over-release not flagged:\n{}",
                    report.render()
                );
                failures += 1;
            }
        }
        None => {
            eprintln!("self-test FAILED: trace has no Register event to corrupt");
            failures += 1;
        }
    }

    // Corruption 2: shrink the recorded HBM capacity below the peak the
    // schedule actually used.
    let peak = lint(real).peak_hbm;
    if peak == 0 {
        eprintln!("self-test FAILED: real trace never used HBM (peak 0)");
        failures += 1;
    } else {
        let mut tight = real.clone();
        tight.meta.hbm_capacity = peak - 1;
        let report = lint(&tight);
        if report
            .findings
            .iter()
            .any(|f| matches!(f, hetrt::hetcheck::LintFinding::HbmOverCapacity { .. }))
        {
            println!("self-test: shrunken capacity flagged as HbmOverCapacity — ok");
        } else {
            eprintln!(
                "self-test FAILED: over-capacity not flagged:\n{}",
                report.render()
            );
            failures += 1;
        }
    }

    failures
}
