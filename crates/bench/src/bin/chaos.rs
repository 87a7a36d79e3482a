//! Chaos ablation: the fault-injection / degraded-mode harness.
//!
//! Runs Stencil3D and matmul under seeded transient-fault schedules
//! (migration failures + transfer latency spikes) at increasing fault
//! rates, plus an IO-thread-kill scenario, and asserts the resilience
//! contract:
//!
//! * every run completes all tasks and matches the fault-free checksum
//!   (no wedged wait queues);
//! * slowdown versus the fault-free run stays bounded;
//! * fault-free runs report exactly zero retries/degraded tasks, and
//!   faulty runs report nonzero ones (the counters are live);
//! * a killed IO thread restarts its loop in place and the run still
//!   completes.

use bench::{emit, Scale, Table};
use hetmem::{SeededFaults, Topology};
use hetrt_core::{OocConfig, Placement, StrategyKind};
use kernels::matmul::{run_matmul, MatmulConfig};
use kernels::stencil::{run_stencil, StencilConfig};
use std::sync::Arc;

fn stencil_cfg(scale: Scale) -> StencilConfig {
    StencilConfig {
        chares: (2, 2, 2),
        block: scale.pick((16, 16, 16), (32, 32, 16), (32, 32, 32)),
        iterations: scale.pick(2, 2, 3),
        pes: 4,
        strategy: StrategyKind::multi_io(2),
        placement: Placement::DdrOnly,
        ooc: OocConfig::default(),
        topology: Topology::knl_flat_scaled(),
        compute_passes: 2,
        faults: None,
    }
}

fn matmul_cfg(scale: Scale) -> MatmulConfig {
    MatmulConfig {
        grid: scale.pick(4, 6, 8),
        block: 32,
        pes: 4,
        strategy: StrategyKind::multi_io(2),
        placement: Placement::DdrOnly,
        ooc: OocConfig::default(),
        topology: Topology::knl_flat_scaled(),
        compute_passes: 2,
        faults: None,
    }
}

/// The seeded fault schedule for a migration-fault rate, with a mild
/// latency-spike band on top so both fault kinds are exercised.
fn schedule(seed: u64, rate: f64) -> Option<Arc<SeededFaults>> {
    if rate == 0.0 {
        return None;
    }
    Some(Arc::new(
        SeededFaults::new(seed)
            .with_migration_fail_rate(rate)
            .with_latency_spike(rate / 2.0, 20_000),
    ))
}

/// Slowdown at 20% faults must stay bounded: retries back off to at
/// most 10 ms and degraded tasks trade HBM for DDR4 bandwidth, neither
/// of which wedges or serialises the run. Generous to absorb wall-clock
/// noise in CI.
const MAX_SLOWDOWN: f64 = 25.0;

fn main() {
    let (scale, save) = Scale::from_args();
    let mut body =
        String::from("Chaos — transient faults, degraded mode, IO-thread supervision\n\n");
    let rates = [0.0, 0.01, 0.05, 0.20];

    // Stencil and matmul under increasing migration-fault rates.
    for kernel in ["stencil", "matmul"] {
        let mut table = Table::new(&[
            &format!("{kernel}: fault rate"),
            "total (s)",
            "slowdown",
            "retries",
            "degraded",
            "completed",
        ]);
        let mut clean_ns = 0u64;
        let mut clean_checksum = 0.0f64;
        for (i, &rate) in rates.iter().enumerate() {
            let injector = schedule(42 + i as u64, rate);
            let faults = injector
                .clone()
                .map(|f| f as Arc<dyn hetmem::FaultInjector>);
            let (total_ns, checksum, stats, tasks) = if kernel == "stencil" {
                let mut cfg = stencil_cfg(scale);
                cfg.faults = faults;
                let r = run_stencil(&cfg);
                let tasks = (cfg.chare_count() * cfg.iterations) as u64;
                (r.total_ns, r.checksum, r.stats, tasks)
            } else {
                let mut cfg = matmul_cfg(scale);
                cfg.faults = faults;
                let r = run_matmul(&cfg);
                let tasks = (cfg.grid * cfg.grid) as u64;
                (r.total_ns, r.checksum, r.stats, tasks)
            };
            let injected =
                injector.map_or(0, |f| hetmem::FaultInjector::stats(&*f).migration_failures);
            assert_eq!(
                stats.completed, tasks,
                "{kernel} at {rate}: not all tasks completed"
            );
            let resilience = stats.transient_retries + stats.degraded_tasks;
            if rate == 0.0 {
                clean_ns = total_ns.max(1);
                clean_checksum = checksum;
                assert_eq!(
                    resilience, 0,
                    "{kernel}: fault-free run must report zero retries/degraded"
                );
            } else {
                let tol = 1e-6 * clean_checksum.abs().max(1.0);
                assert!(
                    (checksum - clean_checksum).abs() < tol,
                    "{kernel} at {rate}: checksum {checksum} != clean {clean_checksum}"
                );
                // Low rates at small scale may legitimately never fire;
                // but every fired fault must be visible in the counters,
                // and the 20% schedule must fire.
                if rate >= 0.20 {
                    assert!(injected > 0, "{kernel}: 20% schedule never fired");
                }
                assert!(
                    injected == 0 || resilience > 0,
                    "{kernel} at {rate}: {injected} faults fired but no retries/degraded recorded"
                );
            }
            let slowdown = total_ns as f64 / clean_ns as f64;
            assert!(
                slowdown < MAX_SLOWDOWN,
                "{kernel} at {rate}: slowdown {slowdown:.1}x exceeds {MAX_SLOWDOWN}x"
            );
            table.row(vec![
                format!("{:.0}%", rate * 100.0),
                format!("{:.3}", total_ns as f64 / 1e9),
                format!("{slowdown:.2}x"),
                stats.transient_retries.to_string(),
                stats.degraded_tasks.to_string(),
                format!("{}/{tasks}", stats.completed),
            ]);
        }
        body.push_str(&table.render());
        body.push('\n');
    }

    // Kill one IO thread mid-run: the thread must catch the panic and
    // restart its loop, and the run must still complete and verify.
    {
        let mut table = Table::new(&["IO-thread kill", "io panics", "restarts", "completed"]);
        let mut cfg = matmul_cfg(scale);
        cfg.strategy = StrategyKind::single_io();
        cfg.faults = Some(Arc::new(SeededFaults::new(7).with_io_panic(0)));
        let r = run_matmul(&cfg);
        let tasks = (cfg.grid * cfg.grid) as u64;
        assert_eq!(
            r.stats.completed, tasks,
            "run must survive a killed IO thread"
        );
        assert!(r.stats.io_panics >= 1, "injected panic must be caught");
        assert!(r.stats.io_restarts >= 1, "the IO thread must restart");
        table.row(vec![
            "single IO thread".into(),
            r.stats.io_panics.to_string(),
            r.stats.io_restarts.to_string(),
            format!("{}/{tasks}", r.stats.completed),
        ]);
        body.push_str(&table.render());
        body.push('\n');
    }

    body.push_str(
        "expectations: completion and checksums hold at every fault rate;\n\
         retries/degraded are zero fault-free and grow with the rate;\n\
         a killed IO thread restarts in place and the run still finishes.\n\
         all assertions passed.\n",
    );
    emit("chaos", &body, save);
}
