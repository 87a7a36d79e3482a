//! Kill-and-restore chaos harness: the end-to-end recovery check.
//!
//! The parent process runs an uninterrupted chunked stencil run as
//! the reference, then repeatedly spawns a worker child (this same
//! binary with `--worker`) that steps the identically-configured run
//! under injected transient faults, checkpointing every iteration. The
//! parent SIGKILLs each child mid-iteration — after a checkpoint has
//! hit the disk — then spawns the next child, which resumes from the
//! latest checkpoint. After the kill cycles the parent resumes
//! in-process, runs to completion, and asserts the final grid is
//! **bitwise identical** to the uninterrupted run. Finally it corrupts
//! the checkpoint file and asserts restore rejects it with a structured
//! error rather than a panic.
//!
//! Checkpoints live under `target/crash_recovery/`, which CI uploads as
//! an artifact when the smoke job fails.

use bench::{emit, ms, Scale, Table};
use hetmem::{MemError, SeededFaults, Topology};
use hetrt_core::{OocConfig, Placement, StrategyKind};
use kernels::stencil::{StencilConfig, StencilDriver};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-iteration delay in the worker child: keeps the run long enough
/// for the parent to land its kill mid-iteration, not after the end.
const WORKER_STEP_DELAY_MS: u64 = 150;

/// How long the parent waits for a child's first/next checkpoint.
const CHECKPOINT_WAIT_MS: u64 = 60_000;

fn cfg(scale: Scale, faulty: bool) -> StencilConfig {
    StencilConfig {
        chares: (2, 2, 1),
        block: scale.pick((8, 8, 8), (16, 16, 8), (16, 16, 16)),
        iterations: scale.pick(8, 10, 12),
        pes: 2,
        strategy: StrategyKind::single_io(),
        placement: Placement::DdrOnly,
        ooc: OocConfig {
            checkpoint_every: 1,
            ..OocConfig::default()
        },
        topology: Topology::knl_flat_scaled(),
        compute_passes: 2,
        faults: faulty.then(|| {
            Arc::new(SeededFaults::new(7).with_migration_fail_rate(0.05))
                as Arc<dyn hetmem::FaultInjector>
        }),
    }
}

fn ckpt_dir() -> PathBuf {
    let dir = PathBuf::from("target/crash_recovery");
    std::fs::create_dir_all(&dir).expect("create target/crash_recovery");
    dir
}

/// Worker-child mode: start fresh (or resume from `path` if it exists)
/// and step to completion, checkpointing every iteration, with a delay
/// per step so the parent can kill us mid-run.
fn run_worker(scale: Scale, path: &Path) -> ! {
    let cfg = cfg(scale, true);
    let iterations = cfg.iterations as u64;
    let driver = if path.exists() {
        match StencilDriver::resume(cfg, path) {
            Ok(d) => {
                eprintln!(
                    "worker: resumed from iteration {}",
                    d.completed_iterations()
                );
                d
            }
            Err(e) => {
                eprintln!("worker: resume failed: {e}");
                std::process::exit(3);
            }
        }
    } else {
        eprintln!("worker: fresh start");
        StencilDriver::new(cfg)
    };
    while driver.completed_iterations() < iterations {
        std::thread::sleep(Duration::from_millis(WORKER_STEP_DELAY_MS));
        driver.step();
        let it = driver.completed_iterations();
        if driver.ooc().should_checkpoint(it) {
            driver.ooc().checkpoint(path).expect("worker checkpoint");
            eprintln!("worker: checkpointed iteration {it}");
        }
    }
    driver.shutdown();
    eprintln!("worker: completed all {iterations} iterations (not killed)");
    std::process::exit(0);
}

/// Wait until `path`'s modification stamp differs from `last`,
/// returning the new stamp. Panics after `CHECKPOINT_WAIT_MS`.
fn wait_new_checkpoint(path: &Path, last: Option<std::time::SystemTime>) -> std::time::SystemTime {
    let t0 = Instant::now();
    loop {
        if let Ok(meta) = std::fs::metadata(path) {
            if let Ok(mtime) = meta.modified() {
                if last != Some(mtime) {
                    return mtime;
                }
            }
        }
        assert!(
            t0.elapsed() < Duration::from_millis(CHECKPOINT_WAIT_MS),
            "no new checkpoint appeared within {CHECKPOINT_WAIT_MS} ms"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn main() {
    // `Scale::from_args` exits on unknown flags, so the worker role is
    // parsed by hand first.
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Normal;
    let mut save = false;
    let mut worker: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => scale = Scale::Quick,
            "--full" => scale = Scale::Full,
            "--save" => save = true,
            "--worker" => {
                let path = it.next().expect("--worker needs a checkpoint path");
                worker = Some(PathBuf::from(path));
            }
            other => {
                eprintln!("unknown argument {other}; expected --quick/--full/--save/--worker");
                std::process::exit(2);
            }
        }
    }
    if let Some(path) = worker {
        run_worker(scale, &path);
    }

    let path = ckpt_dir().join("stencil.ckpt");
    let _ = std::fs::remove_file(&path);
    let kills = scale.pick(1, 2, 3);
    let mut body = String::from("Crash recovery — SIGKILL mid-iteration, restore, verify\n\n");
    let mut table = Table::new(&["phase", "iterations done", "wall", "outcome"]);

    // Uninterrupted reference (fault-free *and* faulty runs are
    // bitwise identical — faults only add retries — so the clean run
    // is the ground truth for every recovery below).
    let t0 = Instant::now();
    let reference = StencilDriver::new(StencilConfig {
        ooc: OocConfig::default(),
        ..cfg(scale, false)
    });
    reference.run(None).expect("reference run");
    let want = reference.block_contents();
    let total_iters = reference.completed_iterations();
    reference.shutdown();
    table.row(vec![
        "reference (no kill)".into(),
        total_iters.to_string(),
        ms(t0.elapsed().as_nanos() as u64),
        "completed".into(),
    ]);

    // Kill cycles: each child starts (or resumes), checkpoints, dies.
    let exe = std::env::current_exe().expect("current_exe");
    let scale_flag = match scale {
        Scale::Quick => Some("--quick"),
        Scale::Normal => None,
        Scale::Full => Some("--full"),
    };
    let mut stamp = None;
    for cycle in 0..kills {
        let t0 = Instant::now();
        let mut cmd = std::process::Command::new(&exe);
        if let Some(flag) = scale_flag {
            cmd.arg(flag);
        }
        let mut child = cmd
            .arg("--worker")
            .arg(&path)
            .spawn()
            .expect("spawn worker child");
        // Let it write at least one new checkpoint, then kill it in the
        // middle of the following iteration.
        stamp = Some(wait_new_checkpoint(&path, stamp));
        std::thread::sleep(Duration::from_millis(WORKER_STEP_DELAY_MS / 2));
        child.kill().expect("SIGKILL worker");
        let status = child.wait().expect("reap worker");
        assert!(!status.success(), "worker must die by signal, not exit 0");
        let resumed_at = hetmem::read_checkpoint(&path).map_or(0, |img| img.blocks.len());
        assert!(resumed_at > 0, "checkpoint must be readable after kill");
        table.row(vec![
            format!("kill cycle {}", cycle + 1),
            "killed mid-run".into(),
            ms(t0.elapsed().as_nanos() as u64),
            "SIGKILL delivered, checkpoint intact".into(),
        ]);
    }

    // Restore in-process and run to completion.
    let t0 = Instant::now();
    let resumed = StencilDriver::resume(cfg(scale, true), &path).expect("in-process restore");
    let from = resumed.completed_iterations();
    assert!(from > 0, "restore must resume mid-run, not from scratch");
    assert!(
        from < total_iters,
        "children must have been killed before finishing"
    );
    resumed.run(None).expect("resumed run");
    let got = resumed.block_contents();
    let restores = resumed.ooc().stats().restores;
    resumed.shutdown();
    assert_eq!(
        got, want,
        "restored run diverged from the uninterrupted reference"
    );
    assert!(restores >= 1, "restore counter must be live");
    table.row(vec![
        format!("restore at iteration {from}"),
        total_iters.to_string(),
        ms(t0.elapsed().as_nanos() as u64),
        "bitwise identical to reference".into(),
    ]);

    // A corrupted checkpoint is rejected structurally, never a panic.
    let mut bytes = std::fs::read(&path).expect("read checkpoint");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    let bad = ckpt_dir().join("stencil-corrupt.ckpt");
    std::fs::write(&bad, &bytes).expect("write corrupted copy");
    match StencilDriver::resume(cfg(scale, false), &bad) {
        Err(MemError::CheckpointCorrupted { .. } | MemError::CheckpointVersionMismatch { .. }) => {
            table.row(vec![
                "corrupted checkpoint".into(),
                "-".into(),
                "-".into(),
                "rejected with structured error".into(),
            ]);
        }
        Err(e) => panic!("corrupted checkpoint: unexpected error kind {e}"),
        Ok(_) => panic!("corrupted checkpoint must not restore"),
    }
    let _ = std::fs::remove_file(&bad);

    body.push_str(&table.render());
    body.push_str(&format!(
        "\nSurvived {kills} SIGKILL(s); every restore resumed mid-run and the final\n\
         grid matched the uninterrupted run bitwise.\n"
    ));
    emit("crash_recovery", &body, save);
}
