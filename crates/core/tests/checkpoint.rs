//! Integration tests for quiescence-coordinated checkpoint/restart on a
//! real `OocRuntime`, plus the oversize-task admission guard (every
//! strategy flavour) and structured rejection of corrupted checkpoints
//! at the runtime level.

use converse::{Chare, CompletionLatch, Dep, EntryId, EntryOptions, ExecCtx};
use hetmem::{AccessMode, BlockId, MemError, Memory, Topology, DDR4, HBM};
use hetrt_core::{IoHandle, OocConfig, OocRuntime, Placement, StrategyKind};
use std::path::PathBuf;
use std::sync::Arc;

const EP: EntryId = EntryId(0);

/// A unique temp path per test (the test name keeps parallel tests
/// from colliding; the pid keeps reruns from seeing stale files).
fn ckpt_path(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("hetrt-core-ckpt-tests");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(format!("{test}-{}.ckpt", std::process::id()))
}

/// Doubles every element of its block.
struct Doubler {
    data: IoHandle<f64>,
    latch: Arc<CompletionLatch>,
}

impl Chare for Doubler {
    type Msg = ();
    fn execute(&mut self, _e: EntryId, _m: (), _c: &mut ExecCtx<'_>) {
        self.data.write(|xs| xs.iter_mut().for_each(|x| *x *= 2.0));
        self.latch.count_down();
    }
    fn deps(&self, _e: EntryId, _m: &()) -> Vec<Dep> {
        vec![self.data.dep(AccessMode::ReadWrite)]
    }
}

/// Run one round of Doubler tasks over `handles` on `ooc`.
fn run_round(ooc: &OocRuntime, handles: &[IoHandle<f64>]) {
    let rt = ooc.runtime();
    let latch = Arc::new(CompletionLatch::new(handles.len()));
    let (l2, hs) = (Arc::clone(&latch), handles.to_vec());
    let array = rt
        .array_builder::<Doubler>()
        .entry(EP, EntryOptions::prefetch())
        .build(handles.len(), move |i| Doubler {
            data: hs[i].clone(),
            latch: Arc::clone(&l2),
        });
    for i in 0..handles.len() {
        rt.send(array, i, EP, ());
    }
    assert!(latch.wait_timeout_ms(30_000), "round never completed");
    assert!(ooc.wait_quiescence_ms(10_000));
}

fn small_hbm_runtime(kind: StrategyKind, config: OocConfig) -> (OocRuntime, Arc<Memory>) {
    // HBM fits two 4 KiB blocks — forces real fetch/evict traffic.
    let mem = Memory::new(Topology::knl_flat_scaled_with(2 * 4096 + 64, 1 << 24));
    let ooc = OocRuntime::new(Arc::clone(&mem), 2, kind, config);
    (ooc, mem)
}

#[test]
fn checkpoint_restore_round_trip_preserves_everything() {
    let path = ckpt_path("round-trip");
    let (ooc, mem) = small_hbm_runtime(StrategyKind::single_io(), OocConfig::default());

    let handles: Vec<IoHandle<f64>> = (0..3)
        .map(|i| {
            let h: IoHandle<f64> =
                IoHandle::new(&mem, 512, Placement::DdrOnly, HBM, DDR4, format!("b{i}")).unwrap();
            h.write(|xs| {
                for (j, x) in xs.iter_mut().enumerate() {
                    *x = (i * 1000 + j) as f64;
                }
            });
            h
        })
        .collect();

    run_round(&ooc, &handles);
    ooc.set_iteration(7);
    let before = ooc.stats();
    assert!(before.intercepted >= 3, "{before:?}");

    let summary = ooc.checkpoint(&path).expect("checkpoint");
    assert_eq!(summary.blocks, 3);
    assert_eq!(summary.payload_bytes, 3 * 512 * 8);

    // The checkpointed runtime keeps going: another full round works.
    run_round(&ooc, &handles);
    ooc.shutdown();

    // A fresh runtime restores the image and resumes from iteration 7.
    let (ooc2, mem2) = small_hbm_runtime(StrategyKind::single_io(), OocConfig::default());
    let it = ooc2.restore(&path).expect("restore");
    assert_eq!(it, 7);
    assert_eq!(ooc2.iteration(), 7);

    let after = ooc2.stats();
    assert_eq!(after.intercepted, before.intercepted);
    assert_eq!(after.completed, before.completed);
    assert_eq!(after.restores, 1);

    // Bitwise-identical payloads, reachable through re-attached handles
    // under the very same block ids.
    for (i, h) in handles.iter().enumerate() {
        let restored: IoHandle<f64> =
            IoHandle::attach(&mem2, BlockId(i as u32), 512).expect("attach");
        assert_eq!(restored.block(), h.block());
        let want: Vec<f64> = (0..512).map(|j| 2.0 * (i * 1000 + j) as f64).collect();
        restored.read(|xs| assert_eq!(xs, &want[..], "block {i} differs after restore"));
    }

    // The restored runtime is live: run a round and check the result.
    let restored: Vec<IoHandle<f64>> = (0..3)
        .map(|i| IoHandle::attach(&mem2, BlockId(i as u32), 512).unwrap())
        .collect();
    run_round(&ooc2, &restored);
    restored[0].read(|xs| assert_eq!(xs[1], 4.0));
    ooc2.shutdown();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn restore_spills_hbm_blocks_that_no_longer_fit() {
    let path = ckpt_path("spill");
    // Writer: plenty of HBM; park one block there deliberately.
    let mem = Memory::new(Topology::knl_flat_scaled_with(1 << 20, 1 << 24));
    let ooc = OocRuntime::new(
        Arc::clone(&mem),
        1,
        StrategyKind::SyncFetch,
        OocConfig::default(),
    );
    let h: IoHandle<f64> = IoHandle::new(&mem, 512, Placement::HbmOnly, HBM, DDR4, "hot").unwrap();
    h.write(|xs| xs.iter_mut().for_each(|x| *x = 3.25));
    assert_eq!(h.node(), Some(HBM));
    ooc.checkpoint(&path).expect("checkpoint");
    ooc.shutdown();

    // Reader: HBM too small for the block — residency replay spills it.
    let mem2 = Memory::new(Topology::knl_flat_scaled_with(1024, 1 << 24));
    let ooc2 = OocRuntime::new(
        Arc::clone(&mem2),
        1,
        StrategyKind::SyncFetch,
        OocConfig::default(),
    );
    ooc2.restore(&path).expect("restore");
    let restored: IoHandle<f64> = IoHandle::attach(&mem2, BlockId(0), 512).unwrap();
    assert_eq!(restored.node(), Some(DDR4), "oversize block must spill");
    restored.read(|xs| assert!(xs.iter().all(|&x| x == 3.25)));
    ooc2.shutdown();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn should_checkpoint_follows_the_periodic_policy() {
    let mem = Memory::new(Topology::knl_flat_scaled());
    let off = OocRuntime::new(
        Arc::clone(&mem),
        1,
        StrategyKind::Baseline,
        OocConfig::default(),
    );
    assert!(!off.should_checkpoint(0));
    assert!(!off.should_checkpoint(1));
    assert!(!off.should_checkpoint(100));
    off.shutdown();

    let mem = Memory::new(Topology::knl_flat_scaled());
    let every3 = OocRuntime::new(
        Arc::clone(&mem),
        1,
        StrategyKind::Baseline,
        OocConfig {
            checkpoint_every: 3,
            ..OocConfig::default()
        },
    );
    assert!(
        !every3.should_checkpoint(0),
        "iteration 0 never checkpoints"
    );
    assert!(!every3.should_checkpoint(1));
    assert!(!every3.should_checkpoint(2));
    assert!(every3.should_checkpoint(3));
    assert!(!every3.should_checkpoint(4));
    assert!(every3.should_checkpoint(6));
    every3.shutdown();
}

/// One oversize task (working set larger than all of HBM): the run
/// completes in degraded mode, and quiescence accounting balances — the
/// task leaves no in-flight count and its message counts as processed.
fn oversize_degrades_under(kind: StrategyKind) {
    // HBM: 4 KiB + change. The task's one block: 8 KiB.
    let mem = Memory::new(Topology::knl_flat_scaled_with(4096 + 64, 1 << 24));
    let ooc = OocRuntime::new(Arc::clone(&mem), 2, kind, OocConfig::default());
    let h: IoHandle<f64> = IoHandle::new(&mem, 1024, Placement::DdrOnly, HBM, DDR4, "big").unwrap();
    h.write(|xs| xs.iter_mut().for_each(|x| *x = 1.0));

    run_round(&ooc, std::slice::from_ref(&h));
    assert_eq!(h.node(), Some(DDR4), "oversize block never moves to HBM");
    h.read(|xs| assert!(xs.iter().all(|&x| x == 2.0)));
    let stats = ooc.stats();
    assert!(stats.degraded_tasks >= 1, "{stats:?}");
    assert_eq!(stats.rejected_tasks, 0);
    assert_eq!(stats.intercepted, stats.completed, "{stats:?}");
    let rt = ooc.runtime();
    assert_eq!(rt.processed_count(), rt.sent_count());
    ooc.shutdown();
}

#[test]
fn oversize_task_degrades_under_sync_fetch() {
    oversize_degrades_under(StrategyKind::SyncFetch);
}

#[test]
fn oversize_task_degrades_under_io_threads() {
    oversize_degrades_under(StrategyKind::single_io());
}

#[test]
fn oversize_task_degrades_under_cache_mode() {
    oversize_degrades_under(StrategyKind::CacheMode { sets: 4 });
}

#[test]
fn corrupted_checkpoints_are_rejected_and_the_runtime_stays_usable() {
    let path = ckpt_path("corruption");
    let (ooc, mem) = small_hbm_runtime(StrategyKind::SyncFetch, OocConfig::default());
    let h: IoHandle<f64> = IoHandle::new(&mem, 256, Placement::DdrOnly, HBM, DDR4, "d").unwrap();
    h.write(|xs| xs.iter_mut().for_each(|x| *x = 9.0));
    ooc.set_iteration(4);
    ooc.checkpoint(&path).expect("checkpoint");
    ooc.shutdown();
    let pristine = std::fs::read(&path).expect("read checkpoint back");

    let (ooc2, mem2) = small_hbm_runtime(StrategyKind::SyncFetch, OocConfig::default());

    // Truncated file → corrupted, structurally.
    std::fs::write(&path, &pristine[..pristine.len() / 2]).unwrap();
    match ooc2.restore(&path) {
        Err(MemError::CheckpointCorrupted { .. }) => {}
        other => panic!("truncated file: expected CheckpointCorrupted, got {other:?}"),
    }

    // One flipped payload byte → checksum mismatch.
    let mut flipped = pristine.clone();
    let last = flipped.len() - 1;
    flipped[last] ^= 0xff;
    std::fs::write(&path, &flipped).unwrap();
    match ooc2.restore(&path) {
        Err(MemError::CheckpointCorrupted { detail }) => {
            assert!(detail.contains("checksum"), "{detail}");
        }
        other => panic!("flipped byte: expected CheckpointCorrupted, got {other:?}"),
    }

    // A future format version → version mismatch, not corruption.
    let mut vbumped = pristine.clone();
    vbumped[4..8].copy_from_slice(&99u32.to_le_bytes());
    std::fs::write(&path, &vbumped).unwrap();
    match ooc2.restore(&path) {
        Err(MemError::CheckpointVersionMismatch {
            found: 99,
            expected,
        }) => {
            assert_eq!(expected, hetmem::CHECKPOINT_VERSION);
        }
        other => panic!("version bump: expected CheckpointVersionMismatch, got {other:?}"),
    }

    // A missing file → I/O error.
    let gone = path.with_extension("missing");
    match ooc2.restore(&gone) {
        Err(MemError::CheckpointIo { .. }) => {}
        other => panic!("missing file: expected CheckpointIo, got {other:?}"),
    }

    // None of the failures damaged the runtime: the pristine bytes
    // still restore into it, data intact.
    std::fs::write(&path, &pristine).unwrap();
    let it = ooc2
        .restore(&path)
        .expect("pristine restore after failures");
    assert_eq!(it, 4);
    let restored: IoHandle<f64> = IoHandle::attach(&mem2, BlockId(0), 256).unwrap();
    restored.read(|xs| assert!(xs.iter().all(|&x| x == 9.0)));
    run_round(&ooc2, &[restored]);
    ooc2.shutdown();
    let _ = std::fs::remove_file(&path);
}
