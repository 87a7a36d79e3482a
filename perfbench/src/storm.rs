//! task-storm: a benchmark-owned no-op `[prefetch]` chare on free
//! bandwidth, so the makespan is the runtime's own per-task cost:
//! converse send, dispatch and queues, the core's steps from intercept
//! to complete, registry ops and migration alloc + memcpy. The loop is
//! closed (each task re-sends itself until its chare has run
//! `per_chare` times), which keeps the driver off the cores and makes
//! the fetch and eviction counts repeat exactly.

use crate::report::Report;
use crate::stats::SplitMix;
use crate::threaded::{cycle, summarize, Geometry, Sample, Strategy};
use converse::{
    ArrayId, Chare, CompletionLatch, Dep, EntryId, EntryOptions, ExecCtx, Mapping, Runtime,
    RuntimeBuilder,
};
use hetcheck::{Checker, ViolationAction};
use hetmem::{AccessMode, Memory, NodeSpec, Topology, DDR4, HBM};
use hetrt_core::{IoHandle, OocConfig, OocHook, OocRuntime, OocStats};
use projections::{Trace, TraceCollector};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// PEs: the host's two cores.
pub const PES: usize = 2;
pub const CHARES: usize = 64;
/// Bytes per chare block.
pub const BLOCK: usize = 4096;
/// Runs per chare in the task-storm workload.
const PER_CHARE: u32 = 2000;
/// Bandwidth at which every modelled charge costs about a nanosecond.
const FREE_BANDWIDTH: u64 = 1 << 55;
const TIMEOUT_MS: u64 = 60_000;
const EP_TICK: EntryId = EntryId(0);

/// Both nodes at free bandwidth with no per-charge overhead and no
/// copy-rate cap; HBM holds `hbm_bytes`.
pub fn free_topology(hbm_bytes: u64) -> Topology {
    Topology::new(vec![
        NodeSpec::new("DDR4", 64 << 20, FREE_BANDWIDTH),
        NodeSpec::new("MCDRAM", hbm_bytes, FREE_BANDWIDTH),
    ])
}

/// How the runtime under test is assembled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Build {
    /// `OocRuntime`, as every driver builds it: tracing on, no checker.
    Default,
    /// The same parts assembled by hand around a disabled collector.
    Untraced,
    /// `OocRuntime` with a counting hetcheck checker attached.
    Checked,
}

struct StormChare {
    block: IoHandle<f64>,
    array: Option<ArrayId>,
    target: u32,
    runs: u32,
    latch: Arc<CompletionLatch>,
}

impl Chare for StormChare {
    type Msg = ();

    fn execute(&mut self, _entry: EntryId, _msg: (), ctx: &mut ExecCtx<'_>) {
        self.runs += 1;
        if self.runs < self.target {
            let array = self.array.expect("array id is set before the first send");
            ctx.send(array, ctx.index(), EP_TICK, ());
        } else {
            self.latch.count_down();
        }
    }

    fn deps(&self, _entry: EntryId, _msg: &()) -> Vec<Dep> {
        vec![self.block.dep(AccessMode::ReadWrite)]
    }
}

enum Assembled {
    Ooc(OocRuntime),
    Parts(Arc<Runtime>, Option<Arc<OocHook>>),
}

impl Assembled {
    fn new(mem: &Arc<Memory>, strategy: Strategy, build: Build) -> std::io::Result<Self> {
        let kind = strategy.kind(PES);
        let config = OocConfig::default();
        let ooc = |checker| {
            OocRuntime::try_new_with_checker(Arc::clone(mem), PES, kind, config, checker)
                .map(Assembled::Ooc)
        };
        match build {
            Build::Default => ooc(None),
            Build::Checked => ooc(Some(Arc::new(Checker::new(ViolationAction::Count)))),
            Build::Untraced => {
                let rt = RuntimeBuilder::new(PES)
                    .clock(Arc::clone(mem.clock()))
                    .collector(Arc::new(TraceCollector::disabled()))
                    .build();
                if strategy == Strategy::Naive {
                    return Ok(Assembled::Parts(rt, None));
                }
                match OocHook::new(Arc::clone(&rt), Arc::clone(mem), kind, config) {
                    Ok(hook) => {
                        rt.set_hook(hook.clone());
                        Ok(Assembled::Parts(rt, Some(hook)))
                    }
                    Err(e) => {
                        rt.shutdown();
                        Err(e)
                    }
                }
            }
        }
    }

    fn runtime(&self) -> &Arc<Runtime> {
        match self {
            Assembled::Ooc(ooc) => ooc.runtime(),
            Assembled::Parts(rt, _) => rt,
        }
    }

    fn stats(&self) -> OocStats {
        match self {
            Assembled::Ooc(ooc) => ooc.stats(),
            Assembled::Parts(_, hook) => hook.as_ref().map(|h| h.stats()).unwrap_or_default(),
        }
    }

    fn shutdown(&self) {
        match self {
            Assembled::Ooc(ooc) => ooc.shutdown(),
            Assembled::Parts(rt, hook) => {
                if let Some(hook) = hook {
                    hook.shutdown();
                }
                rt.shutdown();
            }
        }
    }
}

impl Drop for Assembled {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One storm: `CHARES` chares on `PES` PEs, each run `per_chare` times,
/// first sent in `order`. Checks that every task completed, none
/// degraded or was rejected, and every message sent was processed.
pub fn storm(
    strategy: Strategy,
    per_chare: u32,
    order: &[usize],
    build: Build,
) -> Result<(Sample, Trace), String> {
    let start = Instant::now();
    let mem = Memory::new(free_topology((CHARES * BLOCK / 2) as u64));
    let rt = Assembled::new(&mem, strategy, build).map_err(|e| format!("runtime build: {e}"))?;
    let blocks = (0..CHARES)
        .map(|i| {
            let placement = strategy.placement(0);
            IoHandle::<f64>::new(&mem, BLOCK / 8, placement, HBM, DDR4, format!("storm{i}"))
        })
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("block allocation: {e}"))?;
    let latch = Arc::new(CompletionLatch::new(CHARES));
    let runtime = rt.runtime();
    let array = runtime
        .array_builder::<StormChare>()
        .entry(EP_TICK, EntryOptions::prefetch())
        .mapping(Mapping::Block)
        .build(CHARES, |i| StormChare {
            block: blocks[i].clone(),
            array: None,
            target: per_chare,
            runs: 0,
            latch: Arc::clone(&latch),
        });
    let chares = runtime.array::<StormChare>(array);
    for i in 0..CHARES {
        chares.with_chare(i, |c| c.array = Some(array));
    }
    let before = start.elapsed();

    let t0 = Instant::now();
    for &i in order {
        runtime.send(array, i, EP_TICK, ());
    }
    let done = latch.wait_timeout_ms(TIMEOUT_MS);
    let makespan = t0.elapsed();

    let t1 = Instant::now();
    if !done {
        return Err(format!("not finished after {TIMEOUT_MS} ms"));
    }
    if !runtime.wait_quiescence_ms(TIMEOUT_MS) {
        return Err("runtime not quiescent".into());
    }
    let runs: u64 = (0..CHARES)
        .map(|i| chares.with_chare(i, |c| u64::from(c.runs)))
        .sum();
    let (sent, processed) = (runtime.sent_count(), runtime.processed_count());
    let stats = rt.stats();
    let trace = runtime.collector().finish();
    let summary = trace.summarize();
    let mem_stats = mem.stats();
    drop(chares);
    rt.shutdown();
    let setup = before + t1.elapsed();

    let tasks = CHARES as u64 * u64::from(per_chare);
    if runs != tasks || sent != processed {
        return Err(format!(
            "{runs} of {tasks} tasks ran; {processed} of {sent} messages processed"
        ));
    }
    if strategy != Strategy::Naive && stats.completed != tasks {
        return Err(format!("{} of {tasks} tasks completed", stats.completed));
    }
    if stats.degraded_tasks + stats.rejected_tasks > 0 {
        return Err(format!(
            "{} degraded and {} rejected tasks",
            stats.degraded_tasks, stats.rejected_tasks
        ));
    }
    let sample = Sample {
        makespan_ns: makespan.as_nanos() as u64,
        setup_ns: setup.as_nanos() as u64,
        stats,
        summary,
        mem: mem_stats,
    };
    Ok((sample, trace))
}

pub fn task_storm(seed: u64, budget: Duration, report: &mut Report) {
    let order = SplitMix(seed).permutation(CHARES);
    report.note(format_args!(
        "task-storm: {CHARES} no-op chares x {PER_CHARE} runs, {BLOCK} B blocks, HBM holds half; \
         {PES} PEs; both nodes at 2^55 B/s, no per-charge overhead, no copy-rate cap; closed \
         loop; first sends in seeded order {order:?}"
    ));
    report.note(
        "OocRuntime cannot switch its tracing off, so these makespans include span recording \
         (projections.trace_cost_us measures that cost)",
    );
    let samples = cycle(budget, |strategy| {
        match storm(strategy, PER_CHARE, &order, Build::Default) {
            Ok((sample, _)) => Some(sample),
            Err(e) => {
                report.fail(format_args!("task-storm {}: {e}", strategy.name()));
                None
            }
        }
    });
    let geo = Geometry {
        pes: PES,
        tasks: CHARES as u64 * u64::from(PER_CHARE),
        deps_per_task: 1,
        topology: free_topology((CHARES * BLOCK / 2) as u64),
        exact_counts: true,
    };
    summarize(&geo, &samples, report);
}
