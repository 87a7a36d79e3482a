//! Layer probes: small measurements of single layers through each
//! crate's public API, independent of the workload. Every traced run
//! takes them.

use crate::report::Report;
use crate::stats::{inflation, median, modelled_charge_ns, percentile, SplitMix};
use crate::storm::{self, Build, BLOCK, CHARES};
use crate::threaded::Strategy;
use converse::{ArrayId, Chare, CompletionLatch, EntryId, EntryOptions, ExecCtx, Mapping, RuntimeBuilder};
use hetmem::{Clock, Memory, Topology, DDR4, HBM};
use projections::SpanKind;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Sequential charges per inflation measurement.
const CHARGES: u64 = 200;
/// add_ref + release_ref + node_of triples per registry measurement.
const REGISTRY_OPS: usize = 100_000;
/// Round trips (DDR4 → HBM → DDR4) per migration measurement.
const ROUND_TRIPS: usize = 2_000;
/// Repeats of each cheap probe; the median is reported.
const REPEATS: usize = 5;
/// Messages each chare sends itself in the send→execute probe.
const PINGS: u32 = 500;
const QUIESCENCE_CALLS: usize = 50;
/// Runs per chare in the storm probes, and how often each build runs.
const PROBE_PER_CHARE: u32 = 500;
const PROBE_REPEATS: usize = 3;

pub fn run(seed: u64, report: &mut Report) {
    charge_inflation(report);
    registry_and_migration(report);
    converse_latency(report);
    storm_probes(seed, report);
}

/// Actual over modelled time of sequential `Memory::charge` calls on the
/// scaled DDR4 node (90 MiB/s, 64 KiB slices, 2 µs per charge).
fn charge_inflation(report: &mut Report) {
    let topology = Topology::knl_flat_scaled();
    let mem = Memory::new(topology.clone());
    let rate = topology.node(DDR4).bandwidth_bytes_per_sec;
    let (slice, overhead) = (topology.slice_bytes(), topology.per_charge_overhead_ns());
    for (name, bytes) in [
        ("hetmem.charge_inflation_4k", 4 << 10),
        ("hetmem.charge_inflation_32k", 32 << 10),
        ("hetmem.charge_inflation_256k", 256 << 10),
    ] {
        let modelled = CHARGES * modelled_charge_ns(bytes, rate, slice, overhead);
        let t = Instant::now();
        for _ in 0..CHARGES {
            mem.charge(DDR4, bytes);
        }
        report.set(name, inflation(t.elapsed().as_nanos() as u64, modelled));
    }
}

/// Block-registry op cost and 4 KiB migration cost at free bandwidth.
fn registry_and_migration(report: &mut Report) {
    let mem = Memory::new(storm::free_topology((CHARES * BLOCK) as u64));
    let registry = mem.registry();
    let mut ids = Vec::with_capacity(CHARES);
    for i in 0..CHARES {
        match mem.alloc_on_node(BLOCK, DDR4) {
            Ok(buf) => ids.push(registry.register(buf, format!("probe{i}"))),
            Err(e) => return report.fail(format_args!("probe block allocation: {e}")),
        }
    }
    let per_triple: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let t = Instant::now();
            for k in 0..REGISTRY_OPS {
                let id = ids[k % ids.len()];
                black_box(registry.add_ref(id));
                black_box(registry.release_ref(id));
                black_box(registry.node_of(id));
            }
            t.elapsed().as_nanos() as f64 / REGISTRY_OPS as f64
        })
        .collect();
    report.set("hetmem.registry_op_ns", median(&per_triple));

    let engine = mem.migration_engine();
    let mut per_move = Vec::with_capacity(REPEATS);
    for _ in 0..REPEATS {
        let t = Instant::now();
        for _ in 0..ROUND_TRIPS {
            for node in [HBM, DDR4] {
                if let Err(e) = engine.migrate(ids[0], node, false, true) {
                    return report.fail(format_args!("probe migration: {e}"));
                }
            }
        }
        per_move.push(t.elapsed().as_nanos() as f64 / (2 * ROUND_TRIPS) as f64 / 1e3);
    }
    report.set("hetmem.migrate_us", median(&per_move));
}

const EP_PING: EntryId = EntryId(0);

/// Re-sends itself `left` more times; each message carries its send
/// time, read back when the entry runs.
struct Pinger {
    array: Option<ArrayId>,
    left: u32,
    latencies_ns: Vec<f64>,
    clock: Arc<dyn Clock>,
    latch: Arc<CompletionLatch>,
}

impl Chare for Pinger {
    type Msg = u64;

    fn execute(&mut self, _entry: EntryId, sent_at: u64, ctx: &mut ExecCtx<'_>) {
        let now = self.clock.now();
        self.latencies_ns.push(now.saturating_sub(sent_at) as f64);
        if self.left == 0 {
            self.latch.count_down();
            return;
        }
        self.left -= 1;
        let array = self.array.expect("array id is set before the first ping");
        ctx.send(array, ctx.index(), EP_PING, self.clock.now());
    }
}

/// Send→execute latency of plain converse messages under task-storm's
/// closed-loop load (64 chares on 2 PEs, each re-sending itself), and
/// the cost of `wait_quiescence_ms` on an already-quiescent runtime.
fn converse_latency(report: &mut Report) {
    let rt = RuntimeBuilder::new(storm::PES).build();
    let clock = Arc::clone(rt.clock());
    let latch = Arc::new(CompletionLatch::new(CHARES));
    let array = rt
        .array_builder::<Pinger>()
        .entry(EP_PING, EntryOptions::default())
        .mapping(Mapping::Block)
        .build(CHARES, |_| Pinger {
            array: None,
            left: PINGS,
            latencies_ns: Vec::with_capacity(PINGS as usize + 1),
            clock: Arc::clone(&clock),
            latch: Arc::clone(&latch),
        });
    let pingers = rt.array::<Pinger>(array);
    for i in 0..CHARES {
        pingers.with_chare(i, |p| p.array = Some(array));
    }
    for i in 0..CHARES {
        rt.send(array, i, EP_PING, clock.now());
    }
    if !latch.wait_timeout_ms(60_000) {
        rt.shutdown();
        return report.fail("converse ping probe did not finish");
    }
    let us: Vec<f64> = (0..CHARES)
        .flat_map(|i| pingers.with_chare(i, |p| std::mem::take(&mut p.latencies_ns)))
        .map(|ns| ns / 1e3)
        .collect();
    report.set("converse.send_exec_us_p50", percentile(&us, 50.0));
    report.set("converse.send_exec_us_p99", percentile(&us, 99.0));
    let mut quiescence_ms = Vec::with_capacity(QUIESCENCE_CALLS);
    for _ in 0..QUIESCENCE_CALLS {
        let t = Instant::now();
        if !rt.wait_quiescence_ms(1_000) {
            report.fail("idle runtime not quiescent");
        }
        quiescence_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    report.set("converse.quiescence_ms", median(&quiescence_ms));
    rt.shutdown();
}

/// Per-task cost of span recording and of an attached hetcheck checker,
/// on task-storm's geometry under multi-io: the default `OocRuntime`
/// against the same parts around a disabled collector, and against one
/// built by `try_new_with_checker` with a counting checker. Also the
/// fetch-span distribution of the default build.
fn storm_probes(seed: u64, report: &mut Report) {
    let order = SplitMix(seed).permutation(CHARES);
    let builds = [Build::Default, Build::Untraced, Build::Checked];
    let mut makespans: [Vec<f64>; 3] = Default::default();
    let mut fetch_us = Vec::new();
    let mut violations = 0;
    for repeat in 0..PROBE_REPEATS {
        for j in 0..builds.len() {
            let i = (j + repeat) % builds.len();
            match storm::storm(Strategy::MultiIo, PROBE_PER_CHARE, &order, builds[i]) {
                Ok((sample, trace)) => {
                    makespans[i].push(sample.makespan_ns as f64);
                    violations += sample.stats.violations;
                    if builds[i] == Build::Default && fetch_us.is_empty() {
                        fetch_us = trace
                            .lanes
                            .iter()
                            .flat_map(|l| &l.spans)
                            .filter(|s| s.kind == SpanKind::Fetch)
                            .map(|s| s.duration_ns() as f64 / 1e3)
                            .collect();
                    }
                }
                Err(e) => return report.fail(format_args!("storm probe {:?}: {e}", builds[i])),
            }
        }
    }
    let tasks = (CHARES as u64 * u64::from(PROBE_PER_CHARE)) as f64;
    let [default, untraced, checked] = makespans.map(|m| median(&m));
    report.set("projections.trace_cost_us", (default - untraced) / tasks / 1e3);
    report.set("hetcheck.task_overhead_us", (checked - default) / tasks / 1e3);
    report.set("hetcheck.violations", violations as f64);
    if violations > 0 {
        report.fail(format_args!("hetcheck reported {violations} violations"));
    }
    report.set("core.fetch_us_p50", percentile(&fetch_us, 50.0));
    report.set("core.fetch_us_p99", percentile(&fetch_us, 99.0));
}
