//! `perfbench` — the hetrt benchmark: makespans of the paper's four
//! strategies (naive, sync, single-io, multi-io) on four workloads, and
//! per-layer costs from a separate traced run. METRICS.md describes
//! every metric and which end-to-end metric a layer change should move.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Notes (seed, host, pinned configuration, samples, checks) are `# `
//! lines on stdout; the last stdout line is the JSON result.

mod probes;
mod report;
mod sim;
mod stats;
mod storm;
mod threaded;

use report::Report;
use std::time::{Duration, Instant};

/// The workloads, as `--workload` names them.
const WORKLOADS: [&str; 4] = ["stencil-ooc", "matmul-reuse", "task-storm", "vtsim-paper"];

/// A run still going after this long has wedged: it exits with an error
/// instead of overrunning the 180 s a run may take.
const WATCHDOG: Duration = Duration::from_secs(170);

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| bad())?),
            "--trace" => trace = Some(value == "1"),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!(
            "perfbench: {e}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
            WORKLOADS.join("|")
        );
        std::process::exit(2);
    });
    // Deliberately detached: it only ever ends the process.
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("perfbench: still running after {WATCHDOG:?}; giving up");
        std::process::exit(3);
    });
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let mut report = Report::new(args.trace);
    report.note(format_args!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={nproc}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    ));
    let start = Instant::now();
    if args.trace {
        probes::run(args.seed, &mut report);
        if args.workload != "vtsim-paper" {
            // vtsim's per-layer metrics: one sweep of each strategy.
            sim::vtsim_paper(Duration::ZERO, &mut report);
        }
    }
    // Probes count against the run's time; the workload gets the rest
    // (and always runs each strategy at least once).
    let budget = Duration::from_secs(args.seconds).saturating_sub(start.elapsed());
    match args.workload.as_str() {
        "stencil-ooc" => threaded::stencil_ooc(budget, &mut report),
        "matmul-reuse" => threaded::matmul_reuse(args.seed, budget, &mut report),
        "task-storm" => storm::task_storm(args.seed, budget, &mut report),
        _ => sim::vtsim_paper(budget, &mut report),
    }
    if !report.finish() {
        std::process::exit(1);
    }
}
