//! Traces produced by real runs must be structurally sound: sorted
//! spans, sane fractions, lanes for every worker and IO thread, and a
//! timeline and summary that render.

use hetrt::core::{OocConfig, Placement, StrategyKind};
use hetrt::hetmem::Topology;
use hetrt::kernels::stencil::{run_stencil, StencilConfig};
use hetrt::projections::{LaneKind, SpanKind};

fn cfg(strategy: StrategyKind) -> StencilConfig {
    StencilConfig {
        chares: (2, 2, 1),
        block: (16, 16, 8),
        iterations: 2,
        pes: 2,
        strategy,
        placement: Placement::DdrOnly,
        ooc: OocConfig::default(),
        topology: Topology::knl_flat_scaled_with(40 << 10, 96 << 20),
        compute_passes: 2,
        faults: None,
    }
}

#[test]
fn summary_fractions_are_sane_across_strategies() {
    for strategy in [
        StrategyKind::SyncFetch,
        StrategyKind::single_io(),
        StrategyKind::multi_io(2),
    ] {
        let r = run_stencil(&cfg(strategy));
        let f = r.summary.total.overhead_fraction();
        assert!((0.0..=1.0).contains(&f), "{strategy:?}: overhead {f}");
        let c = r.summary.total.compute_fraction();
        assert!((0.0..=1.0).contains(&c), "{strategy:?}: compute {c}");
        assert!(r.summary.makespan_ns > 0);
        assert!(
            r.summary.total.get(SpanKind::Compute) > 0,
            "{strategy:?}: no compute recorded"
        );
        assert!(
            r.summary.total.get(SpanKind::Fetch) > 0,
            "{strategy:?}: no fetches recorded"
        );
    }
}

#[test]
fn io_strategies_record_io_lanes_and_sync_does_not() {
    let io_run = run_stencil(&cfg(StrategyKind::single_io()));
    assert!(
        io_run
            .summary
            .lanes
            .iter()
            .any(|l| l.lane.kind == LaneKind::Io),
        "single-io run must have an IO lane"
    );
    // In the IO-thread strategy, fetches happen on IO lanes.
    let io_fetch: u64 = io_run
        .summary
        .lanes
        .iter()
        .filter(|l| l.lane.kind == LaneKind::Io)
        .map(|l| l.breakdown.get(SpanKind::Fetch))
        .sum();
    assert!(io_fetch > 0, "fetch time must land on the IO lane");

    let sync_run = run_stencil(&cfg(StrategyKind::SyncFetch));
    let worker_fetch: u64 = sync_run
        .summary
        .lanes
        .iter()
        .filter(|l| l.lane.kind == LaneKind::Worker)
        .map(|l| l.breakdown.get(SpanKind::Fetch))
        .sum();
    assert!(
        worker_fetch > 0,
        "sync strategy fetch time must land on worker lanes"
    );
}

#[test]
fn timeline_renders_and_exports() {
    let r = run_stencil(&cfg(StrategyKind::multi_io(2)));
    assert!(r.timeline.contains("PE0"));
    assert!(r.timeline.contains("legend:"));
    assert!(r.summary.makespan_ns > 0);
    assert!(r.summary.render().contains("makespan:"));
}
