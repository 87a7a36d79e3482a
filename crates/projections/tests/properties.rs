//! Property-based tests of the tracing layer: summaries conserve
//! recorded time, and rendering never panics.

use projections::{render, LaneId, Span, SpanKind, Trace, TraceCollector};
use proptest::prelude::*;

fn arb_kind() -> impl Strategy<Value = SpanKind> {
    (0usize..SpanKind::ALL.len()).prop_map(|i| SpanKind::ALL[i])
}

fn arb_span() -> impl Strategy<Value = (SpanKind, u64, u64, u32)> {
    (arb_kind(), 0u64..1_000_000, 0u64..1_000_000, any::<u32>())
        .prop_map(|(k, a, b, tag)| (k, a.min(b), a.max(b), tag))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The summary's per-kind totals equal the sum of span durations,
    /// and overhead + non-overhead partitions the total.
    #[test]
    fn summary_conserves_time(
        spans in prop::collection::vec(arb_span(), 0..80),
        lanes in 1u32..5,
    ) {
        let collector = TraceCollector::new();
        let tracers: Vec<_> = (0..lanes).map(|i| collector.tracer(LaneId::worker(i))).collect();
        let mut expected: u64 = 0;
        for (i, (kind, start, end, tag)) in spans.iter().enumerate() {
            tracers[i % tracers.len()].record(*kind, *start, *end, *tag);
            expected += end - start;
        }
        let trace = collector.finish();
        let summary = trace.summarize();
        prop_assert_eq!(summary.total.total_ns(), expected);
        let non_overhead: u64 = SpanKind::ALL
            .iter()
            .filter(|k| !k.is_overhead())
            .map(|k| summary.total.get(*k))
            .sum();
        prop_assert_eq!(summary.total.overhead_ns() + non_overhead, expected);
        let f = summary.total.overhead_fraction();
        prop_assert!((0.0..=1.0).contains(&f));
    }

    /// Spans come back time-sorted within each lane, and the makespan
    /// bounds every span.
    #[test]
    fn finish_sorts_and_bounds(spans in prop::collection::vec(arb_span(), 1..60)) {
        let collector = TraceCollector::new();
        let t = collector.tracer(LaneId::worker(0));
        for (kind, start, end, tag) in &spans {
            t.record(*kind, *start, *end, *tag);
        }
        let trace = collector.finish();
        let lane = &trace.lanes[0];
        for w in lane.spans.windows(2) {
            prop_assert!(w[0].start_ns <= w[1].start_ns);
        }
        for s in &lane.spans {
            prop_assert!(s.start_ns >= trace.start_ns());
            prop_assert!(s.end_ns <= trace.end_ns());
        }
    }

    /// ASCII rendering succeeds at any width.
    #[test]
    fn rendering_succeeds_at_any_width(
        spans in prop::collection::vec(arb_span(), 0..40),
        width in 1usize..200,
    ) {
        let collector = TraceCollector::new();
        let t = collector.tracer(LaneId::io(3));
        for (kind, start, end, tag) in &spans {
            t.record(*kind, *start, *end, *tag);
        }
        let trace = collector.finish();
        let art = render::render_ascii(&trace, width);
        prop_assert!(!art.is_empty());
    }

    /// Hand-built traces: makespan is max(end) - min(start).
    #[test]
    fn makespan_definition(spans in prop::collection::vec(arb_span(), 1..40)) {
        let mut built: Vec<Span> = spans
            .iter()
            .map(|(kind, start, end, tag)| Span {
                kind: *kind,
                start_ns: *start,
                end_ns: *end,
                tag: *tag,
            })
            .collect();
        // Trace::start_ns relies on per-lane time order (finish() sorts).
        built.sort_by_key(|s| (s.start_ns, s.end_ns));
        let lane = projections::timeline::LaneTrace {
            lane: LaneId::worker(0),
            spans: built,
        };
        let trace = Trace { lanes: vec![lane] };
        let min = spans.iter().map(|s| s.1).min().unwrap();
        let max = spans.iter().map(|s| s.2).max().unwrap();
        prop_assert_eq!(trace.makespan_ns(), max - min);
    }
}
