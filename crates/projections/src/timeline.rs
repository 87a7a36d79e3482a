//! Trace analysis: per-lane and per-kind time breakdowns.

use crate::span::{LaneId, Span, SpanKind};

/// All spans recorded by one lane, time-sorted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneTrace {
    /// The lane.
    pub lane: LaneId,
    /// Its spans, sorted by start time.
    pub spans: Vec<Span>,
}

/// A complete run's trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// One entry per lane (workers first, then IO threads).
    pub lanes: Vec<LaneTrace>,
}

impl Trace {
    /// Earliest span start across all lanes (0 for an empty trace).
    pub fn start_ns(&self) -> u64 {
        self.lanes
            .iter()
            .flat_map(|l| l.spans.first())
            .map(|s| s.start_ns)
            .min()
            .unwrap_or(0)
    }

    /// Latest span end across all lanes.
    pub fn end_ns(&self) -> u64 {
        self.lanes
            .iter()
            .flat_map(|l| l.spans.iter())
            .map(|s| s.end_ns)
            .max()
            .unwrap_or(0)
    }

    /// Total traced makespan.
    pub fn makespan_ns(&self) -> u64 {
        self.end_ns().saturating_sub(self.start_ns())
    }

    /// Summarise into per-kind and per-lane totals.
    pub fn summarize(&self) -> TraceSummary {
        let mut lanes = Vec::with_capacity(self.lanes.len());
        let mut total = KindBreakdown::default();
        for lane in &self.lanes {
            let mut breakdown = KindBreakdown::default();
            for span in &lane.spans {
                breakdown.add(span.kind, span.duration_ns());
                total.add(span.kind, span.duration_ns());
            }
            lanes.push(LaneSummary {
                lane: lane.lane,
                breakdown,
                span_count: lane.spans.len(),
            });
        }
        TraceSummary {
            lanes,
            total,
            makespan_ns: self.makespan_ns(),
        }
    }
}

/// Time per span kind, in nanoseconds.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KindBreakdown {
    /// Indexed by [`SpanKind::index`].
    ns: [u64; SpanKind::ALL.len()],
}

impl KindBreakdown {
    /// Add `ns` to `kind`'s bucket.
    pub fn add(&mut self, kind: SpanKind, ns: u64) {
        self.ns[kind.index()] += ns;
    }

    /// Time recorded for `kind`.
    pub fn get(&self, kind: SpanKind) -> u64 {
        self.ns[kind.index()]
    }

    /// Sum over all kinds.
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// Sum over overhead kinds — the paper's "red portion".
    pub fn overhead_ns(&self) -> u64 {
        self.iter()
            .filter(|(k, _)| k.is_overhead())
            .map(|(_, ns)| ns)
            .sum()
    }

    /// Overhead as a fraction of all recorded time, 0..=1.
    pub fn overhead_fraction(&self) -> f64 {
        let total = self.total_ns();
        if total == 0 {
            0.0
        } else {
            self.overhead_ns() as f64 / total as f64
        }
    }

    /// Compute (useful work) as a fraction of all recorded time.
    pub fn compute_fraction(&self) -> f64 {
        let total = self.total_ns();
        if total == 0 {
            0.0
        } else {
            self.get(SpanKind::Compute) as f64 / total as f64
        }
    }

    /// Iterate non-zero kinds, in [`SpanKind::ALL`] order.
    pub fn iter(&self) -> impl Iterator<Item = (SpanKind, u64)> + '_ {
        SpanKind::ALL
            .into_iter()
            .zip(self.ns)
            .filter(|&(_, ns)| ns > 0)
    }
}

/// Summary for one lane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneSummary {
    /// The lane.
    pub lane: LaneId,
    /// Its time breakdown.
    pub breakdown: KindBreakdown,
    /// Number of spans recorded.
    pub span_count: usize,
}

/// Whole-run summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSummary {
    /// Per-lane summaries.
    pub lanes: Vec<LaneSummary>,
    /// Aggregate over all lanes.
    pub total: KindBreakdown,
    /// Traced makespan in nanoseconds.
    pub makespan_ns: u64,
}

impl TraceSummary {
    /// Render a table like the paper's Figure 5/6 narrative: per lane,
    /// the fraction of time in compute vs each overhead class.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("lane   spans ");
        for k in SpanKind::ALL {
            out.push_str(&format!("{:>9}", k.label()));
        }
        out.push_str("  overhead%\n");
        for lane in &self.lanes {
            out.push_str(&format!(
                "{:<6} {:>5} ",
                lane.lane.to_string(),
                lane.span_count
            ));
            for k in SpanKind::ALL {
                out.push_str(&format!("{:>8.2}m", lane.breakdown.get(k) as f64 / 1e6));
            }
            out.push_str(&format!(
                "  {:>8.1}%\n",
                lane.breakdown.overhead_fraction() * 100.0
            ));
        }
        out.push_str(&format!(
            "total overhead: {:.1}%   compute: {:.1}%   makespan: {:.3} ms\n",
            self.total.overhead_fraction() * 100.0,
            self.total.compute_fraction() * 100.0,
            self.makespan_ns as f64 / 1e6
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: SpanKind, start: u64, end: u64) -> Span {
        Span {
            kind,
            start_ns: start,
            end_ns: end,
            tag: 0,
        }
    }

    fn sample_trace() -> Trace {
        Trace {
            lanes: vec![
                LaneTrace {
                    lane: LaneId::worker(0),
                    spans: vec![
                        span(SpanKind::Compute, 0, 60),
                        span(SpanKind::BlockWait, 60, 80),
                        span(SpanKind::Idle, 80, 100),
                    ],
                },
                LaneTrace {
                    lane: LaneId::io(0),
                    spans: vec![span(SpanKind::Fetch, 10, 50)],
                },
            ],
        }
    }

    #[test]
    fn makespan_spans_all_lanes() {
        let t = sample_trace();
        assert_eq!(t.start_ns(), 0);
        assert_eq!(t.end_ns(), 100);
        assert_eq!(t.makespan_ns(), 100);
    }

    #[test]
    fn summary_totals() {
        let s = sample_trace().summarize();
        assert_eq!(s.total.get(SpanKind::Compute), 60);
        assert_eq!(s.total.get(SpanKind::Fetch), 40);
        assert_eq!(s.total.overhead_ns(), 60); // 20 bwait + 40 fetch
        assert_eq!(s.total.total_ns(), 140);
        let w = &s.lanes[0];
        assert_eq!(w.span_count, 3);
        assert!((w.breakdown.overhead_fraction() - 0.2).abs() < 1e-9);
    }

    #[test]
    fn summary_iterates_recorded_kinds_in_display_order() {
        // Kinds recorded out of order, one of them on two lanes.
        let t = Trace {
            lanes: vec![
                LaneTrace {
                    lane: LaneId::worker(0),
                    spans: vec![
                        span(SpanKind::Restore, 0, 5),
                        span(SpanKind::Idle, 5, 12),
                        span(SpanKind::Compute, 12, 40),
                        span(SpanKind::Entry, 40, 43),
                    ],
                },
                LaneTrace {
                    lane: LaneId::io(0),
                    spans: vec![
                        span(SpanKind::Evict, 0, 9),
                        span(SpanKind::Fetch, 9, 20),
                        span(SpanKind::Idle, 20, 21),
                    ],
                },
            ],
        };
        let s = t.summarize();
        let total: Vec<(SpanKind, u64)> = s.total.iter().collect();
        assert_eq!(
            total,
            [
                (SpanKind::Compute, 28),
                (SpanKind::Entry, 3),
                (SpanKind::Fetch, 11),
                (SpanKind::Evict, 9),
                (SpanKind::Idle, 8),
                (SpanKind::Restore, 5),
            ]
        );
        assert_eq!(s.total.total_ns(), 64);
        assert_eq!(s.total.overhead_ns(), 25);
        let io: Vec<(SpanKind, u64)> = s.lanes[1].breakdown.iter().collect();
        assert_eq!(
            io,
            [
                (SpanKind::Fetch, 11),
                (SpanKind::Evict, 9),
                (SpanKind::Idle, 1)
            ]
        );
        assert_eq!(s.lanes[1].breakdown.get(SpanKind::Compute), 0);
    }

    #[test]
    fn empty_trace_is_well_defined() {
        let t = Trace { lanes: vec![] };
        assert_eq!(t.makespan_ns(), 0);
        let s = t.summarize();
        assert_eq!(s.total.total_ns(), 0);
        assert_eq!(s.total.overhead_fraction(), 0.0);
    }

    #[test]
    fn render_mentions_lanes_and_overhead() {
        let s = sample_trace().summarize();
        let r = s.render();
        assert!(r.contains("PE0"));
        assert!(r.contains("IO0"));
        assert!(r.contains("total overhead"));
    }
}
