//! ASCII timeline rendering — a terminal-sized stand-in for the
//! Projections GUI screenshots in the paper's Figures 5 and 6.
//!
//! Each lane becomes one row of `width` cells; each cell shows the glyph
//! of the span kind that dominated that time bucket. Overhead kinds win
//! ties over compute so stalls stay visible (they are the point of the
//! figures).

use crate::span::SpanKind;
use crate::timeline::Trace;

/// Render `trace` as an ASCII timeline `width` characters wide.
pub fn render_ascii(trace: &Trace, width: usize) -> String {
    assert!(width > 0);
    let t0 = trace.start_ns();
    let t1 = trace.end_ns();
    if t1 <= t0 {
        return String::from("(empty trace)\n");
    }
    let span_total = (t1 - t0) as f64;
    let mut out = String::new();
    out.push_str(&legend());
    for lane in &trace.lanes {
        // Per-bucket time accumulated by kind.
        let mut buckets: Vec<[u64; SpanKind::ALL.len()]> = vec![[0; SpanKind::ALL.len()]; width];
        for span in &lane.spans {
            if span.duration_ns() == 0 {
                continue;
            }
            let b0 = (((span.start_ns - t0) as f64 / span_total) * width as f64) as usize;
            let b1 = (((span.end_ns - t0) as f64 / span_total) * width as f64).ceil() as usize;
            let b1 = b1.clamp(b0 + 1, width);
            let kind_idx = SpanKind::ALL.iter().position(|k| *k == span.kind).unwrap();
            for bucket in buckets.iter_mut().take(b1).skip(b0.min(width - 1)) {
                bucket[kind_idx] += span.duration_ns() / (b1 - b0.min(width - 1)).max(1) as u64;
            }
        }
        out.push_str(&format!("{:<5}|", lane.lane.to_string()));
        for bucket in &buckets {
            let mut best: Option<(SpanKind, u64)> = None;
            for (i, &ns) in bucket.iter().enumerate() {
                if ns == 0 {
                    continue;
                }
                let kind = SpanKind::ALL[i];
                let better = match best {
                    None => true,
                    Some((bk, bns)) => {
                        // Overhead beats non-overhead on ties-ish buckets;
                        // otherwise strictly more time wins.
                        ns > bns || (ns == bns && kind.is_overhead() && !bk.is_overhead())
                    }
                };
                if better {
                    best = Some((kind, ns));
                }
            }
            out.push(best.map_or(' ', |(k, _)| k.glyph()));
        }
        out.push_str("|\n");
    }
    out
}

fn legend() -> String {
    let mut s = String::from("legend: ");
    for k in SpanKind::ALL {
        s.push_str(&format!("{}={} ", k.glyph(), k.label()));
    }
    s.push('\n');
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{LaneId, Span};
    use crate::timeline::LaneTrace;

    fn span(kind: SpanKind, start: u64, end: u64) -> Span {
        Span {
            kind,
            start_ns: start,
            end_ns: end,
            tag: 0,
        }
    }

    #[test]
    fn renders_rows_per_lane() {
        let trace = Trace {
            lanes: vec![
                LaneTrace {
                    lane: LaneId::worker(0),
                    spans: vec![span(SpanKind::Compute, 0, 100)],
                },
                LaneTrace {
                    lane: LaneId::io(0),
                    spans: vec![span(SpanKind::Fetch, 0, 100)],
                },
            ],
        };
        let art = render_ascii(&trace, 20);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 3); // legend + 2 lanes
        assert!(lines[1].starts_with("PE0"));
        assert!(lines[1].contains(&"#".repeat(20)));
        assert!(lines[2].starts_with("IO0"));
        assert!(lines[2].contains(&"F".repeat(20)));
    }

    #[test]
    fn split_timeline_shows_both_phases() {
        let trace = Trace {
            lanes: vec![LaneTrace {
                lane: LaneId::worker(0),
                spans: vec![
                    span(SpanKind::BlockWait, 0, 50),
                    span(SpanKind::Compute, 50, 100),
                ],
            }],
        };
        let art = render_ascii(&trace, 10);
        let row = art.lines().nth(1).unwrap();
        assert!(row.contains('b'));
        assert!(row.contains('#'));
    }

    #[test]
    fn empty_trace_renders_placeholder() {
        let trace = Trace { lanes: vec![] };
        assert_eq!(render_ascii(&trace, 10), "(empty trace)\n");
    }
}
