//! `projections` — performance tracing in the spirit of Charm++'s
//! *Projections* tool.
//!
//! The paper (§IV-B, Figures 5 and 6) uses Projections timelines to show
//! where the runtime's time goes under each scheduling strategy: useful
//! compute versus overhead — queue waits, lock waits, synchronous
//! fetch/evict stalls (the "red portion"). This crate records the same
//! information:
//!
//! * every worker PE and IO thread owns a [`Tracer`] *lane*;
//! * runtime code records [`Span`]s — `(kind, start, end, tag)` — for
//!   compute kernels, pre/post-processing, fetches, evictions, queue and
//!   lock waits, and idle gaps;
//! * a finished run yields a [`Trace`], which can be summarised
//!   ([`TraceSummary`]) into per-kind time breakdowns and an overhead
//!   fraction, or rendered as an ASCII timeline
//!   ([`render::render_ascii`]).
//!
//! Figures 5 and 6 of the paper are regenerated from these summaries by
//! `bench/src/bin/fig5_projections.rs` and `fig6_sync_async.rs`.

pub mod render;
pub mod span;
pub mod timeline;
pub mod tracer;

pub use span::{LaneId, LaneKind, Span, SpanKind};
pub use timeline::{KindBreakdown, LaneSummary, Trace, TraceSummary};
pub use tracer::{TraceCollector, Tracer};
