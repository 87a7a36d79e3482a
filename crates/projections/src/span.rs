//! Span and lane vocabulary.

/// What a span of time was spent on.
///
/// The palette follows the paper's Projections discussion: compute is the
/// useful work; everything in [`SpanKind::is_overhead`] is the "red
/// portion ... wait time caused due to delays from scheduling tasks, data
/// prefetch, eviction and locking of queues and data blocks" (§IV-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SpanKind {
    /// Bandwidth-sensitive kernel execution (the paper's "compute
    /// kernel time").
    Compute,
    /// Non-prefetch entry methods (halo exchange handling etc.).
    Entry,
    /// Moving a block into HBM.
    Fetch,
    /// Moving a block back to DDR4.
    Evict,
    /// Waiting on a data-block lock/state (e.g. block mid-migration).
    BlockWait,
    /// Scheduler idle: no ready task.
    Idle,
    /// Degraded-mode admission: a task gave up on HBM (retry budget
    /// exhausted, or drained by the stall watchdog) and ran from DDR4.
    Degraded,
    /// Quiescence-coordinated checkpoint: snapshotting block state to
    /// disk while the runtime is quiescent.
    Checkpoint,
    /// Restoring block state and runtime counters from a checkpoint.
    Restore,
}

impl SpanKind {
    /// All kinds, in display order.
    pub const ALL: [SpanKind; 9] = [
        SpanKind::Compute,
        SpanKind::Entry,
        SpanKind::Fetch,
        SpanKind::Evict,
        SpanKind::BlockWait,
        SpanKind::Idle,
        SpanKind::Degraded,
        SpanKind::Checkpoint,
        SpanKind::Restore,
    ];

    /// This kind's position in [`SpanKind::ALL`], which lists the kinds
    /// in declaration order.
    pub(crate) fn index(self) -> usize {
        self as usize
    }

    /// True for the "red" categories of the paper's Figure 5: time that
    /// is neither useful compute nor plain idleness.
    pub fn is_overhead(self) -> bool {
        matches!(
            self,
            SpanKind::Fetch
                | SpanKind::Evict
                | SpanKind::BlockWait
                | SpanKind::Degraded
                | SpanKind::Checkpoint
                | SpanKind::Restore
        )
    }

    /// Short label for tables.
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::Compute => "compute",
            SpanKind::Entry => "entry",
            SpanKind::Fetch => "fetch",
            SpanKind::Evict => "evict",
            SpanKind::BlockWait => "bwait",
            SpanKind::Idle => "idle",
            SpanKind::Degraded => "degraded",
            SpanKind::Checkpoint => "ckpt",
            SpanKind::Restore => "restore",
        }
    }

    /// One-character glyph for ASCII timelines.
    pub fn glyph(self) -> char {
        match self {
            SpanKind::Compute => '#',
            SpanKind::Entry => '+',
            SpanKind::Fetch => 'F',
            SpanKind::Evict => 'E',
            SpanKind::BlockWait => 'b',
            SpanKind::Idle => '.',
            SpanKind::Degraded => 'D',
            SpanKind::Checkpoint => 'C',
            SpanKind::Restore => 'R',
        }
    }
}

impl std::fmt::Display for SpanKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// What kind of execution lane produced a span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LaneKind {
    /// A worker PE running the Converse scheduler loop.
    Worker,
    /// A dedicated IO (prefetch/evict) thread.
    Io,
}

/// Identity of an execution lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LaneId {
    /// Worker or IO.
    pub kind: LaneKind,
    /// Index within the kind (PE number, IO thread number).
    pub index: u32,
}

impl LaneId {
    /// A worker lane.
    pub fn worker(index: u32) -> Self {
        Self {
            kind: LaneKind::Worker,
            index,
        }
    }

    /// An IO-thread lane.
    pub fn io(index: u32) -> Self {
        Self {
            kind: LaneKind::Io,
            index,
        }
    }
}

impl std::fmt::Display for LaneId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.kind {
            LaneKind::Worker => write!(f, "PE{}", self.index),
            LaneKind::Io => write!(f, "IO{}", self.index),
        }
    }
}

/// One recorded interval on a lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Category.
    pub kind: SpanKind,
    /// Start, nanoseconds on the run's clock.
    pub start_ns: u64,
    /// End, nanoseconds on the run's clock.
    pub end_ns: u64,
    /// Free-form tag (chare index, block id...).
    pub tag: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_classification_matches_paper() {
        // The paper's "red": scheduling/prefetch/evict/lock delays.
        for k in [
            SpanKind::Fetch,
            SpanKind::Evict,
            SpanKind::BlockWait,
            SpanKind::Degraded,
            SpanKind::Checkpoint,
            SpanKind::Restore,
        ] {
            assert!(k.is_overhead(), "{k} should be overhead");
        }
        for k in [SpanKind::Compute, SpanKind::Entry, SpanKind::Idle] {
            assert!(!k.is_overhead(), "{k} should not be overhead");
        }
    }

    #[test]
    fn each_kind_indexes_its_place_in_all() {
        for (i, k) in SpanKind::ALL.into_iter().enumerate() {
            assert_eq!(k.index(), i, "{k}");
        }
    }

    #[test]
    fn glyphs_are_unique() {
        let mut glyphs: Vec<char> = SpanKind::ALL.iter().map(|k| k.glyph()).collect();
        glyphs.sort_unstable();
        glyphs.dedup();
        assert_eq!(glyphs.len(), SpanKind::ALL.len());
    }

    #[test]
    fn lane_display() {
        assert_eq!(LaneId::worker(3).to_string(), "PE3");
        assert_eq!(LaneId::io(0).to_string(), "IO0");
    }

    #[test]
    fn span_duration_saturates() {
        let s = Span {
            kind: SpanKind::Compute,
            start_ns: 10,
            end_ns: 5,
            tag: 0,
        };
        assert_eq!(s.duration_ns(), 0);
    }
}
