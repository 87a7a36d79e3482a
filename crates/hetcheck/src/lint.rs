//! Offline schedule linter: replay a recorded trace and check the
//! runtime's global invariants.
//!
//! The linter is independent of the live checker — it consumes a
//! [`Trace`] (from a file or a [`crate::Checker::trace`] snapshot) and
//! re-derives block residency, refcounts, and HBM occupancy from the
//! event stream alone. Invariants checked:
//!
//! * a fetch never targets a block already resident in HBM,
//! * refcounts never go negative, and the recorded counts agree with
//!   the replayed ones,
//! * eviction only happens at refcount zero,
//! * HBM occupancy never exceeds the recorded capacity,
//! * every admitted task eventually completes (degraded admissions
//!   included), no task completes twice or without admission.

use crate::schedule::{ScheduleEvent, Trace};
use hetmem::{BlockEvent, BlockId, NodeId, DDR4, HBM};
use std::collections::{HashMap, HashSet};

/// One invariant breach found while replaying a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LintFinding {
    /// An event referenced a block the trace never registered.
    UnknownBlock {
        /// Clock time of the offending event.
        at_ns: u64,
        /// The unregistered block.
        block: BlockId,
    },
    /// A fetch (move to HBM) targeted a block already resident in HBM.
    FetchOfResident {
        /// Clock time of the move begin.
        at_ns: u64,
        /// The already-resident block.
        block: BlockId,
    },
    /// A `ReleaseRef` would drive the replayed refcount below zero.
    NegativeRefcount {
        /// Clock time of the release.
        at_ns: u64,
        /// The over-released block.
        block: BlockId,
    },
    /// The refcount recorded in an event disagrees with the replay.
    RefcountMismatch {
        /// Clock time of the event.
        at_ns: u64,
        /// The block in question.
        block: BlockId,
        /// Refcount the event recorded.
        recorded: u32,
        /// Refcount the replay computed.
        replayed: u32,
    },
    /// An eviction (move to DDR4) started while the block was still
    /// referenced.
    EvictReferenced {
        /// Clock time of the move begin.
        at_ns: u64,
        /// The still-pinned block.
        block: BlockId,
        /// Refcount at move begin.
        refcount: u32,
    },
    /// Resident HBM bytes exceeded the recorded capacity.
    HbmOverCapacity {
        /// Clock time at which occupancy crossed capacity.
        at_ns: u64,
        /// Resident bytes after the event.
        occupancy: usize,
        /// The recorded HBM capacity.
        capacity: usize,
    },
    /// A task was admitted but the trace ended without its completion.
    TaskNeverCompleted {
        /// The dangling admission token.
        token: u64,
    },
    /// A completion arrived for a token never admitted (or already
    /// completed).
    CompleteWithoutAdmit {
        /// Clock time of the completion.
        at_ns: u64,
        /// The unmatched token.
        token: u64,
    },
    /// The same token was admitted twice.
    DuplicateAdmit {
        /// Clock time of the second admission.
        at_ns: u64,
        /// The repeated token.
        token: u64,
    },
}

impl std::fmt::Display for LintFinding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LintFinding::UnknownBlock { at_ns, block } => {
                write!(f, "[{at_ns} ns] event references unregistered {block}")
            }
            LintFinding::FetchOfResident { at_ns, block } => {
                write!(f, "[{at_ns} ns] fetch of {block} which is already resident in HBM")
            }
            LintFinding::NegativeRefcount { at_ns, block } => {
                write!(f, "[{at_ns} ns] refcount of {block} released below zero")
            }
            LintFinding::RefcountMismatch {
                at_ns,
                block,
                recorded,
                replayed,
            } => write!(
                f,
                "[{at_ns} ns] {block} refcount mismatch: event recorded {recorded}, replay says {replayed}"
            ),
            LintFinding::EvictReferenced {
                at_ns,
                block,
                refcount,
            } => write!(
                f,
                "[{at_ns} ns] eviction of {block} began at refcount {refcount} (must be 0)"
            ),
            LintFinding::HbmOverCapacity {
                at_ns,
                occupancy,
                capacity,
            } => write!(
                f,
                "[{at_ns} ns] HBM occupancy {occupancy} B exceeds capacity {capacity} B"
            ),
            LintFinding::TaskNeverCompleted { token } => {
                write!(f, "task {token} was admitted but never completed")
            }
            LintFinding::CompleteWithoutAdmit { at_ns, token } => {
                write!(f, "[{at_ns} ns] completion of task {token} which was not admitted (or completed twice)")
            }
            LintFinding::DuplicateAdmit { at_ns, token } => {
                write!(f, "[{at_ns} ns] task {token} admitted twice")
            }
        }
    }
}

/// Outcome of linting one trace.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// Invariant breaches, in replay order.
    pub findings: Vec<LintFinding>,
    /// Events replayed.
    pub events: usize,
    /// Distinct blocks seen.
    pub blocks: usize,
    /// Tasks admitted.
    pub tasks: usize,
    /// Peak resident HBM bytes.
    pub peak_hbm: usize,
}

impl LintReport {
    /// Whether the trace upheld every invariant.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Human-readable summary.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{} events, {} blocks, {} tasks, peak HBM {} B: {}\n",
            self.events,
            self.blocks,
            self.tasks,
            self.peak_hbm,
            if self.is_clean() {
                "clean".to_string()
            } else {
                format!("{} finding(s)", self.findings.len())
            }
        );
        for finding in &self.findings {
            out.push_str("  - ");
            out.push_str(&finding.to_string());
            out.push('\n');
        }
        out
    }
}

#[derive(Debug)]
struct BlockReplay {
    bytes: usize,
    node: NodeId,
    refcount: u32,
}

/// Replay state of one run: everything a restart boundary resets.
#[derive(Debug, Default)]
struct Replay {
    blocks: HashMap<BlockId, BlockReplay>,
    hbm_bytes: usize,
    admitted: HashSet<u64>,
    completed: HashSet<u64>,
}

impl Replay {
    /// `bytes` more became resident in HBM at `at_ns`.
    fn occupy(&mut self, report: &mut LintReport, at_ns: u64, bytes: usize, capacity: usize) {
        self.hbm_bytes += bytes;
        if self.hbm_bytes > capacity {
            report.findings.push(LintFinding::HbmOverCapacity {
                at_ns,
                occupancy: self.hbm_bytes,
                capacity,
            });
        }
        report.peak_hbm = report.peak_hbm.max(self.hbm_bytes);
    }

    /// End the run (at a restart or at the end of the trace): every
    /// admission still open is a finding. Checkpoints are only taken
    /// at quiescence, so an admission dangling across a restart is as
    /// real as one dangling at the end.
    fn finish(self, report: &mut LintReport) {
        let mut dangling: Vec<u64> = self.admitted.difference(&self.completed).copied().collect();
        dangling.sort_unstable();
        report.findings.extend(
            dangling
                .into_iter()
                .map(|token| LintFinding::TaskNeverCompleted { token }),
        );
        report.blocks = report.blocks.max(self.blocks.len());
    }
}

/// Replay `trace` and report every invariant breach.
pub fn lint(trace: &Trace) -> LintReport {
    let capacity = trace.meta.hbm_capacity;
    let mut report = LintReport {
        events: trace.events.len(),
        ..LintReport::default()
    };
    let mut replay = Replay::default();

    for ev in &trace.events {
        let at_ns = ev.at_ns;
        match &ev.event {
            &ScheduleEvent::Block(BlockEvent::Register { block, bytes, node }) => {
                if node == HBM {
                    replay.occupy(&mut report, at_ns, bytes, capacity);
                }
                replay.blocks.insert(
                    block,
                    BlockReplay {
                        bytes,
                        node,
                        refcount: 0,
                    },
                );
            }
            ScheduleEvent::Block(event) => {
                let block = event.block();
                let Some(b) = replay.blocks.get_mut(&block) else {
                    report
                        .findings
                        .push(LintFinding::UnknownBlock { at_ns, block });
                    continue;
                };
                match *event {
                    BlockEvent::AddRef { refcount, .. } => {
                        b.refcount += 1;
                        if b.refcount != refcount {
                            report.findings.push(LintFinding::RefcountMismatch {
                                at_ns,
                                block,
                                recorded: refcount,
                                replayed: b.refcount,
                            });
                        }
                    }
                    BlockEvent::ReleaseRef { refcount, .. } => {
                        if b.refcount == 0 {
                            report
                                .findings
                                .push(LintFinding::NegativeRefcount { at_ns, block });
                        } else {
                            b.refcount -= 1;
                            if b.refcount != refcount {
                                report.findings.push(LintFinding::RefcountMismatch {
                                    at_ns,
                                    block,
                                    recorded: refcount,
                                    replayed: b.refcount,
                                });
                            }
                        }
                    }
                    BlockEvent::MoveBegin { to, refcount, .. } => {
                        if to == HBM && b.node == HBM {
                            report
                                .findings
                                .push(LintFinding::FetchOfResident { at_ns, block });
                        }
                        if to == DDR4 && refcount != 0 {
                            report.findings.push(LintFinding::EvictReferenced {
                                at_ns,
                                block,
                                refcount,
                            });
                        }
                    }
                    BlockEvent::MoveComplete { node, .. } => {
                        let (was, bytes) = (b.node, b.bytes);
                        b.node = node;
                        // Occupancy follows residency: HBM bytes appear
                        // when a block lands in HBM and disappear when it
                        // lands back in DDR4. The registry frees the
                        // HBM-side buffer of an eviction only after its
                        // completion event, so this accounting never
                        // under-reports a capacity breach.
                        if was != HBM && node == HBM {
                            replay.occupy(&mut report, at_ns, bytes, capacity);
                        } else if was == HBM && node != HBM {
                            replay.hbm_bytes = replay.hbm_bytes.saturating_sub(bytes);
                        }
                    }
                    BlockEvent::MoveAbort { node, .. } => b.node = node,
                    // Register is handled above; the checker never
                    // records Access.
                    BlockEvent::Register { .. } | BlockEvent::Access { .. } => {}
                }
            }
            ScheduleEvent::Admit {
                token,
                blocks: deps,
                degraded: _,
            } => {
                if !replay.admitted.insert(*token) {
                    report.findings.push(LintFinding::DuplicateAdmit {
                        at_ns,
                        token: *token,
                    });
                }
                for &block in deps {
                    if !replay.blocks.contains_key(&block) {
                        report
                            .findings
                            .push(LintFinding::UnknownBlock { at_ns, block });
                    }
                }
                report.tasks += 1;
            }
            ScheduleEvent::Complete { token } => {
                if !replay.admitted.contains(token) || !replay.completed.insert(*token) {
                    report.findings.push(LintFinding::CompleteWithoutAdmit {
                        at_ns,
                        token: *token,
                    });
                }
            }
            // A fresh runtime restored a checkpoint image: block ids
            // restart from 0 with the re-registrations that follow and
            // admission tokens restart from 1, so replay state resets
            // wholesale.
            ScheduleEvent::Restart => std::mem::take(&mut replay).finish(&mut report),
        }
    }
    replay.finish(&mut report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{TimedEvent, TraceMeta};

    fn ev(at_ns: u64, event: ScheduleEvent) -> TimedEvent {
        TimedEvent { at_ns, event }
    }

    fn blk(at_ns: u64, event: BlockEvent) -> TimedEvent {
        ev(at_ns, ScheduleEvent::Block(event))
    }

    fn meta(hbm_capacity: usize) -> TraceMeta {
        TraceMeta { hbm_capacity }
    }

    fn register(block: BlockId, bytes: usize, node: NodeId) -> BlockEvent {
        BlockEvent::Register { block, bytes, node }
    }

    fn add_ref(block: BlockId, refcount: u32) -> BlockEvent {
        BlockEvent::AddRef { block, refcount }
    }

    fn release_ref(block: BlockId, refcount: u32) -> BlockEvent {
        BlockEvent::ReleaseRef { block, refcount }
    }

    fn move_begin(block: BlockId, to: NodeId, refcount: u32) -> BlockEvent {
        let from = if to == HBM { DDR4 } else { HBM };
        BlockEvent::MoveBegin {
            block,
            from,
            to,
            refcount,
        }
    }

    fn move_complete(block: BlockId, node: NodeId) -> BlockEvent {
        BlockEvent::MoveComplete { block, node }
    }

    fn admit(token: u64, blocks: Vec<BlockId>, degraded: bool) -> ScheduleEvent {
        ScheduleEvent::Admit {
            token,
            blocks,
            degraded,
        }
    }

    /// Register on DDR, pin, fetch, admit, complete, unpin, evict.
    fn clean_trace() -> Trace {
        let b = BlockId(0);
        Trace {
            meta: meta(4096),
            events: vec![
                blk(0, register(b, 1024, DDR4)),
                blk(1, add_ref(b, 1)),
                blk(2, move_begin(b, HBM, 1)),
                blk(3, move_complete(b, HBM)),
                ev(4, admit(1, vec![b], false)),
                ev(5, ScheduleEvent::Complete { token: 1 }),
                blk(6, release_ref(b, 0)),
                blk(7, move_begin(b, DDR4, 0)),
                blk(8, move_complete(b, DDR4)),
            ],
        }
    }

    #[test]
    fn clean_trace_is_clean() {
        let report = lint(&clean_trace());
        assert!(report.is_clean(), "{}", report.render());
        assert_eq!(report.tasks, 1);
        assert_eq!(report.blocks, 1);
        assert_eq!(report.peak_hbm, 1024);
    }

    /// Two full runs of the clean schedule separated by a restart: the
    /// second run re-registers the same block id, re-fills HBM and
    /// reuses admission token 1 — clean only because the linter resets
    /// its replay state at the boundary.
    #[test]
    fn trace_spanning_a_restart_lints_clean() {
        let mut trace = clean_trace();
        let shift = 100;
        trace.events.push(ev(shift, ScheduleEvent::Restart));
        let second: Vec<TimedEvent> = clean_trace()
            .events
            .into_iter()
            .map(|e| ev(shift + 1 + e.at_ns, e.event))
            .collect();
        trace.events.extend(second);
        let report = lint(&trace);
        assert!(report.is_clean(), "{}", report.render());
        assert_eq!(report.tasks, 2);
        assert_eq!(report.blocks, 1);
    }

    #[test]
    fn admission_dangling_across_a_restart_is_flagged() {
        let mut trace = clean_trace();
        // An extra admission with no completion before the restart.
        trace.events.push(ev(50, admit(9, vec![BlockId(0)], true)));
        trace.events.push(ev(60, ScheduleEvent::Restart));
        let report = lint(&trace);
        assert!(report
            .findings
            .iter()
            .any(|f| matches!(f, LintFinding::TaskNeverCompleted { token: 9 })));
    }

    #[test]
    fn restart_round_trips_through_jsonl() {
        let mut trace = clean_trace();
        trace.events.push(ev(99, ScheduleEvent::Restart));
        let text = trace.to_jsonl();
        let back = Trace::from_jsonl(&text).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn extra_release_is_negative_refcount() {
        let mut trace = clean_trace();
        trace.events.push(blk(9, release_ref(BlockId(0), 0)));
        let report = lint(&trace);
        assert!(report
            .findings
            .iter()
            .any(|f| matches!(f, LintFinding::NegativeRefcount { .. })));
    }

    #[test]
    fn shrunken_capacity_is_over_capacity() {
        let mut trace = clean_trace();
        trace.meta.hbm_capacity = 512; // block is 1024 B
        let report = lint(&trace);
        assert!(report.findings.iter().any(|f| matches!(
            f,
            LintFinding::HbmOverCapacity {
                occupancy: 1024,
                capacity: 512,
                ..
            }
        )));
    }

    #[test]
    fn refetch_of_resident_block_is_flagged() {
        let mut trace = clean_trace();
        // Insert a second fetch while the block is already in HBM.
        trace
            .events
            .insert(4, blk(3, move_begin(BlockId(0), HBM, 1)));
        let report = lint(&trace);
        assert!(report
            .findings
            .iter()
            .any(|f| matches!(f, LintFinding::FetchOfResident { .. })));
    }

    #[test]
    fn evict_of_referenced_block_is_flagged() {
        let b = BlockId(0);
        let trace = Trace {
            meta: meta(4096),
            events: vec![
                blk(0, register(b, 64, HBM)),
                blk(1, add_ref(b, 1)),
                blk(2, move_begin(b, DDR4, 1)),
            ],
        };
        let report = lint(&trace);
        assert!(report
            .findings
            .iter()
            .any(|f| matches!(f, LintFinding::EvictReferenced { refcount: 1, .. })));
    }

    #[test]
    fn dangling_and_unmatched_tasks_are_flagged() {
        let trace = Trace {
            meta: meta(4096),
            events: vec![
                ev(0, admit(1, vec![], true)),
                ev(1, admit(1, vec![], false)),
                ev(2, ScheduleEvent::Complete { token: 9 }),
            ],
        };
        let report = lint(&trace);
        assert!(report
            .findings
            .iter()
            .any(|f| matches!(f, LintFinding::DuplicateAdmit { token: 1, .. })));
        assert!(report
            .findings
            .iter()
            .any(|f| matches!(f, LintFinding::CompleteWithoutAdmit { token: 9, .. })));
        assert!(report
            .findings
            .iter()
            .any(|f| matches!(f, LintFinding::TaskNeverCompleted { token: 1 })));
    }

    /// Every kind of event that names a block, naming one the trace
    /// never registered, yields exactly one `UnknownBlock`.
    #[test]
    fn unknown_block_is_flagged() {
        let b = BlockId(42);
        let cases = [
            blk(0, add_ref(b, 1)),
            blk(0, release_ref(b, 0)),
            blk(0, move_begin(b, HBM, 0)),
            blk(0, move_complete(b, HBM)),
            blk(
                0,
                BlockEvent::MoveAbort {
                    block: b,
                    node: DDR4,
                },
            ),
            ev(0, admit(1, vec![b], false)),
        ];
        for case in cases {
            let mut trace = Trace {
                meta: meta(4096),
                events: vec![case.clone()],
            };
            if let ScheduleEvent::Admit { .. } = case.event {
                trace
                    .events
                    .push(ev(1, ScheduleEvent::Complete { token: 1 }));
            }
            let report = lint(&trace);
            assert_eq!(
                report.findings,
                vec![LintFinding::UnknownBlock { at_ns: 0, block: b }],
                "{case:?}"
            );
        }
    }

    #[test]
    fn mismatched_recorded_refcount_is_flagged() {
        let b = BlockId(0);
        let trace = Trace {
            meta: meta(4096),
            events: vec![blk(0, register(b, 64, DDR4)), blk(1, add_ref(b, 3))],
        };
        let report = lint(&trace);
        assert!(report.findings.iter().any(|f| matches!(
            f,
            LintFinding::RefcountMismatch {
                recorded: 3,
                replayed: 1,
                ..
            }
        )));
    }
}
