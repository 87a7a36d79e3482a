//! Recorded schedules: the event stream the offline linter replays.
//!
//! A trace is JSONL: one [`TraceMeta`] header line followed by one
//! [`TimedEvent`] per line. Block events are the registry's own
//! [`BlockEvent`]s, stored as they arrive: the [`crate::Checker`]
//! records them from inside the registry's per-slot lock, so the
//! per-block event order in a trace is the true order. Task events
//! (admit/complete) come from the scheduler hook.

use hetmem::{BlockEvent, BlockId};
use serde::{Deserialize, Serialize};

/// One schedule event.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScheduleEvent {
    /// A block event from the registry. `Access` events feed the live
    /// sanitizer and are never recorded.
    Block(BlockEvent),
    /// A task was admitted for execution with its declared blocks
    /// resident (or, in degraded mode, served from DDR4).
    Admit {
        /// Admission token.
        token: u64,
        /// Blocks the task declared.
        blocks: Vec<BlockId>,
        /// Whether admission was degraded (deps left in DDR4).
        degraded: bool,
    },
    /// An admitted task finished and released its references.
    Complete {
        /// Admission token.
        token: u64,
    },
    /// A restart boundary: the process checkpointed (or died) and a
    /// fresh runtime restored the image. Block ids and admission
    /// tokens restart from scratch on the far side — the linter resets
    /// its replay state here so one trace can span kill-and-restore.
    Restart,
}

/// A [`ScheduleEvent`] stamped with the recording clock.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimedEvent {
    /// Nanoseconds on the clock passed to
    /// [`crate::Checker::with_schedule_log`].
    pub at_ns: u64,
    /// The event.
    pub event: ScheduleEvent,
}

/// Trace header: the memory configuration the schedule ran under.
/// Node ids in block events are the runtime's: [`hetmem::HBM`] and
/// [`hetmem::DDR4`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceMeta {
    /// HBM capacity in bytes (the linter's occupancy ceiling).
    pub hbm_capacity: usize,
}

/// An owned, completed trace: what the linter consumes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Memory configuration header.
    pub meta: TraceMeta,
    /// Events in recorded order.
    pub events: Vec<TimedEvent>,
}

impl Trace {
    /// Serialize as JSONL: meta line, then one event per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        out.push_str(&serde_json::to_string(&self.meta).expect("meta serializes"));
        out.push('\n');
        for ev in &self.events {
            out.push_str(&serde_json::to_string(ev).expect("event serializes"));
            out.push('\n');
        }
        out
    }

    /// Parse a JSONL trace produced by [`Trace::to_jsonl`].
    pub fn from_jsonl(text: &str) -> Result<Trace, String> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let meta_line = lines.next().ok_or("empty trace: missing meta line")?;
        let meta: TraceMeta =
            serde_json::from_str(meta_line).map_err(|e| format!("bad trace meta line: {e}"))?;
        let mut events = Vec::new();
        for (i, line) in lines.enumerate() {
            let ev: TimedEvent = serde_json::from_str(line)
                .map_err(|e| format!("bad trace event on line {}: {e}", i + 2))?;
            events.push(ev);
        }
        Ok(Trace { meta, events })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetmem::{DDR4, HBM};

    fn sample() -> Trace {
        let b = BlockId(0);
        let events = [
            ScheduleEvent::Block(BlockEvent::Register {
                block: b,
                bytes: 1024,
                node: DDR4,
            }),
            ScheduleEvent::Block(BlockEvent::AddRef {
                block: b,
                refcount: 1,
            }),
            ScheduleEvent::Block(BlockEvent::MoveBegin {
                block: b,
                from: DDR4,
                to: HBM,
                refcount: 1,
            }),
            ScheduleEvent::Block(BlockEvent::MoveComplete {
                block: b,
                node: HBM,
            }),
            ScheduleEvent::Admit {
                token: 1,
                blocks: vec![b],
                degraded: false,
            },
            ScheduleEvent::Complete { token: 1 },
            ScheduleEvent::Block(BlockEvent::ReleaseRef {
                block: b,
                refcount: 0,
            }),
        ];
        Trace {
            meta: TraceMeta { hbm_capacity: 4096 },
            events: [0, 5, 6, 9, 10, 20, 21]
                .into_iter()
                .zip(events)
                .map(|(at_ns, event)| TimedEvent { at_ns, event })
                .collect(),
        }
    }

    #[test]
    fn jsonl_round_trip() {
        let trace = sample();
        let text = trace.to_jsonl();
        assert_eq!(text.lines().count(), 1 + trace.events.len());
        assert!(
            text.contains(r#"{"Block":{"AddRef":{"block":0,"refcount":1}}}"#),
            "{text}"
        );
        let back = Trace::from_jsonl(&text).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn from_jsonl_rejects_garbage() {
        assert!(Trace::from_jsonl("").is_err());
        assert!(Trace::from_jsonl("not json\n").is_err());
        let trace = sample();
        let mut text = trace.to_jsonl();
        text.push_str("{\"bogus\":1}\n");
        let err = Trace::from_jsonl(&text).unwrap_err();
        assert!(err.contains("bad trace event"), "{err}");
    }
}
