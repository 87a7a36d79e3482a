//! Error types for the memory substrate.

use crate::node::NodeId;

/// Errors surfaced by allocation, block management and migration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemError {
    /// An allocation would exceed the node's capacity budget — the
    /// software equivalent of `numa_alloc_onnode` failing on a full
    /// MCDRAM.
    CapacityExceeded {
        /// Node the allocation targeted.
        node: NodeId,
        /// Bytes requested.
        requested: u64,
        /// Bytes currently available under the budget.
        available: u64,
    },
    /// A migration or access hit a block in an incompatible state
    /// (e.g. evicting a block that is still referenced).
    InvalidState {
        /// Block involved.
        block: u64,
        /// Description of the violated expectation.
        reason: &'static str,
    },
    /// The requested transfer is a no-op (source == destination node).
    SameNode(NodeId),
    /// A transient, retryable failure — the software analogue of
    /// `numa_migrate_pages` returning `-EAGAIN`. Injected by a
    /// [`crate::faults::FaultInjector`]; callers should retry with
    /// backoff rather than treat it as fatal.
    Transient {
        /// Operation that hit the fault (`"migrate"`, `"alloc"`).
        op: &'static str,
        /// Block involved, if the operation targeted one.
        block: Option<u64>,
    },
    /// A filesystem error while writing or reading a checkpoint.
    CheckpointIo {
        /// Underlying `std::io::Error` rendered to a string (this enum
        /// stays `Clone + Eq`).
        detail: String,
    },
    /// A checkpoint file failed structural validation: bad magic,
    /// truncated sections, or a per-block checksum mismatch. The
    /// on-disk file is rejected wholesale; nothing is restored.
    CheckpointCorrupted {
        /// What failed to validate.
        detail: String,
    },
    /// A checkpoint was written by an incompatible format version.
    CheckpointVersionMismatch {
        /// Version recorded in the file header.
        found: u32,
        /// Version this build reads and writes.
        expected: u32,
    },
    /// A checkpoint or restore could not proceed for an operational
    /// reason: the runtime failed to quiesce, or restore was attempted
    /// on a registry that already holds blocks.
    CheckpointFailed {
        /// Why the operation was abandoned.
        detail: String,
    },
}

impl MemError {
    /// True for errors that are expected to clear on retry.
    pub fn is_transient(&self) -> bool {
        matches!(self, MemError::Transient { .. })
    }
}

impl std::fmt::Display for MemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemError::CapacityExceeded {
                node,
                requested,
                available,
            } => write!(
                f,
                "capacity exceeded on {node}: requested {requested} B, {available} B available"
            ),
            MemError::InvalidState { block, reason } => {
                write!(f, "block {block} in invalid state: {reason}")
            }
            MemError::SameNode(node) => {
                write!(f, "transfer source and destination are both {node}")
            }
            MemError::Transient { op, block } => match block {
                Some(id) => write!(f, "transient {op} fault on block {id} (retryable)"),
                None => write!(f, "transient {op} fault (retryable)"),
            },
            MemError::CheckpointIo { detail } => write!(f, "checkpoint I/O error: {detail}"),
            MemError::CheckpointCorrupted { detail } => {
                write!(f, "checkpoint corrupted: {detail}")
            }
            MemError::CheckpointVersionMismatch { found, expected } => write!(
                f,
                "checkpoint format version {found} is not readable (expected {expected})"
            ),
            MemError::CheckpointFailed { detail } => write!(f, "checkpoint failed: {detail}"),
        }
    }
}

impl std::error::Error for MemError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::HBM;

    #[test]
    fn messages_are_informative() {
        let e = MemError::CapacityExceeded {
            node: HBM,
            requested: 42,
            available: 7,
        };
        let s = e.to_string();
        assert!(s.contains("node1") && s.contains("42") && s.contains("7"));
        assert!(MemError::SameNode(HBM).to_string().contains("node1"));
        let t = MemError::Transient {
            op: "migrate",
            block: Some(3),
        };
        assert!(t.to_string().contains("migrate") && t.to_string().contains('3'));
    }

    #[test]
    fn only_transient_is_transient() {
        assert!(MemError::Transient {
            op: "alloc",
            block: None
        }
        .is_transient());
        assert!(!MemError::SameNode(HBM).is_transient());
        assert!(!MemError::CapacityExceeded {
            node: HBM,
            requested: 1,
            available: 0
        }
        .is_transient());
    }

    #[test]
    fn checkpoint_messages_are_informative() {
        let io = MemError::CheckpointIo {
            detail: "permission denied".into(),
        };
        assert!(io.to_string().contains("permission denied"));
        let bad = MemError::CheckpointCorrupted {
            detail: "blk3 checksum mismatch".into(),
        };
        assert!(bad.to_string().contains("blk3 checksum mismatch"));
        let ver = MemError::CheckpointVersionMismatch {
            found: 7,
            expected: 1,
        };
        let s = ver.to_string();
        assert!(s.contains('7') && s.contains('1'));
        assert!(!io.is_transient() && !bad.is_transient() && !ver.is_transient());
        assert!(MemError::CheckpointFailed {
            detail: "not quiescent".into()
        }
        .to_string()
        .contains("not quiescent"));
    }
}
