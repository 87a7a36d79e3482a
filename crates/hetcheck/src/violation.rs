//! The violation taxonomy of the dependence-conformance sanitizer.
//!
//! A [`Violation`] is a broken runtime contract caught while the
//! program runs (as opposed to a [`crate::lint::LintFinding`], which is
//! found offline in a recorded schedule). Every violation names the
//! block involved and enough context to reproduce the report in a test
//! assertion.

use hetmem::{AccessMode, BlockId};

/// What the checker does when a violation is detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ViolationAction {
    /// Panic on the offending thread with the rendered violation —
    /// the test/CI configuration (the `sanitizer` cargo feature).
    Panic,
    /// Record the violation and keep running; the count surfaces in
    /// `OocStats::violations`.
    #[default]
    Count,
}

/// A broken runtime contract caught by a hetcheck pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// A task touched a block absent from its declared `Dep` list.
    UndeclaredAccess {
        /// Token of the running task.
        token: u64,
        /// The block that was accessed.
        block: BlockId,
        /// The access mode used.
        mode: AccessMode,
    },
    /// A task acquired exclusive access through a `ReadOnly` dep.
    ModeEscalation {
        /// Token of the running task.
        token: u64,
        /// The block that was accessed.
        block: BlockId,
        /// The mode the dep declared.
        declared: AccessMode,
        /// The (stronger) mode actually used.
        actual: AccessMode,
    },
    /// A task read a block it declared `WriteOnly` — the fetch skipped
    /// the copy, so the read observes uninitialized bytes.
    UninitializedRead {
        /// Token of the running task.
        token: u64,
        /// The block that was read.
        block: BlockId,
        /// The reading mode actually used.
        actual: AccessMode,
    },
}

/// Discriminant of a [`Violation`], for compact assertions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ViolationKind {
    /// See [`Violation::UndeclaredAccess`].
    UndeclaredAccess,
    /// See [`Violation::ModeEscalation`].
    ModeEscalation,
    /// See [`Violation::UninitializedRead`].
    UninitializedRead,
}

impl Violation {
    /// The violation's kind discriminant.
    pub fn kind(&self) -> ViolationKind {
        match self {
            Violation::UndeclaredAccess { .. } => ViolationKind::UndeclaredAccess,
            Violation::ModeEscalation { .. } => ViolationKind::ModeEscalation,
            Violation::UninitializedRead { .. } => ViolationKind::UninitializedRead,
        }
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::UndeclaredAccess { token, block, mode } => write!(
                f,
                "task {token} accessed {block} as {mode:?} without declaring it as a dependence"
            ),
            Violation::ModeEscalation {
                token,
                block,
                declared,
                actual,
            } => write!(
                f,
                "task {token} accessed {block} as {actual:?} but declared it {declared:?}"
            ),
            Violation::UninitializedRead {
                token,
                block,
                actual,
            } => write!(
                f,
                "task {token} read {block} as {actual:?} but declared it WriteOnly \
                 (the fetch skipped the copy; the read sees uninitialized bytes)"
            ),
        }
    }
}
