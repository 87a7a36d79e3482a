//! Message envelopes and entry-method metadata.
//!
//! An [`Envelope`] is what travels through a PE's run queue: target
//! array + chare index + entry method + typed payload. [`EntryOptions`]
//! carries the paper's `.ci`-file annotations — in particular whether an
//! entry is `[prefetch]`-typed — and [`Dep`] is one declared data
//! dependence (`readwrite: A, writeonly: B` in the paper's example).

use hetmem::{AccessMode, BlockId};
use std::any::Any;

/// Identifier of a registered chare array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArrayId(pub u32);

/// Flattened index of a chare within its array.
pub type ChareIndex = usize;

/// Identifier of an entry method within a chare type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EntryId(pub u32);

/// Per-entry-method options — the runtime-visible part of the paper's
/// `.ci` annotations (§IV-A).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EntryOptions {
    /// `entry [prefetch] void compute_kernel() [...]` — if set, message
    /// delivery is intercepted and routed through the memory-aware
    /// scheduler before execution.
    pub prefetch: bool,
}

impl EntryOptions {
    /// Options for a `[prefetch]` entry.
    pub fn prefetch() -> Self {
        Self { prefetch: true }
    }
}

/// One declared data dependence of an entry method.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Dep {
    /// The tracked data block (the paper's `CkIOHandle`).
    pub block: BlockId,
    /// Declared access mode.
    pub mode: AccessMode,
}

/// A queued message: the unit the Converse scheduler delivers.
pub struct Envelope {
    /// Target array.
    pub array: ArrayId,
    /// Target chare within the array.
    pub index: ChareIndex,
    /// Entry method to invoke.
    pub entry: EntryId,
    /// Typed payload (downcast by the array's dispatcher).
    pub payload: Box<dyn Any + Send>,
    /// True once the memory-aware hook has admitted this message: the
    /// scheduler must execute it rather than intercept it again.
    pub admitted: bool,
    /// Opaque token the hook may stamp at admission; handed back in
    /// [`crate::ExecutedTask`].
    pub token: u64,
    /// Declared dependences, filled in by the hook at interception; they
    /// ride with the admitted envelope into [`crate::ExecutedTask`].
    pub deps: Vec<Dep>,
}

impl Envelope {
    /// A fresh, unadmitted envelope.
    pub fn new(
        array: ArrayId,
        index: ChareIndex,
        entry: EntryId,
        payload: Box<dyn Any + Send>,
    ) -> Self {
        Self {
            array,
            index,
            entry,
            payload,
            admitted: false,
            token: 0,
            deps: Vec::new(),
        }
    }
}

impl std::fmt::Debug for Envelope {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Envelope")
            .field("array", &self.array)
            .field("index", &self.index)
            .field("entry", &self.entry)
            .field("admitted", &self.admitted)
            .field("token", &self.token)
            .field("deps", &self.deps.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_defaults() {
        let e = Envelope::new(ArrayId(1), 7, EntryId(2), Box::new(42u32));
        assert!(!e.admitted);
        assert_eq!(e.token, 0);
        assert!(e.deps.is_empty());
        assert_eq!(e.payload.downcast_ref::<u32>(), Some(&42));
        let dbg = format!("{e:?}");
        assert!(dbg.contains("ArrayId(1)"));
    }

    #[test]
    fn entry_options() {
        assert!(!EntryOptions::default().prefetch);
        assert!(EntryOptions::prefetch().prefetch);
    }
}
