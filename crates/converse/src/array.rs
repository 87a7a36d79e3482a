//! Chare arrays: over-decomposed, indexed collections of message-driven
//! objects.
//!
//! "CHARM++ requires for work to be over-decomposed in work units called
//! chares. Over-decomposition implies that there are more work
//! units/chares than number of processors." (§III-A). A [`ChareArray`]
//! holds `count` chares of one type, each pinned to a *home PE* by the
//! array's [`Mapping`]; objects never migrate during a run (the paper's
//! objects move only under explicit load balancing, which these
//! experiments do not use).

use crate::envelope::{ArrayId, ChareIndex, Dep, EntryId, EntryOptions, Envelope};
use crate::runtime::{Chare, ExecCtx, Runtime};
use parking_lot::Mutex;
use std::sync::Arc;

/// How chare indices map to PEs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mapping {
    /// Contiguous blocks of indices per PE (good locality for stencil
    /// neighbourhoods).
    Block,
    /// Index *i* goes to PE `i % pes`.
    RoundRobin,
}

impl Mapping {
    /// Home PE for `index` in an array of `count` chares over `pes` PEs.
    pub fn home_pe(self, index: ChareIndex, count: usize, pes: usize) -> usize {
        match self {
            Mapping::RoundRobin => index % pes,
            Mapping::Block => {
                let per = count.div_ceil(pes);
                (index / per).min(pes - 1)
            }
        }
    }
}

/// Type-erased view of a chare array used by the scheduler.
pub(crate) trait ArrayDispatch: Send + Sync {
    fn execute(&self, env: Envelope, rt: &Arc<Runtime>, pe: usize);
    fn deps_of(&self, env: &Envelope) -> Vec<Dep>;
    fn home_pe(&self, index: ChareIndex) -> usize;
    fn entry_options(&self, entry: EntryId) -> EntryOptions;
}

/// A registered array of chares of type `C`.
pub struct ChareArray<C: Chare> {
    id: ArrayId,
    chares: Vec<Mutex<C>>,
    mapping: Mapping,
    pes: usize,
    /// Options of entry `i` at index `i`, frozen at registration.
    entries: Vec<EntryOptions>,
}

impl<C: Chare> ChareArray<C> {
    pub(crate) fn new(
        id: ArrayId,
        count: usize,
        mapping: Mapping,
        pes: usize,
        entries: Vec<EntryOptions>,
        mut factory: impl FnMut(usize) -> C,
    ) -> Self {
        Self {
            id,
            chares: (0..count).map(|i| Mutex::new(factory(i))).collect(),
            mapping,
            pes,
            entries,
        }
    }

    /// The array's id.
    pub fn id(&self) -> ArrayId {
        self.id
    }

    /// Run `f` against chare `index` (outside message delivery — used
    /// for setup and result inspection).
    pub fn with_chare<R>(&self, index: ChareIndex, f: impl FnOnce(&mut C) -> R) -> R {
        f(&mut self.chares[index].lock())
    }
}

impl<C: Chare> ArrayDispatch for ChareArray<C> {
    fn execute(&self, env: Envelope, rt: &Arc<Runtime>, pe: usize) {
        let msg = env
            .payload
            .downcast::<C::Msg>()
            .unwrap_or_else(|_| panic!("payload type mismatch for array {:?}", self.id));
        let mut ctx = ExecCtx::new(rt, pe, env.index);
        let mut chare = self.chares[env.index].lock();
        chare.execute(env.entry, *msg, &mut ctx);
    }

    fn deps_of(&self, env: &Envelope) -> Vec<Dep> {
        let msg = env
            .payload
            .downcast_ref::<C::Msg>()
            .unwrap_or_else(|| panic!("payload type mismatch for array {:?}", self.id));
        let chare = self.chares[env.index].lock();
        chare.deps(env.entry, msg)
    }

    fn home_pe(&self, index: ChareIndex) -> usize {
        self.mapping.home_pe(index, self.chares.len(), self.pes)
    }

    fn entry_options(&self, entry: EntryId) -> EntryOptions {
        self.entries
            .get(entry.0 as usize)
            .copied()
            .unwrap_or_default()
    }
}

/// Fluent registration of a chare array — the Rust spelling of the
/// paper's `.ci` module declaration.
///
/// ```ignore
/// let array = ArrayBuilder::new(&rt)
///     .entry(EP_HALO, EntryOptions::default())
///     .entry(EP_COMPUTE, EntryOptions::prefetch()) // entry [prefetch]
///     .mapping(Mapping::Block)
///     .build(num_chares, |i| Stencil::new(i));
/// ```
pub struct ArrayBuilder<'rt, C: Chare> {
    rt: &'rt Arc<Runtime>,
    /// The dense entry table the scheduler indexes by [`EntryId`].
    entries: Vec<EntryOptions>,
    mapping: Mapping,
    _marker: std::marker::PhantomData<C>,
}

impl<'rt, C: Chare> ArrayBuilder<'rt, C> {
    /// Start building an array on `rt`.
    pub fn new(rt: &'rt Arc<Runtime>) -> Self {
        Self {
            rt,
            entries: Vec::new(),
            mapping: Mapping::Block,
            _marker: std::marker::PhantomData,
        }
    }

    /// Declare an entry method and its options. Undeclared entries get
    /// the default options. Entry ids index a dense table, so number
    /// them from 0.
    pub fn entry(mut self, id: EntryId, opts: EntryOptions) -> Self {
        let i = id.0 as usize;
        if i >= self.entries.len() {
            self.entries.resize(i + 1, EntryOptions::default());
        }
        self.entries[i] = opts;
        self
    }

    /// Set the index→PE mapping (default: block).
    pub fn mapping(mut self, mapping: Mapping) -> Self {
        self.mapping = mapping;
        self
    }

    /// Instantiate `count` chares via `factory` and register the array.
    pub fn build(self, count: usize, factory: impl FnMut(usize) -> C) -> ArrayId {
        self.rt
            .register_array::<C>(self.entries, self.mapping, count, factory)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_mapping() {
        let m = Mapping::RoundRobin;
        assert_eq!(m.home_pe(0, 8, 4), 0);
        assert_eq!(m.home_pe(5, 8, 4), 1);
        assert_eq!(m.home_pe(7, 8, 4), 3);
    }

    #[test]
    fn block_mapping_spreads_contiguously() {
        let m = Mapping::Block;
        // 8 chares on 4 PEs: 2 per PE.
        assert_eq!(m.home_pe(0, 8, 4), 0);
        assert_eq!(m.home_pe(1, 8, 4), 0);
        assert_eq!(m.home_pe(2, 8, 4), 1);
        assert_eq!(m.home_pe(7, 8, 4), 3);
        // Uneven: 7 chares on 3 PEs → ceil(7/3)=3 per PE.
        assert_eq!(m.home_pe(6, 7, 3), 2);
        // Index beyond the last block clamps to the last PE.
        assert_eq!(m.home_pe(9, 10, 3), 2);
    }

    #[test]
    fn entry_options_are_looked_up_by_id() {
        struct Quiet;
        impl Chare for Quiet {
            type Msg = ();
            fn execute(&mut self, _e: EntryId, _m: (), _c: &mut ExecCtx<'_>) {}
        }
        let rt = crate::RuntimeBuilder::new(1).build();
        let array = ArrayBuilder::<Quiet>::new(&rt)
            .entry(EntryId(3), EntryOptions::prefetch())
            .entry(EntryId(1), EntryOptions::default())
            .build(1, |_| Quiet);
        let opts = |e| rt.entry_options(array, EntryId(e));
        assert_eq!(opts(3), EntryOptions::prefetch());
        for undeclared_or_plain in [0, 1, 2, 4, 1000] {
            assert_eq!(opts(undeclared_or_plain), EntryOptions::default());
        }
        rt.shutdown();
    }

    #[test]
    fn every_chare_gets_a_valid_pe() {
        for &mapping in &[Mapping::Block, Mapping::RoundRobin] {
            for count in [1usize, 3, 8, 17] {
                for pes in [1usize, 2, 5] {
                    for i in 0..count {
                        let pe = mapping.home_pe(i, count, pes);
                        assert!(pe < pes, "{mapping:?} count={count} pes={pes} i={i}");
                    }
                }
            }
        }
    }
}
