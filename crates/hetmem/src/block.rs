//! Runtime-tracked data blocks: the substrate behind the paper's
//! `CkIOHandle`.
//!
//! Each block is a byte buffer that lives on exactly one memory node at a
//! time. The registry tracks, per block:
//!
//! * **Residency** — `INHBM` / `INDDR` in the paper's terms, plus the
//!   transitional `Moving` state a fetch or eviction passes through;
//! * **Reference count** — "incremented every time a task depending on
//!   the block is scheduled" (§IV-B); eviction is only legal at zero;
//! * **Access accounting** — every kernel access goes through a checked
//!   [`AccessGuard`] so racy reads/writes (multiple writers, writer
//!   racing readers, access during migration) abort loudly instead of
//!   corrupting data. This is the safety net Charm++ gets from its
//!   owner-computes discipline; here it is enforced at runtime.

use crate::alloc::AlignedBuf;
use crate::node::NodeId;
use crate::table::AppendTable;
use parking_lot::{Condvar, Mutex, MutexGuard};
use serde::{Deserialize, Serialize};
use std::ptr::NonNull;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};

/// Identifier of a registered block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct BlockId(pub u32);

impl BlockId {
    /// Index form.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for BlockId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "blk{}", self.0)
    }
}

/// How an entry method uses a dependence block — the paper's
/// `readonly` / `readwrite` / `writeonly` annotations (§IV-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessMode {
    /// Input only; may be shared by concurrent tasks.
    ReadOnly,
    /// Read and written; exclusive.
    ReadWrite,
    /// Written without reading previous contents; exclusive.
    WriteOnly,
}

impl AccessMode {
    /// Whether this mode needs exclusive access.
    pub fn is_exclusive(self) -> bool {
        !matches!(self, AccessMode::ReadOnly)
    }

    /// Whether the previous contents must be transferred on fetch.
    /// (A `writeonly` block's old bytes never feed the kernel, so a
    /// fetch may skip the copy; we still move the buffer.)
    pub fn reads_old_contents(self) -> bool {
        !matches!(self, AccessMode::WriteOnly)
    }
}

/// Where a block currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Residency {
    /// Fully resident on one node (`INHBM` / `INDDR`).
    Resident(NodeId),
    /// Mid-migration between two nodes.
    Moving {
        /// Source node.
        from: NodeId,
        /// Destination node.
        to: NodeId,
    },
}

impl Residency {
    /// The node the block is on, if not mid-move.
    pub fn node(self) -> Option<NodeId> {
        match self {
            Residency::Resident(n) => Some(n),
            Residency::Moving { .. } => None,
        }
    }
}

/// Snapshot of one block's metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockInfo {
    /// Block id.
    pub id: BlockId,
    /// Payload size in bytes.
    pub size: usize,
    /// Current residency.
    pub residency: Residency,
    /// Scheduled-task reference count.
    pub refcount: u32,
    /// Label supplied at registration (debugging / traces).
    pub label: String,
}

struct BlockMeta {
    residency: Residency,
    buf: Option<AlignedBuf>,
    refcount: u32,
    readers: u32,
    writer: bool,
    last_touch: u64,
    label: String,
    /// Threads parked on the slot's condvar; state changes notify only
    /// when this is non-zero.
    waiters: u32,
}

struct BlockSlot {
    meta: Mutex<BlockMeta>,
    cond: Condvar,
    /// Payload size; fixed at registration.
    size: usize,
    /// Lock-free mirror of `meta.residency` (raw node, or [`MOVING`]),
    /// stored with Release under the slot lock and loaded with Acquire.
    node: AtomicU8,
}

/// [`BlockSlot::node`] while the block is mid-move.
const MOVING: u8 = u8::MAX;

impl BlockSlot {
    /// Set the residency and its lock-free mirror (slot lock held).
    fn set_residency(&self, m: &mut BlockMeta, residency: Residency) {
        m.residency = residency;
        let raw = residency.node().map_or(MOVING, NodeId::raw);
        self.node.store(raw, Ordering::Release);
    }

    /// Park on the slot's condvar, counted in `waiters`.
    fn wait(&self, m: &mut MutexGuard<'_, BlockMeta>) {
        m.waiters += 1;
        self.cond.wait(m);
        m.waiters -= 1;
    }

    /// Release the slot lock and wake its waiters, if there are any.
    fn unlock_and_notify(&self, m: MutexGuard<'_, BlockMeta>) {
        let wake = m.waiters > 0;
        drop(m);
        if wake {
            self.cond.notify_all();
        }
    }
}

/// One block lifecycle event, as the registry reports it to its
/// [`BlockObserver`]: the paper's per-block record (§IV-B/C) of
/// residency, reference count and moves, one variant per change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BlockEvent {
    /// A new block entered the registry on `node`.
    Register {
        /// The new block.
        block: BlockId,
        /// Payload size in bytes.
        bytes: usize,
        /// Node it was allocated on.
        node: NodeId,
    },
    /// An [`AccessGuard`] was acquired.
    Access {
        /// The accessed block.
        block: BlockId,
        /// The guard's mode.
        mode: AccessMode,
    },
    /// The scheduled-task reference count was incremented.
    AddRef {
        /// The pinned block.
        block: BlockId,
        /// Refcount after the increment.
        refcount: u32,
    },
    /// The scheduled-task reference count was decremented.
    ReleaseRef {
        /// The unpinned block.
        block: BlockId,
        /// Refcount after the decrement.
        refcount: u32,
    },
    /// A migration began (accessors already drained).
    MoveBegin {
        /// The migrating block.
        block: BlockId,
        /// Source node.
        from: NodeId,
        /// Destination node.
        to: NodeId,
        /// Refcount observed under the slot lock at the moment of the
        /// decision.
        refcount: u32,
    },
    /// A migration completed; the block is resident on `node`.
    MoveComplete {
        /// The migrated block.
        block: BlockId,
        /// Node it now resides on.
        node: NodeId,
    },
    /// A migration aborted; the block is back on `node`.
    MoveAbort {
        /// The block that did not move.
        block: BlockId,
        /// Node it remains on.
        node: NodeId,
    },
}

impl BlockEvent {
    /// The block the event is about.
    pub fn block(&self) -> BlockId {
        match *self {
            BlockEvent::Register { block, .. }
            | BlockEvent::Access { block, .. }
            | BlockEvent::AddRef { block, .. }
            | BlockEvent::ReleaseRef { block, .. }
            | BlockEvent::MoveBegin { block, .. }
            | BlockEvent::MoveComplete { block, .. }
            | BlockEvent::MoveAbort { block, .. } => block,
        }
    }
}

/// Passive observer of block lifecycle events, installed once on a
/// [`BlockRegistry`] via [`BlockRegistry::set_observer`].
///
/// This is the attachment point for the `hetcheck` passes
/// (dependence-conformance sanitizer, schedule recorder). The registry
/// reports every change as one [`BlockEvent`] through the single
/// callback [`BlockObserver::on_event`].
///
/// Ordering guarantee: refcount and move events are reported while
/// the block's slot lock is held, so for any single block the observer
/// sees `AddRef` / `ReleaseRef` / `MoveBegin` / `MoveComplete` /
/// `MoveAbort` in their true order. `Access` fires after the access
/// is registered, outside the slot lock. Guard release has no event:
/// the registry itself rules out the races a release would bracket
/// (conflicting guards panic, and a move waits until every guard has
/// dropped), so no observer needs to see it.
///
/// Observers must not call back into the registry (the slot lock is
/// held) and should be cheap: they run on worker and IO threads.
pub trait BlockObserver: Send + Sync {
    /// One block event, in the order described above.
    fn on_event(&self, event: BlockEvent);
}

/// The shared block metadata store. Slots live in an append-only
/// table and the observer is set once, so a registry op takes only the
/// block's own slot lock.
pub struct BlockRegistry {
    slots: AppendTable<BlockSlot>,
    touch_counter: AtomicU64,
    observer: OnceLock<Arc<dyn BlockObserver>>,
}

impl Default for BlockRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl BlockRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self {
            slots: AppendTable::new(),
            touch_counter: AtomicU64::new(0),
            observer: OnceLock::new(),
        }
    }

    /// Install the lifecycle observer. See [`BlockObserver`] for the
    /// callback contract. The observer is set once for the registry's
    /// lifetime: installing the same observer again is a no-op, and
    /// installing a different one panics.
    pub fn set_observer(&self, observer: Arc<dyn BlockObserver>) {
        let installed = self.observer.get_or_init(|| Arc::clone(&observer));
        assert!(
            Arc::ptr_eq(installed, &observer),
            "a different block observer is already installed"
        );
    }

    /// Report `event` to the observer, if one is installed.
    fn notify(&self, event: BlockEvent) {
        if let Some(obs) = self.observer.get() {
            obs.on_event(event);
        }
    }

    /// Register a freshly allocated buffer as a tracked block.
    pub fn register(&self, buf: AlignedBuf, label: impl Into<String>) -> BlockId {
        let bytes = buf.len();
        let node = buf.node();
        assert_ne!(node.raw(), MOVING, "node {node} is reserved");
        let meta = BlockMeta {
            residency: Residency::Resident(node),
            buf: Some(buf),
            refcount: 0,
            readers: 0,
            writer: false,
            last_touch: 0,
            label: label.into(),
            waiters: 0,
        };
        let id = BlockId(self.slots.push(BlockSlot {
            meta: Mutex::new(meta),
            cond: Condvar::new(),
            size: bytes,
            node: AtomicU8::new(node.raw()),
        }) as u32);
        self.notify(BlockEvent::Register {
            block: id,
            bytes,
            node,
        });
        id
    }

    fn slot(&self, id: BlockId) -> &BlockSlot {
        self.slots
            .get(id.index())
            .unwrap_or_else(|| panic!("unregistered block {id}"))
    }

    /// Whether `id` names a registered block. Dependence lists that
    /// mention unknown ids are caller bugs; this is the cheap probe the
    /// error paths use before touching a slot.
    pub fn contains(&self, id: BlockId) -> bool {
        self.slots.get(id.index()).is_some()
    }

    /// Number of registered blocks.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if no blocks are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of a block's metadata.
    pub fn info(&self, id: BlockId) -> BlockInfo {
        let slot = self.slot(id);
        let m = slot.meta.lock();
        BlockInfo {
            id,
            size: slot.size,
            residency: m.residency,
            refcount: m.refcount,
            label: m.label.clone(),
        }
    }

    /// The node a block currently resides on (None while moving). Lock-
    /// free, so moves re-check residency under the slot lock.
    pub fn node_of(&self, id: BlockId) -> Option<NodeId> {
        let raw = self.slot(id).node.load(Ordering::Acquire);
        (raw != MOVING).then(|| NodeId::new(raw))
    }

    /// Payload size of a block (fixed at registration; lock-free).
    pub fn size_of(&self, id: BlockId) -> usize {
        self.slot(id).size
    }

    /// Increment the scheduled-task reference count.
    pub fn add_ref(&self, id: BlockId) -> u32 {
        let slot = self.slot(id);
        let mut m = slot.meta.lock();
        m.refcount += 1;
        let rc = m.refcount;
        self.notify(BlockEvent::AddRef {
            block: id,
            refcount: rc,
        });
        drop(m);
        rc
    }

    /// Decrement the reference count, returning the new value.
    pub fn release_ref(&self, id: BlockId) -> u32 {
        let slot = self.slot(id);
        let mut m = slot.meta.lock();
        assert!(m.refcount > 0, "refcount underflow on {id}");
        m.refcount -= 1;
        let rc = m.refcount;
        self.notify(BlockEvent::ReleaseRef {
            block: id,
            refcount: rc,
        });
        slot.unlock_and_notify(m);
        rc
    }

    /// Current reference count.
    pub fn refcount(&self, id: BlockId) -> u32 {
        let slot = self.slot(id);
        let rc = slot.meta.lock().refcount;
        rc
    }

    /// Begin a migration: atomically verify the block is resident (and,
    /// if `require_unreferenced`, that its refcount is zero), has no
    /// active accessors, and mark it `Moving`, taking the source buffer.
    ///
    /// Returns the source buffer and node. Callers must finish with
    /// [`BlockRegistry::complete_move`] or [`BlockRegistry::abort_move`].
    pub fn begin_move(
        &self,
        id: BlockId,
        to: NodeId,
        require_unreferenced: bool,
    ) -> Result<(AlignedBuf, NodeId), crate::MemError> {
        let slot = self.slot(id);
        let mut m = slot.meta.lock();
        let from = match m.residency {
            Residency::Resident(n) => n,
            Residency::Moving { .. } => {
                return Err(crate::MemError::InvalidState {
                    block: id.0 as u64,
                    reason: "already moving",
                })
            }
        };
        if from == to {
            return Err(crate::MemError::SameNode(to));
        }
        if require_unreferenced && m.refcount > 0 {
            return Err(crate::MemError::InvalidState {
                block: id.0 as u64,
                reason: "refcount nonzero",
            });
        }
        // Wait out transient accessors; bail if the block becomes
        // referenced while we wait (a task got scheduled on it).
        while m.readers > 0 || m.writer {
            slot.wait(&mut m);
            if require_unreferenced && m.refcount > 0 {
                return Err(crate::MemError::InvalidState {
                    block: id.0 as u64,
                    reason: "refcount became nonzero during move admission",
                });
            }
        }
        let buf = m.buf.take().expect("resident block must have a buffer");
        slot.set_residency(&mut m, Residency::Moving { from, to });
        self.notify(BlockEvent::MoveBegin {
            block: id,
            from,
            to,
            refcount: m.refcount,
        });
        Ok((buf, from))
    }

    /// Finish a migration: install the destination buffer.
    pub fn complete_move(&self, id: BlockId, new_buf: AlignedBuf) {
        let slot = self.slot(id);
        let mut m = slot.meta.lock();
        debug_assert!(matches!(m.residency, Residency::Moving { .. }));
        debug_assert_eq!(new_buf.len(), slot.size);
        let node = new_buf.node();
        slot.set_residency(&mut m, Residency::Resident(node));
        m.buf = Some(new_buf);
        self.notify(BlockEvent::MoveComplete { block: id, node });
        slot.unlock_and_notify(m);
    }

    /// Abort a migration (e.g. destination allocation failed): restore
    /// the source buffer.
    pub fn abort_move(&self, id: BlockId, src_buf: AlignedBuf) {
        let slot = self.slot(id);
        let mut m = slot.meta.lock();
        debug_assert!(matches!(m.residency, Residency::Moving { .. }));
        let node = src_buf.node();
        slot.set_residency(&mut m, Residency::Resident(node));
        m.buf = Some(src_buf);
        self.notify(BlockEvent::MoveAbort { block: id, node });
        slot.unlock_and_notify(m);
    }

    /// Block until the block is resident (not mid-move), returning its
    /// node.
    pub fn wait_resident(&self, id: BlockId) -> NodeId {
        let slot = self.slot(id);
        let mut m = slot.meta.lock();
        loop {
            if let Residency::Resident(n) = m.residency {
                return n;
            }
            slot.wait(&mut m);
        }
    }

    /// Acquire checked access to a block's bytes for a kernel.
    ///
    /// Waits while the block is mid-migration, then registers the access
    /// (shared for [`AccessMode::ReadOnly`], exclusive otherwise) and
    /// returns a guard exposing the raw bytes. Conflicting concurrent
    /// access — two writers, or a writer racing readers — panics: it
    /// means the scheduling discipline above this layer is broken.
    pub fn access(&self, id: BlockId, mode: AccessMode) -> AccessGuard<'_> {
        let slot = self.slot(id);
        let mut m = slot.meta.lock();
        while matches!(m.residency, Residency::Moving { .. }) {
            slot.wait(&mut m);
        }
        if mode.is_exclusive() {
            assert!(
                m.readers == 0 && !m.writer,
                "exclusive access to {id} ({}) while {} readers, writer={}",
                m.label,
                m.readers,
                m.writer
            );
            m.writer = true;
        } else {
            assert!(
                !m.writer,
                "shared access to {id} ({}) while a writer is active",
                m.label
            );
            m.readers += 1;
        }
        m.last_touch = self.touch_counter.fetch_add(1, Ordering::Relaxed) + 1;
        let buf = m.buf.as_ref().expect("resident block must have a buffer");
        let ptr = buf.base_ptr();
        let len = buf.len();
        let node = buf.node();
        drop(m);
        // Build the guard before notifying the observer: if a checker
        // panics on a violation, the guard's Drop still releases the
        // registration instead of wedging later accessors.
        let guard = AccessGuard {
            slot,
            id,
            mode,
            ptr,
            len,
            node,
        };
        self.notify(BlockEvent::Access { block: id, mode });
        guard
    }

    /// Blocks currently resident on `node`, least-recently-touched first
    /// (used by the LRU-eviction ablation).
    pub fn resident_on(&self, node: NodeId) -> Vec<BlockId> {
        let mut out: Vec<(u64, BlockId)> = Vec::new();
        for (i, slot) in self.slots.iter() {
            let m = slot.meta.lock();
            if m.residency == Residency::Resident(node) {
                out.push((m.last_touch, BlockId(i as u32)));
            }
        }
        out.sort_unstable();
        out.into_iter().map(|(_, id)| id).collect()
    }
}

/// Checked access to one block's bytes, borrowed from its registry.
/// Releases the access registration on drop.
pub struct AccessGuard<'a> {
    slot: &'a BlockSlot,
    id: BlockId,
    mode: AccessMode,
    ptr: NonNull<u8>,
    len: usize,
    node: NodeId,
}

// SAFETY: the guard's pointer stays valid while the guard is alive —
// begin_move waits for readers/writer to drain before taking the buffer,
// and the buffer is only dropped through a completed move. The other
// fields are Send on their own: `slot` borrows a `BlockSlot`, whose
// state sits behind its mutex (Sync).
unsafe impl Send for AccessGuard<'_> {}

impl AccessGuard<'_> {
    /// The block this guard accesses.
    pub fn id(&self) -> BlockId {
        self.id
    }

    /// The node the bytes live on (fixed for the guard's lifetime).
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the block has no bytes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The bytes, shared.
    pub fn bytes(&self) -> &[u8] {
        // SAFETY: see struct-level invariant.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }

    /// The bytes, exclusive. Panics if the guard is read-only.
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        assert!(
            self.mode.is_exclusive(),
            "bytes_mut on a ReadOnly guard for {}",
            self.id
        );
        // SAFETY: exclusive registration plus &mut self.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }

    /// Typed shared view. Panics on misaligned or ill-sized payloads.
    pub fn as_slice<T: Pod>(&self) -> &[T] {
        let bytes = self.bytes();
        cast_slice(bytes)
    }

    /// Typed exclusive view.
    pub fn as_mut_slice<T: Pod>(&mut self) -> &mut [T] {
        let bytes = self.bytes_mut();
        cast_slice_mut(bytes)
    }
}

impl Drop for AccessGuard<'_> {
    fn drop(&mut self) {
        let mut m = self.slot.meta.lock();
        if self.mode.is_exclusive() {
            debug_assert!(m.writer);
            m.writer = false;
        } else {
            debug_assert!(m.readers > 0);
            m.readers -= 1;
        }
        self.slot.unlock_and_notify(m);
    }
}

/// Marker for plain-old-data element types that may alias a byte buffer.
///
/// # Safety
/// Implementors must be valid for every bit pattern and contain no
/// padding or pointers.
pub unsafe trait Pod: Copy + Send + Sync + 'static {}

macro_rules! pod {
    ($($t:ty),*) => {$(
        // SAFETY: a primitive integer or float is valid for every bit
        // pattern and holds no padding or pointers.
        unsafe impl Pod for $t {}
    )*};
}
pod!(u8, i8, u16, i16, u32, i32, u64, i64, f32, f64);

/// Verify a byte payload can be viewed as `[T]` — the element size must
/// be nonzero and divide the payload exactly (a remainder would be
/// silently truncated by `from_raw_parts`), and the base pointer must
/// satisfy `T`'s alignment. Panics with the full context on violation.
#[track_caller]
fn check_cast<T: Pod>(ptr: *const u8, len: usize) {
    let elem = std::mem::size_of::<T>();
    let ty = std::any::type_name::<T>();
    assert!(elem > 0, "cannot view block bytes as zero-sized type {ty}");
    assert!(
        len.is_multiple_of(elem),
        "block payload of {len} B is not a whole number of {ty} \
         ({elem} B each; {} trailing byte(s) would be truncated)",
        len % elem
    );
    let align = std::mem::align_of::<T>();
    assert!(
        (ptr as usize).is_multiple_of(align),
        "block payload at {ptr:p} is misaligned for {ty} (requires {align}-byte alignment)"
    );
}

#[track_caller]
fn cast_slice<T: Pod>(bytes: &[u8]) -> &[T] {
    check_cast::<T>(bytes.as_ptr(), bytes.len());
    // SAFETY: size/alignment checked above; T is Pod.
    unsafe {
        std::slice::from_raw_parts(
            bytes.as_ptr().cast(),
            bytes.len() / std::mem::size_of::<T>(),
        )
    }
}

#[track_caller]
fn cast_slice_mut<T: Pod>(bytes: &mut [u8]) -> &mut [T] {
    check_cast::<T>(bytes.as_ptr(), bytes.len());
    // SAFETY: size/alignment checked above; T is Pod.
    unsafe {
        std::slice::from_raw_parts_mut(
            bytes.as_mut_ptr().cast(),
            bytes.len() / std::mem::size_of::<T>(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::NodeAllocator;
    use crate::node::{DDR4, HBM};

    fn registry_with_block(size: usize) -> (BlockRegistry, BlockId, NodeAllocator) {
        let alloc = NodeAllocator::new(1 << 24);
        let reg = BlockRegistry::new();
        let buf = alloc.alloc(size, DDR4).unwrap();
        let id = reg.register(buf, "test");
        (reg, id, alloc)
    }

    #[test]
    fn register_and_info() {
        let (reg, id, _a) = registry_with_block(1024);
        let info = reg.info(id);
        assert_eq!(info.size, 1024);
        assert_eq!(info.residency, Residency::Resident(DDR4));
        assert_eq!(info.refcount, 0);
        assert_eq!(reg.node_of(id), Some(DDR4));
        assert_eq!(reg.size_of(id), 1024);
    }

    #[test]
    fn refcount_round_trip() {
        let (reg, id, _a) = registry_with_block(64);
        assert_eq!(reg.add_ref(id), 1);
        assert_eq!(reg.add_ref(id), 2);
        assert_eq!(reg.release_ref(id), 1);
        assert_eq!(reg.release_ref(id), 0);
    }

    #[test]
    #[should_panic(expected = "refcount underflow")]
    fn refcount_underflow_panics() {
        let (reg, id, _a) = registry_with_block(64);
        reg.release_ref(id);
    }

    #[test]
    fn typed_access_round_trip() {
        let (reg, id, _a) = registry_with_block(8 * 16);
        {
            let mut g = reg.access(id, AccessMode::ReadWrite);
            let xs: &mut [f64] = g.as_mut_slice();
            assert_eq!(xs.len(), 16);
            for (i, x) in xs.iter_mut().enumerate() {
                *x = i as f64;
            }
        }
        let g = reg.access(id, AccessMode::ReadOnly);
        let xs: &[f64] = g.as_slice();
        assert_eq!(xs[15], 15.0);
    }

    #[test]
    fn shared_readers_coexist() {
        let (reg, id, _a) = registry_with_block(64);
        let g1 = reg.access(id, AccessMode::ReadOnly);
        let g2 = reg.access(id, AccessMode::ReadOnly);
        assert_eq!(g1.bytes().len(), 64);
        assert_eq!(g2.bytes().len(), 64);
    }

    #[test]
    #[should_panic(expected = "exclusive access")]
    fn writer_racing_reader_panics() {
        let (reg, id, _a) = registry_with_block(64);
        let _r = reg.access(id, AccessMode::ReadOnly);
        let _w = reg.access(id, AccessMode::ReadWrite);
    }

    #[test]
    #[should_panic(expected = "shared access")]
    fn reader_racing_writer_panics() {
        let (reg, id, _a) = registry_with_block(64);
        let _w = reg.access(id, AccessMode::WriteOnly);
        let _r = reg.access(id, AccessMode::ReadOnly);
    }

    #[test]
    #[should_panic(expected = "bytes_mut on a ReadOnly guard")]
    fn readonly_guard_rejects_mutation() {
        let (reg, id, _a) = registry_with_block(64);
        let mut g = reg.access(id, AccessMode::ReadOnly);
        let _ = g.bytes_mut();
    }

    #[test]
    fn move_protocol_happy_path() {
        let alloc0 = NodeAllocator::new(1 << 20);
        let alloc1 = NodeAllocator::new(1 << 20);
        let reg = BlockRegistry::new();
        let mut src = alloc0.alloc(128, DDR4).unwrap();
        src.as_mut_slice()[0] = 42;
        let id = reg.register(src, "mv");

        let (src, from) = reg.begin_move(id, HBM, true).unwrap();
        assert_eq!(from, DDR4);
        assert_eq!(reg.node_of(id), None); // moving
        let mut dst = alloc1.alloc(128, HBM).unwrap();
        dst.as_mut_slice().copy_from_slice(src.as_slice());
        drop(src);
        reg.complete_move(id, dst);
        assert_eq!(reg.node_of(id), Some(HBM));
        let g = reg.access(id, AccessMode::ReadOnly);
        assert_eq!(g.bytes()[0], 42);
    }

    #[test]
    fn begin_move_rejects_same_node() {
        let (reg, id, _a) = registry_with_block(64);
        assert!(matches!(
            reg.begin_move(id, DDR4, true),
            Err(crate::MemError::SameNode(_))
        ));
    }

    #[test]
    fn begin_move_rejects_referenced_block_when_required() {
        let (reg, id, _a) = registry_with_block(64);
        reg.add_ref(id);
        assert!(reg.begin_move(id, HBM, true).is_err());
        // But a fetch-style move (require_unreferenced = false) works.
        assert!(reg.begin_move(id, HBM, false).is_ok());
    }

    #[test]
    fn abort_move_restores_residency() {
        let (reg, id, _a) = registry_with_block(64);
        let (src, _) = reg.begin_move(id, HBM, true).unwrap();
        reg.abort_move(id, src);
        assert_eq!(reg.node_of(id), Some(DDR4));
    }

    #[test]
    fn access_waits_for_move_completion() {
        let alloc0 = NodeAllocator::new(1 << 20);
        let alloc1 = NodeAllocator::new(1 << 20);
        let reg = Arc::new(BlockRegistry::new());
        let id = reg.register(alloc0.alloc(64, DDR4).unwrap(), "w");
        let (src, _) = reg.begin_move(id, HBM, true).unwrap();

        let reg2 = Arc::clone(&reg);
        let h = std::thread::spawn(move || {
            let g = reg2.access(id, AccessMode::ReadOnly);
            g.node()
        });
        // Let the accessor block on the Moving state, then finish.
        std::thread::sleep(std::time::Duration::from_millis(20));
        let mut dst = alloc1.alloc(64, HBM).unwrap();
        dst.as_mut_slice().copy_from_slice(src.as_slice());
        drop(src);
        reg.complete_move(id, dst);
        assert_eq!(h.join().unwrap(), HBM);
    }

    #[test]
    fn begin_move_waits_for_accessors() {
        let (reg, id, _a) = registry_with_block(64);
        let reg = Arc::new(reg);
        let g = reg.access(id, AccessMode::ReadOnly);
        let reg2 = Arc::clone(&reg);
        let h = std::thread::spawn(move || {
            let (src, from) = reg2.begin_move(id, HBM, true).unwrap();
            reg2.abort_move(id, src);
            from
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        drop(g); // releases the reader; the move can proceed
        assert_eq!(h.join().unwrap(), DDR4);
    }

    /// What the stress test believes holds the block right now,
    /// updated only while the matching guard or move is held. Overlaps
    /// are recorded, not panicked on, so a broken registry fails the
    /// test instead of leaving a block stuck mid-move.
    #[derive(Default)]
    struct Shadow {
        readers: u32,
        writer: bool,
        moving: bool,
        overlaps: Vec<String>,
    }

    #[test]
    fn guards_and_moves_never_overlap_under_stress() {
        use rand::{rngs::StdRng, Rng, SeedableRng};

        const ACCESSORS: u64 = 3;
        const GUARDS: usize = 3000;
        const MOVES: usize = 1000;
        let ddr = NodeAllocator::new(1 << 20);
        let hbm = NodeAllocator::new(1 << 20);
        let reg = BlockRegistry::new();
        let id = reg.register(ddr.alloc(64, DDR4).unwrap(), "stress");
        let shadow = Mutex::new(Shadow::default());
        // Stands in for the scheduler's dependence discipline: a writer
        // never runs beside another guard. The registry itself panics
        // if that discipline breaks (see `writer_racing_reader_panics`).
        let discipline = std::sync::RwLock::new(());
        let pause = || {
            for _ in 0..4 {
                std::thread::yield_now();
            }
        };

        std::thread::scope(|s| {
            for seed in 0..ACCESSORS {
                let (reg, shadow, discipline) = (&reg, &shadow, &discipline);
                s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(seed);
                    for _ in 0..GUARDS {
                        let mode = match rng.gen_range(0..3) {
                            0 => AccessMode::ReadWrite,
                            1 => AccessMode::WriteOnly,
                            _ => AccessMode::ReadOnly,
                        };
                        let (_shared, _exclusive);
                        if mode.is_exclusive() {
                            _exclusive = discipline.write().unwrap();
                        } else {
                            _shared = discipline.read().unwrap();
                        }
                        let guard = reg.access(id, mode);
                        {
                            let mut sh = shadow.lock();
                            if sh.moving || sh.writer || (mode.is_exclusive() && sh.readers > 0) {
                                let seen = format!(
                                    "{mode:?} guard over {} reader(s), writer={}, moving={}",
                                    sh.readers, sh.writer, sh.moving
                                );
                                sh.overlaps.push(seen);
                            }
                            if mode.is_exclusive() {
                                sh.writer = true;
                            } else {
                                sh.readers += 1;
                            }
                        }
                        pause();
                        {
                            let mut sh = shadow.lock();
                            if mode.is_exclusive() {
                                sh.writer = false;
                            } else {
                                sh.readers -= 1;
                            }
                        }
                        drop(guard);
                        std::thread::yield_now();
                    }
                });
            }
            s.spawn(|| {
                for round in 0..MOVES {
                    let (to, alloc) = if round % 2 == 0 {
                        (HBM, &hbm)
                    } else {
                        (DDR4, &ddr)
                    };
                    let (src, _) = reg.begin_move(id, to, false).unwrap();
                    {
                        let mut sh = shadow.lock();
                        if sh.readers > 0 || sh.writer {
                            let seen = format!(
                                "move {round} over {} reader(s), writer={}",
                                sh.readers, sh.writer
                            );
                            sh.overlaps.push(seen);
                        }
                        sh.moving = true;
                    }
                    let mut dst = alloc.alloc(64, to).unwrap();
                    dst.as_mut_slice().copy_from_slice(src.as_slice());
                    pause();
                    shadow.lock().moving = false;
                    reg.complete_move(id, dst);
                    drop(src);
                }
            });
        });
        let overlaps = &shadow.lock().overlaps;
        assert!(
            overlaps.is_empty(),
            "{} overlap(s): {overlaps:?}",
            overlaps.len()
        );
        assert_eq!(reg.node_of(id), Some(DDR4));
    }

    #[test]
    #[should_panic(expected = "not a whole number of f64")]
    fn ill_sized_cast_panics_with_context() {
        // 10 B is not a whole number of f64: the old code would have
        // truncated to one element; now it aborts loudly.
        let (reg, id, _a) = registry_with_block(10);
        let g = reg.access(id, AccessMode::ReadOnly);
        let _: &[f64] = g.as_slice();
    }

    #[test]
    #[should_panic(expected = "trailing byte(s) would be truncated")]
    fn ill_sized_mut_cast_panics_with_context() {
        let (reg, id, _a) = registry_with_block(17);
        let mut g = reg.access(id, AccessMode::ReadWrite);
        let _: &mut [u32] = g.as_mut_slice();
    }

    #[test]
    fn exact_cast_still_succeeds() {
        let (reg, id, _a) = registry_with_block(24);
        let g = reg.access(id, AccessMode::ReadOnly);
        assert_eq!(g.as_slice::<f64>().len(), 3);
        assert_eq!(g.as_slice::<u8>().len(), 24);
    }

    #[test]
    fn contains_reports_registered_ids() {
        let (reg, id, _a) = registry_with_block(64);
        assert!(reg.contains(id));
        assert!(!reg.contains(BlockId(id.0 + 1)));
    }

    #[derive(Default)]
    struct Recorder {
        events: Mutex<Vec<BlockEvent>>,
    }
    impl BlockObserver for Recorder {
        fn on_event(&self, event: BlockEvent) {
            self.events.lock().push(event);
        }
    }

    #[test]
    fn observer_sees_lifecycle_in_order() {
        let alloc = NodeAllocator::new(1 << 20);
        let reg = BlockRegistry::new();
        let obs = Arc::new(Recorder::default());
        reg.set_observer(obs.clone());
        let id = reg.register(alloc.alloc(64, DDR4).unwrap(), "obs");
        reg.add_ref(id);
        drop(reg.access(id, AccessMode::ReadWrite));
        reg.release_ref(id);
        let (src, _) = reg.begin_move(id, HBM, true).unwrap();
        reg.abort_move(id, src);
        let events = obs.events.lock().clone();
        assert_eq!(
            events,
            vec![
                BlockEvent::Register {
                    block: id,
                    bytes: 64,
                    node: DDR4
                },
                BlockEvent::AddRef {
                    block: id,
                    refcount: 1
                },
                BlockEvent::Access {
                    block: id,
                    mode: AccessMode::ReadWrite
                },
                BlockEvent::ReleaseRef {
                    block: id,
                    refcount: 0
                },
                BlockEvent::MoveBegin {
                    block: id,
                    from: DDR4,
                    to: HBM,
                    refcount: 0
                },
                BlockEvent::MoveAbort {
                    block: id,
                    node: DDR4
                },
            ]
        );
        assert!(events.iter().all(|e| e.block() == id));
    }

    #[test]
    fn observer_is_set_once() {
        let reg = BlockRegistry::new();
        let obs: Arc<dyn BlockObserver> = Arc::new(Recorder::default());
        reg.set_observer(Arc::clone(&obs));
        // Re-installing the same observer is a no-op...
        reg.set_observer(Arc::clone(&obs));
        // ...but a second, different observer is refused.
        let other: Arc<dyn BlockObserver> = Arc::new(Recorder::default());
        let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            reg.set_observer(other);
        }));
        assert!(refused.is_err());
    }

    #[test]
    fn wait_resident_wakes_when_a_move_completes() {
        let alloc0 = NodeAllocator::new(1 << 20);
        let alloc1 = NodeAllocator::new(1 << 20);
        let reg = Arc::new(BlockRegistry::new());
        let id = reg.register(alloc0.alloc(64, DDR4).unwrap(), "w");
        for round in 0..200 {
            let (to, alloc) = if round % 2 == 0 {
                (HBM, &alloc1)
            } else {
                (DDR4, &alloc0)
            };
            let (src, _) = reg.begin_move(id, to, true).unwrap();
            let reg2 = Arc::clone(&reg);
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || tx.send(reg2.wait_resident(id)).unwrap());
            // Give the waiter a chance to park before the move finishes
            // on some rounds, and race it on the others.
            if round % 4 == 0 {
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            let mut dst = alloc.alloc(64, to).unwrap();
            dst.as_mut_slice().copy_from_slice(src.as_slice());
            drop(src);
            reg.complete_move(id, dst);
            let woke = rx.recv_timeout(std::time::Duration::from_secs(10));
            assert_eq!(woke, Ok(to), "round {round}: waiter not woken");
        }
    }

    #[test]
    fn resident_listing_orders_by_touch() {
        let alloc = NodeAllocator::new(1 << 20);
        let reg = BlockRegistry::new();
        let a = reg.register(alloc.alloc(16, HBM).unwrap(), "a");
        let b = reg.register(alloc.alloc(16, HBM).unwrap(), "b");
        let c = reg.register(alloc.alloc(16, DDR4).unwrap(), "c");
        drop(reg.access(b, AccessMode::ReadOnly));
        drop(reg.access(a, AccessMode::ReadOnly));
        let on_hbm = reg.resident_on(HBM);
        assert_eq!(on_hbm, vec![b, a]); // b touched before a
        assert_eq!(reg.resident_on(DDR4), vec![c]);
    }
}
