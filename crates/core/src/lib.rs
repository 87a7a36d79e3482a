//! `hetrt-core` — the paper's contribution: a memory heterogeneity-aware
//! prefetch/evict runtime.
//!
//! This crate layers the §IV design of Chandrasekar, Ni & Kale (IPDPSW
//! 2017) on top of the two substrates:
//!
//! * [`converse`] delivers messages to over-decomposed chares and lets a
//!   [`SchedulerHook`](converse::SchedulerHook) intercept `[prefetch]`
//!   entry methods before execution;
//! * [`hetmem`] provides the capacity-budgeted, bandwidth-regulated
//!   memory nodes, the tracked data blocks (`CkIOHandle` equivalents)
//!   and `memcpy`-based migration.
//!
//! The pieces:
//!
//! * [`IoHandle`] — a typed handle to a tracked block (the paper's
//!   `CkIOHandle<double>`), created on a node chosen by a
//!   [`Placement`] policy;
//! * [`OocTask`] — an intercepted entry-method invocation bundled with
//!   its declared dependences (§IV-B's "encapsulated as an OOCTask");
//! * [`FetchEngine`] — shared fetch/evict machinery: bring dependences
//!   into HBM under the capacity budget, evict zero-refcount blocks
//!   back to DDR4, with optional LRU-on-demand eviction (ablation);
//! * [`WaitQueues`] — per-PE (or single shared — ablation) FIFO wait
//!   queues of tasks whose data is not yet resident;
//! * the three scheduling strategies of §IV-B, all installable as
//!   scheduler hooks via [`OocRuntime`]:
//!   * **Multiple queues, single IO thread** — [`StrategyKind::IoThreads`]
//!     with one thread,
//!   * **Multiple queues, no IO thread** (synchronous parallel
//!     fetch/evict on the workers) — [`StrategyKind::SyncFetch`],
//!   * **Multiple queues, multiple IO threads** (asynchronous, one per
//!     PE) — [`StrategyKind::IoThreads`] with `pes` threads; the
//!     "IO thread per subgroup of wait queues" the paper plans is any
//!     intermediate thread count;
//! * the baselines of §IV-B: *Naive* (fill HBM, overflow to DDR4, never
//!   move — [`Placement::PreferHbm`] with no hook) and *DDR4-only*
//!   ([`Placement::DdrOnly`]).

pub mod config;
pub mod engine;
pub mod handle;
pub mod ooc;
pub mod placement;
pub mod stats;
pub mod strategy;
pub mod task;
pub mod waitqueue;

pub use config::{EvictionPolicy, OocConfig, StrategyKind, WaitQueueTopology};
pub use engine::{FetchEngine, FetchError};
pub use handle::IoHandle;
pub use ooc::OocRuntime;
pub use placement::Placement;
pub use stats::OocStats;
pub use strategy::OocHook;
pub use task::OocTask;
pub use waitqueue::WaitQueues;
