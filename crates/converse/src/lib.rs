//! `converse` — a Charm++/Converse-style message-driven execution
//! substrate.
//!
//! The paper's runtime is built *inside* Charm++: work is
//! over-decomposed into **chares** (more work units than processors),
//! each chare exposes **entry methods** invoked by messages, and a
//! per-PE **Converse scheduler** delivers queued messages to objects
//! (§III-A). The prefetch mechanism of §IV-B works by *intercepting*
//! message delivery: before a `[prefetch]` entry method runs, the
//! scheduler hands the message to the memory-aware layer instead of
//! executing it.
//!
//! This crate reproduces that substrate:
//!
//! * [`Runtime`] — spawns one worker thread per PE, each running a
//!   Converse-style scheduler loop over a FIFO run queue;
//! * [`ChareArray`] / [`ArrayBuilder`] — over-decomposed, indexed
//!   collections of chares with a PE mapping (block or round-robin);
//! * [`Chare`] — the object model: typed messages, entry-method
//!   dispatch, and per-entry *data dependence* declarations
//!   ([`Dep`]) equivalent to the paper's `.ci`-file annotations;
//! * [`SchedulerHook`] — the interception point the heterogeneity-aware
//!   runtime (`hetrt-core`) installs; unannotated entries are delivered
//!   directly, `[prefetch]` entries are diverted to the hook exactly as
//!   in §IV-B;
//! * [`CompletionLatch`] and quiescence counters for termination;
//! * [`park::spin_then_park`] — how an idle queue consumer waits: poll,
//!   then park, with no deadline, until a producer unparks it.

pub mod array;
pub mod envelope;
pub mod hook;
pub mod park;
pub mod queue;
pub mod runtime;
pub mod sync;

pub use array::{ArrayBuilder, ChareArray, Mapping};
pub use envelope::{ArrayId, ChareIndex, Dep, EntryId, EntryOptions, Envelope};
pub use hook::{ExecutedTask, SchedulerHook};
pub use queue::{Pop, RunQueue};
pub use runtime::{Chare, ExecCtx, Runtime, RuntimeBuilder};
pub use sync::CompletionLatch;
