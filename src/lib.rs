//! `hetrt` — umbrella crate for the memory heterogeneity-aware runtime
//! system reproduction (Chandrasekar, Ni & Kale, IPDPSW 2017).
//!
//! This crate simply re-exports the workspace members so examples,
//! integration tests and downstream users can depend on a single name:
//!
//! * [`hetmem`] — the software heterogeneous-memory substrate (capacity
//!   budgets, bandwidth regulators, block registry, migration engine);
//! * [`converse`] — the message-driven execution substrate (PEs, chare
//!   arrays, per-PE schedulers, quiescence);
//! * [`core`] — the paper's contribution: prefetch/evict
//!   strategies over the two substrates;
//! * [`hetcheck`] — dynamic/offline analysis: dependence-conformance
//!   sanitizer and schedule linter (see
//!   `DESIGN.md` §8 and the `schedule_lint` binary);
//! * [`kernels`] — Stencil3D, blocked matrix multiplication and STREAM;
//! * [`projections`] — trace collection and timeline rendering;
//! * [`vtsim`] — a virtual-time discrete-event simulator of the same
//!   policies for paper-scale experiments.
//!
//! See `README.md` for a quickstart and `DESIGN.md` for the system
//! inventory and experiment index.

pub use converse;
pub use hetcheck;
pub use hetmem;
pub use hetrt_core as core;
pub use kernels;
pub use projections;
pub use vtsim;
