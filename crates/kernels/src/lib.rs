//! `kernels` — the bandwidth-sensitive HPC applications of the paper's
//! evaluation (§V), plus the STREAM benchmark of its Figure 1.
//!
//! * [`stream`] — McCalpin STREAM (copy/scale/add/triad) against a
//!   chosen memory node with 1..N threads; regenerates Figure 1's
//!   MCDRAM-vs-DDR4 bandwidth curves.
//! * [`stencil`] — Stencil3D: a 3-D grid of chares, each owning one
//!   sub-block and exchanging face halos with its 6 neighbours every
//!   iteration (Algorithm 2 of the paper); the `compute_kernel` entry is
//!   `[prefetch]`-annotated with a `readwrite` dependence on the
//!   chare's block.
//! * [`matmul`] — blocked matrix multiplication over a 2-D chare grid:
//!   chare (i,j) accumulates `C[i][j] += A[i][k] · B[k][j]` over k
//!   steps; A and B blocks are `readonly` dependences shared across
//!   chares (the paper's node-level nodegroup cache), C is `readwrite`.
//!
//! Each of the two has one driver ([`StencilDriver`], [`MatmulDriver`])
//! that runs its iterations in chunks: message-driven inside a chunk,
//! quiescent at the chunk's end. With
//! [`hetrt_core::OocConfig::checkpoint_every`] set and a checkpoint
//! path given, each chunk ends with a checkpoint, and a killed run
//! resumes from it bitwise identical. Otherwise the run is one chunk.
//!
//! * [`dgemm`] — the cache-blocked dgemm kernel used by `matmul`
//!   (stands in for MKL's `cblas_dgemm`, whose internal HBM allocation
//!   the paper disables anyway).
//! * [`traffic`] — the charging discipline: every kernel declares the
//!   bytes it streams per dependence and charges them against the node
//!   the block *currently* resides on, which is precisely why placement
//!   and prefetching matter.

mod chunk;
pub mod dgemm;
pub mod matmul;
pub mod stencil;
pub mod stream;
pub mod traffic;

pub use matmul::{MatmulConfig, MatmulDriver, MatmulReport};
pub use stencil::{StencilConfig, StencilDriver, StencilReport};
pub use stream::{StreamConfig, StreamKernel, StreamReport};
