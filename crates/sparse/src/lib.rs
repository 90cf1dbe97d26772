//! # gm-sparse
//!
//! Sparse matrix storage and factorization for GridMind-RS.
//!
//! Power system matrices are famously sparse: a bus admittance matrix has a
//! handful of nonzeros per row regardless of system size, and the Newton
//! power-flow Jacobian inherits that structure. This crate provides:
//!
//! - [`Triplets`] — coordinate-format assembly with duplicate summing, the
//!   natural target for Ybus/Jacobian stamping;
//! - [`Stencil`] / [`Stamper`] — the one way a solver fills a matrix it
//!   assembles more than once: a pattern taken from one [`Stamp`] pass,
//!   then values written by slot;
//! - [`CsMat`] — compressed sparse row storage, generic over [`Scalar`]
//!   (real `f64` or [`gm_numeric::Complex`]), with mat-vec products,
//!   transposition, and structural queries;
//! - [`SparseLu`] — a left-looking Gilbert–Peierls LU factorization with
//!   partial pivoting and an optional greedy minimum-degree column
//!   preordering ([`order`]), property-tested against the dense
//!   factorization in `gm-numeric`;
//! - [`SparseLdl`] — a static-order LDLᵀ for symmetric indefinite
//!   (KKT) systems: one symbolic analysis, numeric refactorization
//!   into the same structure, iteratively refined solves.
//!
//! Everything here is deterministic: given the same matrix, assembly,
//! ordering, and factorization produce bit-identical results, which the
//! agent layer relies on for reproducible audits.
//!
//! ```
//! use gm_sparse::{SparseLu, Triplets};
//!
//! // Assemble [[4, 1], [1, 3]] and solve A·x = [1, 2].
//! let mut t = Triplets::new(2, 2);
//! t.push(0, 0, 4.0);
//! t.push(0, 1, 1.0);
//! t.push(1, 0, 1.0);
//! t.push(1, 1, 3.0);
//! let lu = SparseLu::factor(&t.to_csr()).unwrap();
//! let x = lu.solve(&[1.0, 2.0]);
//! assert!((x[0] - 1.0 / 11.0).abs() < 1e-12);
//! assert!((x[1] - 7.0 / 11.0).abs() < 1e-12);
//! ```
// Solver crates are panic-free outside tests: every fallible path
// returns a typed error. Enforced by clippy here and by the regex
// pass of `gm-audit lint-src` (with its allowlist) in CI.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]
// Numeric kernels iterate several parallel arrays by index; the
// index-based loops are the clearer form here.
#![allow(clippy::needless_range_loop)]

pub mod compensate;
pub mod csmat;
pub mod ldl;
pub mod lu;
pub mod order;
pub mod scalar;
pub mod stencil;
pub mod symbolic;
pub mod triplets;

pub use compensate::{CompensateError, CompensatedLu};
pub use csmat::CsMat;
pub use ldl::{LdlError, Refinement, SparseLdl};
pub use lu::{SparseLu, SparseLuError};
pub use order::{Ordering, OrderingError};
pub use scalar::Scalar;
pub use stencil::{Stamp, Stamper, Stencil};
pub use symbolic::{
    with_checked_out, with_fresh_engine, with_thread_engine, LuEngine, Mru, SymbolicLu,
};
pub use triplets::Triplets;
