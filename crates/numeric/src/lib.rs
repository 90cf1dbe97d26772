//! # gm-numeric
//!
//! Dense numerical kernels for GridMind-RS: complex arithmetic, dense
//! matrices, LU factorization, and vector utilities.
//!
//! The power system substrates (Ybus assembly, Newton–Raphson power flow,
//! the interior-point ACOPF) all bottom out in these primitives. The crate
//! deliberately has no external linear-algebra dependencies: every kernel a
//! downstream solver needs is implemented and tested here.
//!
//! ## Modules
//!
//! - [`complex`] — a `Copy` complex number type ([`Complex`]) with the full
//!   arithmetic surface (polar construction, conjugate, magnitude, division).
//! - [`dense`] — a column-major dense matrix ([`DMat`]) with slicing,
//!   matrix-vector and matrix-matrix products.
//! - [`lu`] — partial-pivoting dense LU factorization ([`lu::DenseLu`]) with
//!   forward/backward solves and determinant/condition estimates.
//! - [`vecops`] — BLAS-1 style helpers (norms, dot products, axpy) on `f64`
//!   and [`Complex`] slices.
//! - [`fnv`] — the FNV-1a encoder ([`Fnv1a`]) every cache key in the suite
//!   is hashed with.
//!
//! ```
//! use gm_numeric::Complex;
//!
//! // A voltage phasor rotated by 30 degrees keeps its magnitude.
//! let v = Complex::from_polar(1.05, 0.0_f64);
//! let rot = Complex::from_polar(1.0, 30.0_f64.to_radians());
//! assert!(((v * rot).abs() - 1.05).abs() < 1e-12);
//! ```
// Solver crates are panic-free outside tests: every fallible path
// returns a typed error. Library code prints nothing: stdout and
// stderr belong to the binaries. Enforced by clippy, which CI runs
// with `-D warnings`.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::print_stdout,
        clippy::print_stderr
    )
)]
// Numeric kernels iterate several parallel arrays by index; the
// index-based loops are the clearer form here.
#![allow(clippy::needless_range_loop)]

pub mod complex;
pub mod dense;
pub mod fnv;
pub mod lu;
pub mod vecops;

pub use complex::Complex;
pub use dense::DMat;
pub use fnv::Fnv1a;
pub use lu::DenseLu;
