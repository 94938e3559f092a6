//! Numerical foundations for the EFT-VQA reproduction.
//!
//! This crate deliberately avoids external linear-algebra dependencies: the
//! sanctioned dependency set for the reproduction does not include a complex
//! number or matrix crate, so the small amount of dense linear algebra the
//! project needs lives here.
//!
//! The crate provides:
//!
//! * [`Complex`] — a `f64` complex number with the full arithmetic surface
//!   used by the simulators.
//! * [`Mat2`] — dense 2×2 complex matrices (single-qubit operators) with
//!   multiplication, adjoints and unitarity checks.
//! * [`lanczos()`] — a Lanczos ground-state eigensolver over a caller-supplied
//!   Hermitian matrix–vector product, used to obtain exact reference energies
//!   for the γ metric.
//! * [`stats`] — summary statistics and the geometric-distribution facts used
//!   by the paper's Section-9 patch-shuffling proof.
//! * [`rng`] — deterministic RNG plumbing (seed splitting) so every
//!   stochastic experiment in the workspace is reproducible.
//! * [`bernoulli`] — [`BernoulliWords`], the batched Bernoulli sampler
//!   (geometric skipping for sparse probabilities, bit-slice refinement
//!   for dense ones) behind the stabilizer noise engine.
//!
//! # Examples
//!
//! ```
//! use eftq_numerics::{Complex, Mat2};
//!
//! let h = Mat2::hadamard();
//! let id = h.mul(&h); // H is an involution
//! assert!(id.approx_eq(&Mat2::identity(), 1e-12));
//! assert_eq!(Complex::I * Complex::I, -Complex::ONE);
//! ```

#![deny(missing_docs)]

pub mod bernoulli;
pub mod complex;
pub mod lanczos;
pub mod mat;
pub mod rng;
pub mod stats;
pub mod words;

pub use bernoulli::BernoulliWords;
pub use complex::Complex;
pub use lanczos::{lanczos, LanczosError, LanczosOptions, LanczosResult};
pub use mat::Mat2;
pub use rng::{splitmix64, SeedSequence};
