//! Exact state-vector and noisy density-matrix simulation.
//!
//! This crate is the reproduction's substitute for Qiskit's `AerSimulator`
//! (Section 5.2.1 of the paper): density-matrix simulation with the paper's
//! channel structure — depolarizing + thermal-relaxation gate errors,
//! bit-flip + relaxation measurement errors, relaxation idling errors for
//! the NISQ regime; depolarizing gate/memory errors and bit-flip
//! measurement errors for the pQEC regime.
//!
//! * [`StateVector`] — exact pure-state simulation (the noiseless
//!   reference), and the one set of dense gate kernels.
//! * [`DensityMatrix`] — exact open-system simulation on vectorized ρ:
//!   an n-qubit density matrix is a 2n-qubit [`StateVector`] whose upper
//!   n index bits are the rows, so every unitary is two state-vector
//!   kernel calls (once on the row bits, once conjugated on the column
//!   bits). Channels act in place on the 2×2 / 4×4 blocks over the row
//!   and column bits of their qubits (no scratch copy of the 4ⁿ-entry
//!   matrix).
//! * [`channels`] — Kraus families: depolarizing, thermal relaxation
//!   (amplitude + phase damping) and bit-flip, with their superoperators.
//! * [`noise`] — a gate-triggered [`noise::NoiseModel`] plus the layered
//!   noisy executor that inserts idle errors along the schedule.
//!
//! # Examples
//!
//! ```
//! use eftq_circuit::Circuit;
//! use eftq_statesim::StateVector;
//! use eftq_pauli::PauliSum;
//!
//! // Bell state: ⟨ZZ⟩ = ⟨XX⟩ = 1.
//! let mut c = Circuit::new(2);
//! c.h(0).cx(0, 1);
//! let psi = StateVector::from_circuit(&c);
//! let mut h = PauliSum::new(2);
//! h.push_str(1.0, "ZZ");
//! h.push_str(1.0, "XX");
//! assert!((psi.expectation(&h) - 2.0).abs() < 1e-12);
//! ```

#![deny(missing_docs)]

pub mod channels;
pub mod density;
pub mod noise;
pub mod statevector;

pub use channels::{apply_superoperator, KrausChannel};
pub use density::DensityMatrix;
pub use noise::{NoiseModel, NoisyRunReport};
pub use statevector::StateVector;
