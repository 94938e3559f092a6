//! Bit-packed Pauli algebra for the EFT-VQA reproduction.
//!
//! Pauli strings are stored in symplectic form (an X bit-plane and a Z
//! bit-plane packed into `u64` words) with a global phase tracked as a power
//! of `i`. This is the representation shared by the stabilizer tableau
//! simulator, the Hamiltonian observables, and the noise channels, so it
//! lives in its own crate below all of them.
//!
//! * [`Pauli`] — a single-qubit Pauli letter.
//! * [`PauliString`] — an n-qubit Pauli operator with phase, supporting
//!   phase-exact multiplication, commutation tests and state-vector
//!   application.
//! * [`PauliSum`] — a real-linear combination of Pauli strings (an
//!   observable / Hamiltonian) with simplification, grouping and a
//!   matrix-free ground-energy solver.
//! * [`grouping`] — qubit-wise-commuting partitioning, used by the
//!   VarSaw-style readout mitigation and the stabilizer engine's grouped
//!   observable.
//!
//! # Examples
//!
//! ```
//! use eftq_pauli::{Pauli, PauliString};
//!
//! let xy: PauliString = "XY".parse().unwrap();
//! let yx: PauliString = "YX".parse().unwrap();
//! assert!(xy.commutes_with(&yx));
//! let prod = "XI".parse::<PauliString>().unwrap()
//!     .mul(&"YI".parse::<PauliString>().unwrap());
//! assert_eq!(prod.pauli_at(0), Pauli::Z); // X·Y = iZ
//! ```

#![deny(missing_docs)]

pub mod grouping;
pub mod pauli;
pub mod string;
pub mod sum;

pub use grouping::{group_qubit_wise_commuting, PauliGroup};
pub use pauli::Pauli;
pub use string::{PauliParseError, PauliString};
pub use sum::{PauliSum, PauliTerm};
