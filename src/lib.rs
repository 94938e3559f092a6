//! Umbrella crate for the pQEC/EFT-VQA reproduction
//! (conf_isca_DangwalVSCR25).
//!
//! The paper's contribution is *partial quantum error correction* (pQEC)
//! for variational quantum algorithms in the early-fault-tolerance (EFT)
//! regime: error-correct the Clifford portion of the circuit with
//! lightweight surface codes and execute `Rz(θ)` rotations via magic-state
//! injection instead of Clifford+T decomposition plus distillation.
//!
//! This crate stitches the workspace together for consumers that want a
//! single dependency: every library layer is re-exported under its crate
//! name, with [`core`] aliasing the paper's top-level `eft_vqa` crate.
//! The repo-root `tests/` (eleven cross-crate suites, including the
//! paper-number assertions) and `examples/` (seven runnable demos) are
//! this package's integration tests and examples; see the top-level
//! `README.md` for the crate map and the figure→binary index.
//!
//! # Layering
//!
//! ```text
//! {obs, numerics} → {pauli, sweep} → {circuit, stabilizer, statesim}
//!                 → {qec → layout} → optim → core (eft_vqa) → {bench, planner}
//! ```
//!
//! The [`sweep`] layer is the resumable, parallel sweep engine every
//! figure/table binary runs on; [`planner`] serves surrogate surfaces
//! fitted over its checked-in artifacts behind a deadline-aware query
//! server; [`prelude`] collects the common types (circuits,
//! Hamiltonians, estimators, sweep specs) for one-line imports.
//!
//! # Examples
//!
//! ```
//! use eft_vqa_repro::core::fidelity::{nisq_fidelity, pqec_fidelity, Workload};
//! use eft_vqa_repro::qec::DeviceModel;
//!
//! // pQEC beats NISQ for a 12-qubit FCHE iteration on the EFT device.
//! let w = Workload::fche(12, 1);
//! let pqec = pqec_fidelity(&w, &DeviceModel::eft_default()).unwrap();
//! assert!(pqec.fidelity > nisq_fidelity(&w, 1e-3));
//! ```

#![deny(missing_docs)]

pub use eft_vqa as core;
pub use eftq_bench as bench;
pub use eftq_circuit as circuit;
pub use eftq_layout as layout;
pub use eftq_numerics as numerics;
pub use eftq_obs as obs;
pub use eftq_optim as optim;
pub use eftq_pauli as pauli;
pub use eftq_planner as planner;
pub use eftq_qec as qec;
pub use eftq_stabilizer as stabilizer;
pub use eftq_statesim as statesim;
pub use eftq_sweep as sweep;

/// The one-stop import surface (re-exported from [`core`], which also
/// pulls in the sweep engine's types): `use eft_vqa_repro::prelude::*;`.
pub use eft_vqa::prelude;

pub use eft_vqa::{plan, relative_improvement, ExecutionRegime, RegimePlan, Workload};
pub use eftq_circuit::{Ansatz, AnsatzKind, Circuit, Gate};
pub use eftq_pauli::{Pauli, PauliString, PauliSum};
pub use eftq_qec::{DeviceModel, InjectionModel, SurfaceCodeModel};
pub use eftq_stabilizer::Tableau;
pub use eftq_statesim::{DensityMatrix, StateVector};
