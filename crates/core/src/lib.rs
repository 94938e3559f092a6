//! **EFT-VQA**: Variational Quantum Algorithms in the era of Early Fault
//! Tolerance — the reproduction's core crate.
//!
//! The paper's contribution is *partial quantum error correction* (pQEC):
//! in the EFT regime (~10 000 physical qubits, p ≈ 1e-3), error-correct
//! the Clifford portion of a VQA with lightweight surface codes and execute
//! its `Rz(θ)` rotations via magic-state injection rather than Clifford+T
//! decomposition plus T-state distillation. This crate composes every
//! substrate (simulators, QEC resource models, layouts, optimizers) into:
//!
//! * [`regimes`] — the four execution regimes (NISQ, pQEC,
//!   qec-conventional, qec-cultivation) and their noise models
//!   (Section 5.2.1).
//! * [`hamiltonians`] — the benchmark suite: 1-D Ising and Heisenberg
//!   chains (J = 0.25/0.5/1.0) and synthetic molecular Hamiltonians with
//!   the paper's qubit/term counts for H₂O, H₆ and LiH (Section 5.1).
//! * [`fidelity`] — the analytic workload-fidelity model behind Figures
//!   4–6 (factory stalls, memory errors, injection errors, code-distance
//!   budgeting).
//! * [`crossover`] — Section 4.4's CNOT:Rz design rule and the Figure-11
//!   NISQ/EFT crossover curves.
//! * [`vqe`] — the density-matrix VQE driver (Figures 13 and 15).
//! * [`clifford_vqe`] — the genetic Clifford-restricted VQE at scale
//!   (Figures 12 and 14).
//! * [`varsaw`] — VarSaw-style measurement-error mitigation (Figure 15).
//! * [`gamma`] — the relative-improvement metric γ (Equation 3).
//! * [`zne`] / [`opr`] — the Section-7 extensions: EFT-aware zero-noise
//!   extrapolation and the Optimal-Parameter-Resilience transfer
//!   experiment.
//! * [`sweeps`] — the figure-level experiment drivers consumed by the
//!   bench harness.
//!
//! # Examples
//!
//! ```
//! use eft_vqa::hamiltonians;
//! use eft_vqa::fidelity::{Workload, pqec_fidelity, nisq_fidelity};
//! use eftq_qec::DeviceModel;
//!
//! let h = hamiltonians::ising_1d(12, 0.5);
//! assert_eq!(h.num_qubits(), 12);
//!
//! // pQEC beats NISQ for a 12-qubit FCHE iteration on the EFT device.
//! let w = Workload::fche(12, 1);
//! let pqec = pqec_fidelity(&w, &DeviceModel::eft_default()).unwrap();
//! let nisq = nisq_fidelity(&w, 1e-3);
//! assert!(pqec.fidelity > nisq);
//! ```

#![deny(missing_docs)]

pub mod advisor;
pub mod clifford_vqe;
pub mod crossover;
pub mod fidelity;
pub mod gamma;
pub mod hamiltonians;
pub mod opr;
pub mod regimes;
pub mod sweeps;
pub mod varsaw;
pub mod vqe;
pub mod zne;

pub use advisor::{plan, RegimePlan};
pub use fidelity::Workload;
pub use gamma::relative_improvement;
pub use regimes::ExecutionRegime;

/// One-stop imports for the common workflow: build a Hamiltonian and an
/// ansatz, pick a regime, estimate energies or run a VQE, and orchestrate
/// grids of all of the above through the sweep engine.
///
/// # Examples
///
/// ```
/// use eft_vqa::prelude::*;
///
/// let h = ising_1d(6, 0.5);
/// let ansatz = fully_connected_hea(6, 1);
/// let noise = ExecutionRegime::pqec_default().stabilizer_noise();
/// let circuit = ansatz.bind_clifford(&vec![1; ansatz.num_params()]);
/// let run = estimate_energy(&circuit, &h, &noise, 64, SeedSequence::new(7));
/// assert!(run.energy.is_finite());
/// ```
pub mod prelude {
    pub use crate::clifford_vqe::{
        clifford_vqe, clifford_vqe_with_template, reevaluate_genome, CliffordVqeConfig,
        CliffordVqeOutcome,
    };
    pub use crate::hamiltonians::{
        heisenberg_1d, ising_1d, molecular, Molecule, BOND_LENGTHS, COUPLINGS,
    };
    pub use crate::sweeps::{
        Fig11Driver, Fig12Driver, Fig13Driver, Fig13ZneDriver, Fig14Driver, Fig15Driver,
        Fig4Driver, Fig5Driver, Fig6Driver, Fig8Driver, Table1Driver, Table2Driver,
    };
    pub use crate::vqe::{run_vqe, VqeConfig, VqeOutcome};
    pub use crate::{plan, relative_improvement, ExecutionRegime, RegimePlan, Workload};
    pub use eftq_circuit::ansatz::{blocked_all_to_all, fully_connected_hea, linear_hea};
    pub use eftq_circuit::{Ansatz, AnsatzKind, Circuit, Gate};
    pub use eftq_numerics::SeedSequence;
    pub use eftq_pauli::{Pauli, PauliString, PauliSum};
    pub use eftq_stabilizer::{
        estimate_energy, estimate_energy_program, estimate_energy_threaded, NoiseProgram,
        NoiseTemplate, StabilizerNoise, Tableau,
    };
    pub use eftq_sweep::{
        run_sweep, ArtifactCache, Completion, FarmState, FaultKind, FaultPlan, PointCtx,
        PointFilter, Row, Shard, SweepOptions, SweepPoint, SweepSpec,
    };
}
