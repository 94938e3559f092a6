//! Quantum circuit IR and ansatz library for the EFT-VQA reproduction.
//!
//! The paper's workloads are variational circuits over the gate set
//! `Clifford + Rz(θ)/Rx(θ)` (Section 2.3). This crate provides:
//!
//! * [`Gate`] / [`Circuit`] — a compact circuit IR with symbolic parameters,
//!   binding, depth and gate-count accounting.
//! * [`ansatz`] — the ansatz family the paper evaluates: linear
//!   hardware-efficient, fully-connected hardware-efficient (FCHE, Kandala
//!   et al.) and the paper's layout-aware `blocked_all_to_all` (Figure 10).
//! * [`transpile`] — gate merging, Clifford detection/lowering, the
//!   runtime repeat-until-success expansion of Figure 2(B).
//! * [`synthesis`] — the Clifford+T cost model standing in for Gridsynth:
//!   the Ross–Selinger T-count estimate used for resource accounting and
//!   the Section 2.5 decomposition blow-up.
//!
//! # Examples
//!
//! ```
//! use eftq_circuit::{ansatz, Circuit};
//!
//! let fche = ansatz::fully_connected_hea(4, 1);
//! let bound: Circuit = fche.circuit().bind_all(0.3);
//! assert!(bound.num_symbolic_params() == 0);
//! assert!(bound.counts().cx == 4 * 3 / 2);
//! ```

#![deny(missing_docs)]

pub mod ansatz;
pub mod circuit;
pub mod gate;
pub mod synthesis;
pub mod transpile;

pub use ansatz::{Ansatz, AnsatzKind};
pub use circuit::{Circuit, GateCounts};
pub use gate::{Angle, Gate};
