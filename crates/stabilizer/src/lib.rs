//! Aaronson–Gottesman stabilizer simulation with Monte-Carlo Pauli noise.
//!
//! The paper's large-scale methodology (Section 5.2.2) restricts VQA
//! rotation angles to multiples of π/2, turning the ansatz into a Clifford
//! circuit that a stabilizer simulator evaluates at 16–100+ qubits. This
//! crate is the reproduction's substitute for Stim:
//!
//! * [`Tableau`] — the destabilizer/stabilizer tableau with the standard
//!   gate set, measurement, and *Pauli-expectation* queries
//!   (⟨P⟩ ∈ {−1, 0, +1} for stabilizer states), which is what Hamiltonian
//!   energy evaluation needs. Stored column-major (Stim-style): each gate
//!   is `O(2n/64)` XOR/AND word operations over per-qubit bit-columns,
//!   and expectation phases accumulate via popcount/prefix-XOR word
//!   arithmetic.
//! * [`frame`] — the batched Pauli-frame simulator: noise propagates as
//!   per-shot Pauli frames, 64 shots per `u64` lane, so one circuit walk
//!   yields 64 noisy trajectories. A noisy shot's state is `F·C|0…0⟩`, and
//!   `⟨P⟩` per shot is the noiseless value sign-flipped iff the frame `F`
//!   anticommutes with `P` — the frame path is therefore statistically
//!   identical to re-running a noisy tableau per shot, at a fraction of
//!   the cost.
//! * [`program`] — the compiled noise engine: a circuit + noise model
//!   flattens once into a [`NoiseProgram`] of gates and injection sites,
//!   sites draw whole Bernoulli flip-mask words (geometric skipping /
//!   bit-slice sampling via [`eftq_numerics::BernoulliWords`]), and shot
//!   batches shard across crossbeam workers with per-batch seeds, so
//!   results are thread-count-invariant.
//! * [`noise`] — Monte-Carlo Pauli channels (depolarizing, bit-flip,
//!   Pauli-twirled thermal relaxation per Ghosh et al.) and the noisy
//!   energy estimator: [`estimate_energy`] /
//!   [`estimate_energy_threaded`] (compiled frame-batched hot path, one
//!   tableau run + XOR frames) and
//!   [`noise::estimate_energy_tableau`] (per-shot reference path the
//!   equivalence property tests check against).
//! * [`heisenberg`] — the genetic search's noiseless values:
//!   [`HeisenbergEvaluator`] compiles a symbolic ansatz's fixed gates
//!   into Heisenberg-picture conjugation rows once, so a genome costs
//!   `O(n)` to bind and a term `O(weight · n/64)` to evaluate, with no
//!   circuit and no tableau walk.
//!   [`BoundEvaluator::estimate_energy`] feeds those values through the
//!   same frame accumulation as [`estimate_energy_program`], bit for
//!   bit.
//!
//! # Examples
//!
//! ```
//! use eftq_circuit::Circuit;
//! use eftq_stabilizer::Tableau;
//!
//! // GHZ state: ⟨XXX⟩ = +1, ⟨ZZI⟩ = +1, ⟨ZII⟩ = 0.
//! let mut c = Circuit::new(3);
//! c.h(0).cx(0, 1).cx(1, 2);
//! let mut t = Tableau::new(3);
//! t.run(&c);
//! assert_eq!(t.expectation(&"XXX".parse().unwrap()), 1.0);
//! assert_eq!(t.expectation(&"ZZI".parse().unwrap()), 1.0);
//! assert_eq!(t.expectation(&"ZII".parse().unwrap()), 0.0);
//! ```

#![deny(missing_docs)]

pub mod frame;
pub mod grouped;
pub mod heisenberg;
pub mod noise;
pub mod program;
pub mod tableau;

pub use frame::{run_noisy_frames, run_noisy_frames_percall, PauliFrames};
pub use grouped::{sample_energy_grouped, GroupedObservable};
pub use heisenberg::{BoundEvaluator, HeisenbergEvaluator};
pub use noise::{
    estimate_energy, estimate_energy_program, estimate_energy_tableau, estimate_energy_threaded,
    NoisyCliffordRun, StabilizerNoise,
};
pub use program::{NoiseProgram, NoiseTemplate};
pub use tableau::{sample_counts, Tableau};
