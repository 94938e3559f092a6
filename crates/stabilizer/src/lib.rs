//! Aaronson–Gottesman stabilizer simulation with Monte-Carlo Pauli noise.
//!
//! The paper's large-scale methodology (Section 5.2.2) restricts VQA
//! rotation angles to multiples of π/2, turning the ansatz into a Clifford
//! circuit that a stabilizer simulator evaluates at 16–100+ qubits. This
//! crate is the reproduction's substitute for Stim.
//!
//! # One path: compile → bind → estimate
//!
//! A noisy energy estimate is a noiseless value per Hamiltonian term,
//! sign-flipped per shot where that shot's Pauli frame anticommutes with
//! the term. The crate computes it in three steps:
//!
//! 1. **Compile** once per ansatz structure and noise model.
//!    [`NoiseTemplate::compile`] flattens a (symbolic) circuit and a
//!    [`StabilizerNoise`] into frame kernels and injection sites, with
//!    site probabilities grouped into sampler classes. Once per search,
//!    [`HeisenbergEvaluator::compile`] turns the ansatz's fixed gates into
//!    Heisenberg-picture conjugation rows and the Hamiltonian's terms
//!    into letter lists.
//! 2. **Bind** once per genome. [`NoiseTemplate::bind_clifford`] resolves
//!    the rotation parities into a [`NoiseProgram`] without copying the
//!    op list, and [`HeisenbergEvaluator::bind_clifford`] yields a
//!    [`BoundEvaluator`] in `O(n)`.
//! 3. **Estimate.** [`BoundEvaluator::estimate_energy`] first takes each
//!    term's noiseless value: its letters, mapped through the bound
//!    rotations, select fixed-run rows whose product is read off the
//!    prepared product state. Then [`NoiseProgram::run_threaded`]
//!    propagates [`PauliFrames`], 64 shots per `u64` lane, drawing each
//!    site's hits with [`eftq_numerics::BernoulliWords`]; shot batches
//!    seed from their batch index, so results do not depend on the
//!    thread count. The shot energies then accumulate term by term.
//!
//! [`estimate_energy`], [`estimate_energy_threaded`] and
//! [`estimate_energy_program`] run the same three steps for a bound
//! circuit, with the noiseless values taken from one [`Tableau`] walk.
//! They accumulate in the same floating-point order as
//! [`BoundEvaluator::estimate_energy`], bit for bit.
//!
//! # Modules
//!
//! * [`tableau`] — the destabilizer/stabilizer [`Tableau`], stored
//!   column-major (Stim-style): each gate is `O(2n/64)` XOR/AND word
//!   operations over per-qubit bit-columns, and Pauli expectations
//!   (⟨P⟩ ∈ {−1, 0, +1}) accumulate their phase with popcount/prefix-XOR
//!   word arithmetic.
//! * [`frame`] — the batched Pauli-frame simulator. A noisy shot's state
//!   is `F·C|0…0⟩`, and `⟨P⟩` per shot is the noiseless value
//!   sign-flipped iff the frame `F` anticommutes with `P`.
//! * [`program`] — the compiled noise engine ([`NoiseTemplate`],
//!   [`NoiseProgram`]).
//! * [`noise`] — the Pauli channels (depolarizing, bit-flip, Pauli-twirled
//!   thermal relaxation per Ghosh et al.) and the energy estimators.
//! * [`heisenberg`] — the genetic search's noiseless values without a
//!   circuit or a tableau walk.
//! * [`grouped`] — [`GroupedObservable`], which evaluates every term of a
//!   qubit-wise-commuting group in one tableau collapse.
//!
//! The per-shot and per-call reference paths that the equivalence tests
//! compare against live in the hidden `reference` module:
//! `reference::estimate_energy_tableau`, `reference::run_noisy_shot`,
//! `reference::run_noisy_frames_percall` and the per-call
//! `reference::inject_*` samplers.
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
#[doc(hidden)]
pub mod reference;
pub mod tableau;

pub use frame::{run_noisy_frames, PauliFrames};
pub use grouped::GroupedObservable;
pub use heisenberg::{BoundEvaluator, HeisenbergEvaluator};
pub use noise::{
    estimate_energy, estimate_energy_program, estimate_energy_threaded, NoisyCliffordRun,
    StabilizerNoise,
};
pub use program::{NoiseProgram, NoiseTemplate};
pub use tableau::Tableau;
