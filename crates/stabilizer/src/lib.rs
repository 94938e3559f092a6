//! Aaronson–Gottesman stabilizer simulation with Monte-Carlo Pauli noise.
//!
//! The paper's large-scale methodology (Section 5.2.2) restricts VQA
//! rotation angles to multiples of π/2, turning the ansatz into a Clifford
//! circuit that a stabilizer simulator evaluates at 16–100+ qubits. This
//! crate is the reproduction's substitute for Stim.
//!
//! # One path: compile → sample → bind → estimate
//!
//! A noisy energy estimate is a noiseless value per Hamiltonian term,
//! sign-flipped per shot where that shot's Pauli frame anticommutes with
//! the term. A genetic search computes it in four steps:
//!
//! 1. **Compile** once per ansatz structure and noise model.
//!    [`NoiseTemplate::compile`] flattens a (symbolic) circuit and a
//!    [`StabilizerNoise`] into frame kernels and injection sites, with
//!    site probabilities grouped into sampler classes. Once per search,
//!    [`HeisenbergEvaluator::compile`] turns the ansatz's fixed gates into
//!    Heisenberg-picture conjugation rows and the Hamiltonian's terms
//!    into letter lists.
//! 2. **Sample** once per search. Every genome is scored under the same
//!    shot seed, and the faults a run draws do not depend on the genome,
//!    so [`NoiseTemplate::sample_faults`] draws each site's hits with
//!    [`eftq_numerics::BernoulliWords`] and its error letters once, into a
//!    [`FaultTape`]. Shot batches seed from their batch index, so results
//!    do not depend on the thread count.
//! 3. **Bind** once per group of genomes. [`NoiseTemplate::bind_lanes`]
//!    binds up to `⌊64/shots⌋` genomes side by side into one
//!    [`NoiseProgram`] without copying the op list: each symbolic rotation
//!    gets one `u64` lane mask, the lanes `g·shots .. (g+1)·shots` of
//!    every genome `g` that turns it by an odd number of quarter turns
//!    ([`NoiseTemplate::bind_clifford`] binds one genome, all lanes or
//!    none). Per genome, [`HeisenbergEvaluator::bind_clifford`] yields a
//!    [`BoundEvaluator`] in `O(n)`.
//! 4. **Estimate.** [`BoundEvaluator::estimate_energy`] scores a group's
//!    genomes together. It first takes each term's noiseless value per
//!    genome: the term's letters, mapped through the bound rotations,
//!    select fixed-run rows whose product is read off the prepared
//!    product state. Then one [`NoiseProgram::run_faults`] propagates
//!    [`PauliFrames`], 64 shots per `u64` lane, applying each rotation in
//!    its lanes and XORing each of the tape's fault words into every lane
//!    group at its site. The shot energies then accumulate term by term,
//!    with one flip plane per term for the whole group.
//!
//! [`estimate_energy`], [`estimate_energy_threaded`] and
//! [`estimate_energy_program`] make one estimate of a bound circuit,
//! with the noiseless values taken from one [`Tableau`] walk. Their seed
//! is used once, so [`NoiseProgram::run_threaded`] draws the faults in
//! place as its walk reaches each site instead of sampling a tape. They
//! accumulate in the same floating-point order as
//! [`BoundEvaluator::estimate_energy`] does for each genome of a group,
//! bit for bit.
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
//!   [`NoiseProgram`], [`FaultTape`]).
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
pub use program::{FaultTape, NoiseProgram, NoiseTemplate};
pub use tableau::Tableau;
