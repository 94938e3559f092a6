//! Monte-Carlo Pauli noise over stabilizer simulation.
//!
//! Depolarizing and bit-flip errors are natively classically simulable;
//! thermal relaxation is mapped to its Pauli-twirled approximation (Ghosh,
//! Fowler & Geller 2012), exactly the strategy the paper describes for its
//! Clifford-state simulations (Section 5.2.2).

use crate::tableau::Tableau;
use eftq_circuit::Circuit;
use eftq_numerics::SeedSequence;
use eftq_pauli::{Pauli, PauliSum};
use rand::Rng;

/// Pauli-twirled idle-noise probabilities `(p_x, p_y, p_z)` per idle window.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TwirledIdle {
    /// X-error probability.
    pub px: f64,
    /// Y-error probability.
    pub py: f64,
    /// Z-error probability.
    pub pz: f64,
}

impl TwirledIdle {
    /// Pauli twirl of thermal relaxation over a window of duration `t`:
    /// matching the twirled channel's Pauli-expectation dampings to the
    /// relaxation channel gives `p_x = p_y = (1 − e^{−t/T1})/4` and
    /// `p_z = (1 − e^{−t/T2})/2 − p_x`.
    ///
    /// # Panics
    ///
    /// Panics if the resulting `p_z` would be negative (requires
    /// T2 ≤ 2·T1, as physical).
    pub fn from_relaxation(t: f64, t1: f64, t2: f64) -> Self {
        let px = (1.0 - (-t / t1).exp()) / 4.0;
        let pz = (1.0 - (-t / t2).exp()) / 2.0 - px;
        assert!(
            pz >= -1e-12,
            "unphysical twirl: T2 must satisfy T2 ≤ 2·T1 (pz = {pz})"
        );
        TwirledIdle {
            px,
            py: px,
            pz: pz.max(0.0),
        }
    }

    /// Total error probability.
    pub fn total(&self) -> f64 {
        self.px + self.py + self.pz
    }

    /// Precomputes the cumulative ladder so repeated sampling does not
    /// re-add the probabilities per call. Build it once per run (the
    /// per-shot reference executor) or once per program compilation (the batched
    /// [`crate::program::NoiseProgram`] path).
    pub fn ladder(&self) -> IdleLadder {
        IdleLadder {
            cum_x: self.px,
            cum_xy: self.px + self.py,
            total: self.px + self.py + self.pz,
        }
    }

    /// Samples one idle-window error from the `(px, py, pz)` ladder.
    ///
    /// Convenience wrapper over [`TwirledIdle::ladder`]; hot loops should
    /// build the ladder once and call [`IdleLadder::sample`] directly.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<Pauli> {
        self.ladder().sample(rng)
    }
}

/// The precomputed cumulative table of a [`TwirledIdle`] ladder.
///
/// Both the per-shot reference executor and the batched noise program
/// draw idle errors through this single implementation, so their noise
/// models cannot drift apart. The batched path samples *whether* an idle
/// window errs with Bernoulli(`total`) hit words and then draws the
/// letter conditionally via [`IdleLadder::conditional_letter`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IdleLadder {
    cum_x: f64,
    cum_xy: f64,
    total: f64,
}

impl IdleLadder {
    /// Total error probability of the ladder.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Samples one idle-window error (`None` = no error).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<Pauli> {
        let r: f64 = rng.gen();
        if r < self.total {
            Some(self.letter_at(r))
        } else {
            None
        }
    }

    /// Samples the error letter *given that* the window erred — the
    /// conditional distribution `(px, py, pz) / total` used after a
    /// batched Bernoulli(`total`) hit mask.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the ladder is all-zero.
    pub fn conditional_letter<R: Rng + ?Sized>(&self, rng: &mut R) -> Pauli {
        debug_assert!(self.total > 0.0, "conditional letter of an empty ladder");
        self.letter_at(rng.gen::<f64>() * self.total)
    }

    #[inline]
    fn letter_at(&self, r: f64) -> Pauli {
        if r < self.cum_x {
            Pauli::X
        } else if r < self.cum_xy {
            Pauli::Y
        } else {
            Pauli::Z
        }
    }
}

/// Per-gate-class Pauli noise strengths for the Monte-Carlo executor.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StabilizerNoise {
    /// Depolarizing probability after a single-qubit Clifford gate (H, S,
    /// Paulis).
    pub depol_1q: f64,
    /// Two-qubit depolarizing probability after CX/CZ/SWAP.
    pub depol_2q: f64,
    /// Depolarizing probability after an `Rz` rotation (injection error
    /// under pQEC; 0 under NISQ's virtual-Z convention).
    pub depol_rz: f64,
    /// Depolarizing probability after an `Rx`/`Ry` rotation (physical
    /// single-qubit gate under NISQ; H·Rz·H under pQEC — core sets this).
    pub depol_rot_xy: f64,
    /// Readout flip probability per measured qubit; applied analytically as
    /// a `(1 − 2p)` damping per qubit in a term's support.
    pub meas_flip: f64,
    /// Idle noise applied to every idle qubit per circuit layer.
    pub idle: TwirledIdle,
}

impl StabilizerNoise {
    /// The noiseless configuration.
    pub fn noiseless() -> Self {
        StabilizerNoise::default()
    }
}

/// Result of a Monte-Carlo noisy energy estimate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NoisyCliffordRun {
    /// Mean energy across shots.
    pub energy: f64,
    /// Standard error of the mean.
    pub std_error: f64,
    /// Shots used.
    pub shots: usize,
}

/// Monte-Carlo estimate of `⟨H⟩` for a bound Clifford circuit under Pauli
/// noise, averaging `shots` independent trajectories. Readout error is
/// applied analytically: each term's expectation is damped by
/// `(1 − 2·meas_flip)^{weight}`.
///
/// Implemented with the batched Pauli-frame engine: the noiseless tableau
/// runs *once*, the circuit + noise model are compiled to a
/// [`crate::program::NoiseProgram`] whose sites draw Bernoulli hit
/// words, noise propagates as [`crate::frame::PauliFrames`] (64 shots per
/// word), and each term's noisy expectation is its noiseless value
/// sign-flipped per shot by frame/term anticommutation. The statistical
/// model is identical to running `shots` independent noisy tableaus (the
/// per-shot reference `reference::estimate_energy_tableau`); only the
/// RNG stream differs.
///
/// Equivalent to [`estimate_energy_threaded`] with one worker — and,
/// because shot batches derive their RNG streams from their batch index,
/// *bit-identical* to it at any worker count.
///
/// # Panics
///
/// Panics if `shots == 0` or the circuit/observable sizes mismatch.
pub fn estimate_energy(
    circuit: &Circuit,
    observable: &PauliSum,
    noise: &StabilizerNoise,
    shots: usize,
    seed: SeedSequence,
) -> NoisyCliffordRun {
    estimate_energy_threaded(circuit, observable, noise, shots, seed, 1)
}

/// [`estimate_energy`] with shot batches sharded across `threads`
/// crossbeam workers.
///
/// Each 256-shot batch derives its RNG stream from the root seed and its
/// own batch index, so the result is deterministic for a fixed seed and
/// independent of `threads` — `threads ∈ {1, 2, 8}` all return the same
/// bits. Use this for large re-evaluation shot budgets. A genetic search
/// scores every genome under one seed, so it samples that seed's faults
/// once ([`crate::NoiseTemplate::sample_faults`]) and replays them per
/// group of genomes packed into one lane word
/// ([`crate::BoundEvaluator::estimate_energy`]).
///
/// # Panics
///
/// Panics if `shots == 0` or the circuit/observable sizes mismatch.
pub fn estimate_energy_threaded(
    circuit: &Circuit,
    observable: &PauliSum,
    noise: &StabilizerNoise,
    shots: usize,
    seed: SeedSequence,
    threads: usize,
) -> NoisyCliffordRun {
    let program = crate::program::NoiseProgram::compile(circuit, noise);
    estimate_energy_program(
        circuit,
        observable,
        &program,
        noise.meas_flip,
        shots,
        seed,
        threads,
    )
}

/// [`estimate_energy_threaded`] with a *precompiled* noise program —
/// the entry point when many estimates share one compilation (programs
/// bound from one [`crate::NoiseTemplate`], or a sweep runner's
/// per-(circuit, noise) artifact cache). Bit-identical to compiling
/// inline: `estimate_energy_threaded` is this function fed by
/// [`crate::NoiseProgram::compile`]. The faults are drawn in place
/// ([`crate::NoiseProgram::run_threaded`]) under
/// `seed.derive("pauli-frames")`.
///
/// `meas_flip` is the readout flip probability the damping factors use
/// (the program itself only carries gate/idle injection sites); pass the
/// compiling noise model's value, e.g. via
/// [`crate::NoiseTemplate::meas_flip`].
///
/// # Panics
///
/// Panics if `shots == 0` or the circuit/observable/program sizes
/// mismatch.
pub fn estimate_energy_program(
    circuit: &Circuit,
    observable: &PauliSum,
    program: &crate::program::NoiseProgram,
    meas_flip: f64,
    shots: usize,
    seed: SeedSequence,
    threads: usize,
) -> NoisyCliffordRun {
    assert!(shots > 0, "at least one shot required");
    assert_eq!(
        circuit.num_qubits(),
        observable.num_qubits(),
        "circuit/observable size mismatch"
    );
    assert_eq!(
        circuit.num_qubits(),
        program.num_qubits(),
        "circuit/program size mismatch"
    );
    let mut ideal = Tableau::new(circuit.num_qubits());
    ideal.run(circuit);
    let e0s: Vec<f64> = observable
        .terms()
        .iter()
        .map(|t| ideal.expectation(&t.string))
        .collect();
    accumulate_energy(observable, &e0s, program, meas_flip, shots, || {
        program.run_threaded(shots, seed.derive("pauli-frames"), threads)
    })
    .pop()
    .expect("one estimate per genome")
}

/// The shot energies of every compiled estimator, for the `G ≥ 1`
/// genomes side by side in `program` ([`crate::NoiseTemplate::bind_lanes`];
/// `G = 1` for any other program). Genome `g`'s noiseless term values
/// are `e0s[g·terms .. (g+1)·terms]`, and its shots are frame lanes
/// `g·shots .. (g+1)·shots`: shot energies are indexed by frame lane.
/// Per term and genome, each shot adds the term's readout-damped value
/// `v` and then subtracts `2v` where its frame anticommutes with the
/// term, so every shot sees the floating-point operations, in the same
/// order, that a frame set of its genome alone gives it. Each term's flip
/// plane is computed once for all `G` genomes.
///
/// `frames` runs `program` for `G · shots` lanes; a program without
/// injection sites skips it, since all its frames are the identity. Shared
/// by [`estimate_energy_program`] (`G = 1`) and
/// [`crate::BoundEvaluator::estimate_energy`], so every estimate
/// accumulates in the same order. Returns one run per genome.
///
/// # Panics
///
/// Panics if `shots == 0`, the sizes mismatch, or `e0s` or the frames do
/// not cover every genome of `program`.
pub(crate) fn accumulate_energy(
    observable: &PauliSum,
    e0s: &[f64],
    program: &crate::program::NoiseProgram,
    meas_flip: f64,
    shots: usize,
    frames: impl FnOnce() -> crate::frame::PauliFrames,
) -> Vec<NoisyCliffordRun> {
    assert!(shots > 0, "at least one shot required");
    assert_eq!(
        observable.num_qubits(),
        program.num_qubits(),
        "observable/program size mismatch"
    );
    let (terms, groups) = (observable.terms(), program.groups());
    assert_eq!(
        e0s.len(),
        groups * terms.len(),
        "one term value per term and genome"
    );
    let damped = |k: usize, g: usize| {
        let (term, e0) = (&terms[k], e0s[g * terms.len() + k]);
        if e0 == 0.0 {
            return None;
        }
        let damp = (1.0 - 2.0 * meas_flip).powi(term.string.weight() as i32);
        let v = term.coefficient * damp * e0;
        (v != 0.0).then_some(v)
    };
    let mut energies = vec![0.0f64; groups * shots];
    if program.num_sites() == 0 {
        // Noiseless fast path: every frame is identity, so all shots of a
        // genome see the same deterministic energy (accumulated with the
        // same floating-point order as the general path, so results agree
        // bit-for-bit).
        for (g, group) in energies.chunks_mut(shots).enumerate() {
            let mut e = 0.0f64;
            for k in 0..terms.len() {
                if let Some(v) = damped(k, g) {
                    e += v;
                }
            }
            group.fill(e);
        }
    } else {
        let frames = frames();
        assert_eq!(
            frames.num_shots(),
            groups * shots,
            "frames for every genome's shots"
        );
        let mut plane = vec![0u64; (groups * shots).div_ceil(64)];
        // A genome's lanes: the whole plane for one genome, a slice of its
        // one word for several.
        let lanes = if groups == 1 { !0 } else { (1u64 << shots) - 1 };
        let mut vs = vec![None; groups];
        for (k, term) in terms.iter().enumerate() {
            for (g, v) in vs.iter_mut().enumerate() {
                *v = damped(k, g);
            }
            if vs.iter().all(Option::is_none) {
                continue;
            }
            frames.flip_plane_into(&term.string, &mut plane);
            for (g, (v, group)) in vs.iter().zip(energies.chunks_mut(shots)).enumerate() {
                let Some(v) = *v else {
                    continue;
                };
                for e in group.iter_mut() {
                    *e += v;
                }
                // Anticommuting frames see −v instead of +v.
                let (mask, first) = (lanes << (g * shots), g * shots);
                for (w, &word) in plane.iter().enumerate() {
                    let mut bits = word & mask;
                    while bits != 0 {
                        group[w * 64 + bits.trailing_zeros() as usize - first] -= 2.0 * v;
                        bits &= bits - 1;
                    }
                }
            }
        }
    }
    energies
        .chunks(shots)
        .map(|e| NoisyCliffordRun {
            energy: eftq_numerics::stats::mean(e),
            std_error: eftq_numerics::stats::standard_error(e),
            shots,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bell() -> Circuit {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        c
    }

    fn zz_xx() -> PauliSum {
        let mut h = PauliSum::new(2);
        h.push_str(1.0, "ZZ");
        h.push_str(1.0, "XX");
        h
    }

    #[test]
    fn noiseless_estimate_is_exact() {
        let r = estimate_energy(
            &bell(),
            &zz_xx(),
            &StabilizerNoise::noiseless(),
            5,
            SeedSequence::new(1),
        );
        assert!((r.energy - 2.0).abs() < 1e-12);
        assert_eq!(r.std_error, 0.0);
    }

    #[test]
    fn depolarizing_noise_degrades_energy() {
        let mut noise = StabilizerNoise::noiseless();
        noise.depol_2q = 0.2;
        let r = estimate_energy(&bell(), &zz_xx(), &noise, 400, SeedSequence::new(2));
        assert!(r.energy < 1.9, "{r:?}");
        assert!(r.energy > 0.5, "{r:?}");
        assert!(r.std_error > 0.0);
    }

    #[test]
    fn measurement_damping_is_analytic() {
        let mut noise = StabilizerNoise::noiseless();
        noise.meas_flip = 0.1;
        let r = estimate_energy(&bell(), &zz_xx(), &noise, 3, SeedSequence::new(3));
        // Both terms have weight 2: damping (1-0.2)² = 0.64 each.
        assert!((r.energy - 2.0 * 0.64).abs() < 1e-12, "{r:?}");
    }

    #[test]
    fn rz_noise_hits_rz_gates_only() {
        let mut c = Circuit::new(1);
        c.h(0).rz(0, std::f64::consts::FRAC_PI_2);
        let mut h = PauliSum::new(1);
        h.push_str(1.0, "Y"); // S|+⟩ has ⟨Y⟩ = 1
        let mut noise = StabilizerNoise::noiseless();
        noise.depol_rz = 0.3;
        let r = estimate_energy(&c, &h, &noise, 600, SeedSequence::new(4));
        // Expect damping ≈ 1 − 4p/3·… : with prob 0.3 a random Pauli hits;
        // 2/3 of those anticommute with Y → flip. E ≈ 1 − 2·0.3·(2/3) = 0.6.
        assert!((r.energy - 0.6).abs() < 0.08, "{r:?}");
    }

    #[test]
    fn idle_noise_applies_to_idle_qubits() {
        // Qubit 1 idles for one layer.
        let mut c = Circuit::new(2);
        c.h(0);
        let mut h = PauliSum::new(2);
        h.push_str(1.0, "IZ");
        let mut noise = StabilizerNoise::noiseless();
        noise.idle = TwirledIdle {
            px: 0.2,
            py: 0.0,
            pz: 0.0,
        };
        let r = estimate_energy(&c, &h, &noise, 800, SeedSequence::new(5));
        // ⟨Z₁⟩ flips with probability 0.2 → E ≈ 1 − 0.4.
        assert!((r.energy - 0.6).abs() < 0.07, "{r:?}");
    }

    #[test]
    fn twirled_idle_from_relaxation() {
        let idle = TwirledIdle::from_relaxation(100.0, 1000.0, 800.0);
        assert!(idle.px > 0.0 && idle.px == idle.py);
        assert!(idle.pz > 0.0);
        // Dampings match the target channel:
        // ⟨Z⟩: 1 − 2(px+py) = e^{-t/T1}.
        let z_damp = 1.0 - 2.0 * (idle.px + idle.py);
        assert!((z_damp - (-0.1f64).exp()).abs() < 1e-12);
        // ⟨X⟩: 1 − 2(py+pz) = e^{-t/T2}.
        let x_damp = 1.0 - 2.0 * (idle.py + idle.pz);
        assert!((x_damp - (-0.125f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut noise = StabilizerNoise::noiseless();
        noise.depol_2q = 0.1;
        let a = estimate_energy(&bell(), &zz_xx(), &noise, 50, SeedSequence::new(9));
        let b = estimate_energy(&bell(), &zz_xx(), &noise, 50, SeedSequence::new(9));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "unphysical twirl")]
    fn twirl_rejects_unphysical_t2() {
        let _ = TwirledIdle::from_relaxation(100.0, 100.0, 1000.0);
    }
}
