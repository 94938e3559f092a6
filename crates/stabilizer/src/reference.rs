//! Reference paths the equivalence suites check the production engine
//! against.
//!
//! These implement the same statistical model as the compiled
//! [`crate::NoiseProgram`] path with one RNG draw per (site, shot) pair:
//! [`estimate_energy_tableau`] runs one full noisy tableau per shot
//! ([`run_noisy_shot`]), and [`run_noisy_frames_percall`] walks Pauli
//! frames drawing one `gen_bool` per site and shot through the per-call
//! injectors. They are `O(shots)` slower than the production path and
//! nothing in the library calls them. `tests/frame_equivalence.rs`,
//! `tests/noise_sampling.rs` and the `frame_shots/*_percall` and
//! `estimate_energy_16q/per_shot_tableau_*` benches use them, which is
//! why they stay public but hidden from the documentation.

use crate::frame::PauliFrames;
use crate::noise::{NoisyCliffordRun, StabilizerNoise, TwirledIdle};
use crate::tableau::Tableau;
use eftq_circuit::{Circuit, Gate};
use eftq_numerics::SeedSequence;
use eftq_pauli::{Pauli, PauliString, PauliSum};
use rand::Rng;

/// A uniform non-identity Pauli letter — the single-qubit depolarizing
/// draw shared by the tableau and frame references.
fn depolarizing_letter<R: Rng + ?Sized>(rng: &mut R) -> Pauli {
    Pauli::NON_IDENTITY[rng.gen_range(0..3usize)]
}

/// A uniform non-identity two-qubit Pauli — the two-qubit depolarizing
/// draw shared by the tableau and frame references.
fn depolarizing_letters_2q<R: Rng + ?Sized>(rng: &mut R) -> (Pauli, Pauli) {
    let idx = rng.gen_range(1..16usize);
    (Pauli::ALL[idx / 4], Pauli::ALL[idx % 4])
}

fn sample_depolarizing<R: Rng + ?Sized>(
    rng: &mut R,
    q: usize,
    n: usize,
    p: f64,
) -> Option<PauliString> {
    if p > 0.0 && rng.gen_bool(p) {
        Some(PauliString::single(n, q, depolarizing_letter(rng)))
    } else {
        None
    }
}

fn sample_depolarizing_2q<R: Rng + ?Sized>(
    rng: &mut R,
    a: usize,
    b: usize,
    n: usize,
    p: f64,
) -> Option<PauliString> {
    if p > 0.0 && rng.gen_bool(p) {
        let (pa, pb) = depolarizing_letters_2q(rng);
        let mut s = PauliString::identity(n);
        s.set_pauli(a, pa);
        s.set_pauli(b, pb);
        Some(s)
    } else {
        None
    }
}

/// Runs one noisy shot of a bound Clifford circuit, returning the final
/// tableau. Errors are sampled after each gate, per gate class, and as
/// twirled idle noise on every qubit idle in a layer; measurement gates
/// are skipped and leave their qubit idle.
pub fn run_noisy_shot<R: Rng + ?Sized>(
    circuit: &Circuit,
    noise: &StabilizerNoise,
    rng: &mut R,
) -> Tableau {
    let n = circuit.num_qubits();
    let mut t = Tableau::new(n);
    let idle = noise.idle.ladder();
    for layer in circuit.layers() {
        let mut busy = vec![false; n];
        for g in &layer {
            if g.is_measurement() {
                continue;
            }
            let (qs, k) = g.qubits_inline();
            for &q in &qs[..k] {
                busy[q] = true;
            }
            t.apply_gate(g);
            let err = match *g {
                Gate::Cx(a, b) | Gate::Cz(a, b) | Gate::Swap(a, b) => {
                    sample_depolarizing_2q(rng, a, b, n, noise.depol_2q)
                }
                Gate::Rz(q, _) => sample_depolarizing(rng, q, n, noise.depol_rz),
                Gate::Rx(q, _) | Gate::Ry(q, _) => {
                    sample_depolarizing(rng, q, n, noise.depol_rot_xy)
                }
                _ => sample_depolarizing(rng, qs[0], n, noise.depol_1q),
            };
            if let Some(e) = err {
                t.apply_pauli_error(&e);
            }
        }
        if idle.total() > 0.0 {
            for (q, _) in busy.iter().enumerate().filter(|&(_, &b)| !b) {
                if let Some(l) = idle.sample(rng) {
                    t.apply_pauli_error(&PauliString::single(n, q, l));
                }
            }
        }
    }
    t
}

/// Per-shot reference for [`crate::estimate_energy`]: one full noisy
/// tableau per shot, readout damped analytically by
/// `(1 − 2·meas_flip)^{weight}` per term. Noiselessly it agrees with the
/// frame estimator exactly; with noise, in distribution.
///
/// # Panics
///
/// Panics if `shots == 0` or the circuit/observable sizes mismatch.
pub fn estimate_energy_tableau(
    circuit: &Circuit,
    observable: &PauliSum,
    noise: &StabilizerNoise,
    shots: usize,
    seed: SeedSequence,
) -> NoisyCliffordRun {
    assert!(shots > 0, "at least one shot required");
    assert_eq!(
        circuit.num_qubits(),
        observable.num_qubits(),
        "circuit/observable size mismatch"
    );
    let damping: Vec<f64> = observable
        .terms()
        .iter()
        .map(|t| (1.0 - 2.0 * noise.meas_flip).powi(t.string.weight() as i32))
        .collect();
    let mut energies = Vec::with_capacity(shots);
    for shot in 0..shots {
        let mut rng = seed.derive_index(shot as u64).rng();
        let t = run_noisy_shot(circuit, noise, &mut rng);
        let e: f64 = observable
            .terms()
            .iter()
            .zip(damping.iter())
            .map(|(term, d)| term.coefficient * d * t.expectation(&term.string))
            .sum();
        energies.push(e);
    }
    NoisyCliffordRun {
        energy: eftq_numerics::stats::mean(&energies),
        std_error: eftq_numerics::stats::standard_error(&energies),
        shots,
    }
}

/// Samples single-qubit depolarizing noise on `q` independently per
/// shot: with probability `p` a uniform X/Y/Z hits the shot's frame.
/// The letter draw is shared with [`run_noisy_shot`].
pub fn inject_depolarizing<R: Rng + ?Sized>(
    frames: &mut PauliFrames,
    q: usize,
    p: f64,
    rng: &mut R,
) {
    if p <= 0.0 {
        return;
    }
    for s in 0..frames.num_shots() {
        if rng.gen_bool(p) {
            frames.inject(q, s, depolarizing_letter(rng));
        }
    }
}

/// Samples two-qubit depolarizing noise on `(a, b)` independently per
/// shot: with probability `p` a uniform non-identity two-qubit Pauli.
/// The letter draw is shared with [`run_noisy_shot`].
pub fn inject_depolarizing_2q<R: Rng + ?Sized>(
    frames: &mut PauliFrames,
    a: usize,
    b: usize,
    p: f64,
    rng: &mut R,
) {
    if p <= 0.0 {
        return;
    }
    for s in 0..frames.num_shots() {
        if rng.gen_bool(p) {
            let (pa, pb) = depolarizing_letters_2q(rng);
            frames.inject(a, s, pa);
            frames.inject(b, s, pb);
        }
    }
}

/// Samples Pauli-twirled idle noise `(px, py, pz)` on `q` per shot,
/// via the ladder shared with [`run_noisy_shot`].
pub fn inject_idle<R: Rng + ?Sized>(
    frames: &mut PauliFrames,
    q: usize,
    idle: &TwirledIdle,
    rng: &mut R,
) {
    if idle.total() <= 0.0 {
        return;
    }
    for s in 0..frames.num_shots() {
        if let Some(l) = idle.sample(rng) {
            frames.inject(q, s, l);
        }
    }
}

/// Per-call reference for [`crate::run_noisy_frames`]: walks the circuit
/// drawing one `rng.gen_bool(p)` per (site, shot) pair, at exactly the
/// locations [`run_noisy_shot`] samples them (after each gate, per gate
/// class; twirled idle noise on every qubit idle in a layer).
/// Measurement gates are skipped and leave their qubit idle.
pub fn run_noisy_frames_percall<R: Rng + ?Sized>(
    circuit: &Circuit,
    noise: &StabilizerNoise,
    shots: usize,
    rng: &mut R,
) -> PauliFrames {
    let n = circuit.num_qubits();
    let mut f = PauliFrames::new(n, shots);
    for layer in circuit.layers() {
        let mut busy = vec![false; n];
        for g in &layer {
            if g.is_measurement() {
                continue;
            }
            let (qs, k) = g.qubits_inline();
            for &q in &qs[..k] {
                busy[q] = true;
            }
            f.apply_gate(g);
            match *g {
                Gate::Cx(a, b) | Gate::Cz(a, b) | Gate::Swap(a, b) => {
                    inject_depolarizing_2q(&mut f, a, b, noise.depol_2q, rng);
                }
                Gate::Rz(q, _) => inject_depolarizing(&mut f, q, noise.depol_rz, rng),
                Gate::Rx(q, _) | Gate::Ry(q, _) => {
                    inject_depolarizing(&mut f, q, noise.depol_rot_xy, rng);
                }
                _ => inject_depolarizing(&mut f, qs[0], noise.depol_1q, rng),
            }
        }
        if noise.idle.total() > 0.0 {
            for (q, &b) in busy.iter().enumerate() {
                if !b {
                    inject_idle(&mut f, q, &noise.idle, rng);
                }
            }
        }
    }
    f
}
