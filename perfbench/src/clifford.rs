//! The stabilizer energy estimators recomposed from their public parts,
//! one span per layer call. Each reproduces the library entry point it
//! names bit for bit: the workloads compare every traced result against
//! the entry point itself.

use crate::trace::Tracer;
use eftq_circuit::Circuit;
use eftq_numerics::{stats, SeedSequence};
use eftq_pauli::PauliSum;
use eftq_stabilizer::{GroupedObservable, NoiseProgram, PauliFrames, Tableau};

/// Shot energies accumulated from noiseless term values `e0s` and the
/// propagated frames — the accumulation loop of
/// `eftq_stabilizer::estimate_energy_program`, same floating-point order.
pub fn accumulate(
    observable: &PauliSum,
    e0s: &[f64],
    meas_flip: f64,
    frames: &PauliFrames,
    shots: usize,
) -> f64 {
    let mut energies = vec![0.0f64; shots];
    let mut plane = vec![0u64; shots.div_ceil(64)];
    for (term, &e0) in observable.terms().iter().zip(e0s) {
        let Some(v) = damped(term.coefficient, term.string.weight(), meas_flip, e0) else {
            continue;
        };
        for e in energies.iter_mut() {
            *e += v;
        }
        frames.flip_plane_into(&term.string, &mut plane);
        for (w, &word) in plane.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                energies[w * 64 + bits.trailing_zeros() as usize] -= 2.0 * v;
                bits &= bits - 1;
            }
        }
    }
    stats::mean(&energies)
}

/// The noiseless-program path of the same estimators: every shot sees
/// the same energy.
pub fn noiseless(observable: &PauliSum, e0s: &[f64], meas_flip: f64, shots: usize) -> f64 {
    let mut e = 0.0f64;
    for (term, &e0) in observable.terms().iter().zip(e0s) {
        if let Some(v) = damped(term.coefficient, term.string.weight(), meas_flip, e0) {
            e += v;
        }
    }
    stats::mean(&vec![e; shots])
}

/// A term's readout-damped noiseless contribution, `None` when it adds
/// nothing.
fn damped(coefficient: f64, weight: usize, meas_flip: f64, e0: f64) -> Option<f64> {
    if e0 == 0.0 {
        return None;
    }
    let v = coefficient * (1.0 - 2.0 * meas_flip).powi(weight as i32) * e0;
    (v != 0.0).then_some(v)
}

/// `eftq_stabilizer::estimate_energy_program_grouped` on one thread
/// (the GA fitness), traced under `parent`.
#[allow(clippy::too_many_arguments)]
pub fn grouped_energy(
    circuit: &Circuit,
    observable: &PauliSum,
    grouped: &GroupedObservable,
    program: &NoiseProgram,
    meas_flip: f64,
    shots: usize,
    seed: SeedSequence,
    tr: &Tracer,
    parent: Option<&str>,
) -> f64 {
    let mut ideal = Tableau::new(circuit.num_qubits());
    tr.time("stabilizer.tableau_run", parent, || ideal.run(circuit));
    let mut e0s = vec![0.0; grouped.num_terms()];
    tr.time("stabilizer.expectations", parent, || {
        grouped.expectations(&ideal, &mut e0s)
    });
    if program.num_sites() == 0 {
        return tr.time("stabilizer.frame_accumulate", parent, || {
            noiseless(observable, &e0s, meas_flip, shots)
        });
    }
    let frames = tr.time("stabilizer.frames_run", parent, || {
        program.run_threaded(shots, seed.derive("pauli-frames"), 1)
    });
    tr.time("stabilizer.frame_accumulate", parent, || {
        accumulate(observable, &e0s, meas_flip, &frames, shots)
    })
}

/// `eftq_stabilizer::estimate_energy_program` (per-term expectations),
/// traced under `parent`. The term values are all taken before the
/// accumulation instead of interleaved with it; neither depends on the
/// other, so the bits are the same.
#[allow(clippy::too_many_arguments)]
pub fn program_energy(
    circuit: &Circuit,
    observable: &PauliSum,
    program: &NoiseProgram,
    meas_flip: f64,
    shots: usize,
    seed: SeedSequence,
    threads: usize,
    tr: &Tracer,
    parent: Option<&str>,
) -> f64 {
    let mut ideal = Tableau::new(circuit.num_qubits());
    tr.time("stabilizer.tableau_run", parent, || ideal.run(circuit));
    let frames = (program.num_sites() > 0).then(|| {
        tr.time("stabilizer.frames_run", parent, || {
            program.run_threaded(shots, seed.derive("pauli-frames"), threads)
        })
    });
    let e0s: Vec<f64> = tr.time("stabilizer.expectations", parent, || {
        observable
            .terms()
            .iter()
            .map(|t| ideal.expectation(&t.string))
            .collect()
    });
    tr.time("stabilizer.frame_accumulate", parent, || match &frames {
        Some(frames) => accumulate(observable, &e0s, meas_flip, frames, shots),
        None => noiseless(observable, &e0s, meas_flip, shots),
    })
}
