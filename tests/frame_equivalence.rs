//! Equivalence of the frame-batched energy estimator with the per-shot
//! tableau reference path.
//!
//! `estimate_energy` (one noiseless tableau + Pauli frames, 64 shots per
//! word) and `reference::estimate_energy_tableau` (one full noisy tableau
//! per shot) implement the *same statistical model* with different RNG
//! streams: noiseless they must agree exactly, noisy they must agree in
//! distribution (means within standard errors over matched budgets).

use eftq_circuit::Circuit;
use eftq_numerics::SeedSequence;
use eftq_pauli::{Pauli, PauliString, PauliSum};
use eftq_stabilizer::noise::TwirledIdle;
use eftq_stabilizer::reference::{estimate_energy_tableau, run_noisy_frames_percall};
use eftq_stabilizer::{
    estimate_energy, estimate_energy_threaded, run_noisy_frames, StabilizerNoise,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random n-qubit Clifford circuit over the full supported gate set,
/// including π/2-multiple rotations (so every noise class can fire).
fn random_clifford(n: usize, gates: usize, rng: &mut StdRng) -> Circuit {
    let mut c = Circuit::new(n);
    for _ in 0..gates {
        match rng.gen_range(0..13) {
            0 => {
                c.h(rng.gen_range(0..n));
            }
            1 => {
                c.s(rng.gen_range(0..n));
            }
            2 => {
                c.sdg(rng.gen_range(0..n));
            }
            3 => {
                c.x(rng.gen_range(0..n));
            }
            4 => {
                c.z(rng.gen_range(0..n));
            }
            5 => {
                let k = rng.gen_range(0..4);
                c.rz(
                    rng.gen_range(0..n),
                    f64::from(k) * std::f64::consts::FRAC_PI_2,
                );
            }
            6 => {
                let k = rng.gen_range(0..4);
                c.ry(
                    rng.gen_range(0..n),
                    f64::from(k) * std::f64::consts::FRAC_PI_2,
                );
            }
            7 => {
                let k = rng.gen_range(0..4);
                c.rx(
                    rng.gen_range(0..n),
                    f64::from(k) * std::f64::consts::FRAC_PI_2,
                );
            }
            8 | 9 => {
                let a = rng.gen_range(0..n);
                let b = (a + 1 + rng.gen_range(0..n - 1)) % n;
                c.cx(a, b);
            }
            10 | 11 => {
                let a = rng.gen_range(0..n);
                let b = (a + 1 + rng.gen_range(0..n - 1)) % n;
                c.cz(a, b);
            }
            _ => {
                let a = rng.gen_range(0..n);
                let b = (a + 1 + rng.gen_range(0..n - 1)) % n;
                c.swap(a, b);
            }
        }
    }
    c
}

/// A random Hermitian observable with a handful of random Pauli terms.
fn random_observable(n: usize, terms: usize, rng: &mut StdRng) -> PauliSum {
    let mut h = PauliSum::new(n);
    for _ in 0..terms {
        let letters: Vec<Pauli> = (0..n).map(|_| Pauli::ALL[rng.gen_range(0..4)]).collect();
        let coeff = rng.gen_range(-2.0..2.0f64);
        h.push(coeff, PauliString::from_paulis(letters));
    }
    h
}

fn nisq_like_noise() -> StabilizerNoise {
    StabilizerNoise {
        depol_1q: 0.002,
        depol_2q: 0.02,
        depol_rz: 0.004,
        depol_rot_xy: 0.004,
        meas_flip: 0.01,
        idle: TwirledIdle {
            px: 0.001,
            py: 0.001,
            pz: 0.002,
        },
    }
}

/// Noiseless, the two paths are *exactly* equal: every frame is identity,
/// so both reduce to the one deterministic tableau energy.
#[test]
fn noiseless_paths_agree_exactly() {
    let mut rng = StdRng::seed_from_u64(2025);
    for trial in 0..25 {
        let n = 2 + (trial % 5);
        let circuit = random_clifford(n, 40, &mut rng);
        let h = random_observable(n, 6, &mut rng);
        for shots in [1usize, 3, 64, 65] {
            let frame = estimate_energy(
                &circuit,
                &h,
                &StabilizerNoise::noiseless(),
                shots,
                SeedSequence::new(trial as u64),
            );
            let tableau = estimate_energy_tableau(
                &circuit,
                &h,
                &StabilizerNoise::noiseless(),
                shots,
                SeedSequence::new(trial as u64),
            );
            assert_eq!(frame.energy, tableau.energy, "trial {trial} shots {shots}");
            // All shots are identical; the variance is zero up to the
            // rounding noise of averaging irrational coefficients.
            assert!(frame.std_error < 1e-12, "trial {trial}");
            assert!(tableau.std_error < 1e-12, "trial {trial}");
        }
    }
}

/// Analytic readout damping is identical (and exact) on both paths.
#[test]
fn measurement_damping_agrees_exactly() {
    let mut rng = StdRng::seed_from_u64(77);
    let circuit = random_clifford(4, 30, &mut rng);
    let h = random_observable(4, 5, &mut rng);
    let mut noise = StabilizerNoise::noiseless();
    noise.meas_flip = 0.07;
    let frame = estimate_energy(&circuit, &h, &noise, 9, SeedSequence::new(1));
    let tableau = estimate_energy_tableau(&circuit, &h, &noise, 9, SeedSequence::new(1));
    assert_eq!(frame.energy, tableau.energy);
}

/// Under noise the paths are independent Monte-Carlo estimators of the
/// same mean: over matched budgets their means must sit within a few
/// combined standard errors, across random circuits and observables.
#[test]
fn noisy_means_agree_within_standard_error() {
    let mut rng = StdRng::seed_from_u64(31);
    let noise = nisq_like_noise();
    for trial in 0..6 {
        let n = 3 + (trial % 4);
        let circuit = random_clifford(n, 30, &mut rng);
        let h = random_observable(n, 5, &mut rng);
        let shots = 3000;
        let frame = estimate_energy(
            &circuit,
            &h,
            &noise,
            shots,
            SeedSequence::new(100 + trial as u64),
        );
        let tableau = estimate_energy_tableau(
            &circuit,
            &h,
            &noise,
            shots,
            SeedSequence::new(200 + trial as u64),
        );
        let tol = 5.0 * (frame.std_error.hypot(tableau.std_error)).max(1e-3);
        assert!(
            (frame.energy - tableau.energy).abs() <= tol,
            "trial {trial}: frame {} ± {} vs tableau {} ± {}",
            frame.energy,
            frame.std_error,
            tableau.energy,
            tableau.std_error,
        );
    }
}

/// Heavier two-qubit depolarizing stress on an entangling circuit: the
/// damping of a GHZ stabilizer must match between the paths.
#[test]
fn ghz_depolarizing_damping_matches() {
    let n = 6;
    let mut c = Circuit::new(n);
    c.h(0);
    for q in 0..n - 1 {
        c.cx(q, q + 1);
    }
    let mut h = PauliSum::new(n);
    h.push(1.0, PauliString::from_paulis(vec![Pauli::Z; n]));
    h.push(0.5, PauliString::from_paulis(vec![Pauli::X; n]));
    let mut noise = StabilizerNoise::noiseless();
    noise.depol_2q = 0.05;
    let shots = 4000;
    let frame = estimate_energy(&c, &h, &noise, shots, SeedSequence::new(8));
    let tableau = estimate_energy_tableau(&c, &h, &noise, shots, SeedSequence::new(9));
    let tol = 5.0 * frame.std_error.hypot(tableau.std_error);
    assert!(
        (frame.energy - tableau.energy).abs() <= tol,
        "frame {} vs tableau {}",
        frame.energy,
        tableau.energy
    );
}

/// Idle-noise windows (including those opened by skipped measurement
/// gates) hit the same locations on both paths.
#[test]
fn idle_noise_location_parity() {
    // Qubit 1 idles while qubit 0 works for three layers.
    let mut c = Circuit::new(2);
    c.h(0).s(0).h(0);
    let mut h = PauliSum::new(2);
    h.push_str(1.0, "IZ");
    let mut noise = StabilizerNoise::noiseless();
    noise.idle = TwirledIdle {
        px: 0.1,
        py: 0.0,
        pz: 0.0,
    };
    let shots = 4000;
    let frame = estimate_energy(&c, &h, &noise, shots, SeedSequence::new(3));
    let tableau = estimate_energy_tableau(&c, &h, &noise, shots, SeedSequence::new(4));
    // Three idle windows at p=0.1: E[⟨Z₁⟩] = (1 − 0.2)³ = 0.512.
    let expect = 0.512;
    assert!((frame.energy - expect).abs() < 0.05, "{}", frame.energy);
    assert!((tableau.energy - expect).abs() < 0.05, "{}", tableau.energy);
}

/// Same seed ⇒ bit-identical result, for ragged and aligned shot counts.
#[test]
fn frame_estimator_deterministic_given_seed() {
    let mut rng = StdRng::seed_from_u64(5);
    let circuit = random_clifford(5, 40, &mut rng);
    let h = random_observable(5, 6, &mut rng);
    let noise = nisq_like_noise();
    for shots in [1usize, 63, 64, 65, 130, 256] {
        let a = estimate_energy(&circuit, &h, &noise, shots, SeedSequence::new(42));
        let b = estimate_energy(&circuit, &h, &noise, shots, SeedSequence::new(42));
        assert_eq!(a, b, "shots {shots}");
        assert!(a.energy.is_finite());
    }
}

/// Shot counts straddling the 64-lane boundary give statistically
/// consistent answers (no padding-bit leakage into means).
#[test]
fn ragged_shot_counts_are_unbiased() {
    let n = 4;
    let mut c = Circuit::new(n);
    c.h(0);
    for q in 0..n - 1 {
        c.cx(q, q + 1);
    }
    let mut h = PauliSum::new(n);
    h.push(1.0, PauliString::from_paulis(vec![Pauli::Z; n]));
    let mut noise = StabilizerNoise::noiseless();
    noise.depol_1q = 0.3;
    // Mean over many ragged batches ≈ mean of one large aligned batch.
    let big = estimate_energy(&c, &h, &noise, 4096, SeedSequence::new(1000));
    let mut ragged = 0.0;
    let batches = 40;
    for i in 0..batches {
        ragged += estimate_energy(&c, &h, &noise, 65, SeedSequence::new(2000 + i)).energy;
    }
    ragged /= f64::from(batches as u32);
    assert!(
        (ragged - big.energy).abs() < 0.08,
        "ragged {ragged} vs aligned {}",
        big.energy
    );
}

/// The compiled batched sampler matches the per-call reference sampler in
/// distribution: same flip rate for every observable, across random
/// circuits (three independent estimators of the same mean, pairwise
/// within combined standard errors).
#[test]
fn batched_sampler_matches_percall_reference() {
    let mut rng = StdRng::seed_from_u64(63);
    let noise = nisq_like_noise();
    for trial in 0..4 {
        let n = 3 + trial;
        let circuit = random_clifford(n, 30, &mut rng);
        let h = random_observable(n, 5, &mut rng);
        let shots = 4000;
        // Batched estimate (production path).
        let batched = estimate_energy(&circuit, &h, &noise, shots, SeedSequence::new(trial as u64));
        // Per-call frame estimate: reference sampler, same statistical
        // model, independent stream.
        let mut frame_rng = StdRng::seed_from_u64(500 + trial as u64);
        let percall = run_noisy_frames_percall(&circuit, &noise, shots, &mut frame_rng);
        let mut ideal = eftq_stabilizer::Tableau::new(n);
        ideal.run(&circuit);
        let mut percall_energy = 0.0;
        for term in h.terms() {
            let e0 = ideal.expectation(&term.string);
            if e0 == 0.0 {
                continue;
            }
            let damp = (1.0 - 2.0 * noise.meas_flip).powi(term.string.weight() as i32);
            let flips = percall.flip_count(&term.string) as f64;
            percall_energy += term.coefficient * damp * e0 * (1.0 - 2.0 * flips / shots as f64);
        }
        let tol = 5.0 * batched.std_error.max(1e-3) * 2.0;
        assert!(
            (batched.energy - percall_energy).abs() <= tol,
            "trial {trial}: batched {} vs percall {percall_energy}",
            batched.energy
        );
    }
}

/// Batched frames are deterministic and *thread-count-invariant*: the
/// same seed yields bit-identical frames and energies whether batches run
/// on one worker or eight.
#[test]
fn threaded_results_are_thread_count_invariant() {
    let mut rng = StdRng::seed_from_u64(71);
    let circuit = random_clifford(6, 50, &mut rng);
    let h = random_observable(6, 6, &mut rng);
    let noise = nisq_like_noise();
    for shots in [64usize, 300, 1024, 2100] {
        let frames = run_noisy_frames(&circuit, &noise, shots, SeedSequence::new(7));
        let base = estimate_energy(&circuit, &h, &noise, shots, SeedSequence::new(7));
        for threads in [2usize, 8] {
            let t = estimate_energy_threaded(
                &circuit,
                &h,
                &noise,
                shots,
                SeedSequence::new(7),
                threads,
            );
            assert_eq!(base, t, "shots {shots} threads {threads}");
        }
        // Frame content itself is reproducible from the seed alone.
        let again = run_noisy_frames(&circuit, &noise, shots, SeedSequence::new(7));
        assert_eq!(frames, again, "shots {shots}");
    }
}

/// The 100-qubit regime the paper simulates: the frame estimator stays
/// exact and fast where per-shot tableau simulation would crawl.
#[test]
fn large_register_noiseless_exactness() {
    let n = 100;
    let mut c = Circuit::new(n);
    c.h(0);
    for q in 0..n - 1 {
        c.cx(q, q + 1);
    }
    let mut h = PauliSum::new(n);
    h.push(1.0, PauliString::from_paulis(vec![Pauli::Z; n]));
    h.push(-0.5, PauliString::from_paulis(vec![Pauli::X; n]));
    let r = estimate_energy(
        &c,
        &h,
        &StabilizerNoise::noiseless(),
        128,
        SeedSequence::new(0),
    );
    assert_eq!(r.energy, 0.5); // ⟨Z…Z⟩ = 1, ⟨X…X⟩ = 1
    assert_eq!(r.std_error, 0.0);
}
