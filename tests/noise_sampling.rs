//! Statistical equivalence of the batched Bernoulli sampler with the
//! per-call `gen_bool` reference (`eftq_stabilizer::reference`), and
//! thread-count invariance of the compiled noise programs.
//!
//! The batched engine ([`BernoulliWords`] + [`NoiseProgram`]) must be a
//! drop-in statistical replacement for drawing one `rng.gen_bool(p)` per
//! (site, shot) trial: same marginal rate at every probability, same
//! letter distributions, and — because shot batches derive their RNG
//! streams from their batch index — results that do not depend on how
//! many worker threads evaluated them.

use eftq_circuit::Circuit;
use eftq_numerics::{BernoulliWords, SeedSequence};
use eftq_pauli::PauliSum;
use eftq_stabilizer::reference::run_noisy_frames_percall;
use eftq_stabilizer::{
    estimate_energy, estimate_energy_threaded, run_noisy_frames, NoiseProgram, StabilizerNoise,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Empirical rate of the batched sampler versus the per-call reference,
/// across the sparse (geometric-skip) and dense (bit-slice) regimes: both
/// must sit within a 5σ binomial band of `p`, and within a combined band
/// of each other.
#[test]
fn batched_rate_matches_gen_bool_reference() {
    for (p, trials, seed) in [
        (0.0005, 2_000_000, 1u64),
        (0.004, 500_000, 2),
        (0.03, 400_000, 3),
        (0.08, 300_000, 4),
        (0.35, 200_000, 5),
        (0.85, 200_000, 6),
    ] {
        let sigma = (p * (1.0 - p) / trials as f64).sqrt();

        let mut sampler = BernoulliWords::new(p);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut batched_hits = 0usize;
        sampler.for_each_hit(trials, &mut rng, |_| batched_hits += 1);
        let batched = batched_hits as f64 / trials as f64;

        let mut rng = StdRng::seed_from_u64(seed ^ 0xdead);
        let mut percall_hits = 0usize;
        for _ in 0..trials {
            if rng.gen_bool(p) {
                percall_hits += 1;
            }
        }
        let percall = percall_hits as f64 / trials as f64;

        assert!(
            (batched - p).abs() < 5.0 * sigma,
            "p={p}: batched {batched}"
        );
        assert!(
            (percall - p).abs() < 5.0 * sigma,
            "p={p}: percall {percall}"
        );
        assert!(
            (batched - percall).abs() < 7.1 * sigma,
            "p={p}: batched {batched} vs percall {percall}"
        );
    }
}

/// The word-parallel rejection draw that the compiled program's
/// two-qubit injector runs under each hit lane mask must leave the 15
/// non-identity two-qubit Paulis uniform, matching the per-call
/// `gen_range(1..16)` reference draw. One CX at `depol_2q = 1` hits
/// every shot, and its kernel runs before its site, so every frame is
/// exactly the injected pair.
#[test]
fn masked_2q_letters_are_uniform_over_fifteen_pairs() {
    let shots = 64_000;
    let mut c = Circuit::new(2);
    c.cx(0, 1);
    let mut noise = StabilizerNoise::noiseless();
    noise.depol_2q = 1.0;
    let frames = NoiseProgram::compile(&c, &noise).run(shots, SeedSequence::new(9));
    let mut counts = [0usize; 16];
    for s in 0..shots {
        let f = frames.frame(s);
        let idx = |p: eftq_pauli::Pauli| p.x_bit() as usize * 2 + p.z_bit() as usize;
        counts[idx(f.pauli_at(0)) * 4 + idx(f.pauli_at(1))] += 1;
    }
    assert_eq!(counts[0], 0, "identity pair must never be injected");
    let expect = shots as f64 / 15.0;
    let sigma = (shots as f64 * (1.0 / 15.0) * (14.0 / 15.0)).sqrt();
    for (i, &c) in counts.iter().enumerate().skip(1) {
        assert!(
            (c as f64 - expect).abs() < 5.0 * sigma,
            "pair {i}: {c} vs {expect}"
        );
    }
}

fn nisq_like() -> StabilizerNoise {
    StabilizerNoise {
        depol_1q: 0.003,
        depol_2q: 0.015,
        depol_rz: 0.0,
        depol_rot_xy: 0.003,
        meas_flip: 0.01,
        idle: eftq_stabilizer::noise::TwirledIdle {
            px: 0.002,
            py: 0.002,
            pz: 0.004,
        },
    }
}

fn ghz_chain(n: usize) -> Circuit {
    let mut c = Circuit::new(n);
    c.h(0);
    for q in 0..n - 1 {
        c.cx(q, q + 1);
    }
    c
}

/// Frame-level equivalence in distribution: for a fixed circuit, the
/// batched program and the per-call reference must flip each stabilizer
/// at the same rate.
#[test]
fn batched_frames_match_percall_flip_rates() {
    let n = 6;
    let c = ghz_chain(n);
    let noise = nisq_like();
    let shots = 60_000;
    let batched = run_noisy_frames(&c, &noise, shots, SeedSequence::new(21));
    let mut rng = StdRng::seed_from_u64(22);
    let percall = run_noisy_frames_percall(&c, &noise, shots, &mut rng);
    for p in ["ZZIIII", "IZZIII", "IIIZZI", "XXXXXX"] {
        let pauli: eftq_pauli::PauliString = p.parse().unwrap();
        let rb = batched.flip_count(&pauli) as f64 / shots as f64;
        let rp = percall.flip_count(&pauli) as f64 / shots as f64;
        // Flip rates are a few percent; 5σ on the pooled binomial.
        let pool = (0.5 * (rb + rp)).max(1e-4);
        let sigma = (2.0 * pool * (1.0 - pool) / shots as f64).sqrt();
        assert!((rb - rp).abs() < 5.0 * sigma, "{p}: batched {rb} vs {rp}");
    }
}

/// `estimate_energy` must return bit-identical results for
/// `threads ∈ {1, 2, 8}` at a fixed seed — the per-batch seed derivation
/// makes thread count (and scheduling) invisible.
#[test]
fn estimate_energy_is_thread_count_invariant() {
    let n = 8;
    let c = ghz_chain(n);
    let mut h = PauliSum::new(n);
    h.push_str(1.0, "ZZZZZZZZ");
    h.push_str(-0.5, "XXXXXXXX");
    h.push_str(0.25, "ZIIIIIIZ");
    let noise = nisq_like();
    for shots in [1usize, 255, 256, 257, 1000, 4096] {
        let seed = SeedSequence::new(1234);
        let base = estimate_energy(&c, &h, &noise, shots, seed);
        for threads in [2usize, 8] {
            let t = estimate_energy_threaded(&c, &h, &noise, shots, seed, threads);
            assert_eq!(base, t, "shots {shots} threads {threads}");
        }
        assert!(base.energy.is_finite());
    }
}

/// The compiled program itself is reusable and deterministic: one
/// compilation serves many (shots, seed, threads) combinations.
#[test]
fn compiled_program_is_reusable_across_runs() {
    let c = ghz_chain(5);
    let noise = nisq_like();
    let program = NoiseProgram::compile(&c, &noise);
    assert!(program.num_sites() > 0);
    let a = program.run_threaded(777, SeedSequence::new(3), 4);
    let b = program.run(777, SeedSequence::new(3));
    assert_eq!(a, b);
    let c2 = program.run(777, SeedSequence::new(4));
    assert_ne!(a, c2, "different seeds must give different frames");
}

/// Sparse NISQ rates drive the geometric-skip path; the injected error
/// mass must still match the per-call reference through a full energy
/// estimate (GHZ ⟨ZZ…Z⟩ damping).
#[test]
fn sparse_path_energy_matches_percall_model() {
    let n = 10;
    let c = ghz_chain(n);
    let mut h = PauliSum::new(n);
    h.push_str(1.0, &"Z".repeat(n));
    let mut noise = StabilizerNoise::noiseless();
    noise.depol_2q = 0.002; // firmly in geometric-skip territory
    let shots = 40_000;
    let batched = estimate_energy(&c, &h, &noise, shots, SeedSequence::new(31));
    let mut rng = StdRng::seed_from_u64(32);
    let percall = run_noisy_frames_percall(&c, &noise, shots, &mut rng);
    let pauli: eftq_pauli::PauliString = "Z".repeat(n).parse().unwrap();
    let percall_energy = 1.0 - 2.0 * percall.flip_count(&pauli) as f64 / shots as f64;
    let tol = 5.0 * batched.std_error.max(1e-3);
    assert!(
        (batched.energy - percall_energy).abs() < 2.0 * tol,
        "batched {} vs percall {percall_energy}",
        batched.energy
    );
}
