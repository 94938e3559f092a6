//! Bit-identity pin of the tableau walk and the frame engine: a
//! fixed 37-qubit Clifford circuit, its expectations and its noisy
//! frames at 16, 128 and 700 shots (lane widths 1, 2, and 4 then 3)
//! hash to recorded constants, as do the frames of a hand-built circuit
//! whose CX runs are broken by every other kernel and by site runs. Any
//! change to a word kernel, a frame kernel, the site layout or the
//! sampling RNG stream moves a hash and fails here.
//!
//! If a deliberate engine change moves the stream (it must be called
//! out against the recorded sweep baselines!), regenerate the constants
//! by running the tests and copying the reported values.

use eftq_circuit::ansatz::fully_connected_hea;
use eftq_circuit::Circuit;
use eftq_numerics::SeedSequence;
use eftq_pauli::{Pauli, PauliString};
use eftq_stabilizer::noise::TwirledIdle;
use eftq_stabilizer::{NoiseProgram, NoiseTemplate, PauliFrames, StabilizerNoise, Tableau};

fn fnv(h: &mut u64, v: u64) {
    *h = (*h ^ v).wrapping_mul(0x0000_0100_0000_01b3);
}

fn pauli_tag(p: Pauli) -> u64 {
    match p {
        Pauli::I => 0,
        Pauli::X => 1,
        Pauli::Y => 2,
        Pauli::Z => 3,
    }
}

fn test_circuit(n: usize) -> Circuit {
    let ansatz = fully_connected_hea(n, 2);
    let ks: Vec<u8> = (0..ansatz.num_params()).map(|i| (i % 4) as u8).collect();
    ansatz.bind_clifford(&ks)
}

fn nisq_like() -> StabilizerNoise {
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

#[test]
fn tableau_walk_hash_is_pinned() {
    // Hash every ⟨Z_q Z_{q+1}⟩ and ⟨X_q⟩ (sign and determinacy) of the
    // evolved state: any divergence in the H/S/CX/CZ/SWAP word kernels
    // shows up here.
    let n = 37; // odd, and rwords = 2: more than one word per column
    let c = test_circuit(n);
    let mut t = Tableau::new(n);
    t.run(&c);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for q in 0..n {
        let mut letters = vec![Pauli::I; n];
        letters[q] = Pauli::X;
        fnv(
            &mut h,
            t.expectation(&PauliString::from_paulis(letters)).to_bits(),
        );
        if q + 1 < n {
            let mut letters = vec![Pauli::I; n];
            letters[q] = Pauli::Z;
            letters[q + 1] = Pauli::Z;
            fnv(
                &mut h,
                t.expectation(&PauliString::from_paulis(letters)).to_bits(),
            );
        }
    }
    assert_eq!(h, GOLDEN_TABLEAU, "tableau hash {h:#018x}");
}

fn frame_hash(frames: &PauliFrames, h: &mut u64) {
    for s in 0..frames.num_shots() {
        let f = frames.frame(s);
        for q in 0..frames.num_qubits() {
            fnv(h, pauli_tag(f.pauli_at(q)));
        }
    }
}

fn test_frames_hash(shots: usize) -> u64 {
    let n = 37;
    let c = test_circuit(n);
    let p = NoiseProgram::compile(&c, &nisq_like());
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    frame_hash(&p.run(shots, SeedSequence::new(42)), &mut h);
    h
}

#[test]
fn frame_engine_hash_is_pinned() {
    let h = test_frames_hash(700);
    assert_eq!(h, GOLDEN_FRAMES, "frame hash {h:#018x}");
}

#[test]
fn frame_engine_hash_is_pinned_at_one_and_two_lane_words() {
    let h16 = test_frames_hash(16);
    assert_eq!(h16, GOLDEN_FRAMES_16, "16-shot frame hash {h16:#018x}");
    let h128 = test_frames_hash(128);
    assert_eq!(h128, GOLDEN_FRAMES_128, "128-shot frame hash {h128:#018x}");
}

/// An 8-qubit circuit whose CX kernels are interrupted by every other
/// kernel kind: CZ, SWAP, S and an odd `Rz` inside CX layers, an H
/// layer, a measurement-only layer and symbolic rotations. It repeats
/// pairs across layers and has controls on both sides of their targets.
fn cx_run_circuit() -> Circuit {
    use std::f64::consts::FRAC_PI_2;
    let mut c = Circuit::new(8);
    c.h(0).h(2).h(4).h(6);
    c.cx(0, 1).cx(3, 2).cz(4, 5).cx(7, 6);
    c.cx(0, 1).cx(2, 3).swap(4, 5).cx(6, 7);
    c.measure_all();
    c.cx(1, 0).cx(2, 3).s(4).cx(5, 6).rz(7, FRAC_PI_2);
    c.cx(1, 0).cx(3, 4).cx(6, 5).cx(7, 2);
    c.rz_param(0, 0).cx(4, 1).cx(2, 7).rx_param(3, 1);
    c.cx(0, 3).swap(1, 2).cx(7, 4).cx(5, 6);
    c
}

#[test]
fn cx_run_circuit_hash_is_pinned() {
    // Dense noise breaks every layer's kernels with site runs; noise on
    // the rotations alone leaves CX kernels of consecutive layers
    // adjacent, across the measurement-only layer.
    let dense = StabilizerNoise {
        depol_1q: 0.05,
        depol_2q: 0.1,
        depol_rz: 0.08,
        depol_rot_xy: 0.06,
        meas_flip: 0.0,
        idle: TwirledIdle {
            px: 0.02,
            py: 0.02,
            pz: 0.03,
        },
    };
    let mut rotations_only = StabilizerNoise::noiseless();
    rotations_only.depol_rz = 0.2;
    rotations_only.depol_rot_xy = 0.15;
    let c = cx_run_circuit();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (i, noise) in [dense, rotations_only].iter().enumerate() {
        let template = NoiseTemplate::compile(&c, noise);
        for genome in [[1u8, 3], [2, 1]] {
            let frames = template
                .bind_clifford(&genome)
                .run(300, SeedSequence::new(5 + i as u64));
            frame_hash(&frames, &mut h);
        }
    }
    assert_eq!(h, GOLDEN_CX_RUNS, "cx-run circuit hash {h:#018x}");
}

/// Hash of the tableau expectations in `tableau_walk_hash_is_pinned`.
const GOLDEN_TABLEAU: u64 = 0x89e7_ece7_b4dd_28bf;
/// Hash of the frames in `frame_engine_hash_is_pinned`.
const GOLDEN_FRAMES: u64 = 0x86af_423e_2772_afb6;
/// Hash of the 16-shot frames (one lane word).
const GOLDEN_FRAMES_16: u64 = 0xdd0b_ddee_6266_d365;
/// Hash of the 128-shot frames (two lane words).
const GOLDEN_FRAMES_128: u64 = 0xf250_8d95_79be_03ce;
/// Hash of the frames in `cx_run_circuit_hash_is_pinned`.
const GOLDEN_CX_RUNS: u64 = 0x198c_fdd9_df77_fcb1;
