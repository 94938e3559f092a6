//! Bit-identity pin of the tableau walk and the frame engine: a
//! fixed 37-qubit Clifford circuit, its expectations and its noisy
//! frames hash to recorded constants. Any change to a word kernel, a
//! frame kernel, the site layout or the sampling RNG stream moves a hash
//! and fails here.
//!
//! If a deliberate engine change moves the stream (it must be called
//! out against the recorded sweep baselines!), regenerate the constants
//! by running the tests and copying the reported values.

use eftq_circuit::ansatz::fully_connected_hea;
use eftq_circuit::Circuit;
use eftq_numerics::SeedSequence;
use eftq_pauli::{Pauli, PauliString};
use eftq_stabilizer::noise::TwirledIdle;
use eftq_stabilizer::{NoiseProgram, StabilizerNoise, Tableau};

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

#[test]
fn frame_engine_hash_is_pinned() {
    let n = 37;
    let c = test_circuit(n);
    let p = NoiseProgram::compile(&c, &nisq_like());
    let frames = p.run(700, SeedSequence::new(42));
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for s in 0..frames.num_shots() {
        let f = frames.frame(s);
        for q in 0..n {
            fnv(&mut h, pauli_tag(f.pauli_at(q)));
        }
    }
    assert_eq!(h, GOLDEN_FRAMES, "frame hash {h:#018x}");
}

/// Hash of the tableau expectations in `tableau_walk_hash_is_pinned`.
const GOLDEN_TABLEAU: u64 = 0x89e7_ece7_b4dd_28bf;
/// Hash of the frames in `frame_engine_hash_is_pinned`.
const GOLDEN_FRAMES: u64 = 0x86af_423e_2772_afb6;
