//! Equivalence suite for the Heisenberg-picture evaluator: for random
//! Clifford genomes of every ansatz family the Clifford sweeps run (and
//! of hand-built circuits exercising the whole fixed gate set), every
//! value of the compiled Hamiltonian's `expectations` and every
//! single-string `expectation` must equal `Tableau::expectation` on the
//! bound circuit exactly, and the energy estimate must equal
//! `estimate_energy_program` bit for bit.

use eftq_circuit::ansatz::{blocked_all_to_all, fully_connected_hea, linear_hea};
use eftq_circuit::{Angle, Circuit, Gate};
use eftq_numerics::SeedSequence;
use eftq_pauli::{Pauli, PauliString, PauliSum};
use eftq_stabilizer::{
    estimate_energy_program, HeisenbergEvaluator, NoiseTemplate, StabilizerNoise, Tableau,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::f64::consts::FRAC_PI_2;

/// Binds a genome the way `Ansatz::bind_clifford` does.
fn bind(circuit: &Circuit, genome: &[u8]) -> Circuit {
    let params: Vec<f64> = genome
        .iter()
        .map(|&k| f64::from(k % 4) * FRAC_PI_2)
        .collect();
    circuit.bind(&params)
}

fn random_genome(len: usize, rng: &mut StdRng) -> Vec<u8> {
    // Entries past 3 exercise the `k % 4` reduction.
    (0..len).map(|_| rng.gen_range(0..8u8)).collect()
}

/// A random string over all qubits with a random sign.
fn dense_term(n: usize, rng: &mut StdRng) -> PauliString {
    let mut p = PauliString::from_paulis((0..n).map(|_| Pauli::ALL[rng.gen_range(0..4)]));
    if rng.gen_bool(0.5) {
        p.mul_phase(2);
    }
    p
}

/// Every weight-1 term, every nearest-neighbour weight-2 term (all pairs
/// on small registers), each also with a negative sign, plus dense
/// random terms.
fn terms(n: usize, rng: &mut StdRng) -> Vec<PauliString> {
    let mut out = Vec::new();
    for q in 0..n {
        for l in Pauli::NON_IDENTITY {
            out.push(PauliString::single(n, q, l));
        }
    }
    for a in 0..n {
        for b in a + 1..n {
            if n > 8 && b != a + 1 {
                continue;
            }
            for la in Pauli::NON_IDENTITY {
                for lb in Pauli::NON_IDENTITY {
                    let mut p = PauliString::identity(n);
                    p.set_pauli(a, la);
                    p.set_pauli(b, lb);
                    out.push(p);
                }
            }
        }
    }
    let negated: Vec<PauliString> = out
        .iter()
        .map(|p| {
            let mut m = p.clone();
            m.mul_phase(2);
            m
        })
        .collect();
    out.extend(negated);
    out.extend((0..40).map(|_| dense_term(n, rng)));
    out
}

/// The identity, every weight-1 term and the nearest-neighbour XX, YY
/// and ZZ pairs: the terms of the sweeps' Hamiltonians and more. On 70
/// and 100 qubits the pairs span two words, including the pair on
/// qubits 63 and 64.
fn model_terms(n: usize) -> Vec<PauliString> {
    let mut out = vec![PauliString::identity(n)];
    for q in 0..n {
        for l in Pauli::NON_IDENTITY {
            out.push(PauliString::single(n, q, l));
        }
    }
    for q in 0..n - 1 {
        for l in Pauli::NON_IDENTITY {
            let mut p = PauliString::identity(n);
            p.set_pauli(q, l);
            p.set_pauli(q + 1, l);
            out.push(p);
        }
    }
    out
}

/// Checks `genomes` random genomes of `circuit` against the tableau on
/// every string of `terms`. The evaluator is compiled against a
/// `PauliSum` of the strings with coefficients of both signs, and both
/// entry points are checked: every value of `expectations`, and
/// `expectation` of each string with its own sign. Returns how many
/// values of non-identity terms were nonzero, so callers can assert the
/// suite is not vacuous.
fn check_terms(
    circuit: &Circuit,
    terms: &[PauliString],
    genomes: usize,
    rng: &mut StdRng,
) -> usize {
    let n = circuit.num_qubits();
    let mut h = PauliSum::new(n);
    for p in terms {
        h.push(rng.gen_range(-1.0..1.0), p.clone());
    }
    let evaluator = HeisenbergEvaluator::compile(circuit, &h);
    assert_eq!(evaluator.num_params(), circuit.num_symbolic_params());
    let mut values = vec![0.0; h.num_terms()];
    let mut nonzero = 0;
    for g in 0..genomes {
        let genome = random_genome(evaluator.num_params(), rng);
        let bound = evaluator.bind_clifford(&genome);
        bound.expectations(&mut values);
        let mut t = Tableau::new(n);
        t.run(&bind(circuit, &genome));
        for ((p, term), &value) in terms.iter().zip(h.terms()).zip(&values) {
            let want = t.expectation(&term.string);
            assert_eq!(value, want, "genome {g} {genome:?}, term {p}\n{circuit}");
            assert_eq!(
                bound.expectation(p),
                t.expectation(p),
                "genome {g} {genome:?}, term {p}\n{circuit}"
            );
            nonzero += usize::from(want != 0.0 && !p.is_identity());
        }
    }
    nonzero
}

/// [`check_terms`] on the terms of [`terms`].
fn check_circuit(circuit: &Circuit, genomes: usize, seed: u64) -> usize {
    let mut rng = StdRng::seed_from_u64(seed);
    let terms = terms(circuit.num_qubits(), &mut rng);
    check_terms(circuit, &terms, genomes, &mut rng)
}

/// Fixed H/S/S†/X/Y/Z/CZ/SWAP/CX, fixed quarter-turn rotations on all
/// three axes, a measurement mid-circuit, and symbolic rotations on all
/// three axes — leading, interleaved and trailing.
fn hand_built() -> Circuit {
    let mut c = Circuit::new(5);
    c.push(Gate::Ry(0, Angle::Param(0)));
    c.rz_param(1, 1).rx_param(1, 2);
    c.h(0).s(1).sdg(2).x(3).y(4).z(0);
    c.cz(0, 2).swap(1, 3).cx(4, 0);
    c.rx(2, FRAC_PI_2)
        .ry(3, 3.0 * FRAC_PI_2)
        .rz(4, std::f64::consts::PI);
    c.measure(1);
    c.cx(2, 4).h(3);
    c.rx_param(3, 3);
    c.push(Gate::Ry(2, Angle::Param(4)));
    c.cz(3, 1).sdg(3).swap(0, 4);
    // A parameter shared by two gates, and a bound identity rotation
    // between two symbolic runs.
    c.rz_param(0, 5).rz(1, 0.0).rz_param(2, 5);
    c.h(2).cx(2, 1);
    c.rx_param(4, 6).rz_param(4, 7);
    c
}

#[test]
fn fully_connected_hea_5q_depth1() {
    assert!(check_circuit(fully_connected_hea(5, 1).circuit(), 24, 1) > 0);
}

#[test]
fn fully_connected_hea_7q_depth2() {
    assert!(check_circuit(fully_connected_hea(7, 2).circuit(), 16, 2) > 0);
}

#[test]
fn fully_connected_hea_70q_spans_two_words() {
    assert!(check_circuit(fully_connected_hea(70, 1).circuit(), 4, 3) > 0);
}

#[test]
fn linear_hea_6q_depth3() {
    assert!(check_circuit(linear_hea(6, 3).circuit(), 16, 4) > 0);
}

#[test]
fn blocked_all_to_all_8q() {
    assert!(check_circuit(blocked_all_to_all(8, 1).circuit(), 16, 5) > 0);
}

#[test]
fn hand_built_circuit_with_every_fixed_gate() {
    assert!(check_circuit(&hand_built(), 64, 6) > 0);
}

#[test]
fn fully_bound_and_empty_circuits() {
    // No symbolic rotations: one fixed run read off on |0…0⟩.
    assert!(check_circuit(&bind(&hand_built(), &[1, 2, 3, 0, 1, 2, 3, 1]), 1, 7) > 0);
    assert!(check_circuit(&Circuit::new(3), 1, 8) > 0);
}

#[test]
fn hamiltonian_terms_match_tableau_on_fche_at_one_and_two_words() {
    for n in [16, 70, 100] {
        for depth in [1, 2] {
            let mut rng = StdRng::seed_from_u64(10 * n as u64 + depth as u64);
            let ansatz = fully_connected_hea(n, depth);
            assert!(
                check_terms(ansatz.circuit(), &model_terms(n), 2, &mut rng) > 0,
                "{n} qubits, depth {depth}"
            );
        }
    }
}

#[test]
fn hamiltonian_terms_match_tableau_on_other_shapes() {
    let circuits = [
        blocked_all_to_all(16, 1).circuit().clone(),
        linear_hea(6, 3).circuit().clone(),
        hand_built(),
    ];
    for (seed, circuit) in (20..).zip(&circuits) {
        let mut rng = StdRng::seed_from_u64(seed);
        let terms = model_terms(circuit.num_qubits());
        assert!(check_terms(circuit, &terms, 8, &mut rng) > 0, "{circuit}");
    }
}

#[test]
fn energy_estimate_matches_program_estimator_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(9);
    let ansatz = fully_connected_hea(12, 1);
    let mut h = PauliSum::new(12);
    for p in terms(12, &mut rng).into_iter().step_by(7) {
        h.push(rng.gen_range(-1.0..1.0), p);
    }
    let evaluator = HeisenbergEvaluator::compile(ansatz.circuit(), &h);
    let nisq = StabilizerNoise {
        depol_1q: 0.003,
        depol_2q: 0.02,
        depol_rz: 0.001,
        depol_rot_xy: 0.003,
        meas_flip: 0.01,
        ..StabilizerNoise::default()
    };
    for noise in [StabilizerNoise::noiseless(), nisq] {
        let template = NoiseTemplate::compile(ansatz.circuit(), &noise);
        for g in 0..8 {
            let genome = random_genome(ansatz.num_params(), &mut rng);
            let program = template.bind_clifford(&genome);
            let seed = SeedSequence::new(g);
            let want = estimate_energy_program(
                &ansatz.bind_clifford(&genome),
                &h,
                &program,
                noise.meas_flip,
                37,
                seed,
                1,
            );
            let got = evaluator.bind_clifford(&genome).estimate_energy(
                &program,
                noise.meas_flip,
                37,
                seed,
                1,
            );
            assert_eq!(got, want, "genome {g}");
        }
    }
}

#[test]
#[should_panic(expected = "cannot apply gate")]
fn non_clifford_gate_rejected() {
    let mut c = Circuit::new(1);
    c.t(0);
    let _ = HeisenbergEvaluator::compile(&c, &PauliSum::new(1));
}

#[test]
#[should_panic(expected = "genome entries")]
fn short_genome_rejected() {
    let evaluator = HeisenbergEvaluator::compile(linear_hea(3, 1).circuit(), &PauliSum::new(3));
    let _ = evaluator.bind_clifford(&[0, 1]);
}

/// A random circuit over the full Clifford gate set with symbolic
/// rotations on every axis mixed in.
fn random_circuit(n: usize, len: usize, rng: &mut StdRng) -> Circuit {
    let mut c = Circuit::new(n);
    let mut params = 0;
    for _ in 0..len {
        let q = rng.gen_range(0..n);
        let other = (q + 1 + rng.gen_range(0..n - 1)) % n;
        let quarter = Angle::Value(f64::from(rng.gen_range(0..4u8)) * FRAC_PI_2);
        let kind = rng.gen_range(0..15);
        let gate = match kind {
            0 => Gate::H(q),
            1 => Gate::S(q),
            2 => Gate::Sdg(q),
            3 => Gate::X(q),
            4 => Gate::Y(q),
            5 => Gate::Z(q),
            6 => Gate::Cx(q, other),
            7 => Gate::Cz(q, other),
            8 => Gate::Swap(q, other),
            9 => Gate::Rx(q, quarter),
            10 => Gate::Ry(q, quarter),
            11 => Gate::Rz(q, quarter),
            _ => {
                // Sometimes share an existing parameter.
                let param = if params > 0 && rng.gen_bool(0.3) {
                    rng.gen_range(0..params)
                } else {
                    params += 1;
                    params - 1
                };
                match kind {
                    12 => Gate::Rx(q, Angle::Param(param)),
                    13 => Gate::Ry(q, Angle::Param(param)),
                    _ => Gate::Rz(q, Angle::Param(param)),
                }
            }
        };
        c.push(gate);
    }
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random circuits, random genomes, random terms: the evaluator and
    /// the tableau agree on every value.
    #[test]
    fn prop_matches_tableau_on_random_circuits(
        seed in 0u64..u64::MAX,
        n in 2usize..9,
        len in 0usize..60,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let circuit = random_circuit(n, len, &mut rng);
        let evaluator = HeisenbergEvaluator::compile(&circuit, &PauliSum::new(n));
        for _ in 0..3 {
            let genome = random_genome(evaluator.num_params(), &mut rng);
            let bound = evaluator.bind_clifford(&genome);
            let mut t = Tableau::new(n);
            t.run(&bind(&circuit, &genome));
            for _ in 0..12 {
                let p = dense_term(n, &mut rng);
                prop_assert_eq!(bound.expectation(&p), t.expectation(&p));
            }
        }
    }
}
