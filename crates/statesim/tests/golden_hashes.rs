//! Bit-identity pin of the dense simulators: the amplitudes of a
//! hand-built 5-qubit circuit, the density matrix of the same circuit,
//! the density matrix after each channel kernel, and `run_noisy` under a
//! NISQ-like and a pQEC-like model all hash to recorded constants. Any
//! change to a kernel's arithmetic, or to the summation order of a
//! read-out, moves a hash and fails here.
//!
//! If a deliberate kernel change moves the bits (it must be called out
//! against the recorded sweep baselines!), regenerate the constants by
//! running the tests and copying the reported values.

use eftq_circuit::ansatz::fully_connected_hea;
use eftq_circuit::Circuit;
use eftq_numerics::Complex;
use eftq_pauli::PauliString;
use eftq_statesim::noise::{run_noisy, NoiseModel, Relaxation};
use eftq_statesim::{DensityMatrix, KrausChannel, StateVector};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(h: &mut u64, v: u64) {
    *h = (*h ^ v).wrapping_mul(0x0000_0100_0000_01b3);
}

fn fnv_complex(h: &mut u64, z: Complex) {
    fnv(h, z.re.to_bits());
    fnv(h, z.im.to_bits());
}

/// Every entry of ρ, row-major.
fn rho_hash(rho: &DensityMatrix) -> u64 {
    let dim = 1usize << rho.num_qubits();
    let mut h = FNV_OFFSET;
    for r in 0..dim {
        for c in 0..dim {
            fnv_complex(&mut h, rho.entry(r, c));
        }
    }
    h
}

/// Every read-out of ρ: trace, purity, the diagonal, a few Pauli
/// expectations and the fidelity with `psi`.
fn readout_hash(rho: &DensityMatrix, psi: &StateVector) -> u64 {
    let n = rho.num_qubits();
    let mut h = FNV_OFFSET;
    fnv_complex(&mut h, rho.trace());
    fnv(&mut h, rho.purity().to_bits());
    for b in 0..1usize << n {
        fnv(&mut h, rho.probability(b).to_bits());
    }
    for letters in ["XYZ", "ZZI", "IYX", "YXX"] {
        let s: String = letters.chars().cycle().take(n).collect();
        let p: PauliString = s.parse().unwrap();
        fnv(&mut h, rho.expectation_pauli(&p).to_bits());
    }
    fnv(&mut h, rho.fidelity_with_pure(psi).to_bits());
    h
}

/// H, S, S†, X, Y, Z, valued Rx/Ry/Rz, CX in both directions, CZ and
/// SWAP, on qubit 0, on qubit 4 and on non-adjacent pairs.
fn gate_circuit() -> Circuit {
    let mut c = Circuit::new(5);
    c.h(0).h(2).h(4).rx(1, 0.37).ry(3, -1.21).rz(4, 0.83);
    c.cx(0, 4).cx(4, 1).cx(2, 0).cx(1, 2);
    c.s(1).sdg(3).x(2).y(0).z(4).s(0).sdg(4);
    c.cz(0, 3).cz(4, 2).cz(1, 2);
    c.swap(0, 4).swap(3, 1).swap(2, 3);
    c.rz(0, -0.61).rx(4, 1.9).ry(2, 0.44).rx(0, 2.3).ry(4, -0.2);
    c.cx(3, 0).cx(1, 3).cx(4, 3);
    c.h(1).h(3).measure(2);
    c
}

fn nisq_like() -> NoiseModel {
    NoiseModel {
        depol_1q: 0.002,
        depol_2q: 0.02,
        depol_rz: 0.0,
        depol_rot_xy: 0.004,
        meas_flip: 0.03,
        idle_depol: 0.0015,
        relaxation: Some(Relaxation {
            t1: 80_000.0,
            t2: 60_000.0,
            t_1q: 35.0,
            t_2q: 300.0,
            t_meas: 700.0,
        }),
    }
}

fn pqec_like() -> NoiseModel {
    NoiseModel {
        depol_1q: 0.0005,
        depol_2q: 0.001,
        depol_rz: 0.0077,
        depol_rot_xy: 0.0077,
        meas_flip: 0.001,
        idle_depol: 0.0002,
        relaxation: None,
    }
}

fn bound_fche(n: usize) -> Circuit {
    let a = fully_connected_hea(n, 1);
    let params: Vec<f64> = (0..a.num_params()).map(|i| 0.3 + 0.17 * i as f64).collect();
    let mut c = a.bind(&params);
    c.measure_all();
    c
}

fn one_qubit_circuit() -> Circuit {
    let mut c = Circuit::new(1);
    c.h(0).rz(0, 0.7).rx(0, -0.4).s(0).ry(0, 1.3).measure(0);
    c
}

#[test]
fn statevector_hash_is_pinned() {
    let psi = StateVector::from_circuit(&gate_circuit());
    let mut h = FNV_OFFSET;
    for &a in psi.amplitudes() {
        fnv_complex(&mut h, a);
    }
    assert_eq!(h, GOLDEN_STATEVECTOR, "state-vector hash {h:#018x}");
}

#[test]
fn density_gate_hash_is_pinned() {
    let c = gate_circuit();
    let rho = DensityMatrix::from_circuit(&c);
    let h = rho_hash(&rho);
    assert_eq!(h, GOLDEN_DENSITY_GATES, "density gate hash {h:#018x}");
    let r = readout_hash(&rho, &StateVector::from_circuit(&c));
    assert_eq!(r, GOLDEN_DENSITY_READOUT, "density read-out hash {r:#018x}");
}

#[test]
fn channel_kernel_hashes_are_pinned() {
    let rho = DensityMatrix::from_circuit(&gate_circuit());
    let hash_after = |apply: &dyn Fn(&mut DensityMatrix)| {
        let mut r = rho.clone();
        apply(&mut r);
        rho_hash(&r)
    };

    let relax = KrausChannel::thermal_relaxation(300.0, 1000.0, 700.0);
    let h = hash_after(&|r| {
        for q in [0, 4, 2] {
            r.apply_channel(q, &relax);
        }
    });
    assert_eq!(h, GOLDEN_RELAXATION, "thermal relaxation hash {h:#018x}");

    let flip = KrausChannel::bit_flip(0.07);
    let h = hash_after(&|r| {
        for q in [4, 1, 0] {
            r.apply_channel(q, &flip);
        }
    });
    assert_eq!(h, GOLDEN_BIT_FLIP, "bit flip hash {h:#018x}");

    let h = hash_after(&|r| {
        for q in [0, 3, 4] {
            r.apply_depolarizing_1q(q, 0.13);
        }
    });
    assert_eq!(h, GOLDEN_DEPOL_1Q, "1q depolarizing hash {h:#018x}");

    let h = hash_after(&|r| {
        r.apply_depolarizing_2q(0, 4, 0.11);
        r.apply_depolarizing_2q(1, 2, 0.05);
    });
    assert_eq!(
        h, GOLDEN_DEPOL_2Q_ASCENDING,
        "2q depolarizing, a < b, hash {h:#018x}"
    );

    let h = hash_after(&|r| {
        r.apply_depolarizing_2q(4, 0, 0.11);
        r.apply_depolarizing_2q(3, 1, 0.05);
    });
    assert_eq!(
        h, GOLDEN_DEPOL_2Q_DESCENDING,
        "2q depolarizing, a > b, hash {h:#018x}"
    );
}

#[test]
fn run_noisy_hashes_are_pinned() {
    let circuits = [
        ("FCHE(5,1)", bound_fche(5)),
        ("1 qubit", one_qubit_circuit()),
        ("FCHE(7,1)", bound_fche(7)),
    ];
    let models = [("NISQ-like", nisq_like()), ("pQEC-like", pqec_like())];
    let mut got = Vec::new();
    for (cname, c) in &circuits {
        let psi = StateVector::from_circuit(c);
        for (mname, noise) in &models {
            let (rho, report) = run_noisy(c, noise);
            let mut h = rho_hash(&rho);
            fnv(&mut h, readout_hash(&rho, &psi));
            fnv(&mut h, report.layers as u64);
            fnv(&mut h, report.channel_applications as u64);
            fnv(&mut h, report.idle_slots as u64);
            got.push((format!("{cname} {mname}"), h));
        }
    }
    for ((name, h), golden) in got.iter().zip(GOLDEN_RUN_NOISY) {
        assert_eq!(*h, golden, "{name} run_noisy hash {h:#018x}");
    }
}

const GOLDEN_STATEVECTOR: u64 = 0x371f_f4b1_977e_040d;
const GOLDEN_DENSITY_GATES: u64 = 0x0759_628c_b95a_c494;
const GOLDEN_DENSITY_READOUT: u64 = 0x681e_fdcc_888d_d5c4;
const GOLDEN_RELAXATION: u64 = 0x690f_1033_94e0_a5f8;
const GOLDEN_BIT_FLIP: u64 = 0xa4bc_5906_0f23_7719;
const GOLDEN_DEPOL_1Q: u64 = 0x9f86_0e87_85cb_cd7a;
const GOLDEN_DEPOL_2Q_ASCENDING: u64 = 0x9818_2e9d_bf45_8bac;
const GOLDEN_DEPOL_2Q_DESCENDING: u64 = 0x83fe_e250_f4b4_46d2;
/// FCHE(5,1), the 1-qubit circuit and FCHE(7,1), each NISQ-like then
/// pQEC-like.
const GOLDEN_RUN_NOISY: [u64; 6] = [
    0xf635_3250_8606_9a89,
    0xf5d8_238e_5766_61b8,
    0xc08f_fbdd_9925_bc53,
    0x6055_aeff_ff71_cf8b,
    0x0356_04e3_f698_ecf6,
    0x8a23_c8a6_b115_a2fb,
];
