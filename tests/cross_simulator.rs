//! Cross-simulator consistency: the three simulation substrates must
//! agree wherever their domains overlap.

use eftq_circuit::ansatz::{fully_connected_hea, linear_hea};
use eftq_circuit::transpile::{lower_clifford_rotations, rx_to_rz};
use eftq_circuit::Circuit;
use eftq_numerics::SeedSequence;
use eftq_pauli::{PauliString, PauliSum};
use eftq_stabilizer::{estimate_energy, StabilizerNoise, Tableau};
use eftq_statesim::{DensityMatrix, StateVector};
use rand::Rng;

fn random_clifford_circuit(n: usize, gates: usize, seed: u64) -> Circuit {
    let mut rng = SeedSequence::new(seed).rng();
    let mut c = Circuit::new(n);
    for _ in 0..gates {
        match rng.gen_range(0..8) {
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
                c.rz(rng.gen_range(0..n), std::f64::consts::FRAC_PI_2);
            }
            5 => {
                c.rx(rng.gen_range(0..n), std::f64::consts::PI);
            }
            _ => {
                let a = rng.gen_range(0..n);
                let b = (a + 1 + rng.gen_range(0..n - 1)) % n;
                if rng.gen_bool(0.5) {
                    c.cx(a, b);
                } else {
                    c.cz(a, b);
                }
            }
        }
    }
    c
}

fn random_observable(n: usize, terms: usize, seed: u64) -> PauliSum {
    let mut rng = SeedSequence::new(seed).derive("obs").rng();
    let mut h = PauliSum::new(n);
    for _ in 0..terms {
        let letters: Vec<eftq_pauli::Pauli> = (0..n)
            .map(|_| eftq_pauli::Pauli::ALL[rng.gen_range(0..4usize)])
            .collect();
        h.push(rng.gen::<f64>() - 0.5, PauliString::from_paulis(letters));
    }
    h
}

#[test]
fn tableau_matches_statevector_on_random_cliffords() {
    for seed in 0..15u64 {
        let n = 3 + (seed as usize % 3);
        let circuit = random_clifford_circuit(n, 40, seed);
        let h = random_observable(n, 12, seed);
        let psi = StateVector::from_circuit(&circuit);
        let mut tableau = Tableau::new(n);
        tableau.run(&circuit);
        let sv_energy = psi.expectation(&h);
        let tb_energy = tableau.energy(&h);
        assert!(
            (sv_energy - tb_energy).abs() < 1e-9,
            "seed {seed}: sv {sv_energy} vs tableau {tb_energy}"
        );
    }
}

#[test]
fn density_matrix_matches_statevector_noiselessly() {
    let ansatz = fully_connected_hea(5, 2);
    let params: Vec<f64> = (0..ansatz.num_params()).map(|i| 0.17 * i as f64).collect();
    let circuit = ansatz.bind(&params);
    let psi = StateVector::from_circuit(&circuit);
    let rho = DensityMatrix::from_circuit(&circuit);
    let h = random_observable(5, 20, 99);
    assert!((psi.expectation(&h) - rho.expectation(&h)).abs() < 1e-9);
    assert!((rho.fidelity_with_pure(&psi) - 1.0).abs() < 1e-9);
}

#[test]
fn noiseless_stabilizer_estimate_matches_statevector_for_clifford_ansatz() {
    let ansatz = linear_hea(6, 1);
    let ks: Vec<u8> = (0..ansatz.num_params())
        .map(|i| ((i * 3) % 4) as u8)
        .collect();
    let circuit = ansatz.bind_clifford(&ks);
    let h = eft_vqa::hamiltonians::ising_1d(6, 1.0);
    let sv = StateVector::from_circuit(&circuit).expectation(&h);
    let stab = estimate_energy(
        &circuit,
        &h,
        &StabilizerNoise::noiseless(),
        1,
        SeedSequence::new(0),
    )
    .energy;
    assert!((sv - stab).abs() < 1e-9, "{sv} vs {stab}");
}

#[test]
fn transpile_passes_preserve_statevector_semantics() {
    let mut c = Circuit::new(3);
    c.rx(0, 0.7)
        .ry(1, 1.3)
        .rz(2, std::f64::consts::FRAC_PI_2)
        .cx(0, 1)
        .rx(2, std::f64::consts::PI)
        .rz(0, 0.4);
    let reference = StateVector::from_circuit(&c);
    let lowered = lower_clifford_rotations(&rx_to_rz(&c));
    let transformed = StateVector::from_circuit(&lowered);
    assert!(
        (reference.fidelity(&transformed) - 1.0).abs() < 1e-9,
        "transpilation changed the state"
    );
    // After the passes, only Rz-type non-Clifford rotations remain.
    for g in lowered.gates() {
        if g.is_symbolic() || !g.is_clifford(1e-9) {
            assert_eq!(g.name(), "rz", "{g}");
        }
    }
}

#[test]
fn noisy_dm_and_noisy_stabilizer_agree_on_depolarized_bell_zz() {
    // Both substrates model 2q depolarizing identically: ⟨ZZ⟩ of a Bell
    // pair after one noisy CNOT is 1 − 16p/15.
    let p = 0.12;
    let mut c = Circuit::new(2);
    c.h(0).cx(0, 1);
    let mut zz = PauliSum::new(2);
    zz.push_str(1.0, "ZZ");

    let mut dm_noise = eftq_statesim::noise::NoiseModel::noiseless();
    dm_noise.depol_2q = p;
    let (rho, _) = eftq_statesim::noise::run_noisy(&c, &dm_noise);
    let dm_value = rho.expectation(&zz);

    let mut st_noise = StabilizerNoise::noiseless();
    st_noise.depol_2q = p;
    let mc = estimate_energy(&c, &zz, &st_noise, 4000, SeedSequence::new(5));

    let analytic = 1.0 - 16.0 * p / 15.0;
    assert!((dm_value - analytic).abs() < 1e-10);
    assert!(
        (mc.energy - analytic).abs() < 0.03,
        "{} vs {analytic}",
        mc.energy
    );
}

#[test]
fn noisy_dm_and_noisy_stabilizer_agree_on_clifford_fche() {
    // The same Pauli noise on both substrates: single-qubit depolarizing
    // on every rotation site, two-qubit depolarizing on each of the ten
    // entangler CNOTs, and (1 − 2p)^weight readout damping. Every rate is
    // set explicitly rather than taken from a regime preset, whose pQEC
    // model charges injection error on different rotation sites in the
    // two substrates.
    let ansatz = fully_connected_hea(5, 1);
    let ks: Vec<u8> = (0..ansatz.num_params())
        .map(|i| ((2 * i + 1) % 4) as u8)
        .collect();
    let circuit = ansatz.bind_clifford(&ks);
    let h = eft_vqa::hamiltonians::heisenberg_1d(5, 1.0);
    let (p_1q, p_2q, p_meas) = (0.004, 0.01, 0.01);

    let mut dm_noise = eftq_statesim::noise::NoiseModel::noiseless();
    dm_noise.depol_1q = p_1q;
    dm_noise.depol_rz = p_1q;
    dm_noise.depol_rot_xy = p_1q;
    dm_noise.depol_2q = p_2q;
    dm_noise.meas_flip = p_meas;
    let (rho, _) = eftq_statesim::noise::run_noisy(&circuit, &dm_noise);
    let exact = eft_vqa::varsaw::measured_energy(&rho, &h, p_meas, false);

    let mut st_noise = StabilizerNoise::noiseless();
    st_noise.depol_1q = p_1q;
    st_noise.depol_rz = p_1q;
    st_noise.depol_rot_xy = p_1q;
    st_noise.depol_2q = p_2q;
    st_noise.meas_flip = p_meas;
    let mc = estimate_energy(&circuit, &h, &st_noise, 4000, SeedSequence::new(5));

    let sigma = mc.std_error;
    assert!(sigma > 0.0, "a noisy estimate has shot noise");
    assert!(
        (mc.energy - exact).abs() < 4.0 * sigma,
        "stabilizer {} ± {sigma} vs density matrix {exact}",
        mc.energy
    );
    // The agreement is only evidence if the noise moves the energy: the
    // noiseless value must lie far outside the shot-noise band.
    let noiseless = StateVector::from_circuit(&circuit).expectation(&h);
    assert!(
        (exact - noiseless).abs() > 10.0 * sigma,
        "noise shifts the energy by only {} (σ = {sigma})",
        exact - noiseless
    );
}
