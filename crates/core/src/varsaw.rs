//! VarSaw-style measurement-error mitigation (Figure 15).
//!
//! VarSaw (Dangwal et al., ASPLOS 2023) is an application-tailored
//! *measurement* error mitigation for VQAs: it corrects the readout
//! corruption of each Hamiltonian term's estimate, reusing calibration
//! across the qubit-wise-commuting measurement groups. The mechanism that
//! matters for Figure 15 is the per-term readout correction, applied here
//! in closed form to exact term expectations of an `eftq-statesim` density
//! matrix:
//!
//! * Without mitigation, a term of weight `w` estimated from flipped
//!   readouts is damped by `(1 − 2·p_meas)^w`, which *distorts* the energy
//!   landscape (terms of different weight are damped differently), so the
//!   optimizer converges to the wrong point.
//! * With mitigation, the calibrated damping is divided back out per QWC
//!   group, restoring the landscape up to gate noise.

use eftq_pauli::{group_qubit_wise_commuting, PauliSum};
use eftq_statesim::DensityMatrix;

/// Energy estimate from a state under readout error, optionally
/// VarSaw-corrected.
///
/// `meas_flip` is the symmetric per-qubit readout flip probability. The
/// measured estimate of a weight-`w` term is damped by `(1 − 2p)^w`;
/// mitigation inverts that damping using the (assumed known) calibration,
/// exactly the inversion VarSaw performs per measurement subset.
///
/// # Panics
///
/// Panics unless `0 ≤ meas_flip < 0.5`.
pub fn measured_energy(
    rho: &DensityMatrix,
    observable: &PauliSum,
    meas_flip: f64,
    mitigate: bool,
) -> f64 {
    assert!(
        (0.0..0.5).contains(&meas_flip),
        "readout flip must be in [0, 0.5), got {meas_flip}"
    );
    let damping_base = 1.0 - 2.0 * meas_flip;
    // Group terms as VarSaw does — one calibration per QWC group. The
    // grouping does not change the ideal value but mirrors the real
    // measurement procedure (and its cost model).
    let groups = group_qubit_wise_commuting(observable);
    let mut energy = 0.0;
    for group in &groups {
        for term in &group.terms {
            let w = term.string.weight() as i32;
            let damping = damping_base.powi(w);
            let raw = rho.expectation_pauli(&term.string) * damping;
            let corrected = if mitigate { raw / damping } else { raw };
            energy += term.coefficient * corrected;
        }
    }
    energy
}

/// The number of measurement settings (QWC groups) VarSaw calibrates for
/// an observable — the quantity its savings are measured against.
pub fn measurement_settings(observable: &PauliSum) -> usize {
    group_qubit_wise_commuting(observable).len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use eftq_circuit::Circuit;

    fn bell_rho() -> DensityMatrix {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        DensityMatrix::from_circuit(&c)
    }

    fn zz_plus_z() -> PauliSum {
        let mut h = PauliSum::new(2);
        h.push_str(1.0, "ZZ");
        h.push_str(0.5, "ZI");
        h
    }

    #[test]
    fn mitigated_equals_ideal() {
        let rho = bell_rho();
        let h = zz_plus_z();
        let ideal = rho.expectation(&h);
        let mitigated = measured_energy(&rho, &h, 0.08, true);
        assert!((mitigated - ideal).abs() < 1e-12);
    }

    #[test]
    fn unmitigated_is_damped_weight_dependently() {
        let rho = bell_rho();
        let h = zz_plus_z();
        let raw = measured_energy(&rho, &h, 0.1, false);
        // ⟨ZZ⟩ = 1 damped by 0.8², ⟨ZI⟩ = 0 anyway.
        assert!((raw - 0.64).abs() < 1e-12, "{raw}");
    }

    #[test]
    fn zero_flip_makes_both_equal() {
        let rho = bell_rho();
        let h = zz_plus_z();
        let a = measured_energy(&rho, &h, 0.0, false);
        let b = measured_energy(&rho, &h, 0.0, true);
        assert!((a - b).abs() < 1e-15);
    }

    #[test]
    fn distortion_is_weight_dependent_not_uniform() {
        // A mix of weight-1 and weight-2 terms is *not* uniformly scaled —
        // the property that breaks the optimizer without mitigation.
        let mut c = Circuit::new(2);
        c.x(0);
        let rho = DensityMatrix::from_circuit(&c);
        let mut h = PauliSum::new(2);
        h.push_str(1.0, "ZZ"); // ⟨ZZ⟩ = −1
        h.push_str(1.0, "IZ"); // ⟨IZ⟩ = +1
        let raw = measured_energy(&rho, &h, 0.1, false);
        // −0.64 + 0.8 = 0.16, while a uniform damping of the ideal 0 would
        // give 0.
        assert!((raw - 0.16).abs() < 1e-12, "{raw}");
    }

    #[test]
    fn settings_count_matches_grouping() {
        let h = zz_plus_z();
        assert_eq!(measurement_settings(&h), 1); // both are Z-type
        let mut mixed = PauliSum::new(2);
        mixed.push_str(1.0, "XX");
        mixed.push_str(1.0, "ZZ");
        assert_eq!(measurement_settings(&mixed), 2);
    }

    #[test]
    #[should_panic(expected = "readout flip")]
    fn rejects_bad_flip() {
        let rho = bell_rho();
        let _ = measured_energy(&rho, &zz_plus_z(), 0.6, false);
    }
}
