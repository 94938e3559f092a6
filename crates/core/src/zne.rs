//! Zero-noise extrapolation (ZNE) for EFT-VQA.
//!
//! Section 7 of the paper argues that pre/post-processing error
//! mitigation — VQA initialization, circuit optimization and **zero-noise
//! extrapolation** — transitions naturally from NISQ to the EFT regime,
//! "although their exact implementation would need to be appropriately
//! modified to be cognizant of QEC and FT computation". This module
//! provides that EFT-aware ZNE:
//!
//! * Noise scaling multiplies the *channel strengths* of the regime's
//!   noise model (digital gate folding is meaningless once gates are
//!   error-corrected, but the injected-rotation error — the dominant pQEC
//!   channel — scales directly with the number of redundant injections).
//! * Richardson extrapolation fits the energy at several scale factors and
//!   evaluates the fit at zero noise.

use crate::regimes::ExecutionRegime;
use crate::vqe::noisy_energy;
use eftq_circuit::Ansatz;
use eftq_pauli::PauliSum;
use eftq_statesim::noise::NoiseModel;
use serde::{Deserialize, Serialize};

/// Scales every channel strength of a noise model by `factor` (clamping
/// probabilities to valid ranges). Relaxation times divide by the factor
/// (stronger noise = faster decay).
///
/// # Panics
///
/// Panics if `factor < 0`.
pub fn scale_noise(noise: &NoiseModel, factor: f64) -> NoiseModel {
    assert!(factor >= 0.0, "scale factor must be non-negative");
    let clamp = |p: f64| (p * factor).min(0.75);
    let clamp_meas = |p: f64| (p * factor).min(0.45);
    let mut out = noise.clone();
    out.depol_1q = clamp(noise.depol_1q);
    out.depol_2q = clamp(noise.depol_2q);
    out.depol_rz = clamp(noise.depol_rz);
    out.depol_rot_xy = clamp(noise.depol_rot_xy);
    out.meas_flip = clamp_meas(noise.meas_flip);
    out.idle_depol = clamp(noise.idle_depol);
    if let Some(r) = &mut out.relaxation {
        if factor > 0.0 {
            r.t1 /= factor;
            r.t2 /= factor;
        } else {
            // Zero noise: relaxation disappears.
            out.relaxation = None;
        }
    }
    out
}

/// Result of a zero-noise extrapolation.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ZneResult {
    /// The scale factors used.
    pub factors: Vec<f64>,
    /// Measured energy at each factor.
    pub energies: Vec<f64>,
    /// The Richardson (polynomial) extrapolation to zero noise.
    pub extrapolated: f64,
}

/// Richardson extrapolation: the unique degree-`(n-1)` polynomial through
/// `(factors, values)` evaluated at 0 (Lagrange form).
///
/// # Panics
///
/// Panics if the inputs are empty, differ in length, or contain duplicate
/// factors.
pub fn richardson_extrapolate(factors: &[f64], values: &[f64]) -> f64 {
    assert!(!factors.is_empty(), "need at least one point");
    assert_eq!(factors.len(), values.len(), "length mismatch");
    let mut total = 0.0;
    for i in 0..factors.len() {
        let mut weight = 1.0;
        for j in 0..factors.len() {
            if i != j {
                let denom = factors[i] - factors[j];
                assert!(denom.abs() > 1e-12, "duplicate scale factors");
                weight *= (0.0 - factors[j]) / denom;
            }
        }
        total += weight * values[i];
    }
    total
}

/// Evaluates the regime-noisy energy of a bound parameter vector at one
/// noise scale: [`noisy_energy`] (unmitigated) under the regime's noise
/// model scaled by [`scale_noise`]. At `factor = 1` this is the VQE
/// objective itself.
pub fn energy_at_scale(
    ansatz: &Ansatz,
    params: &[f64],
    regime: &ExecutionRegime,
    observable: &PauliSum,
    factor: f64,
) -> f64 {
    noisy_energy(
        ansatz,
        params,
        &scale_noise(&regime.noise_model(), factor),
        observable,
        false,
    )
}

/// Zero-noise extrapolated energy at `params`, using the given scale
/// factors (conventionally `[1, 2, 3]`).
///
/// # Panics
///
/// Panics if `factors` is empty or contains duplicates/negative values.
pub fn zne_energy(
    ansatz: &Ansatz,
    params: &[f64],
    regime: &ExecutionRegime,
    observable: &PauliSum,
    factors: &[f64],
) -> ZneResult {
    assert!(!factors.is_empty(), "need at least one scale factor");
    let energies: Vec<f64> = factors
        .iter()
        .map(|&f| energy_at_scale(ansatz, params, regime, observable, f))
        .collect();
    ZneResult {
        factors: factors.to_vec(),
        energies: energies.clone(),
        extrapolated: richardson_extrapolate(factors, &energies),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hamiltonians::ising_1d;
    use eftq_circuit::ansatz::fully_connected_hea;

    #[test]
    fn richardson_linear_exact() {
        // y = 3 - 2x → y(0) = 3 from any two points.
        let y = richardson_extrapolate(&[1.0, 2.0], &[1.0, -1.0]);
        assert!((y - 3.0).abs() < 1e-12);
    }

    #[test]
    fn richardson_quadratic_exact() {
        // y = 1 + x² → y(0) = 1 from three points.
        let y = richardson_extrapolate(&[1.0, 2.0, 3.0], &[2.0, 5.0, 10.0]);
        assert!((y - 1.0).abs() < 1e-10);
    }

    #[test]
    fn scaling_is_monotone_and_clamped() {
        let base = ExecutionRegime::nisq_default().noise_model();
        let double = scale_noise(&base, 2.0);
        assert!((double.depol_2q - 2e-3).abs() < 1e-15);
        let huge = scale_noise(&base, 1e6);
        assert!(huge.depol_2q <= 0.75);
        assert!(huge.meas_flip <= 0.45);
        let zero = scale_noise(&base, 0.0);
        assert!(zero.is_noiseless());
    }

    #[test]
    fn zne_recovers_most_of_the_noiseless_energy() {
        let h = ising_1d(4, 1.0);
        let ansatz = fully_connected_hea(4, 1);
        let params: Vec<f64> = (0..ansatz.num_params()).map(|i| 0.23 * i as f64).collect();
        let regime = ExecutionRegime::nisq_default();

        let noiseless = energy_at_scale(&ansatz, &params, &regime, &h, 0.0);
        let noisy = energy_at_scale(&ansatz, &params, &regime, &h, 1.0);
        let zne = zne_energy(&ansatz, &params, &regime, &h, &[1.0, 1.5, 2.0]);
        let err_noisy = (noisy - noiseless).abs();
        let err_zne = (zne.extrapolated - noiseless).abs();
        assert!(
            err_zne < err_noisy,
            "ZNE should beat raw: {err_zne} vs {err_noisy} (noiseless {noiseless})"
        );
        // Substantial recovery, not a fluke.
        assert!(err_zne < 0.5 * err_noisy, "{err_zne} vs {err_noisy}");
    }

    #[test]
    fn zne_works_under_pqec_too() {
        // The EFT-aware part: scaling the injection channel extrapolates
        // the dominant pQEC error away.
        let h = ising_1d(4, 0.5);
        let ansatz = fully_connected_hea(4, 1);
        let params: Vec<f64> = (0..ansatz.num_params()).map(|i| 0.31 * i as f64).collect();
        let regime = ExecutionRegime::pqec_default();
        let noiseless = energy_at_scale(&ansatz, &params, &regime, &h, 0.0);
        let noisy = energy_at_scale(&ansatz, &params, &regime, &h, 1.0);
        let zne = zne_energy(&ansatz, &params, &regime, &h, &[1.0, 2.0]);
        assert!((zne.extrapolated - noiseless).abs() <= (noisy - noiseless).abs() + 1e-12);
    }

    #[test]
    fn unscaled_energy_is_the_vqe_objective() {
        // ZNE's factor-1 point must be exactly what `run_vqe` minimizes:
        // scaling by 1 leaves NISQ's relaxation times and pQEC's logical
        // rates untouched, bit for bit.
        let h = ising_1d(4, 0.5);
        let ansatz = fully_connected_hea(4, 1);
        let params: Vec<f64> = (0..ansatz.num_params()).map(|i| 0.17 * i as f64).collect();
        for regime in [
            ExecutionRegime::nisq_default(),
            ExecutionRegime::pqec_default(),
        ] {
            let noise = regime.noise_model();
            assert_eq!(scale_noise(&noise, 1.0), noise, "{}", regime.name());
            let zne = energy_at_scale(&ansatz, &params, &regime, &h, 1.0);
            let vqe = noisy_energy(&ansatz, &params, &noise, &h, false);
            assert_eq!(zne.to_bits(), vqe.to_bits(), "{}", regime.name());
        }
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_factors_rejected() {
        let _ = richardson_extrapolate(&[1.0, 1.0], &[0.0, 0.0]);
    }
}
