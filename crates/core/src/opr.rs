//! Optimal Parameter Resilience (OPR) — the noise-robustness property VQAs
//! rest on (Section 2.1).
//!
//! OPR (Wang et al.): parameters that minimize the loss on *noisy*
//! hardware often also minimize it on noiseless hardware. The paper leans
//! on this to argue that a VQA trained under pQEC noise transfers to the
//! ideal device. This module measures the property: optimize under a
//! regime's noise, transfer the winning parameters to a noiseless
//! evaluation, and compare against both the noisy optimum and a
//! random-parameter baseline.

use crate::regimes::ExecutionRegime;
use crate::vqe::{run_vqe, VqeConfig};
use eftq_circuit::Ansatz;
use eftq_numerics::SeedSequence;
use eftq_pauli::PauliSum;
use eftq_statesim::StateVector;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Result of an OPR transfer experiment.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct OprReport {
    /// Best energy seen during the noisy optimization.
    pub noisy_optimum: f64,
    /// Noiseless energy of the transferred (noisy-optimal) parameters.
    pub transferred: f64,
    /// Mean noiseless energy of random parameter vectors (the baseline
    /// transfer must beat for OPR to hold).
    pub random_baseline: f64,
    /// Exact ground energy (Lanczos) for context.
    pub ground_energy: f64,
}

impl OprReport {
    /// Whether OPR held: the transferred parameters beat random ones
    /// noiselessly.
    pub fn opr_holds(&self) -> bool {
        self.transferred < self.random_baseline
    }

    /// Fraction of the random-to-ground gap the transfer closes.
    pub fn transfer_quality(&self) -> f64 {
        let denom = self.random_baseline - self.ground_energy;
        if denom.abs() < 1e-12 {
            return 1.0;
        }
        (self.random_baseline - self.transferred) / denom
    }
}

/// Noiseless energy of one parameter vector.
pub fn noiseless_energy(ansatz: &Ansatz, params: &[f64], observable: &PauliSum) -> f64 {
    StateVector::from_circuit(&ansatz.bind(params)).expectation(observable)
}

/// Runs the OPR transfer experiment: optimize under `regime`'s noise,
/// evaluate the winner noiselessly, compare to `baseline_samples` random
/// parameter vectors.
///
/// # Panics
///
/// Panics on size mismatch or `baseline_samples == 0`.
pub fn parameter_transfer(
    ansatz: &Ansatz,
    observable: &PauliSum,
    regime: &ExecutionRegime,
    config: &VqeConfig,
    baseline_samples: usize,
) -> OprReport {
    assert!(baseline_samples > 0, "need at least one baseline sample");
    let outcome = run_vqe(ansatz, observable, regime, config);
    let transferred = noiseless_energy(ansatz, &outcome.best_params, observable);
    let mut rng = SeedSequence::new(config.seed).derive("opr-baseline").rng();
    let baseline: f64 = (0..baseline_samples)
        .map(|_| {
            let params: Vec<f64> = (0..ansatz.num_params())
                .map(|_| rng.gen::<f64>() * std::f64::consts::PI - std::f64::consts::FRAC_PI_2)
                .collect();
            noiseless_energy(ansatz, &params, observable)
        })
        .sum::<f64>()
        / baseline_samples as f64;
    let ground = observable
        .ground_energy_default()
        .expect("Lanczos on small observables");
    OprReport {
        noisy_optimum: outcome.best_energy,
        transferred,
        random_baseline: baseline,
        ground_energy: ground,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hamiltonians::{heisenberg_1d, ising_1d};
    use eftq_circuit::ansatz::fully_connected_hea;

    fn config() -> VqeConfig {
        VqeConfig {
            max_iters: 120,
            restarts: 2,
            ..VqeConfig::default()
        }
    }

    #[test]
    fn opr_holds_under_pqec() {
        let h = ising_1d(4, 0.5);
        let a = fully_connected_hea(4, 1);
        let report = parameter_transfer(&a, &h, &ExecutionRegime::pqec_default(), &config(), 20);
        assert!(report.opr_holds(), "{report:?}");
        assert!(report.transfer_quality() > 0.5, "{report:?}");
    }

    #[test]
    fn opr_holds_under_nisq() {
        // The paper's premise: even NISQ-noisy optima transfer, though the
        // optimization itself is harder.
        let h = heisenberg_1d(4, 1.0);
        let a = fully_connected_hea(4, 1);
        let report = parameter_transfer(&a, &h, &ExecutionRegime::nisq_default(), &config(), 20);
        assert!(report.opr_holds(), "{report:?}");
    }

    #[test]
    fn transferred_energy_bounded_by_ground() {
        let h = ising_1d(4, 1.0);
        let a = fully_connected_hea(4, 1);
        let report = parameter_transfer(&a, &h, &ExecutionRegime::pqec_default(), &config(), 10);
        assert!(report.transferred >= report.ground_energy - 1e-9);
        assert!(report.random_baseline >= report.ground_energy - 1e-9);
    }

    #[test]
    fn noiseless_energy_matches_statevector() {
        let h = ising_1d(3, 0.5);
        let a = fully_connected_hea(3, 1);
        let params = vec![0.1; a.num_params()];
        let direct = StateVector::from_circuit(&a.bind(&params)).expectation(&h);
        assert_eq!(noiseless_energy(&a, &params, &h), direct);
    }
}
