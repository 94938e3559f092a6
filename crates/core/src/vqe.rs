//! The density-matrix VQE driver (Figures 13 and 15).
//!
//! One VQE run: a parameterized ansatz, a Hamiltonian, an execution regime
//! (whose noise model shapes every energy evaluation) and a classical
//! optimizer. The paper runs Cobyla and ImFil with three to five seeds and
//! reports the best (Section 5.2.1); [`run_vqe`] mirrors that protocol
//! with Nelder–Mead / coordinate-search / SPSA and explicit restart seeds.

use crate::regimes::ExecutionRegime;
use crate::varsaw::measured_energy;
use eftq_circuit::Ansatz;
use eftq_numerics::SeedSequence;
use eftq_optim::{CoordinateSearch, NelderMead, OptimResult, Optimizer, Spsa};
use eftq_pauli::PauliSum;
use eftq_statesim::noise::{run_noisy, NoiseModel};
use rand::Rng;

/// Which classical optimizer drives the loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VqeOptimizer {
    /// Nelder–Mead simplex (the Cobyla stand-in).
    NelderMead,
    /// Coordinate/stencil search (the ImFil stand-in).
    CoordinateSearch,
    /// SPSA.
    Spsa,
}

/// VQE configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct VqeConfig {
    /// Classical optimizer.
    pub optimizer: VqeOptimizer,
    /// Optimizer iteration budget per restart.
    pub max_iters: usize,
    /// Independent restarts ("three to five seeds", Section 5.2.1).
    pub restarts: usize,
    /// Root seed.
    pub seed: u64,
    /// Apply VarSaw-style measurement mitigation to every energy
    /// evaluation (Figure 15).
    pub mitigate_measurement: bool,
}

impl Default for VqeConfig {
    fn default() -> Self {
        VqeConfig {
            optimizer: VqeOptimizer::NelderMead,
            max_iters: 120,
            restarts: 3,
            seed: 0xefa_2025,
            mitigate_measurement: false,
        }
    }
}

/// Outcome of a VQE run.
#[derive(Clone, Debug, PartialEq)]
pub struct VqeOutcome {
    /// Best (lowest) energy across restarts.
    pub best_energy: f64,
    /// Parameters achieving it.
    pub best_params: Vec<f64>,
    /// Best-so-far energy trace of the winning restart.
    pub history: Vec<f64>,
    /// Total objective evaluations across restarts.
    pub evaluations: usize,
}

/// Evaluates the noisy energy of one parameter vector: the one
/// density-matrix energy behind both the VQE objective ([`run_vqe`], with
/// [`ExecutionRegime::noise_model`]) and zero-noise extrapolation
/// ([`crate::zne::energy_at_scale`], with a scaled model).
///
/// The bound circuit runs through `noise`'s density-matrix channels; the
/// energy is then estimated under its readout error, with or without
/// VarSaw mitigation.
pub fn noisy_energy(
    ansatz: &Ansatz,
    params: &[f64],
    noise: &NoiseModel,
    observable: &PauliSum,
    mitigate: bool,
) -> f64 {
    let circuit = ansatz.bind(params);
    // Readout error is handled analytically at estimation time (the
    // measured_energy damping), not as a channel.
    let channels = NoiseModel {
        meas_flip: 0.0,
        ..noise.clone()
    };
    let (rho, _) = run_noisy(&circuit, &channels);
    measured_energy(&rho, observable, noise.meas_flip.min(0.49), mitigate)
}

/// Runs VQE under an execution regime.
///
/// # Panics
///
/// Panics if the ansatz and observable disagree on qubit count, if
/// `restarts == 0`, or if the register exceeds the density-matrix limit.
pub fn run_vqe(
    ansatz: &Ansatz,
    observable: &PauliSum,
    regime: &ExecutionRegime,
    config: &VqeConfig,
) -> VqeOutcome {
    assert_eq!(
        ansatz.num_qubits(),
        observable.num_qubits(),
        "ansatz/observable size mismatch"
    );
    assert!(config.restarts >= 1, "need at least one restart");
    let seeds = SeedSequence::new(config.seed).derive("vqe");
    let num_params = ansatz.num_params();
    let noise = regime.noise_model();

    let mut best: Option<(OptimResult, Vec<f64>)> = None;
    let mut total_evals = 0usize;
    for restart in 0..config.restarts {
        let mut rng = seeds.derive_index(restart as u64).rng();
        let x0: Vec<f64> = (0..num_params)
            .map(|_| rng.gen::<f64>() * std::f64::consts::PI - std::f64::consts::FRAC_PI_2)
            .collect();
        let mut objective = |params: &[f64]| {
            noisy_energy(
                ansatz,
                params,
                &noise,
                observable,
                config.mitigate_measurement,
            )
        };
        let result = match config.optimizer {
            VqeOptimizer::NelderMead => NelderMead {
                max_iters: config.max_iters,
                ..NelderMead::default()
            }
            .minimize(&mut objective, &x0),
            VqeOptimizer::CoordinateSearch => CoordinateSearch {
                max_evals: config.max_iters * num_params.max(1),
                ..CoordinateSearch::default()
            }
            .minimize(&mut objective, &x0),
            VqeOptimizer::Spsa => Spsa {
                max_iters: config.max_iters,
                seed: seeds.derive("spsa").derive_index(restart as u64).seed(),
                ..Spsa::default()
            }
            .minimize(&mut objective, &x0),
        };
        total_evals += result.evaluations;
        if best
            .as_ref()
            .map_or(true, |(b, _)| result.best_value < b.best_value)
        {
            let params = result.best_params.clone();
            best = Some((result, params));
        }
    }
    let (result, best_params) = best.expect("at least one restart ran");
    VqeOutcome {
        best_energy: result.best_value,
        best_params,
        history: result.history,
        evaluations: total_evals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gamma::relative_improvement;
    use crate::hamiltonians;
    use eftq_circuit::ansatz::fully_connected_hea;

    fn quick_config() -> VqeConfig {
        VqeConfig {
            max_iters: 40,
            restarts: 2,
            ..VqeConfig::default()
        }
    }

    #[test]
    fn vqe_reaches_near_ground_noiselessly() {
        // 4-qubit Ising, pQEC noise is tiny for Cliffords; use a depth-1
        // FCHE which is expressive enough to get close.
        let h = hamiltonians::ising_1d(4, 0.5);
        let e0 = h.ground_energy_default().unwrap();
        let a = fully_connected_hea(4, 1);
        let out = run_vqe(
            &a,
            &h,
            &ExecutionRegime::pqec_default(),
            &VqeConfig {
                max_iters: 150,
                restarts: 3,
                ..VqeConfig::default()
            },
        );
        assert!(out.best_energy >= e0 - 1e-6, "below ground?");
        assert!(
            out.best_energy < e0 * 0.8,
            "should reach 80% of ground: {} vs {e0}",
            out.best_energy
        );
    }

    #[test]
    fn pqec_beats_nisq_on_small_ising() {
        let h = hamiltonians::ising_1d(4, 1.0);
        let e0 = h.ground_energy_default().unwrap();
        let a = fully_connected_hea(4, 1);
        let pqec = run_vqe(&a, &h, &ExecutionRegime::pqec_default(), &quick_config());
        let nisq = run_vqe(&a, &h, &ExecutionRegime::nisq_default(), &quick_config());
        let gamma = relative_improvement(e0, pqec.best_energy, nisq.best_energy);
        assert!(gamma > 1.0, "γ = {gamma}");
    }

    #[test]
    fn mitigation_improves_convergence() {
        // Figure 15's mechanism at test scale.
        let h = hamiltonians::heisenberg_1d(4, 1.0);
        let a = fully_connected_hea(4, 1);
        let plain = run_vqe(&a, &h, &ExecutionRegime::nisq_default(), &quick_config());
        let mitigated = run_vqe(
            &a,
            &h,
            &ExecutionRegime::nisq_default(),
            &VqeConfig {
                mitigate_measurement: true,
                ..quick_config()
            },
        );
        assert!(
            mitigated.best_energy <= plain.best_energy + 1e-9,
            "{} vs {}",
            mitigated.best_energy,
            plain.best_energy
        );
    }

    #[test]
    fn optimizers_all_run() {
        let h = hamiltonians::ising_1d(3, 0.25);
        let a = fully_connected_hea(3, 1);
        for opt in [
            VqeOptimizer::NelderMead,
            VqeOptimizer::CoordinateSearch,
            VqeOptimizer::Spsa,
        ] {
            let out = run_vqe(
                &a,
                &h,
                &ExecutionRegime::pqec_default(),
                &VqeConfig {
                    optimizer: opt,
                    max_iters: 20,
                    restarts: 1,
                    ..VqeConfig::default()
                },
            );
            assert!(out.best_energy.is_finite(), "{opt:?}");
            assert!(out.evaluations > 0);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let h = hamiltonians::ising_1d(3, 0.5);
        let a = fully_connected_hea(3, 1);
        let run = || run_vqe(&a, &h, &ExecutionRegime::pqec_default(), &quick_config());
        let x = run();
        let y = run();
        assert_eq!(x.best_energy, y.best_energy);
        assert_eq!(x.best_params, y.best_params);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn size_mismatch_rejected() {
        let h = hamiltonians::ising_1d(3, 0.5);
        let a = fully_connected_hea(4, 1);
        let _ = run_vqe(&a, &h, &ExecutionRegime::pqec_default(), &quick_config());
    }
}
