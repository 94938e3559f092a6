//! End-to-end regime comparisons: the pipelines behind Figures 12-15 run
//! at test scale and must reproduce the paper's qualitative results.

use eft_vqa::clifford_vqe::{clifford_vqe, genome_energy, reevaluate_genome, CliffordVqeConfig};
use eft_vqa::hamiltonians::{heisenberg_1d, ising_1d, molecular, Molecule};
use eft_vqa::vqe::{run_vqe, VqeConfig, VqeOptimizer};
use eft_vqa::{relative_improvement, ExecutionRegime};
use eftq_circuit::ansatz::{blocked_all_to_all, fully_connected_hea};
use eftq_optim::GeneticConfig;
use eftq_stabilizer::StabilizerNoise;

fn quick_clifford() -> CliffordVqeConfig {
    // Large enough that both regimes' searches reliably reach near-optimal
    // genomes (so γ reflects the regimes' noise floors, not search luck),
    // small enough that the suite stays fast. The frame-batched estimator,
    // fitness memoization, and threaded evaluation make this budget far
    // cheaper than the seed's smaller one.
    CliffordVqeConfig {
        ga: GeneticConfig {
            population: 48,
            generations: 80,
            threads: 4,
            ..GeneticConfig::default()
        },
        shots: 16,
        ..CliffordVqeConfig::default()
    }
}

/// The Figure-13 pipeline at 6 qubits: density-matrix VQE, γ > 1.
#[test]
fn dm_vqe_gamma_above_one() {
    let h = ising_1d(6, 0.5);
    let e0 = h.ground_energy_default().unwrap();
    let ansatz = fully_connected_hea(6, 1);
    let config = VqeConfig {
        max_iters: 150,
        restarts: 2,
        ..VqeConfig::default()
    };
    let pqec = run_vqe(&ansatz, &h, &ExecutionRegime::pqec_default(), &config);
    let nisq = run_vqe(&ansatz, &h, &ExecutionRegime::nisq_default(), &config);
    let gamma = relative_improvement(e0, pqec.best_energy, nisq.best_energy);
    assert!(gamma > 1.0, "gamma = {gamma}");
    // Both are variational: never below the exact ground energy by more
    // than numerical noise (pQEC noise can push measured energy below E0
    // only through the tiny logical error channels).
    assert!(pqec.best_energy > e0 - 0.5);
}

/// The Figure-12 pipeline at 10-16 qubits: Clifford VQE with the genetic
/// search, γ > 1 for Ising and Heisenberg.
#[test]
fn clifford_vqe_gamma_above_one() {
    for (h, label) in [
        (ising_1d(12, 1.0), "Ising-12"),
        (heisenberg_1d(12, 0.5), "Heisenberg-12"),
    ] {
        let ansatz = fully_connected_hea(12, 1);
        let cfg = quick_clifford();
        let pqec_noise = ExecutionRegime::pqec_default().stabilizer_noise();
        let nisq_noise = ExecutionRegime::nisq_default().stabilizer_noise();
        let e0 = clifford_vqe(&ansatz, &h, &StabilizerNoise::noiseless(), &cfg).best_energy;
        let pqec = clifford_vqe(&ansatz, &h, &pqec_noise, &cfg);
        let nisq = clifford_vqe(&ansatz, &h, &nisq_noise, &cfg);
        // Re-evaluate both winners with an unbiased 128-shot estimate: the
        // few-shot search exploits sampling noise, which would otherwise
        // flatter the noisier regime.
        let e_pqec = reevaluate_genome(&ansatz, &h, &pqec_noise, &pqec.best_genome, 128, 11, 2);
        let e_nisq = reevaluate_genome(&ansatz, &h, &nisq_noise, &nisq.best_genome, 128, 11, 2);
        // E0 is "the lowest stabilizer state energy obtained in the
        // absence of noise" (Section 5.3.1) — across everything we saw.
        let e0 = e0
            .min(genome_energy(&ansatz, &h, &pqec.best_genome))
            .min(genome_energy(&ansatz, &h, &nisq.best_genome));
        let gamma = relative_improvement(e0, e_pqec, e_nisq);
        assert!(
            gamma > 1.0,
            "{label}: gamma = {gamma} ({e_pqec} vs {e_nisq}, e0 {e0})"
        );
    }
}

/// The Figure-14 pipeline: blocked vs FCHE under pQEC both produce
/// finite, comparable energies; the blocked schedule is 2x faster.
#[test]
fn ansatz_comparison_pipeline() {
    let h = ising_1d(16, 1.0);
    let cfg = quick_clifford();
    let noise = ExecutionRegime::pqec_default().stabilizer_noise();
    let blocked = blocked_all_to_all(16, 1);
    let fche = fully_connected_hea(16, 1);
    let eb = clifford_vqe(&blocked, &h, &noise, &cfg);
    let ef = clifford_vqe(&fche, &h, &noise, &cfg);
    assert!(eb.best_energy.is_finite() && ef.best_energy.is_finite());
    // Schedule claim (Section 6.2): blocked needs < half the FCHE cycles.
    use eftq_layout::layouts::LayoutModel;
    use eftq_layout::schedule::{schedule_ansatz, ScheduleConfig};
    let sb = schedule_ansatz(
        eftq_circuit::AnsatzKind::BlockedAllToAll,
        16,
        1,
        &LayoutModel::proposed(),
        &ScheduleConfig::default(),
    );
    let sf = schedule_ansatz(
        eftq_circuit::AnsatzKind::FullyConnectedHea,
        16,
        1,
        &LayoutModel::proposed(),
        &ScheduleConfig::default(),
    );
    assert!(
        2 * sb.cycles <= sf.cycles + 20,
        "{} vs {}",
        sb.cycles,
        sf.cycles
    );
}

/// The Figure-15 pipeline: VarSaw mitigation never hurts and typically
/// helps convergence under readout error.
#[test]
fn varsaw_pipeline() {
    let h = heisenberg_1d(5, 1.0);
    let ansatz = fully_connected_hea(5, 1);
    let base = VqeConfig {
        max_iters: 80,
        restarts: 2,
        ..VqeConfig::default()
    };
    for regime in [
        ExecutionRegime::nisq_default(),
        ExecutionRegime::pqec_default(),
    ] {
        let plain = run_vqe(&ansatz, &h, &regime, &base);
        let mitigated = run_vqe(
            &ansatz,
            &h,
            &regime,
            &VqeConfig {
                mitigate_measurement: true,
                ..base
            },
        );
        assert!(
            mitigated.best_energy <= plain.best_energy + 0.05,
            "{}: {} vs {}",
            regime.name(),
            mitigated.best_energy,
            plain.best_energy
        );
    }
}

/// Chemistry pipeline: a synthetic molecular Hamiltonian flows through
/// grouping, Lanczos and the Clifford VQE.
#[test]
fn chemistry_pipeline() {
    let h = molecular(Molecule::LiH, 1.0);
    assert_eq!(h.num_terms(), 631);
    let e0 = h.ground_energy_default().unwrap();
    assert!(e0.is_finite() && e0 < 0.0);
    // Measurement grouping compresses the 631 terms substantially.
    let settings = eft_vqa::varsaw::measurement_settings(&h);
    assert!(settings < h.num_terms() / 2, "{settings}");
    // A short Clifford VQE produces a finite upper bound on E0.
    let ansatz = fully_connected_hea(12, 1);
    let noise = ExecutionRegime::pqec_default().stabilizer_noise();
    let out = clifford_vqe(&ansatz, &h, &noise, &quick_clifford());
    assert!(out.best_energy >= e0 - 1.0);
}

/// All three optimizers drive the same problem to a finite answer.
#[test]
fn optimizer_matrix() {
    let h = ising_1d(4, 0.25);
    let ansatz = fully_connected_hea(4, 1);
    for opt in [
        VqeOptimizer::NelderMead,
        VqeOptimizer::CoordinateSearch,
        VqeOptimizer::Spsa,
    ] {
        let out = run_vqe(
            &ansatz,
            &h,
            &ExecutionRegime::pqec_default(),
            &VqeConfig {
                optimizer: opt,
                max_iters: 30,
                restarts: 1,
                ..VqeConfig::default()
            },
        );
        assert!(out.best_energy.is_finite());
    }
}
