//! The Clifford-restricted VQE at scale (Figures 12 and 14).
//!
//! Section 5.2.2: rotation angles are constrained to multiples of π/2,
//! turning the ansatz into a Clifford circuit; a genetic algorithm
//! searches the discrete parameter space, and each candidate's energy is a
//! Monte-Carlo average of stabilizer expectations under the regime's Pauli
//! noise. The reference energy `E₀` for γ at 16+ qubits is the lowest
//! *noiseless* stabilizer energy found, exactly as the paper does
//! (Section 5.3.1): [`clifford_vqe`] under [`StabilizerNoise::noiseless`].

use eftq_circuit::Ansatz;
use eftq_numerics::SeedSequence;
use eftq_optim::genetic::{minimize_genetic_batched, GeneticConfig};
use eftq_pauli::PauliSum;
use eftq_stabilizer::{
    estimate_energy, estimate_energy_threaded, BoundEvaluator, HeisenbergEvaluator, NoiseTemplate,
    StabilizerNoise,
};

/// Configuration of a Clifford VQE run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CliffordVqeConfig {
    /// Genetic-search settings.
    pub ga: GeneticConfig,
    /// Monte-Carlo shots per energy evaluation.
    pub shots: usize,
    /// Root seed (feeds both GA and noise sampling).
    pub seed: u64,
}

impl Default for CliffordVqeConfig {
    fn default() -> Self {
        CliffordVqeConfig {
            ga: GeneticConfig {
                population: 24,
                generations: 30,
                ..GeneticConfig::default()
            },
            shots: 16,
            seed: 0xc11f_f0ed,
        }
    }
}

/// Outcome of a Clifford VQE run.
#[derive(Clone, Debug, PartialEq)]
pub struct CliffordVqeOutcome {
    /// Best (lowest) noisy energy found.
    pub best_energy: f64,
    /// The winning discrete parameter vector (`k` multipliers of π/2).
    pub best_genome: Vec<u8>,
    /// Best-so-far energy per generation.
    pub history: Vec<f64>,
}

/// Runs the genetic Clifford VQE under a stabilizer noise model.
///
/// The circuit + noise model compile *once* into a
/// [`NoiseTemplate`] before the search starts, and the circuit and the
/// observable into a [`HeisenbergEvaluator`]: every genome shares the
/// ansatz structure (layering, injection sites, probability classes,
/// the fixed entangler) and the observable's terms. Every genome is also
/// scored under the same shot seed, so the search samples its faults
/// once ([`NoiseTemplate::sample_faults`]), and the fitness only
/// re-resolves quarter turns and replays them: `⌊64/shots⌋` genomes of a
/// generation (at least one) side by side in one lane word
/// ([`NoiseTemplate::bind_lanes`]), through one walk. See
/// [`clifford_vqe_with_template`] to share the template across several
/// searches (e.g. a sweep's grid points).
///
/// # Panics
///
/// Panics on ansatz/observable size mismatch.
pub fn clifford_vqe(
    ansatz: &Ansatz,
    observable: &PauliSum,
    noise: &StabilizerNoise,
    config: &CliffordVqeConfig,
) -> CliffordVqeOutcome {
    let template = NoiseTemplate::compile(ansatz.circuit(), noise);
    clifford_vqe_with_template(ansatz, observable, &template, config)
}

/// [`clifford_vqe`] with a *precompiled* noise template — the entry
/// point when many searches share one (ansatz structure, noise)
/// compilation, e.g. across the grid points and regimes of a sweep (key
/// it by [`NoiseTemplate::cache_key`] in an
/// `eftq_sweep::ArtifactCache`). Bit-identical to [`clifford_vqe`] on
/// the noise model the template was compiled from.
///
/// # Panics
///
/// Panics on ansatz/observable/template size mismatch.
pub fn clifford_vqe_with_template(
    ansatz: &Ansatz,
    observable: &PauliSum,
    template: &NoiseTemplate,
    config: &CliffordVqeConfig,
) -> CliffordVqeOutcome {
    assert_eq!(
        ansatz.num_qubits(),
        observable.num_qubits(),
        "ansatz/observable size mismatch"
    );
    assert_eq!(
        ansatz.num_qubits(),
        template.num_qubits(),
        "ansatz/template size mismatch"
    );
    let seeds = SeedSequence::new(config.seed);
    let shot_seed = seeds.derive("shots");
    let ga = GeneticConfig {
        seed: seeds.derive("ga").seed(),
        ..config.ga
    };
    let shots = config.shots.max(1);
    // Compile the genome-independent Clifford and the observable's terms
    // once per search (like the noise template): each fitness call only
    // resolves its rotations, and the Heisenberg-picture values are
    // bit-identical to walking the bound circuit through
    // `estimate_energy_program`. Every genome is scored under the same
    // shot seed, and the faults it draws do not depend on the genome, so
    // they are sampled once here (the stream `estimate_energy_program`
    // draws for `shot_seed`) and replayed per group of genomes: each
    // generation's fresh genomes pack `⌊64/shots⌋` to a lane word (a
    // group of one above 32 shots, on as many words as the shots need),
    // and every genome's energy keeps its bits.
    let evaluator = HeisenbergEvaluator::compile(ansatz.circuit(), observable);
    let tape = template.sample_faults(shots, shot_seed.derive("pauli-frames"));
    let per_word = (64 / shots).max(1);
    let result = minimize_genetic_batched(ansatz.num_params(), &ga, |genomes, scores| {
        for (group, scores) in genomes.chunks(per_word).zip(scores.chunks_mut(per_word)) {
            let ks: Vec<&[u8]> = group.iter().map(Vec::as_slice).collect();
            let program = template.bind_lanes(&ks, shots);
            let bound: Vec<BoundEvaluator> =
                ks.iter().map(|g| evaluator.bind_clifford(g)).collect();
            let runs =
                BoundEvaluator::estimate_energy(&bound, &program, &tape, template.meas_flip());
            for (score, run) in scores.iter_mut().zip(runs) {
                *score = run.energy;
            }
        }
    });
    CliffordVqeOutcome {
        best_energy: result.best_fitness,
        best_genome: result.best_genome,
        history: result.history,
    }
}

/// Unbiased noisy energy of one genome with an independent, larger shot
/// budget. Use this to re-evaluate a GA winner: the search itself sees
/// few-shot estimates and exploits their sampling noise, so the winning
/// *estimate* is optimistically biased — re-evaluation removes the bias.
///
/// Re-evaluation is a single large estimate, so its 256-shot batches
/// shard across `threads` workers; a budget of one batch or less runs on
/// the calling thread. The result is bit-identical for every `threads`
/// value.
pub fn reevaluate_genome(
    ansatz: &Ansatz,
    observable: &PauliSum,
    noise: &StabilizerNoise,
    genome: &[u8],
    shots: usize,
    seed: u64,
    threads: usize,
) -> f64 {
    let circuit = ansatz.bind_clifford(genome);
    estimate_energy_threaded(
        &circuit,
        observable,
        noise,
        shots,
        SeedSequence::new(seed).derive("reeval"),
        threads,
    )
    .energy
}

/// Exact noiseless energy of one genome (single deterministic shot).
pub fn genome_energy(ansatz: &Ansatz, observable: &PauliSum, genome: &[u8]) -> f64 {
    let circuit = ansatz.bind_clifford(genome);
    estimate_energy(
        &circuit,
        observable,
        &StabilizerNoise::noiseless(),
        1,
        SeedSequence::new(0),
    )
    .energy
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hamiltonians;
    use crate::regimes::ExecutionRegime;
    use eftq_circuit::ansatz::{blocked_all_to_all, fully_connected_hea, linear_hea};

    fn quick() -> CliffordVqeConfig {
        // The frame-batched estimator makes shots nearly free, so the
        // quick config can afford enough of them that few-shot sampling
        // luck does not dominate the search.
        CliffordVqeConfig {
            ga: GeneticConfig {
                population: 16,
                generations: 20,
                ..GeneticConfig::default()
            },
            shots: 16,
            ..CliffordVqeConfig::default()
        }
    }

    #[test]
    fn finds_good_clifford_state_for_ising() {
        // J = 0.25 Ising: the product ground state |1…1⟩ is a stabilizer
        // state with energy close to the true ground energy.
        let h = hamiltonians::ising_1d(6, 0.25);
        let a = linear_hea(6, 1);
        let e_ref = clifford_vqe(&a, &h, &StabilizerNoise::noiseless(), &quick()).best_energy;
        let e0 = h.ground_energy_default().unwrap();
        // Clifford states reach most of the gap for weakly coupled Ising.
        assert!(e_ref < -(0.8 * e0.abs()) + 0.0, "{e_ref} vs {e0}");
        assert!(e_ref >= e0 - 1e-9);
    }

    #[test]
    fn noisy_energy_is_above_noiseless() {
        // The *unbiased* noisy energy of the NISQ winner sits at or above
        // that genome's own noiseless energy (the raw search estimate may
        // dip below it — minimizing over few-shot estimates exploits
        // sampling noise; and a noisy search may find a genome the exact
        // noiseless search missed, so the floor is per-genome).
        let h = hamiltonians::ising_1d(6, 0.5);
        let a = linear_hea(6, 1);
        let noise = ExecutionRegime::nisq_default().stabilizer_noise();
        let nisq = clifford_vqe(&a, &h, &noise, &quick());
        let floor = clifford_vqe(&a, &h, &StabilizerNoise::noiseless(), &quick())
            .best_energy
            .min(genome_energy(&a, &h, &nisq.best_genome));
        let honest = reevaluate_genome(&a, &h, &noise, &nisq.best_genome, 512, 23, 2);
        assert!(honest >= floor - 0.2, "{honest} vs {floor}");
    }

    #[test]
    fn pqec_beats_nisq_on_heisenberg() {
        // Figure 12's mechanism at 8 qubits: pQEC's noise floor degrades a
        // good candidate far less than NISQ's. Both regimes evaluate the
        // *same* genome — the best one any search found — so the
        // comparison isolates the regimes' noise, not search luck.
        let h = hamiltonians::heisenberg_1d(8, 1.0);
        let a = fully_connected_hea(8, 1);
        let cfg = quick();
        let pqec_noise = ExecutionRegime::pqec_default().stabilizer_noise();
        let nisq_noise = ExecutionRegime::nisq_default().stabilizer_noise();
        let pqec = clifford_vqe(&a, &h, &pqec_noise, &cfg);
        let nisq = clifford_vqe(&a, &h, &nisq_noise, &cfg);
        let best = if genome_energy(&a, &h, &pqec.best_genome)
            <= genome_energy(&a, &h, &nisq.best_genome)
        {
            pqec.best_genome
        } else {
            nisq.best_genome
        };
        let e_pqec = reevaluate_genome(&a, &h, &pqec_noise, &best, 512, 19, 1);
        let e_nisq = reevaluate_genome(&a, &h, &nisq_noise, &best, 512, 19, 1);
        assert!(e_pqec < e_nisq, "pQEC {e_pqec} vs NISQ {e_nisq}");
    }

    #[test]
    fn blocked_ansatz_runs_in_clifford_mode() {
        let h = hamiltonians::ising_1d(8, 1.0);
        let a = blocked_all_to_all(8, 1);
        let noise = ExecutionRegime::pqec_default().stabilizer_noise();
        let out = clifford_vqe(&a, &h, &noise, &quick());
        assert!(out.best_energy.is_finite());
        assert_eq!(out.best_genome.len(), a.num_params());
    }

    #[test]
    fn genome_energy_matches_outcome() {
        let h = hamiltonians::ising_1d(4, 0.5);
        let a = linear_hea(4, 1);
        let out = clifford_vqe(&a, &h, &StabilizerNoise::noiseless(), &quick());
        let direct = genome_energy(&a, &h, &out.best_genome);
        assert!((out.best_energy - direct).abs() < 1e-12);
    }

    #[test]
    fn reevaluation_is_unbiased_vs_search_estimate() {
        let h = hamiltonians::heisenberg_1d(6, 1.0);
        let a = linear_hea(6, 1);
        let noise = ExecutionRegime::nisq_default().stabilizer_noise();
        let out = clifford_vqe(&a, &h, &noise, &quick());
        let reeval = reevaluate_genome(&a, &h, &noise, &out.best_genome, 200, 7, 1);
        // The few-shot search estimate is optimistically biased: the
        // honest re-evaluation is typically higher (never dramatically
        // lower).
        assert!(
            reeval >= out.best_energy - 0.5,
            "{reeval} vs {}",
            out.best_energy
        );
    }

    /// The search with the Heisenberg-picture fitness reproduces the
    /// search with the tableau fitness — energy, genome and history —
    /// under noisy and noiseless templates, on one and two qubit words,
    /// at 10, 4 and 1 genomes per lane word and on a two-word tape.
    #[test]
    fn heisenberg_fitness_reproduces_tableau_fitness() {
        use eftq_optim::genetic::minimize_genetic;
        use eftq_stabilizer::estimate_energy_program;
        for (n, h) in [
            (8, hamiltonians::heisenberg_1d(8, 0.5)),
            (66, hamiltonians::ising_1d(66, 0.75)),
        ] {
            let ansatz = fully_connected_hea(n, 1);
            for noise in [
                ExecutionRegime::nisq_default().stabilizer_noise(),
                StabilizerNoise::noiseless(),
            ] {
                let template = NoiseTemplate::compile(ansatz.circuit(), &noise);
                for shots in [6, 16, 40, 100] {
                    let config = CliffordVqeConfig {
                        // Two workers of 12 genomes each: groups of 10
                        // and 2 at 6 shots.
                        ga: GeneticConfig {
                            population: 24,
                            generations: 4,
                            threads: 2,
                            ..GeneticConfig::default()
                        },
                        shots,
                        seed: 41,
                    };
                    let seeds = SeedSequence::new(config.seed);
                    let shot_seed = seeds.derive("shots");
                    let ga = GeneticConfig {
                        seed: seeds.derive("ga").seed(),
                        ..config.ga
                    };
                    let old = minimize_genetic(ansatz.num_params(), &ga, |g| {
                        estimate_energy_program(
                            &ansatz.bind_clifford(g),
                            &h,
                            &template.bind_clifford(g),
                            template.meas_flip(),
                            shots,
                            shot_seed,
                            1,
                        )
                        .energy
                    });
                    let new = clifford_vqe_with_template(&ansatz, &h, &template, &config);
                    let at = format!("{n} qubits, {shots} shots");
                    assert_eq!(new.best_energy, old.best_fitness, "{at}");
                    assert_eq!(new.best_genome, old.best_genome, "{at}");
                    assert_eq!(new.history, old.history, "{at}");
                }
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let h = hamiltonians::ising_1d(4, 1.0);
        let a = linear_hea(4, 1);
        let noise = ExecutionRegime::nisq_default().stabilizer_noise();
        let x = clifford_vqe(&a, &h, &noise, &quick());
        let y = clifford_vqe(&a, &h, &noise, &quick());
        assert_eq!(x.best_energy, y.best_energy);
        assert_eq!(x.best_genome, y.best_genome);
    }
}
