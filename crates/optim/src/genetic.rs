//! Genetic search over discrete genomes.
//!
//! The large-scale Clifford VQE of Section 5.2.2 restricts every rotation
//! to `k·π/2` and searches the resulting discrete space with a genetic
//! algorithm ("which allows for efficient parallelization and
//! scalability"). Genomes here are `Vec<u8>` with alleles in
//! `0..allele_count` (4 for Clifford multipliers); fitness is *minimized*
//! (it is an energy).

use crossbeam::thread;
use eftq_numerics::SeedSequence;
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::{HashMap, HashSet};

/// Configuration of the genetic search.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GeneticConfig {
    /// Individuals per generation.
    pub population: usize,
    /// Number of generations.
    pub generations: usize,
    /// Number of distinct allele values (4 for Clifford multipliers).
    pub allele_count: u8,
    /// Per-gene mutation probability.
    pub mutation_rate: f64,
    /// Tournament size for parent selection.
    pub tournament: usize,
    /// Individuals copied unchanged into the next generation.
    pub elites: usize,
    /// Worker threads for fitness evaluation (1 = sequential, the
    /// default). For a single search that owns the machine; callers that
    /// already run many searches in parallel (the Figure-12/14 sweep
    /// drivers, one search per grid point) keep 1.
    pub threads: usize,
    /// Root seed.
    pub seed: u64,
}

impl Default for GeneticConfig {
    fn default() -> Self {
        GeneticConfig {
            population: 40,
            generations: 60,
            allele_count: 4,
            mutation_rate: 0.05,
            tournament: 3,
            elites: 2,
            threads: 1,
            seed: 0x6e6e_7171,
        }
    }
}

/// Result of a genetic run.
#[derive(Clone, Debug, PartialEq)]
pub struct GeneticResult {
    /// Best genome found.
    pub best_genome: Vec<u8>,
    /// Its fitness (the minimized objective).
    pub best_fitness: f64,
    /// Best fitness after each generation.
    pub history: Vec<f64>,
    /// Fitness evaluations actually performed (memoization cache misses).
    pub evaluations: usize,
    /// Individuals scored from the memoization cache instead of being
    /// re-evaluated (elites and duplicate offspring).
    pub cache_hits: usize,
}

/// Minimizes `fitness` over genomes of length `genome_len`.
///
/// `fitness` must be `Sync` so generations can be evaluated on
/// `config.threads` crossbeam scoped threads; with `threads == 1` the
/// evaluation is sequential.
///
/// Fitness values are memoized by genome: elites carried between
/// generations and duplicate offspring are never re-evaluated, so
/// `fitness` must be a pure function of its genome (the Clifford VQE
/// satisfies this — every candidate is estimated with the same shot
/// seed). NaN fitness values are tolerated: they sort after every finite
/// value (`f64::total_cmp`) and can never win a tournament or the run.
///
/// # Panics
///
/// Panics if `genome_len == 0`, `population < 2`, `elites >= population`,
/// `tournament == 0`, or `allele_count == 0`.
pub fn minimize_genetic<F>(genome_len: usize, config: &GeneticConfig, fitness: F) -> GeneticResult
where
    F: Fn(&[u8]) -> f64 + Sync,
{
    assert!(genome_len > 0, "genome must be non-empty");
    assert!(config.population >= 2, "population must be at least 2");
    assert!(
        config.elites < config.population,
        "elites must leave room for offspring"
    );
    assert!(config.tournament >= 1, "tournament size must be positive");
    assert!(config.allele_count >= 1, "allele count must be positive");

    let seeds = SeedSequence::new(config.seed);
    let mut rng = seeds.derive("ga-driver").rng();
    let mut population: Vec<Vec<u8>> = (0..config.population)
        .map(|i| {
            let mut r = seeds.derive("ga-init").derive_index(i as u64).rng();
            (0..genome_len)
                .map(|_| r.gen_range(0..config.allele_count))
                .collect()
        })
        .collect();

    let mut evaluations = 0usize;
    let mut cache_hits = 0usize;
    let mut cache: HashMap<Vec<u8>, f64> = HashMap::new();
    let mut history = Vec::with_capacity(config.generations);
    let mut best_genome = population[0].clone();
    let mut best_fitness = f64::INFINITY;

    for _gen in 0..config.generations {
        // Bound the cache: a production-scale run would otherwise retain
        // one entry per distinct genome ever seen. Keeping the current
        // population's scores preserves the elite/duplicate fast path.
        if cache.len() > 64 * config.population.max(16) {
            let keep: HashSet<&Vec<u8>> = population.iter().collect();
            cache.retain(|g, _| keep.contains(g));
        }
        // Evaluate only genomes not seen before (dedup within the
        // generation too); everything else is served from the cache.
        let mut fresh: Vec<Vec<u8>> = Vec::new();
        let mut queued: HashSet<&Vec<u8>> = HashSet::new();
        for g in &population {
            if !cache.contains_key(g) && queued.insert(g) {
                fresh.push(g.clone());
            }
        }
        let fresh_scores = evaluate(&fresh, &fitness, config.threads);
        evaluations += fresh.len();
        cache_hits += population.len() - fresh.len();
        for (g, s) in fresh.into_iter().zip(fresh_scores) {
            cache.insert(g, s);
        }
        let scores: Vec<f64> = population.iter().map(|g| cache[g]).collect();
        // Track the champion. `total_cmp` keeps NaN fitness values at the
        // end of the order instead of panicking (or corrupting the sort).
        let mut order: Vec<usize> = (0..population.len()).collect();
        order.sort_by(|&a, &b| scores[a].total_cmp(&scores[b]));
        if scores[order[0]] < best_fitness {
            best_fitness = scores[order[0]];
            best_genome = population[order[0]].clone();
        }
        history.push(best_fitness);

        // Next generation: elites + tournament offspring.
        let mut next: Vec<Vec<u8>> = order
            .iter()
            .take(config.elites)
            .map(|&i| population[i].clone())
            .collect();
        while next.len() < config.population {
            let pa = tournament_pick(&scores, config, &mut rng);
            let pb = tournament_pick(&scores, config, &mut rng);
            let mut child = crossover(&population[pa], &population[pb], &mut rng);
            mutate(&mut child, config, &mut rng);
            next.push(child);
        }
        population = next;
    }
    GeneticResult {
        best_genome,
        best_fitness,
        history,
        evaluations,
        cache_hits,
    }
}

fn evaluate<F>(population: &[Vec<u8>], fitness: &F, threads: usize) -> Vec<f64>
where
    F: Fn(&[u8]) -> f64 + Sync,
{
    // Memoization leaves late generations with only a handful of fresh
    // genomes, so parallelize any batch of two or more: with a heavy
    // fitness (the Clifford VQE estimator) even a half-filled worker set
    // beats running the stragglers sequentially.
    if threads <= 1 || population.len() < 2 {
        return population.iter().map(|g| fitness(g)).collect();
    }
    let workers = threads.min(population.len());
    let chunk = population.len().div_ceil(workers);
    let mut scores = vec![0.0f64; population.len()];
    thread::scope(|scope| {
        for (slot, genomes) in scores.chunks_mut(chunk).zip(population.chunks(chunk)) {
            scope.spawn(move |_| {
                for (s, g) in slot.iter_mut().zip(genomes.iter()) {
                    *s = fitness(g);
                }
            });
        }
    })
    .expect("fitness worker panicked");
    scores
}

fn tournament_pick(scores: &[f64], config: &GeneticConfig, rng: &mut StdRng) -> usize {
    let mut best = rng.gen_range(0..scores.len());
    for _ in 1..config.tournament {
        let c = rng.gen_range(0..scores.len());
        // total_cmp: a NaN contestant never beats a finite one.
        if scores[c].total_cmp(&scores[best]).is_lt() {
            best = c;
        }
    }
    best
}

fn crossover(a: &[u8], b: &[u8], rng: &mut StdRng) -> Vec<u8> {
    // Uniform crossover.
    a.iter()
        .zip(b.iter())
        .map(|(&ga, &gb)| if rng.gen_bool(0.5) { ga } else { gb })
        .collect()
}

fn mutate(genome: &mut [u8], config: &GeneticConfig, rng: &mut StdRng) {
    for g in genome.iter_mut() {
        if rng.gen_bool(config.mutation_rate) {
            *g = rng.gen_range(0..config.allele_count);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Count of genes differing from the target pattern — a discrete bowl.
    fn mismatch_fitness(target: &[u8]) -> impl Fn(&[u8]) -> f64 + Sync + '_ {
        move |g: &[u8]| g.iter().zip(target.iter()).filter(|(a, b)| a != b).count() as f64
    }

    #[test]
    fn solves_discrete_bowl() {
        let target: Vec<u8> = (0..24).map(|i| (i % 4) as u8).collect();
        let config = GeneticConfig {
            population: 60,
            generations: 120,
            ..GeneticConfig::default()
        };
        let r = minimize_genetic(24, &config, mismatch_fitness(&target));
        assert_eq!(r.best_fitness, 0.0, "{:?}", r.best_genome);
        assert_eq!(r.best_genome, target);
    }

    #[test]
    fn history_monotone_nonincreasing() {
        let target = vec![1u8; 16];
        let r = minimize_genetic(16, &GeneticConfig::default(), mismatch_fitness(&target));
        for w in r.history.windows(2) {
            assert!(w[1] <= w[0]);
        }
        // Memoization: every individual is scored, but elites and
        // duplicate offspring come from the cache, never re-evaluation.
        let scored = GeneticConfig::default().population * GeneticConfig::default().generations;
        assert_eq!(r.evaluations + r.cache_hits, scored);
        assert!(r.evaluations < scored, "{} evaluations", r.evaluations);
        // Elites alone guarantee hits every generation after the first.
        let min_hits = GeneticConfig::default().elites * (GeneticConfig::default().generations - 1);
        assert!(r.cache_hits >= min_hits, "{} cache hits", r.cache_hits);
    }

    #[test]
    fn memoization_never_reevaluates_a_genome() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Mutex;
        let calls = AtomicUsize::new(0);
        let seen = Mutex::new(std::collections::HashSet::new());
        let target = vec![3u8; 10];
        let r = minimize_genetic(
            10,
            &GeneticConfig {
                population: 20,
                generations: 25,
                ..GeneticConfig::default()
            },
            |g: &[u8]| {
                calls.fetch_add(1, Ordering::Relaxed);
                assert!(
                    seen.lock().unwrap().insert(g.to_vec()),
                    "fitness re-evaluated for {g:?}"
                );
                mismatch_fitness(&target)(g)
            },
        );
        assert_eq!(r.evaluations, calls.load(Ordering::Relaxed));
    }

    #[test]
    fn nan_fitness_never_panics_or_wins() {
        // Regression: partial_cmp().unwrap() used to panic on NaN, and a
        // NaN could poison tournament selection. Genomes starting with
        // allele 0 are "invalid" here and return NaN.
        let r = minimize_genetic(
            6,
            &GeneticConfig {
                population: 16,
                generations: 15,
                ..GeneticConfig::default()
            },
            |g: &[u8]| {
                if g[0] == 0 {
                    f64::NAN
                } else {
                    g.iter().map(|&x| f64::from(x)).sum()
                }
            },
        );
        assert!(r.best_fitness.is_finite(), "{}", r.best_fitness);
        assert_ne!(r.best_genome[0], 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let target = vec![2u8; 12];
        let a = minimize_genetic(12, &GeneticConfig::default(), mismatch_fitness(&target));
        let b = minimize_genetic(12, &GeneticConfig::default(), mismatch_fitness(&target));
        assert_eq!(a.best_genome, b.best_genome);
        assert_eq!(a.history, b.history);
    }

    #[test]
    fn parallel_matches_sequential_fitness_quality() {
        let target: Vec<u8> = (0..20).map(|i| ((i * 7) % 4) as u8).collect();
        let seq = minimize_genetic(
            20,
            &GeneticConfig {
                threads: 1,
                ..GeneticConfig::default()
            },
            mismatch_fitness(&target),
        );
        let par = minimize_genetic(
            20,
            &GeneticConfig {
                threads: 4,
                ..GeneticConfig::default()
            },
            mismatch_fitness(&target),
        );
        // Evaluation order is identical (chunked map), so results agree.
        assert_eq!(seq.best_fitness, par.best_fitness);
        assert_eq!(seq.best_genome, par.best_genome);
    }

    #[test]
    fn alleles_stay_in_range() {
        let config = GeneticConfig {
            allele_count: 3,
            generations: 10,
            ..GeneticConfig::default()
        };
        let r = minimize_genetic(8, &config, |g| g.iter().map(|&x| f64::from(x)).sum());
        assert!(r.best_genome.iter().all(|&g| g < 3));
        // Objective favours all-zero genome.
        assert_eq!(r.best_fitness, 0.0);
    }

    #[test]
    #[should_panic(expected = "population must be at least 2")]
    fn tiny_population_rejected() {
        let _ = minimize_genetic(
            4,
            &GeneticConfig {
                population: 1,
                ..GeneticConfig::default()
            },
            |_| 0.0,
        );
    }
}
