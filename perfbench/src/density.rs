//! `density_vqe`: the 20 `eft_vqa::vqe::run_vqe` calls at 6 qubits whose
//! best energies the committed reduced baselines pin — `e_pqec`/`e_nisq`
//! of the six points in `ci/baselines/fig13.jsonl` and
//! `plain`/`mitigated` of the four points in `fig15.jsonl` — each under
//! its driver's `VqeConfig`, one call at a time. One op is one baseline
//! row: its two pinned calls, back to back. The seed sets the order of
//! the ten rows, and each call's energy must equal the baseline field it
//! pins. The calls and a [`HostSampler`] of [`Reference::DensityMatrix`]
//! share one vCPU, and every call is rescaled by the samples taken
//! during it.
//!
//! Traced runs recompose every call (the same Nelder–Mead search over an
//! objective timed layer by layer: `Ansatz::bind`,
//! `ExecutionRegime::noise_model`, `run_noisy` and
//! `varsaw::measured_energy`); four fixed rows also run untraced first,
//! and the energies must agree bit for bit. The QWC grouping that
//! `measured_energy` does inside is timed apart, by a replay of
//! `group_qubit_wise_commuting` once per objective evaluation after each
//! op.

use crate::host::{pin_here, HostSampler, Reference};
use crate::stats::median;
use crate::trace::{Layers, Tracer};
use crate::{ms_since, overhead, setup_sample, Cfg, Outcome};
use eft_vqa::hamiltonians::{heisenberg_1d, ising_1d};
use eft_vqa::varsaw::measured_energy;
use eft_vqa::vqe::{run_vqe, VqeConfig, VqeOptimizer};
use eft_vqa::ExecutionRegime;
use eftq_circuit::ansatz::fully_connected_hea;
use eftq_circuit::Ansatz;
use eftq_numerics::SeedSequence;
use eftq_optim::{NelderMead, Optimizer};
use eftq_pauli::{group_qubit_wise_commuting, PauliSum};
use eftq_statesim::noise::run_noisy;
use eftq_sweep::jsonl::parse_row;
use rand::Rng;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Qubits of the reduced Figure-13/15 grids.
const QUBITS: usize = 6;

/// Passes over the 20 calls per second of `--seconds` (one pass takes
/// about 29 s on the reference machine; a run holds at least one).
const PASS_SECONDS: u64 = 30;

/// Calls per op: a baseline row pins two energies. The ten pQEC calls
/// take 0.6–1.1 s and the ten NISQ calls 1.2–2.3 s, so the median of the
/// 20 calls would sit between the slowest pQEC call and the fastest NISQ
/// call, two extreme order statistics that one host stall moves (30%
/// IQR across five seeds). Six of the ten rows pair a pQEC call with a
/// NISQ call, and the median of the ten rows falls among them.
const CALLS_PER_OP: usize = 2;

/// Traced runs also run these canonical rows (two of each figure)
/// untraced.
const PAIRED: [usize; 4] = [0, 3, 6, 8];

/// Set-up samples the untraced run takes before every op and after the
/// last one: 44, spread over the run.
const SETUP_SAMPLES_PER_GAP: usize = 4;

/// One pinned `run_vqe` call.
#[derive(Clone, Debug, PartialEq)]
pub struct Call {
    /// `fig13/e_pqec`, `fig15/mitigated`, …
    pub field: String,
    /// `Ising` or `Heisenberg`.
    pub model: String,
    /// Coupling.
    pub j: f64,
    /// pQEC (else NISQ).
    pub pqec: bool,
    /// The driver's configuration.
    pub config: VqeConfig,
    /// The baseline energy the call must reproduce.
    pub expected: f64,
}

impl Call {
    fn regime(&self) -> ExecutionRegime {
        if self.pqec {
            ExecutionRegime::pqec_default()
        } else {
            ExecutionRegime::nisq_default()
        }
    }
}

/// The `VqeConfig` of `Fig13Driver::new(false)`.
fn fig13_config() -> VqeConfig {
    VqeConfig {
        max_iters: 300,
        restarts: 2,
        ..VqeConfig::default()
    }
}

/// The `VqeConfig` of `Fig15Driver::new(false)`.
fn fig15_config(mitigate_measurement: bool) -> VqeConfig {
    VqeConfig {
        max_iters: 250,
        restarts: 2,
        mitigate_measurement,
        ..VqeConfig::default()
    }
}

fn baseline_rows(root: &Path, name: &str) -> Vec<eftq_sweep::Row> {
    let path = root.join(format!("ci/baselines/{name}.jsonl"));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    text.lines()
        .map(|l| parse_row(l).unwrap_or_else(|e| panic!("{}: {e}", path.display())))
        .filter(|r| r.label() == name)
        .collect()
}

/// The 20 calls in canonical (baseline file) order.
pub fn calls(root: &Path) -> Vec<Call> {
    let mut out = Vec::new();
    let num = |r: &eftq_sweep::Row, k: &str| r.get_num(k).expect("baseline energy field");
    for r in baseline_rows(root, "fig13") {
        let model = r.get_str("model").expect("model").to_string();
        let j = num(&r, "j");
        for (field, pqec) in [("e_pqec", true), ("e_nisq", false)] {
            out.push(Call {
                field: format!("fig13/{field}"),
                model: model.clone(),
                j,
                pqec,
                config: fig13_config(),
                expected: num(&r, field),
            });
        }
    }
    for r in baseline_rows(root, "fig15") {
        let model = r.get_str("model").expect("model").to_string();
        let pqec = r.get_str("regime") == Some("pQEC");
        for (field, mitigate) in [("plain", false), ("mitigated", true)] {
            out.push(Call {
                field: format!("fig15/{field}"),
                model: model.clone(),
                j: 1.0,
                pqec,
                config: fig15_config(mitigate),
                expected: num(&r, field),
            });
        }
    }
    out
}

/// A permutation of `0..n` drawn from the workload seed.
pub fn order(seed: u64, n: usize) -> Vec<usize> {
    let mut rng = SeedSequence::new(seed).derive("density_vqe").rng();
    let mut idx: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        idx.swap(i, rng.gen_range(0..=i));
    }
    idx
}

fn hamiltonian(model: &str, j: f64) -> PauliSum {
    match model {
        "Ising" => ising_1d(QUBITS, j),
        "Heisenberg" => heisenberg_1d(QUBITS, j),
        other => panic!("unknown model '{other}'"),
    }
}

/// Set-up: one Hamiltonian per call and the ansatz.
fn inputs(calls: &[Call]) -> (Vec<PauliSum>, Ansatz) {
    let hs = calls.iter().map(|c| hamiltonian(&c.model, c.j)).collect();
    (hs, fully_connected_hea(QUBITS, 1))
}

pub fn run(cfg: &Cfg) -> Outcome {
    // The oracle: which calls exist and what each must return.
    let calls = calls(&cfg.root);
    let mut build = || inputs(&calls);
    let (hs, ansatz) = build();
    let mut o = Outcome::default();
    let row_calls = |row: usize| row * CALLS_PER_OP..(row + 1) * CALLS_PER_OP;
    let plain =
        |i: usize| run_vqe(&ansatz, &hs[i], &calls[i].regime(), &calls[i].config).best_energy;
    let rows = calls.len() / CALLS_PER_OP;
    let passes = (cfg.seconds / PASS_SECONDS).max(1);
    // `(call, energy)` in op order.
    let mut energies = Vec::new();
    if cfg.trace {
        let tracer = Tracer::new(Instant::now());
        let mut pairs = Vec::new();
        let mut mismatched = 0;
        for row in order(cfg.seed, rows) {
            let untraced = PAIRED.contains(&row).then(|| {
                let t = Instant::now();
                let e: Vec<f64> = row_calls(row).map(plain).collect();
                (e, ms_since(t))
            });
            let t = Instant::now();
            let traced: Vec<(f64, usize)> = row_calls(row)
                .map(|i| traced_vqe(&ansatz, &hs[i], &calls[i], &tracer, &mut o.layers))
                .collect();
            let ms = ms_since(t);
            // `measured_energy` groups the terms inside; the grouping is
            // timed by itself once per evaluation, outside the op.
            for (i, &(_, evals)) in row_calls(row).zip(&traced) {
                for _ in 0..evals {
                    tracer.time("pauli.qwc_grouping", None, || {
                        black_box(group_qubit_wise_commuting(black_box(&hs[i])))
                    });
                }
            }
            o.layers.fold(&tracer.drain());
            if let Some((e_plain, plain_ms)) = untraced {
                pairs.push((plain_ms, ms));
                mismatched += e_plain
                    .iter()
                    .zip(&traced)
                    .filter(|(a, b)| a.to_bits() != b.0.to_bits())
                    .count();
            }
            o.op_ms.push(ms);
            energies.extend(row_calls(row).zip(traced.iter().map(|t| t.0)));
        }
        o.checks
            .push(("traced_equals_untraced".into(), mismatched == 0));
        overhead(&pairs, &mut o.per_layer);
        o.per_layer
            .insert("trace.op_p50_ms".into(), median(&o.op_ms).unwrap_or(0.0));
    } else {
        let sampler = HostSampler::start(Reference::DensityMatrix, &pin_here());
        let mut sample_setup = |o: &mut Outcome| {
            for _ in 0..SETUP_SAMPLES_PER_GAP {
                o.setup_s.push(setup_sample(&mut build, drop));
            }
        };
        // `(start, end)` of each call, in op order.
        let mut spans = Vec::new();
        for _ in 0..passes {
            for row in order(cfg.seed, rows) {
                sample_setup(&mut o);
                for i in row_calls(row) {
                    let t = Instant::now();
                    energies.push((i, plain(i)));
                    spans.push((t, Instant::now()));
                }
            }
        }
        sample_setup(&mut o);
        let speed = sampler.finish();
        o.host_factor = speed.run_factor();
        for op in spans.chunks(CALLS_PER_OP) {
            let ms = |&(start, end): &(Instant, Instant)| (end - start).as_secs_f64() * 1e3;
            o.raw_op_ms.push(op.iter().map(ms).sum());
            o.op_ms
                .push(op.iter().map(|s| speed.rescale(ms(s), s.0, s.1)).sum());
        }
        o.wall_s = o.op_ms.iter().sum::<f64>() * 1e-3;
        o.raw_wall_s = o.raw_op_ms.iter().sum::<f64>() * 1e-3;
    }
    for op in energies.chunks(CALLS_PER_OP) {
        o.attempted += 1;
        let mut ok = true;
        for &(i, e) in op {
            o.digest.push(&e.to_bits().to_le_bytes());
            if !energy_matches(&calls[i], e) {
                ok = false;
                let c = &calls[i];
                o.checks
                    .push((format!("{} {} J={} matches", c.field, c.model, c.j), false));
            }
        }
        o.failed += usize::from(!ok);
    }
    o
}

/// Whether `e` is exactly the baseline energy `call` pins.
pub fn energy_matches(call: &Call, e: f64) -> bool {
    e.to_bits() == call.expected.to_bits()
}

/// `run_vqe` recomposed (Nelder–Mead restarts over a traced objective):
/// the best energy and the objective evaluations it took.
fn traced_vqe(
    ansatz: &Ansatz,
    h: &PauliSum,
    call: &Call,
    tr: &Tracer,
    layers: &mut Layers,
) -> (f64, usize) {
    let config = &call.config;
    assert_eq!(config.optimizer, VqeOptimizer::NelderMead);
    let regime = call.regime();
    let seeds = SeedSequence::new(config.seed).derive("vqe");
    let mut best: Option<f64> = None;
    let mut evals = 0;
    let mut channels = 0;
    for restart in 0..config.restarts {
        let mut rng = seeds.derive_index(restart as u64).rng();
        let x0: Vec<f64> = (0..ansatz.num_params())
            .map(|_| rng.gen::<f64>() * std::f64::consts::PI - std::f64::consts::FRAC_PI_2)
            .collect();
        let search = tr.open("optim.nelder_mead", None);
        // `vqe::noisy_energy`, one span per layer call.
        let mut objective = |params: &[f64]| {
            let span = tr.open("core.objective", Some(search.id()));
            let at = Some(span.id());
            let circuit = tr.time("circuit.bind", at, || ansatz.bind(params));
            let mut noise = tr.time("core.noise_model", at, || regime.noise_model());
            // Readout error is applied at estimation, as `noisy_energy`
            // does.
            let meas_flip = noise.meas_flip;
            noise.meas_flip = 0.0;
            let (rho, report) = tr.time("statesim.run_noisy", at, || run_noisy(&circuit, &noise));
            channels += report.channel_applications;
            tr.time("core.measured_energy", at, || {
                measured_energy(&rho, h, meas_flip.min(0.49), config.mitigate_measurement)
            })
        };
        let result = NelderMead {
            max_iters: config.max_iters,
            ..NelderMead::default()
        }
        .minimize(&mut objective, &x0);
        evals += result.evaluations;
        if best.is_none_or(|b| result.best_value < b) {
            best = Some(result.best_value);
        }
    }
    layers.count("optim.nelder_mead.evals", evals as f64);
    layers.count("statesim.channel_applications", channels as f64);
    (best.expect("at least one restart ran"), evals)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twenty_calls_each_pinned_by_a_baseline() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap();
        let calls = calls(root);
        assert_eq!(calls.len(), 20);
        assert!(calls.iter().all(|c| c.expected.is_finite()));
        // Consecutive calls are the two fields of one baseline row.
        for row in calls.chunks(CALLS_PER_OP) {
            assert_eq!((&row[0].model, row[0].j), (&row[1].model, row[1].j));
            assert_eq!(row[0].field[..5], row[1].field[..5]);
            assert_ne!(row[0].field, row[1].field);
        }
        // A corrupted energy fails the check.
        assert!(energy_matches(&calls[0], calls[0].expected));
        assert!(!energy_matches(&calls[0], calls[0].expected + 1e-15));
    }

    #[test]
    fn the_seed_sets_the_order() {
        let a = order(3, 10);
        assert_eq!(a, order(3, 10));
        assert_ne!(a, order(4, 10));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..10).collect::<Vec<_>>());
    }
}
