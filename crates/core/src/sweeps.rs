//! Figure-level experiment drivers (consumed by the bench harness).
//!
//! Every figure/table artifact is a **sweep driver**: it exposes a
//! declarative [`eftq_sweep::SweepSpec`] (the point grid) plus a pure
//! per-point evaluator returning an [`eftq_sweep::Row`], and the
//! binaries are thin CLI wrappers that hand both to
//! [`eftq_sweep::run_sweep`] for work-stealing parallelism, JSONL
//! checkpoints/resume, `--shard k/N` partitioning, shard merging, and
//! farm mode (`--farm` coordinates, `--worker` joins). Because each
//! evaluator is a pure function of its point and derived seed, a driver
//! needs no farm awareness at all: the same closure runs locally, in a
//! shard, or on a leased batch shipped over TCP, and the artifact bytes
//! come out identical.
//! Drivers share compiled artifacts (ansatz structures,
//! [`eftq_stabilizer::NoiseTemplate`]s keyed by
//! [`NoiseTemplate::cache_key`], Figure-11 fidelity curves) across
//! points through [`eftq_sweep::ArtifactCache`]s, so a grid never
//! recompiles what a neighbouring point already built. The grids
//! reproduce the historical binaries' nested-loop orders exactly —
//! golden JSONL artifacts depend on it.

use crate::clifford_vqe::{
    clifford_vqe_with_template, genome_energy, reevaluate_genome, CliffordVqeConfig,
};
use crate::crossover::{blocked_crossover_qubits, fig11_curves, CrossoverPoint};
use crate::fidelity::{
    conventional_fidelity, conventional_fidelity_best_factory, cultivation_fidelity, pqec_fidelity,
    Workload,
};
use crate::hamiltonians::{heisenberg_1d, ising_1d, molecular, Molecule, BOND_LENGTHS, COUPLINGS};
use crate::regimes::ExecutionRegime;
use crate::relative_improvement;
use crate::vqe::{run_vqe, VqeConfig};
use crate::zne::{energy_at_scale, zne_energy};
use eftq_circuit::ansatz::{blocked_all_to_all, fully_connected_hea};
use eftq_circuit::{Ansatz, AnsatzKind};
use eftq_layout::layouts::{LayoutKind, LayoutModel};
use eftq_layout::schedule::{schedule_ansatz, spacetime_ratio, ScheduleConfig};
use eftq_layout::shuffling::{naive_backup_volume, patch_shuffling_volume};
use eftq_optim::GeneticConfig;
use eftq_pauli::PauliSum;
use eftq_qec::{DeviceModel, InjectionModel, FACTORY_CATALOG};
use eftq_stabilizer::{NoiseTemplate, StabilizerNoise};
use eftq_sweep::{ArtifactCache, Row, SweepPoint, SweepSpec};
use std::sync::Arc;

/// The artifact configuration stamp: grids and budgets differ between
/// the reduced default and `EFT_FULL=1`, so their checkpoints must never
/// cross-resume even where axis values coincide.
fn scale_tag(full_scale: bool) -> &'static str {
    if full_scale {
        "full"
    } else {
        "reduced"
    }
}

/// The Figure-12 paper-scale qubit ladder (`EFT_FULL=1`) and its reduced
/// default.
fn clifford_sizes(full_scale: bool, full: &[i64], reduced: &[i64]) -> Vec<i64> {
    if full_scale { full } else { reduced }.to_vec()
}

/// The shared GA configuration of the Clifford-VQE figures (12 and 14):
/// a small search budget by default, the paper-scale budget under
/// `EFT_FULL=1`. The search runs on its grid point's thread (the
/// default single GA thread): points are the only parallel unit, so the
/// runner's `--threads` and the farm's workers fill the cores without
/// nesting a second pool per point.
fn clifford_figure_config(full_scale: bool) -> CliffordVqeConfig {
    CliffordVqeConfig {
        ga: GeneticConfig {
            population: if full_scale { 32 } else { 16 },
            generations: if full_scale { 40 } else { 16 },
            ..GeneticConfig::default()
        },
        shots: if full_scale { 16 } else { 6 },
        ..CliffordVqeConfig::default()
    }
}

fn model_hamiltonian(model: &str, n: usize, j: f64) -> PauliSum {
    match model {
        "Ising" => ising_1d(n, j),
        "Heisenberg" => heisenberg_1d(n, j),
        other => panic!("unknown model '{other}'"),
    }
}

/// Shared per-sweep compilation state for the Clifford-VQE drivers:
/// ansatz structures per qubit count and [`NoiseTemplate`]s per
/// (circuit, noise), both safe to share across worker threads.
struct CliffordArtifacts {
    ansatze: ArtifactCache<(AnsatzKind, usize), Ansatz>,
    templates: ArtifactCache<u64, NoiseTemplate>,
}

impl CliffordArtifacts {
    fn new() -> Self {
        CliffordArtifacts {
            ansatze: ArtifactCache::new(),
            templates: ArtifactCache::new(),
        }
    }

    fn ansatz(&self, kind: AnsatzKind, n: usize) -> Arc<Ansatz> {
        self.ansatze.get_or_build((kind, n), || match kind {
            AnsatzKind::FullyConnectedHea => fully_connected_hea(n, 1),
            AnsatzKind::BlockedAllToAll => blocked_all_to_all(n, 1),
            other => panic!("no sweep ansatz builder for {other:?}"),
        })
    }

    fn template(&self, ansatz: &Ansatz, noise: &StabilizerNoise) -> Arc<NoiseTemplate> {
        self.templates
            .get_or_build(NoiseTemplate::cache_key(ansatz.circuit(), noise), || {
                NoiseTemplate::compile(ansatz.circuit(), noise)
            })
    }

    /// Appends both caches' hit/miss counts to a summary row.
    fn append_cache_stats(&self, row: Row) -> Row {
        row.int("ansatz_cache_hits", self.ansatze.hits() as i64)
            .int("ansatz_cache_misses", self.ansatze.misses() as i64)
            .int("template_cache_hits", self.templates.hits() as i64)
            .int("template_cache_misses", self.templates.misses() as i64)
    }

    /// The lowest *noiseless* search energy: the Clifford search under
    /// [`StabilizerNoise::noiseless`], through the shared template cache.
    fn noiseless_reference(
        &self,
        ansatz: &Ansatz,
        h: &PauliSum,
        config: &CliffordVqeConfig,
    ) -> f64 {
        let template = self.template(ansatz, &StabilizerNoise::noiseless());
        clifford_vqe_with_template(ansatz, h, &template, config).best_energy
    }
}

/// Figure 12 as a sweep: γ(pQEC/NISQ) from the genetic Clifford VQE over
/// (model, qubits, J) — the grid behind `fig12_gamma_large_scale`.
pub struct Fig12Driver {
    config: CliffordVqeConfig,
    artifacts: CliffordArtifacts,
}

impl Fig12Driver {
    /// The point grid: model × qubit ladder × coupling.
    pub fn spec(full_scale: bool) -> SweepSpec {
        SweepSpec::new("fig12")
            .with_config(scale_tag(full_scale))
            .axis_strs("model", ["Ising", "Heisenberg"])
            .axis_ints(
                "qubits",
                clifford_sizes(full_scale, &[16, 24, 32, 48, 64, 100], &[16, 24, 32]),
            )
            .axis_nums("j", COUPLINGS)
    }

    /// A driver with the binary's reduced/full configuration.
    pub fn new(full_scale: bool) -> Self {
        Fig12Driver {
            config: clifford_figure_config(full_scale),
            artifacts: CliffordArtifacts::new(),
        }
    }

    /// The GA/shot configuration the points run under.
    pub fn config(&self) -> &CliffordVqeConfig {
        &self.config
    }

    /// Appends the ansatz/template cache hit/miss counts to a summary
    /// row.
    pub fn append_cache_stats(&self, row: Row) -> Row {
        self.artifacts.append_cache_stats(row)
    }

    /// Evaluates one grid point. Pure function of the point (the VQE
    /// seeds live in the config), so rows are identical at any thread
    /// count and across resumes.
    pub fn eval(&self, point: &SweepPoint) -> Row {
        let n = point.int("qubits") as usize;
        let j = point.num("j");
        let model = point.str("model");
        let h = model_hamiltonian(model, n, j);
        let ansatz = self.artifacts.ansatz(AnsatzKind::FullyConnectedHea, n);
        let config = &self.config;
        let pqec_noise = ExecutionRegime::pqec_default().stabilizer_noise();
        let nisq_noise = ExecutionRegime::nisq_default().stabilizer_noise();
        let pqec = clifford_vqe_with_template(
            &ansatz,
            &h,
            &self.artifacts.template(&ansatz, &pqec_noise),
            config,
        );
        let nisq = clifford_vqe_with_template(
            &ansatz,
            &h,
            &self.artifacts.template(&ansatz, &nisq_noise),
            config,
        );
        // Unbiased re-evaluation of both winners (the few-shot search
        // estimate is optimistically biased). Points are the parallel
        // unit, so the re-evaluation runs on this thread.
        let reeval_shots = 8 * config.shots;
        let e_pqec = reevaluate_genome(
            &ansatz,
            &h,
            &pqec_noise,
            &pqec.best_genome,
            reeval_shots,
            17,
            1,
        );
        let e_nisq = reevaluate_genome(
            &ansatz,
            &h,
            &nisq_noise,
            &nisq.best_genome,
            reeval_shots,
            17,
            1,
        );
        // E0: lowest noiseless stabilizer energy seen anywhere.
        let e0 = self
            .artifacts
            .noiseless_reference(&ansatz, &h, config)
            .min(genome_energy(&ansatz, &h, &pqec.best_genome))
            .min(genome_energy(&ansatz, &h, &nisq.best_genome));
        let gamma = relative_improvement(e0, e_pqec, e_nisq);
        Row::new("fig12")
            .str("model", model)
            .int("qubits", n as i64)
            .num("j", j)
            .num("e0", e0)
            .num("e_pqec", e_pqec)
            .num("e_nisq", e_nisq)
            .num("gamma", gamma)
    }
}

/// Figure 14 as a sweep: γ(blocked_all_to_all / FCHE) under pQEC plus
/// the noiseless expressibility ratio, over (model, qubits, J).
pub struct Fig14Driver {
    config: CliffordVqeConfig,
    artifacts: CliffordArtifacts,
}

impl Fig14Driver {
    /// The point grid: model × qubit ladder × coupling.
    pub fn spec(full_scale: bool) -> SweepSpec {
        SweepSpec::new("fig14")
            .with_config(scale_tag(full_scale))
            .axis_strs("model", ["Ising", "Heisenberg"])
            .axis_ints(
                "qubits",
                clifford_sizes(full_scale, &[16, 24, 32, 48], &[16, 24]),
            )
            .axis_nums("j", COUPLINGS)
    }

    /// A driver with the binary's reduced/full configuration.
    pub fn new(full_scale: bool) -> Self {
        Fig14Driver {
            config: clifford_figure_config(full_scale),
            artifacts: CliffordArtifacts::new(),
        }
    }

    /// Appends the ansatz/template cache hit/miss counts to a summary
    /// row.
    pub fn append_cache_stats(&self, row: Row) -> Row {
        self.artifacts.append_cache_stats(row)
    }

    /// Evaluates one grid point (pure function of the point).
    pub fn eval(&self, point: &SweepPoint) -> Row {
        let n = point.int("qubits") as usize;
        let j = point.num("j");
        let model = point.str("model");
        let h = model_hamiltonian(model, n, j);
        let config = &self.config;
        let regime = ExecutionRegime::pqec_default();
        let noise = regime.stabilizer_noise();
        let blocked = self.artifacts.ansatz(AnsatzKind::BlockedAllToAll, n);
        let fche = self.artifacts.ansatz(AnsatzKind::FullyConnectedHea, n);
        // One noiseless GA per ansatz: e0 and the expressibility ratio
        // below share these values.
        let if_ = self.artifacts.noiseless_reference(&fche, &h, config);
        let ib = self.artifacts.noiseless_reference(&blocked, &h, config);
        let e0 = if_.min(ib);
        let eb_run = clifford_vqe_with_template(
            &blocked,
            &h,
            &self.artifacts.template(&blocked, &noise),
            config,
        );
        let ef_run =
            clifford_vqe_with_template(&fche, &h, &self.artifacts.template(&fche, &noise), config);
        let reeval_shots = 8 * config.shots;
        let eb = reevaluate_genome(
            &blocked,
            &h,
            &noise,
            &eb_run.best_genome,
            reeval_shots,
            23,
            1,
        );
        let ef = reevaluate_genome(&fche, &h, &noise, &ef_run.best_genome, reeval_shots, 23, 1);
        let e0 = e0
            .min(genome_energy(&blocked, &h, &eb_run.best_genome))
            .min(genome_energy(&fche, &h, &ef_run.best_genome));
        let gamma = relative_improvement(e0, eb, ef);
        // Expressibility: noiseless converged energies ratio.
        let ideal_ratio = if if_.abs() > 1e-9 { ib / if_ } else { 1.0 };
        Row::new("fig14")
            .str("model", model)
            .int("qubits", n as i64)
            .num("j", j)
            .num("e0", e0)
            .num("e_blocked", eb)
            .num("e_fche", ef)
            .num("gamma", gamma)
            .num("ideal_ratio", ideal_ratio)
    }
}

/// Figure 13 as two sweeps: γ(pQEC/NISQ) from the density-matrix VQE for
/// the physics models (Ising/Heisenberg × J), plus the `EFT_FULL=1`
/// chemistry grid (molecule × bond length).
pub struct Fig13Driver {
    config: VqeConfig,
    qubits: usize,
}

impl Fig13Driver {
    /// The physics grid: model × coupling (at the reduced 6-qubit or
    /// paper 8-qubit size, carried by the driver).
    pub fn spec(full_scale: bool) -> SweepSpec {
        SweepSpec::new("fig13")
            .with_config(scale_tag(full_scale))
            .axis_nums("j", COUPLINGS)
            .axis_strs("model", ["Ising", "Heisenberg"])
    }

    /// The chemistry grid (paper-scale only): molecule × bond length.
    pub fn chem_spec() -> SweepSpec {
        SweepSpec::new("fig13_chem")
            .with_config(scale_tag(true))
            .axis_strs("molecule", Molecule::ALL.map(|m| m.name()))
            .axis_nums("bond_length", BOND_LENGTHS)
    }

    /// A driver with the binary's reduced/full configuration.
    pub fn new(full_scale: bool) -> Self {
        Fig13Driver {
            config: VqeConfig {
                max_iters: if full_scale { 400 } else { 300 },
                restarts: if full_scale { 3 } else { 2 },
                ..VqeConfig::default()
            },
            qubits: if full_scale { 8 } else { 6 },
        }
    }

    fn gamma_row(&self, row: Row, label: &str, h: &PauliSum) -> Row {
        let n = h.num_qubits();
        let ansatz = fully_connected_hea(n, 1);
        let e0 = h.ground_energy_default().expect("lanczos");
        let pqec = run_vqe(&ansatz, h, &ExecutionRegime::pqec_default(), &self.config);
        let nisq = run_vqe(&ansatz, h, &ExecutionRegime::nisq_default(), &self.config);
        let gamma = relative_improvement(e0, pqec.best_energy, nisq.best_energy);
        row.str("benchmark", label)
            .int("n", n as i64)
            .num("e0", e0)
            .num("e_pqec", pqec.best_energy)
            .num("e_nisq", nisq.best_energy)
            .num("gamma", gamma)
    }

    /// Evaluates one physics point (pure function of the point).
    pub fn eval(&self, point: &SweepPoint) -> Row {
        let j = point.num("j");
        let model = point.str("model");
        let n = self.qubits;
        let h = model_hamiltonian(model, n, j);
        let row = Row::new("fig13").str("model", model).num("j", j);
        self.gamma_row(row, &format!("{model}-{n} J={j}"), &h)
    }

    /// Evaluates one chemistry point (pure function of the point).
    pub fn eval_chem(&self, point: &SweepPoint) -> Row {
        let name = point.str("molecule");
        let l = point.num("bond_length");
        let m = Molecule::ALL
            .into_iter()
            .find(|m| m.name() == name)
            .unwrap_or_else(|| panic!("unknown molecule '{name}'"));
        let h = molecular(m, l);
        let row = Row::new("fig13_chem")
            .str("molecule", name)
            .num("bond_length", l);
        self.gamma_row(row, &format!("{name}-12 l={l}A"), &h)
    }
}

/// Table 1 as a sweep: mean spacetime-volume ratio of each baseline
/// layout to the proposed layout, per ansatz family, averaged over the
/// paper's 8..=164 qubit ladder.
pub struct Table1Driver;

impl Table1Driver {
    /// The point grid: baseline layout × ansatz family.
    pub fn spec() -> SweepSpec {
        SweepSpec::new("table1")
            .axis_strs(
                "layout",
                [
                    LayoutKind::Compact,
                    LayoutKind::Intermediate,
                    LayoutKind::Fast,
                    LayoutKind::Grid,
                ]
                .map(|l| l.name()),
            )
            .axis_strs(
                "ansatz",
                [
                    AnsatzKind::LinearHea,
                    AnsatzKind::FullyConnectedHea,
                    AnsatzKind::BlockedAllToAll,
                ]
                .map(|k| k.name()),
            )
    }

    /// Evaluates one (layout, ansatz) cell (pure function of the point).
    pub fn eval(point: &SweepPoint) -> Row {
        let baseline = match point.str("layout") {
            "Compact" => LayoutKind::Compact,
            "Intermediate" => LayoutKind::Intermediate,
            "Fast" => LayoutKind::Fast,
            "Grid" => LayoutKind::Grid,
            other => panic!("unknown layout '{other}'"),
        };
        let kind = match point.str("ansatz") {
            "linear" => AnsatzKind::LinearHea,
            "fully_connected" => AnsatzKind::FullyConnectedHea,
            "blocked_all_to_all" => AnsatzKind::BlockedAllToAll,
            other => panic!("unknown ansatz '{other}'"),
        };
        let ratios: Vec<f64> = (8..=164)
            .step_by(4)
            .map(|n| spacetime_ratio(kind, n, 1, baseline))
            .collect();
        let mean = eftq_numerics::stats::mean(&ratios);
        Row::new("table1")
            .str("layout", baseline.name())
            .str("ansatz", kind.name())
            .num("mean_ratio", mean)
    }
}

/// The [`ExecutionRegime`] named by a categorical sweep axis.
fn regime_by_name(name: &str) -> ExecutionRegime {
    match name {
        "NISQ" => ExecutionRegime::nisq_default(),
        "pQEC" => ExecutionRegime::pqec_default(),
        other => panic!("unknown regime '{other}'"),
    }
}

/// Figure 4 as a sweep: pQEC vs qec-conventional over
/// (qubits, factory) on the 10k-qubit EFT device.
pub struct Fig4Driver;

impl Fig4Driver {
    /// The point grid: 12–24 qubit FCHE workloads × the factory catalog.
    pub fn spec() -> SweepSpec {
        SweepSpec::new("fig04")
            .axis_ints("qubits", (12..=24).step_by(4).map(|n| n as i64))
            .axis_strs("factory", FACTORY_CATALOG.map(|f| f.name))
    }

    /// Evaluates one (qubits, factory) point (pure function of the point).
    pub fn eval(point: &SweepPoint) -> Row {
        let n = point.int("qubits") as usize;
        let device = DeviceModel::eft_default();
        let w = Workload::fche(n, 1);
        let pqec = pqec_fidelity(&w, &device).expect("EFT device hosts 12-24 qubits");
        let factory = FACTORY_CATALOG
            .iter()
            .find(|f| f.name == point.str("factory"))
            .expect("factory axis values come from the catalog");
        let conv = conventional_fidelity(&w, &device, factory)
            .map_or(crate::fidelity::FIDELITY_FLOOR, |c| c.fidelity);
        Row::new("fig04")
            .int("qubits", n as i64)
            .str("factory", factory.name)
            .num("pqec", pqec.fidelity)
            .num("conventional", conv)
            .num("improvement", pqec.fidelity / conv)
    }
}

/// Figure 5 as a sweep: pQEC win percentage over
/// (device size, program size).
pub struct Fig5Driver;

impl Fig5Driver {
    /// The device-size ladder (10k–60k physical qubits).
    pub fn device_sizes() -> Vec<usize> {
        (10..=60).step_by(10).map(|k| k * 1000).collect()
    }

    /// The program-size ladder: every tenth size at paper scale, a
    /// representative subset by default.
    pub fn program_sizes(full_scale: bool) -> Vec<usize> {
        if full_scale {
            (10..=240).step_by(10).collect()
        } else {
            vec![12, 20, 28, 40, 60, 80, 120, 160, 200, 240]
        }
    }

    /// The point grid: device sizes × program sizes.
    pub fn spec(full_scale: bool) -> SweepSpec {
        SweepSpec::new("fig05")
            .with_config(scale_tag(full_scale))
            .axis_ints(
                "device_qubits",
                Self::device_sizes().into_iter().map(|n| n as i64),
            )
            .axis_ints(
                "logical_qubits",
                Self::program_sizes(full_scale)
                    .into_iter()
                    .map(|n| n as i64),
            )
    }

    /// Evaluates one grid cell (pure function of the point).
    pub fn eval(point: &SweepPoint) -> Row {
        let dq = point.int("device_qubits");
        let n = point.int("logical_qubits");
        let (feasible, win_fraction) = fig5_cell(dq as usize, n as usize);
        Row::new("fig05")
            .int("device_qubits", dq)
            .int("logical_qubits", n)
            .int("feasible", i64::from(feasible))
            .num("pqec_win_fraction", win_fraction)
    }
}

/// One Figure-5 cell: whether the program fits the device, and pQEC's win
/// fraction over qec-conventional (0..=1). The workload ensemble varies
/// ansatz family (linear / FCHE / blocked where the size allows) and depth
/// 1..=4; qec-conventional picks its best factory per workload.
fn fig5_cell(device_qubits: usize, logical_qubits: usize) -> (bool, f64) {
    let (dq, n) = (device_qubits, logical_qubits);
    let device = DeviceModel::new(dq, 1e-3);
    // The paper's Figure-5 feasibility rule: white when the
    // program's *data patches* at d = 11 exceed the device.
    let feasible = n * (2 * 11 * 11 - 1) <= dq;
    let mut wins = 0usize;
    let mut total = 0usize;
    if feasible {
        for depth in 1..=4 {
            let mut workloads = vec![Workload::linear(n, depth), Workload::fche(n, depth)];
            if eftq_circuit::ansatz::blocked_block_parameter(n).is_some() {
                workloads.push(Workload::blocked(n, depth));
            }
            for w in workloads {
                let Some(pqec) = pqec_fidelity(&w, &device) else {
                    continue;
                };
                let conv =
                    conventional_fidelity_best_factory(&w, &device).map_or(0.0, |c| c.fidelity);
                total += 1;
                if pqec.fidelity > conv {
                    wins += 1;
                }
            }
        }
    }
    // A cell where pQEC hosts no workload of the ensemble is white too.
    if total == 0 {
        return (false, 0.0);
    }
    (true, wins as f64 / total as f64)
}

/// Figure 6 as a sweep: pQEC vs qec-cultivation over
/// (program size, device size). The historical binary iterated programs
/// outer and devices inner, so the axes keep that order.
pub struct Fig6Driver;

impl Fig6Driver {
    /// The point grid: 12–68 logical qubits × {10k, 20k} devices.
    pub fn spec() -> SweepSpec {
        SweepSpec::new("fig06")
            .axis_ints("logical_qubits", (12..=68).step_by(8).map(|n| n as i64))
            .axis_ints("device_qubits", [10_000, 20_000])
    }

    /// Evaluates one point (pure function of the point). An unfit
    /// workload (pQEC cannot host it) yields a `null` improvement; every
    /// point of the default grid fits.
    pub fn eval(point: &SweepPoint) -> Row {
        let n = point.int("logical_qubits") as usize;
        let dq = point.int("device_qubits") as usize;
        let device = DeviceModel::new(dq, 1e-3);
        let w = Workload::fche(n, 1);
        let improvement = pqec_fidelity(&w, &device).map_or(f64::NAN, |pqec| {
            let cult = cultivation_fidelity(&w, &device)
                .map_or(crate::fidelity::FIDELITY_FLOOR, |c| c.fidelity);
            pqec.fidelity / cult
        });
        Row::new("fig06")
            .int("device_qubits", dq as i64)
            .int("logical_qubits", n as i64)
            .num("improvement", improvement)
    }
}

/// Figure 8 as a sweep: patch-shuffling spacetime volume vs the naive
/// strategy with b = 1..=4 backup states, over the qubit ladder.
pub struct Fig8Driver;

impl Fig8Driver {
    /// The point grid: 20–76 qubits.
    pub fn spec() -> SweepSpec {
        SweepSpec::new("fig08").axis_ints("qubits", (20..=76).step_by(4).map(|n| n as i64))
    }

    /// Evaluates one qubit count (pure function of the point).
    pub fn eval(point: &SweepPoint) -> Row {
        let n = point.int("qubits") as usize;
        let model = InjectionModel::eft_default();
        let mut row = Row::new("fig08")
            .int("qubits", n as i64)
            .num("shuffling", patch_shuffling_volume(n, 1, &model).volume);
        for b in 1..=4 {
            row = row.num(
                &format!("naive_b{b}"),
                naive_backup_volume(n, 1, b, &model).volume,
            );
        }
        row
    }
}

/// Figure 11 as two sweeps: NISQ vs EFT fidelity against depth for the
/// blocked ansatz (grid `fig11`), plus the Section-4.4 theoretical
/// crossover as an axis-less companion spec (`fig11_crossover`).
pub struct Fig11Driver {
    curves: ArtifactCache<usize, Vec<CrossoverPoint>>,
}

impl Default for Fig11Driver {
    fn default() -> Self {
        Self::new()
    }
}

impl Fig11Driver {
    /// The depth ladder the binary has always printed: every fourth
    /// depth of the 24-deep curves.
    const DEPTHS: [i64; 6] = [1, 5, 9, 13, 17, 21];

    /// The point grid: qubit sizes × sampled depths.
    pub fn spec() -> SweepSpec {
        SweepSpec::new("fig11")
            .axis_ints("qubits", [8, 12, 16])
            .axis_ints("depth", Self::DEPTHS)
    }

    /// The companion single-point spec for the theoretical crossover.
    pub fn crossover_spec() -> SweepSpec {
        SweepSpec::new("fig11_crossover")
    }

    /// A driver with a per-sweep curve cache (each qubit size's 24-depth
    /// curve is computed once and shared across its depth points).
    pub fn new() -> Self {
        Fig11Driver {
            curves: ArtifactCache::new(),
        }
    }

    /// Evaluates one (qubits, depth) point (pure function of the point).
    pub fn eval(&self, point: &SweepPoint) -> Row {
        let n = point.int("qubits") as usize;
        let depth = point.int("depth") as usize;
        let curve = self.curves.get_or_build(n, || fig11_curves(n, 24));
        let pt = curve
            .iter()
            .find(|p| p.depth == depth)
            .expect("depth axis values lie inside the curve");
        Row::new("fig11")
            .int("qubits", n as i64)
            .int("depth", depth as i64)
            .num("nisq", pt.nisq)
            .num("eft", pt.eft)
    }

    /// Evaluates the crossover spec's single point.
    pub fn eval_crossover(_point: &SweepPoint) -> Row {
        Row::new("fig11_crossover").int("crossover_qubits", blocked_crossover_qubits() as i64)
    }

    /// Appends the curve cache's hit/miss counts to a summary row.
    pub fn append_cache_stats(&self, row: Row) -> Row {
        row.int("curve_cache_hits", self.curves.hits() as i64)
            .int("curve_cache_misses", self.curves.misses() as i64)
    }
}

/// The ZNE extension bench as a sweep: how much of the noisy gap
/// zero-noise extrapolation recovers, per execution regime.
pub struct Fig13ZneDriver;

impl Fig13ZneDriver {
    /// The Figure-13 workload the extension layers on.
    const QUBITS: usize = 6;

    /// The point grid: one point per execution regime.
    pub fn spec() -> SweepSpec {
        SweepSpec::new("fig13_zne").axis_strs("regime", ["NISQ", "pQEC"])
    }

    /// Evaluates one regime (pure function of the point).
    pub fn eval(point: &SweepPoint) -> Row {
        let regime = regime_by_name(point.str("regime"));
        let h = ising_1d(Self::QUBITS, 1.0);
        let ansatz = fully_connected_hea(Self::QUBITS, 1);
        let params: Vec<f64> = (0..ansatz.num_params()).map(|i| 0.21 * i as f64).collect();
        let ideal = energy_at_scale(&ansatz, &params, &regime, &h, 0.0);
        let noisy = energy_at_scale(&ansatz, &params, &regime, &h, 1.0);
        let zne = zne_energy(&ansatz, &params, &regime, &h, &[1.0, 1.5, 2.0]);
        let recovered = if (noisy - ideal).abs() > 1e-12 {
            1.0 - (zne.extrapolated - ideal).abs() / (noisy - ideal).abs()
        } else {
            1.0
        };
        Row::new("fig13_zne")
            .str("regime", regime.name())
            .num("noiseless", ideal)
            .num("noisy", noisy)
            .num("zne", zne.extrapolated)
            .num("recovered", recovered)
    }
}

/// Figure 15 as a sweep: VarSaw-style measurement mitigation vs plain
/// VQE over (model, regime) at J = 1.
pub struct Fig15Driver {
    config: VqeConfig,
    qubits: usize,
    /// Both regimes of a model share its Hamiltonian and exact ground
    /// energy (the Lanczos solve is the expensive part at 12 qubits).
    models: ArtifactCache<String, (PauliSum, f64)>,
}

impl Fig15Driver {
    /// The point grid: model × execution regime.
    pub fn spec(full_scale: bool) -> SweepSpec {
        SweepSpec::new("fig15")
            .with_config(scale_tag(full_scale))
            .axis_strs("model", ["Ising", "Heisenberg"])
            .axis_strs("regime", ["NISQ", "pQEC"])
    }

    /// A driver with the binary's reduced/full configuration (6 vs 12
    /// qubits; the VQE iteration budget scales with it).
    pub fn new(full_scale: bool) -> Self {
        Fig15Driver {
            config: VqeConfig {
                max_iters: if full_scale { 300 } else { 250 },
                restarts: 2,
                ..VqeConfig::default()
            },
            qubits: if full_scale { 12 } else { 6 },
            models: ArtifactCache::new(),
        }
    }

    /// Appends the model cache's hit/miss counts to a summary row.
    pub fn append_cache_stats(&self, row: Row) -> Row {
        row.int("model_cache_hits", self.models.hits() as i64)
            .int("model_cache_misses", self.models.misses() as i64)
    }

    /// Evaluates one (model, regime) point (pure function of the point).
    pub fn eval(&self, point: &SweepPoint) -> Row {
        let model = point.str("model");
        let n = self.qubits;
        let entry = self.models.get_or_build(model.to_string(), || {
            let h = model_hamiltonian(model, n, 1.0);
            let e0 = h.ground_energy_default().expect("lanczos");
            (h, e0)
        });
        let (h, e0) = (&entry.0, entry.1);
        let ansatz = fully_connected_hea(n, 1);
        let regime = regime_by_name(point.str("regime"));
        let plain = run_vqe(&ansatz, h, &regime, &self.config);
        let mitigated = run_vqe(
            &ansatz,
            h,
            &regime,
            &VqeConfig {
                mitigate_measurement: true,
                ..self.config
            },
        );
        Row::new("fig15")
            .str("model", model)
            .int("qubits", n as i64)
            .str("regime", regime.name())
            .num("plain", plain.best_energy)
            .num("mitigated", mitigated.best_energy)
            .num("e0", e0)
    }
}

/// Table 2 as a sweep: schedule length (cycles) of blocked_all_to_all vs
/// FCHE on the proposed layout, per qubit count.
pub struct Table2Driver;

impl Table2Driver {
    /// The point grid: the paper's three qubit counts.
    pub fn spec() -> SweepSpec {
        SweepSpec::new("table2").axis_ints("qubits", [20, 40, 60])
    }

    /// Evaluates one qubit count (pure function of the point).
    pub fn eval(point: &SweepPoint) -> Row {
        let n = point.int("qubits") as usize;
        let cfg = ScheduleConfig::default();
        let ours = LayoutModel::proposed();
        let blocked = schedule_ansatz(AnsatzKind::BlockedAllToAll, n, 1, &ours, &cfg);
        let fche = schedule_ansatz(AnsatzKind::FullyConnectedHea, n, 1, &ours, &cfg);
        Row::new("table2")
            .int("qubits", n as i64)
            .int("blocked_cycles", blocked.cycles as i64)
            .int("fche_cycles", fche.cycles as i64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Evaluates every point of `spec` through a driver's evaluator.
    fn driver_rows(spec: &SweepSpec, eval: fn(&SweepPoint) -> Row) -> Vec<Row> {
        spec.points().iter().map(eval).collect()
    }

    /// Figure-6 rows over the given programs × devices.
    fn fig6_rows_at(logical_qubits: &[i64], device_qubits: &[i64]) -> Vec<Row> {
        let spec = SweepSpec::new("fig06")
            .axis_ints("logical_qubits", logical_qubits.iter().copied())
            .axis_ints("device_qubits", device_qubits.iter().copied());
        driver_rows(&spec, Fig6Driver::eval)
    }

    fn improvement(row: &Row) -> f64 {
        row.get_num("improvement").unwrap()
    }

    #[test]
    fn fig4_rows_cover_sweep() {
        let rows = driver_rows(&Fig4Driver::spec(), Fig4Driver::eval);
        assert_eq!(rows.len(), 4 * 4); // 4 sizes × 4 factories
        for r in &rows {
            assert!(
                improvement(r) >= 0.999,
                "pQEC must not lose: {} at n = {}, {}",
                improvement(r),
                r.get_int("qubits").unwrap(),
                r.get_str("factory").unwrap()
            );
        }
    }

    #[test]
    fn fig4_average_improvement_is_substantial() {
        let rows = driver_rows(&Fig4Driver::spec(), Fig4Driver::eval);
        let ratios: Vec<f64> = rows.iter().map(improvement).collect();
        let geo = eftq_numerics::stats::geometric_mean(&ratios);
        // The paper's Figure-4 improvements span 1–250×; our model's
        // geometric mean lands comfortably above 1.
        assert!(geo > 1.5, "{geo}");
    }

    #[test]
    fn fig5_has_white_and_contested_cells() {
        // 80 logical qubits do not fit a 10k device at d = 11.
        let (feasible, _) = fig5_cell(10_000, 80);
        assert!(!feasible);
        // Small program on the big device: conventional wins most of the
        // ensemble.
        let (feasible, conv_zone) = fig5_cell(60_000, 12);
        assert!(feasible);
        assert!(conv_zone < 0.5, "{conv_zone}");
        // Frontier program on the small device: pQEC wins.
        let (feasible, pqec_zone) = fig5_cell(10_000, 40);
        assert!(feasible);
        assert!(pqec_zone > 0.5, "{pqec_zone}");
    }

    #[test]
    fn fig6_crossover_with_logical_qubits() {
        let rows = fig6_rows_at(&[12, 24, 40, 60], &[10_000]);
        let first = improvement(rows.first().unwrap());
        let last = improvement(rows.last().unwrap());
        // Cultivation wins small (ratio < 1), pQEC wins large (ratio > 1).
        assert!(first < 1.0, "{first}");
        assert!(last > 1.0, "{last}");
        // The advantage grows from the small-program to the mid-size
        // regime (it may saturate/fluctuate once both fidelities floor).
        let at = |n: i64| {
            improvement(
                rows.iter()
                    .find(|r| r.get_int("logical_qubits") == Some(n))
                    .unwrap(),
            )
        };
        assert!(at(24) > at(12));
    }

    #[test]
    fn fig6_more_space_helps_cultivation() {
        let rows = fig6_rows_at(&[24], &[10_000, 20_000]);
        let (r10, r20) = (improvement(&rows[0]), improvement(&rows[1]));
        // On the bigger device cultivation has more units, so pQEC's
        // relative advantage shrinks.
        assert!(r20 <= r10 + 1e-9);
    }

    #[test]
    fn sweep_specs_enumerate_the_binary_loop_orders() {
        // The grids must reproduce the historical nested-loop orders so
        // sweep-engine artifacts stay row-for-row identical to the
        // pre-engine binaries.
        let fig12 = Fig12Driver::spec(false);
        assert_eq!(fig12.num_points(), 2 * 3 * 3);
        let p0 = fig12.point(0);
        assert_eq!(
            (p0.str("model"), p0.int("qubits"), p0.num("j")),
            ("Ising", 16, 0.25)
        );
        let p_last = fig12.point(17);
        assert_eq!(
            (p_last.str("model"), p_last.int("qubits"), p_last.num("j")),
            ("Heisenberg", 32, 1.0)
        );
        assert_eq!(Fig12Driver::spec(true).num_points(), 2 * 6 * 3);

        // fig13's binary iterated J outer, model inner.
        let fig13 = Fig13Driver::spec(false);
        let p1 = fig13.point(1);
        assert_eq!((p1.num("j"), p1.str("model")), (0.25, "Heisenberg"));
        assert_eq!(Fig13Driver::chem_spec().num_points(), 3 * 2);

        assert_eq!(Fig14Driver::spec(false).num_points(), 2 * 2 * 3);
        assert_eq!(Table1Driver::spec().num_points(), 4 * 3);
    }

    #[test]
    fn new_driver_grids_match_the_historical_loop_orders() {
        // Byte-identical golden artifacts depend on the specs replaying
        // the pre-port binaries' nested-loop orders exactly.
        let fig04 = Fig4Driver::spec();
        assert_eq!(fig04.num_points(), 4 * 4);
        let p0 = fig04.point(0);
        assert_eq!(p0.int("qubits"), 12);
        assert_eq!(p0.str("factory"), FACTORY_CATALOG[0].name);
        let p_last = fig04.point(15);
        assert_eq!(p_last.int("qubits"), 24);
        assert_eq!(p_last.str("factory"), FACTORY_CATALOG[3].name);

        let fig05 = Fig5Driver::spec(false);
        assert_eq!(fig05.num_points(), 6 * 10);
        let p0 = fig05.point(0);
        assert_eq!(
            (p0.int("device_qubits"), p0.int("logical_qubits")),
            (10_000, 12)
        );
        assert_eq!(Fig5Driver::spec(true).num_points(), 6 * 24);

        // fig06's binary printed programs outer, devices inner.
        let fig06 = Fig6Driver::spec();
        assert_eq!(fig06.num_points(), 8 * 2);
        let p1 = fig06.point(1);
        assert_eq!(
            (p1.int("logical_qubits"), p1.int("device_qubits")),
            (12, 20_000)
        );

        assert_eq!(Fig8Driver::spec().num_points(), 15);
        assert_eq!(Fig8Driver::spec().point(0).int("qubits"), 20);

        let fig11 = Fig11Driver::spec();
        assert_eq!(fig11.num_points(), 3 * 6);
        assert_eq!(fig11.point(0).int("qubits"), 8);
        assert_eq!(fig11.point(0).int("depth"), 1);
        assert_eq!(fig11.point(17).int("depth"), 21);
        assert_eq!(Fig11Driver::crossover_spec().num_points(), 1);

        assert_eq!(Fig13ZneDriver::spec().num_points(), 2);
        assert_eq!(Fig13ZneDriver::spec().point(0).str("regime"), "NISQ");

        let fig15 = Fig15Driver::spec(false);
        assert_eq!(fig15.num_points(), 2 * 2);
        assert_eq!(fig15.point(0).str("model"), "Ising");
        assert_eq!(fig15.point(0).str("regime"), "NISQ");

        assert_eq!(Table2Driver::spec().num_points(), 3);
    }

    #[test]
    fn fig11_driver_shares_one_curve_per_qubit_count() {
        let driver = Fig11Driver::new();
        let spec = Fig11Driver::spec();
        for point in spec.points() {
            let row = driver.eval(&point);
            let curve = fig11_curves(point.int("qubits") as usize, 24);
            let expect = curve
                .iter()
                .find(|p| p.depth as i64 == point.int("depth"))
                .unwrap();
            assert_eq!(row.get_num("nisq"), Some(expect.nisq));
            assert_eq!(row.get_num("eft"), Some(expect.eft));
        }
        // 3 qubit sizes → 3 builds, everything else served from cache.
        assert_eq!(driver.curves.misses(), 3);
        assert_eq!(driver.curves.hits(), 18 - 3);
        let cross = Fig11Driver::eval_crossover(&Fig11Driver::crossover_spec().point(0));
        assert_eq!(cross.get_int("crossover_qubits"), Some(13));
    }

    #[test]
    fn table2_driver_reproduces_the_paper_cycles() {
        let report = eftq_sweep::run_sweep(
            &Table2Driver::spec(),
            &eftq_sweep::SweepOptions::default(),
            |p, _| Table2Driver::eval(p),
        )
        .unwrap();
        let blocked: Vec<i64> = report
            .rows
            .iter()
            .map(|r| r.get_int("blocked_cycles").unwrap())
            .collect();
        let fche: Vec<i64> = report
            .rows
            .iter()
            .map(|r| r.get_int("fche_cycles").unwrap())
            .collect();
        assert_eq!(blocked, vec![71, 121, 171]);
        assert_eq!(fche, vec![131, 271, 411]);
    }

    #[test]
    fn fig13_zne_driver_recovers_most_of_the_noisy_gap() {
        for point in Fig13ZneDriver::spec().points() {
            let row = Fig13ZneDriver::eval(&point);
            let recovered = row.get_num("recovered").unwrap();
            assert!(recovered > 0.9, "{}: {recovered}", point.str("regime"));
        }
    }

    #[test]
    fn table1_sweep_matches_direct_computation() {
        let spec = Table1Driver::spec();
        let report = eftq_sweep::run_sweep(&spec, &eftq_sweep::SweepOptions::default(), |p, _| {
            Table1Driver::eval(p)
        })
        .unwrap();
        assert_eq!(report.rows.len(), 12);
        // First row is the binary's first printed cell: Compact/linear.
        let first = &report.rows[0];
        assert_eq!(first.get_str("layout"), Some("Compact"));
        assert_eq!(first.get_str("ansatz"), Some("linear"));
        let direct: Vec<f64> = (8..=164)
            .step_by(4)
            .map(|n| spacetime_ratio(AnsatzKind::LinearHea, n, 1, LayoutKind::Compact))
            .collect();
        assert_eq!(
            first.get_num("mean_ratio"),
            Some(eftq_numerics::stats::mean(&direct))
        );
        // Every ratio ≥ 1 and the Grid rows dominate their Compact
        // counterparts (the paper's ordering).
        for row in &report.rows {
            assert!(row.get_num("mean_ratio").unwrap() >= 1.0);
        }
        let mean_of = |layout: &str, ansatz: &str| {
            report
                .rows
                .iter()
                .find(|r| {
                    r.get_str("layout") == Some(layout) && r.get_str("ansatz") == Some(ansatz)
                })
                .and_then(|r| r.get_num("mean_ratio"))
                .unwrap()
        };
        assert!(mean_of("Grid", "linear") > mean_of("Compact", "linear"));
    }

    #[test]
    fn clifford_artifact_cache_shares_compilations() {
        let artifacts = CliffordArtifacts::new();
        let a1 = artifacts.ansatz(AnsatzKind::FullyConnectedHea, 8);
        let a2 = artifacts.ansatz(AnsatzKind::FullyConnectedHea, 8);
        assert!(Arc::ptr_eq(&a1, &a2));
        let noise = ExecutionRegime::pqec_default().stabilizer_noise();
        let t1 = artifacts.template(&a1, &noise);
        let t2 = artifacts.template(&a2, &noise);
        assert!(Arc::ptr_eq(&t1, &t2));
        // A different noise model compiles separately.
        let t3 = artifacts.template(&a1, &StabilizerNoise::noiseless());
        assert!(!Arc::ptr_eq(&t1, &t3));
        assert_eq!(artifacts.templates.len(), 2);
    }
}
