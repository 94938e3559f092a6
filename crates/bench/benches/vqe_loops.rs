//! Criterion benches for the VQE inner loops (one energy evaluation per
//! regime) — the cost that dominates Figures 12-15 — and the GA fitness
//! compilation hoist (per-genome `NoiseProgram::compile` vs binding a
//! precompiled `NoiseTemplate`), recorded in the bench JSON so the
//! before/after of the hoist stays on the record.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use eft_vqa::vqe::noisy_energy;
use eft_vqa::ExecutionRegime;
use eftq_circuit::ansatz::fully_connected_hea;
use eftq_numerics::SeedSequence;
use eftq_stabilizer::{
    GroupedObservable, HeisenbergEvaluator, NoiseProgram, NoiseTemplate, Tableau,
};

fn bench_energy_evaluations(c: &mut Criterion) {
    let mut group = c.benchmark_group("vqe_energy");
    group.sample_size(10);
    let n = 6;
    let h = eft_vqa::hamiltonians::ising_1d(n, 1.0);
    let ansatz = fully_connected_hea(n, 1);
    let params: Vec<f64> = (0..ansatz.num_params()).map(|i| 0.1 * i as f64).collect();
    for regime in [
        ExecutionRegime::nisq_default(),
        ExecutionRegime::pqec_default(),
    ] {
        let noise = regime.noise_model();
        group.bench_function(format!("dm_energy_6q_{}", regime.name()), |b| {
            b.iter(|| noisy_energy(&ansatz, &params, &noise, &h, false));
        });
    }
    group.finish();
}

/// The Figure-12 GA fitness loop used to recompile the noise program for
/// every genome; now the symbolic ansatz compiles once and each genome
/// only re-resolves quarter-turn parities. These two benches are that
/// before/after at the Figure-12 16-qubit shape.
fn bench_fitness_compilation(c: &mut Criterion) {
    let mut group = c.benchmark_group("noise_compile");
    group.sample_size(20);
    let n = 16;
    let ansatz = fully_connected_hea(n, 1);
    let noise = ExecutionRegime::nisq_default().stabilizer_noise();
    let genome: Vec<u8> = (0..ansatz.num_params()).map(|i| (i % 4) as u8).collect();
    group.bench_function("per_genome_compile_16q", |b| {
        b.iter(|| NoiseProgram::compile(&ansatz.bind_clifford(&genome), &noise));
    });
    let template = NoiseTemplate::compile(ansatz.circuit(), &noise);
    group.bench_function("template_bind_16q", |b| {
        b.iter(|| template.bind_clifford(&genome));
    });
    group.finish();
}

/// The noiseless-expectation half of a Figure-12 fitness evaluation at
/// the full 100-qubit scale: all 199 Ising terms via the compiled
/// QWC-grouped kernel vs a naive per-term `Tableau::expectation` sweep
/// (both on a prebuilt tableau), and via the Heisenberg-picture
/// evaluator the fitness uses: its per-genome bind plus the 199 values,
/// with the ansatz and the Hamiltonian compiled outside the timed
/// closure, as once per search. It needs no tableau at all. (On this
/// Hamiltonian the grouped kernel's adaptive cutover takes the direct
/// path.)
fn bench_grouped_expectations(c: &mut Criterion) {
    let mut group = c.benchmark_group("grouped_e0");
    group.sample_size(20);
    let n = 100;
    let h = eft_vqa::hamiltonians::ising_1d(n, 1.0);
    let ansatz = fully_connected_hea(n, 1);
    let ks: Vec<u8> = (0..ansatz.num_params()).map(|i| (i % 4) as u8).collect();
    let circuit = ansatz.bind_clifford(&ks);
    let mut t = Tableau::new(n);
    t.run(&circuit);
    let grouped = GroupedObservable::compile(&h);
    let mut e0 = vec![0.0; h.num_terms()];
    group.bench_function("grouped_ising_100q", |b| {
        b.iter(|| {
            grouped.expectations(&t, &mut e0);
            black_box(&e0);
        });
    });
    group.bench_function("per_term_ising_100q", |b| {
        b.iter(|| {
            let mut e = 0.0;
            for term in h.terms() {
                e += term.coefficient * t.expectation(&term.string);
            }
            black_box(e)
        });
    });
    let evaluator = HeisenbergEvaluator::compile(ansatz.circuit(), &h);
    group.bench_function("heisenberg_ising_100q", |b| {
        b.iter(|| {
            evaluator.bind_clifford(&ks).expectations(&mut e0);
            black_box(&e0);
        });
    });
    group.finish();
}

/// One whole Figure-12 GA fitness evaluation at 100 qubits (Ising,
/// NISQ, 16 shots) and its phases other than the noiseless values
/// (`grouped_e0/heisenberg_ising_100q`): the noise-program bind and the
/// frame run. The frame accumulation is the remainder. The evaluator's
/// compile (ansatz and Hamiltonian) runs once per search and is listed
/// for scale.
fn bench_fitness_phases(c: &mut Criterion) {
    let mut group = c.benchmark_group("fitness_100q");
    group.sample_size(20);
    let n = 100;
    let h = eft_vqa::hamiltonians::ising_1d(n, 1.0);
    let ansatz = fully_connected_hea(n, 1);
    let ks: Vec<u8> = (0..ansatz.num_params()).map(|i| (i % 4) as u8).collect();
    let noise = ExecutionRegime::nisq_default().stabilizer_noise();
    let template = NoiseTemplate::compile(ansatz.circuit(), &noise);
    let seed = SeedSequence::new(7);
    group.bench_function("heisenberg_compile", |b| {
        b.iter(|| HeisenbergEvaluator::compile(ansatz.circuit(), &h));
    });
    let evaluator = HeisenbergEvaluator::compile(ansatz.circuit(), &h);
    group.bench_function("template_bind", |b| {
        b.iter(|| template.bind_clifford(&ks));
    });
    let program = template.bind_clifford(&ks);
    group.bench_function("frames_16shots", |b| {
        b.iter(|| program.run_threaded(16, seed.derive("pauli-frames"), 1));
    });
    group.bench_function("fitness_nisq", |b| {
        b.iter(|| {
            let program = template.bind_clifford(&ks);
            evaluator
                .bind_clifford(&ks)
                .estimate_energy(&program, template.meas_flip(), 16, seed, 1)
                .energy
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_energy_evaluations,
    bench_fitness_compilation,
    bench_grouped_expectations,
    bench_fitness_phases
);
criterion_main!(benches);
