//! Criterion benches for the analytic resource models: every table/figure
//! driver should be cheap enough to sweep interactively.

use criterion::{criterion_group, criterion_main, Criterion};
use eft_vqa::fidelity::{conventional_fidelity_best_factory, pqec_fidelity, Workload};
use eft_vqa::sweeps::{Fig4Driver, Fig5Driver, Fig6Driver};
use eftq_circuit::AnsatzKind;
use eftq_layout::layouts::LayoutKind;
use eftq_layout::schedule::spacetime_ratio;
use eftq_qec::DeviceModel;
use eftq_sweep::{SweepPoint, SweepSpec};

fn bench_fidelity_models(c: &mut Criterion) {
    let device = DeviceModel::eft_default();
    let w = Workload::fche(20, 1);
    c.bench_function("pqec_fidelity_20q", |b| {
        b.iter(|| pqec_fidelity(&w, &device));
    });
    c.bench_function("conventional_best_factory_20q", |b| {
        b.iter(|| conventional_fidelity_best_factory(&w, &device));
    });
}

/// The points of a two-axis grid, in row-major order.
fn grid(tag: &str, outer: (&str, &[i64]), inner: (&str, &[i64])) -> Vec<SweepPoint> {
    SweepSpec::new(tag)
        .axis_ints(outer.0, outer.1.iter().copied())
        .axis_ints(inner.0, inner.1.iter().copied())
        .points()
}

fn bench_figure_drivers(c: &mut Criterion) {
    let mut group = c.benchmark_group("figure_drivers");
    group.sample_size(10);
    let fig4 = Fig4Driver::spec().points();
    group.bench_function("fig4_rows", |b| {
        b.iter(|| fig4.iter().map(Fig4Driver::eval).collect::<Vec<_>>());
    });
    let fig5 = grid(
        "fig05",
        ("device_qubits", &[10_000, 30_000, 60_000]),
        ("logical_qubits", &[12, 24, 40]),
    );
    group.bench_function("fig5_grid_small", |b| {
        b.iter(|| fig5.iter().map(Fig5Driver::eval).collect::<Vec<_>>());
    });
    let fig6 = grid(
        "fig06",
        ("device_qubits", &[10_000, 20_000]),
        ("logical_qubits", &[12, 24, 40, 60]),
    );
    group.bench_function("fig6_rows", |b| {
        b.iter(|| fig6.iter().map(Fig6Driver::eval).collect::<Vec<_>>());
    });
    group.finish();
}

fn bench_scheduler(c: &mut Criterion) {
    c.bench_function("table1_cell_fche_grid", |b| {
        b.iter(|| spacetime_ratio(AnsatzKind::FullyConnectedHea, 80, 1, LayoutKind::Grid));
    });
}

criterion_group!(
    benches,
    bench_fidelity_models,
    bench_figure_drivers,
    bench_scheduler
);
criterion_main!(benches);
