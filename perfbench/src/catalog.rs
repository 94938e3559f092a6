//! Every metric the benchmark reports, with its unit. `BENCHMARK.json`
//! declares exactly these (a test checks it).

use crate::stats::quantile;
use crate::trace::Layers;
use std::collections::BTreeMap;

/// End-to-end metrics, reported by every untraced run in this order.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Layer calls reported as `<name>.s` (self seconds summed over the run)
/// and `<name>.calls`.
pub const SELF_SPANS: [&str; 18] = [
    "pauli.hamiltonian",
    "pauli.qwc_grouping",
    "circuit.bind_clifford",
    "circuit.bind",
    "stabilizer.template_compile",
    "stabilizer.observable_compile",
    "stabilizer.template_bind",
    "stabilizer.program_compile",
    "stabilizer.tableau_run",
    "stabilizer.expectations",
    "stabilizer.frames_run",
    "stabilizer.frame_accumulate",
    "statesim.run_noisy",
    "core.noise_model",
    "core.measured_energy",
    "core.reevaluate",
    "core.genome_energy",
    "planner.index_load",
];

/// Driver layers whose children are the work, reported as
/// `<name>.self_s` (their own bookkeeping) and `<name>.calls`.
pub const BOOKKEEPING_SPANS: [&str; 3] = ["optim.ga", "optim.nelder_mead", "sweep.runner"];

/// Counts recorded at layer boundaries (repeat exactly for a fixed
/// amount of work).
pub const COUNTS: [&str; 10] = [
    "stabilizer.frame_site_words",
    "stabilizer.bernoulli_trials",
    "optim.ga.evals",
    "optim.nelder_mead.evals",
    "statesim.channel_applications",
    "planner.responses_200",
    "planner.shed",
    "planner.deadline",
    "planner.degraded",
    "planner.exact",
];

/// The remaining per-layer metrics, computed by the workloads.
pub const DERIVED: [(&str, &str); 17] = [
    ("core.fitness.p50_us", "us"),
    ("core.fitness.p99_us", "us"),
    ("core.fitness_100q.p50_us", "us"),
    ("core.objective.p50_ms", "ms"),
    ("core.objective.p99_ms", "ms"),
    ("optim.ga.cache_hit_ratio", "ratio"),
    ("planner.accept_wait.mean_ms", "ms"),
    ("planner.server.mean_ms", "ms"),
    ("planner.http_parse.ns", "ns"),
    ("planner.http_write.ns", "ns"),
    ("planner.surface_eval.ns", "ns"),
    ("core.advisor_plan.us", "us"),
    ("client.connect.p50_ms", "ms"),
    ("client.late.p99_ms", "ms"),
    ("trace.op_p50_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// Every per-layer metric with its unit, in report order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for name in SELF_SPANS {
        out.push((format!("{name}.s"), "s"));
        out.push((format!("{name}.calls"), "count"));
    }
    for name in BOOKKEEPING_SPANS {
        out.push((format!("{name}.self_s"), "s"));
        out.push((format!("{name}.calls"), "count"));
    }
    out.extend(COUNTS.iter().map(|&c| (c.to_string(), "count")));
    out.extend(DERIVED.iter().map(|&(n, u)| (n.to_string(), u)));
    out
}

/// The per-layer metrics that follow from folded spans and counts alone.
pub fn layer_values(layers: &Layers) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for name in SELF_SPANS {
        let (s, calls) = layers.self_s(name);
        out.insert(format!("{name}.s"), s);
        out.insert(format!("{name}.calls"), calls as f64);
    }
    for name in BOOKKEEPING_SPANS {
        let (s, calls) = layers.self_s(name);
        out.insert(format!("{name}.self_s"), s);
        out.insert(format!("{name}.calls"), calls as f64);
    }
    for name in COUNTS {
        out.insert(name.to_string(), layers.counted(name));
    }
    let dist = |name: &str, q: f64, scale: f64| {
        let d: Vec<f64> = layers.durations(name).iter().map(|&ns| ns as f64).collect();
        quantile(&d, q).map_or(0.0, |v| v * scale)
    };
    out.insert(
        "core.fitness.p50_us".into(),
        dist("core.fitness", 0.5, 1e-3),
    );
    out.insert(
        "core.fitness.p99_us".into(),
        dist("core.fitness", 0.99, 1e-3),
    );
    out.insert(
        "core.objective.p50_ms".into(),
        dist("core.objective", 0.5, 1e-6),
    );
    out.insert(
        "core.objective.p99_ms".into(),
        dist("core.objective", 0.99, 1e-6),
    );
    out
}
