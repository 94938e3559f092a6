//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fig12_full|shot_reeval|density_vqe|planner_http> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload through the stack's public entry points, checks
//! every op's output against the repository's own oracles, and prints
//! one JSON result as the last line of stdout: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics of a traced run with
//! `--trace 1`. The line before it is the run record (machine, seed,
//! tails, output digest, host-speed probe). See README.md.

mod catalog;
mod clifford;
mod density;
mod fig12;
mod host;
mod planner;
mod shots;
mod stats;
mod trace;

use stats::{median, tail, Digest};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::Layers;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["fig12_full", "shot_reeval", "density_vqe", "planner_http"];

/// One run's settings, from the command line.
#[derive(Clone, Debug)]
pub struct Cfg {
    /// Workload name.
    pub workload: String,
    /// Workload seed: every free input derives from it.
    pub seed: u64,
    /// How long the run should measure. Each workload sizes a fixed
    /// amount of work from it (grids, genomes, schedule length), so
    /// every commit does the same work in a run of roughly this length.
    pub seconds: u64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Threads the machine offers; no workload asks for more.
    pub nproc: usize,
    /// Repository root (holds `ci/baselines/`).
    pub root: PathBuf,
    /// Scratch directory for artifacts the run writes.
    pub out: PathBuf,
}

/// What a workload run hands back.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Set-up samples, seconds per set-up.
    pub setup_s: Vec<f64>,
    /// Seconds to finish the run's ops.
    pub wall_s: f64,
    /// Latency of every measured op, ms.
    pub op_ms: Vec<f64>,
    /// Ops attempted.
    pub attempted: usize,
    /// Ops whose output failed its check.
    pub failed: usize,
    /// Run-level checks: `(what, passed)`.
    pub checks: Vec<(String, bool)>,
    /// Digest of the run's outputs, in op order.
    pub digest: Digest,
    /// Folded spans and counts of a traced run.
    pub layers: Layers,
    /// Per-layer metrics the workload computed itself (traced runs).
    pub per_layer: BTreeMap<String, f64>,
    /// Batch workloads: the run's mean reference sample over the
    /// kernel's nominal time, i.e. how much slower than usual the host
    /// ran. `op_ms` and `wall_s` are already rescaled op by op; the
    /// set-up median is divided by this.
    pub host_factor: Option<f64>,
    /// Batch workloads: op latencies and `wall_s` as measured, before
    /// rescaling, for the run record.
    pub raw_op_ms: Vec<f64>,
    pub raw_wall_s: f64,
}

/// Build time one set-up sample accumulates.
const SETUP_WINDOW: Duration = Duration::from_millis(5);

/// One set-up sample: the mean seconds per build over single builds of
/// `build`, timed until [`SETUP_WINDOW`] of build time has accumulated,
/// so microsecond set-ups are not timer jitter. Every built value goes
/// to `dispose` outside the clock, one at a time, so a sample neither
/// times a drop nor holds thousands of copies in memory.
///
/// A run's own inputs come from one untimed build before its first
/// sample: first-touch page faults and thread-stack mappings are not
/// set-up work a later commit can change. The batch workloads then take
/// samples between ops across the whole run. Set-up lasts milliseconds
/// and host speed drifts over seconds, so samples taken only at the ends
/// of a run would measure two moments of the host, while samples spread
/// over the run see the same host its ops do.
pub fn setup_sample<T>(build: &mut impl FnMut() -> T, mut dispose: impl FnMut(T)) -> f64 {
    let (mut spent, mut builds) = (Duration::ZERO, 0u32);
    while builds == 0 || spent < SETUP_WINDOW {
        let t = Instant::now();
        let built = build();
        spent += t.elapsed();
        builds += 1;
        dispose(built);
    }
    spent.as_secs_f64() / f64::from(builds)
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The traced-minus-untraced overhead of paired ops: the median of the
/// per-pair differences, ms and as a share of the untraced median (%).
pub fn overhead(pairs: &[(f64, f64)], per_layer: &mut BTreeMap<String, f64>) {
    let diffs: Vec<f64> = pairs.iter().map(|(plain, traced)| traced - plain).collect();
    let plain: Vec<f64> = pairs.iter().map(|p| p.0).collect();
    let d = median(&diffs).unwrap_or(0.0);
    let base = median(&plain).unwrap_or(0.0);
    per_layer.insert("trace.overhead_ms".into(), d);
    per_layer.insert(
        "trace.overhead_pct".into(),
        if base > 0.0 { 100.0 * d / base } else { 0.0 },
    );
}

fn parse_args(args: &[String]) -> Result<(String, u64, u64, bool), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag}: missing value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok((
        workload,
        seed.ok_or("--seed is required")?,
        seconds.ok_or("--seconds is required")?,
        trace.unwrap_or(false),
    ))
}

/// A JSON number with all its digits (non-finite values never reach
/// here: [`result_line`] replaces them and marks the run incorrect).
fn num(v: f64) -> String {
    format!("{v}")
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The metrics this run reports: every end-to-end metric, or with
/// `trace` every per-layer metric (zero for layers the workload does not
/// reach).
fn metrics(cfg: &Cfg, o: &Outcome) -> Vec<(String, &'static str, f64)> {
    if !cfg.trace {
        let p50 = median(&o.op_ms).unwrap_or(f64::NAN);
        // A run with too few ops for a tail above the median reports
        // the median.
        let tail_ms = tail(&o.op_ms)
            .filter(|t| t.above_median())
            .map_or(p50, |t| t.value);
        let ok = o.attempted.saturating_sub(o.failed) as f64 / o.attempted.max(1) as f64;
        let values = [
            median(&o.setup_s).unwrap_or(f64::NAN) / o.host_factor.unwrap_or(1.0),
            o.wall_s,
            p50,
            tail_ms,
            ok,
            host::peak_rss_mib(),
        ];
        return catalog::END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name.to_string(), unit, v))
            .collect();
    }
    let mut values = catalog::layer_values(&o.layers);
    for (k, v) in &o.per_layer {
        values.insert(k.clone(), *v);
    }
    let catalog = catalog::per_layer();
    for k in values.keys() {
        assert!(
            catalog.iter().any(|(name, _)| name == k),
            "per-layer metric {k} is not in the catalog"
        );
    }
    catalog
        .into_iter()
        .map(|(name, unit)| {
            let v = values.get(&name).copied().unwrap_or(0.0);
            (name, unit, v)
        })
        .collect()
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
fn result_line(correct: bool, o: &Outcome, metrics: &[(String, &str, f64)]) -> String {
    let finite = metrics.iter().all(|(_, _, v)| v.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                num(v),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        correct && finite,
        o.attempted.max(1),
        o.failed,
        body.join(", ")
    )
}

fn run_record(cfg: &Cfg, o: &Outcome, probe: (f64, f64), steal: f64) -> String {
    let (cpu, kernel) = host::fingerprint();
    let nproc = cfg.nproc;
    let tail_note = match tail(&o.op_ms).filter(|t| t.above_median()) {
        Some(t) => format!(
            "{{\"percentile\": {}, \"samples\": {}}}",
            num(t.percentile),
            t.samples
        ),
        None => format!(
            "{{\"percentile\": 50, \"samples\": {}, \"note\": \"no tail above the median at {} ops or fewer: the median\"}}",
            o.op_ms.len(),
            stats::TAIL_MIN_OPS
        ),
    };
    let checks: Vec<String> = o
        .checks
        .iter()
        .map(|(what, ok)| format!("{}: {ok}", json_str(what)))
        .collect();
    let fields = [
        ("workload".to_string(), json_str(&cfg.workload)),
        ("seed".into(), cfg.seed.to_string()),
        ("seconds".into(), cfg.seconds.to_string()),
        ("trace".into(), u8::from(cfg.trace).to_string()),
        (
            "machine".into(),
            format!(
                "{{\"nproc\": {nproc}, \"cpu_model\": {}, \"kernel\": {}}}",
                json_str(&cpu),
                json_str(&kernel)
            ),
        ),
        ("op_tail".into(), tail_note),
        ("ops".into(), o.op_ms.len().to_string()),
        ("output_digest".into(), json_str(&o.digest.hex())),
        (
            "host_probe_ms".into(),
            format!(
                "{{\"before\": {}, \"after\": {}}}",
                num(probe.0),
                num(probe.1)
            ),
        ),
        ("steal_share".into(), num(steal)),
        ("checks".into(), format!("{{{}}}", checks.join(", "))),
    ];
    let mut fields = fields.to_vec();
    if let Some(factor) = o.host_factor {
        // What the batch workloads measured before rescaling.
        fields.push((
            "as_measured".into(),
            format!(
                "{{\"host_factor\": {}, \"setup_s\": {}, \"wall_s\": {}, \"op_p50_ms\": {}, \"op_tail_ms\": {}}}",
                num(factor),
                num(median(&o.setup_s).unwrap_or(0.0)),
                num(o.raw_wall_s),
                num(median(&o.raw_op_ms).unwrap_or(0.0)),
                num(tail(&o.raw_op_ms).filter(|t| t.above_median()).map_or(0.0, |t| t.value)),
            ),
        ));
    }
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!("{{\"run_record\": {{{}}}}}", body.join(", "))
}

fn write_artifacts(cfg: &Cfg, record: &str, o: &Outcome) -> std::io::Result<()> {
    let stem = format!(
        "{}-seed{}-trace{}",
        cfg.workload,
        cfg.seed,
        u8::from(cfg.trace)
    );
    std::fs::write(
        cfg.out.join(format!("{stem}.record.json")),
        format!("{record}\n"),
    )?;
    if cfg.trace {
        let mut rows = o.layers.sample().join("\n");
        rows.push('\n');
        std::fs::write(cfg.out.join(format!("{stem}.spans.jsonl")), rows)?;
    }
    Ok(())
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the repository")
        .to_path_buf()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["--probe"] {
        println!("{}", host::probe_kernel_ms());
        return;
    }
    let (workload, seed, seconds, trace) = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    let root = repo_root();
    let out = root.join(".perfbench");
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("perfbench: cannot create {}: {e}", out.display());
        std::process::exit(2);
    }
    let cfg = Cfg {
        workload,
        seed,
        seconds,
        trace,
        nproc: host::nproc(),
        root,
        out,
    };
    let probe_before = host::probe_ms();
    let jiffies = host::cpu_jiffies(None);
    let outcome = match cfg.workload.as_str() {
        "fig12_full" => fig12::run(&cfg),
        "shot_reeval" => shots::run(&cfg),
        "density_vqe" => density::run(&cfg),
        "planner_http" => planner::run(&cfg),
        other => unreachable!("workload {other} passed validation"),
    };
    let steal = host::steal_share(jiffies, host::cpu_jiffies(None));
    let probe_after = host::probe_ms();
    let correct = outcome.failed == 0 && outcome.checks.iter().all(|(_, ok)| *ok);
    let metrics = metrics(&cfg, &outcome);
    let record = run_record(&cfg, &outcome, (probe_before, probe_after), steal);
    if let Err(e) = write_artifacts(&cfg, &record, &outcome) {
        eprintln!("perfbench: cannot write run artifacts: {e}");
        std::process::exit(2);
    }
    println!("{record}");
    println!("{}", result_line(correct, &outcome, &metrics));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(attempted: usize, failed: usize) -> Outcome {
        Outcome {
            setup_s: vec![0.001],
            wall_s: 1.0,
            op_ms: vec![1.0; attempted],
            attempted,
            failed,
            ..Outcome::default()
        }
    }

    fn cfg(trace: bool) -> Cfg {
        Cfg {
            workload: "shot_reeval".into(),
            seed: 1,
            seconds: 1,
            trace,
            nproc: 1,
            root: repo_root(),
            out: repo_root(),
        }
    }

    fn value(metrics: &[(String, &str, f64)], name: &str) -> f64 {
        metrics.iter().find(|m| m.0 == name).unwrap().2
    }

    #[test]
    fn a_failed_check_lowers_ok_ratio() {
        assert_eq!(
            value(&metrics(&cfg(false), &outcome(40, 0)), "ok_ratio"),
            1.0
        );
        assert_eq!(
            value(&metrics(&cfg(false), &outcome(40, 4)), "ok_ratio"),
            0.9
        );
    }

    #[test]
    fn every_emitted_name_is_declared_with_its_unit() {
        let declared = include_str!("../../BENCHMARK.json");
        let valid = |name: &str| {
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
        };
        for trace in [false, true] {
            let emitted = metrics(&cfg(trace), &outcome(40, 0));
            assert!(!emitted.is_empty());
            for (name, unit, _) in &emitted {
                assert!(valid(name), "{name} is not [A-Za-z0-9_.-]+");
                let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
                assert!(declared.contains(&entry), "{name} ({unit}) is not declared");
            }
            let line = result_line(true, &outcome(40, 0), &emitted);
            assert!(line.starts_with("{\"correct\": true, \"attempted\": 40, \"failed\": 0"));
        }
        // The declared sets are exactly the emitted ones.
        let e2e = metrics(&cfg(false), &outcome(40, 0)).len();
        let layers = metrics(&cfg(true), &outcome(40, 0)).len();
        assert_eq!(declared.matches("\"better\"").count(), e2e + layers);
        for w in WORKLOADS {
            assert!(declared.contains(&format!("{{\"name\": \"{w}\"")), "{w}");
        }
    }

    #[test]
    fn arguments_parse_and_reject() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        assert_eq!(
            parse_args(&args(
                "--workload fig12_full --seed 3 --seconds 5 --trace 1"
            )),
            Ok(("fig12_full".into(), 3, 5, true))
        );
        assert!(parse_args(&args("--workload nope --seed 3 --seconds 5")).is_err());
        assert!(parse_args(&args("--workload fig12_full --seed x --seconds 5")).is_err());
        assert!(parse_args(&args("--workload fig12_full --seconds 5")).is_err());
    }
}
