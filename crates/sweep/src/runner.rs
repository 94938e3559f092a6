//! The resumable, parallel sweep executor.
//!
//! [`run_sweep`] takes a [`SweepSpec`], an options bundle (thread count,
//! checkpoint path, subset filter) and a point evaluator, and drives the
//! grid to completion:
//!
//! * **Work stealing** — pending points sit behind one atomic cursor;
//!   each crossbeam worker pulls the next undone point as it finishes
//!   its last, so stragglers never serialize behind a static partition.
//! * **Thread/seed invariance** — a point's evaluator receives a
//!   [`PointCtx`] whose seed is `root.derive(spec).derive_index(id)`,
//!   a pure function of the spec and the point id. Combined with
//!   in-order emission (below), the artifact is bit-identical for every
//!   `--threads` value.
//! * **In-order streaming** — completed rows buffer until every earlier
//!   point has finished, then append to the JSONL artifact (flushed per
//!   row, so a killed run loses at most the in-flight points) and echo
//!   to stdout under `--json`.
//! * **Checkpoint/resume** — on startup the runner parses the existing
//!   artifact, re-associates rows with grid points by their axis fields,
//!   skips completed points and appends only the missing ones: a killed
//!   `EFT_FULL=1` sweep continues instead of restarting.
//! * **Progress/ETA** — per-point progress lines on stderr (enabled by
//!   default in the CLI wrappers, off in library use).
//! * **Farm mode** — `--farm addr` turns the run into a
//!   [`crate::farm`] coordinator that leases points to remote
//!   `--worker addr` processes (and to its own threads) instead of
//!   executing the static `todo` list locally; completions stream
//!   through the same in-order emitter, so resume/merge semantics and
//!   artifact bytes are unchanged.
//! * **Fault containment** — every point evaluation runs behind
//!   `catch_unwind` and an optional `--point-timeout-secs` deadline; a
//!   failed point retries up to `--retries N` times (same seed each
//!   attempt), then quarantines as a structured `~sweep-error` row
//!   carrying its axis fields, cause and attempt count. The sweep
//!   completes anyway; `--resume` recomputes quarantined points instead
//!   of trusting their error rows, and once a resume converges the
//!   artifact is rewritten to the canonical clean-run bytes.

use crate::chaos::{FaultKind, FaultPlan};
use crate::jsonl::parse_row;
use crate::rows::{Row, ERROR_LABEL};
use crate::spec::{AxisValue, PointFilter, SweepPoint, SweepSpec};
use crate::trace::{self, TraceWriter};
use crossbeam::thread;
use eftq_numerics::SeedSequence;
use eftq_obs::SpanRecord;
use std::collections::{BTreeMap, BTreeSet};
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, IsTerminal, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Root seed for per-point derivation, in every sweep and farm (drivers
/// that need the paper's exact historical streams use their own internal
/// seeds).
pub const DEFAULT_SWEEP_SEED: u64 = 0x5eed_5eed;

/// Row tag of the artifact's configuration-stamp line (the `~` cannot
/// collide with a spec name that doubles as a row tag).
const META_LABEL: &str = "~sweep-config";

/// Row tag of the `--summary` row (never written to the artifact).
const SUMMARY_LABEL: &str = "~sweep-summary";

/// A deterministic `k/N` partition of the selected points (`--shard`):
/// shard `k` keeps every selected point whose *selection position* `i`
/// satisfies `i % N == k`. Positions are taken after `--points`
/// filtering, so for a fixed spec + filter the shards are disjoint and
/// union-complete for every `N`, and round-robin assignment balances
/// grids whose cost grows along an axis (e.g. a qubit ladder).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Shard {
    /// Zero-based shard index (`k` in `k/N`); always `< count`.
    pub index: usize,
    /// Total number of shards (`N` in `k/N`); always `>= 1`.
    pub count: usize,
}

impl Shard {
    /// Parses the `--shard k/N` syntax (`k` zero-based).
    ///
    /// # Errors
    ///
    /// Returns a usage message for non-numeric parts, `N == 0`, or
    /// `k >= N` — the malformed values must be rejected up front, not
    /// discovered as an empty or overlapping partition mid-sweep.
    pub fn parse(s: &str) -> Result<Self, String> {
        let Some((k, n)) = s.split_once('/') else {
            return Err(format!(
                "--shard '{s}': expected k/N with zero-based k (e.g. 0/4)"
            ));
        };
        let index: usize = k
            .trim()
            .parse()
            .map_err(|e| format!("--shard '{s}': bad shard index '{k}': {e}"))?;
        let count: usize = n
            .trim()
            .parse()
            .map_err(|e| format!("--shard '{s}': bad shard count '{n}': {e}"))?;
        if count == 0 {
            return Err(format!("--shard '{s}': shard count must be at least 1"));
        }
        if index >= count {
            return Err(format!(
                "--shard '{s}': shard index {index} out of range (valid: 0..{count})"
            ));
        }
        Ok(Shard { index, count })
    }

    /// Whether this shard owns the point at selection position `i`.
    pub fn selects(&self, position: usize) -> bool {
        position % self.count == self.index
    }
}

/// How a sweep should execute. [`SweepOptions::default`] is the quiet
/// library configuration; [`SweepOptions::from_env_args`] is the CLI
/// wrapper configuration (`--threads`, `--resume`, `--points`,
/// `--shard`, `--merge`, `--summary`, `--json`).
#[derive(Clone, Debug, PartialEq)]
pub struct SweepOptions {
    /// Worker threads for point evaluation (1 = run on the caller).
    pub threads: usize,
    /// JSONL checkpoint artifact: read (resume) if it exists, append
    /// missing rows. `None` disables checkpointing.
    pub artifact: Option<PathBuf>,
    /// Subset filter (`--points a=x|y,b=z`); `None` runs the full grid.
    pub filter: Option<PointFilter>,
    /// Deterministic `k/N` partition of the selected points (`--shard`);
    /// `None` runs them all.
    pub shard: Option<Shard>,
    /// Shard artifacts to reassemble (`--merge a.jsonl,b.jsonl`): their
    /// rows are treated like resumed rows but *are* written to the
    /// artifact, and the run errors instead of computing anything if the
    /// inputs do not cover every selected point. The reassembled
    /// artifact is byte-identical to an unsharded `--resume` run.
    pub merge: Vec<PathBuf>,
    /// Emit a `~sweep-summary` row (timing quantiles, resume/cache
    /// counts) on stdout after the run.
    pub summary: bool,
    /// Echo each completed row to stdout as JSONL.
    pub echo_json: bool,
    /// Per-point progress/ETA lines on stderr.
    pub progress: bool,
    /// Coordinate a sweep farm on this address (`--farm host:port`):
    /// lease points to `--worker` processes and to `threads` local
    /// worker threads (`threads` may be 0 for a pure coordinator).
    pub farm: Option<String>,
    /// Join the farm coordinated at this address (`--worker host:port`)
    /// instead of running a sweep: evaluate leased points (with
    /// `threads` threads) and ship the rows back. Mutually exclusive
    /// with `farm`, `shard` and `merge`; `artifact` is ignored — the
    /// coordinator owns the checkpoint.
    pub worker: Option<String>,
    /// Farm lease duration in seconds (`--lease-secs`): how long a
    /// granted batch may stay silent before its points are re-leased.
    pub lease_secs: f64,
    /// Give-up budget for a worker's reconnection loop
    /// (`--max-reconnect-secs S`): a worker that cannot reach the
    /// coordinator for this long in a row exits with status
    /// [`WORKER_ORPHANED_EXIT`](crate::farm::WORKER_ORPHANED_EXIT)
    /// and a clear message instead of backing off forever. `None`
    /// (the default) retries indefinitely.
    pub max_reconnect_secs: Option<f64>,
    /// Re-evaluation budget for failed points (`--retries N`): a point
    /// whose evaluation panics or overruns the deadline is retried up to
    /// `N` more times (same per-point seed), then quarantined as a
    /// `~sweep-error` row. `0` quarantines on the first failure.
    pub retries: u32,
    /// Per-point wall-clock deadline in seconds
    /// (`--point-timeout-secs S`): an evaluation that finishes past the
    /// deadline is discarded and counted as a `timeout` failure. The
    /// check runs on completion — a point that never returns still
    /// blocks its thread (safe Rust cannot preempt arbitrary code), so
    /// the deadline bounds *accepted* work, not thread occupancy.
    pub point_timeout_secs: Option<f64>,
    /// Planted faults for the chaos harness (the `EFT_FAULT_PLAN`
    /// environment variable under [`SweepOptions::from_env_args`];
    /// injected through `PointCtx::fault`). `None` in production.
    pub fault_plan: Option<FaultPlan>,
    /// Span-trace artifact path (`--trace PATH`): per-point/per-attempt
    /// `~span` identity rows stream here in point order (byte-identical
    /// at any thread count), with measured durations in a
    /// `PATH.timings` sidecar. See [`crate::trace`]. `None` disables
    /// tracing.
    pub trace: Option<PathBuf>,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            threads: 1,
            artifact: None,
            filter: None,
            shard: None,
            merge: Vec::new(),
            summary: false,
            echo_json: false,
            progress: false,
            farm: None,
            worker: None,
            lease_secs: crate::farm::DEFAULT_LEASE_SECS,
            max_reconnect_secs: None,
            retries: 0,
            point_timeout_secs: None,
            fault_plan: None,
            trace: None,
        }
    }
}

impl SweepOptions {
    /// Parses the standard sweep flags from the process arguments:
    /// `--threads N`, `--resume PATH`, `--points FILTER`, `--shard k/N`,
    /// `--merge P1,P2,...` (repeatable), `--farm ADDR`, `--worker ADDR`,
    /// `--lease-secs S`, `--max-reconnect-secs S`, `--retries N`,
    /// `--point-timeout-secs S`, `--trace PATH`, `--summary`,
    /// `--progress`, `--json` (all also accepted as `--flag=value`).
    /// Unrecognized arguments are ignored so binaries can add their own
    /// flags; progress reporting is enabled when stderr is a terminal
    /// (force it with `--progress` when piping), `EFT_JSON=1` also
    /// turns on JSONL echo, and `EFT_FAULT_PLAN` plants a chaos-harness
    /// [`FaultPlan`].
    ///
    /// # Errors
    ///
    /// Returns a usage message when a flag is malformed (missing or
    /// non-numeric value, unparsable filter or fault plan).
    pub fn from_env_args() -> Result<Self, String> {
        let mut opts = Self::from_args(std::env::args().skip(1))?;
        opts.fault_plan = FaultPlan::from_env()?;
        Ok(opts)
    }

    /// [`SweepOptions::from_env_args`] over an explicit argument list.
    ///
    /// # Errors
    ///
    /// Returns a usage message when a flag is malformed.
    pub fn from_args<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        // Progress lines are for humans watching a terminal; under a
        // pipe (CI logs, shell captures) they are noise at best and a
        // rate bottleneck at worst, so they default off there and come
        // back with an explicit --progress.
        let mut opts = SweepOptions {
            progress: std::io::stderr().is_terminal(),
            echo_json: crate::rows::json_mode(),
            ..SweepOptions::default()
        };
        let mut it = args.into_iter();
        let value_of = |flag: &str, arg: &str, it: &mut I::IntoIter| {
            if let Some(v) = arg.strip_prefix(&format!("{flag}=")) {
                Some(v.to_string())
            } else if arg == flag {
                it.next()
            } else {
                None
            }
        };
        while let Some(arg) = it.next() {
            if arg == "--json" {
                opts.echo_json = true;
            } else if arg == "--summary" {
                opts.summary = true;
            } else if arg == "--progress" {
                opts.progress = true;
            } else if let Some(v) = value_of("--trace", &arg, &mut it) {
                opts.trace = Some(PathBuf::from(v));
            } else if let Some(v) = value_of("--threads", &arg, &mut it) {
                opts.threads = v
                    .parse()
                    .map_err(|e| format!("--threads {v}: {e} (expected a positive integer)"))?;
            } else if let Some(v) = value_of("--resume", &arg, &mut it) {
                opts.artifact = Some(PathBuf::from(v));
            } else if let Some(v) = value_of("--points", &arg, &mut it) {
                opts.filter = Some(PointFilter::parse(&v)?);
            } else if let Some(v) = value_of("--shard", &arg, &mut it) {
                opts.shard = Some(Shard::parse(&v)?);
            } else if let Some(v) = value_of("--merge", &arg, &mut it) {
                let paths: Vec<PathBuf> = v
                    .split(',')
                    .map(str::trim)
                    .filter(|p| !p.is_empty())
                    .map(PathBuf::from)
                    .collect();
                if paths.is_empty() {
                    return Err(format!("--merge '{v}': no input paths"));
                }
                opts.merge.extend(paths);
            } else if let Some(v) = value_of("--farm", &arg, &mut it) {
                opts.farm = Some(v);
            } else if let Some(v) = value_of("--worker", &arg, &mut it) {
                opts.worker = Some(v);
            } else if let Some(v) = value_of("--lease-secs", &arg, &mut it) {
                opts.lease_secs = v
                    .parse()
                    .map_err(|e| format!("--lease-secs {v}: {e} (expected seconds)"))?;
                if !(opts.lease_secs > 0.0 && opts.lease_secs.is_finite()) {
                    return Err(format!("--lease-secs {v}: must be a positive duration"));
                }
            } else if let Some(v) = value_of("--max-reconnect-secs", &arg, &mut it) {
                let secs: f64 = v
                    .parse()
                    .map_err(|e| format!("--max-reconnect-secs {v}: {e} (expected seconds)"))?;
                if !(secs > 0.0 && secs.is_finite()) {
                    return Err(format!(
                        "--max-reconnect-secs {v}: must be a positive duration"
                    ));
                }
                opts.max_reconnect_secs = Some(secs);
            } else if let Some(v) = value_of("--retries", &arg, &mut it) {
                opts.retries = v
                    .parse()
                    .map_err(|e| format!("--retries {v}: {e} (expected a count)"))?;
            } else if let Some(v) = value_of("--point-timeout-secs", &arg, &mut it) {
                let secs: f64 = v
                    .parse()
                    .map_err(|e| format!("--point-timeout-secs {v}: {e} (expected seconds)"))?;
                if !(secs > 0.0 && secs.is_finite()) {
                    return Err(format!(
                        "--point-timeout-secs {v}: must be a positive duration"
                    ));
                }
                opts.point_timeout_secs = Some(secs);
            } else if [
                "--threads",
                "--resume",
                "--points",
                "--shard",
                "--merge",
                "--farm",
                "--worker",
                "--lease-secs",
                "--max-reconnect-secs",
                "--retries",
                "--point-timeout-secs",
                "--trace",
            ]
            .contains(&arg.as_str())
            {
                return Err(format!("{arg}: missing value"));
            }
            // Anything else belongs to the wrapping binary.
        }
        // `--threads 0` means "coordinate only" and so requires a farm.
        if opts.threads == 0 && opts.farm.is_none() {
            return Err("--threads 0: need at least one worker (or --farm, \
                        where 0 means coordinate-only)"
                .into());
        }
        if opts.farm.is_some() && opts.worker.is_some() {
            return Err("--farm and --worker are mutually exclusive: a process \
                        either coordinates a farm or joins one"
                .into());
        }
        if opts.worker.is_some() {
            if opts.shard.is_some() {
                return Err("--worker: --shard does not apply (the coordinator \
                            assigns points dynamically)"
                    .into());
            }
            if !opts.merge.is_empty() {
                return Err("--worker: --merge does not apply (the coordinator \
                            owns the artifact)"
                    .into());
            }
            if opts.trace.is_some() {
                return Err("--worker: --trace does not apply (the coordinator \
                            owns the trace artifact)"
                    .into());
            }
        }
        Ok(opts)
    }
}

/// Per-point context handed to the evaluator.
#[derive(Clone, Copy, Debug)]
pub struct PointCtx {
    /// Deterministic per-point seed: `root.derive(spec).derive_index(id)`
    /// — identical at any thread count and across resumes, *and* across
    /// retry attempts (seed-stable re-evaluation: a retry reruns the
    /// exact same computation, so only transient faults heal).
    pub seed: SeedSequence,
    /// 1-based evaluation attempt; `> 1` only when `--retries` re-runs
    /// the point after a failure.
    pub attempt: u32,
    /// Chaos-harness hook: a planted fault the guarded evaluation
    /// injects before calling the evaluator. Always `None` outside
    /// chaos runs; evaluators must ignore it.
    pub fault: Option<FaultKind>,
}

impl PointCtx {
    /// A first-attempt, fault-free context over `seed` (the common case
    /// for tests and library callers).
    pub fn new(seed: SeedSequence) -> Self {
        PointCtx {
            seed,
            attempt: 1,
            fault: None,
        }
    }
}

/// Outcome of a sweep run.
#[derive(Clone, Debug)]
pub struct SweepReport {
    /// Every selected point's row, in point-id order (resumed rows are
    /// parsed back from the artifact).
    pub rows: Vec<Row>,
    /// Points evaluated in this run.
    pub computed: usize,
    /// Points skipped because the artifact already had their rows.
    pub resumed: usize,
    /// Points reassembled from `--merge` shard artifacts.
    pub merged: usize,
    /// Artifact lines that parsed but matched no selected point (other
    /// sweeps sharing the file, or rows from a stale grid).
    pub unmatched_lines: usize,
    /// Artifact lines that failed to parse (e.g. a line truncated by a
    /// kill mid-write).
    pub malformed_lines: usize,
    /// Wall-clock evaluation seconds of each freshly computed point, in
    /// completion order (empty when everything resumed/merged).
    pub point_secs: Vec<f64>,
    /// Wall-clock seconds of the whole run (scan + compute + emit).
    pub elapsed_secs: f64,
    /// Evaluation attempts that failed this run (panic or timeout);
    /// every failure either retried or quarantined its point.
    pub failed: usize,
    /// Re-evaluation attempts spent under the `--retries` budget
    /// (`failed - quarantined` for a local run).
    pub retried: usize,
    /// Points whose row is a `~sweep-error` quarantine record (failures
    /// this run plus error rows carried through `--merge`). Nonzero ⇒
    /// the artifact is incomplete as data and
    /// [`exit_if_failed`] exits 1.
    pub quarantined: usize,
}

impl SweepReport {
    /// The `--summary` row: point counts by provenance, artifact-line
    /// health, and per-point timing quantiles. Tagged `~sweep-summary`
    /// (the `~` cannot collide with a spec name), so it never matches a
    /// grid point if it ends up in a resumed file. Drivers with
    /// [`crate::ArtifactCache`]s append their hit/miss counts before
    /// printing.
    pub fn summary_row(&self, spec: &SweepSpec) -> Row {
        let mut secs = self.point_secs.clone();
        secs.sort_by(f64::total_cmp);
        let quantile = |q: f64| -> f64 {
            if secs.is_empty() {
                0.0
            } else {
                secs[((secs.len() - 1) as f64 * q).round() as usize]
            }
        };
        let mut row = Row::new(SUMMARY_LABEL).str("spec", spec.name());
        if let Some(config) = spec.config() {
            row = row.str("config", config);
        }
        let mut row = row
            .int("points", self.rows.len() as i64)
            .int("computed", self.computed as i64)
            .int("resumed", self.resumed as i64)
            .int("merged", self.merged as i64)
            .int("failed", self.failed as i64)
            .int("retried", self.retried as i64)
            .int("quarantined", self.quarantined as i64)
            .int("unmatched_lines", self.unmatched_lines as i64)
            .int("malformed_lines", self.malformed_lines as i64)
            .num("elapsed_s", self.elapsed_secs)
            .num("point_p50_s", quantile(0.5))
            .num("point_p90_s", quantile(0.9))
            .num("point_max_s", quantile(1.0));
        // Eval-time distribution in log2 buckets: `hist_b{k}` counts the
        // fresh points whose evaluation took (2^(k-1), 2^k] ns. Only the
        // non-empty buckets are emitted, so a quantile-flattening
        // outlier is visible as its own far-right field instead of
        // hiding inside point_max_s.
        let hist = eftq_obs::Histogram::new();
        for &s in &self.point_secs {
            hist.observe_ns(crate::trace::secs_to_ns(s));
        }
        for (bucket, count) in hist.nonzero_buckets() {
            row = row.int(&format!("hist_b{bucket}"), count as i64);
        }
        row
    }

    /// The data rows only: every selected point's row except
    /// `~sweep-error` quarantine records. Figure/table binaries iterate
    /// this (their field accessors would panic on an error row).
    pub fn ok_rows(&self) -> impl Iterator<Item = &Row> {
        self.rows.iter().filter(|r| !r.is_sweep_error())
    }

    /// The quarantine records among [`SweepReport::rows`] (empty on a
    /// clean run).
    pub fn error_rows(&self) -> impl Iterator<Item = &Row> {
        self.rows.iter().filter(|r| r.is_sweep_error())
    }
}

/// Prints the [`SweepReport::summary_row`] to stdout when `--summary`
/// was requested; `extend` lets the caller append driver-specific fields
/// (e.g. [`crate::ArtifactCache`] hit/miss counts) before printing.
pub fn emit_summary<F: FnOnce(Row) -> Row>(
    spec: &SweepSpec,
    opts: &SweepOptions,
    report: &SweepReport,
    extend: F,
) {
    if opts.summary {
        println!("{}", extend(report.summary_row(spec)).to_json_row());
    }
}

/// Where a completed row came from, which decides whether it must be
/// (re-)written to the artifact.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum RowSource {
    /// Parsed back out of the artifact itself — already on disk.
    Artifact,
    /// Parsed from a `--merge` shard input — must be written.
    Merge,
    /// Freshly evaluated this run — must be written.
    Computed,
}

/// Runs the sweep and returns all selected rows in point order.
///
/// The evaluator must be a *pure* function of `(point, ctx)` — that is
/// the whole determinism/resume contract. Each returned row must be
/// tagged `Row::new(spec.name())` and carry every axis as a field with
/// the point's value (the runner enforces both so that a later resume
/// can re-associate rows with points).
///
/// # Errors
///
/// Returns a message when the filter references unknown axes/values or
/// the artifact cannot be read/written.
///
/// # Panics
///
/// Panics when the evaluator violates the row contract above or a
/// worker thread panics.
pub fn run_sweep<F>(spec: &SweepSpec, opts: &SweepOptions, eval: F) -> Result<SweepReport, String>
where
    F: Fn(&SweepPoint, &PointCtx) -> Row + Sync,
{
    // Worker mode: no grid ownership, no artifact — join the farm at
    // the given address and evaluate whatever it leases us.
    if let Some(addr) = &opts.worker {
        return crate::farm::run_worker(spec, opts, addr, &eval);
    }
    let started = Instant::now();
    let selected = spec.select(opts.filter.as_ref())?;
    let points: Vec<SweepPoint> = match &opts.shard {
        Some(shard) => selected
            .into_iter()
            .enumerate()
            .filter(|(i, _)| shard.selects(*i))
            .map(|(_, p)| p)
            .collect(),
        None => selected,
    };
    let root = SeedSequence::new(DEFAULT_SWEEP_SEED).derive(spec.name());

    // Resume: parse the artifact (when present) and every `--merge`
    // shard input, and mark completed points. The artifact is scanned
    // first so its rows win ties — they are already on disk and must not
    // be re-appended.
    let mut scan = ResumeScan::default();
    if let Some(path) = &opts.artifact {
        if path.exists() {
            scan.read(path, RowSource::Artifact, spec, &points)?;
        }
    }
    for path in &opts.merge {
        // Merge inputs are named explicitly, so a missing one is an
        // error (a lost shard), not an empty resume.
        scan.read(path, RowSource::Merge, spec, &points)?;
    }
    for warning in scan.warnings(spec.name()) {
        eprintln!("{warning}");
    }
    let unmatched_lines = scan.stale.count + scan.sibling.count;
    let malformed_lines = scan.malformed.count;
    let ResumeScan {
        resumed,
        mut error_points,
        ..
    } = scan;
    // Any matched error line marks the artifact for compaction; a
    // quarantined point that also has a good row (an interrupted resume
    // appended the recomputation, then died before compacting) resumes
    // from the good row instead of retrying.
    let artifact_dirty = !error_points.is_empty();
    error_points.retain(|i| !resumed.contains_key(i));
    if opts.progress && !error_points.is_empty() {
        eprintln!(
            "[{}] retrying {} quarantined point(s) from the artifact",
            spec.name(),
            error_points.len()
        );
    }

    let todo: Vec<usize> = (0..points.len())
        .filter(|i| !resumed.contains_key(i))
        .collect();
    if !opts.merge.is_empty() && !todo.is_empty() {
        let missing: Vec<String> = todo
            .iter()
            .take(8)
            .map(|&i| points[i].id.to_string())
            .collect();
        return Err(format!(
            "merge: {} of {} selected points are missing from the merge inputs \
             (point ids {}{}) — the shard union is incomplete, refusing to \
             recompute them silently",
            todo.len(),
            points.len(),
            missing.join(", "),
            if todo.len() > missing.len() {
                ", ..."
            } else {
                ""
            },
        ));
    }
    let merged = resumed
        .values()
        .filter(|(_, s)| *s == RowSource::Merge)
        .count();
    let emitter = Mutex::new(Emitter::open(spec, opts, &points, &resumed, todo.len())?);

    // Failure accounting across worker threads (and the farm).
    let failed = AtomicUsize::new(0);
    let retried = AtomicUsize::new(0);
    let quarantined = AtomicUsize::new(0);
    // Chaos-harness derivation node: shared by local runs, the farm
    // coordinator and its workers, so a planted fault plan resolves
    // identically under every topology.
    let chaos = root.derive("~chaos");

    // Evaluates point `i` behind the fault guard, retrying up to the
    // `--retries` budget and quarantining on exhaustion; returns false
    // once an artifact write failure makes further evaluation pointless.
    let tracing = opts.trace.is_some();
    let run_point = |i: usize| -> bool {
        let point = &points[i];
        let seed = root.derive_index(point.id as u64);
        let budget = opts.retries.saturating_add(1);
        let mut spans: Vec<SpanRecord> = Vec::new();
        for attempt in 1..=budget {
            // Disconnect faults only mean something to a farm worker's
            // connection; local runs skip them so the rows stay
            // identical across topologies.
            let fault = opts.fault_plan.as_ref().and_then(|plan| {
                plan.fault_for(&chaos, point.id, attempt)
                    .filter(|f| *f != FaultKind::Disconnect)
            });
            let ctx = PointCtx {
                seed,
                attempt,
                fault,
            };
            let (row, secs, outcome) =
                match eval_guarded(&eval, point, &ctx, opts.point_timeout_secs) {
                    EvalOutcome::Ok { row, secs } => {
                        check_row_contract(spec, point, &row);
                        if tracing {
                            spans.push(trace::eval_span(point.id, attempt, "ok", None, secs));
                        }
                        (row, secs, "ok")
                    }
                    EvalOutcome::Failed {
                        cause,
                        message,
                        secs,
                    } => {
                        failed.fetch_add(1, Ordering::Relaxed);
                        if tracing {
                            spans.push(trace::eval_span(
                                point.id,
                                attempt,
                                cause,
                                Some((cause, &message)),
                                secs,
                            ));
                        }
                        if attempt < budget {
                            retried.fetch_add(1, Ordering::Relaxed);
                            continue;
                        }
                        quarantined.fetch_add(1, Ordering::Relaxed);
                        (
                            point.error_row(spec.name(), cause, &message, attempt),
                            secs,
                            "quarantined",
                        )
                    }
                };
            if tracing {
                let root_span = trace::point_span(spec.name(), point, outcome, attempt)
                    .duration_ns(trace::secs_to_ns(secs));
                spans.insert(0, root_span);
            }
            let mut em = emitter.lock().expect("sweep emitter poisoned");
            em.push(
                i,
                row,
                RowSource::Computed,
                secs,
                std::mem::take(&mut spans),
            );
            return !em.write_failed();
        }
        unreachable!("the retry loop always pushes on its final attempt");
    };

    if let Some(addr) = &opts.farm {
        // Farm mode: the same todo list, leased out dynamically (to
        // remote workers and `opts.threads` local ones) instead of
        // walked behind a local cursor. Accepted rows enter the same
        // emitter, so the artifact bytes cannot tell the modes apart.
        let farm = crate::farm::coordinate(spec, opts, addr, &points, &todo, &emitter, &eval)?;
        failed.fetch_add(farm.failed, Ordering::Relaxed);
        retried.fetch_add(farm.retried, Ordering::Relaxed);
        quarantined.fetch_add(farm.quarantined, Ordering::Relaxed);
    } else {
        let workers = opts.threads.clamp(1, todo.len().max(1));
        if workers <= 1 {
            for &i in &todo {
                if !run_point(i) {
                    break;
                }
            }
        } else {
            let cursor = AtomicUsize::new(0);
            thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|_| loop {
                        let k = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(&i) = todo.get(k) else { break };
                        if !run_point(i) {
                            break;
                        }
                    });
                }
            })
            .expect("sweep worker panicked");
        }
    }

    let emitter = emitter.into_inner().expect("sweep emitter poisoned");
    let (rows, point_secs) = emitter.finish()?;
    // Canonical compaction: once a dirty artifact (stale `~sweep-error`
    // lines) has all its points re-resolved, rewrite it as stamp + rows
    // in point order — byte-identical to an uninterrupted clean run.
    // Foreign or malformed lines veto the rewrite: the file is shared
    // or damaged, and compaction must not drop what it cannot rebuild.
    if artifact_dirty && unmatched_lines == 0 && malformed_lines == 0 {
        if let Some(path) = &opts.artifact {
            compact_artifact(path, spec, &rows)?;
        }
    }
    let merge_quarantined = resumed
        .values()
        .filter(|(row, s)| *s == RowSource::Merge && row.is_sweep_error())
        .count();
    Ok(SweepReport {
        rows,
        computed: todo.len(),
        resumed: resumed.len() - merged,
        merged,
        unmatched_lines,
        malformed_lines,
        point_secs,
        elapsed_secs: started.elapsed().as_secs_f64(),
        failed: failed.into_inner(),
        retried: retried.into_inner(),
        quarantined: quarantined.into_inner() + merge_quarantined,
    })
}

/// [`run_sweep`] for CLI wrappers: prints the error to stderr and exits
/// with status 2 instead of returning it. A `--worker` run exits 0 as
/// soon as the farm releases it — the coordinator holds the full row
/// set, so the wrapper's table/summary code never sees a partial one.
pub fn run_sweep_or_exit<F>(spec: &SweepSpec, opts: &SweepOptions, eval: F) -> SweepReport
where
    F: Fn(&SweepPoint, &PointCtx) -> Row + Sync,
{
    let report = run_sweep(spec, opts, eval).unwrap_or_else(|e| {
        eprintln!("{}: {e}", spec.name());
        // A worker that exhausted --max-reconnect-secs is orphaned, not
        // misconfigured: give schedulers a distinct status to key on.
        if e.starts_with(crate::farm::ORPHANED_PREFIX) {
            std::process::exit(crate::farm::WORKER_ORPHANED_EXIT);
        }
        std::process::exit(2);
    });
    if opts.worker.is_some() {
        std::process::exit(0);
    }
    report
}

/// Exits 1 when the report carries quarantined points. CLI wrappers
/// call this *after* printing their tables and summary: the sweep
/// completed every other point and the artifact is a valid checkpoint,
/// but as data it is incomplete, and a scheduled run must fail loudly
/// instead of shipping a partial figure. (Exit 2 stays reserved for
/// usage/IO errors via [`run_sweep_or_exit`].)
pub fn exit_if_failed(spec: &SweepSpec, report: &SweepReport) {
    if report.quarantined > 0 {
        eprintln!(
            "{}: {} point(s) quarantined after repeated failures — the '{}' \
             artifact rows record the causes; rerun with --resume to retry them",
            spec.name(),
            report.quarantined,
            ERROR_LABEL,
        );
        std::process::exit(1);
    }
}

/// Whether the file exists, is non-empty, and lacks a final newline.
fn ends_without_newline(path: &std::path::Path) -> Result<bool, String> {
    use std::io::{Read, Seek, SeekFrom};
    let Ok(mut f) = File::open(path) else {
        return Ok(false); // fresh artifact: nothing to repair
    };
    let len = f
        .metadata()
        .map_err(|e| format!("artifact {}: {e}", path.display()))?
        .len();
    if len == 0 {
        return Ok(false);
    }
    f.seek(SeekFrom::End(-1))
        .map_err(|e| format!("artifact {}: {e}", path.display()))?;
    let mut last = [0u8; 1];
    f.read_exact(&mut last)
        .map_err(|e| format!("artifact {}: {e}", path.display()))?;
    Ok(last[0] != b'\n')
}

/// A count of artifact lines and the `file:line` locations of the first
/// few, so the resume report can say *where* they are, not just how many.
#[derive(Debug, Default)]
struct LineTally {
    count: usize,
    at: Vec<String>,
}

impl LineTally {
    fn note(&mut self, path: &Path, lineno: usize) {
        self.count += 1;
        if self.at.len() < 8 {
            self.at.push(format!("{}:{lineno}", path.display()));
        }
    }

    fn locations(&self) -> String {
        let more = if self.count > self.at.len() {
            ", ..."
        } else {
            ""
        };
        format!("{}{more}", self.at.join(", "))
    }
}

/// What the resume scan found in the artifact and the `--merge` inputs.
#[derive(Debug, Default)]
struct ResumeScan {
    /// Completed points, by index into the selected points.
    resumed: BTreeMap<usize, (Row, RowSource)>,
    /// Selected points whose artifact row is a `~sweep-error` quarantine
    /// record: they are *not* resumed (the error is retried, not
    /// trusted) and their presence marks the artifact for canonical
    /// compaction.
    error_points: BTreeSet<usize>,
    /// Lines that failed to parse (e.g. a line truncated by a kill
    /// mid-write).
    malformed: LineTally,
    /// This sweep's rows and quarantine records that match no selected
    /// point: a stale grid, or points outside the filter or shard.
    stale: LineTally,
    /// Well-formed rows of other sweeps sharing the file.
    sibling: LineTally,
}

impl ResumeScan {
    /// Scans one artifact or merge input; the first row read for a point
    /// wins.
    fn read(
        &mut self,
        path: &Path,
        source: RowSource,
        spec: &SweepSpec,
        points: &[SweepPoint],
    ) -> Result<(), String> {
        let file = File::open(path)
            .map_err(|e| format!("cannot read artifact {}: {e}", path.display()))?;
        for (idx, line) in BufReader::new(file).lines().enumerate() {
            let lineno = idx + 1;
            let line = line.map_err(|e| format!("artifact {}: {e}", path.display()))?;
            if line.trim().is_empty() {
                continue;
            }
            let Ok(row) = parse_row(&line) else {
                self.malformed.note(path, lineno);
                continue;
            };
            // Configuration stamp: rows computed under a different
            // configuration (e.g. a reduced run resumed by EFT_FULL)
            // share axis values but not meaning — refuse them.
            if row.label() == META_LABEL {
                if row.get_str("spec") == Some(spec.name())
                    && row.get_str("config") != spec.config()
                {
                    return Err(format!(
                        "artifact {} was produced under configuration {:?}, \
                         but this sweep runs under {:?} — use a different \
                         --resume path (or delete the artifact) instead of \
                         mixing configurations",
                        path.display(),
                        row.get_str("config").unwrap_or("<none>"),
                        spec.config().unwrap_or("<none>"),
                    ));
                }
                continue;
            }
            let covered = || points.iter().position(|p| row_covers_point(&row, p));
            // A quarantine record from a previous run. From the
            // artifact itself the point is *retried* (the error row is
            // a tombstone, not a result); from a `--merge` input it is
            // carried through as-is — the shard already spent its
            // retry budget on it.
            if row.is_sweep_error() && row.get_str("spec") == Some(spec.name()) {
                match covered() {
                    Some(i) if source == RowSource::Artifact => {
                        self.error_points.insert(i);
                    }
                    Some(i) => {
                        self.resumed.entry(i).or_insert((row, source));
                    }
                    None => self.stale.note(path, lineno),
                }
                continue;
            }
            if row.label() != spec.name() {
                self.sibling.note(path, lineno);
                continue;
            }
            match covered() {
                Some(i) => {
                    self.resumed.entry(i).or_insert((row, source));
                }
                None => self.stale.note(path, lineno),
            }
        }
        Ok(())
    }

    /// The resume report for stderr. Malformed and stale lines are
    /// always reported: they veto compaction (see [`run_sweep`]) and
    /// say the file is damaged or outdated. Rows of other sweeps are
    /// expected in a shared artifact (one binary may run two sweeps into
    /// one file), so they are reported only when their veto blocks a
    /// compaction, that is, when this sweep's artifact holds a
    /// quarantine record to compact.
    fn warnings(&self, name: &str) -> Vec<String> {
        let mut out = Vec::new();
        for (kind, tally) in [("malformed", &self.malformed), ("unmatched", &self.stale)] {
            if tally.count > 0 {
                out.push(format!(
                    "[{name}] resume: {} {kind} line(s) kept verbatim at {} — \
                     compaction stays disabled while they remain",
                    tally.count,
                    tally.locations(),
                ));
            }
        }
        if self.sibling.count > 0 && !self.error_points.is_empty() {
            out.push(format!(
                "[{name}] resume: {} line(s) of other sweeps kept verbatim at {} — \
                 they keep this sweep's quarantined rows from being compacted",
                self.sibling.count,
                self.sibling.locations(),
            ));
        }
        out
    }
}

/// Rewrites the artifact as configuration stamp + `rows` in point order
/// (the byte layout of an uninterrupted clean run), via a temp file and
/// rename so a kill mid-rewrite cannot lose the original.
fn compact_artifact(path: &Path, spec: &SweepSpec, rows: &[Row]) -> Result<(), String> {
    let context = |e: std::io::Error| format!("cannot compact artifact {}: {e}", path.display());
    let tmp = path.with_extension("compact-tmp");
    let mut file = File::create(&tmp).map_err(context)?;
    let mut write_all = || -> std::io::Result<()> {
        if let Some(config) = spec.config() {
            let stamp = Row::new(META_LABEL)
                .str("spec", spec.name())
                .str("config", config);
            writeln!(file, "{}", stamp.to_json_row())?;
        }
        for row in rows {
            writeln!(file, "{}", row.to_json_row())?;
        }
        file.flush()
    };
    write_all().map_err(context)?;
    // fsync before the rename: rename alone only orders metadata, so a
    // crash right after it could surface an empty-but-renamed artifact.
    // With sync_all the data is durable before the name flips.
    file.sync_all().map_err(context)?;
    std::fs::rename(&tmp, path).map_err(context)
}

/// Whether `row` carries every axis of `point` with the point's value
/// (per [`AxisValue::loosely_equals`]: ints and floats promote, since
/// JSON cannot tell `1.0` from `1`).
pub(crate) fn row_covers_point(row: &Row, point: &SweepPoint) -> bool {
    use crate::rows::Value;
    point.values.iter().all(|(name, want)| {
        row.value(name).is_some_and(|v| {
            let got = match v {
                Value::Str(s) => AxisValue::Str(s.clone()),
                Value::Int(i) => AxisValue::Int(*i),
                Value::Num(x) => AxisValue::Num(*x),
            };
            want.loosely_equals(&got)
        })
    })
}

pub(crate) fn check_row_contract(spec: &SweepSpec, point: &SweepPoint, row: &Row) {
    assert_eq!(
        row.label(),
        spec.name(),
        "sweep '{}': point {} returned a row tagged '{}' — resume would never match it",
        spec.name(),
        point.id,
        row.label()
    );
    assert!(
        row_covers_point(row, point),
        "sweep '{}': the row for point {} does not carry its axis values {:?}",
        spec.name(),
        point.id,
        point.values
    );
}

/// Outcome of one guarded evaluation attempt.
pub(crate) enum EvalOutcome {
    /// The evaluator returned a row within the deadline.
    Ok { row: Row, secs: f64 },
    /// The attempt panicked or overran the deadline; `cause` is the
    /// machine-readable kind (`"panic"`/`"timeout"`) and `message` the
    /// human-readable detail for the `~sweep-error` row.
    Failed {
        cause: &'static str,
        message: String,
        secs: f64,
    },
}

/// Runs one evaluation attempt behind `catch_unwind` and the optional
/// wall-clock deadline, injecting the context's planted chaos fault (if
/// any) first. The deadline is checked on completion — safe Rust cannot
/// preempt the evaluator, so an overrun result is *discarded* rather
/// than interrupted. The timeout message quotes the configured limit,
/// not the measured elapsed time, so error rows stay deterministic.
pub(crate) fn eval_guarded<F>(
    eval: &F,
    point: &SweepPoint,
    ctx: &PointCtx,
    timeout_secs: Option<f64>,
) -> EvalOutcome
where
    F: Fn(&SweepPoint, &PointCtx) -> Row + Sync,
{
    let started = Instant::now();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if let Some(fault) = ctx.fault {
            crate::chaos::inject(fault, point.id, timeout_secs);
        }
        eval(point, ctx)
    }));
    let secs = started.elapsed().as_secs_f64();
    match result {
        Ok(row) => match timeout_secs {
            Some(limit) if secs > limit => EvalOutcome::Failed {
                cause: "timeout",
                message: format!("evaluation exceeded the {limit}s point deadline"),
                secs,
            },
            _ => EvalOutcome::Ok { row, secs },
        },
        Err(payload) => EvalOutcome::Failed {
            cause: "panic",
            message: panic_message(payload.as_ref()),
            secs,
        },
    }
}

/// Extracts a printable message from a `catch_unwind` payload (panics
/// carry `&str` or `String` in practice).
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with a non-string payload".to_string()
    }
}

/// In-order row emission: rows buffer until every earlier point is done,
/// then stream to the artifact (freshly computed and merged rows — rows
/// resumed from the artifact itself are already on disk), stdout (under
/// `--json`) and the progress meter.
/// Rate limiter for the stderr progress meter: at µs-scale points the
/// per-point line would otherwise dominate the run (and scroll any
/// terminal into uselessness), so lines are spaced at least
/// `min_interval_s` apart — except the final one, which always prints
/// so the 100% line is never dropped.
pub(crate) struct ProgressGate {
    min_interval_s: f64,
    last_s: Option<f64>,
}

impl ProgressGate {
    /// ~5 lines per second at most.
    pub(crate) fn new() -> Self {
        ProgressGate {
            min_interval_s: 0.2,
            last_s: None,
        }
    }

    /// Whether a line at elapsed time `now_s` may print; `is_final`
    /// bypasses the spacing.
    pub(crate) fn should_emit(&mut self, now_s: f64, is_final: bool) -> bool {
        let due = self
            .last_s
            .map_or(true, |t| now_s - t >= self.min_interval_s);
        if is_final || due {
            self.last_s = Some(now_s);
            return true;
        }
        false
    }
}

pub(crate) struct Emitter {
    name: String,
    file: Option<File>,
    path: Option<PathBuf>,
    /// First artifact write failure, with path and cause. Recorded
    /// instead of panicking: [`Emitter::finish`] surfaces it as the
    /// run's `Err`, and the run loops stop evaluating once it is set
    /// (the checkpoint can no longer keep up with the computation).
    write_error: Option<String>,
    /// `--trace` span streams; trace write failures fold into
    /// `write_error` like artifact ones.
    trace: Option<TraceWriter>,
    echo_json: bool,
    progress: bool,
    gate: ProgressGate,
    next: usize,
    buffered: BTreeMap<usize, (Row, RowSource, Vec<SpanRecord>)>,
    done: Vec<Row>,
    point_secs: Vec<f64>,
    fresh_done: usize,
    fresh_total: usize,
    resumed: usize,
    total: usize,
    started: Instant,
}

impl Emitter {
    fn open(
        spec: &SweepSpec,
        opts: &SweepOptions,
        points: &[SweepPoint],
        resumed: &BTreeMap<usize, (Row, RowSource)>,
        fresh_total: usize,
    ) -> Result<Self, String> {
        let file = match &opts.artifact {
            Some(path) => {
                let fresh = std::fs::metadata(path).map_or(true, |m| m.len() == 0);
                let mut file = OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)
                    .map_err(|e| format!("cannot append to artifact {}: {e}", path.display()))?;
                // A kill mid-write can leave a torn final line with no
                // newline; terminate it so appended rows stay on their
                // own lines (the torn fragment is already counted as a
                // malformed line by the resume scan).
                if ends_without_newline(path)? {
                    writeln!(file)
                        .map_err(|e| format!("cannot repair artifact {}: {e}", path.display()))?;
                }
                // Stamp a fresh artifact with the spec's configuration so
                // a later resume under a different configuration is
                // rejected instead of silently reusing rows.
                if fresh {
                    if let Some(config) = spec.config() {
                        let stamp = Row::new(META_LABEL)
                            .str("spec", spec.name())
                            .str("config", config);
                        writeln!(file, "{}", stamp.to_json_row())
                            .and_then(|()| file.flush())
                            .map_err(|e| {
                                format!("cannot stamp artifact {}: {e}", path.display())
                            })?;
                    }
                }
                Some(file)
            }
            None => None,
        };
        let trace = match &opts.trace {
            Some(path) => Some(
                TraceWriter::create(path)
                    .map_err(|e| format!("cannot create trace artifact {}: {e}", path.display()))?,
            ),
            None => None,
        };
        let mut emitter = Emitter {
            name: spec.name().to_string(),
            file,
            path: opts.artifact.clone(),
            write_error: None,
            trace,
            echo_json: opts.echo_json,
            progress: opts.progress,
            gate: ProgressGate::new(),
            next: 0,
            buffered: BTreeMap::new(),
            done: Vec::with_capacity(points.len()),
            point_secs: Vec::new(),
            fresh_done: 0,
            fresh_total,
            resumed: resumed.len(),
            total: points.len(),
            started: Instant::now(),
        };
        if emitter.progress && emitter.resumed > 0 {
            eprintln!(
                "[{}] resuming: {} of {} points already in the artifact",
                emitter.name, emitter.resumed, emitter.total
            );
        }
        // Seed the resumed/merged rows so in-order flushing can
        // interleave them. Under --trace each gets a root span whose
        // outcome records the provenance (no eval children — nothing
        // ran), keeping the trace a complete per-point account.
        for (&i, (row, source)) in resumed {
            let spans = if emitter.trace.is_some() {
                let outcome = match source {
                    RowSource::Merge => "merged",
                    _ => "resumed",
                };
                vec![trace::point_span(&emitter.name, &points[i], outcome, 0)]
            } else {
                Vec::new()
            };
            emitter.push(i, row.clone(), *source, 0.0, spans);
        }
        Ok(emitter)
    }

    pub(crate) fn push(
        &mut self,
        index: usize,
        row: Row,
        source: RowSource,
        secs: f64,
        spans: Vec<SpanRecord>,
    ) {
        self.buffered.insert(index, (row, source, spans));
        while let Some((row, source, spans)) = self.buffered.remove(&self.next) {
            self.flush_one(&row, source, &spans);
            self.done.push(row);
            self.next += 1;
        }
        if source == RowSource::Computed {
            self.point_secs.push(secs);
            self.fresh_done += 1;
            self.report_progress();
        }
    }

    fn flush_one(&mut self, row: &Row, source: RowSource, spans: &[SpanRecord]) {
        // Spans flush in point order regardless of completion order —
        // that (plus identity/timing separation) is what makes the
        // trace byte-identical across thread counts.
        if let Some(writer) = &mut self.trace {
            if let Err(e) = writer.write_spans(spans) {
                if self.write_error.is_none() {
                    self.write_error = Some(format!(
                        "cannot write trace artifact {}: {e}",
                        writer.path().display()
                    ));
                }
            }
        }
        if source != RowSource::Artifact && self.write_error.is_none() {
            if let Some(file) = &mut self.file {
                // Flushed per row: this is the checkpoint a killed run
                // resumes from.
                if let Err(e) = writeln!(file, "{}", row.to_json_row()).and_then(|()| file.flush())
                {
                    let path = self
                        .path
                        .as_ref()
                        .map_or_else(|| "<artifact>".to_string(), |p| p.display().to_string());
                    self.write_error = Some(format!("cannot write artifact {path}: {e}"));
                }
            }
        }
        if self.echo_json {
            println!("{}", row.to_json_row());
        }
    }

    /// Whether an artifact write has failed (further evaluation is
    /// wasted work — the rows could not be checkpointed).
    pub(crate) fn write_failed(&self) -> bool {
        self.write_error.is_some()
    }

    fn report_progress(&mut self) {
        if !self.progress {
            return;
        }
        let elapsed = self.started.elapsed().as_secs_f64();
        let is_final = self.fresh_done == self.fresh_total;
        if !self.gate.should_emit(elapsed, is_final) {
            return;
        }
        let eta = if self.fresh_done > 0 {
            elapsed / self.fresh_done as f64 * (self.fresh_total - self.fresh_done) as f64
        } else {
            0.0
        };
        eprintln!(
            "[{}] {}/{} points ({:.0}%{}), elapsed {:.1}s, eta {:.1}s",
            self.name,
            self.resumed + self.fresh_done,
            self.total,
            100.0 * (self.resumed + self.fresh_done) as f64 / self.total.max(1) as f64,
            if self.resumed > 0 {
                format!(", {} resumed", self.resumed)
            } else {
                String::new()
            },
            elapsed,
            eta,
        );
    }

    fn finish(mut self) -> Result<(Vec<Row>, Vec<f64>), String> {
        if let Some(writer) = self.trace.take() {
            let path = writer.path().to_path_buf();
            if let Err(e) = writer.finish() {
                if self.write_error.is_none() {
                    self.write_error = Some(format!(
                        "cannot write trace artifact {}: {e}",
                        path.display()
                    ));
                }
            }
        }
        if let Some(e) = self.write_error {
            return Err(format!(
                "[{}] {e} — completed rows could not be checkpointed; rerun \
                 with --resume once the path is writable",
                self.name
            ));
        }
        if self.done.len() != self.total {
            return Err(format!(
                "[{}] internal error: emitted {} of {} rows",
                self.name,
                self.done.len(),
                self.total
            ));
        }
        Ok((self.done, self.point_secs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use std::path::Path;
    use std::sync::atomic::AtomicUsize;

    fn spec() -> SweepSpec {
        SweepSpec::new("toy")
            .axis_strs("model", ["A", "B"])
            .axis_ints("n", [4, 8, 16])
            .axis_nums("p", [0.25, 1.0])
    }

    /// A deterministic evaluator exercising the per-point seed.
    fn eval(p: &SweepPoint, ctx: &PointCtx) -> Row {
        let mut rng = ctx.seed.rng();
        let noise: f64 = rng.gen();
        Row::new("toy")
            .str("model", p.str("model"))
            .int("n", p.int("n"))
            .num("p", p.num("p"))
            .num("value", p.int("n") as f64 * p.num("p") + noise)
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("eftq-sweep-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn lines(path: &Path) -> Vec<String> {
        std::fs::read_to_string(path)
            .unwrap()
            .lines()
            .map(str::to_string)
            .collect()
    }

    #[test]
    fn rows_are_identical_at_any_thread_count() {
        let spec = spec();
        let base = run_sweep(&spec, &SweepOptions::default(), eval).unwrap();
        assert_eq!(base.rows.len(), 12);
        assert_eq!(base.computed, 12);
        for threads in [2usize, 3, 8, 32] {
            let opts = SweepOptions {
                threads,
                ..SweepOptions::default()
            };
            let got = run_sweep(&spec, &opts, eval).unwrap();
            let a: Vec<String> = base.rows.iter().map(Row::to_json_row).collect();
            let b: Vec<String> = got.rows.iter().map(Row::to_json_row).collect();
            assert_eq!(a, b, "threads = {threads}");
        }
    }

    #[test]
    fn resume_skips_completed_points_and_converges() {
        let spec = spec();
        let full_path = tmp("full.jsonl");
        let killed_path = tmp("killed.jsonl");
        let _ = std::fs::remove_file(&full_path);
        let _ = std::fs::remove_file(&killed_path);

        let opts = SweepOptions {
            artifact: Some(full_path.clone()),
            ..SweepOptions::default()
        };
        let full = run_sweep(&spec, &opts, eval).unwrap();
        assert_eq!(full.resumed, 0);
        let full_lines = lines(&full_path);
        assert_eq!(full_lines.len(), 12);

        // Simulate a kill after 5 points (plus one torn line), resume.
        std::fs::write(
            &killed_path,
            format!("{}\n{{\"row\":\"toy\",\"mo", full_lines[..5].join("\n")),
        )
        .unwrap();
        let calls = AtomicUsize::new(0);
        let opts = SweepOptions {
            artifact: Some(killed_path.clone()),
            threads: 4,
            ..SweepOptions::default()
        };
        let resumed = run_sweep(&spec, &opts, |p, ctx| {
            calls.fetch_add(1, Ordering::Relaxed);
            eval(p, ctx)
        })
        .unwrap();
        assert_eq!(resumed.resumed, 5);
        assert_eq!(resumed.computed, 7);
        assert_eq!(resumed.malformed_lines, 1);
        assert_eq!(calls.load(Ordering::Relaxed), 7, "completed points re-ran");
        // The artifact converges to the uninterrupted run's rows, with
        // the torn fragment quarantined on its own (ignored) line.
        let mut expect = full_lines.clone();
        expect.insert(5, "{\"row\":\"toy\",\"mo".into());
        assert_eq!(lines(&killed_path), expect, "artifacts converge");
        let a: Vec<String> = full.rows.iter().map(Row::to_json_row).collect();
        let b: Vec<String> = resumed.rows.iter().map(Row::to_json_row).collect();
        assert_eq!(a, b);

        // Resuming a complete artifact computes nothing and leaves it
        // untouched.
        let again = run_sweep(&spec, &opts, |_, _| unreachable!("all resumed")).unwrap();
        assert_eq!(again.resumed, 12);
        assert_eq!(again.computed, 0);
        assert_eq!(lines(&killed_path), expect);
    }

    #[test]
    fn cross_config_resume_is_rejected() {
        let reduced = spec().with_config("reduced");
        let full = spec().with_config("full");
        let path = tmp("config-stamp.jsonl");
        let _ = std::fs::remove_file(&path);
        let opts = SweepOptions {
            artifact: Some(path.clone()),
            ..SweepOptions::default()
        };
        let first = run_sweep(&reduced, &opts, eval).unwrap();
        assert_eq!(first.computed, 12);
        // The artifact leads with the configuration stamp.
        let all = lines(&path);
        assert_eq!(all.len(), 13);
        assert_eq!(
            all[0],
            r#"{"row":"~sweep-config","spec":"toy","config":"reduced"}"#
        );

        // A full-scale sweep must refuse the reduced artifact outright —
        // the axis values coincide, the meaning does not.
        let err = run_sweep(&full, &opts, eval).unwrap_err();
        assert!(err.contains("configuration"), "{err}");
        assert!(err.contains("reduced") && err.contains("full"), "{err}");
        assert_eq!(lines(&path).len(), 13, "rejected resume left no trace");

        // The matching configuration still resumes cleanly, and the
        // stamp is not re-written.
        let again = run_sweep(&reduced, &opts, eval).unwrap();
        assert_eq!(again.resumed, 12);
        assert_eq!(again.computed, 0);
        assert_eq!(lines(&path), all);

        // An unstamped (config-less) spec ignores the stamp of other
        // specs and a stamped spec tolerates legacy unstamped artifacts.
        let other_path = tmp("config-none.jsonl");
        let _ = std::fs::remove_file(&other_path);
        std::fs::write(&other_path, format!("{}\n", all[1..].join("\n"))).unwrap();
        let legacy = run_sweep(
            &reduced,
            &SweepOptions {
                artifact: Some(other_path),
                ..SweepOptions::default()
            },
            eval,
        )
        .unwrap();
        assert_eq!(legacy.resumed, 12);
    }

    #[test]
    fn filter_runs_exactly_the_selected_points() {
        let spec = spec();
        let filter = PointFilter::parse("model=B,p=0.25").unwrap();
        let opts = SweepOptions {
            filter: Some(filter),
            ..SweepOptions::default()
        };
        let report = run_sweep(&spec, &opts, eval).unwrap();
        assert_eq!(report.rows.len(), 3);
        for (row, n) in report.rows.iter().zip([4i64, 8, 16]) {
            assert_eq!(row.get_str("model"), Some("B"));
            assert_eq!(row.get_num("p"), Some(0.25));
            assert_eq!(row.get_int("n"), Some(n));
        }
        let bad = SweepOptions {
            filter: Some(PointFilter::parse("nope=1").unwrap()),
            ..SweepOptions::default()
        };
        assert!(run_sweep(&spec, &bad, eval).is_err());
    }

    #[test]
    fn filtered_resume_ignores_foreign_rows() {
        // An artifact shared with another sweep (different row tag) or
        // holding out-of-filter rows resumes only what matches.
        let spec = spec();
        let path = tmp("mixed.jsonl");
        let _ = std::fs::remove_file(&path);
        let other = Row::new("other")
            .str("model", "B")
            .int("n", 4)
            .num("p", 0.25);
        let done = eval(
            &spec
                .points()
                .into_iter()
                .find(|p| p.str("model") == "B")
                .unwrap(),
            &PointCtx::new(
                SeedSequence::new(DEFAULT_SWEEP_SEED)
                    .derive("toy")
                    .derive_index(6),
            ),
        );
        std::fs::write(
            &path,
            format!("{}\n{}\n", other.to_json_row(), done.to_json_row()),
        )
        .unwrap();
        let opts = SweepOptions {
            artifact: Some(path.clone()),
            filter: Some(PointFilter::parse("model=B").unwrap()),
            ..SweepOptions::default()
        };
        let report = run_sweep(&spec, &opts, eval).unwrap();
        assert_eq!(report.resumed, 1);
        assert_eq!(report.computed, 5);
        assert_eq!(report.unmatched_lines, 1);
        assert_eq!(report.rows.len(), 6);
    }

    #[test]
    fn enforces_the_row_contract() {
        let spec = SweepSpec::new("s").axis_ints("n", [1]);
        let r = std::panic::catch_unwind(|| {
            run_sweep(&spec, &SweepOptions::default(), |_, _| Row::new("wrong"))
        });
        assert!(r.is_err(), "label mismatch must panic");
        let r = std::panic::catch_unwind(|| {
            run_sweep(&spec, &SweepOptions::default(), |_, _| {
                Row::new("s").int("n", 99)
            })
        });
        assert!(r.is_err(), "axis value mismatch must panic");
    }

    #[test]
    fn shards_partition_the_selection_for_every_k_and_n() {
        // Disjoint and union-complete: every selection position lands in
        // exactly one shard, for all N (including N > the point count).
        for len in [1usize, 2, 7, 12, 13] {
            for count in 1..=2 * len {
                let mut seen = vec![0usize; len];
                for index in 0..count {
                    let shard = Shard { index, count };
                    for (i, hits) in seen.iter_mut().enumerate() {
                        if shard.selects(i) {
                            *hits += 1;
                        }
                    }
                }
                assert!(
                    seen.iter().all(|&h| h == 1),
                    "len {len} count {count}: {seen:?}"
                );
            }
        }
    }

    #[test]
    fn malformed_shard_values_are_rejected_with_clear_errors() {
        for (bad, needle) in [
            ("3", "expected k/N"),
            ("a/4", "bad shard index"),
            ("0/b", "bad shard count"),
            ("1/0", "at least 1"),
            ("0/0", "at least 1"),
            ("4/4", "out of range"),
            ("9/4", "out of range"),
            ("-1/4", "bad shard index"),
            ("0.5/4", "bad shard index"),
        ] {
            let err = Shard::parse(bad).unwrap_err();
            assert!(err.contains(needle), "{bad}: {err}");
            assert!(err.contains(bad), "{bad}: {err}");
            // The CLI layer surfaces the same error instead of panicking.
            let args = vec!["--shard".to_string(), bad.to_string()];
            assert_eq!(SweepOptions::from_args(args).unwrap_err(), err);
        }
        assert_eq!(Shard::parse("0/1").unwrap(), Shard { index: 0, count: 1 });
        assert_eq!(Shard::parse("3/4").unwrap(), Shard { index: 3, count: 4 });
    }

    #[test]
    fn merged_shards_reassemble_the_unsharded_artifact_byte_for_byte() {
        let spec = spec().with_config("reduced");
        let unsharded = tmp("shard-unsharded.jsonl");
        let _ = std::fs::remove_file(&unsharded);
        let full = run_sweep(
            &spec,
            &SweepOptions {
                artifact: Some(unsharded.clone()),
                threads: 8,
                ..SweepOptions::default()
            },
            eval,
        )
        .unwrap();

        for count in [1usize, 2, 4, 5] {
            let mut shard_paths = Vec::new();
            let mut sizes = Vec::new();
            for index in 0..count {
                let path = tmp(&format!("shard-{index}-of-{count}.jsonl"));
                let _ = std::fs::remove_file(&path);
                let report = run_sweep(
                    &spec,
                    &SweepOptions {
                        artifact: Some(path.clone()),
                        shard: Some(Shard { index, count }),
                        threads: 3,
                        ..SweepOptions::default()
                    },
                    eval,
                )
                .unwrap();
                sizes.push(report.rows.len());
                shard_paths.push(path);
            }
            // Disjoint and union-complete over the 12-point grid.
            assert_eq!(sizes.iter().sum::<usize>(), 12, "count {count}");

            let merged = tmp(&format!("shard-merged-{count}.jsonl"));
            let _ = std::fs::remove_file(&merged);
            let report = run_sweep(
                &spec,
                &SweepOptions {
                    artifact: Some(merged.clone()),
                    merge: shard_paths,
                    ..SweepOptions::default()
                },
                |_, _| unreachable!("merge must not compute"),
            )
            .unwrap();
            assert_eq!(report.computed, 0);
            assert_eq!(report.merged, 12);
            assert_eq!(
                std::fs::read(&merged).unwrap(),
                std::fs::read(&unsharded).unwrap(),
                "count {count}"
            );
            let a: Vec<String> = full.rows.iter().map(Row::to_json_row).collect();
            let b: Vec<String> = report.rows.iter().map(Row::to_json_row).collect();
            assert_eq!(a, b, "count {count}");
        }
    }

    #[test]
    fn merge_refuses_an_incomplete_shard_union() {
        let spec = spec();
        let only_shard_0 = tmp("merge-incomplete.jsonl");
        let _ = std::fs::remove_file(&only_shard_0);
        run_sweep(
            &spec,
            &SweepOptions {
                artifact: Some(only_shard_0.clone()),
                shard: Some(Shard { index: 0, count: 3 }),
                ..SweepOptions::default()
            },
            eval,
        )
        .unwrap();
        let err = run_sweep(
            &spec,
            &SweepOptions {
                merge: vec![only_shard_0],
                ..SweepOptions::default()
            },
            |_, _| unreachable!("merge must not compute"),
        )
        .unwrap_err();
        assert!(err.contains("merge"), "{err}");
        assert!(err.contains("8 of 12"), "{err}");
        // A missing merge input is an error, not an empty resume.
        let err = run_sweep(
            &spec,
            &SweepOptions {
                merge: vec![tmp("never-written.jsonl")],
                ..SweepOptions::default()
            },
            |_, _| unreachable!("merge must not compute"),
        )
        .unwrap_err();
        assert!(err.contains("cannot read"), "{err}");
    }

    #[test]
    fn shard_composes_with_points_filter_and_resume() {
        let spec = spec();
        let filter = PointFilter::parse("model=B").unwrap();
        // Reference: the filtered-but-unsharded artifact.
        let reference = tmp("shard-filter-ref.jsonl");
        let _ = std::fs::remove_file(&reference);
        run_sweep(
            &spec,
            &SweepOptions {
                artifact: Some(reference.clone()),
                filter: Some(filter.clone()),
                ..SweepOptions::default()
            },
            eval,
        )
        .unwrap();
        let reference_lines = lines(&reference);
        assert_eq!(reference_lines.len(), 6);

        // Shard 1/2 of the filtered selection, killed after its first
        // point: the resume computes only the remainder of *this shard*.
        let shard = Shard { index: 1, count: 2 };
        let killed = tmp("shard-filter-killed.jsonl");
        let _ = std::fs::remove_file(&killed);
        let shard_opts = SweepOptions {
            artifact: Some(killed.clone()),
            filter: Some(filter.clone()),
            shard: Some(shard),
            ..SweepOptions::default()
        };
        run_sweep(&spec, &shard_opts, eval).unwrap();
        let full_shard_lines = lines(&killed);
        assert_eq!(full_shard_lines.len(), 3);
        // Selection positions 1, 3, 5 → reference lines 1, 3, 5.
        assert_eq!(
            full_shard_lines,
            vec![
                reference_lines[1].clone(),
                reference_lines[3].clone(),
                reference_lines[5].clone()
            ]
        );
        std::fs::write(&killed, format!("{}\n", full_shard_lines[0])).unwrap();
        let calls = AtomicUsize::new(0);
        let resumed = run_sweep(&spec, &shard_opts, |p, ctx| {
            calls.fetch_add(1, Ordering::Relaxed);
            eval(p, ctx)
        })
        .unwrap();
        assert_eq!(resumed.resumed, 1);
        assert_eq!(resumed.computed, 2);
        assert_eq!(calls.load(Ordering::Relaxed), 2);
        assert_eq!(lines(&killed), full_shard_lines, "artifact converges");
    }

    #[test]
    fn summary_row_reports_counts_and_timing_quantiles() {
        let spec = spec().with_config("reduced");
        let report = run_sweep(&spec, &SweepOptions::default(), eval).unwrap();
        assert_eq!(report.point_secs.len(), 12);
        assert!(report.elapsed_secs >= 0.0);
        let row = report.summary_row(&spec);
        assert_eq!(row.label(), "~sweep-summary");
        assert_eq!(row.get_str("spec"), Some("toy"));
        assert_eq!(row.get_str("config"), Some("reduced"));
        assert_eq!(row.get_int("points"), Some(12));
        assert_eq!(row.get_int("computed"), Some(12));
        assert_eq!(row.get_int("resumed"), Some(0));
        assert_eq!(row.get_int("merged"), Some(0));
        let p50 = row.get_num("point_p50_s").unwrap();
        let p90 = row.get_num("point_p90_s").unwrap();
        let max = row.get_num("point_max_s").unwrap();
        assert!(0.0 <= p50 && p50 <= p90 && p90 <= max, "{p50} {p90} {max}");
        assert_eq!(max, report.point_secs.iter().copied().fold(0.0, f64::max));
        // An all-resumed run has no fresh timings.
        let path = tmp("summary-resumed.jsonl");
        let _ = std::fs::remove_file(&path);
        let opts = SweepOptions {
            artifact: Some(path),
            ..SweepOptions::default()
        };
        run_sweep(&spec, &opts, eval).unwrap();
        let again = run_sweep(&spec, &opts, |_, _| unreachable!("all resumed")).unwrap();
        let row = again.summary_row(&spec);
        assert_eq!(row.get_int("resumed"), Some(12));
        assert_eq!(row.get_int("computed"), Some(0));
        assert_eq!(row.get_num("point_p50_s"), Some(0.0));
    }

    #[test]
    fn cli_parsing_covers_the_standard_flags() {
        let args = |list: &[&str]| list.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let o = SweepOptions::from_args(args(&[
            "--json",
            "--threads",
            "8",
            "--resume",
            "out.jsonl",
            "--points=n=4|8",
            "--shard",
            "1/4",
            "--merge",
            "a.jsonl, b.jsonl",
            "--merge=c.jsonl",
            "--summary",
            "--trace",
            "trace.jsonl",
            "--other-binary-flag",
        ]))
        .unwrap();
        assert!(o.echo_json);
        assert!(
            !o.progress,
            "the test harness pipes stderr, so progress defaults off"
        );
        assert!(o.summary);
        assert_eq!(o.threads, 8);
        assert_eq!(o.artifact.as_deref(), Some(Path::new("out.jsonl")));
        assert_eq!(o.trace.as_deref(), Some(Path::new("trace.jsonl")));
        assert_eq!(o.filter, Some(PointFilter::parse("n=4|8").unwrap()));
        assert_eq!(o.shard, Some(Shard { index: 1, count: 4 }));
        assert_eq!(
            o.merge,
            vec![
                PathBuf::from("a.jsonl"),
                PathBuf::from("b.jsonl"),
                PathBuf::from("c.jsonl")
            ]
        );

        let o = SweepOptions::from_args(args(&["--threads=3"])).unwrap();
        assert_eq!(o.threads, 3);
        assert!(!o.echo_json);
        assert!(!o.summary);
        assert_eq!(o.shard, None);
        assert!(o.merge.is_empty());
        assert_eq!(o.trace, None);

        // --progress forces the meter on even without a TTY.
        let o = SweepOptions::from_args(args(&["--progress"])).unwrap();
        assert!(o.progress);

        assert!(SweepOptions::from_args(args(&["--threads"])).is_err());
        assert!(SweepOptions::from_args(args(&["--trace"])).is_err());
        let err =
            SweepOptions::from_args(args(&["--worker", "a:1", "--trace", "t.jsonl"])).unwrap_err();
        assert!(err.contains("--trace does not apply"), "{err}");
        assert!(SweepOptions::from_args(args(&["--threads", "zero"])).is_err());
        assert!(SweepOptions::from_args(args(&["--threads", "0"])).is_err());
        assert!(SweepOptions::from_args(args(&["--points", "broken"])).is_err());
        assert!(SweepOptions::from_args(args(&["--shard"])).is_err());
        assert!(SweepOptions::from_args(args(&["--shard", "4/4"])).is_err());
        assert!(SweepOptions::from_args(args(&["--merge", " , "])).is_err());
    }

    #[test]
    fn cli_parsing_covers_the_farm_flags() {
        let args = |list: &[&str]| list.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        // Coordinator: --farm, optionally coordinate-only (--threads 0).
        let o = SweepOptions::from_args(args(&[
            "--farm",
            "127.0.0.1:7413",
            "--threads=0",
            "--lease-secs",
            "5.5",
        ]))
        .unwrap();
        assert_eq!(o.farm.as_deref(), Some("127.0.0.1:7413"));
        assert_eq!(o.worker, None);
        assert_eq!(o.threads, 0);
        assert_eq!(o.lease_secs, 5.5);

        // Worker: --worker, default lease untouched.
        let o =
            SweepOptions::from_args(args(&["--worker=farmhost:7413", "--threads", "4"])).unwrap();
        assert_eq!(o.worker.as_deref(), Some("farmhost:7413"));
        assert_eq!(o.farm, None);
        assert_eq!(o.lease_secs, crate::farm::DEFAULT_LEASE_SECS);

        // Invalid combinations are rejected with actionable messages.
        for (bad, needle) in [
            (vec!["--farm"], "missing value"),
            (vec!["--worker"], "missing value"),
            (vec!["--lease-secs"], "missing value"),
            (vec!["--lease-secs", "soon"], "expected seconds"),
            (vec!["--lease-secs", "0"], "positive duration"),
            (vec!["--lease-secs", "-3"], "positive duration"),
            (vec!["--lease-secs", "inf"], "positive duration"),
            (
                vec!["--farm", "a:1", "--worker", "b:2"],
                "mutually exclusive",
            ),
            (
                vec!["--worker", "a:1", "--shard", "0/2"],
                "--shard does not apply",
            ),
            (
                vec!["--worker", "a:1", "--merge", "x.jsonl"],
                "--merge does not apply",
            ),
            (vec!["--threads", "0"], "--farm"),
        ] {
            let err = SweepOptions::from_args(args(&bad)).unwrap_err();
            assert!(err.contains(needle), "{bad:?}: {err}");
        }
    }

    #[test]
    fn cli_parsing_covers_the_fault_flags() {
        let args = |list: &[&str]| list.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let o =
            SweepOptions::from_args(args(&["--retries", "2", "--point-timeout-secs=1.5"])).unwrap();
        assert_eq!(o.retries, 2);
        assert_eq!(o.point_timeout_secs, Some(1.5));
        assert_eq!(o.fault_plan, None, "fault plans come from the environment");
        let o = SweepOptions::from_args(args(&[])).unwrap();
        assert_eq!(o.retries, 0);
        assert_eq!(o.point_timeout_secs, None);
        for (bad, needle) in [
            (vec!["--retries"], "missing value"),
            (vec!["--retries", "-1"], "expected a count"),
            (vec!["--point-timeout-secs"], "missing value"),
            (vec!["--point-timeout-secs", "soon"], "expected seconds"),
            (vec!["--point-timeout-secs", "0"], "positive duration"),
            (vec!["--point-timeout-secs", "-2"], "positive duration"),
            (vec!["--point-timeout-secs", "inf"], "positive duration"),
        ] {
            let err = SweepOptions::from_args(args(&bad)).unwrap_err();
            assert!(err.contains(needle), "{bad:?}: {err}");
        }
    }

    /// `eval` with one poison point (model B, n 8, p 1.0) that panics.
    fn poisoned_eval(p: &SweepPoint, ctx: &PointCtx) -> Row {
        if p.str("model") == "B" && p.int("n") == 8 && p.num("p") == 1.0 {
            panic!("poison: bad point");
        }
        eval(p, ctx)
    }

    #[test]
    fn panicking_points_quarantine_and_the_sweep_completes() {
        let spec = spec();
        let base = run_sweep(&spec, &SweepOptions::default(), poisoned_eval).unwrap();
        assert_eq!(base.rows.len(), 12, "every point has a row");
        assert_eq!(base.failed, 1);
        assert_eq!(base.retried, 0);
        assert_eq!(base.quarantined, 1);
        assert_eq!(base.ok_rows().count(), 11);
        let err: Vec<&Row> = base.error_rows().collect();
        assert_eq!(err.len(), 1);
        assert_eq!(
            err[0].to_json_row(),
            r#"{"row":"~sweep-error","spec":"toy","model":"B","n":8,"p":1,"cause":"panic","message":"poison: bad point","attempts":1}"#,
            "the error row is a pure function of the point and failure"
        );
        // Identical rows — error row included — at any thread count.
        for threads in [4usize, 16] {
            let opts = SweepOptions {
                threads,
                ..SweepOptions::default()
            };
            let got = run_sweep(&spec, &opts, poisoned_eval).unwrap();
            let a: Vec<String> = base.rows.iter().map(Row::to_json_row).collect();
            let b: Vec<String> = got.rows.iter().map(Row::to_json_row).collect();
            assert_eq!(a, b, "threads {threads}");
        }
        // The summary row carries the failure counts.
        let row = base.summary_row(&spec);
        assert_eq!(row.get_int("failed"), Some(1));
        assert_eq!(row.get_int("retried"), Some(0));
        assert_eq!(row.get_int("quarantined"), Some(1));
    }

    #[test]
    fn deadline_overruns_quarantine_as_timeouts() {
        let spec = spec();
        let opts = SweepOptions {
            point_timeout_secs: Some(0.01),
            ..SweepOptions::default()
        };
        let slow = |p: &SweepPoint, ctx: &PointCtx| {
            if p.str("model") == "A" && p.int("n") == 16 && p.num("p") == 0.25 {
                std::thread::sleep(std::time::Duration::from_millis(30));
            }
            eval(p, ctx)
        };
        let report = run_sweep(&spec, &opts, slow).unwrap();
        assert_eq!(report.quarantined, 1);
        let err: Vec<&Row> = report.error_rows().collect();
        assert_eq!(err[0].get_str("cause"), Some("timeout"));
        assert_eq!(
            err[0].get_str("message"),
            Some("evaluation exceeded the 0.01s point deadline"),
            "the message quotes the configured limit, not the elapsed time"
        );
    }

    #[test]
    fn retries_heal_transient_failures_and_converge_to_clean_bytes() {
        let spec = spec().with_config("reduced");
        let clean = tmp("retry-clean.jsonl");
        let flaky_path = tmp("retry-flaky.jsonl");
        let _ = std::fs::remove_file(&clean);
        let _ = std::fs::remove_file(&flaky_path);
        run_sweep(
            &spec,
            &SweepOptions {
                artifact: Some(clean.clone()),
                ..SweepOptions::default()
            },
            eval,
        )
        .unwrap();
        // Every n=4 point fails its first attempt; `--retries 1` heals
        // them because the retry reruns the identical computation.
        let flaky = |p: &SweepPoint, ctx: &PointCtx| {
            assert!(ctx.attempt <= 2, "budget is retries + 1 = 2");
            if ctx.attempt == 1 && p.int("n") == 4 {
                panic!("transient");
            }
            eval(p, ctx)
        };
        let opts = SweepOptions {
            artifact: Some(flaky_path.clone()),
            retries: 1,
            threads: 4,
            ..SweepOptions::default()
        };
        let report = run_sweep(&spec, &opts, flaky).unwrap();
        assert_eq!(report.failed, 4);
        assert_eq!(report.retried, 4);
        assert_eq!(report.quarantined, 0);
        assert_eq!(
            std::fs::read(&flaky_path).unwrap(),
            std::fs::read(&clean).unwrap(),
            "seed-stable retries converge to the clean artifact bytes"
        );
    }

    #[test]
    fn resume_retries_quarantined_points_and_compacts_to_clean_bytes() {
        let spec = spec().with_config("reduced");
        let clean = tmp("quarantine-clean.jsonl");
        let path = tmp("quarantine-resume.jsonl");
        let _ = std::fs::remove_file(&clean);
        let _ = std::fs::remove_file(&path);
        run_sweep(
            &spec,
            &SweepOptions {
                artifact: Some(clean.clone()),
                ..SweepOptions::default()
            },
            eval,
        )
        .unwrap();

        let poisoned = run_sweep(
            &spec,
            &SweepOptions {
                artifact: Some(path.clone()),
                threads: 8,
                ..SweepOptions::default()
            },
            poisoned_eval,
        )
        .unwrap();
        assert_eq!(poisoned.quarantined, 1);
        let poisoned_lines = lines(&path);
        assert_eq!(poisoned_lines.len(), 13, "stamp + 11 good + 1 error row");
        assert!(poisoned_lines.iter().any(|l| l.contains("~sweep-error")));

        // Resume with the fault gone: only the quarantined point is
        // recomputed (good rows are trusted) and the artifact compacts
        // to the clean run's exact bytes.
        let calls = AtomicUsize::new(0);
        let resume_opts = SweepOptions {
            artifact: Some(path.clone()),
            ..SweepOptions::default()
        };
        let resumed = run_sweep(&spec, &resume_opts, |p, ctx| {
            calls.fetch_add(1, Ordering::Relaxed);
            eval(p, ctx)
        })
        .unwrap();
        assert_eq!(calls.load(Ordering::Relaxed), 1, "good rows not recomputed");
        assert_eq!(resumed.resumed, 11);
        assert_eq!(resumed.computed, 1);
        assert_eq!(resumed.quarantined, 0);
        assert_eq!(
            std::fs::read(&path).unwrap(),
            std::fs::read(&clean).unwrap(),
            "resume + compaction converge to the clean artifact bytes"
        );
        // A second resume computes nothing and leaves the bytes alone.
        let again = run_sweep(&spec, &resume_opts, |_, _| unreachable!("all resumed")).unwrap();
        assert_eq!(again.resumed, 12);
        assert_eq!(
            std::fs::read(&path).unwrap(),
            std::fs::read(&clean).unwrap()
        );

        // With the fault still present, the error row is retried — not
        // trusted — and the re-quarantine is byte-idempotent.
        let again_path = tmp("quarantine-again.jsonl");
        let _ = std::fs::remove_file(&again_path);
        let again_opts = SweepOptions {
            artifact: Some(again_path.clone()),
            ..SweepOptions::default()
        };
        run_sweep(&spec, &again_opts, poisoned_eval).unwrap();
        let first = std::fs::read(&again_path).unwrap();
        let second = run_sweep(&spec, &again_opts, poisoned_eval).unwrap();
        assert_eq!(second.computed, 1, "only the quarantined point re-ran");
        assert_eq!(second.quarantined, 1);
        assert_eq!(std::fs::read(&again_path).unwrap(), first);
    }

    /// The resume warnings `run_sweep` prints for `spec` on `path`.
    fn resume_warnings(spec: &SweepSpec, path: &Path) -> Vec<String> {
        let mut scan = ResumeScan::default();
        if path.exists() {
            scan.read(path, RowSource::Artifact, spec, &spec.points())
                .unwrap();
        }
        scan.warnings(spec.name())
    }

    #[test]
    fn sibling_rows_warn_only_when_they_block_a_compaction() {
        let toy = spec();
        let sibling = SweepSpec::new("sibling").axis_ints("n", [1, 2]);
        let sibling_eval = |p: &SweepPoint, _: &PointCtx| {
            Row::new("sibling")
                .int("n", p.int("n"))
                .int("twice", 2 * p.int("n"))
        };
        let path = tmp("shared.jsonl");
        let _ = std::fs::remove_file(&path);
        let opts = SweepOptions {
            artifact: Some(path.clone()),
            ..SweepOptions::default()
        };
        // Two sweeps into one fresh artifact, as `fig11_crossover` runs.
        assert!(resume_warnings(&toy, &path).is_empty());
        run_sweep(&toy, &opts, eval).unwrap();
        assert!(resume_warnings(&sibling, &path).is_empty());
        let fresh = run_sweep(&sibling, &opts, sibling_eval).unwrap();
        assert_eq!(fresh.unmatched_lines, 12, "still counted");
        // Resumed: each sees the other's rows, and neither warns.
        assert!(resume_warnings(&toy, &path).is_empty());
        assert!(resume_warnings(&sibling, &path).is_empty());
        let resumed = run_sweep(&toy, &opts, eval).unwrap();
        assert_eq!((resumed.computed, resumed.unmatched_lines), (0, 2));

        // A stale row of this sweep's own label warns, as before.
        let stale = r#"{"row":"toy","model":"C","n":4,"p":0.25,"value":1}"#;
        let mut content = std::fs::read_to_string(&path).unwrap();
        content.push_str(stale);
        content.push('\n');
        std::fs::write(&path, &content).unwrap();
        let warned = resume_warnings(&toy, &path);
        assert_eq!(warned.len(), 1, "{warned:?}");
        assert!(warned[0].contains("1 unmatched line(s)"), "{}", warned[0]);
        assert!(resume_warnings(&sibling, &path).is_empty());

        // A sibling row next to a quarantined row blocks its compaction
        // and says so.
        let _ = std::fs::remove_file(&path);
        run_sweep(&toy, &opts, poisoned_eval).unwrap();
        run_sweep(&sibling, &opts, sibling_eval).unwrap();
        let warned = resume_warnings(&toy, &path);
        assert_eq!(warned.len(), 1, "{warned:?}");
        assert!(
            warned[0].contains("2 line(s) of other sweeps"),
            "{}",
            warned[0]
        );
        assert!(resume_warnings(&sibling, &path).is_empty());
        let healed = run_sweep(&toy, &opts, eval).unwrap();
        assert_eq!((healed.computed, healed.quarantined), (1, 0));
        let all = lines(&path);
        assert!(
            all.iter().any(|l| l.contains("~sweep-error")),
            "not compacted"
        );
        assert_eq!(
            all.iter()
                .filter(|l| l.contains(r#""row":"sibling""#))
                .count(),
            2
        );
    }

    #[test]
    fn foreign_lines_veto_artifact_compaction() {
        let spec = spec();
        let path = tmp("no-compact.jsonl");
        let _ = std::fs::remove_file(&path);
        run_sweep(
            &spec,
            &SweepOptions {
                artifact: Some(path.clone()),
                ..SweepOptions::default()
            },
            poisoned_eval,
        )
        .unwrap();
        // Another sweep shares the file: compaction must not rewrite it.
        let foreign = r#"{"row":"other","keep":"me"}"#;
        let mut content = std::fs::read_to_string(&path).unwrap();
        content.push_str(foreign);
        content.push('\n');
        std::fs::write(&path, content).unwrap();
        let resumed = run_sweep(
            &spec,
            &SweepOptions {
                artifact: Some(path.clone()),
                ..SweepOptions::default()
            },
            eval,
        )
        .unwrap();
        assert_eq!(resumed.computed, 1);
        assert_eq!(resumed.unmatched_lines, 1);
        assert_eq!(resumed.quarantined, 0);
        assert_eq!(resumed.ok_rows().count(), 12, "the report is healed");
        let all = lines(&path);
        assert!(all.contains(&foreign.to_string()), "foreign line survives");
        assert!(
            all.iter().any(|l| l.contains("~sweep-error")),
            "no compaction: the stale error line is left in place"
        );
    }

    #[test]
    fn compaction_tmp_file_never_survives() {
        let spec = spec().with_config("reduced");
        let path = tmp("compact-fsync.jsonl");
        let tmp_path = path.with_extension("compact-tmp");
        let _ = std::fs::remove_file(&path);
        let opts = SweepOptions {
            artifact: Some(path.clone()),
            ..SweepOptions::default()
        };
        // Quarantine one point, then resume with the fault gone so the
        // dirty artifact compacts on the way out.
        run_sweep(&spec, &opts, poisoned_eval).unwrap();
        run_sweep(&spec, &opts, eval).unwrap();
        assert!(
            !tmp_path.exists(),
            "compaction temp survives: {}",
            tmp_path.display()
        );
        assert_eq!(lines(&path).len(), 13, "stamp + 12 compacted rows");
        // Direct rewrite over an existing artifact: the fsync+rename
        // path must consume the temp file too.
        let rows: Vec<Row> = lines(&path)
            .iter()
            .skip(1)
            .map(|l| parse_row(l).unwrap())
            .collect();
        compact_artifact(&path, &spec, &rows).unwrap();
        assert!(!tmp_path.exists());
        assert_eq!(lines(&path).len(), 13);
    }

    #[test]
    fn unwritable_artifact_path_is_an_error_not_a_panic() {
        // The artifact's parent "directory" is a regular file, so the
        // open fails for any user (a chmod-based test would pass for
        // root).
        let bogus_parent = tmp("not-a-dir");
        std::fs::write(&bogus_parent, "x").unwrap();
        let path = bogus_parent.join("out.jsonl");
        let err = run_sweep(
            &spec(),
            &SweepOptions {
                artifact: Some(path),
                ..SweepOptions::default()
            },
            eval,
        )
        .unwrap_err();
        assert!(err.contains("cannot append to artifact"), "{err}");
        assert!(err.contains("not-a-dir"), "{err}");
    }

    #[test]
    fn mid_run_write_failures_surface_with_path_and_cause() {
        // Swap in a read-only handle: the first flush records the
        // failure instead of panicking, later pushes skip writing, and
        // finish() surfaces it as the run's error.
        let victim = tmp("readonly-artifact.jsonl");
        std::fs::write(&victim, "").unwrap();
        let mut em = Emitter {
            name: "toy".into(),
            file: Some(File::open(&victim).unwrap()), // read-only handle
            path: Some(victim.clone()),
            write_error: None,
            trace: None,
            echo_json: false,
            progress: false,
            gate: ProgressGate::new(),
            next: 0,
            buffered: BTreeMap::new(),
            done: Vec::new(),
            point_secs: Vec::new(),
            fresh_done: 0,
            fresh_total: 2,
            resumed: 0,
            total: 2,
            started: Instant::now(),
        };
        em.push(
            0,
            Row::new("toy").int("n", 1),
            RowSource::Computed,
            0.0,
            Vec::new(),
        );
        assert!(em.write_failed());
        em.push(
            1,
            Row::new("toy").int("n", 2),
            RowSource::Computed,
            0.0,
            Vec::new(),
        );
        let err = em.finish().unwrap_err();
        assert!(err.contains("cannot write artifact"), "{err}");
        assert!(err.contains("readonly-artifact.jsonl"), "{err}");
        assert!(err.contains("--resume"), "{err}");
    }

    #[test]
    fn trace_identity_bytes_are_stable_across_thread_counts() {
        let spec = spec();
        let base_trace = tmp("trace-t1.jsonl");
        let base = run_sweep(
            &spec,
            &SweepOptions {
                trace: Some(base_trace.clone()),
                retries: 1,
                ..SweepOptions::default()
            },
            poisoned_eval,
        )
        .unwrap();
        assert_eq!(base.quarantined, 1);
        let base_bytes = std::fs::read(&base_trace).unwrap();
        for threads in [4usize, 8] {
            let path = tmp(&format!("trace-t{threads}.jsonl"));
            run_sweep(
                &spec,
                &SweepOptions {
                    trace: Some(path.clone()),
                    retries: 1,
                    threads,
                    ..SweepOptions::default()
                },
                poisoned_eval,
            )
            .unwrap();
            assert_eq!(
                std::fs::read(&path).unwrap(),
                base_bytes,
                "threads {threads}: the identity stream must not depend on scheduling"
            );
        }
        // Shape: one root span per point in id order, eval children
        // parented beneath, the poisoned point quarantined after its
        // retry, and no durations in the identity stream.
        let rows: Vec<Row> = lines(&base_trace)
            .iter()
            .map(|l| parse_row(l).unwrap())
            .collect();
        assert_eq!(
            rows.len(),
            12 + 13,
            "12 roots + 11 ok evals + 2 failed evals"
        );
        let roots: Vec<&Row> = rows
            .iter()
            .filter(|r| r.get_str("name") == Some("point"))
            .collect();
        assert_eq!(roots.len(), 12);
        let ids: Vec<i64> = roots.iter().map(|r| r.get_int("point").unwrap()).collect();
        assert_eq!(ids, (0..12).collect::<Vec<i64>>(), "roots in point order");
        let quarantined: Vec<&&Row> = roots
            .iter()
            .filter(|r| r.get_str("outcome") == Some("quarantined"))
            .collect();
        assert_eq!(quarantined.len(), 1);
        assert_eq!(quarantined[0].get_int("attempts"), Some(2));
        assert!(rows.iter().all(|r| r.get_int("duration_ns").is_none()));
        let evals: Vec<&Row> = rows
            .iter()
            .filter(|r| r.get_str("name") == Some("eval"))
            .collect();
        assert_eq!(evals.len(), 13);
        assert!(evals.iter().all(|r| r.get_str("parent").is_some()));
        // The timing sidecar carries exactly one duration per span, and
        // is allowed to differ between runs.
        let timings = std::fs::read_to_string(trace::timing_path(&base_trace)).unwrap();
        let timing_rows: Vec<Row> = timings.lines().map(|l| parse_row(l).unwrap()).collect();
        assert_eq!(timing_rows.len(), rows.len());
        assert!(timing_rows
            .iter()
            .all(|r| r.get_int("duration_ns").is_some()));
    }

    #[test]
    fn traced_resume_marks_provenance_without_eval_spans() {
        let spec = spec();
        let artifact = tmp("trace-resume-artifact.jsonl");
        let _ = std::fs::remove_file(&artifact);
        run_sweep(
            &spec,
            &SweepOptions {
                artifact: Some(artifact.clone()),
                ..SweepOptions::default()
            },
            eval,
        )
        .unwrap();
        let trace_path = tmp("trace-resume.jsonl");
        let report = run_sweep(
            &spec,
            &SweepOptions {
                artifact: Some(artifact),
                trace: Some(trace_path.clone()),
                ..SweepOptions::default()
            },
            |_, _| unreachable!("all resumed"),
        )
        .unwrap();
        assert_eq!(report.resumed, 12);
        let rows: Vec<Row> = lines(&trace_path)
            .iter()
            .map(|l| parse_row(l).unwrap())
            .collect();
        assert_eq!(rows.len(), 12, "root spans only — nothing evaluated");
        assert!(rows
            .iter()
            .all(|r| r.get_str("outcome") == Some("resumed") && r.get_int("attempts") == Some(0)));
    }

    #[test]
    fn summary_row_reports_eval_time_histogram_buckets() {
        let spec = spec();
        let report = run_sweep(&spec, &SweepOptions::default(), eval).unwrap();
        let row = report.summary_row(&spec);
        // Reconstruct the expected buckets from the reported timings.
        let hist = eftq_obs::Histogram::new();
        for &s in &report.point_secs {
            hist.observe_ns(trace::secs_to_ns(s));
        }
        let buckets = hist.nonzero_buckets();
        assert!(!buckets.is_empty());
        let total: i64 = buckets
            .iter()
            .map(|(k, _)| row.get_int(&format!("hist_b{k}")).unwrap())
            .sum();
        assert_eq!(total, 12, "every fresh point lands in exactly one bucket");
        for (k, count) in buckets {
            assert_eq!(row.get_int(&format!("hist_b{k}")), Some(count as i64));
        }
        // No fresh points → no histogram fields.
        let empty = SweepReport {
            rows: Vec::new(),
            computed: 0,
            resumed: 0,
            merged: 0,
            unmatched_lines: 0,
            malformed_lines: 0,
            point_secs: Vec::new(),
            elapsed_secs: 0.0,
            failed: 0,
            retried: 0,
            quarantined: 0,
        };
        assert!(!empty.summary_row(&spec).to_json_row().contains("hist_b"));
    }

    #[test]
    fn progress_gate_limits_line_rate_but_never_drops_the_final_line() {
        let mut gate = ProgressGate::new();
        // 100 points completing 1ms apart: ~5 lines/sec, not 1000.
        let mut emitted = 0;
        for i in 0..1000 {
            if gate.should_emit(i as f64 * 0.001, false) {
                emitted += 1;
            }
        }
        assert!(emitted <= 6, "{emitted} lines in a simulated second");
        assert!(emitted >= 1, "the first line prints immediately");
        // The final line always prints, even right after another.
        assert!(gate.should_emit(1.0001, true));
    }
}
