//! The sweep farm: a lease-based coordinator that feeds workers
//! dynamically, replacing static `--shard k/N` partitions.
//!
//! A `--shard` split strands a slow or dead machine's slice; the farm
//! re-balances continuously instead. One **coordinator** process owns
//! the selected point grid and *leases* point batches to **workers**
//! over the TCP/JSONL [`crate::protocol`]; a worker is the same figure
//! binary launched with `--worker <addr>`, and the coordinator's own
//! `--threads` act as in-process workers pulling from the same lease
//! queue, so a lone coordinator still completes the sweep.
//!
//! Crash-safety is the headline property, and it decomposes:
//!
//! * **Re-lease on failure** — a worker disconnect (SIGKILL included)
//!   or a lease outliving `--lease-secs` returns its unfinished points
//!   to the queue for the next requester.
//! * **First-writer-wins acceptance** — a completion that arrives after
//!   its lease expired or was re-issued is *accepted once*; whichever
//!   writer is second (stale original or re-lease) is discarded as a
//!   duplicate. Acceptance is keyed on the point, never the lease, so
//!   the re-lease race cannot drop or double-write a row.
//! * **Determinism** — per-point seeds derive from the coordinator's
//!   root seed (shipped in the welcome message), and accepted rows
//!   stream through the runner's in-order emitter, so the artifact is
//!   byte-identical to a single-process `--threads N` run no matter how
//!   points were distributed or how many workers died.
//!
//! Lease batches are sized from the observed per-point timing quantiles
//! (the same `point_secs` stream `--summary` reports): slow points get
//! small leases so an expiry never orphans minutes of work, fast points
//! get big ones so the protocol round-trip amortizes.
//!
//! [`FarmState`] is the pure state machine behind all of this — every
//! time-dependent method takes an explicit `now` in seconds, so tests
//! drive lease expiry with a manual clock instead of sleeps.

use crate::chaos::FaultKind;
use crate::jsonl::parse_row;
use crate::protocol::Msg;
use crate::rows::Row;
use crate::runner::{
    check_row_contract, eval_guarded, Emitter, EvalOutcome, PointCtx, RowSource, SweepOptions,
    SweepReport, DEFAULT_SWEEP_SEED,
};
use crate::spec::{SweepPoint, SweepSpec};
use crate::trace;
use crossbeam::thread;
use eftq_numerics::SeedSequence;
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Default `--lease-secs`: how long a granted batch may stay silent
/// before its points are re-leased. Generous, because disconnects (the
/// common failure) re-lease immediately — expiry only catches hangs.
pub const DEFAULT_LEASE_SECS: f64 = 120.0;

/// Row label of the farm observability snapshot ([`FarmState::stats_row`]),
/// streamed to stderr on a timer and once at shutdown.
pub const FARM_STATS_LABEL: &str = "~farm-stats";

/// Seconds between periodic `~farm-stats` emissions while coordinating.
const STATS_INTERVAL_SECS: f64 = 5.0;

/// A lease never exceeds this many points, however fast they are.
const MAX_LEASE_POINTS: usize = 32;

/// Suggested worker back-off when every pending point is leased out.
const WAIT_RETRY_SECS: f64 = 0.05;

/// An active lease: who holds which selection indices until when.
#[derive(Clone, Debug)]
struct Lease {
    worker: u64,
    pending: Vec<usize>,
    expires_at: f64,
}

/// A granted batch, as handed to a worker.
#[derive(Clone, Debug, PartialEq)]
pub struct LeaseGrant {
    /// Lease id (echoed back in completions).
    pub lease: u64,
    /// Global point ids in the batch.
    pub points: Vec<usize>,
    /// Absolute expiry on the coordinator's clock, in seconds.
    pub expires_at: f64,
}

/// Verdict on an incoming completion.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Completion {
    /// First completion of this point — the caller must emit the row.
    Fresh,
    /// The point was already completed (stale lease, duplicate message,
    /// or the re-lease and the original both finishing) — discard.
    Duplicate,
    /// The point id is not part of this sweep's selection — discard.
    Unknown,
}

/// Verdict on an incoming failure report ([`FarmState::fail`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailVerdict {
    /// The point goes back in the queue for another worker to try.
    Retry,
    /// The point exhausted its failure budget — the caller must emit a
    /// `~sweep-error` row recording `attempts` failed evaluations.
    Quarantine {
        /// Total failed attempts accumulated on the point.
        attempts: u32,
    },
    /// The point already has an accepted completion (or quarantine) —
    /// a stale lease reporting late; discard.
    Duplicate,
    /// The point id is not part of this sweep's selection — discard.
    Unknown,
}

/// The coordinator's pure lease-scheduling state machine.
///
/// Owns the not-yet-completed selection, the active leases and the
/// completion timings; knows nothing of sockets or wall clocks — every
/// time-dependent method takes `now` (seconds on an arbitrary
/// monotonically non-decreasing clock), which is what makes the
/// re-lease races deterministically testable.
///
/// # Examples
///
/// ```
/// use eftq_sweep::farm::{Completion, FarmState};
///
/// let mut farm = FarmState::new(&[10, 11, 12], 60.0);
/// let g = farm.grant(1, 0.0).unwrap();
/// assert_eq!(g.points, vec![10]); // no timings yet: batches start at 1
/// assert_eq!(farm.complete(g.lease, 10, 0.5), Completion::Fresh);
/// assert_eq!(farm.complete(g.lease, 10, 0.5), Completion::Duplicate);
/// assert_eq!(farm.complete(g.lease, 99, 0.5), Completion::Unknown);
/// assert!(!farm.is_done());
/// ```
#[derive(Debug)]
pub struct FarmState {
    /// Global point id per selection index.
    point_ids: Vec<usize>,
    /// Global point id → selection index.
    index_of: HashMap<usize, usize>,
    /// Selection indices awaiting a lease (may transiently hold indices
    /// completed by a stale writer after an expiry requeue; `grant`
    /// skips those).
    queue: VecDeque<usize>,
    leases: BTreeMap<u64, Lease>,
    next_lease: u64,
    done: Vec<bool>,
    remaining: usize,
    /// Wall-clock seconds of accepted completions (batch sizing input).
    secs: Vec<f64>,
    /// Workers that have ever been granted a lease (fair-share input).
    workers: HashSet<u64>,
    lease_secs: f64,
    /// Completions discarded as duplicate/unknown (observability).
    discarded: usize,
    /// Per-point failure history: selection index → (distinct workers
    /// that failed it, total failed attempts).
    fails: HashMap<usize, (HashSet<u64>, u32)>,
    /// Failures tolerated per point before quarantine (`retries + 1`).
    failure_budget: u32,
    /// Failed attempts accepted so far (retried or quarantined).
    failed_attempts: usize,
    /// Points quarantined after exhausting their failure budget.
    quarantined: usize,
    /// Leases granted so far (including re-leases of requeued points).
    leases_issued: usize,
    /// Leases reaped by [`FarmState::expire`].
    leases_expired: usize,
    /// Points returned to the queue by an expiry, a disconnect, or a
    /// failed attempt that stayed under the quarantine budget.
    points_requeued: usize,
    /// Completions accepted first-writer-wins ([`Completion::Fresh`]).
    completions: usize,
    /// Workers that joined the lease pool (a reconnecting worker gets a
    /// fresh id, so rejoins count again — this minus the current worker
    /// count is the churn).
    worker_joins: usize,
    /// Worker connections that dropped and had their leases requeued.
    disconnects: usize,
}

impl FarmState {
    /// A farm over `point_ids` (the global ids of the points still to
    /// compute) with the given lease duration in seconds.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate point id or a non-positive lease duration.
    pub fn new(point_ids: &[usize], lease_secs: f64) -> Self {
        assert!(
            lease_secs > 0.0 && lease_secs.is_finite(),
            "lease duration must be positive"
        );
        let index_of: HashMap<usize, usize> = point_ids
            .iter()
            .enumerate()
            .map(|(i, &pid)| (pid, i))
            .collect();
        assert_eq!(index_of.len(), point_ids.len(), "duplicate point id");
        FarmState {
            point_ids: point_ids.to_vec(),
            index_of,
            queue: (0..point_ids.len()).collect(),
            leases: BTreeMap::new(),
            next_lease: 1,
            done: vec![false; point_ids.len()],
            remaining: point_ids.len(),
            secs: Vec::new(),
            workers: HashSet::new(),
            lease_secs,
            discarded: 0,
            fails: HashMap::new(),
            failure_budget: 1,
            failed_attempts: 0,
            quarantined: 0,
            leases_issued: 0,
            leases_expired: 0,
            points_requeued: 0,
            completions: 0,
            worker_joins: 0,
            disconnects: 0,
        }
    }

    /// Sets the per-point failure budget from a `--retries` count: a
    /// point survives `retries` failures before the next one (see
    /// [`FarmState::fail`] for the exact rule) quarantines it. The
    /// default is `retries = 0`: quarantine on the first failure, which
    /// keeps the quarantine attempt count — and so the `~sweep-error`
    /// row bytes — identical to a local run's.
    #[must_use]
    pub fn with_retries(mut self, retries: u32) -> Self {
        self.failure_budget = retries.saturating_add(1);
        self
    }

    /// Whether every selected point has an accepted completion.
    pub fn is_done(&self) -> bool {
        self.remaining == 0
    }

    /// Points without an accepted completion (leased ones included).
    pub fn remaining(&self) -> usize {
        self.remaining
    }

    /// Completions discarded as duplicate or unknown so far.
    pub fn discarded(&self) -> usize {
        self.discarded
    }

    /// Points quarantined after exhausting their failure budget.
    pub fn quarantined(&self) -> usize {
        self.quarantined
    }

    /// Failed attempts accepted so far (each either requeued its point
    /// or quarantined it).
    pub fn failed_attempts(&self) -> usize {
        self.failed_attempts
    }

    /// Records a *failed* evaluation of global point `point` reported
    /// by `worker` under `lease` (a caught panic or deadline overrun).
    /// Mirrors [`FarmState::complete`]'s first-writer-wins keying on the
    /// point: failures for already-resolved points are discarded.
    ///
    /// Quarantine fires when **distinct workers** reach the failure
    /// budget (`retries + 1`) — a deterministic fault fails everywhere,
    /// so spreading attempts across machines is the farm's retry — or,
    /// as a backstop against a single worker repeatedly failing the
    /// same point it keeps re-leasing, when *total* failures reach twice
    /// the budget. Otherwise the point requeues for another attempt.
    pub fn fail(&mut self, lease: u64, point: usize, worker: u64, now: f64) -> FailVerdict {
        // Like `complete`: the lease id and clock are informational.
        let _ = (lease, now);
        let Some(&index) = self.index_of.get(&point) else {
            self.discarded += 1;
            return FailVerdict::Unknown;
        };
        if self.done[index] {
            self.discarded += 1;
            return FailVerdict::Duplicate;
        }
        self.failed_attempts += 1;
        let entry = self.fails.entry(index).or_default();
        entry.0.insert(worker);
        entry.1 += 1;
        let (distinct, total) = (entry.0.len() as u32, entry.1);
        // Drop the point from whichever lease carries it, reaping
        // emptied leases (same bookkeeping as an accepted completion).
        self.leases.retain(|_, l| {
            l.pending.retain(|&i| i != index);
            !l.pending.is_empty()
        });
        if distinct >= self.failure_budget || total >= 2 * self.failure_budget {
            self.done[index] = true;
            self.remaining -= 1;
            self.quarantined += 1;
            FailVerdict::Quarantine { attempts: total }
        } else {
            self.queue.push_back(index);
            self.points_requeued += 1;
            FailVerdict::Retry
        }
    }

    /// Suggested back-off for a worker told to wait (everything pending
    /// is leased out): half the observed median point time, so the
    /// worker re-requests roughly when a point frees up, bounded away
    /// from both busy-polling and minutes of idleness.
    pub fn suggested_wait(&self) -> f64 {
        if self.secs.is_empty() {
            return WAIT_RETRY_SECS;
        }
        let mut sorted = self.secs.clone();
        sorted.sort_by(f64::total_cmp);
        let p50 = sorted[sorted.len() / 2];
        (p50 / 2.0).clamp(WAIT_RETRY_SECS, 5.0)
    }

    /// The next lease's batch size: `target / p50` of the observed
    /// per-point seconds (slow points → small leases, so an expiry
    /// orphans little work), where `target` keeps a batch well under the
    /// lease duration; capped at `MAX_LEASE_POINTS` and at a fair
    /// share of the queue so one fast worker cannot starve the rest.
    /// With no timings yet (sweep start), batches are 1 — the first
    /// completions calibrate the scheduler.
    pub fn batch_size(&self) -> usize {
        if self.secs.is_empty() {
            return 1;
        }
        let mut sorted = self.secs.clone();
        sorted.sort_by(f64::total_cmp);
        let p50 = sorted[sorted.len() / 2].max(1e-9);
        let target = self.lease_secs / 8.0;
        let by_time = ((target / p50) as usize).clamp(1, MAX_LEASE_POINTS);
        let fair = self
            .queue
            .len()
            .div_ceil(2 * self.workers.len().max(1))
            .max(1);
        by_time.min(fair)
    }

    /// Leases the next batch to `worker`, or `None` when nothing is
    /// grantable (queue empty: the sweep is done, or every pending point
    /// is leased elsewhere — callers distinguish via [`Self::is_done`]).
    pub fn grant(&mut self, worker: u64, now: f64) -> Option<LeaseGrant> {
        if self.workers.insert(worker) {
            self.worker_joins += 1;
        }
        let want = self.batch_size();
        let mut indices = Vec::new();
        while indices.len() < want {
            match self.queue.pop_front() {
                // Skip entries completed by a stale writer while queued.
                Some(i) if !self.done[i] => indices.push(i),
                Some(_) => continue,
                None => break,
            }
        }
        if indices.is_empty() {
            return None;
        }
        let lease = self.next_lease;
        self.next_lease += 1;
        self.leases_issued += 1;
        let expires_at = now + self.lease_secs;
        let points: Vec<usize> = indices.iter().map(|&i| self.point_ids[i]).collect();
        self.leases.insert(
            lease,
            Lease {
                worker,
                pending: indices,
                expires_at,
            },
        );
        Some(LeaseGrant {
            lease,
            points,
            expires_at,
        })
    }

    /// Records a completion of global point `point` reported under
    /// `lease`. Acceptance is **first-writer-wins on the point**: a
    /// completion under an expired or re-issued lease is still accepted
    /// if the point has no accepted completion yet, and everything else
    /// is a discarded [`Completion::Duplicate`] — so the
    /// expiry/re-lease race can never lose or double-emit a row.
    pub fn complete(&mut self, lease: u64, point: usize, secs: f64) -> Completion {
        // The lease id is informational (observability, batch
        // attribution); it deliberately does not gate acceptance.
        let _ = lease;
        let Some(&index) = self.index_of.get(&point) else {
            self.discarded += 1;
            return Completion::Unknown;
        };
        if self.done[index] {
            self.discarded += 1;
            return Completion::Duplicate;
        }
        self.done[index] = true;
        self.remaining -= 1;
        self.completions += 1;
        self.secs.push(secs);
        // Drop the point from whichever lease currently carries it (the
        // reporting lease, or its re-issue), reaping emptied leases.
        self.leases.retain(|_, l| {
            l.pending.retain(|&i| i != index);
            !l.pending.is_empty()
        });
        Completion::Fresh
    }

    /// Requeues the unfinished points of every lease whose expiry is at
    /// or before `now`; returns how many points were requeued.
    pub fn expire(&mut self, now: f64) -> usize {
        let expired: Vec<u64> = self
            .leases
            .iter()
            .filter(|(_, l)| l.expires_at <= now)
            .map(|(&id, _)| id)
            .collect();
        let mut requeued = 0;
        for id in expired {
            let lease = self.leases.remove(&id).expect("expired lease exists");
            self.leases_expired += 1;
            for index in lease.pending {
                if !self.done[index] {
                    self.queue.push_back(index);
                    requeued += 1;
                }
            }
        }
        self.points_requeued += requeued;
        requeued
    }

    /// Requeues every lease held by `worker` (its connection dropped);
    /// returns how many points were requeued.
    pub fn disconnect(&mut self, worker: u64) -> usize {
        if self.workers.remove(&worker) {
            self.disconnects += 1;
        }
        let held: Vec<u64> = self
            .leases
            .iter()
            .filter(|(_, l)| l.worker == worker)
            .map(|(&id, _)| id)
            .collect();
        let mut requeued = 0;
        for id in held {
            let lease = self.leases.remove(&id).expect("held lease exists");
            for index in lease.pending {
                if !self.done[index] {
                    self.queue.push_back(index);
                    requeued += 1;
                }
            }
        }
        self.points_requeued += requeued;
        requeued
    }

    /// A point-in-time `~farm-stats` snapshot of the lease machine's
    /// counters, as one JSONL row (the farm's observability surface —
    /// streamed to stderr on a timer and once at shutdown, and printed
    /// by workers with `role: "worker"` fields at exit). Every count is
    /// monotone over the run except `workers` and `points_remaining`.
    pub fn stats_row(&self, spec_name: &str, elapsed_s: f64) -> Row {
        Row::new(FARM_STATS_LABEL)
            .str("spec", spec_name)
            .str("role", "coordinator")
            .num("elapsed_s", elapsed_s)
            .int("workers", self.workers.len() as i64)
            .int("worker_joins", self.worker_joins as i64)
            .int("disconnects", self.disconnects as i64)
            .int("leases_issued", self.leases_issued as i64)
            .int("leases_expired", self.leases_expired as i64)
            .int("points_requeued", self.points_requeued as i64)
            .int("points_remaining", self.remaining as i64)
            .int("completions_accepted", self.completions as i64)
            .int("completions_discarded", self.discarded as i64)
            .int("failed_attempts", self.failed_attempts as i64)
            .int("points_quarantined", self.quarantined as i64)
    }
}

/// Outcome of one timeout-tolerant line read.
enum LineRead {
    /// A complete line is in the buffer.
    Line,
    /// The peer closed the connection (possibly mid-line).
    Closed,
    /// Read timeout: nothing (or only a partial line) arrived; any
    /// partial content stays in the buffer for the next attempt.
    TimedOut,
}

/// Appends to `buf` until it holds a full `\n`-terminated line, the
/// connection closes, or the stream's read timeout fires.
fn read_line_step(reader: &mut BufReader<TcpStream>, buf: &mut String) -> LineRead {
    match reader.read_line(buf) {
        Ok(0) => LineRead::Closed,
        Ok(_) if buf.ends_with('\n') => LineRead::Line,
        // read_line returned without a newline: EOF after partial data.
        Ok(_) => LineRead::Closed,
        Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
            LineRead::TimedOut
        }
        Err(_) => LineRead::Closed,
    }
}

fn send_msg<W: Write>(writer: &mut W, msg: &Msg) -> std::io::Result<()> {
    writer.write_all(msg.encode().as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()
}

/// Failure tallies of a completed farm run, folded into the
/// [`SweepReport`] by the caller.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct FarmStats {
    /// Failed evaluation attempts accepted by the coordinator.
    pub failed: usize,
    /// Failed attempts that requeued their point for another worker.
    pub retried: usize,
    /// Points quarantined as `~sweep-error` rows.
    pub quarantined: usize,
}

/// Runs the coordinator side of a farm sweep: binds `addr`, spawns
/// `opts.threads` in-process workers plus one connection handler per
/// remote worker, and returns once every point in `todo` has an
/// accepted row in the emitter.
///
/// `points` is the full selection, `todo` the indices still to compute;
/// accepted rows are pushed into `emitter` as [`RowSource::Computed`]
/// exactly once per point, in whatever order they finish (the emitter
/// restores point order). A point whose evaluations keep failing (see
/// [`FarmState::fail`]) quarantines as a `~sweep-error` row instead of
/// wedging the sweep.
pub(crate) fn coordinate<F>(
    spec: &SweepSpec,
    opts: &SweepOptions,
    addr: &str,
    points: &[SweepPoint],
    todo: &[usize],
    emitter: &Mutex<Emitter>,
    eval: &F,
) -> Result<FarmStats, String>
where
    F: Fn(&SweepPoint, &PointCtx) -> Row + Sync,
{
    if todo.is_empty() {
        return Ok(FarmStats::default()); // everything resumed/merged
    }
    let listener =
        TcpListener::bind(addr).map_err(|e| format!("--farm {addr}: cannot bind listener: {e}"))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("--farm {addr}: {e}"))?;
    let bound = listener
        .local_addr()
        .map_err(|e| format!("--farm {addr}: {e}"))?;
    if opts.progress {
        eprintln!(
            "[{}] farm: coordinating {} points on {bound} ({} local worker thread{})",
            spec.name(),
            todo.len(),
            opts.threads,
            if opts.threads == 1 { "" } else { "s" },
        );
    }

    let slot_of: HashMap<usize, usize> = todo.iter().map(|&slot| (points[slot].id, slot)).collect();
    let pids: Vec<usize> = todo.iter().map(|&slot| points[slot].id).collect();
    let state = Mutex::new(FarmState::new(&pids, opts.lease_secs).with_retries(opts.retries));
    let root = SeedSequence::new(DEFAULT_SWEEP_SEED).derive(spec.name());
    // Same chaos derivation node as a local run and as the workers, so
    // a planted fault plan fires identically under every topology.
    let chaos = root.derive("~chaos");
    // Evaluation attempts per point *in this process* (the chaos
    // harness's attempt counter for the in-process workers).
    let local_attempts: Mutex<HashMap<usize, u32>> = Mutex::new(HashMap::new());
    let started = Instant::now();
    let now = || started.elapsed().as_secs_f64();
    let next_worker = AtomicU64::new(1);

    // Accepts a completion: validates the row against its grid point
    // (the same contract local evaluation enforces — a malformed remote
    // row must never reach the artifact), then first-writer-wins.
    let accept = |lease: u64, pid: usize, attempt: u32, secs: f64, row: Row| {
        let Some(&slot) = slot_of.get(&pid) else {
            state.lock().expect("farm state poisoned").discarded += 1;
            return;
        };
        let point = &points[slot];
        if row.label() != spec.name() || !crate::runner::row_covers_point(&row, point) {
            state.lock().expect("farm state poisoned").discarded += 1;
            return;
        }
        let verdict = state
            .lock()
            .expect("farm state poisoned")
            .complete(lease, pid, secs);
        // Emit outside the state lock: the artifact flush must not
        // stall lease traffic.
        if verdict == Completion::Fresh {
            // Only the accepted completion generates trace spans, so a
            // re-lease race never duplicates a span id.
            let spans = if opts.trace.is_some() {
                vec![
                    trace::point_span(spec.name(), point, "ok", attempt)
                        .duration_ns(trace::secs_to_ns(secs)),
                    trace::eval_span(pid, attempt, "ok", None, secs),
                ]
            } else {
                Vec::new()
            };
            emitter.lock().expect("sweep emitter poisoned").push(
                slot,
                row,
                RowSource::Computed,
                secs,
                spans,
            );
        }
    };

    // Records a failed attempt; on quarantine, emits the point's
    // `~sweep-error` row (first-writer-wins like `accept`).
    let fail_point = |lease: u64, pid: usize, worker: u64, cause: &str, message: &str| {
        let Some(&slot) = slot_of.get(&pid) else {
            state.lock().expect("farm state poisoned").discarded += 1;
            return;
        };
        let verdict = state
            .lock()
            .expect("farm state poisoned")
            .fail(lease, pid, worker, now());
        if let FailVerdict::Quarantine { attempts } = verdict {
            if opts.progress {
                eprintln!(
                    "[{}] farm: point {pid} quarantined after {attempts} failed attempt(s): \
                     {cause}: {message}",
                    spec.name()
                );
            }
            let row = points[slot].error_row(spec.name(), cause, message, attempts);
            let spans = if opts.trace.is_some() {
                vec![
                    trace::point_span(spec.name(), &points[slot], "quarantined", attempts),
                    trace::eval_span(pid, attempts, cause, Some((cause, message)), 0.0),
                ]
            } else {
                Vec::new()
            };
            emitter.lock().expect("sweep emitter poisoned").push(
                slot,
                row,
                RowSource::Computed,
                0.0,
                spans,
            );
        }
    };

    // One remote worker connection: hello/welcome handshake, then a
    // request/grant/done loop until the sweep finishes or the worker
    // disconnects (which requeues its leases).
    let handle_conn = |stream: TcpStream, worker_id: u64| {
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
        let Ok(read_half) = stream.try_clone() else {
            return;
        };
        let mut reader = BufReader::new(read_half);
        let mut writer = stream;
        let mut buf = String::new();
        let mut registered = false;
        loop {
            match read_line_step(&mut reader, &mut buf) {
                LineRead::TimedOut => {
                    // Idle poll: once the sweep is done, push a Fin so a
                    // worker blocked between leases learns to leave.
                    if state.lock().expect("farm state poisoned").is_done() {
                        let _ = send_msg(&mut writer, &Msg::Fin);
                        return;
                    }
                    continue;
                }
                LineRead::Closed => {
                    state
                        .lock()
                        .expect("farm state poisoned")
                        .disconnect(worker_id);
                    return;
                }
                LineRead::Line => {}
            }
            let line = std::mem::take(&mut buf);
            let line = line.trim_end();
            if line.is_empty() {
                continue;
            }
            // A malformed wire line (torn by a dying worker, or noise)
            // is dropped; the protocol is request-driven, so the worker
            // re-requests and no state is lost.
            let Ok(msg) = Msg::decode(line) else {
                continue;
            };
            if !registered {
                let Msg::Hello {
                    spec: wire_spec,
                    config,
                    worker,
                } = &msg
                else {
                    let _ = send_msg(
                        &mut writer,
                        &Msg::Reject {
                            reason: "expected ~farm-hello first".into(),
                        },
                    );
                    return;
                };
                if wire_spec != spec.name() || config.as_deref() != spec.config() {
                    let _ = send_msg(
                        &mut writer,
                        &Msg::Reject {
                            reason: format!(
                                "sweep mismatch: coordinator runs {} ({}), worker offers {} ({})",
                                spec.name(),
                                spec.config().unwrap_or("no config"),
                                wire_spec,
                                config.as_deref().unwrap_or("no config"),
                            ),
                        },
                    );
                    return;
                }
                if opts.progress {
                    eprintln!("[{}] farm: worker '{worker}' joined", spec.name());
                }
                registered = true;
                if send_msg(
                    &mut writer,
                    &Msg::Welcome {
                        seed: DEFAULT_SWEEP_SEED,
                        points: pids.len(),
                    },
                )
                .is_err()
                {
                    return;
                }
                continue;
            }
            let reply = match msg {
                Msg::Request => {
                    let mut st = state.lock().expect("farm state poisoned");
                    st.expire(now());
                    if st.is_done() {
                        Some(Msg::Fin)
                    } else {
                        match st.grant(worker_id, now()) {
                            Some(g) => Some(Msg::Grant {
                                lease: g.lease,
                                points: g.points,
                                expires_s: opts.lease_secs,
                            }),
                            None => Some(Msg::Wait {
                                retry_s: st.suggested_wait(),
                            }),
                        }
                    }
                }
                Msg::Done {
                    lease,
                    point,
                    attempt,
                    secs,
                    data,
                } => {
                    // An unparsable payload is discarded like a torn
                    // artifact line; the point stays pending and is
                    // re-leased on expiry or disconnect.
                    if let Ok(row) = parse_row(&data) {
                        accept(lease, point, attempt, secs, row);
                    } else {
                        state.lock().expect("farm state poisoned").discarded += 1;
                    }
                    None
                }
                Msg::Failed {
                    lease,
                    point,
                    cause,
                    message,
                    ..
                } => {
                    // A worker caught a panic/timeout and reported it
                    // instead of dying: retry or quarantine the point.
                    fail_point(lease, point, worker_id, &cause, &message);
                    None
                }
                // Coordinator-bound connections only carry the three
                // messages above; anything else is ignored.
                _ => None,
            };
            if let Some(reply) = reply {
                if send_msg(&mut writer, &reply).is_err() {
                    state
                        .lock()
                        .expect("farm state poisoned")
                        .disconnect(worker_id);
                    return;
                }
            }
        }
    };

    thread::scope(|scope| {
        // In-process workers: same lease queue, no sockets.
        for _ in 0..opts.threads {
            scope.spawn(|_| {
                let worker_id = next_worker.fetch_add(1, Ordering::Relaxed);
                loop {
                    let granted = {
                        let mut st = state.lock().expect("farm state poisoned");
                        st.expire(now());
                        if st.is_done() {
                            break;
                        }
                        st.grant(worker_id, now())
                    };
                    let Some(g) = granted else {
                        // Everything pending is leased out (to remote
                        // workers); wait for completions or expiries.
                        std::thread::sleep(Duration::from_millis(5));
                        continue;
                    };
                    for pid in g.points {
                        let point = &points[slot_of[&pid]];
                        let attempt = {
                            let mut map = local_attempts.lock().expect("farm attempts poisoned");
                            let n = map.entry(pid).or_insert(0);
                            *n += 1;
                            *n
                        };
                        // Disconnect faults target a worker's TCP link;
                        // the in-process workers have none to sever.
                        let fault = opts.fault_plan.as_ref().and_then(|plan| {
                            plan.fault_for(&chaos, pid, attempt)
                                .filter(|f| *f != FaultKind::Disconnect)
                        });
                        let ctx = PointCtx {
                            seed: root.derive_index(point.id as u64),
                            attempt,
                            fault,
                        };
                        match eval_guarded(eval, point, &ctx, opts.point_timeout_secs) {
                            EvalOutcome::Ok { row, secs } => {
                                check_row_contract(spec, point, &row);
                                accept(g.lease, pid, attempt, secs, row);
                            }
                            EvalOutcome::Failed { cause, message, .. } => {
                                fail_point(g.lease, pid, worker_id, cause, &message);
                            }
                        }
                    }
                }
            });
        }
        // Acceptor: non-blocking so it can stop once the sweep is done.
        // It doubles as the observability heartbeat: a `~farm-stats`
        // snapshot streams to stderr every few seconds while the farm
        // is live (suppressed with the rest of the progress output).
        scope.spawn(|scope| {
            let mut last_stats = now();
            loop {
                if state.lock().expect("farm state poisoned").is_done() {
                    break;
                }
                if opts.progress && now() - last_stats >= STATS_INTERVAL_SECS {
                    last_stats = now();
                    let row = state
                        .lock()
                        .expect("farm state poisoned")
                        .stats_row(spec.name(), last_stats);
                    eprintln!("{}", row.to_json_row());
                }
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        let worker_id = next_worker.fetch_add(1, Ordering::Relaxed);
                        let handler = &handle_conn;
                        scope.spawn(move |_| handler(stream, worker_id));
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(10));
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(10)),
                }
            }
        });
    })
    .map_err(|_| format!("[{}] farm worker or handler panicked", spec.name()))?;

    let st = state.into_inner().expect("farm state poisoned");
    // Final `~farm-stats` snapshot: the authoritative end-of-run
    // counters, printed even without --progress so every farm run
    // leaves one machine-readable observability line on stderr.
    eprintln!("{}", st.stats_row(spec.name(), now()).to_json_row());
    if opts.progress && st.discarded() > 0 {
        eprintln!(
            "[{}] farm: {} duplicate/stale completions discarded (first writer won)",
            spec.name(),
            st.discarded()
        );
    }
    let failed = st.failed_attempts();
    let quarantined = st.quarantined();
    Ok(FarmStats {
        failed,
        retried: failed - quarantined,
        quarantined,
    })
}

/// Connects to `addr`, retrying for up to `patience` (workers routinely
/// start before their coordinator has bound its listener).
fn connect_with_retry(addr: &str, patience: Duration) -> Result<TcpStream, String> {
    let started = Instant::now();
    loop {
        match TcpStream::connect(addr) {
            Ok(stream) => return Ok(stream),
            Err(e) if started.elapsed() < patience => {
                let _ = e;
                std::thread::sleep(Duration::from_millis(100));
            }
            Err(e) => {
                return Err(format!(
                    "--worker {addr}: cannot reach coordinator after {:.0?}: {e}",
                    patience
                ))
            }
        }
    }
}

/// Reads one protocol message (blocking; the socket has no read
/// timeout on the worker side — replies are immediate by protocol).
fn recv_msg(reader: &mut BufReader<TcpStream>) -> Result<Msg, String> {
    let mut buf = String::new();
    loop {
        match reader.read_line(&mut buf) {
            Ok(0) => return Err("coordinator closed the connection".into()),
            Ok(_) if buf.ends_with('\n') => {
                let line = buf.trim_end();
                if line.is_empty() {
                    buf.clear();
                    continue;
                }
                return Msg::decode(line);
            }
            Ok(_) => return Err("coordinator closed the connection mid-line".into()),
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(format!("coordinator read failed: {e}")),
        }
    }
}

/// Base delay (seconds) before reconnect attempt `attempt` (0-based):
/// exponential from 100 ms, capped at 2 s. Callers add jitter on top so
/// a fleet of workers orphaned together does not reconnect in lockstep.
fn backoff_base(attempt: u32) -> f64 {
    (0.1 * f64::powi(2.0, attempt.min(16) as i32)).min(2.0)
}

/// Exit status of a worker whose `--max-reconnect-secs` budget ran out:
/// the coordinator kept accepting connections but never completed a
/// session, so the worker is orphaned rather than released. Distinct
/// from 0 (released/clean), 1 (quarantined points) and 2 (usage/IO).
pub const WORKER_ORPHANED_EXIT: i32 = 3;

/// Error-message prefix [`run_worker`] uses for the give-up path, so
/// `run_sweep_or_exit` can map it to [`WORKER_ORPHANED_EXIT`].
pub(crate) const ORPHANED_PREFIX: &str = "worker orphaned: ";

/// Runs the worker side of a farm sweep (`--worker <addr>`): joins the
/// coordinator at `addr`, evaluates leased points (with `opts.threads`
/// threads inside each lease) until the coordinator sends the finish
/// message, and returns a report over the rows *this worker* computed
/// (in point-id order; `failed` counts this worker's failed attempts,
/// while retry/quarantine decisions live on the coordinator).
///
/// The worker writes no artifact — accepted rows live in the
/// coordinator's checkpoint. A lost connection (idle *or* mid-lease)
/// reconnects with jittered exponential backoff and re-joins; the
/// coordinator re-leases anything the break orphaned. A coordinator
/// that stays unreachable after a successful join means the sweep
/// finished — the worker exits cleanly rather than erroring.
pub(crate) fn run_worker<F>(
    spec: &SweepSpec,
    opts: &SweepOptions,
    addr: &str,
    eval: &F,
) -> Result<SweepReport, String>
where
    F: Fn(&SweepPoint, &PointCtx) -> Row + Sync,
{
    let started = Instant::now();
    let worker_name = format!("worker-{}", std::process::id());
    // De-synchronization jitter for reconnect delays and wait sleeps.
    // Never touches artifact bytes, so a process-local stream is fine
    // (the vendored rand is test-only; this reuses the chaos PRNG).
    let jitter_counter = AtomicU64::new(0);
    let jitter = || {
        let n = jitter_counter.fetch_add(1, Ordering::Relaxed);
        crate::chaos::unit_interval(
            SeedSequence::new(u64::from(std::process::id()))
                .derive("~worker-jitter")
                .derive_index(n)
                .seed(),
        )
    };

    // Evaluation attempts per point *on this worker*, persisted across
    // reconnects so a capped chaos fault (`disconnect@5x1`) does not
    // re-fire after the connection bounces.
    let attempts: Mutex<HashMap<usize, u32>> = Mutex::new(HashMap::new());
    let rows: Mutex<Vec<(usize, f64, Row)>> = Mutex::new(Vec::new());
    let failed_attempts = AtomicUsize::new(0);
    let mut joined = false;
    let mut reconnects = 0u32;
    // Armed on the first reconnect attempt, cleared by a completed
    // handshake: how long this worker has been without a session.
    let mut orphaned_since: Option<Instant> = None;

    'sessions: loop {
        // A first connection waits out a coordinator that has not bound
        // its listener yet; a *re*connection gets a short patience — the
        // likeliest reason the link died is that the sweep finished.
        if joined {
            if let Some(budget) = opts.max_reconnect_secs {
                let since = *orphaned_since.get_or_insert_with(Instant::now);
                if since.elapsed().as_secs_f64() > budget {
                    return Err(format!(
                        "{ORPHANED_PREFIX}no completed session with {addr} for \
                         {:.1}s (--max-reconnect-secs {budget}) — giving up \
                         instead of reconnecting forever",
                        since.elapsed().as_secs_f64(),
                    ));
                }
            }
            let delay = backoff_base(reconnects) * (1.0 + jitter());
            std::thread::sleep(Duration::from_secs_f64(delay));
            reconnects += 1;
        }
        let patience = Duration::from_secs(if joined { 3 } else { 10 });
        let stream = match connect_with_retry(addr, patience) {
            Ok(s) => s,
            Err(e) if !joined => return Err(e),
            // Joined once, now unreachable: the coordinator exits the
            // moment its grid completes, so this is the normal end of a
            // farm for a worker that missed its Fin.
            Err(_) => break 'sessions,
        };
        let _ = stream.set_nodelay(true);
        let read_half = match stream.try_clone() {
            Ok(h) => h,
            Err(e) if !joined => return Err(format!("--worker {addr}: {e}")),
            Err(_) => continue 'sessions,
        };
        let mut reader = BufReader::new(read_half);
        let writer = Mutex::new(stream);
        let send = |msg: &Msg| -> Result<(), String> {
            send_msg(&mut *writer.lock().expect("worker writer poisoned"), msg)
                .map_err(|e| format!("coordinator write failed: {e}"))
        };

        let hello = Msg::Hello {
            spec: spec.name().to_string(),
            config: spec.config().map(str::to_string),
            worker: worker_name.clone(),
        };
        let seed = match send(&hello).and_then(|()| recv_msg(&mut reader)) {
            Ok(Msg::Welcome { seed, points }) => {
                if opts.progress && !joined {
                    eprintln!(
                        "[{}] worker: joined farm at {addr} ({points} points in the sweep)",
                        spec.name()
                    );
                }
                seed
            }
            // A rejection is a configuration error, never retried.
            Ok(Msg::Reject { reason }) => {
                return Err(format!("farm rejected this worker: {reason}"))
            }
            Ok(other) => return Err(format!("unexpected farm reply to hello: {other:?}")),
            Err(e) if !joined => return Err(e),
            Err(_) => continue 'sessions, // handshake raced the shutdown
        };
        joined = true;
        orphaned_since = None;
        // The coordinator's seed, not ours: every worker derives the
        // exact per-point streams of a single-process run.
        let root = SeedSequence::new(seed).derive(spec.name());
        let chaos = root.derive("~chaos");

        // One request/grant session: ends with Fin (sweep done) or a
        // lost connection (reconnect and re-join above).
        loop {
            if send(&Msg::Request).is_err() {
                continue 'sessions;
            }
            let reply = match recv_msg(&mut reader) {
                Ok(msg) => msg,
                Err(_) => continue 'sessions,
            };
            match reply {
                Msg::Grant { lease, points, .. } => {
                    let cursor = AtomicUsize::new(0);
                    let lease_lost = AtomicBool::new(false);
                    let eval_one = || loop {
                        if lease_lost.load(Ordering::Relaxed) {
                            return;
                        }
                        let k = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(&pid) = points.get(k) else { return };
                        let point = spec.point(pid);
                        let attempt = {
                            let mut map = attempts.lock().expect("worker attempts poisoned");
                            let n = map.entry(pid).or_insert(0);
                            *n += 1;
                            *n
                        };
                        let fault = opts
                            .fault_plan
                            .as_ref()
                            .and_then(|plan| plan.fault_for(&chaos, pid, attempt));
                        if fault == Some(FaultKind::Disconnect) {
                            // Sever the coordinator link mid-lease: the
                            // unfinished points re-lease to other
                            // workers while this one reconnects.
                            let _ = writer
                                .lock()
                                .expect("worker writer poisoned")
                                .shutdown(Shutdown::Both);
                            lease_lost.store(true, Ordering::Relaxed);
                            return;
                        }
                        let ctx = PointCtx {
                            seed: root.derive_index(pid as u64),
                            attempt,
                            fault,
                        };
                        match eval_guarded(eval, &point, &ctx, opts.point_timeout_secs) {
                            EvalOutcome::Ok { row, secs } => {
                                check_row_contract(spec, &point, &row);
                                let msg = Msg::Done {
                                    lease,
                                    point: pid,
                                    attempt,
                                    secs,
                                    data: row.to_json_row(),
                                };
                                // On a mid-lease send failure the row is
                                // *not* recorded: it never reached the
                                // coordinator, which will re-lease it.
                                if send(&msg).is_err() {
                                    lease_lost.store(true, Ordering::Relaxed);
                                    return;
                                }
                                rows.lock()
                                    .expect("worker rows poisoned")
                                    .push((pid, secs, row));
                            }
                            EvalOutcome::Failed {
                                cause,
                                message,
                                secs,
                            } => {
                                // Report the caught panic/timeout
                                // instead of dying with the lease.
                                failed_attempts.fetch_add(1, Ordering::Relaxed);
                                let msg = Msg::Failed {
                                    lease,
                                    point: pid,
                                    attempt,
                                    secs,
                                    cause: cause.to_string(),
                                    message,
                                };
                                if send(&msg).is_err() {
                                    lease_lost.store(true, Ordering::Relaxed);
                                    return;
                                }
                            }
                        }
                    };
                    let threads = opts.threads.clamp(1, points.len());
                    if threads <= 1 {
                        eval_one();
                    } else {
                        thread::scope(|scope| {
                            for _ in 0..threads {
                                scope.spawn(|_| eval_one());
                            }
                        })
                        .map_err(|_| "worker evaluation thread panicked".to_string())?;
                    }
                    if lease_lost.load(Ordering::Relaxed) {
                        continue 'sessions;
                    }
                }
                Msg::Wait { retry_s } => {
                    // Honor the coordinator's suggestion (sized from its
                    // observed point timings), de-synchronized with
                    // jitter so waiting workers don't re-request in
                    // lockstep.
                    let secs = (retry_s * (1.0 + 0.5 * jitter())).clamp(0.01, 60.0);
                    std::thread::sleep(Duration::from_secs_f64(secs));
                }
                Msg::Fin => break 'sessions,
                other => return Err(format!("unexpected farm message: {other:?}")),
            }
        }
    }

    let mut rows = rows.into_inner().expect("worker rows poisoned");
    rows.sort_by_key(|(pid, _, _)| *pid);
    // A lease expired and re-issued to this same worker can complete a
    // point twice; the coordinator deduplicates, and so does the local
    // report.
    rows.dedup_by_key(|(pid, _, _)| *pid);
    let point_secs: Vec<f64> = rows.iter().map(|(_, s, _)| *s).collect();
    let computed = rows.len();
    let failed = failed_attempts.into_inner();
    if opts.progress {
        eprintln!(
            "[{}] worker: done, {computed} points evaluated",
            spec.name()
        );
    }
    // The worker's side of the `~farm-stats` surface: evaluations,
    // failures and reconnects as seen from this process (the
    // coordinator only sees joins, never why a worker rejoined).
    eprintln!(
        "{}",
        Row::new(FARM_STATS_LABEL)
            .str("spec", spec.name())
            .str("role", "worker")
            .str("worker", &worker_name)
            .num("elapsed_s", started.elapsed().as_secs_f64())
            .int("points_computed", computed as i64)
            .int("failed_attempts", failed as i64)
            .int("reconnects", i64::from(reconnects))
            .to_json_row()
    );
    Ok(SweepReport {
        rows: rows.into_iter().map(|(_, _, row)| row).collect(),
        computed,
        resumed: 0,
        merged: 0,
        unmatched_lines: 0,
        malformed_lines: 0,
        point_secs,
        elapsed_secs: started.elapsed().as_secs_f64(),
        failed,
        retried: 0,
        quarantined: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_row_tracks_the_lease_machine_counters() {
        let mut farm = FarmState::new(&[0, 1, 2], 10.0).with_retries(0);
        let g1 = farm.grant(1, 0.0).unwrap();
        assert_eq!(
            farm.complete(g1.lease, g1.points[0], 0.5),
            Completion::Fresh
        );
        assert_eq!(
            farm.complete(g1.lease, g1.points[0], 0.5),
            Completion::Duplicate
        );
        let g2 = farm.grant(2, 1.0).unwrap();
        assert_eq!(farm.expire(100.0), 1, "g2 outlived its lease");
        let g3 = farm.grant(2, 101.0).unwrap();
        assert!(matches!(
            farm.fail(g3.lease, g3.points[0], 2, 101.5),
            FailVerdict::Quarantine { .. }
        ));
        farm.disconnect(1);
        let _ = g2;

        let row = farm.stats_row("toy", 12.5);
        assert_eq!(row.label(), FARM_STATS_LABEL);
        assert_eq!(row.get_str("role"), Some("coordinator"));
        assert_eq!(row.get_num("elapsed_s"), Some(12.5));
        assert_eq!(row.get_int("workers"), Some(1), "worker 1 disconnected");
        assert_eq!(row.get_int("worker_joins"), Some(2));
        assert_eq!(row.get_int("disconnects"), Some(1));
        assert_eq!(row.get_int("leases_issued"), Some(3));
        assert_eq!(row.get_int("leases_expired"), Some(1));
        assert_eq!(row.get_int("points_requeued"), Some(1));
        assert_eq!(row.get_int("points_remaining"), Some(1));
        assert_eq!(row.get_int("completions_accepted"), Some(1));
        assert_eq!(row.get_int("completions_discarded"), Some(1));
        assert_eq!(row.get_int("failed_attempts"), Some(1));
        assert_eq!(row.get_int("points_quarantined"), Some(1));
        // The snapshot is a plain artifact row: it parses back with the
        // same JSONL parser every other `~` row uses.
        let back = crate::jsonl::parse_row(&row.to_json_row()).unwrap();
        assert_eq!(back.label(), FARM_STATS_LABEL);
    }

    #[test]
    fn grants_partition_the_selection() {
        let mut farm = FarmState::new(&[4, 5, 6, 7], 60.0);
        let mut seen = Vec::new();
        while let Some(g) = farm.grant(1, 0.0) {
            seen.extend(g.points.iter().copied());
            for &pid in &g.points {
                assert_eq!(farm.complete(g.lease, pid, 0.1), Completion::Fresh);
            }
        }
        seen.sort_unstable();
        assert_eq!(seen, vec![4, 5, 6, 7]);
        assert!(farm.is_done());
        assert_eq!(farm.remaining(), 0);
        assert_eq!(farm.discarded(), 0);
    }

    #[test]
    fn batches_start_at_one_and_grow_with_fast_points() {
        let pids: Vec<usize> = (0..500).collect();
        let mut farm = FarmState::new(&pids, 120.0);
        // No timings yet: calibration batch of 1.
        assert_eq!(farm.batch_size(), 1);
        let g = farm.grant(1, 0.0).unwrap();
        assert_eq!(g.points.len(), 1);
        farm.complete(g.lease, g.points[0], 0.001); // 1 ms/point
                                                    // target = 120/8 = 15 s, p50 = 1 ms → time-capped at the max.
        assert_eq!(farm.batch_size(), MAX_LEASE_POINTS);
        let g = farm.grant(1, 0.0).unwrap();
        assert_eq!(g.points.len(), MAX_LEASE_POINTS);
    }

    #[test]
    fn slow_points_shrink_the_lease() {
        let pids: Vec<usize> = (0..100).collect();
        let mut farm = FarmState::new(&pids, 120.0);
        let g = farm.grant(1, 0.0).unwrap();
        farm.complete(g.lease, g.points[0], 30.0); // slower than target
        assert_eq!(farm.batch_size(), 1, "p50 of 30 s > 15 s target");
        // Mixed history: the p50, not the max, drives sizing.
        for pid in 1..=4 {
            let g = farm.grant(1, 0.0).unwrap();
            farm.complete(g.lease, g.points[0], 5.0);
            let _ = pid;
        }
        // sorted secs = [5,5,5,5,30], p50 = 5 → 15/5 = 3 per lease.
        assert_eq!(farm.batch_size(), 3);
    }

    #[test]
    fn fair_share_caps_batches_when_the_queue_runs_low() {
        let pids: Vec<usize> = (0..8).collect();
        let mut farm = FarmState::new(&pids, 120.0);
        let g = farm.grant(1, 0.0).unwrap();
        farm.complete(g.lease, g.points[0], 0.001);
        farm.grant(2, 0.0).unwrap(); // second worker registers
                                     // 6 queued, 2 workers → fair cap of ceil(6/4) = 2, despite the
                                     // time-based size being MAX_LEASE_POINTS.
        assert_eq!(farm.batch_size(), 2);
    }

    #[test]
    fn expiry_requeues_only_unfinished_points() {
        let mut farm = FarmState::new(&[0, 1], 10.0);
        let a = farm.grant(1, 0.0).unwrap();
        let b = farm.grant(1, 0.0).unwrap();
        assert_eq!(farm.complete(a.lease, a.points[0], 0.1), Completion::Fresh);
        // a is fully done and already reaped; only b's point requeues.
        assert_eq!(farm.expire(10.0), 1);
        let again = farm.grant(2, 10.0).unwrap();
        assert_eq!(again.points, b.points);
    }

    #[test]
    fn disconnect_requeues_the_workers_leases() {
        let mut farm = FarmState::new(&[0, 1], 60.0);
        let a = farm.grant(1, 0.0).unwrap();
        let b = farm.grant(2, 0.0).unwrap();
        assert_eq!(farm.disconnect(1), 1);
        // Worker 2's lease is untouched.
        assert_eq!(farm.complete(b.lease, b.points[0], 0.1), Completion::Fresh);
        // The requeued point grants again, to anyone.
        let again = farm.grant(3, 1.0).unwrap();
        assert_eq!(again.points, a.points);
        assert_eq!(farm.disconnect(99), 0, "unknown worker requeues nothing");
    }

    /// The satellite's lease-expiry edge, with a manual clock: a
    /// completion arriving *after* its lease was re-issued is accepted
    /// once (first writer wins) and the other writer's completion is
    /// discarded as a duplicate — in both arrival orders.
    #[test]
    fn stale_and_reissued_completions_race_deterministically() {
        // Order 1: the stale original finishes first.
        let mut farm = FarmState::new(&[7], 5.0);
        let original = farm.grant(1, 0.0).unwrap(); // worker A, expires at 5
        assert_eq!(farm.expire(4.9), 0, "not yet expired");
        assert_eq!(farm.expire(5.0), 1, "expired exactly at the deadline");
        let reissue = farm.grant(2, 5.0).unwrap(); // worker B
        assert_ne!(original.lease, reissue.lease);
        assert_eq!(
            farm.complete(original.lease, 7, 0.3),
            Completion::Fresh,
            "stale-lease completion is accepted once"
        );
        assert_eq!(
            farm.complete(reissue.lease, 7, 0.3),
            Completion::Duplicate,
            "the re-issued lease's completion is the duplicate"
        );
        assert!(farm.is_done());
        assert_eq!(farm.discarded(), 1);
        // No third grant materializes for the completed point.
        assert_eq!(farm.grant(3, 6.0), None);

        // Order 2: the re-issued lease finishes first.
        let mut farm = FarmState::new(&[7], 5.0);
        let original = farm.grant(1, 0.0).unwrap();
        farm.expire(5.0);
        let reissue = farm.grant(2, 5.0).unwrap();
        assert_eq!(farm.complete(reissue.lease, 7, 0.3), Completion::Fresh);
        assert_eq!(
            farm.complete(original.lease, 7, 0.3),
            Completion::Duplicate,
            "the stale original is the duplicate"
        );
        assert!(farm.is_done());
    }

    #[test]
    fn completion_under_an_expired_but_not_reissued_lease_is_accepted() {
        let mut farm = FarmState::new(&[3, 4], 5.0);
        let g = farm.grant(1, 0.0).unwrap();
        farm.expire(100.0); // requeued, but nobody re-leased it yet
        assert_eq!(farm.complete(g.lease, 3, 0.1), Completion::Fresh);
        // The requeued-but-done entry is skipped at the next grant.
        let next = farm.grant(2, 100.0).unwrap();
        assert_eq!(next.points, vec![4]);
        assert_eq!(farm.complete(next.lease, 4, 0.1), Completion::Fresh);
        assert!(farm.is_done());
    }

    #[test]
    fn unknown_points_and_duplicates_are_counted_not_panicked() {
        let mut farm = FarmState::new(&[1], 60.0);
        assert_eq!(farm.complete(42, 999, 0.0), Completion::Unknown);
        let g = farm.grant(1, 0.0).unwrap();
        assert_eq!(farm.complete(g.lease, 1, 0.0), Completion::Fresh);
        assert_eq!(farm.complete(g.lease, 1, 0.0), Completion::Duplicate);
        assert_eq!(farm.complete(9999, 1, 0.0), Completion::Duplicate);
        assert_eq!(farm.discarded(), 3);
    }

    #[test]
    #[should_panic(expected = "duplicate point id")]
    fn duplicate_point_ids_are_rejected() {
        let _ = FarmState::new(&[1, 1], 60.0);
    }

    #[test]
    fn zero_retries_quarantines_on_the_first_failure() {
        let mut farm = FarmState::new(&[3, 4], 60.0); // default budget = 1
        let g = farm.grant(1, 0.0).unwrap();
        assert_eq!(
            farm.fail(g.lease, g.points[0], 1, 0.1),
            FailVerdict::Quarantine { attempts: 1 },
            "attempts=1 matches a local retries=0 error row"
        );
        assert_eq!(farm.quarantined(), 1);
        assert_eq!(farm.failed_attempts(), 1);
        assert_eq!(farm.remaining(), 1, "the quarantined point is resolved");
        // Late reports about the quarantined point are duplicates.
        assert_eq!(farm.fail(g.lease, 3, 2, 0.2), FailVerdict::Duplicate);
        assert_eq!(farm.complete(g.lease, 3, 0.2), Completion::Duplicate);
        assert_eq!(farm.fail(g.lease, 999, 1, 0.2), FailVerdict::Unknown);
    }

    #[test]
    fn retries_spread_failures_across_distinct_workers() {
        // Budget 2 (retries=1): one worker failing twice is not enough
        // by the distinct-worker rule; a second worker's failure is.
        let mut farm = FarmState::new(&[7], 60.0).with_retries(1);
        let g = farm.grant(1, 0.0).unwrap();
        assert_eq!(farm.fail(g.lease, 7, 1, 0.1), FailVerdict::Retry);
        // The point requeued: another worker leases it.
        let g2 = farm.grant(2, 0.2).unwrap();
        assert_eq!(g2.points, vec![7]);
        assert_eq!(
            farm.fail(g2.lease, 7, 2, 0.3),
            FailVerdict::Quarantine { attempts: 2 },
            "two distinct workers exhaust a budget of 2"
        );
        assert!(farm.is_done());
        assert_eq!(farm.failed_attempts(), 2);
        assert_eq!(farm.quarantined(), 1);
    }

    #[test]
    fn a_lone_worker_hits_the_total_failure_backstop() {
        // Budget 2, single worker: distinct workers stays at 1 forever,
        // so the 2×budget total-failures backstop must end it.
        let mut farm = FarmState::new(&[7], 60.0).with_retries(1);
        for expect_retry in [true, true, true] {
            let g = farm.grant(1, 0.0).unwrap();
            let v = farm.fail(g.lease, 7, 1, 0.1);
            assert_eq!(v, FailVerdict::Retry, "{v:?}");
            let _ = expect_retry;
        }
        let g = farm.grant(1, 0.0).unwrap();
        assert_eq!(
            farm.fail(g.lease, 7, 1, 0.1),
            FailVerdict::Quarantine { attempts: 4 },
            "4 total failures = 2 × budget"
        );
        assert!(farm.is_done());
    }

    #[test]
    fn failed_points_drop_out_of_their_lease() {
        // A lease holding [a, b] whose worker reports a failure for `a`
        // keeps only `b` pending; expiry then requeues just `b`.
        let mut farm = FarmState::new(&[0, 1], 10.0);
        let g = farm.grant(1, 0.0).unwrap();
        let g2 = farm.grant(1, 0.0).unwrap();
        assert_eq!(farm.fail(g.lease, g.points[0], 1, 0.1), {
            FailVerdict::Quarantine { attempts: 1 }
        });
        assert_eq!(farm.expire(10.0), 1, "only the other lease's point");
        let _ = g2;
    }

    #[test]
    fn suggested_wait_tracks_the_median_point_time() {
        let mut farm = FarmState::new(&[0, 1, 2], 60.0);
        assert_eq!(farm.suggested_wait(), WAIT_RETRY_SECS, "no timings yet");
        let g = farm.grant(1, 0.0).unwrap();
        farm.complete(g.lease, g.points[0], 4.0);
        assert_eq!(farm.suggested_wait(), 2.0, "half the p50");
        let g = farm.grant(1, 0.0).unwrap();
        farm.complete(g.lease, g.points[0], 100.0);
        assert_eq!(farm.suggested_wait(), 5.0, "capped at 5 s");
        let mut fast = FarmState::new(&[9], 60.0);
        let g = fast.grant(1, 0.0).unwrap();
        fast.complete(g.lease, g.points[0], 1e-4);
        assert_eq!(fast.suggested_wait(), WAIT_RETRY_SECS, "floored");
    }

    #[test]
    fn reconnect_backoff_grows_exponentially_and_caps() {
        assert_eq!(backoff_base(0), 0.1);
        assert_eq!(backoff_base(1), 0.2);
        assert_eq!(backoff_base(2), 0.4);
        assert_eq!(backoff_base(4), 1.6);
        assert_eq!(backoff_base(5), 2.0, "capped");
        assert_eq!(backoff_base(60), 2.0, "no overflow at large attempts");
    }
}
