//! Chaos suite for the sweep stack's fault containment
//! (`crates/sweep/src/{chaos,runner,farm}.rs`): deterministic planted
//! faults (panics, stalls past the point deadline, worker disconnects)
//! must quarantine the poisoned points as structured `~sweep-error` rows
//! while every healthy point's bytes stay identical to a clean run — at
//! any thread count, under `--shard`/`--merge`, and across a TCP worker
//! farm with a SIGKILLed worker. A later `--resume` without the fault
//! plan retries exactly the quarantined points and restores the
//! checked-in baseline byte-for-byte.
//!
//! The farm legs listen on fixed ports 27340 and 27341, below Linux's
//! ephemeral range (32768–60999), so that no client socket of an earlier
//! test, lingering in TIME_WAIT, can hold them as its source port.

use eft_vqa_repro::prelude::*;
use eft_vqa_repro::sweep::jsonl::parse_row;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("eftq-sweep-chaos-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn fresh(name: &str) -> PathBuf {
    let path = tmp(name);
    let _ = std::fs::remove_file(&path);
    path
}

fn read(path: &Path) -> Vec<u8> {
    std::fs::read(path).unwrap()
}

/// A 12-point toy grid whose evaluation is pure arithmetic: cheap enough
/// to rerun at several thread counts, rich enough (two axes, a
/// seed-derived field) to prove byte-identity and seed-stable retries.
fn toy_spec() -> SweepSpec {
    SweepSpec::new("chaos_toy")
        .axis_ints("n", [1, 2, 3, 4])
        .axis_nums("p", [0.25, 0.5, 0.75])
}

fn toy_eval(point: &SweepPoint, ctx: &PointCtx) -> Row {
    Row::new("chaos_toy")
        .int("n", point.int("n"))
        .num("p", point.num("p"))
        .num("value", point.int("n") as f64 * point.num("p"))
        // Retries must rerun the *same* computation: this field would
        // drift between attempts if the per-point seed were not stable.
        .int("seed_lo", (ctx.seed.seed() & 0xffff) as i64)
}

/// Options for a poisoned toy run: `plan` planted, first-failure
/// quarantine, and a deadline tight enough that a stall (which sleeps
/// for twice the deadline) reliably overruns it.
fn toy_opts(plan: &str, artifact: &Path) -> SweepOptions {
    SweepOptions {
        artifact: Some(artifact.to_path_buf()),
        point_timeout_secs: Some(0.05),
        fault_plan: Some(FaultPlan::parse(plan).unwrap()),
        ..SweepOptions::default()
    }
}

#[test]
fn planted_faults_quarantine_deterministically_at_any_thread_count() {
    // The tentpole contract, locally: a panic at point 3 and a stall at
    // point 7 do not kill the sweep — they become `~sweep-error` rows in
    // point order, and the whole artifact (good rows *and* error rows)
    // is byte-identical at every thread count.
    let spec = toy_spec();
    let clean = run_sweep(&spec, &SweepOptions::default(), toy_eval).unwrap();
    let reference = {
        let path = fresh("toy-poisoned-t1.jsonl");
        let report = run_sweep(&spec, &toy_opts("panic@3,stall@7", &path), toy_eval).unwrap();
        assert_eq!(report.rows.len(), 12);
        assert_eq!(report.quarantined, 2);
        assert_eq!(report.failed, 2);
        assert_eq!(report.retried, 0);
        assert_eq!(report.ok_rows().count(), 10);
        // The error rows carry the point's axes, the cause, and a
        // human-readable message quoting the configured deadline.
        let errors: Vec<&Row> = report.error_rows().collect();
        assert_eq!(errors[0].get_str("cause"), Some("panic"));
        assert_eq!(
            errors[0].get_str("message"),
            Some("chaos: planted panic at point 3")
        );
        assert_eq!(errors[1].get_str("cause"), Some("timeout"));
        assert_eq!(
            errors[1].get_str("message"),
            Some("evaluation exceeded the 0.05s point deadline")
        );
        for e in &errors {
            assert_eq!(e.get_str("spec"), Some("chaos_toy"));
            assert_eq!(e.get_int("attempts"), Some(1));
            assert!(e.get_int("n").is_some() && e.get_num("p").is_some());
        }
        // Every healthy point's row is exactly the clean run's row.
        let good: Vec<String> = report.ok_rows().map(Row::to_json_row).collect();
        let expected: Vec<String> = clean
            .rows
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != 3 && *i != 7)
            .map(|(_, r)| r.to_json_row())
            .collect();
        assert_eq!(good, expected);
        read(&path)
    };
    for threads in [4usize, 8] {
        let path = fresh(&format!("toy-poisoned-t{threads}.jsonl"));
        let opts = SweepOptions {
            threads,
            ..toy_opts("panic@3,stall@7", &path)
        };
        let report = run_sweep(&spec, &opts, toy_eval).unwrap();
        assert_eq!(report.quarantined, 2, "threads = {threads}");
        assert_eq!(read(&path), reference, "threads = {threads}");
    }
}

#[test]
fn transient_faults_heal_under_the_retry_budget() {
    // `xN` rules model transient faults: with `--retries 1` a point that
    // fails once and then heals produces its normal row, and the
    // artifact cannot be told apart from a never-poisoned run.
    let spec = toy_spec();
    let clean_path = fresh("toy-clean.jsonl");
    run_sweep(
        &spec,
        &SweepOptions {
            artifact: Some(clean_path.clone()),
            ..SweepOptions::default()
        },
        toy_eval,
    )
    .unwrap();
    let path = fresh("toy-healed.jsonl");
    let opts = SweepOptions {
        retries: 1,
        ..toy_opts("panic@2x1,stall@5x1", &path)
    };
    let report = run_sweep(&spec, &opts, toy_eval).unwrap();
    assert_eq!(report.failed, 2);
    assert_eq!(report.retried, 2);
    assert_eq!(report.quarantined, 0);
    assert_eq!(report.ok_rows().count(), 12);
    assert_eq!(read(&path), read(&clean_path));
}

#[test]
fn resume_retries_exactly_the_quarantined_points() {
    // Satellite 4: `--resume` over an artifact holding error rows keeps
    // every good row (zero recomputation), re-evaluates only the
    // quarantined points, and compacts the healed artifact back to the
    // clean bytes — no stale `~sweep-error` line left behind.
    let spec = toy_spec();
    let clean_path = fresh("toy-resume-clean.jsonl");
    run_sweep(
        &spec,
        &SweepOptions {
            artifact: Some(clean_path.clone()),
            ..SweepOptions::default()
        },
        toy_eval,
    )
    .unwrap();
    let path = fresh("toy-resume.jsonl");
    let poisoned = run_sweep(&spec, &toy_opts("panic@3,stall@7", &path), toy_eval).unwrap();
    assert_eq!(poisoned.quarantined, 2);
    // Resume without the fault plan, counting evaluations.
    let evals = AtomicUsize::new(0);
    let healed = run_sweep(
        &spec,
        &SweepOptions {
            artifact: Some(path.clone()),
            ..SweepOptions::default()
        },
        |p, ctx| {
            evals.fetch_add(1, Ordering::Relaxed);
            toy_eval(p, ctx)
        },
    )
    .unwrap();
    assert_eq!(evals.load(Ordering::Relaxed), 2, "only the quarantined");
    assert_eq!(healed.resumed, 10);
    assert_eq!(healed.computed, 2);
    assert_eq!(healed.quarantined, 0);
    assert_eq!(read(&path), read(&clean_path));
}

#[test]
fn shards_quarantine_independently_and_merge_reassembles_error_rows() {
    // The same plan poisons the same points whichever shard computes
    // them, and `--merge` carries the error rows through: the merged
    // artifact is byte-identical to the unsharded poisoned run.
    let spec = toy_spec();
    let whole_path = fresh("toy-shard-whole.jsonl");
    let whole = run_sweep(&spec, &toy_opts("panic@3,stall@7", &whole_path), toy_eval).unwrap();
    assert_eq!(whole.quarantined, 2);
    let shard_paths: Vec<PathBuf> = (0..2)
        .map(|k| {
            let path = fresh(&format!("toy-shard-{k}.jsonl"));
            let opts = SweepOptions {
                shard: Some(Shard { index: k, count: 2 }),
                ..toy_opts("panic@3,stall@7", &path)
            };
            run_sweep(&spec, &opts, toy_eval).unwrap();
            path
        })
        .collect();
    let merged_path = fresh("toy-shard-merged.jsonl");
    let merged = run_sweep(
        &spec,
        &SweepOptions {
            artifact: Some(merged_path.clone()),
            merge: shard_paths,
            ..SweepOptions::default()
        },
        |_, _| unreachable!("merge must not evaluate"),
    )
    .unwrap();
    assert_eq!(merged.merged, 12);
    assert_eq!(merged.quarantined, 2, "error rows carried through merge");
    assert_eq!(read(&merged_path), read(&whole_path));
}

#[test]
fn a_disconnect_fault_reconnects_with_backoff_and_converges() {
    // `disconnect@5x1` severs the TCP worker's socket on its first
    // encounter with point 5. The coordinator requeues the lease, the
    // worker reconnects (jittered exponential backoff) and the healed
    // second attempt completes: no error rows, clean bytes.
    let spec = toy_spec();
    let clean_path = fresh("toy-disc-clean.jsonl");
    run_sweep(
        &spec,
        &SweepOptions {
            artifact: Some(clean_path.clone()),
            ..SweepOptions::default()
        },
        toy_eval,
    )
    .unwrap();
    let path = fresh("toy-disc.jsonl");
    let addr = "127.0.0.1:27340";
    std::thread::scope(|scope| {
        let coordinator = scope.spawn(|| {
            run_sweep(
                &spec,
                &SweepOptions {
                    threads: 0,
                    artifact: Some(path.clone()),
                    farm: Some(addr.to_string()),
                    ..SweepOptions::default()
                },
                toy_eval,
            )
        });
        let worker = scope.spawn(|| {
            run_sweep(
                &spec,
                &SweepOptions {
                    worker: Some(addr.to_string()),
                    fault_plan: Some(FaultPlan::parse("disconnect@5x1").unwrap()),
                    ..SweepOptions::default()
                },
                toy_eval,
            )
        });
        let report = coordinator.join().unwrap().unwrap();
        assert_eq!(report.rows.len(), 12);
        assert_eq!(report.quarantined, 0, "a disconnect is not a failure");
        let worker_report = worker.join().unwrap().unwrap();
        assert_eq!(worker_report.computed, 12, "every point crossed the wire");
    });
    assert_eq!(read(&path), read(&clean_path));
}

// ---------------------------------------------------------------------
// Figure-12 acceptance: the poisoned sweep converges to the same bytes
// under --threads 8, --shard/--merge and a 3-worker farm with a
// SIGKILLed worker; removing the plan and resuming restores the
// checked-in baseline exactly.
// ---------------------------------------------------------------------

/// The checked-in reduced-scale Figure 12 baseline (stamp + 18 rows).
fn baseline_bytes() -> Vec<u8> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../ci/baselines/fig12.jsonl");
    std::fs::read(path).expect("ci/baselines/fig12.jsonl is checked in")
}

/// The fig12 fault plan for the acceptance run: a hard panic, a stall
/// past the deadline, and (effective on TCP workers only) a one-shot
/// disconnect.
const FIG12_PLAN: &str = "panic@3,stall@8,disconnect@5x1";
const FIG12_TIMEOUT: f64 = 2.0;

fn fig12_chaos_opts(artifact: &Path) -> SweepOptions {
    SweepOptions {
        artifact: Some(artifact.to_path_buf()),
        point_timeout_secs: Some(FIG12_TIMEOUT),
        fault_plan: Some(FaultPlan::parse(FIG12_PLAN).unwrap()),
        ..SweepOptions::default()
    }
}

/// Number of complete, parseable fig12 lines (data or error rows) in an
/// artifact — the progress signal for the kill timing.
fn streamed_rows(path: &Path) -> usize {
    let Ok(text) = std::fs::read_to_string(path) else {
        return 0;
    };
    text.lines()
        .filter(|l| parse_row(l).is_ok_and(|r| r.label() == "fig12" || r.label() == "~sweep-error"))
        .count()
}

/// Spawns one of the env-gated helper tests below as a child process of
/// this same test binary (the sweep_farm.rs self-exec pattern).
fn spawn_helper(name: &str, envs: &[(&str, String)]) -> Child {
    let mut cmd = Command::new(std::env::current_exe().unwrap());
    cmd.arg(name)
        .arg("--exact")
        .arg("--nocapture")
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd.spawn().expect("spawn helper child")
}

/// Child-process body for the SIGKILL-a-poisoned-worker test: joins the
/// farm at `EFTQ_CHAOS_TEST_ADDR` carrying the same fault plan and
/// deadline as everyone else, slowed by `EFTQ_CHAOS_TEST_DELAY_MS` so
/// the parent can kill it mid-lease. A no-op under a normal run.
#[test]
fn helper_chaos_worker_child() {
    let Ok(addr) = std::env::var("EFTQ_CHAOS_TEST_ADDR") else {
        return;
    };
    let delay: u64 = std::env::var("EFTQ_CHAOS_TEST_DELAY_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    let driver = Fig12Driver::new(false);
    let _ = run_sweep(
        &Fig12Driver::spec(false),
        &SweepOptions {
            worker: Some(addr),
            point_timeout_secs: Some(FIG12_TIMEOUT),
            fault_plan: Some(FaultPlan::parse(FIG12_PLAN).unwrap()),
            ..SweepOptions::default()
        },
        |p, _| {
            std::thread::sleep(Duration::from_millis(delay));
            driver.eval(p)
        },
    );
}

#[test]
fn fig12_poisoned_sweep_converges_across_topologies_and_resume_restores_the_baseline() {
    let driver = Fig12Driver::new(false);
    let spec = Fig12Driver::spec(false);

    // Leg 1 — local, --threads 8: the reference poisoned artifact.
    let local_path = fresh("fig12-poisoned-local.jsonl");
    let local = run_sweep(
        &spec,
        &SweepOptions {
            threads: 8,
            ..fig12_chaos_opts(&local_path)
        },
        |p, _| driver.eval(p),
    )
    .unwrap();
    assert_eq!(local.rows.len(), 18);
    assert_eq!(local.quarantined, 2, "panic@3 and stall@8");
    assert_eq!(local.ok_rows().count(), 16);
    let causes: Vec<_> = local
        .error_rows()
        .filter_map(|r| r.get_str("cause"))
        .collect();
    assert_eq!(causes, ["panic", "timeout"]);
    let reference = read(&local_path);
    // Every good row matches the checked-in baseline line for line.
    let baseline = String::from_utf8(baseline_bytes()).unwrap();
    let poisoned_text = String::from_utf8(reference.clone()).unwrap();
    let good: Vec<&str> = poisoned_text
        .lines()
        .filter(|l| !l.contains("~sweep-error"))
        .collect();
    let expected: Vec<&str> = baseline
        .lines()
        .enumerate()
        // Line 0 is the stamp; data line i covers point i - 1.
        .filter(|(i, _)| *i != 4 && *i != 9)
        .map(|(_, l)| l)
        .collect();
    assert_eq!(good, expected);

    // Leg 2 — --shard 0/2 + 1/2, then --merge.
    let shard_paths: Vec<PathBuf> = (0..2)
        .map(|k| {
            let path = fresh(&format!("fig12-poisoned-shard{k}.jsonl"));
            let opts = SweepOptions {
                threads: 4,
                shard: Some(Shard { index: k, count: 2 }),
                ..fig12_chaos_opts(&path)
            };
            run_sweep(&spec, &opts, |p, _| driver.eval(p)).unwrap();
            path
        })
        .collect();
    let merged_path = fresh("fig12-poisoned-merged.jsonl");
    let merged = run_sweep(
        &spec,
        &SweepOptions {
            artifact: Some(merged_path.clone()),
            merge: shard_paths,
            ..SweepOptions::default()
        },
        |_, _| unreachable!("merge must not evaluate"),
    )
    .unwrap();
    assert_eq!(merged.quarantined, 2);
    assert_eq!(read(&merged_path), reference, "shard+merge leg");

    // Leg 3 — a 3-worker farm (one in-process thread, one TCP worker
    // thread, one TCP worker child process), the child SIGKILLed
    // mid-lease. Workers report caught faults as `Failed` instead of
    // dying; the coordinator quarantines and the bytes still converge.
    let farm_path = fresh("fig12-poisoned-farm.jsonl");
    let addr = "127.0.0.1:27341";
    std::thread::scope(|scope| {
        let coordinator = scope.spawn(|| {
            run_sweep(
                &spec,
                &SweepOptions {
                    threads: 1,
                    farm: Some(addr.to_string()),
                    ..fig12_chaos_opts(&farm_path)
                },
                |p, _| {
                    std::thread::sleep(Duration::from_millis(150));
                    driver.eval(p)
                },
            )
        });
        let tcp_worker = scope.spawn(|| {
            let worker_driver = Fig12Driver::new(false);
            run_sweep(
                &spec,
                &SweepOptions {
                    worker: Some(addr.to_string()),
                    point_timeout_secs: Some(FIG12_TIMEOUT),
                    fault_plan: Some(FaultPlan::parse(FIG12_PLAN).unwrap()),
                    ..SweepOptions::default()
                },
                |p, _| {
                    std::thread::sleep(Duration::from_millis(150));
                    worker_driver.eval(p)
                },
            )
        });
        let mut child = spawn_helper(
            "helper_chaos_worker_child",
            &[
                ("EFTQ_CHAOS_TEST_ADDR", addr.to_string()),
                ("EFTQ_CHAOS_TEST_DELAY_MS", "400".to_string()),
            ],
        );
        let deadline = Instant::now() + Duration::from_secs(120);
        while streamed_rows(&farm_path) < 3 {
            assert!(Instant::now() < deadline, "farm never streamed rows");
            std::thread::sleep(Duration::from_millis(25));
        }
        child.kill().expect("SIGKILL the worker");
        let status = child.wait().unwrap();
        #[cfg(unix)]
        {
            use std::os::unix::process::ExitStatusExt;
            assert_eq!(status.signal(), Some(9), "worker died by SIGKILL");
        }
        let report = coordinator.join().unwrap().unwrap();
        assert_eq!(report.rows.len(), 18);
        assert_eq!(report.quarantined, 2, "farm leg");
        // The surviving TCP worker outlives the sweep's failures.
        let _ = tcp_worker.join().unwrap().unwrap();
    });
    assert_eq!(read(&farm_path), reference, "farm leg");

    // Leg 4 — remove the fault plan and --resume the poisoned artifact:
    // only the two quarantined points recompute, the artifact compacts,
    // and the bytes are exactly the checked-in baseline again.
    let evals = AtomicUsize::new(0);
    let healed = run_sweep(
        &spec,
        &SweepOptions {
            threads: 2,
            artifact: Some(local_path.clone()),
            ..SweepOptions::default()
        },
        |p, _| {
            evals.fetch_add(1, Ordering::Relaxed);
            driver.eval(p)
        },
    )
    .unwrap();
    assert_eq!(evals.load(Ordering::Relaxed), 2, "only the quarantined");
    assert_eq!(healed.resumed, 16);
    assert_eq!(healed.quarantined, 0);
    assert_eq!(read(&local_path), baseline_bytes());
}
