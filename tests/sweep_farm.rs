//! Fault-injection suite for the sweep farm (`crates/sweep/src/farm.rs`):
//! coordinator/worker runs over real TCP sockets must produce artifacts
//! byte-identical to the checked-in `ci/baselines/fig12.jsonl` no matter
//! how many workers join, which of them are SIGKILLed mid-lease, whether
//! the coordinator itself is killed and resumed, or what garbage a
//! hostile client writes into the wire protocol.
//!
//! The SIGKILL tests use the self-exec pattern: the env-gated
//! `helper_*_child` tests below are launched as real child processes
//! (`current_exe()` + `--exact`) so the kill is a genuine signal 9
//! against a live socket, not a simulated disconnect.

use eft_vqa_repro::prelude::*;
use eft_vqa_repro::sweep::farm::{Completion, FarmState};
use eft_vqa_repro::sweep::jsonl::parse_row;
use eft_vqa_repro::sweep::protocol::Msg;
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The checked-in reduced-scale Figure 12 baseline: one `~sweep-config`
/// stamp plus 18 data rows.
fn baseline_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../ci/baselines/fig12.jsonl")
}

fn baseline_bytes() -> Vec<u8> {
    std::fs::read(baseline_path()).expect("ci/baselines/fig12.jsonl is checked in")
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("eftq-sweep-farm-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Farm coordinator options over the fig12 grid (reduced scale, like
/// the baseline): `threads` local workers, leasing on `addr`.
fn farm_opts(addr: &str, threads: usize, artifact: &Path) -> SweepOptions {
    SweepOptions {
        threads,
        artifact: Some(artifact.to_path_buf()),
        farm: Some(addr.to_string()),
        ..SweepOptions::default()
    }
}

fn worker_opts(addr: &str, threads: usize) -> SweepOptions {
    SweepOptions {
        threads,
        worker: Some(addr.to_string()),
        ..SweepOptions::default()
    }
}

/// Number of complete, parseable fig12 data lines in an artifact (the
/// stamp and any torn final line excluded).
fn streamed_rows(path: &Path) -> usize {
    let Ok(text) = std::fs::read_to_string(path) else {
        return 0;
    };
    text.lines()
        .filter(|l| parse_row(l).is_ok_and(|r| r.label() == "fig12"))
        .count()
}

#[test]
fn single_process_threads8_run_matches_the_checked_in_baseline() {
    // The anchor for every farm assertion below: the plain (non-farm)
    // engine still reproduces the checked-in bytes.
    let path = tmp("threads8.jsonl");
    let _ = std::fs::remove_file(&path);
    let driver = Fig12Driver::new(false);
    let report = run_sweep(
        &Fig12Driver::spec(false),
        &SweepOptions {
            threads: 8,
            artifact: Some(path.clone()),
            ..SweepOptions::default()
        },
        |p, _| driver.eval(p),
    )
    .unwrap();
    assert_eq!(report.rows.len(), 18);
    assert_eq!(std::fs::read(&path).unwrap(), baseline_bytes());
}

#[test]
fn farm_with_local_workers_is_byte_identical_to_the_baseline() {
    // Satellite 1, local half: a coordinator driving 1, 2 and 4 local
    // worker threads through the lease state machine (no remote
    // workers) converges to the --threads 8 (= baseline) artifact.
    let driver = Fig12Driver::new(false);
    let spec = Fig12Driver::spec(false);
    for (i, workers) in [1usize, 2, 4].into_iter().enumerate() {
        let path = tmp(&format!("farm-local-{workers}.jsonl"));
        let _ = std::fs::remove_file(&path);
        let addr = format!("127.0.0.1:{}", 47310 + i);
        let report = run_sweep(&spec, &farm_opts(&addr, workers, &path), |p, _| {
            driver.eval(p)
        })
        .unwrap();
        assert_eq!(report.rows.len(), 18, "{workers} local workers");
        assert_eq!(report.computed, 18, "{workers} local workers");
        assert_eq!(
            std::fs::read(&path).unwrap(),
            baseline_bytes(),
            "{workers} local workers"
        );
    }
}

#[test]
fn farm_with_tcp_workers_is_byte_identical_to_the_baseline() {
    // Satellite 1, distributed half: a coordinate-only process
    // (--threads 0) plus 1, 2 and 4 TCP workers. Every row crosses a
    // real socket, and the artifact still cannot tell.
    let driver = Fig12Driver::new(false);
    let spec = Fig12Driver::spec(false);
    for (i, workers) in [1usize, 2, 4].into_iter().enumerate() {
        let path = tmp(&format!("farm-tcp-{workers}.jsonl"));
        let _ = std::fs::remove_file(&path);
        let addr = format!("127.0.0.1:{}", 47320 + i);
        std::thread::scope(|scope| {
            let coordinator = scope
                .spawn(|| run_sweep(&spec, &farm_opts(&addr, 0, &path), |p, _| driver.eval(p)));
            // Start the workers once the coordinator listens. A worker
            // that finds no listener retries 100 ms later, and the others
            // can finish the grid in that time; a worker that never joins
            // the farm is an error.
            while TcpStream::connect(&addr).is_err() {
                std::thread::sleep(Duration::from_millis(5));
            }
            let joiners: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        // Each worker evaluates through its own driver
                        // (own caches), like a separate process would.
                        let worker_driver = Fig12Driver::new(false);
                        run_sweep(&spec, &worker_opts(&addr, 1), |p, _| worker_driver.eval(p))
                    })
                })
                .collect();
            let report = coordinator.join().unwrap().unwrap();
            assert_eq!(report.rows.len(), 18, "{workers} tcp workers");
            let worker_total: usize = joiners
                .into_iter()
                .map(|j| j.join().unwrap().unwrap().computed)
                .sum();
            // A pure coordinator computes nothing itself.
            assert_eq!(worker_total, 18, "{workers} tcp workers");
        });
        assert_eq!(
            std::fs::read(&path).unwrap(),
            baseline_bytes(),
            "{workers} tcp workers"
        );
    }
}

/// Spawns one of the env-gated helper tests below as a child process of
/// this same test binary.
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

/// Child-process body for the SIGKILL-a-worker test: joins the farm at
/// `EFTQ_FARM_TEST_ADDR` as a worker whose evaluations are slowed by
/// `EFTQ_FARM_TEST_DELAY_MS` (so the parent can reliably kill it
/// mid-lease). A no-op under a normal test run (env unset).
#[test]
fn helper_farm_worker_child() {
    let Ok(addr) = std::env::var("EFTQ_FARM_TEST_ADDR") else {
        return;
    };
    let delay: u64 = std::env::var("EFTQ_FARM_TEST_DELAY_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    let driver = Fig12Driver::new(false);
    let _ = run_sweep(&Fig12Driver::spec(false), &worker_opts(&addr, 1), |p, _| {
        std::thread::sleep(Duration::from_millis(delay));
        driver.eval(p)
    });
}

/// Child-process body for the SIGKILL-the-coordinator test: coordinates
/// the fig12 farm on `EFTQ_FARM_TEST_ADDR`, streaming (slowed) rows
/// into `EFTQ_FARM_TEST_ARTIFACT` until the parent kills it. A no-op
/// under a normal test run (env unset).
#[test]
fn helper_farm_coordinator_child() {
    let Ok(addr) = std::env::var("EFTQ_FARM_TEST_ADDR") else {
        return;
    };
    let artifact = PathBuf::from(std::env::var("EFTQ_FARM_TEST_ARTIFACT").unwrap());
    let delay: u64 = std::env::var("EFTQ_FARM_TEST_DELAY_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    let driver = Fig12Driver::new(false);
    let _ = run_sweep(
        &Fig12Driver::spec(false),
        &farm_opts(&addr, 1, &artifact),
        |p, _| {
            std::thread::sleep(Duration::from_millis(delay));
            driver.eval(p)
        },
    );
}

#[test]
fn sigkilled_worker_mid_lease_is_re_leased_and_the_artifact_converges() {
    // Satellite 2a: a worker dies by real SIGKILL while holding a lease;
    // the coordinator re-leases its points and finishes byte-identical.
    let path = tmp("farm-sigkill-worker.jsonl");
    let _ = std::fs::remove_file(&path);
    let addr = "127.0.0.1:47330";
    let driver = Fig12Driver::new(false);
    let spec = Fig12Driver::spec(false);
    std::thread::scope(|scope| {
        let coordinator = scope.spawn(|| {
            // The coordinator's own worker thread is slowed too, so the
            // sweep is guaranteed to still be running when the kill
            // lands (the fast path would otherwise drain the 18-point
            // grid before the child process even joins).
            run_sweep(&spec, &farm_opts(addr, 1, &path), |p, _| {
                std::thread::sleep(Duration::from_millis(150));
                driver.eval(p)
            })
        });
        // The child worker computes one (slowed) point per ~400 ms;
        // killing it once a few rows have streamed catches it mid-lease
        // with near certainty — and even the worst-case timing (killed
        // between leases) still exercises the disconnect-requeue path.
        let mut child = spawn_helper(
            "helper_farm_worker_child",
            &[
                ("EFTQ_FARM_TEST_ADDR", addr.to_string()),
                ("EFTQ_FARM_TEST_DELAY_MS", "400".to_string()),
            ],
        );
        let deadline = Instant::now() + Duration::from_secs(60);
        while streamed_rows(&path) < 3 {
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
    });
    assert_eq!(std::fs::read(&path).unwrap(), baseline_bytes());
}

#[test]
fn sigkilled_coordinator_resumes_without_recomputing_streamed_rows() {
    // Satellite 2b: kill the coordinator mid-run; --resume from its
    // partial artifact completes the grid, recomputing only the points
    // whose rows never hit the disk.
    let path = tmp("farm-sigkill-coordinator.jsonl");
    let _ = std::fs::remove_file(&path);
    let addr = "127.0.0.1:47331";
    let mut child = spawn_helper(
        "helper_farm_coordinator_child",
        &[
            ("EFTQ_FARM_TEST_ADDR", addr.to_string()),
            ("EFTQ_FARM_TEST_ARTIFACT", path.display().to_string()),
            ("EFTQ_FARM_TEST_DELAY_MS", "120".to_string()),
        ],
    );
    // Wait until a few rows have streamed, then kill. Generous deadline:
    // the child also has to compile the fig12 artifacts once.
    let deadline = Instant::now() + Duration::from_secs(60);
    while streamed_rows(&path) < 4 {
        assert!(Instant::now() < deadline, "coordinator never streamed rows");
        assert!(
            child.try_wait().unwrap().is_none(),
            "coordinator exited before the kill"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    child.kill().expect("SIGKILL the coordinator");
    child.wait().unwrap();

    let streamed = streamed_rows(&path);
    assert!(
        (4..18).contains(&streamed),
        "kill landed mid-run ({streamed} rows streamed)"
    );
    // Resume locally (no farm needed — the artifact is the interface),
    // counting evaluations: none of the streamed points may recompute.
    let evals = AtomicUsize::new(0);
    let driver = Fig12Driver::new(false);
    let report = run_sweep(
        &Fig12Driver::spec(false),
        &SweepOptions {
            threads: 4,
            artifact: Some(path.clone()),
            ..SweepOptions::default()
        },
        |p, _| {
            evals.fetch_add(1, Ordering::Relaxed);
            driver.eval(p)
        },
    )
    .unwrap();
    assert_eq!(report.resumed, streamed);
    assert_eq!(evals.load(Ordering::Relaxed), 18 - streamed);
    assert_eq!(report.rows.len(), 18);
    // A kill mid-write can leave a torn final line; the resume then
    // quarantines it (own line) and the byte-exact comparison no longer
    // applies — the row *content* must still converge exactly.
    if report.malformed_lines == 0 {
        assert_eq!(std::fs::read(&path).unwrap(), baseline_bytes());
    } else {
        let reference: Vec<String> = String::from_utf8(baseline_bytes())
            .unwrap()
            .lines()
            .map(str::to_string)
            .collect();
        let survivors: Vec<String> = std::fs::read_to_string(&path)
            .unwrap()
            .lines()
            .filter(|l| parse_row(l).is_ok())
            .map(str::to_string)
            .collect();
        assert_eq!(survivors, reference);
    }
}

/// Blocks until every sender of `gate` is dropped. A coordinator's
/// evaluator calls it first, so the sweep stays live until the test's
/// client has had its say however fast the points compute; a client
/// that panics drops its sender too and cannot hang the sweep.
fn wait_for_release(gate: &Mutex<Receiver<()>>) {
    let _ = gate.lock().unwrap().recv();
}

/// Reads one protocol message from a chaos client's socket.
fn chaos_recv(reader: &mut BufReader<TcpStream>) -> Msg {
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    Msg::decode(line.trim_end()).unwrap()
}

#[test]
fn hostile_wire_traffic_cannot_corrupt_the_artifact() {
    // Satellite 3, live half: while a legitimate local worker computes
    // the sweep, a chaos client floods the coordinator with torn lines,
    // garbage JSON, unknown points, duplicate completions and a lease it
    // abandons mid-flight. The artifact must not move by one byte.
    let path = tmp("farm-chaos.jsonl");
    let _ = std::fs::remove_file(&path);
    let addr = "127.0.0.1:47332";
    let driver = Fig12Driver::new(false);
    let spec = Fig12Driver::spec(false);
    let opts = SweepOptions {
        lease_secs: 0.4, // fast re-lease of whatever chaos abandons
        ..farm_opts(addr, 1, &path)
    };
    let (release, gate) = channel();
    let gate = Mutex::new(gate);
    std::thread::scope(|scope| {
        let coordinator = scope.spawn(|| {
            run_sweep(&spec, &opts, |p, _| {
                wait_for_release(&gate);
                driver.eval(p)
            })
        });
        let chaos = scope.spawn(|| {
            let _release = release;
            let chaos_driver = Fig12Driver::new(false);
            let mut retries = 0;
            let stream = loop {
                match TcpStream::connect(addr) {
                    Ok(s) => break s,
                    Err(_) if retries < 100 => {
                        retries += 1;
                        std::thread::sleep(Duration::from_millis(50));
                    }
                    Err(e) => panic!("chaos client cannot connect: {e}"),
                }
            };
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut w = stream;
            let send = |w: &mut TcpStream, s: &str| {
                w.write_all(s.as_bytes()).unwrap();
                w.flush().unwrap();
            };
            // A connection that never says hello is rejected outright.
            {
                let pre = TcpStream::connect(addr).unwrap();
                let mut pre_r = BufReader::new(pre.try_clone().unwrap());
                let mut pre_w = pre;
                pre_w.write_all(b"{\"row\":\"~farm-request\"}\n").unwrap();
                assert!(matches!(chaos_recv(&mut pre_r), Msg::Reject { .. }));
            }
            // Legitimate handshake, then hostility.
            send(
                &mut w,
                &format!(
                    "{}\n",
                    Msg::Hello {
                        spec: "fig12".into(),
                        config: Some("reduced".into()),
                        worker: "chaos".into(),
                    }
                    .encode()
                ),
            );
            assert!(matches!(chaos_recv(&mut reader), Msg::Welcome { .. }));
            // Garbage: unparsable JSON, a torn line delivered in two
            // writes straddling the read timeout, binary noise.
            send(&mut w, "this is not json\n");
            send(&mut w, "{\"row\":\"~farm-done\",\"lease\":1,");
            std::thread::sleep(Duration::from_millis(300));
            send(&mut w, "TORN\n");
            send(&mut w, "{}\n\n");
            // Completions for a point that does not exist, and with an
            // unparsable payload.
            send(
                &mut w,
                &format!(
                    "{}\n",
                    Msg::Done {
                        lease: 999,
                        point: 424242,
                        attempt: 1,
                        secs: 0.1,
                        data: "{\"row\":\"fig12\"}".into(),
                    }
                    .encode()
                ),
            );
            send(
                &mut w,
                &format!(
                    "{}\n",
                    Msg::Done {
                        lease: 999,
                        point: 0,
                        attempt: 1,
                        secs: 0.1,
                        data: "{not a row".into(),
                    }
                    .encode()
                ),
            );
            // A completion whose row does not cover the claimed point
            // (the payload is point 1's row): must be rejected by the
            // row contract, not written.
            let wrong = chaos_driver.eval(&spec.point(1)).to_json_row();
            send(
                &mut w,
                &format!(
                    "{}\n",
                    Msg::Done {
                        lease: 999,
                        point: 0,
                        attempt: 1,
                        secs: 0.1,
                        data: wrong,
                    }
                    .encode()
                ),
            );
            // Take a real lease, complete its first point twice (the
            // second is a duplicate — even when the bytes are right),
            // then abandon the rest and vanish mid-protocol.
            send(&mut w, &format!("{}\n", Msg::Request.encode()));
            match chaos_recv(&mut reader) {
                Msg::Grant { lease, points, .. } => {
                    let row = chaos_driver.eval(&spec.point(points[0])).to_json_row();
                    let done = Msg::Done {
                        lease,
                        point: points[0],
                        attempt: 1,
                        secs: 0.1,
                        data: row,
                    }
                    .encode();
                    send(&mut w, &format!("{done}\n{done}\n"));
                }
                // The local worker may already have drained the queue.
                Msg::Wait { .. } | Msg::Fin => {}
                other => panic!("unexpected reply to chaos request: {other:?}"),
            }
            // Vanish without a goodbye: disconnect-requeue path.
            drop(w);
        });
        chaos.join().unwrap();
        let report = coordinator.join().unwrap().unwrap();
        assert_eq!(report.rows.len(), 18);
    });
    assert_eq!(std::fs::read(&path).unwrap(), baseline_bytes());
}

#[test]
fn lease_race_after_expiry_is_first_writer_wins() {
    // Satellite 4, through the public API: two workers, a manual clock,
    // no sleeps. Worker A's lease on the last point expires; worker B
    // gets the re-issue; both finish. Exactly one completion is
    // accepted, in either arrival order.
    for stale_first in [true, false] {
        let mut farm = FarmState::new(&[0, 1, 2], 1.0);
        let a = farm.grant(1, 0.0).unwrap();
        assert_eq!(farm.complete(a.lease, a.points[0], 0.2), Completion::Fresh);
        let a2 = farm.grant(1, 0.2).unwrap();
        assert_eq!(
            farm.complete(a2.lease, a2.points[0], 0.2),
            Completion::Fresh
        );
        // A takes the last point at t=0.4 and goes silent.
        let stale = farm.grant(1, 0.4).unwrap();
        assert_eq!(farm.grant(2, 0.5), None, "nothing left to lease");
        assert!(!farm.is_done());
        // At t=1.4 the lease expires; B gets the re-issue.
        assert_eq!(farm.expire(1.4), 1);
        let reissue = farm.grant(2, 1.4).unwrap();
        assert_eq!(reissue.points, stale.points);
        let (first, second) = if stale_first {
            (stale.lease, reissue.lease)
        } else {
            (reissue.lease, stale.lease)
        };
        assert_eq!(
            farm.complete(first, stale.points[0], 0.2),
            Completion::Fresh,
            "stale_first = {stale_first}"
        );
        assert_eq!(
            farm.complete(second, stale.points[0], 0.2),
            Completion::Duplicate,
            "stale_first = {stale_first}"
        );
        assert!(farm.is_done());
        assert_eq!(farm.discarded(), 1);
    }
}

/// One random farm operation for the state-machine fuzz.
#[derive(Clone, Copy, Debug)]
enum Op {
    Grant(u8),
    /// Complete the `k`-th outstanding grant's first point (possibly
    /// again — duplicates are the point of the fuzz).
    Complete(u8),
    Expire,
    Disconnect(u8),
    /// Complete a point id outside the selection.
    Unknown(u8),
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Satellite 3, decoder half: no byte sequence panics the wire
    /// decoder — truncations and splices of valid messages included.
    #[test]
    fn arbitrary_wire_bytes_never_panic_the_decoder(
        noise in proptest::collection::vec(0u8..=255, 0..160),
        cut in 0usize..400,
        splice in 0usize..400,
    ) {
        let junk = String::from_utf8_lossy(&noise).into_owned();
        let _ = Msg::decode(&junk);
        // Truncate a valid message at an arbitrary char boundary…
        let valid = Msg::Done {
            lease: 3,
            point: 7,
            attempt: 1,
            secs: 0.125,
            data: "{\"row\":\"fig12\",\"j\":0.25,\"s\":\"a\\\"b\"}".into(),
        }
        .encode();
        let k = valid
            .char_indices()
            .map(|(i, _)| i)
            .chain([valid.len()])
            .nth(cut % (valid.chars().count() + 1))
            .unwrap();
        let _ = Msg::decode(&valid[..k]);
        // …and splice random bytes into the middle of it.
        let mut torn = String::from(&valid[..k]);
        torn.push_str(&junk);
        torn.push_str(&valid[valid.len() - (splice % (valid.len() - k + 1))..]);
        let _ = Msg::decode(&torn);
    }

    /// Every structurally valid message round-trips through the wire
    /// encoding, whatever its field contents.
    #[test]
    fn random_messages_round_trip(
        lease in 0u64..u64::MAX,
        point in 0usize..1_000_000,
        secs in 0.0f64..10_000.0,
        pts in proptest::collection::vec(0usize..100_000, 1..40),
        text in proptest::collection::vec(0u8..=255, 0..80),
    ) {
        let data = String::from_utf8_lossy(&text).into_owned();
        for msg in [
            Msg::Hello { spec: data.clone(), config: Some(data.clone()), worker: data.clone() },
            Msg::Welcome { seed: lease, points: point },
            Msg::Reject { reason: data.clone() },
            Msg::Grant { lease, points: pts.clone(), expires_s: secs },
            Msg::Wait { retry_s: secs },
            Msg::Done { lease, point, attempt: 1, secs, data: data.clone() },
        ] {
            let line = msg.encode();
            prop_assert_eq!(Msg::decode(&line).unwrap(), msg, "{}", line);
        }
    }

    /// Satellite 3, state-machine half: under arbitrary interleavings of
    /// grants, (duplicate/stale/unknown) completions, expiries and
    /// disconnects, the farm accepts each selected point exactly once
    /// and always drains to completion.
    #[test]
    fn farm_state_survives_arbitrary_op_interleavings(
        raw in proptest::collection::vec((0u8..5, 0u8..8), 0..120),
    ) {
        let pids = [3usize, 5, 8, 13, 21];
        let mut farm = FarmState::new(&pids, 2.0);
        let mut clock = 0.0f64;
        let mut grants: Vec<(u64, Vec<usize>)> = Vec::new();
        let mut fresh = 0usize;
        let ops = raw.iter().map(|&(op, arg)| match op {
            0 => Op::Grant(arg),
            1 => Op::Complete(arg),
            2 => Op::Expire,
            3 => Op::Disconnect(arg),
            _ => Op::Unknown(arg),
        });
        for op in ops {
            clock += 0.5;
            match op {
                Op::Grant(w) => {
                    if let Some(g) = farm.grant(u64::from(w), clock) {
                        grants.push((g.lease, g.points));
                    }
                }
                Op::Complete(k) if !grants.is_empty() => {
                    let (lease, points) = grants[usize::from(k) % grants.len()].clone();
                    match farm.complete(lease, points[0], 0.1) {
                        Completion::Fresh => fresh += 1,
                        Completion::Duplicate => {}
                        Completion::Unknown => {
                            prop_assert!(false, "granted point became unknown")
                        }
                    }
                }
                Op::Complete(_) => {}
                Op::Expire => {
                    farm.expire(clock);
                }
                Op::Disconnect(w) => {
                    farm.disconnect(u64::from(w));
                }
                Op::Unknown(k) => {
                    prop_assert_eq!(
                        farm.complete(1, 1000 + usize::from(k), 0.1),
                        Completion::Unknown
                    );
                }
            }
            prop_assert_eq!(farm.remaining(), pids.len() - fresh);
        }
        // Drain: however the fuzz left the leases, expiry + grant must
        // reach every missing point, each exactly once.
        let mut guard = 0;
        while !farm.is_done() {
            clock += 5.0;
            farm.expire(clock);
            while let Some(g) = farm.grant(9, clock) {
                for pid in g.points {
                    prop_assert_eq!(farm.complete(g.lease, pid, 0.1), Completion::Fresh);
                    fresh += 1;
                }
            }
            guard += 1;
            prop_assert!(guard < 100, "farm failed to drain");
        }
        prop_assert_eq!(fresh, pids.len(), "each point accepted exactly once");
    }
}

#[test]
fn worker_mode_rejects_a_mismatched_sweep() {
    // A worker for the wrong figure (or scale) must be refused at the
    // handshake, before it can compute a single point.
    let path = tmp("farm-mismatch.jsonl");
    let _ = std::fs::remove_file(&path);
    let addr = "127.0.0.1:47333";
    let driver = Fig12Driver::new(false);
    let spec = Fig12Driver::spec(false);
    let (release, gate) = channel::<()>();
    let gate = Mutex::new(gate);
    std::thread::scope(|scope| {
        let coordinator = scope.spawn(|| {
            run_sweep(&spec, &farm_opts(addr, 2, &path), |p, _| {
                wait_for_release(&gate);
                driver.eval(p)
            })
        });
        let stranger = scope.spawn(|| {
            let _release = release;
            let full_spec = Fig12Driver::spec(true); // config "full"
            let full_driver = Fig12Driver::new(true);
            run_sweep(&full_spec, &worker_opts(addr, 1), |p, _| {
                full_driver.eval(p)
            })
        });
        let err = stranger.join().unwrap().unwrap_err();
        assert!(err.contains("rejected"), "{err}");
        assert!(err.contains("full") && err.contains("reduced"), "{err}");
        coordinator.join().unwrap().unwrap();
    });
    assert_eq!(std::fs::read(&path).unwrap(), baseline_bytes());
}

#[test]
fn farm_resumes_a_partial_artifact_without_recomputing() {
    // --resume composes with --farm: a coordinator started on a partial
    // artifact farms out only the missing points.
    let path = tmp("farm-resume.jsonl");
    let _ = std::fs::remove_file(&path);
    let reference = String::from_utf8(baseline_bytes()).unwrap();
    let head: Vec<&str> = reference.lines().take(8).collect(); // stamp + 7 rows
    std::fs::write(&path, format!("{}\n", head.join("\n"))).unwrap();
    let driver = Fig12Driver::new(false);
    let evals = Mutex::new(Vec::new());
    let report = run_sweep(
        &Fig12Driver::spec(false),
        &farm_opts("127.0.0.1:47334", 2, &path),
        |p, _| {
            evals.lock().unwrap().push(p.id);
            driver.eval(p)
        },
    )
    .unwrap();
    assert_eq!(report.resumed, 7);
    assert_eq!(report.rows.len(), 18);
    let mut evaluated = evals.into_inner().unwrap();
    evaluated.sort_unstable();
    assert_eq!(evaluated, (7..18).collect::<Vec<_>>());
    assert_eq!(std::fs::read(&path).unwrap(), baseline_bytes());
}
