//! Robustness suite for the planner service (`crates/planner`): a
//! poisoned, overloaded `eft_planner_serve` must shed load and degrade
//! answers, but never wedge, corrupt a response, or drop a request it
//! admitted.
//!
//! The chaos soak drives a server whose exact-compute path is poisoned
//! via the PR-7 fault plan (`panic~…`, `stall~…`) from many client
//! threads at once, past its admission queue bound, and asserts every
//! single connection receives a complete, parseable JSONL answer with
//! one of the documented statuses. The SIGTERM test uses the repo's
//! self-exec pattern (`current_exe()` + `--exact`) so the drain is
//! exercised by a genuine signal against a live process.

use eft_vqa_repro::planner::{serve, ServerConfig, SurfaceIndex};
use eft_vqa_repro::sweep::jsonl::parse_row;
use eft_vqa_repro::sweep::FaultPlan;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("eftq-planner-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// The advisor-only surrogate index (fast to build, no disk involved).
fn advisor_index() -> SurfaceIndex {
    let mut index = SurfaceIndex::new();
    index.add_advisor_grid().expect("advisor grid builds");
    index
}

/// One full HTTP exchange. `Err` only for transport failures — a
/// well-behaved server never produces one.
fn raw_get(addr: SocketAddr, target: &str) -> Result<(u16, String), String> {
    raw_get_within(addr, target, Duration::from_secs(10))
}

/// [`raw_get`] that fails when no response arrives within `timeout`.
fn raw_get_within(
    addr: SocketAddr,
    target: &str,
    timeout: Duration,
) -> Result<(u16, String), String> {
    raw_exchange(
        addr,
        &format!("GET {target} HTTP/1.1\r\nHost: t\r\n\r\n"),
        timeout,
    )
}

fn raw_exchange(addr: SocketAddr, wire: &str, timeout: Duration) -> Result<(u16, String), String> {
    let mut stream =
        TcpStream::connect_timeout(&addr, timeout).map_err(|e| format!("connect: {e}"))?;
    stream.set_read_timeout(Some(timeout)).unwrap();
    stream
        .write_all(wire.as_bytes())
        .map_err(|e| format!("write: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader
        .read_line(&mut status_line)
        .map_err(|e| format!("read status: {e}"))?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .ok_or_else(|| format!("no status in {status_line:?}"))?
        .parse()
        .map_err(|e| format!("bad status in {status_line:?}: {e}"))?;
    let mut line = String::new();
    loop {
        line.clear();
        let n = reader
            .read_line(&mut line)
            .map_err(|e| format!("read headers: {e}"))?;
        if n == 0 {
            return Err("connection closed mid-headers".into());
        }
        if line.trim_end().is_empty() {
            break;
        }
    }
    let mut body = String::new();
    reader
        .read_to_string(&mut body)
        .map_err(|e| format!("read body: {e}"))?;
    Ok((status, body))
}

/// Asserts the response invariants every planner answer must satisfy,
/// whatever chaos is active: documented status, parseable JSONL body,
/// coherent degradation stamps.
fn assert_clean(status: u16, body: &str, context: &str) {
    assert!(
        matches!(status, 200 | 400 | 404 | 429 | 503 | 504),
        "{context}: undocumented status {status}: {body}"
    );
    assert!(
        !body.is_empty(),
        "{context}: empty body with status {status}"
    );
    for line in body.lines() {
        let row = parse_row(line)
            .unwrap_or_else(|e| panic!("{context}: corrupt JSONL line {line:?}: {e}"));
        match row.label() {
            "planner_plan" => {
                assert_eq!(status, 200, "{context}: plan row with status {status}");
                let fidelity = row.get_num("fidelity").expect("fidelity field");
                assert!(fidelity.is_finite(), "{context}: non-finite fidelity");
                let degraded = row.get_int("degraded").expect("degraded field");
                assert!((0..=1).contains(&degraded), "{context}: bad degraded flag");
                if degraded == 1 {
                    let cause = row.get_str("cause").expect("degraded without cause");
                    assert!(
                        [
                            "extrapolated",
                            "out_of_range",
                            "deadline",
                            "breaker_open",
                            "exact_failed",
                            "exact_overrun"
                        ]
                        .contains(&cause),
                        "{context}: unknown degradation cause {cause:?}"
                    );
                }
            }
            "planner_lookup" => assert_eq!(status, 200, "{context}: lookup with {status}"),
            "~planner-error" => {
                assert_ne!(status, 200, "{context}: error row with status 200");
                assert_eq!(row.get_int("status"), Some(i64::from(status)));
                assert!(
                    row.get_str("cause").is_some(),
                    "{context}: error without cause"
                );
            }
            "~planner-health" | "planner_surface" => {}
            other => panic!("{context}: unexpected row label {other:?}"),
        }
    }
}

/// The headline soak: exact-compute poisoned with panics and stalls,
/// more clients than workers, queries crossing the grid boundary and
/// malformed wire garbage — every connection still gets one clean
/// answer and the server drains afterwards.
#[test]
fn soak_poisoned_overloaded_server_stays_clean() {
    let cfg = ServerConfig {
        deadline: Duration::from_millis(250),
        queue: 16,
        workers: 3,
        parsers: 2,
        exact_budget: Duration::from_millis(5),
        breaker_threshold: 2,
        breaker_cooldown: Duration::from_millis(50),
        fault_plan: Some(FaultPlan::parse("panic~0.4x9,stall~0.15x9").unwrap()),
        ..ServerConfig::default()
    };
    let handle = serve(advisor_index(), cfg).unwrap();
    let addr = handle.addr();

    const CLIENTS: usize = 6;
    const PER_CLIENT: usize = 30;
    let soak_start = Instant::now();
    let threads: Vec<_> = (0..CLIENTS)
        .map(|c| {
            std::thread::spawn(move || {
                let mut answered = 0usize;
                for i in 0..PER_CLIENT {
                    let k = c * PER_CLIENT + i;
                    let (status, body) = match k % 6 {
                        0 => raw_get(addr, "/plan?logical_qubits=24&device_qubits=30000"),
                        // The poisoned path: panics and stalls live here.
                        1 => raw_get(
                            addr,
                            &format!("/plan?logical_qubits={}&device_qubits=25000&exact=1", 8 + k % 40),
                        ),
                        2 => raw_get(
                            addr,
                            "/lookup?surface=planner_advisor/f_pqec&device_qubits=17500&logical_qubits=23",
                        ),
                        // Off-grid: must degrade, not fail.
                        3 => raw_get(addr, "/plan?logical_qubits=900&device_qubits=200"),
                        4 => raw_get(addr, "/healthz"),
                        // Garbage: NaN params and a broken request line.
                        _ if k % 2 == 0 => {
                            raw_get(addr, "/lookup?surface=planner_advisor/f_nisq&device_qubits=NaN&logical_qubits=12")
                        }
                        _ => raw_exchange(addr, "BROKEN\r\n\r\n", Duration::from_secs(10)),
                    }
                    .unwrap_or_else(|e| panic!("client {c} request {i}: transport failure: {e}"));
                    assert_clean(status, &body, &format!("client {c} request {i}"));
                    answered += 1;
                }
                answered
            })
        })
        .collect();
    let answered: usize = threads.into_iter().map(|t| t.join().unwrap()).sum();
    assert_eq!(
        answered,
        CLIENTS * PER_CLIENT,
        "every request must be answered"
    );
    assert!(
        soak_start.elapsed() < Duration::from_secs(120),
        "soak wedged: {:?}",
        soak_start.elapsed()
    );

    // Liveness survived the soak, and the chaos actually bit.
    let (status, body) = raw_get(addr, "/healthz").unwrap();
    assert_eq!(status, 200, "{body}");
    let health = parse_row(body.trim()).unwrap();
    assert_eq!(health.get_str("status"), Some("live"));
    let stats = handle.stats();
    let failures = stats
        .exact_failures
        .load(std::sync::atomic::Ordering::SeqCst);
    let degraded = stats.degraded.load(std::sync::atomic::Ordering::SeqCst);
    assert!(failures > 0, "fault plan planted no exact failures");
    assert!(degraded > 0, "no request degraded under chaos");
    assert!(
        health.get_int("exact_failures").unwrap() >= 1,
        "health must report the failures: {body}"
    );

    handle.drain();
}

/// Overload a one-worker server whose only worker is stalled: extra
/// requests shed with 429 (or age out with 504) instead of queueing
/// unboundedly, and `/healthz` keeps answering throughout.
#[test]
fn overload_sheds_with_clean_429s_and_health_stays_live() {
    let cfg = ServerConfig {
        deadline: Duration::from_millis(150),
        queue: 2,
        workers: 1,
        parsers: 1,
        exact_budget: Duration::from_millis(5),
        breaker_threshold: 10,
        breaker_cooldown: Duration::from_millis(50),
        // Every exact attempt stalls for 2x the deadline.
        fault_plan: Some(FaultPlan::parse("stall~1.0x9").unwrap()),
        ..ServerConfig::default()
    };
    let handle = serve(advisor_index(), cfg).unwrap();
    let addr = handle.addr();

    // Occupy the single worker with a stalled exact request.
    let jam = std::thread::spawn(move || {
        raw_get(addr, "/plan?logical_qubits=24&device_qubits=30000&exact=1").unwrap()
    });
    std::thread::sleep(Duration::from_millis(60));

    // Burst past the queue bound while the worker sleeps.
    let burst: Vec<_> = (0..10)
        .map(|i| {
            std::thread::spawn(move || {
                raw_get(addr, "/plan?logical_qubits=16&device_qubits=20000")
                    .unwrap_or_else(|e| panic!("burst {i}: {e}"))
            })
        })
        .collect();
    // Health answers while the evaluation stage is jammed.
    let (status, body) = raw_get(addr, "/healthz").unwrap();
    assert_eq!(status, 200, "healthz under load: {body}");

    let mut statuses = Vec::new();
    for (i, t) in burst.into_iter().enumerate() {
        let (status, body) = t.join().unwrap();
        assert_clean(status, &body, &format!("burst {i}"));
        statuses.push(status);
    }
    let (status, body) = jam.join().unwrap();
    assert_clean(status, &body, "jammed exact request");
    // The stalled request itself degrades (overrun) but is answered.
    assert_eq!(status, 200, "{body}");
    let row = parse_row(body.trim()).unwrap();
    assert_eq!(row.get_int("degraded"), Some(1), "{body}");

    let shed = statuses.iter().filter(|s| **s == 429).count();
    let expired = statuses.iter().filter(|s| **s == 504).count();
    assert!(
        shed + expired > 0,
        "burst past a full queue must shed or expire, got {statuses:?}"
    );
    handle.drain();
}

/// With the single parser held by a silent connection and the accept
/// queue behind it full, the acceptor itself answers `/healthz`,
/// `/readyz` and `/metrics`, and sheds everything else under its route.
/// The queue is proven full before the probes: a further silent
/// connection has come back shed.
#[test]
fn health_answers_while_the_accept_queue_is_full() {
    let cfg = ServerConfig {
        // The parser's read timeout: it stays held for the whole test.
        deadline: Duration::from_secs(30),
        queue: 2,
        workers: 1,
        parsers: 1,
        ..ServerConfig::default()
    };
    let handle = serve(advisor_index(), cfg).unwrap();
    let addr = handle.addr();
    let mut silent = Vec::new();
    let shed = loop {
        assert!(silent.len() < 32, "the accept queue never filled");
        let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(10)).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_millis(200)))
            .unwrap();
        let mut reply = String::new();
        match stream.read_to_string(&mut reply) {
            Ok(_) if !reply.is_empty() => break reply,
            // Still waiting: held by the parser or queued behind it.
            _ => silent.push(stream),
        }
    };
    assert!(shed.starts_with("HTTP/1.1 429"), "{shed}");

    let (status, body) = raw_get(addr, "/healthz").unwrap();
    assert_eq!(status, 200, "healthz with a full accept queue: {body}");
    assert_eq!(
        parse_row(body.trim()).unwrap().get_str("status"),
        Some("live")
    );
    let (status, body) = raw_get(addr, "/readyz").unwrap();
    assert_eq!(status, 200, "readyz with a full accept queue: {body}");
    let (status, body) = raw_get(addr, "/plan?logical_qubits=16&device_qubits=20000").unwrap();
    assert_eq!(status, 429, "{body}");
    assert_clean(status, &body, "shed plan");
    let (status, metrics) = raw_get(addr, "/metrics").unwrap();
    assert_eq!(status, 200, "metrics with a full accept queue: {metrics}");
    let series = parse_metrics(&metrics, "full accept queue");
    assert_eq!(
        series.get(r#"planner_requests_total{route="/plan",status="429"}"#),
        Some(&1.0),
        "a shed plan counts under its route:\n{metrics}"
    );
    assert_eq!(
        series.get(r#"planner_requests_total{route="/healthz",status="200"}"#),
        Some(&1.0)
    );

    // Closing the silent connections frees the parser for the drain.
    drop(silent);
    handle.drain();
}

/// A client that drips its request one byte per 100 ms cannot hold the
/// only parser past the request deadline (250 ms by default): it gets a
/// 400 long before its 3 s drip ends, and a `/healthz` sent 300 ms after
/// it is answered within 1 s. A per-read socket timeout alone would let
/// the drip hold the parser for the whole 3 s.
#[test]
fn dripping_client_is_cut_off_at_the_request_deadline() {
    let cfg = ServerConfig {
        parsers: 1,
        ..ServerConfig::default()
    };
    let deadline = cfg.deadline;
    let handle = serve(advisor_index(), cfg).unwrap();
    let addr = handle.addr();

    const DRIP_BYTES: usize = 30;
    const DRIP_EVERY: Duration = Duration::from_millis(100);
    let (dripping_tx, dripping_rx) = std::sync::mpsc::channel();
    let start = Instant::now();
    let drip = std::thread::spawn(move || {
        // Longer than the drip: the request never completes on its own.
        let wire = format!("GET /healthz?pad={} HTTP/1.1\r\n\r\n", "p".repeat(64));
        let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(10)).unwrap();
        stream.set_read_timeout(Some(DRIP_EVERY)).unwrap();
        let mut reply = Vec::new();
        let mut buf = [0u8; 1024];
        for (i, &byte) in wire.as_bytes()[..DRIP_BYTES].iter().enumerate() {
            if stream.write_all(&[byte]).is_err() {
                break;
            }
            if i == 0 {
                // Connected and sending: the probe now queues behind us.
                dripping_tx.send(()).unwrap();
            }
            // Waiting for a reply paces the drip.
            match stream.read(&mut buf) {
                Ok(k) if k > 0 => {
                    reply.extend_from_slice(&buf[..k]);
                    break;
                }
                _ => {}
            }
        }
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let _ = stream.read_to_end(&mut reply);
        (
            String::from_utf8_lossy(&reply).into_owned(),
            start.elapsed(),
        )
    });

    dripping_rx.recv().unwrap();
    std::thread::sleep(Duration::from_millis(300));
    let probe = Instant::now();
    let (status, body) = raw_get(addr, "/healthz").unwrap();
    let probe_took = probe.elapsed();
    assert_eq!(status, 200, "healthz behind a dripping client: {body}");
    assert!(
        probe_took < Duration::from_secs(1),
        "healthz waited {probe_took:?} behind a dripping client"
    );

    let (reply, answered_after) = drip.join().unwrap();
    assert!(reply.starts_with("HTTP/1.1 400"), "{reply}");
    assert!(reply.contains("bad_request"), "{reply}");
    assert!(
        answered_after < DRIP_EVERY * DRIP_BYTES as u32 / 2,
        "dripping client answered after {answered_after:?} (deadline {deadline:?})"
    );
    assert!(
        handle
            .stats()
            .rejected
            .load(std::sync::atomic::Ordering::SeqCst)
            >= 1,
        "the cut-off request counts as rejected"
    );
    handle.drain();
}

/// Parses a Prometheus text exposition body into `series → value`,
/// panicking on any line that is not a `#` comment or a well-formed
/// `name value` sample. (`/metrics` bodies are text, not JSONL, so
/// they deliberately bypass `assert_clean`.)
fn parse_metrics(body: &str, context: &str) -> BTreeMap<String, f64> {
    assert!(!body.is_empty(), "{context}: empty metrics body");
    let mut series = BTreeMap::new();
    for line in body.lines() {
        if line.starts_with('#') {
            continue;
        }
        let (name, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("{context}: malformed metrics line {line:?}"));
        let value: f64 = value
            .parse()
            .unwrap_or_else(|e| panic!("{context}: bad sample value in {line:?}: {e}"));
        assert!(!value.is_nan(), "{context}: NaN sample in {line:?}");
        assert!(
            series.insert(name.to_string(), value).is_none(),
            "{context}: duplicate series {name:?}"
        );
    }
    series
}

/// Counter-style series (`_total` / `_count` / `_sum` / `_bucket`) must
/// never move backwards — or disappear — between two scrapes of the
/// same server.
fn assert_metrics_monotonic(
    earlier: &BTreeMap<String, f64>,
    later: &BTreeMap<String, f64>,
    context: &str,
) {
    for (key, &before) in earlier {
        let base = key.split('{').next().unwrap();
        if !(base.ends_with("_total")
            || base.ends_with("_count")
            || base.ends_with("_sum")
            || base.ends_with("_bucket"))
        {
            continue;
        }
        let after = *later
            .get(key)
            .unwrap_or_else(|| panic!("{context}: counter series {key:?} disappeared"));
        assert!(
            after >= before,
            "{context}: {key} went backwards: {before} -> {after}"
        );
    }
}

/// Satellite to the chaos soak: `/metrics` scraped while the poisoned,
/// overloaded server is being hammered must stay parseable with
/// monotonic counters, and once the load quiesces the shed / deadline /
/// degraded series must equal exactly what the clients observed on the
/// wire, with the latency histogram counting every response once.
#[test]
fn metrics_scrapes_stay_consistent_under_chaos() {
    let cfg = ServerConfig {
        deadline: Duration::from_millis(250),
        queue: 8,
        workers: 2,
        parsers: 2,
        exact_budget: Duration::from_millis(5),
        breaker_threshold: 2,
        breaker_cooldown: Duration::from_millis(50),
        fault_plan: Some(FaultPlan::parse("panic~0.4x9,stall~0.2x9").unwrap()),
        ..ServerConfig::default()
    };
    let handle = serve(advisor_index(), cfg).unwrap();
    let addr = handle.addr();

    const CLIENTS: usize = 5;
    const PER_CLIENT: usize = 24;
    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            std::thread::spawn(move || {
                let (mut shed, mut expired, mut degraded) = (0u64, 0u64, 0u64);
                for i in 0..PER_CLIENT {
                    let k = c * PER_CLIENT + i;
                    let (status, body) = match k % 3 {
                        // The poisoned exact path.
                        0 => raw_get(
                            addr,
                            &format!(
                                "/plan?logical_qubits={}&device_qubits=25000&exact=1",
                                8 + k % 40
                            ),
                        ),
                        // Off-grid: degrades with `extrapolated`.
                        1 => raw_get(addr, "/plan?logical_qubits=900&device_qubits=200"),
                        _ => raw_get(addr, "/plan?logical_qubits=24&device_qubits=30000"),
                    }
                    .unwrap_or_else(|e| panic!("metrics soak client {c} request {i}: {e}"));
                    assert_clean(
                        status,
                        &body,
                        &format!("metrics soak client {c} request {i}"),
                    );
                    match status {
                        429 => shed += 1,
                        504 => expired += 1,
                        200 => {
                            for line in body.lines() {
                                if parse_row(line).unwrap().get_int("degraded") == Some(1) {
                                    degraded += 1;
                                }
                            }
                        }
                        _ => {}
                    }
                }
                (shed, expired, degraded)
            })
        })
        .collect();

    // Mid-soak scrapes: each body must parse, and no counter may move
    // backwards between consecutive scrapes.
    let mut previous: Option<BTreeMap<String, f64>> = None;
    for scrape in 0..4 {
        std::thread::sleep(Duration::from_millis(40));
        let (status, body) =
            raw_get(addr, "/metrics").unwrap_or_else(|e| panic!("mid-soak scrape {scrape}: {e}"));
        assert_eq!(status, 200, "mid-soak scrape {scrape}: {body}");
        let series = parse_metrics(&body, &format!("mid-soak scrape {scrape}"));
        if let Some(earlier) = &previous {
            assert_metrics_monotonic(earlier, &series, &format!("mid-soak scrape {scrape}"));
        }
        previous = Some(series);
    }

    // Quiesce: every client response is counted before it is written,
    // so once the threads join the final scrape sees all of them.
    let (mut shed, mut expired, mut degraded) = (0u64, 0u64, 0u64);
    for t in clients {
        let (s, e, d) = t.join().unwrap();
        shed += s;
        expired += e;
        degraded += d;
    }
    let (status, body) = raw_get(addr, "/metrics").unwrap();
    assert_eq!(status, 200, "final scrape: {body}");
    let series = parse_metrics(&body, "final scrape");
    assert_metrics_monotonic(previous.as_ref().unwrap(), &series, "final scrape");

    // The shed / deadline / degraded counters are exact mirrors of what
    // the clients saw on the wire.
    assert!(degraded > 0, "chaos soak produced no degraded answers");
    assert_eq!(series["planner_shed_total"] as u64, shed, "{body}");
    assert_eq!(series["planner_deadline_total"] as u64, expired, "{body}");
    assert_eq!(series["planner_degraded_total"] as u64, degraded, "{body}");

    // Histogram-sum consistency: every response — including the scrape
    // answering this assertion — was timed exactly once, and the
    // cumulative buckets account for every observation.
    let requests: f64 = series
        .iter()
        .filter(|(k, _)| k.starts_with("planner_requests_total{"))
        .map(|(_, v)| v)
        .sum();
    assert_eq!(
        requests, series["planner_request_seconds_count"],
        "per-route counts must sum to the latency histogram count: {body}"
    );
    assert_eq!(
        series["planner_request_seconds_bucket{le=\"+Inf\"}"],
        series["planner_request_seconds_count"],
        "{body}"
    );

    // The full cataloged surface is present after a real soak, and the
    // queue has drained back to empty.
    for name in [
        "planner_requests_total{",
        "planner_request_seconds_bucket{",
        "planner_request_seconds_sum",
        "planner_request_seconds_count",
        "planner_request_seconds_p50_seconds",
        "planner_request_seconds_p99_seconds",
        "planner_admitted_total",
        "planner_served_total",
        "planner_degraded_total",
        "planner_exact_total",
        "planner_exact_failures_total",
        "planner_shed_total",
        "planner_deadline_total",
        "planner_rejected_total",
        "planner_inline_total",
        "planner_breaker_state",
        "planner_breaker_trips_total",
        "planner_queue_depth",
        "planner_surfaces_loaded",
    ] {
        assert!(
            series.keys().any(|k| k.starts_with(name)),
            "cataloged series {name:?} missing from final scrape: {body}"
        );
    }
    assert_eq!(series["planner_queue_depth"], 0.0, "{body}");
    assert!(series["planner_surfaces_loaded"] > 0.0, "{body}");

    handle.drain();
}

/// Shutdown mid-flight: requests already admitted (including one the
/// stall fault is holding on the worker) are all answered before
/// `join()` returns, and the listener refuses new work afterwards.
#[test]
fn drain_answers_every_admitted_request() {
    let cfg = ServerConfig {
        deadline: Duration::from_millis(200),
        queue: 8,
        workers: 1,
        parsers: 1,
        exact_budget: Duration::from_millis(5),
        breaker_threshold: 100,
        breaker_cooldown: Duration::from_millis(50),
        fault_plan: Some(FaultPlan::parse("stall~1.0x9").unwrap()),
        ..ServerConfig::default()
    };
    let handle = serve(advisor_index(), cfg).unwrap();
    let addr = handle.addr();

    let clients: Vec<_> = (0..3)
        .map(|i| {
            std::thread::spawn(move || {
                raw_get(addr, "/plan?logical_qubits=24&device_qubits=30000&exact=1")
                    .unwrap_or_else(|e| panic!("drain client {i}: {e}"))
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(60));
    handle.shutdown();
    for (i, t) in clients.into_iter().enumerate() {
        let (status, body) = t.join().unwrap();
        assert_clean(status, &body, &format!("drain client {i}"));
    }
    handle.join();
}

/// An exact query outside the advisor's range must not reach it: the
/// advisor's work grows with the device size and nothing interrupts a
/// running computation, so at 9·10¹⁸ qubits it would hold the only
/// worker forever. It is answered from the surrogate instead, the next
/// query is served, and the server still drains.
#[test]
fn out_of_range_exact_query_cannot_wedge_the_worker() {
    let cfg = ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    };
    let handle = serve(advisor_index(), cfg).unwrap();
    let addr = handle.addr();

    // A 200 (not a 504) proves the worker answered inside the request
    // deadline; the client gives up after one second either way.
    for target in [
        "/plan?logical_qubits=24&device_qubits=9000000000000000000&exact=1",
        "/plan?logical_qubits=500&device_qubits=200&exact=1",
    ] {
        let (status, body) = raw_get_within(addr, target, Duration::from_secs(1))
            .unwrap_or_else(|e| panic!("{target}: no answer: {e}"));
        assert_clean(status, &body, target);
        assert_eq!(status, 200, "{target}: {body}");
        let row = parse_row(body.trim()).unwrap();
        assert_eq!(row.get_str("source"), Some("surface"), "{body}");
        assert_eq!(row.get_int("degraded"), Some(1), "{body}");
        assert_eq!(row.get_str("cause"), Some("out_of_range"), "{body}");
    }

    let (status, body) = raw_get_within(
        addr,
        "/plan?logical_qubits=24&device_qubits=30000",
        Duration::from_secs(1),
    )
    .unwrap_or_else(|e| panic!("surrogate query after the out-of-range ones: {e}"));
    assert_eq!(status, 200, "{body}");
    // Refused before the exact path: neither an attempt nor a failure.
    let stats = handle.stats();
    assert_eq!(stats.exact.load(std::sync::atomic::Ordering::SeqCst), 0);
    assert_eq!(
        stats
            .exact_failures
            .load(std::sync::atomic::Ordering::SeqCst),
        0
    );

    // A wedged worker would block the drain's join forever, so wait on
    // it from another thread with a timeout.
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        handle.drain();
        let _ = done_tx.send(());
    });
    done_rx
        .recv_timeout(Duration::from_secs(5))
        .expect("drain returned within 5 s");
}

/// The full baseline index serves `/surfaces` and a figure-surface
/// lookup end to end (the same startup path CI's planner job uses).
#[test]
fn serves_the_checked_in_baseline_surfaces() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../ci/baselines");
    let index = SurfaceIndex::load(&dir).unwrap();
    let handle = serve(index, ServerConfig::default()).unwrap();
    let addr = handle.addr();

    let (status, body) = raw_get(addr, "/surfaces").unwrap();
    assert_eq!(status, 200);
    assert!(
        body.lines().count() > 4,
        "expected many baseline surfaces, got: {body}"
    );
    assert!(body.contains("fig05/pqec_win_fraction"), "{body}");

    let (status, body) = raw_get(
        addr,
        "/lookup?surface=fig05/pqec_win_fraction&device_qubits=10000&logical_qubits=12",
    )
    .unwrap();
    assert_eq!(status, 200, "{body}");
    let row = parse_row(body.trim()).unwrap();
    let value = row.get_num("value").unwrap();
    assert!((0.0..=1.0).contains(&value), "{body}");

    let (status, _) = raw_get(addr, "/readyz").unwrap();
    assert_eq!(status, 200);
    handle.drain();
}

/// Child-process body for the SIGTERM test: serves the advisor index
/// with a stall-everything fault plan until SIGTERM, drains, then
/// writes a completion marker. A no-op under a normal test run.
#[test]
fn helper_planner_sigterm_child() {
    let Ok(state_dir) = std::env::var("EFTQ_PLANNER_TEST_DIR") else {
        return;
    };
    let state_dir = PathBuf::from(state_dir);
    eft_vqa_repro::planner::install_sigterm_drain();
    let cfg = ServerConfig {
        deadline: Duration::from_millis(200),
        exact_budget: Duration::from_millis(5),
        fault_plan: Some(FaultPlan::parse("stall~1.0x9").unwrap()),
        ..ServerConfig::default()
    };
    let handle = serve(advisor_index(), cfg).unwrap();
    std::fs::write(state_dir.join("addr"), handle.addr().to_string()).unwrap();
    while !eft_vqa_repro::planner::sigterm_drain_requested() {
        std::thread::sleep(Duration::from_millis(10));
    }
    handle.drain();
    std::fs::write(state_dir.join("drained"), "clean\n").unwrap();
}

/// SIGTERM against a live child process: the in-flight (stalled)
/// request is still answered, the child exits 0, and its drain marker
/// proves `join()` completed.
#[test]
#[cfg(unix)]
fn sigterm_drains_a_live_server_process() {
    let state_dir = tmp("sigterm-state");
    let _ = std::fs::remove_dir_all(&state_dir);
    std::fs::create_dir_all(&state_dir).unwrap();

    let mut child = Command::new(std::env::current_exe().unwrap())
        .args(["helper_planner_sigterm_child", "--exact", "--nocapture"])
        .env("EFTQ_PLANNER_TEST_DIR", state_dir.to_str().unwrap())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn sigterm helper");

    // Wait for the child's listener.
    let addr_path = state_dir.join("addr");
    let deadline = Instant::now() + Duration::from_secs(30);
    let addr: SocketAddr = loop {
        if let Ok(text) = std::fs::read_to_string(&addr_path) {
            if let Ok(addr) = text.trim().parse() {
                break addr;
            }
        }
        assert!(
            Instant::now() < deadline,
            "helper never published its address"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    let (status, _) = raw_get(addr, "/readyz").unwrap();
    assert_eq!(status, 200);

    // Park a stalled exact request on the worker, then SIGTERM.
    let inflight = std::thread::spawn(move || {
        raw_get(addr, "/plan?logical_qubits=24&device_qubits=30000&exact=1")
    });
    std::thread::sleep(Duration::from_millis(60));
    let killed = Command::new("sh")
        .args(["-c", &format!("kill -TERM {}", child.id())])
        .status()
        .expect("run kill");
    assert!(killed.success(), "kill -TERM failed");

    // The in-flight request is answered despite the drain.
    let (status, body) = inflight.join().unwrap().expect("in-flight answered");
    assert_clean(status, &body, "in-flight during SIGTERM");

    // The child exits cleanly once drained.
    let exit_deadline = Instant::now() + Duration::from_secs(30);
    let exit = loop {
        if let Some(st) = child.try_wait().expect("try_wait") {
            break st;
        }
        assert!(
            Instant::now() < exit_deadline,
            "child did not exit after SIGTERM"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(exit.success(), "child exited {exit:?}");
    let marker = std::fs::read_to_string(state_dir.join("drained")).expect("drain marker");
    assert_eq!(marker.trim(), "clean");
}
