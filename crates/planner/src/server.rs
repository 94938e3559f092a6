//! The planner query server: deadlines, admission control, degradation.
//!
//! Request lifecycle:
//!
//! 1. **Accept.** A non-blocking acceptor stamps each connection with
//!    its arrival instant and `try_send`s it to the parse stage over a
//!    bounded channel. A full channel means the parse stage is
//!    saturated: the acceptor reads the request for at most 25 ms,
//!    answers `/healthz`, `/readyz` and `/metrics` itself, and sheds
//!    everything else with an immediate 429 counted under its route —
//!    the one state this server never enters is "accepted but silent".
//! 2. **Parse + route.** Parse threads read the request through a
//!    reader that stops at the request's deadline, measured from
//!    arrival, and at [`crate::http::MAX_HEAD_BYTES`]; a request cut off
//!    by either cap is answered 400. `/healthz`, `/readyz`, `/surfaces`
//!    and `/metrics` (Prometheus text format) are answered inline —
//!    observability stays live however overloaded the evaluation stage
//!    is. Query endpoints are admitted to the bounded work queue; a full
//!    queue sheds with 429.
//! 3. **Evaluate.** Worker threads answer from the surrogate index in
//!    microseconds. A request older than its deadline is answered with
//!    a structured 504 *without* evaluating. `/plan?exact=1` recomputes
//!    the plan exactly on every query, guarded by the input bound
//!    ([`EXACT_MAX_DEVICE_QUBITS`]), the remaining deadline, a
//!    [`CircuitBreaker`], `catch_unwind`, and the chaos harness
//!    (`EFT_FAULT_PLAN` plants faults exactly like the sweep runner);
//!    every refusal or exact failure degrades to the clamped surrogate
//!    answer with `degraded: 1` and a `cause`, never an error.
//! 4. **Drain.** SIGTERM (or [`ServerHandle::shutdown`]) stops the
//!    acceptor, lets every admitted request finish, then joins all
//!    stages. In-flight work is completed, not dropped.

use std::io::{BufReader, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use eft_vqa::advisor::plan;
use eft_vqa::fidelity::Workload;
use eftq_numerics::SeedSequence;
use eftq_qec::DeviceModel;
use eftq_sweep::chaos::inject;
use eftq_sweep::{FaultPlan, Row};

use crate::breaker::CircuitBreaker;
use crate::http::{
    read_request, write_response, write_response_with_type, Request, METRICS_CONTENT_TYPE,
};
use crate::index::{metric_strategy, strategy_metric, SurfaceIndex, ADVISOR_METRICS, ADVISOR_SPEC};

/// Row label of error responses (shed, deadline, bad request).
pub const ERROR_LABEL: &str = "~planner-error";

/// Row label of health/readiness responses.
pub const HEALTH_LABEL: &str = "~planner-health";

/// Largest `device_qubits` that `/plan?exact=1` recomputes exactly.
///
/// The advisor's qec-conventional model scans every factory count the
/// device fits, so its work grows linearly with the device: about 2 ms
/// here, inside the default 50 ms exact budget. Nothing can interrupt a
/// running computation, so a larger device (or a program with more
/// logical than physical qubits) is answered from the surrogate with
/// `cause: "out_of_range"` instead of occupying a worker indefinitely.
pub const EXACT_MAX_DEVICE_QUBITS: i64 = 10_000_000;

/// Process-global SIGTERM latch (see [`install_sigterm_drain`]).
static SIGTERM_DRAIN: AtomicBool = AtomicBool::new(false);

/// How the server runs; [`ServerConfig::default`] suits tests and local
/// serving.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Listen address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Per-request wall-clock deadline, measured from accept.
    pub deadline: Duration,
    /// Bound of the admission queue (and of the accept queue feeding
    /// the parse stage). Requests beyond it shed with 429.
    pub queue: usize,
    /// Evaluation worker threads.
    pub workers: usize,
    /// Parse/route threads.
    pub parsers: usize,
    /// Minimum remaining deadline to attempt exact recomputation; with
    /// less left, `/plan?exact=1` degrades straight to the surrogate.
    pub exact_budget: Duration,
    /// Consecutive exact failures that trip the circuit breaker.
    pub breaker_threshold: u32,
    /// How long a tripped breaker rejects exact attempts.
    pub breaker_cooldown: Duration,
    /// Chaos faults planted into exact-compute requests (request
    /// counter plays the point id). `None` in production.
    pub fault_plan: Option<FaultPlan>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            deadline: Duration::from_millis(250),
            queue: 64,
            workers: 4,
            parsers: 2,
            exact_budget: Duration::from_millis(50),
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_secs(2),
            fault_plan: None,
        }
    }
}

/// Load-shedding and serving counters (all monotonic).
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Requests admitted to the work queue.
    pub admitted: AtomicU64,
    /// 200 responses (including degraded ones).
    pub served: AtomicU64,
    /// 200 responses stamped `degraded`.
    pub degraded: AtomicU64,
    /// Responses answered from the exact path.
    pub exact: AtomicU64,
    /// Exact attempts that failed (panic or overrun).
    pub exact_failures: AtomicU64,
    /// 429 responses (admission or accept queue full).
    pub shed: AtomicU64,
    /// 504 responses (deadline passed before evaluation).
    pub expired: AtomicU64,
    /// 400/404 responses.
    pub rejected: AtomicU64,
    /// Health/readiness/surfaces requests answered inline.
    pub inline: AtomicU64,
}

/// A running server; dropping the handle does *not* stop it — call
/// [`ServerHandle::shutdown`] then [`ServerHandle::join`] (or
/// [`ServerHandle::drain`]).
pub struct ServerHandle {
    addr: SocketAddr,
    drain: Arc<AtomicBool>,
    stats: Arc<ServerStats>,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound listen address (with the real port for `:0` configs).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The live serving counters.
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// Requests the drain: the acceptor stops, admitted requests
    /// finish. Returns immediately; [`ServerHandle::join`] waits.
    pub fn shutdown(&self) {
        self.drain.store(true, Ordering::SeqCst);
    }

    /// Waits for every stage to finish (all in-flight requests
    /// answered).
    pub fn join(self) {
        for t in self.threads {
            let _ = t.join();
        }
    }

    /// [`ServerHandle::shutdown`] + [`ServerHandle::join`].
    pub fn drain(self) {
        self.shutdown();
        self.join();
    }
}

/// Installs a SIGTERM handler that requests a drain on every server in
/// the process (servers poll the same latch the handler sets). Returns
/// whether the handler was installed (non-unix platforms skip it).
pub fn install_sigterm_drain() -> bool {
    #[cfg(unix)]
    {
        // Raw libc signal(2) through the symbols std already links —
        // the handler only stores to an atomic, which is async-signal
        // safe. No external crate needed.
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        extern "C" fn on_sigterm(_signum: i32) {
            SIGTERM_DRAIN.store(true, Ordering::SeqCst);
        }
        const SIGTERM: i32 = 15;
        const SIG_ERR: usize = usize::MAX;
        unsafe { signal(SIGTERM, on_sigterm as *const () as usize) != SIG_ERR }
    }
    #[cfg(not(unix))]
    {
        false
    }
}

/// Whether a SIGTERM drain has been requested for this process.
pub fn sigterm_drain_requested() -> bool {
    SIGTERM_DRAIN.load(Ordering::SeqCst)
}

/// One admitted unit of work: a parsed request plus its connection and
/// arrival stamp.
struct Job {
    stream: TcpStream,
    request: Request,
    arrival: Instant,
}

/// Everything the route handlers need, shared across stages.
struct Engine {
    index: SurfaceIndex,
    cfg: ServerConfig,
    stats: Arc<ServerStats>,
    drain: Arc<AtomicBool>,
    breaker: Mutex<CircuitBreaker>,
    /// Chaos derivation node (same construction as the sweep runner).
    chaos: SeedSequence,
    /// Monotonic request id: the chaos plan's "point id".
    request_ids: AtomicU64,
    /// Per-server metrics registry behind `/metrics` (never global, so
    /// parallel test servers cannot share counters).
    metrics: eftq_obs::Registry,
    /// Request-latency histogram handle, cached off the registry lock
    /// (the per-response hot path).
    request_seconds: Arc<eftq_obs::Histogram>,
    /// Admission-queue depth gauge: +1 on admit, -1 on worker pickup.
    queue_depth: Arc<eftq_obs::Gauge>,
}

/// The bounded route label of a request path — unknown paths collapse
/// to `-` so a scanning client cannot mint unbounded metric series.
fn route_label(path: &str) -> &'static str {
    match path {
        "/plan" => "/plan",
        "/lookup" => "/lookup",
        "/healthz" => "/healthz",
        "/readyz" => "/readyz",
        "/surfaces" => "/surfaces",
        "/metrics" => "/metrics",
        _ => "-",
    }
}

impl Engine {
    fn draining(&self) -> bool {
        self.drain.load(Ordering::SeqCst) || sigterm_drain_requested()
    }

    /// Answers one of the inline routes (`/healthz`, `/readyz`,
    /// `/surfaces`, `/metrics`) without admission.
    fn answer_inline(&self, route: &str, stream: &mut TcpStream, arrival: Instant) {
        self.stats.inline.fetch_add(1, Ordering::Relaxed);
        let (status, body) = match route {
            "/healthz" => (200, jsonl(&self.health_row())),
            "/readyz" if self.draining() => error_response(503, "draining", "server is draining"),
            "/readyz" if self.index.is_empty() => {
                error_response(503, "not_ready", "surface index is empty")
            }
            "/readyz" => (200, jsonl(&Row::new(HEALTH_LABEL).str("status", "ready"))),
            "/surfaces" => (
                200,
                self.index
                    .names()
                    .map(|n| jsonl(&Row::new("planner_surface").str("surface", n)))
                    .collect(),
            ),
            "/metrics" => {
                // Count the scrape before rendering, so the body a
                // scraper receives already includes its own request.
                self.observe(route, 200, arrival);
                let body = self.metrics_body();
                let _ = write_response_with_type(stream, 200, METRICS_CONTENT_TYPE, &body);
                return;
            }
            other => unreachable!("{other} is not an inline route"),
        };
        self.observe(route, status, arrival);
        let _ = write_response(stream, status, &body);
    }

    /// Records one finished response: the per-route/status request
    /// counter plus the end-to-end latency measured from accept. Every
    /// path that writes a response calls this exactly once, so the sum
    /// of `planner_requests_total` always equals the latency
    /// histogram's `_count`.
    fn observe(&self, route: &str, status: u16, arrival: Instant) {
        self.metrics
            .counter_with(
                "planner_requests_total",
                &[("route", route), ("status", &status.to_string())],
            )
            .inc();
        let ns = u64::try_from(arrival.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.request_seconds.observe_ns(ns);
    }

    /// The `/metrics` body: mirrors the server's own atomic counters
    /// into the registry (monotone `raise_to`, so a racing scrape never
    /// sees a series go backwards), stamps the state gauges, and
    /// renders the whole registry in Prometheus text format.
    fn metrics_body(&self) -> String {
        let s = &self.stats;
        for (name, value) in [
            ("planner_admitted_total", &s.admitted),
            ("planner_served_total", &s.served),
            ("planner_degraded_total", &s.degraded),
            ("planner_exact_total", &s.exact),
            ("planner_exact_failures_total", &s.exact_failures),
            ("planner_shed_total", &s.shed),
            ("planner_deadline_total", &s.expired),
            ("planner_rejected_total", &s.rejected),
            ("planner_inline_total", &s.inline),
        ] {
            self.metrics
                .counter(name)
                .raise_to(value.load(Ordering::Relaxed));
        }
        {
            let breaker = self.breaker.lock().expect("breaker poisoned");
            self.metrics
                .gauge("planner_breaker_state")
                .set(breaker.state_code(Instant::now()));
            self.metrics
                .counter("planner_breaker_trips_total")
                .raise_to(breaker.trips());
        }
        self.metrics
            .gauge("planner_surfaces_loaded")
            .set(self.index.len() as i64);
        self.metrics.render_prometheus()
    }

    /// Answers one routed request: `(status, JSONL body)`.
    fn answer(&self, request: &Request, arrival: Instant) -> (u16, String) {
        match request.path.as_str() {
            "/plan" => self.answer_plan(request, arrival),
            "/lookup" => self.answer_lookup(request),
            other => error_response(404, "unknown_path", &format!("no route for {other}")),
        }
    }

    /// `/lookup?surface=<spec>/<metric>&<axis>=<value>...` — raw
    /// surrogate surface evaluation.
    fn answer_lookup(&self, request: &Request) -> (u16, String) {
        let Some(name) = request.param("surface") else {
            return error_response(400, "bad_request", "missing surface=<spec>/<metric>");
        };
        let Some(family) = self.index.get(name) else {
            return error_response(404, "unknown_surface", &format!("no surface '{name}'"));
        };
        // Categorical axes select the variant.
        let mut key: Vec<&str> = Vec::new();
        for axis in family.categorical_axes() {
            match request.param(axis) {
                Some(v) => key.push(v),
                None => {
                    return error_response(
                        400,
                        "bad_request",
                        &format!("missing categorical axis {axis}=<value>"),
                    )
                }
            }
        }
        let Some(surface) = family.surface(&key) else {
            return error_response(
                404,
                "unknown_variant",
                &format!("no variant {key:?} of '{name}'"),
            );
        };
        let mut query = Vec::with_capacity(surface.axes().len());
        for axis in surface.axes() {
            let Some(raw) = request.param(&axis.name) else {
                return error_response(
                    400,
                    "bad_request",
                    &format!("missing axis {}=<number>", axis.name),
                );
            };
            match raw.parse::<f64>() {
                Ok(v) if v.is_finite() => query.push(v),
                _ => {
                    return error_response(
                        400,
                        "bad_request",
                        &format!("axis {} wants a finite number, got '{raw}'", axis.name),
                    )
                }
            }
        }
        let hit = surface.eval(&query);
        let mut row = Row::new("planner_lookup")
            .str("surface", name)
            .num("value", hit.value)
            .int("degraded", i64::from(hit.clamped));
        for (axis, q) in surface.axes().iter().zip(&query) {
            row = row.num(&axis.name, *q);
        }
        self.stats.served.fetch_add(1, Ordering::Relaxed);
        if hit.clamped {
            self.stats.degraded.fetch_add(1, Ordering::Relaxed);
        }
        (200, jsonl(&row))
    }

    /// `/plan?logical_qubits=N&device_qubits=M[&exact=1]` — the advisor
    /// query, surrogate-first with guarded exact recomputation.
    fn answer_plan(&self, request: &Request, arrival: Instant) -> (u16, String) {
        let n = match positive_int_param(request, "logical_qubits") {
            Ok(v) => v,
            Err(resp) => return resp,
        };
        let dq = match positive_int_param(request, "device_qubits") {
            Ok(v) => v,
            Err(resp) => return resp,
        };
        let wants_exact = matches!(request.param("exact"), Some("1") | Some("true"));

        // Surrogate answer first: it is both the fast path and the
        // degraded fallback, so compute it unconditionally (a few
        // hundred nanoseconds per metric).
        let mut surrogate_best: Option<(&str, f64)> = None;
        let mut clamped = false;
        for metric in ADVISOR_METRICS {
            let Some(surface) = self
                .index
                .get(&format!("{ADVISOR_SPEC}/{metric}"))
                .and_then(|f| f.surface(&[]))
            else {
                return error_response(503, "not_ready", "advisor surfaces not loaded");
            };
            let hit = surface.eval(&[dq as f64, n as f64]);
            clamped |= hit.clamped;
            if surrogate_best.is_none() || hit.value > surrogate_best.unwrap().1 {
                surrogate_best = Some((metric, hit.value));
            }
        }
        let (surrogate_metric, surrogate_fidelity) =
            surrogate_best.expect("ADVISOR_METRICS is non-empty");

        let respond = |source: &str, strategy: &str, fidelity: f64, degraded: bool, cause: &str| {
            let mut row = Row::new("planner_plan")
                .int("logical_qubits", n)
                .int("device_qubits", dq)
                .str("strategy", strategy)
                .num("fidelity", fidelity)
                .str("source", source)
                .int("degraded", i64::from(degraded));
            if !cause.is_empty() {
                row = row.str("cause", cause);
            }
            self.stats.served.fetch_add(1, Ordering::Relaxed);
            if degraded {
                self.stats.degraded.fetch_add(1, Ordering::Relaxed);
            }
            (200, jsonl(&row))
        };
        let degrade = |cause: &str| {
            respond(
                "surface",
                metric_strategy(surrogate_metric),
                surrogate_fidelity,
                true,
                cause,
            )
        };

        if !wants_exact {
            // The pure surrogate answer: degraded only when the query
            // left the sampled region (nearest-surface extrapolation).
            return respond(
                "surface",
                metric_strategy(surrogate_metric),
                surrogate_fidelity,
                clamped,
                if clamped { "extrapolated" } else { "" },
            );
        }

        // Exact path: input bound, deadline check, then breaker, then
        // guarded compute. Every refusal degrades to the surrogate answer.
        if n > dq || dq > EXACT_MAX_DEVICE_QUBITS {
            return degrade("out_of_range");
        }
        let elapsed = arrival.elapsed();
        if self.cfg.deadline.saturating_sub(elapsed) < self.cfg.exact_budget {
            return degrade("deadline");
        }
        let now = Instant::now();
        if !self.breaker.lock().expect("breaker poisoned").allow(now) {
            return degrade("breaker_open");
        }

        let request_id = self.request_ids.fetch_add(1, Ordering::Relaxed) as usize;
        let fault = self
            .cfg
            .fault_plan
            .as_ref()
            .and_then(|p| p.fault_for(&self.chaos, request_id, 1));
        let deadline_secs = self.cfg.deadline.as_secs_f64();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if let Some(kind) = fault {
                inject(kind, request_id, Some(deadline_secs));
            }
            plan(
                &Workload::fche(n as usize, 1),
                &DeviceModel::new(dq as usize, crate::index::ADVISOR_P_PHYS),
            )
        }));
        let mut breaker = self.breaker.lock().expect("breaker poisoned");
        match outcome {
            Ok(exact_plan) if arrival.elapsed() <= self.cfg.deadline => {
                breaker.record_success();
                drop(breaker);
                self.stats.exact.fetch_add(1, Ordering::Relaxed);
                let best = exact_plan.best();
                respond(
                    "exact",
                    metric_strategy(strategy_metric(&best.strategy)),
                    best.fidelity,
                    false,
                    "",
                )
            }
            Ok(_) => {
                // Completed past the deadline (a stall): this response
                // must not pretend the latency was acceptable.
                breaker.record_failure(Instant::now());
                drop(breaker);
                self.stats.exact_failures.fetch_add(1, Ordering::Relaxed);
                degrade("exact_overrun")
            }
            Err(_) => {
                breaker.record_failure(Instant::now());
                drop(breaker);
                self.stats.exact_failures.fetch_add(1, Ordering::Relaxed);
                degrade("exact_failed")
            }
        }
    }

    /// `/healthz` — liveness plus the counters; always 200 while any
    /// stage is alive.
    fn health_row(&self) -> Row {
        let s = &self.stats;
        Row::new(HEALTH_LABEL)
            .str("status", if self.draining() { "draining" } else { "live" })
            .int("surfaces", self.index.len() as i64)
            .int("admitted", s.admitted.load(Ordering::Relaxed) as i64)
            .int("served", s.served.load(Ordering::Relaxed) as i64)
            .int("degraded", s.degraded.load(Ordering::Relaxed) as i64)
            .int("exact", s.exact.load(Ordering::Relaxed) as i64)
            .int(
                "exact_failures",
                s.exact_failures.load(Ordering::Relaxed) as i64,
            )
            .int("shed", s.shed.load(Ordering::Relaxed) as i64)
            .int("expired", s.expired.load(Ordering::Relaxed) as i64)
            .int(
                "breaker_trips",
                self.breaker.lock().expect("breaker poisoned").trips() as i64,
            )
    }
}

/// Starts the server and returns once the listener is bound.
///
/// # Errors
///
/// Returns a message when the listen address cannot be bound.
pub fn serve(index: SurfaceIndex, cfg: ServerConfig) -> Result<ServerHandle, String> {
    let listener =
        TcpListener::bind(&cfg.addr).map_err(|e| format!("cannot bind {}: {e}", cfg.addr))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("cannot read bound address: {e}"))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("cannot set nonblocking: {e}"))?;

    let drain = Arc::new(AtomicBool::new(false));
    let stats = Arc::new(ServerStats::default());
    let metrics = eftq_obs::Registry::new();
    let request_seconds = metrics.histogram("planner_request_seconds");
    let queue_depth = metrics.gauge("planner_queue_depth");
    let engine = Arc::new(Engine {
        chaos: SeedSequence::new(eftq_sweep::DEFAULT_SWEEP_SEED)
            .derive("planner")
            .derive("~chaos"),
        breaker: Mutex::new(CircuitBreaker::new(
            cfg.breaker_threshold,
            cfg.breaker_cooldown,
        )),
        request_ids: AtomicU64::new(0),
        index,
        stats: Arc::clone(&stats),
        drain: Arc::clone(&drain),
        cfg,
        metrics,
        request_seconds,
        queue_depth,
    });

    // Accept stage → parse stage: bounded, stamped with arrival.
    let (conn_tx, conn_rx) = mpsc::sync_channel::<(TcpStream, Instant)>(engine.cfg.queue);
    let conn_rx = Arc::new(Mutex::new(conn_rx));
    // Parse stage → evaluation stage: the admission queue proper.
    let (work_tx, work_rx) = mpsc::sync_channel::<Job>(engine.cfg.queue);
    let work_rx = Arc::new(Mutex::new(work_rx));

    let mut threads = Vec::new();

    // Acceptor.
    {
        let engine = Arc::clone(&engine);
        threads.push(std::thread::spawn(move || {
            loop {
                if engine.draining() {
                    break;
                }
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        let arrival = Instant::now();
                        if let Err(mpsc::TrySendError::Full((mut stream, _))) =
                            conn_tx.try_send((stream, arrival))
                        {
                            // Parse stage saturated. Drain the (unread)
                            // request first — closing a socket with
                            // unread bytes RSTs and the peer would lose
                            // the response. Its bytes name the route:
                            // health, readiness and metrics are answered
                            // here, the rest shed with 429 under their
                            // route.
                            let _ = stream.set_nonblocking(false);
                            let route = read_request(&mut BufReader::new(DeadlineReader {
                                stream: &stream,
                                deadline: Instant::now() + Duration::from_millis(25),
                            }))
                            .ok()
                            .flatten()
                            .map_or("-", |r| route_label(&r.path));
                            if let "/healthz" | "/readyz" | "/metrics" = route {
                                engine.answer_inline(route, &mut stream, arrival);
                            } else {
                                engine.stats.shed.fetch_add(1, Ordering::Relaxed);
                                let (status, body) =
                                    error_response(429, "shed", "accept queue full");
                                engine.observe(route, status, arrival);
                                let _ = write_response(&mut stream, status, &body);
                            }
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(2)),
                }
            }
            // conn_tx drops here: parse threads drain the backlog and
            // exit, cascading the drain through the pipeline.
        }));
    }

    // Parse/route stage.
    for _ in 0..engine.cfg.parsers.max(1) {
        let engine = Arc::clone(&engine);
        let conn_rx = Arc::clone(&conn_rx);
        let work_tx = work_tx.clone();
        threads.push(std::thread::spawn(move || loop {
            let received = conn_rx.lock().expect("conn queue poisoned").recv();
            let Ok((mut stream, arrival)) = received else {
                break; // acceptor gone and backlog drained
            };
            // The whole read, not each `read` call, must finish by the
            // request deadline: a client that drips its bytes holds
            // this parser for at most that long.
            let _ = stream.set_nonblocking(false);
            let mut reader = BufReader::new(DeadlineReader {
                stream: &stream,
                deadline: arrival + engine.cfg.deadline,
            });
            let request = match read_request(&mut reader) {
                Ok(Some(r)) => r,
                Ok(None) => continue, // closed without a request
                Err(reason) => {
                    engine.stats.rejected.fetch_add(1, Ordering::Relaxed);
                    let (status, body) = error_response(400, "bad_request", &reason);
                    engine.observe("-", status, arrival);
                    let _ = write_response(&mut stream, status, &body);
                    continue;
                }
            };
            let route = route_label(&request.path);
            match route {
                // Health and metrics endpoints bypass admission
                // entirely: observability must answer while the
                // evaluation stage is saturated.
                "/healthz" | "/readyz" | "/surfaces" | "/metrics" => {
                    engine.answer_inline(route, &mut stream, arrival);
                }
                _ => {
                    let job = Job {
                        stream,
                        request,
                        arrival,
                    };
                    match work_tx.try_send(job) {
                        Ok(()) => {
                            engine.stats.admitted.fetch_add(1, Ordering::Relaxed);
                            engine.queue_depth.add(1);
                        }
                        Err(mpsc::TrySendError::Full(mut job)) => {
                            engine.stats.shed.fetch_add(1, Ordering::Relaxed);
                            let (status, body) =
                                error_response(429, "shed", "admission queue full");
                            engine.observe(route, status, arrival);
                            let _ = write_response(&mut job.stream, status, &body);
                        }
                        Err(mpsc::TrySendError::Disconnected(mut job)) => {
                            let (status, body) =
                                error_response(503, "draining", "evaluation stage stopped");
                            engine.observe(route, status, arrival);
                            let _ = write_response(&mut job.stream, status, &body);
                        }
                    }
                }
            }
        }));
    }
    drop(work_tx);

    // Evaluation stage.
    for _ in 0..engine.cfg.workers.max(1) {
        let engine = Arc::clone(&engine);
        let work_rx = Arc::clone(&work_rx);
        threads.push(std::thread::spawn(move || loop {
            let job = work_rx.lock().expect("work queue poisoned").recv();
            let Ok(mut job) = job else {
                break; // parse stage gone and queue drained
            };
            engine.queue_depth.add(-1);
            // An admitted request always gets a response — but one that
            // aged out in the queue gets the structured deadline error,
            // not a stale evaluation.
            let (status, body) = if job.arrival.elapsed() > engine.cfg.deadline {
                engine.stats.expired.fetch_add(1, Ordering::Relaxed);
                error_response(
                    504,
                    "deadline",
                    &format!(
                        "request spent {:.0?} in queue, deadline {:.0?}",
                        job.arrival.elapsed(),
                        engine.cfg.deadline
                    ),
                )
            } else {
                let answered = engine.answer(&job.request, job.arrival);
                if answered.0 == 400 || answered.0 == 404 {
                    engine.stats.rejected.fetch_add(1, Ordering::Relaxed);
                }
                answered
            };
            engine.observe(route_label(&job.request.path), status, job.arrival);
            let _ = write_response(&mut job.stream, status, &body);
        }));
    }

    Ok(ServerHandle {
        addr,
        drain,
        stats,
        threads,
    })
}

/// Reads a socket until a fixed instant: before every `read` it sets the
/// socket timeout to the time left, and it fails with `TimedOut` once no
/// time is left. A per-call timeout alone would let a client that sends
/// one byte per timeout hold the reader indefinitely.
struct DeadlineReader<'a> {
    stream: &'a TcpStream,
    deadline: Instant,
}

impl Read for DeadlineReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let left = self.deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                "request deadline passed",
            ));
        }
        self.stream.set_read_timeout(Some(left))?;
        self.stream.read(buf)
    }
}

/// Serializes a row as one JSONL line.
fn jsonl(row: &Row) -> String {
    let mut line = row.to_json_row();
    line.push('\n');
    line
}

/// A structured error body: `(status, row)` with a machine-readable
/// cause.
fn error_response(status: u16, cause: &str, message: &str) -> (u16, String) {
    (
        status,
        jsonl(
            &Row::new(ERROR_LABEL)
                .int("status", i64::from(status))
                .str("cause", cause)
                .str("message", message),
        ),
    )
}

/// Parses a required positive integer query parameter.
fn positive_int_param(request: &Request, key: &str) -> Result<i64, (u16, String)> {
    let Some(raw) = request.param(key) else {
        return Err(error_response(
            400,
            "bad_request",
            &format!("missing {key}=<positive integer>"),
        ));
    };
    match raw.parse::<i64>() {
        Ok(v) if v > 0 => Ok(v),
        _ => Err(error_response(
            400,
            "bad_request",
            &format!("{key} wants a positive integer, got '{raw}'"),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, Write};

    fn test_index() -> SurfaceIndex {
        let mut index = SurfaceIndex::new();
        index.add_advisor_grid().unwrap();
        index
    }

    fn get(addr: SocketAddr, target: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET {target} HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let mut reader = BufReader::new(stream);
        let mut status_line = String::new();
        reader.read_line(&mut status_line).unwrap();
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .unwrap()
            .parse()
            .unwrap();
        let mut line = String::new();
        while reader.read_line(&mut line).unwrap() > 0 {
            if line.trim_end().is_empty() {
                break;
            }
            line.clear();
        }
        let mut body = String::new();
        use std::io::Read;
        reader.read_to_string(&mut body).unwrap();
        (status, body)
    }

    #[test]
    fn serves_plan_lookup_health_and_drains() {
        let handle = serve(test_index(), ServerConfig::default()).unwrap();
        let addr = handle.addr();

        let (status, body) = get(addr, "/plan?logical_qubits=24&device_qubits=30000");
        assert_eq!(status, 200, "{body}");
        let row = eftq_sweep::jsonl::parse_row(body.trim()).unwrap();
        assert_eq!(row.label(), "planner_plan");
        assert_eq!(row.get_int("degraded"), Some(0));
        assert_eq!(row.get_str("source"), Some("surface"));
        assert!(row.get_num("fidelity").unwrap() > 0.0);

        // Off-grid queries degrade instead of failing.
        let (status, body) = get(addr, "/plan?logical_qubits=500&device_qubits=999999");
        assert_eq!(status, 200);
        let row = eftq_sweep::jsonl::parse_row(body.trim()).unwrap();
        assert_eq!(row.get_int("degraded"), Some(1));
        assert_eq!(row.get_str("cause"), Some("extrapolated"));

        // Exact recompute agrees with the library advisor.
        let (status, body) = get(addr, "/plan?logical_qubits=24&device_qubits=30000&exact=1");
        assert_eq!(status, 200);
        let row = eftq_sweep::jsonl::parse_row(body.trim()).unwrap();
        assert_eq!(row.get_str("source"), Some("exact"), "{body}");
        let exact = plan(
            &Workload::fche(24, 1),
            &DeviceModel::new(30_000, crate::index::ADVISOR_P_PHYS),
        );
        assert!((row.get_num("fidelity").unwrap() - exact.best().fidelity).abs() < 1e-12);

        let (status, body) = get(
            addr,
            "/lookup?surface=planner_advisor/f_nisq&device_qubits=10000&logical_qubits=12",
        );
        assert_eq!(status, 200, "{body}");

        let (status, _) = get(addr, "/healthz");
        assert_eq!(status, 200);
        let (status, _) = get(addr, "/readyz");
        assert_eq!(status, 200);
        let (status, body) = get(addr, "/lookup?surface=nope/nope");
        assert_eq!(status, 404, "{body}");
        let (status, _) = get(addr, "/plan?logical_qubits=-3&device_qubits=10");
        assert_eq!(status, 400);
        let (status, _) = get(addr, "/wat");
        assert_eq!(status, 404);

        handle.drain();
    }

    #[test]
    fn metrics_endpoint_renders_prometheus_text() {
        let handle = serve(test_index(), ServerConfig::default()).unwrap();
        let addr = handle.addr();
        let _ = get(addr, "/plan?logical_qubits=24&device_qubits=30000");
        let _ = get(addr, "/plan?logical_qubits=-3&device_qubits=10");
        let _ = get(addr, "/healthz");

        // Raw request: the content type must be the text exposition
        // format, not JSONL.
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let mut raw = String::new();
        use std::io::Read;
        stream.read_to_string(&mut raw).unwrap();
        assert!(
            raw.contains("Content-Type: text/plain; version=0.0.4\r\n"),
            "{raw}"
        );
        let body = raw.split("\r\n\r\n").nth(1).unwrap();

        assert!(
            body.contains("# TYPE planner_requests_total counter"),
            "{body}"
        );
        assert!(
            body.contains(r#"planner_requests_total{route="/plan",status="200"} 1"#),
            "{body}"
        );
        assert!(
            body.contains(r#"planner_requests_total{route="/plan",status="400"} 1"#),
            "{body}"
        );
        assert!(
            body.contains(r#"planner_requests_total{route="/metrics",status="200"} 1"#),
            "the scrape counts itself: {body}"
        );
        for series in [
            "planner_request_seconds_bucket",
            "planner_request_seconds_sum",
            "planner_request_seconds_count",
            "planner_request_seconds_p50_seconds",
            "planner_request_seconds_p99_seconds",
            "planner_breaker_state 0",
            "planner_breaker_trips_total 0",
            "planner_queue_depth",
            "planner_surfaces_loaded",
            "planner_served_total",
            "planner_shed_total",
            "planner_deadline_total",
            "planner_degraded_total",
        ] {
            assert!(body.contains(series), "missing {series}: {body}");
        }
        // The latency histogram and the request counters agree: every
        // response was observed exactly once.
        let count: f64 = body
            .lines()
            .find(|l| l.starts_with("planner_request_seconds_count"))
            .and_then(|l| l.rsplit_once(' '))
            .unwrap()
            .1
            .parse()
            .unwrap();
        let by_route: f64 = body
            .lines()
            .filter(|l| l.starts_with("planner_requests_total{"))
            .map(|l| l.rsplit_once(' ').unwrap().1.parse::<f64>().unwrap())
            .sum();
        assert_eq!(count, by_route, "{body}");
        // Every non-comment line parses as `series value`.
        for line in body.lines() {
            if line.starts_with('#') || line.is_empty() {
                continue;
            }
            let (_, value) = line.rsplit_once(' ').expect(line);
            assert!(value.parse::<f64>().is_ok(), "{line}");
        }
        handle.drain();
    }

    #[test]
    fn drained_server_refuses_new_connections() {
        let handle = serve(test_index(), ServerConfig::default()).unwrap();
        let addr = handle.addr();
        handle.drain();
        // The listener is gone: connecting now fails (or is refused
        // with a reset before any response).
        let refused = TcpStream::connect_timeout(&addr, Duration::from_millis(500));
        match refused {
            Err(_) => {}
            Ok(mut s) => {
                let _ = write!(s, "GET /healthz HTTP/1.1\r\n\r\n");
                let mut out = String::new();
                use std::io::Read;
                let _ = s.read_to_string(&mut out);
                assert!(out.is_empty(), "drained server answered: {out}");
            }
        }
    }
}
