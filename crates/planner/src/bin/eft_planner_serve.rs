//! `eft_planner_serve` — the planner query server.
//!
//! ```text
//! eft_planner_serve [--listen ADDR] [--baselines DIR] [--deadline-ms N]
//!                   [--queue N] [--workers N] [--exact-budget-ms N]
//! ```
//!
//! Loads the surrogate index (checked-in sweep baselines + the exact
//! advisor grid), then serves JSONL answers over HTTP until SIGTERM,
//! which drains: the listener closes, every admitted request is
//! answered, and the process exits 0. `EFT_FAULT_PLAN` plants chaos
//! faults into exact-compute requests (`/plan?...&exact=1`), exactly as
//! it does for sweep evaluations.
//!
//! The surrogate `/plan` evaluation is timed by the `planner/plan_surrogate`
//! bench in `crates/bench/benches/planner_lookup.rs`; perfbench's
//! `planner_http` workload times the service end to end.
//!
//! Exit codes: 0 clean serve and drain, 2 usage or startup failure.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use eftq_planner::{
    install_sigterm_drain, serve, sigterm_drain_requested, ServerConfig, SurfaceIndex,
};
use eftq_sweep::chaos::FAULT_PLAN_ENV;
use eftq_sweep::FaultPlan;

fn usage() -> ! {
    eprintln!(
        "usage: eft_planner_serve [--listen ADDR] [--baselines DIR] [--deadline-ms N]\n\
         \x20                        [--queue N] [--workers N] [--exact-budget-ms N]"
    );
    std::process::exit(2);
}

fn main() {
    let mut cfg = ServerConfig {
        addr: "127.0.0.1:7433".into(),
        ..ServerConfig::default()
    };
    let mut baselines = PathBuf::from("ci/baselines");

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{flag} needs a value");
                usage()
            })
        };
        match flag.as_str() {
            "--listen" => cfg.addr = value("--listen"),
            "--baselines" => baselines = PathBuf::from(value("--baselines")),
            "--deadline-ms" => cfg.deadline = Duration::from_millis(parse(&value("--deadline-ms"))),
            "--queue" => cfg.queue = parse(&value("--queue")) as usize,
            "--workers" => cfg.workers = parse(&value("--workers")) as usize,
            "--exact-budget-ms" => {
                cfg.exact_budget = Duration::from_millis(parse(&value("--exact-budget-ms")));
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage();
            }
        }
    }

    if let Ok(plan) = std::env::var(FAULT_PLAN_ENV) {
        match FaultPlan::parse(&plan) {
            Ok(p) => {
                eprintln!("[planner] chaos fault plan active: {plan}");
                cfg.fault_plan = Some(p);
            }
            Err(e) => {
                eprintln!("[planner] bad {FAULT_PLAN_ENV}: {e}");
                std::process::exit(2);
            }
        }
    }

    let t_load = Instant::now();
    let index = match SurfaceIndex::load(&baselines) {
        Ok(index) => index,
        Err(e) => {
            eprintln!("[planner] cannot build surface index: {e}");
            std::process::exit(2);
        }
    };
    for s in &index.skipped {
        eprintln!("[planner] skipped baseline {}: {}", s.name, s.reason);
    }
    eprintln!(
        "[planner] {} surfaces loaded from {} in {:.0?}",
        index.len(),
        baselines.display(),
        t_load.elapsed()
    );

    install_sigterm_drain();
    let handle = match serve(index, cfg) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("[planner] {e}");
            std::process::exit(2);
        }
    };
    eprintln!("[planner] serving on {} (SIGTERM drains)", handle.addr());

    // The handle's stages watch the SIGTERM latch themselves; this
    // thread just waits for the drain to be requested, then joins.
    while !sigterm_drain_requested() {
        std::thread::sleep(Duration::from_millis(50));
    }
    eprintln!("[planner] draining: finishing admitted requests");
    handle.drain();
    let _ = handle; // joined
    eprintln!("[planner] drained clean");
}

fn parse(s: &str) -> u64 {
    s.parse().unwrap_or_else(|_| {
        eprintln!("expected a non-negative integer, got '{s}'");
        usage()
    })
}
