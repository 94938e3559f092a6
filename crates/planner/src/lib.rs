//! `eftq_planner` — planner-as-a-service over the sweep stack.
//!
//! The figure sweeps sample the paper's cost surfaces over regular
//! grids; their checked-in artifacts (`ci/baselines/*.jsonl`) are
//! therefore *data* that can answer resource-planning queries without
//! recomputing anything. This crate turns them into a service:
//!
//! * [`surface`] — multilinear interpolation surfaces fitted over
//!   reconstructed sweep grids, with clamped (degraded) extrapolation
//!   outside the sampled region and categorical axes split into
//!   variants.
//! * [`index`] — the [`index::SurfaceIndex`]: every baseline artifact
//!   plus an exactly-evaluated advisor grid, loaded fail-soft into one
//!   name table (`<spec>/<metric>`).
//! * [`server`] — the `eft_planner_serve` query server: per-request
//!   wall-clock deadlines, a bounded admission queue that sheds load
//!   with structured 429 rows, a degradation ladder for exact
//!   recomputation (input bound → deadline gate → [`breaker`] →
//!   `catch_unwind` → surrogate fallback with `degraded: 1`),
//!   `/healthz`–`/readyz`, a Prometheus `/metrics` endpoint (built on
//!   `eftq_obs`), and a SIGTERM drain that answers every admitted
//!   request before exit.
//! * [`breaker`] — the consecutive-failure circuit breaker guarding
//!   the exact path.
//! * [`http`] — the minimal HTTP/1.1 request/response layer.
//!
//! The robustness contract, proven by the chaos soak test
//! (`tests/planner_service.rs`): a server whose exact path is poisoned
//! via `EFT_FAULT_PLAN` and driven past its queue bound shed and
//! degrades, but never hangs, never corrupts a response, and never
//! drops a request it admitted.

#![deny(missing_docs)]

pub mod breaker;
pub mod http;
pub mod index;
pub mod server;
pub mod surface;

pub use breaker::CircuitBreaker;
pub use index::{advisor_spec, baseline_catalog, SkippedArtifact, SurfaceIndex};
pub use server::{
    install_sigterm_drain, serve, sigterm_drain_requested, ServerConfig, ServerHandle, ServerStats,
};
pub use surface::{Lookup, Surface, SurfaceAxis, SurfaceFamily};
