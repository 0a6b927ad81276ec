//! Multi-floorplan fleet serving for the `ptherm` workspace.
//!
//! PRs 1–3 made *one* floorplan fast: a precomputed influence operator,
//! GEMM-batched Picard sweeps and factored implicit transients. This
//! crate makes *many* floorplans fast **together** — the production
//! setting where a service evaluates a heterogeneous stream of jobs
//! (steady-state sweeps, transients, different chips, different
//! configurations) continuously:
//!
//! * [`cache`] — fingerprint-keyed, bounded, single-flight LRU caches
//!   for thermal operators and transient propagators, so the dominant
//!   per-job cold cost (assembly + factorization) is paid once per
//!   distinct floorplan, not once per job;
//! * [`engine`] — [`FleetEngine`]: a shared-cursor worker pool
//!   ([`ptherm_par::par_map`]) running a mixed job queue over the
//!   shared cache, with results bitwise independent of worker count,
//!   claim order and cache state;
//! * [`faults`] — deterministic fault injection ([`FaultPlan`]) for
//!   chaos-testing the engine's panic isolation, retry budgets and
//!   cache-poisoning recovery;
//! * [`jobs`] — the typed, versioned JSONL job protocol: batch parsing
//!   ([`parse_jsonl`]) and the streaming per-connection
//!   [`RequestParser`] serve mode admits through;
//! * [`json`] — the dependency-free JSON tree backing the protocol and
//!   the bench regression checker;
//! * [`server`] — [`FleetServer`]: the persistent socket front-end
//!   (TCP / Unix) streaming jobs into the scheduler with bounded
//!   admission, graceful drain and cache warm/persist across restarts;
//! * [`metrics`] — serve-mode counters and latency quantiles behind
//!   the `{"type": "stats"}` control record;
//! * [`persist`] — fingerprint-keyed cache manifests: save rebuild
//!   recipes on drain, warm a restarted engine's caches from them.
//!
//! The `fleet` binary (`cargo run --release -p ptherm-bench --bin
//! fleet`) serves requests from a JSONL file, runs the persistent
//! service (`serve`) or benchmarks a synthetic fleet;
//! `docs/ARCHITECTURE.md` documents the layer and the schema,
//! `docs/PERFORMANCE.md` the `BENCH_fleet.json` baseline.

pub mod cache;
pub mod engine;
pub mod faults;
pub mod jobs;
pub mod json;
pub mod metrics;
pub mod persist;
pub mod server;

pub use cache::{CacheRecipe, CacheStats, Lru, OperatorCache, RecipeKind};
pub use engine::{
    FleetConfig, FleetConfigError, FleetEngine, FleetEngineBuilder, FleetReport, JobError,
    JobRecord, JobReport, RetryPolicy,
};
pub use faults::{Fault, FaultPlan};
pub use jobs::{
    parse_jsonl, steady_result_fingerprint, ControlRecord, DeltaJob, EnvelopeJob, FleetRequest,
    JobSpec, MapJob, ParsedLine, PowerSpec, RequestError, RequestParser, SteadyJob, TransientJob,
    PROTOCOL_VERSION,
};
pub use json::{Json, JsonError};
pub use metrics::ServeMetrics;
pub use persist::{ManifestError, WarmReport, MANIFEST_VERSION};
pub use server::{FleetServer, ServeConfig, ServeListener, ServeSummary};
