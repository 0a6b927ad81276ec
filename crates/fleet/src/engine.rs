//! The fleet engine: a scheduler serving heterogeneous jobs across
//! many floorplans off one shared operator cache.
//!
//! Every job is independent, but jobs against the *same* floorplan
//! share their dominant cold cost — operator assembly and propagator
//! factorization — through the fingerprint-keyed [`OperatorCache`]:
//! the first job on a floorplan builds (single-flight), every later
//! job starts solving immediately. Workers claim jobs one at a time
//! from a shared cursor ([`ptherm_par::par_map`]), so a worker that
//! finishes a cheap transient moves straight on to the next job.
//!
//! Determinism contract: each job runs single-threaded inside its
//! worker with a fixed batch width, every cache hit hands back a
//! bit-identical operator (build is deterministic, fingerprint equality
//! ⇒ identical entries), and results are collected by submission
//! index — so a fleet report is **bitwise independent of the worker
//! count, the order in which workers claim jobs and the cache state**.
//! The tests assert all three.
//!
//! # Example
//!
//! ```
//! use ptherm_fleet::{parse_jsonl, FleetEngineBuilder};
//!
//! let request = parse_jsonl(r#"
//! {"type": "floorplan", "name": "fp", "tiles": {"rows": 2, "cols": 2, "p_min": 0.02, "p_max": 0.06, "seed": 3}}
//! {"type": "steady", "floorplan": "fp", "dynamic_w": 0.3, "leakage_w": 0.03, "vdd_scales": [0.9, 1.0, 1.1]}
//! "#).expect("valid request");
//! let engine = FleetEngineBuilder::new()
//!     .request(&request)
//!     .build()
//!     .expect("valid configuration");
//! let report = engine.run(&request.jobs);
//! assert_eq!(report.jobs.len(), 1);
//! assert!(report.jobs[0].outcome.is_ok());
//! ```

use crate::cache::{CacheStats, OperatorCache};
use crate::faults::{xorshift64, Fault, FaultPlan};
use crate::jobs::{
    steady_result_fingerprint, DeltaJob, EnvelopeJob, JobSpec, MapJob, PowerSpec, SteadyJob,
    TransientJob,
};
use crate::json::Json;
use ptherm_core::cosim::spectral::DEFAULT_REFINEMENT_TOLERANCE;
use ptherm_core::cosim::sweep::{ScaledTechPower, Scenario, ScenarioPowerModel};
use ptherm_core::cosim::{
    BatchPowerModel, BiasedTechPower, EnvelopeReport, EnvelopeSpec, EnvelopeSpecError, MapReport,
    RunOptions, ScenarioGrid, SpectralGridError, SweepBackend, SweepEngine, SweepOutcome,
    SweepReport, TransientConfig, TransientError, TransientReport,
};
use ptherm_core::ElectroThermalSolver;
use ptherm_floorplan::Floorplan;
use ptherm_math::MultiVec;
use ptherm_par::CancelToken;
use ptherm_tech::Technology;
use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Fleet-wide configuration.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Worker threads claiming jobs (jobs themselves run
    /// single-threaded: the fleet is the parallelism).
    pub threads: usize,
    /// Capacity of each operator cache (steady and transient count
    /// separately).
    pub cache_capacity: usize,
    /// Batch width of each job's Picard/transient hot path.
    pub batch_lanes: usize,
    /// Lateral image order of every operator build.
    pub lateral_order: usize,
    /// Depth-series order of every operator build.
    pub z_order: usize,
    /// Technology kits scenario grids index into.
    pub technologies: Vec<Technology>,
    /// Retry budget and backoff schedule for transient-classified job
    /// failures. Permanent errors (schema, unknown floorplan, bad
    /// waveform, panics, deadlines) never retry.
    pub retry: RetryPolicy,
}

impl Default for FleetConfig {
    /// One worker per CPU (honouring `PTHERM_THREADS`), 32-entry
    /// caches, the workspace image orders and the 120 nm kit.
    fn default() -> Self {
        FleetConfig {
            threads: ptherm_par::default_threads(),
            cache_capacity: 32,
            batch_lanes: 64,
            lateral_order: 2,
            z_order: 9,
            technologies: vec![Technology::cmos_120nm()],
            retry: RetryPolicy::default(),
        }
    }
}

/// Bounded exponential backoff for transient-classified job failures.
///
/// The schedule is **deterministic**: the delay before retrying
/// `(job, attempt)` is a pure function of this policy and those two
/// indices — the jitter comes from a seeded xorshift, not the clock —
/// so a retried fleet run is reproducible and the chaos suite can
/// assert exact attempt counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per job, including the first (1 = never retry).
    pub max_attempts: usize,
    /// Backoff before retry `k` starts from `base_delay_ms · 2^(k-1)`.
    pub base_delay_ms: u64,
    /// Hard cap on any single backoff delay, ms.
    pub max_delay_ms: u64,
    /// Seed of the deterministic jitter stream.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    /// Three attempts, 1 ms base doubling to a 50 ms cap.
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_delay_ms: 1,
            max_delay_ms: 50,
            jitter_seed: 0x9E37_79B9_7F4A_7C15,
        }
    }
}

/// Why a [`FleetEngineBuilder`] refused to construct an engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetConfigError {
    /// `threads` was zero.
    ZeroThreads,
    /// `cache_capacity` was zero (a cache that can hold nothing would
    /// still advertise hits).
    ZeroCacheCapacity,
    /// `batch_lanes` was zero.
    ZeroBatchLanes,
    /// `retry.max_attempts` was zero (1 means "never retry").
    ZeroRetryAttempts,
    /// No technology kits were configured: scenario grids would have
    /// nothing to index into.
    NoTechnologies,
}

impl fmt::Display for FleetConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetConfigError::ZeroThreads => write!(f, "threads must be at least 1"),
            FleetConfigError::ZeroCacheCapacity => write!(f, "cache_capacity must be at least 1"),
            FleetConfigError::ZeroBatchLanes => write!(f, "batch_lanes must be at least 1"),
            FleetConfigError::ZeroRetryAttempts => {
                write!(f, "retry.max_attempts must be at least 1 (1 = never retry)")
            }
            FleetConfigError::NoTechnologies => {
                write!(f, "at least one technology kit is required")
            }
        }
    }
}

impl std::error::Error for FleetConfigError {}

/// The one validated construction path for [`FleetEngine`]s.
///
/// Batch mode, serve mode, the benches and the chaos suite all build
/// their engines here, so configuration invariants are checked in
/// exactly one place.
///
/// # Example
///
/// ```
/// use ptherm_fleet::FleetEngineBuilder;
///
/// let engine = FleetEngineBuilder::new()
///     .threads(2)
///     .cache_capacity(16)
///     .build()
///     .expect("valid configuration");
/// assert_eq!(engine.config().threads, 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FleetEngineBuilder {
    config: FleetConfig,
    faults: Option<FaultPlan>,
    floorplans: Vec<(String, Floorplan)>,
}

impl FleetEngineBuilder {
    /// A builder seeded with [`FleetConfig::default`], no fault plan
    /// and no floorplans.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replaces the whole configuration (validated at [`Self::build`]).
    #[must_use]
    pub fn config(mut self, config: FleetConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the worker-thread count.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = threads;
        self
    }

    /// Sets the per-kind operator cache capacity.
    #[must_use]
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.config.cache_capacity = capacity;
        self
    }

    /// Sets the batch width of each job's hot path.
    #[must_use]
    pub fn batch_lanes(mut self, lanes: usize) -> Self {
        self.config.batch_lanes = lanes;
        self
    }

    /// Sets the lateral and depth-series image orders of every
    /// operator build.
    #[must_use]
    pub fn image_orders(mut self, lateral: usize, z: usize) -> Self {
        self.config.lateral_order = lateral;
        self.config.z_order = z;
        self
    }

    /// Replaces the technology kits scenario grids index into.
    #[must_use]
    pub fn technologies(mut self, technologies: Vec<Technology>) -> Self {
        self.config.technologies = technologies;
        self
    }

    /// Sets the retry budget and backoff schedule.
    #[must_use]
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.config.retry = retry;
        self
    }

    /// Installs a deterministic fault-injection plan (chaos testing
    /// only — a production engine carries no plan).
    #[must_use]
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Registers a named floorplan.
    #[must_use]
    pub fn floorplan(mut self, name: impl Into<String>, plan: Floorplan) -> Self {
        self.floorplans.push((name.into(), plan));
        self
    }

    /// Registers every floorplan of a parsed request.
    #[must_use]
    pub fn request(mut self, request: &crate::jobs::FleetRequest) -> Self {
        for (name, plan) in &request.floorplans {
            self.floorplans.push((name.clone(), plan.clone()));
        }
        self
    }

    /// Validates the configuration and constructs the engine.
    ///
    /// # Errors
    ///
    /// The first violated invariant as a [`FleetConfigError`].
    pub fn build(self) -> Result<FleetEngine, FleetConfigError> {
        if self.config.threads == 0 {
            return Err(FleetConfigError::ZeroThreads);
        }
        if self.config.cache_capacity == 0 {
            return Err(FleetConfigError::ZeroCacheCapacity);
        }
        if self.config.batch_lanes == 0 {
            return Err(FleetConfigError::ZeroBatchLanes);
        }
        if self.config.retry.max_attempts == 0 {
            return Err(FleetConfigError::ZeroRetryAttempts);
        }
        if self.config.technologies.is_empty() {
            return Err(FleetConfigError::NoTechnologies);
        }
        let mut engine = FleetEngine {
            floorplans: HashMap::new(),
            cache: OperatorCache::new(self.config.cache_capacity),
            config: self.config,
            faults: self.faults,
        };
        for (name, plan) in self.floorplans {
            engine.register(name, plan);
        }
        Ok(engine)
    }
}

impl RetryPolicy {
    /// The backoff delay before retrying `job` after its (1-based)
    /// `attempt`-th failure: exponential in the attempt, capped at
    /// [`Self::max_delay_ms`], plus up to 50% deterministic jitter
    /// seeded by `(jitter_seed, job, attempt)`.
    pub fn backoff_delay_ms(&self, job: usize, attempt: usize) -> u64 {
        let doublings = attempt.saturating_sub(1).min(16) as u32;
        let base = self
            .base_delay_ms
            .saturating_mul(1u64 << doublings)
            .min(self.max_delay_ms);
        if base == 0 {
            return 0;
        }
        let mut state = self.jitter_seed ^ ((job as u64) << 32) ^ attempt as u64;
        state = xorshift64(state | 1);
        let jitter = state % (base / 2 + 1);
        (base + jitter).min(self.max_delay_ms)
    }
}

/// Why a job could not produce a report.
#[derive(Debug, Clone, PartialEq)]
pub enum JobError {
    /// The job referenced a floorplan this engine has not registered.
    UnknownFloorplan(String),
    /// The transient configuration was rejected.
    Transient(TransientError),
    /// The job requested the spectral backend on a floorplan with no
    /// coincident tile grid.
    Backend(SpectralGridError),
    /// The job's worker panicked; the panic was caught at the job
    /// boundary and every other job completed unaffected.
    WorkerPanic {
        /// The panic payload's message (or a placeholder for
        /// non-string payloads).
        payload: String,
    },
    /// The job's `deadline_ms` budget ran out; the solve retired
    /// cooperatively at its next checkpoint.
    DeadlineExceeded {
        /// Wall time the job had spent when it retired, ms.
        elapsed_ms: u64,
        /// Scenarios/transients that fully resolved before the
        /// deadline — the job's partial progress.
        resolved: usize,
        /// Scenarios/transients the job asked for.
        total: usize,
    },
    /// A fault-injection plan failed this attempt with a retryable
    /// (transient-classified) error.
    Injected {
        /// 1-based attempt the fault fired on.
        attempt: usize,
    },
    /// An envelope job's bisection spec was rejected by the core's
    /// validation. Unreachable through the JSONL protocol (the parser
    /// refuses bad specs at admission with a line number), but typed
    /// rather than unwrapped for programmatic [`JobSpec`] callers.
    Envelope(EnvelopeSpecError),
}

impl JobError {
    /// True for transient-classified failures the retry machinery may
    /// re-attempt. Schema-level errors, panics and blown deadlines are
    /// permanent: retrying them re-runs a failure, not a race.
    pub fn is_transient(&self) -> bool {
        matches!(self, JobError::Injected { .. })
    }
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::UnknownFloorplan(name) => write!(f, "unknown floorplan {name:?}"),
            JobError::Transient(e) => write!(f, "transient setup failed: {e}"),
            JobError::Backend(e) => write!(f, "spectral backend unavailable: {e}"),
            JobError::WorkerPanic { payload } => write!(f, "worker panic: {payload}"),
            JobError::DeadlineExceeded {
                elapsed_ms,
                resolved,
                total,
            } => write!(
                f,
                "deadline exceeded after {elapsed_ms} ms ({resolved}/{total} runs resolved)"
            ),
            JobError::Injected { attempt } => {
                write!(f, "injected transient fault (attempt {attempt})")
            }
            JobError::Envelope(e) => write!(f, "invalid envelope spec: {e}"),
        }
    }
}

impl std::error::Error for JobError {}

/// A completed job's payload.
#[derive(Debug, Clone)]
pub enum JobReport {
    /// Steady-state sweep outcomes.
    Steady(SweepReport),
    /// Transient outcomes.
    Transient(TransientReport),
    /// Spatial map outcomes.
    Map(MapReport),
    /// Delta re-solve outcomes: the warm-started sweep plus how many
    /// of its scenarios actually received a base-derived seed.
    Delta {
        /// The delta job's sweep (bitwise identical to a cold solve
        /// of the same scenarios — warm starting changes iteration
        /// counts, never fixed points).
        report: SweepReport,
        /// Scenarios seeded from a converged base fixed point.
        seeded: usize,
    },
    /// Runaway-envelope bisection outcomes.
    Envelope(EnvelopeReport),
}

impl JobReport {
    /// Scenario/transient/fiber count.
    pub fn len(&self) -> usize {
        match self {
            JobReport::Steady(r) => r.len(),
            JobReport::Transient(r) => r.len(),
            JobReport::Map(r) => r.len(),
            JobReport::Delta { report, .. } => report.len(),
            JobReport::Envelope(r) => r.len(),
        }
    }

    /// True for an empty report.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Scenarios that resolved successfully (converged / finished /
    /// classified).
    pub fn resolved_count(&self) -> usize {
        match self {
            JobReport::Steady(r) => r.converged_count(),
            JobReport::Transient(r) => r.finished_count(),
            JobReport::Map(r) => r.converged_count(),
            JobReport::Delta { report, .. } => report.converged_count(),
            JobReport::Envelope(r) => r.resolved_count(),
        }
    }

    /// Hottest successful operating point / excursion, K. Map jobs
    /// report the hottest **tile** across their rendered maps — the
    /// spatial answer a block-level peak cannot give. Envelope jobs
    /// report `None`: their payload is boundary locations, not
    /// temperatures.
    pub fn max_peak_temperature(&self) -> Option<f64> {
        match self {
            JobReport::Steady(r) => r.max_peak_temperature(),
            JobReport::Transient(r) => r.max_peak_temperature(),
            JobReport::Map(r) => r.max_map_temperature(),
            JobReport::Delta { report, .. } => report.max_peak_temperature(),
            JobReport::Envelope(_) => None,
        }
    }
}

/// One job's record in a fleet report.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Submission index into the job list.
    pub index: usize,
    /// Report or typed failure.
    pub outcome: Result<JobReport, JobError>,
    /// Backend that actually ran the job (`None` for failed jobs).
    /// Map and transient jobs always run dense; steady jobs resolve
    /// their requested backend against the floorplan.
    pub backend: Option<SweepBackend>,
    /// Attempts the job consumed, including the first (1 = no retry).
    pub attempts: usize,
    /// Wall time this job spent on its worker, ns (retries included).
    pub wall_ns: u64,
}

impl JobRecord {
    /// Renders the per-job JSONL result line the `fleet` binary emits
    /// (schema in `docs/ARCHITECTURE.md`).
    pub fn to_json(&self, spec: &JobSpec) -> Json {
        let mut fields = vec![("job".into(), Json::Number(self.index as f64))];
        // Echo the protocol version only when the request line pinned
        // it explicitly: version-silent clients (and the pre-versioning
        // golden fixtures) keep byte-stable lines.
        if let Some(v) = spec.version() {
            fields.push(("v".into(), Json::Number(v as f64)));
        }
        fields.push(("kind".into(), Json::String(spec.kind().into())));
        fields.push((
            "floorplan".into(),
            Json::String(spec.floorplan().to_string()),
        ));
        if let JobSpec::Map(m) = spec {
            fields.push((
                "grid".into(),
                Json::Array(vec![Json::Number(m.nx as f64), Json::Number(m.ny as f64)]),
            ));
        }
        if let JobSpec::Delta(d) = spec {
            if let Some(base) = &d.base.name {
                fields.push(("base".into(), Json::String(base.clone())));
            }
        }
        if let JobSpec::Envelope(e) = spec {
            fields.push(("axis".into(), Json::String(e.axis.name().into())));
        }
        match &self.outcome {
            Ok(report) => {
                fields.push(("ok".into(), Json::Bool(true)));
                if let Some(backend) = self.backend {
                    fields.push(("backend".into(), Json::String(backend.name().into())));
                }
                fields.push(("runs".into(), Json::Number(report.len() as f64)));
                fields.push((
                    "resolved".into(),
                    Json::Number(report.resolved_count() as f64),
                ));
                fields.push((
                    "max_peak_k".into(),
                    report
                        .max_peak_temperature()
                        .map_or(Json::Null, Json::Number),
                ));
                if let JobReport::Delta { seeded, .. } = report {
                    fields.push(("seeded".into(), Json::Number(*seeded as f64)));
                }
                if let JobReport::Envelope(r) = report {
                    fields.push(("bracketed".into(), Json::Number(r.bracketed_count() as f64)));
                    fields.push(("solves".into(), Json::Number(r.solves as f64)));
                    fields.push((
                        "exhaustive_solves".into(),
                        Json::Number(r.exhaustive_solves as f64),
                    ));
                }
            }
            Err(error) => {
                fields.push(("ok".into(), Json::Bool(false)));
                fields.push(("error".into(), Json::String(error.to_string())));
            }
        }
        // Emitted only when a retry actually happened, so the common
        // fault-free line (and the pinned golden fixtures) stay stable.
        if self.attempts > 1 {
            fields.push(("attempts".into(), Json::Number(self.attempts as f64)));
        }
        fields.push(("wall_ns".into(), Json::Number(self.wall_ns as f64)));
        Json::Object(fields)
    }
}

/// A whole fleet run: per-job records plus cache telemetry.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// One record per submitted job, in submission order.
    pub jobs: Vec<JobRecord>,
    /// Steady-operator cache counters.
    pub steady_cache: CacheStats,
    /// Transient-propagator cache counters.
    pub transient_cache: CacheStats,
    /// Map-operator cache counters.
    pub map_cache: CacheStats,
    /// Spectral-operator cache counters.
    pub spectral_cache: CacheStats,
    /// Steady-result cache counters (delta-base fixed points).
    pub result_cache: CacheStats,
}

impl FleetReport {
    /// Jobs that produced a report.
    pub fn ok_count(&self) -> usize {
        self.jobs.iter().filter(|j| j.outcome.is_ok()).count()
    }

    /// Jobs that ended in a typed failure.
    pub fn error_count(&self) -> usize {
        self.jobs.iter().filter(|j| j.outcome.is_err()).count()
    }

    /// Retries spent across the fleet (attempts beyond each job's
    /// first, whether or not the retry ultimately succeeded).
    pub fn retry_count(&self) -> usize {
        self.jobs.iter().map(|j| j.attempts.saturating_sub(1)).sum()
    }

    /// Jobs that ended in a caught worker panic.
    pub fn panic_count(&self) -> usize {
        self.jobs
            .iter()
            .filter(|j| matches!(j.outcome, Err(JobError::WorkerPanic { .. })))
            .count()
    }
}

/// The fleet scheduler (see the [module docs](self)).
#[derive(Debug)]
pub struct FleetEngine {
    floorplans: HashMap<String, Arc<Floorplan>>,
    cache: OperatorCache,
    config: FleetConfig,
    faults: Option<FaultPlan>,
}

impl FleetEngine {
    /// Replaces (or clears) the fault plan between runs — how the chaos
    /// suite checks a faulted engine serves a subsequent fault-free
    /// queue with zero residual cache poisoning.
    pub fn set_faults(&mut self, plan: Option<FaultPlan>) {
        self.faults = plan;
    }

    /// Registers (or replaces) a named floorplan.
    pub fn register(&mut self, name: impl Into<String>, floorplan: Floorplan) {
        self.floorplans.insert(name.into(), Arc::new(floorplan));
    }

    /// Registered floorplan count.
    pub fn floorplan_count(&self) -> usize {
        self.floorplans.len()
    }

    /// The engine's configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Runs a mixed job queue to completion and reports every job in
    /// submission order. Never panics on a malformed job — failures are
    /// per-job [`JobError`]s. A job whose worker panics mid-solve is
    /// caught at the job boundary ([`JobError::WorkerPanic`]); every
    /// other job completes bit-identically to a fault-free run.
    /// Transient-classified failures retry under
    /// [`FleetConfig::retry`]'s budget with deterministic backoff.
    pub fn run(&self, jobs: &[JobSpec]) -> FleetReport {
        FleetReport {
            jobs: ptherm_par::par_map(self.config.threads, jobs, |i, spec| self.run_one(spec, i)),
            steady_cache: self.cache.steady_stats(),
            transient_cache: self.cache.transient_stats(),
            map_cache: self.cache.map_stats(),
            spectral_cache: self.cache.spectral_stats(),
            result_cache: self.cache.result_stats(),
        }
    }

    /// Cache counters (live; [`Self::run`] snapshots them per report).
    pub fn cache(&self) -> &OperatorCache {
        &self.cache
    }

    /// Runs one job to completion — panic boundary, retry budget,
    /// deterministic backoff, wall-clock timing — resolving its
    /// floorplan from the engine's registry. This is the per-job unit
    /// [`Self::run`]'s workers execute; the serve front-end calls
    /// [`Self::run_resolved`] instead with an admission-time plan.
    pub fn run_one(&self, spec: &JobSpec, index: usize) -> JobRecord {
        self.run_inner(spec, None, index)
    }

    /// [`Self::run_one`] with the floorplan already resolved — how
    /// serve-mode connections run jobs against *connection-local*
    /// floorplan registries: the plan was bound to the job at admission
    /// ([`crate::jobs::RequestParser`]), so the engine's own registry
    /// is never consulted and two connections' same-named floorplans
    /// cannot collide. Identical solve path (and bit pattern) to a
    /// batch run of the same job.
    pub fn run_resolved(&self, spec: &JobSpec, plan: &Arc<Floorplan>, index: usize) -> JobRecord {
        self.run_inner(spec, Some(plan), index)
    }

    fn run_inner(&self, spec: &JobSpec, plan: Option<&Arc<Floorplan>>, index: usize) -> JobRecord {
        let started = Instant::now();
        let mut attempts = 1;
        let mut result = self.attempt_job(spec, plan, index, attempts);
        while matches!(&result, Err(e) if e.is_transient())
            && attempts < self.config.retry.max_attempts
        {
            let delay = self.config.retry.backoff_delay_ms(index, attempts);
            if delay > 0 {
                std::thread::sleep(Duration::from_millis(delay));
            }
            attempts += 1;
            result = self.attempt_job(spec, plan, index, attempts);
        }
        let (outcome, backend) = match result {
            Ok((report, backend)) => (Ok(report), Some(backend)),
            Err(e) => (Err(e), None),
        };
        JobRecord {
            index,
            outcome,
            backend,
            attempts,
            wall_ns: started.elapsed().as_nanos() as u64,
        }
    }

    /// One attempt at one job, with the panic boundary. `catch_unwind`
    /// is sound here because a panicking attempt leaks no broken state
    /// into the engine: the operator caches recover their single-flight
    /// reservations via `BuildGuard`'s unwind path, and everything else
    /// an attempt touches is owned by the attempt.
    fn attempt_job(
        &self,
        spec: &JobSpec,
        plan: Option<&Arc<Floorplan>>,
        index: usize,
        attempt: usize,
    ) -> Result<(JobReport, SweepBackend), JobError> {
        catch_unwind(AssertUnwindSafe(|| {
            self.run_job(spec, plan, index, attempt)
        }))
        .unwrap_or_else(|payload| {
            let payload = if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "non-string panic payload".to_string()
            };
            Err(JobError::WorkerPanic { payload })
        })
    }

    fn run_job(
        &self,
        spec: &JobSpec,
        plan: Option<&Arc<Floorplan>>,
        index: usize,
        attempt: usize,
    ) -> Result<(JobReport, SweepBackend), JobError> {
        let fault = self
            .faults
            .as_ref()
            .and_then(|faults| faults.fault_for(index, attempt));
        match fault {
            Some(Fault::TransientFault) => return Err(JobError::Injected { attempt }),
            Some(Fault::EvictCaches) => {
                self.cache.evict_all();
            }
            // Delay fires below (inside the deadline window);
            // BuilderPanic / SolverPanic fire inside the solve.
            _ => {}
        }
        let cancel = spec
            .deadline_ms()
            .map(|ms| CancelToken::with_deadline(Duration::from_millis(ms)));
        // The stall counts against the job's deadline — a Delay longer
        // than `deadline_ms` deterministically blows it.
        if let Some(Fault::Delay { ms }) = fault {
            std::thread::sleep(Duration::from_millis(*ms));
        }
        let floorplan = match plan {
            Some(resolved) => resolved,
            None => self.floorplan(spec.floorplan())?,
        };
        let (report, backend) = match spec {
            JobSpec::Steady(job) => self
                .run_steady(job, floorplan, cancel.as_ref(), fault)
                .map(|(r, backend)| (JobReport::Steady(r), backend))?,
            JobSpec::Transient(job) => self
                .run_transient(job, floorplan, cancel.as_ref(), fault)
                .map(|r| (JobReport::Transient(r), SweepBackend::Dense))?,
            JobSpec::Map(job) => self
                .run_map(job, floorplan, cancel.as_ref(), fault)
                .map(|r| (JobReport::Map(r), SweepBackend::Dense))?,
            JobSpec::Delta(job) => self
                .run_delta(job, floorplan, cancel.as_ref(), fault)
                .map(|(report, seeded, backend)| (JobReport::Delta { report, seeded }, backend))?,
            JobSpec::Envelope(job) => self
                .run_envelope(job, floorplan, cancel.as_ref(), fault)
                .map(|(r, backend)| (JobReport::Envelope(r), backend))?,
        };
        if let Some(token) = &cancel {
            if token.fired() {
                return Err(JobError::DeadlineExceeded {
                    elapsed_ms: token.elapsed().as_millis() as u64,
                    resolved: report.resolved_count(),
                    total: report.len(),
                });
            }
        }
        Ok((report, backend))
    }

    /// What every job arm solves with: the per-job [`SweepEngine`] (a
    /// solver carrying the fleet's image orders + the floorplan's cached
    /// operator for the resolved `backend`: spectral, or dense for
    /// anything else), `job`'s scenario grid and its power model. A
    /// scheduled [`Fault::BuilderPanic`] fires inside the cache's
    /// single-flight build, so the chaos suite exercises the same
    /// recovery path a real build failure takes.
    fn prepare(
        &self,
        job: &SteadyJob,
        floorplan: &Arc<Floorplan>,
        backend: SweepBackend,
        fault: Option<&Fault>,
    ) -> Result<(SweepEngine, ScenarioGrid, FaultableModel), JobError> {
        let builder_panic = matches!(fault, Some(Fault::BuilderPanic));
        let hook = || {
            if builder_panic {
                // lint:allow(panic-freedom) — deliberate FaultPlan injection; isolated by attempt_job's catch_unwind
                panic!("injected fault: builder panic");
            }
        };
        let (lateral, z) = (self.config.lateral_order, self.config.z_order);
        let mut solver = ElectroThermalSolver::new(floorplan.as_ref().clone());
        solver.lateral_order = lateral;
        solver.z_order = z;
        let engine = if backend == SweepBackend::Spectral {
            let operator = self
                .cache
                .spectral_operator_hooked(floorplan, lateral, z, DEFAULT_REFINEMENT_TOLERANCE, hook)
                .map_err(JobError::Backend)?;
            SweepEngine::with_spectral_operator(solver, operator)
        } else {
            let operator = self
                .cache
                .steady_operator_hooked(floorplan, lateral, z, hook);
            SweepEngine::with_operator(solver, operator)
        };
        // A cache hit skips the build hook; the scheduled fault must
        // fire deterministically regardless of cache state.
        hook();
        let engine = engine.threads(1).batch_lanes(self.config.batch_lanes);
        let grid = self.grid(job);
        let model = FaultableModel::new(FleetPower::for_job(job, floorplan, &grid), fault);
        Ok((engine, grid, model))
    }

    fn floorplan(&self, name: &str) -> Result<&Arc<Floorplan>, JobError> {
        self.floorplans
            .get(name)
            .ok_or_else(|| JobError::UnknownFloorplan(name.to_string()))
    }

    fn grid(&self, job: &SteadyJob) -> ScenarioGrid {
        let grid = ScenarioGrid::new(self.config.technologies.clone())
            .vdd_scales(job.vdd_scales.clone())
            .activities(job.activities.clone());
        match &job.ambients_k {
            Some(ambients) => grid.ambients_k(ambients.clone()),
            None => grid,
        }
    }

    fn run_steady(
        &self,
        job: &SteadyJob,
        floorplan: &Arc<Floorplan>,
        cancel: Option<&CancelToken>,
        fault: Option<&Fault>,
    ) -> Result<(SweepReport, SweepBackend), JobError> {
        let backend = job.backend.resolve(floorplan);
        let (engine, grid, model) = self.prepare(job, floorplan, backend, fault)?;
        let report = engine.sweep(&grid, &model, cancellable(cancel));
        Ok((report, backend))
    }

    /// Solves a delta job: the (cached or re-solved) cold base report
    /// supplies per-scenario warm-start seeds, then the delta's own
    /// scenarios run through [`SweepEngine::sweep_seeded`].
    ///
    /// Determinism: the base is always solved **cold** — no faults, no
    /// deadline token — and the result cache only short-circuits that
    /// deterministic solve, so a cache hit, miss or eviction yields
    /// bitwise-identical delta output (`tests/delta_determinism.rs`).
    /// The job's deadline budget covers the delta solve; a cache-miss
    /// base solve runs to completion first and counts against the
    /// deadline via the caller's post-solve check.
    fn run_delta(
        &self,
        job: &DeltaJob,
        floorplan: &Arc<Floorplan>,
        cancel: Option<&CancelToken>,
        fault: Option<&Fault>,
    ) -> Result<(SweepReport, usize, SweepBackend), JobError> {
        // The delta's engine first: an injected builder fault fires on
        // the delta's own build path, never inside the base solve.
        let backend = job.job.backend.resolve(floorplan);
        let (delta_engine, grid, model) = self.prepare(&job.job, floorplan, backend, fault)?;

        let base_backend = job.base.backend.resolve(floorplan);
        let (base_engine, base_grid, base_model) =
            self.prepare(&job.base, floorplan, base_backend, None)?;
        let key = steady_result_fingerprint(
            &job.base,
            floorplan.fingerprint(),
            base_backend == SweepBackend::Spectral,
        );
        let base_report = self.cache.steady_result(key, || {
            base_engine.sweep(&base_grid, &base_model, RunOptions::new())
        });

        // Converged base fixed points, with their scenario coordinates.
        let sink_k = floorplan.geometry().sink_temperature;
        let base_points: Vec<(Scenario, &[f64])> = base_report
            .outcomes
            .iter()
            .enumerate()
            .filter_map(|(id, outcome)| match outcome {
                SweepOutcome::Converged {
                    block_temperatures, ..
                } => Some((
                    base_grid.scenario(id, sink_k),
                    block_temperatures.as_slice(),
                )),
                _ => None,
            })
            .collect();

        // Nearest converged base scenario in (vdd, activity, ambient)
        // space, same technology only; ties break to the lowest base
        // index (strict `<` keeps the first minimum), so seeding is a
        // pure function of the two scenario lists.
        let seed_of = |id: usize| -> Option<Vec<f64>> {
            let target = grid.scenario(id, sink_k);
            let mut best: Option<(f64, &[f64])> = None;
            for (candidate, temps) in &base_points {
                if candidate.tech_index != target.tech_index {
                    continue;
                }
                let d = (candidate.vdd_scale - target.vdd_scale).powi(2)
                    + (candidate.activity - target.activity).powi(2)
                    + (candidate.ambient_k - target.ambient_k).powi(2);
                if best.as_ref().is_none_or(|(b, _)| d < *b) {
                    best = Some((d, temps));
                }
            }
            best.map(|(_, temps)| temps.to_vec())
        };
        let seeded = (0..grid.len()).filter(|&id| seed_of(id).is_some()).count();

        let report = delta_engine.sweep_seeded(&grid, &model, &seed_of, cancellable(cancel));
        Ok((report, seeded, backend))
    }

    /// Runs an envelope job: [`SweepEngine::map_envelope`] over the
    /// job's fiber axes, bisecting the requested interval.
    fn run_envelope(
        &self,
        job: &EnvelopeJob,
        floorplan: &Arc<Floorplan>,
        cancel: Option<&CancelToken>,
        fault: Option<&Fault>,
    ) -> Result<(EnvelopeReport, SweepBackend), JobError> {
        let backend = job.base.backend.resolve(floorplan);
        let (engine, grid, model) = self.prepare(&job.base, floorplan, backend, fault)?;
        let spec = EnvelopeSpec {
            axis: job.axis,
            lo: job.lo,
            hi: job.hi,
            tolerance: job.tolerance,
        };
        let report = engine
            .map_envelope(&grid, &model, &spec, cancellable(cancel))
            .map_err(JobError::Envelope)?;
        Ok((report, backend))
    }

    fn run_map(
        &self,
        job: &MapJob,
        floorplan: &Arc<Floorplan>,
        cancel: Option<&CancelToken>,
        fault: Option<&Fault>,
    ) -> Result<MapReport, JobError> {
        let (engine, grid, model) =
            self.prepare(&job.base, floorplan, SweepBackend::Dense, fault)?;
        let map_op = self.cache.map_operator(
            floorplan,
            self.config.lateral_order,
            self.config.z_order,
            job.nx,
            job.ny,
        );
        let opts = cancellable(cancel).operator(&*map_op);
        Ok(engine.map(&grid, &model, job.nx, job.ny, opts))
    }

    fn run_transient(
        &self,
        job: &TransientJob,
        floorplan: &Arc<Floorplan>,
        cancel: Option<&CancelToken>,
        fault: Option<&Fault>,
    ) -> Result<TransientReport, JobError> {
        let (engine, grid, model) =
            self.prepare(&job.base, floorplan, SweepBackend::Dense, fault)?;
        let cfg = TransientConfig::new(job.dt_s, job.steps)
            .scheme(job.scheme)
            .waveforms(job.waveforms.clone());
        let propagator = self
            .cache
            .floorplan_propagator(floorplan, engine.operator(), job.dt_s, job.scheme)
            .map_err(JobError::Transient)?;
        let opts = cancellable(cancel).operator(&*propagator);
        engine
            .transient(&grid, &model, &cfg, opts)
            .map_err(JobError::Transient)
    }
}

/// Per-call options carrying only a job's (optional) deadline token.
fn cancellable<Op>(cancel: Option<&CancelToken>) -> RunOptions<'_, Op> {
    RunOptions {
        cancel,
        ..RunOptions::new()
    }
}

/// The power law one fleet job solves under, built from its
/// [`PowerSpec`]: the paper's flat [`ScaledTechPower`] or the
/// De Vogeleer [`BiasedTechPower`] wrapped around it. Delegation keeps
/// the `"scaled"` path byte-identical to the pre-`power`-field
/// protocol (same model type underneath, same batch adapter).
enum FleetPower {
    Scaled(ScaledTechPower),
    Biased(BiasedTechPower),
}

impl FleetPower {
    /// Builds the job's constant-folded model for `grid`.
    fn for_job(job: &SteadyJob, floorplan: &Arc<Floorplan>, grid: &ScenarioGrid) -> Self {
        let scaled = ScaledTechPower::area_weighted(floorplan, job.dynamic_w, job.leakage_w)
            .prepared_for(grid);
        match job.power {
            PowerSpec::Scaled => FleetPower::Scaled(scaled),
            PowerSpec::Biased { theta_k } => {
                FleetPower::Biased(BiasedTechPower::new(scaled, theta_k))
            }
        }
    }
}

impl ScenarioPowerModel for FleetPower {
    fn block_power(
        &self,
        scenario: &Scenario,
        tech: &Technology,
        block: usize,
        temperature_k: f64,
    ) -> f64 {
        match self {
            FleetPower::Scaled(m) => m.block_power(scenario, tech, block, temperature_k),
            FleetPower::Biased(m) => m.block_power(scenario, tech, block, temperature_k),
        }
    }

    fn batched<'a>(
        &'a self,
        grid: &'a ScenarioGrid,
        default_ambient_k: f64,
        lanes: usize,
    ) -> Box<dyn BatchPowerModel + 'a> {
        match self {
            FleetPower::Scaled(m) => m.batched(grid, default_ambient_k, lanes),
            FleetPower::Biased(m) => m.batched(grid, default_ambient_k, lanes),
        }
    }
}

/// Wraps a job's power model so a scheduled [`Fault::SolverPanic`]
/// fires in the model's `iteration`-th batched power fill — mid-Picard
/// (steady/map) or mid-step (transient), on the job's worker thread.
/// With no scheduled panic it is a zero-cost pass-through: `batched`
/// hands back the inner model's batch unchanged, so fault-free jobs
/// run the exact code path (and bit pattern) of an unwrapped model.
struct FaultableModel {
    inner: FleetPower,
    panic_at: Option<usize>,
}

impl FaultableModel {
    fn new(inner: FleetPower, fault: Option<&Fault>) -> Self {
        let panic_at = match fault {
            Some(Fault::SolverPanic { iteration }) => Some(*iteration),
            _ => None,
        };
        FaultableModel { inner, panic_at }
    }
}

impl ScenarioPowerModel for FaultableModel {
    fn block_power(
        &self,
        scenario: &Scenario,
        tech: &Technology,
        block: usize,
        temperature_k: f64,
    ) -> f64 {
        self.inner.block_power(scenario, tech, block, temperature_k)
    }

    fn batched<'a>(
        &'a self,
        grid: &'a ScenarioGrid,
        default_ambient_k: f64,
        lanes: usize,
    ) -> Box<dyn BatchPowerModel + 'a> {
        let inner = self.inner.batched(grid, default_ambient_k, lanes);
        match self.panic_at {
            Some(iteration) => Box::new(PanicAfterFills {
                inner,
                remaining: iteration,
            }),
            None => inner,
        }
    }
}

/// [`BatchPowerModel`] decorator that panics on its `remaining`-th
/// `fill_powers` call. Deterministic because each fleet job solves
/// single-threaded: one worker, one batch model, one fill per
/// Picard iteration / transient step.
struct PanicAfterFills<'m> {
    inner: Box<dyn BatchPowerModel + 'm>,
    remaining: usize,
}

impl BatchPowerModel for PanicAfterFills<'_> {
    fn begin_lane(&mut self, lane: usize, id: usize) {
        self.inner.begin_lane(lane, id);
    }

    fn fill_powers(&mut self, temps: &MultiVec, powers: &mut MultiVec) {
        if self.remaining == 0 {
            // lint:allow(panic-freedom) — deliberate FaultPlan injection; isolated by attempt_job's catch_unwind
            panic!("injected fault: solver panic at scheduled iteration");
        }
        self.remaining -= 1;
        self.inner.fill_powers(temps, powers);
    }

    fn lane_power(&self, lane: usize, block: usize, t: f64) -> Option<f64> {
        self.inner.lane_power(lane, block, t)
    }

    fn refresh_lane(&mut self, lane: usize, temps: &[f64], powers: &mut [f64]) {
        self.inner.refresh_lane(lane, temps, powers);
    }
}
