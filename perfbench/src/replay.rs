//! The traced replay: the served requests again, in process, through
//! each layer's public calls, with a span around every call.
//!
//! `FleetEngine::run_resolved` is one opaque call, so the replay runs
//! the same steps it takes — operator cache lookup or build, power
//! model, `SweepEngine` call — one by one inside a `run_resolved`
//! span, then renders the record with `JobRecord::to_json`. The
//! rendered line must equal the served one bit for bit (`wall_ns`
//! aside); a replay that drifted from the engine's path would show as
//! a mismatch.

use crate::trace::{self_times, subtree_self_sums, Recorder};
use ptherm_core::cosim::spectral::DEFAULT_REFINEMENT_TOLERANCE;
use ptherm_core::cosim::sweep::ScaledTechPower;
use ptherm_core::cosim::{
    infer_grid, EnvelopeAxis, EnvelopeSpec, RunOptions, ScenarioGrid, SweepBackend, SweepEngine,
    SweepOutcome, TransientConfig, SPECTRAL_AUTO_THRESHOLD,
};
use ptherm_core::thermal::capacitance::silicon_block_capacitances;
use ptherm_core::ElectroThermalSolver;
use ptherm_fleet::{
    steady_result_fingerprint, CacheStats, EnvelopeJob, FleetConfig, JobError, JobRecord,
    JobReport, JobSpec, OperatorCache, ParsedLine, RequestParser, SteadyJob,
};
use ptherm_floorplan::Floorplan;
use std::sync::Arc;
use std::time::Instant;

/// The five caches of [`OperatorCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheKind {
    /// Dense steady operators.
    Steady,
    /// Spectral operators.
    Spectral,
    /// Transient propagators.
    Transient,
    /// Map operators.
    Map,
    /// Delta-base steady results.
    Result,
}

impl CacheKind {
    fn span_name(self) -> &'static str {
        match self {
            CacheKind::Steady => "cache.steady",
            CacheKind::Spectral => "cache.spectral",
            CacheKind::Transient => "cache.transient",
            CacheKind::Map => "cache.map",
            CacheKind::Result => "cache.result",
        }
    }
}

/// One cache lookup: which cache, its span, and whether it built.
#[derive(Debug, Clone, Copy)]
pub struct Lookup {
    /// The cache consulted.
    pub kind: CacheKind,
    /// Span index in the recorder.
    pub span: usize,
    /// True when the lookup ran a build.
    pub miss: bool,
}

/// One solver call and the work it did.
#[derive(Debug, Clone, Copy)]
pub struct Solve {
    /// Span name: `sweep.run`, `spectral.run`, `sweep.delta`,
    /// `envelope.run`, `transient.run` or `map.run`.
    pub layer: &'static str,
    /// Span index in the recorder.
    pub span: usize,
    /// Scenarios (sweeps), lane-steps (transients), maps, or solves
    /// (envelopes).
    pub work: f64,
    /// Picard iterations (sweeps) or the exhaustive march's solve
    /// count (envelopes).
    pub aux: f64,
}

/// One replayed job.
#[derive(Debug, Clone)]
pub struct JobTrace {
    /// `steady`, `spectral`, `delta`, `envelope`, `transient` or `map`.
    pub kind: &'static str,
    /// The served job number.
    pub job: usize,
    /// The `run_resolved` span.
    pub root: usize,
    /// The `render` span.
    pub render: usize,
    /// The rendered result line.
    pub line: String,
}

/// Replays request lines through the layers, recording spans.
#[derive(Debug)]
pub struct Replayer {
    /// Every span of the replay.
    pub rec: Recorder,
    cfg: FleetConfig,
    cache: OperatorCache,
    /// Replayed jobs, in order.
    pub jobs: Vec<JobTrace>,
    /// Cache lookups, in order.
    pub lookups: Vec<Lookup>,
    /// Solver calls, in order.
    pub solves: Vec<Solve>,
    /// Lines and bytes parsed, and the parse spans.
    pub parse_spans: Vec<usize>,
    /// Bytes parsed.
    pub parse_bytes: usize,
    /// Steady dense jobs kept for the warm-vs-cold comparison.
    pub steady_samples: Vec<(SteadyJob, Arc<Floorplan>)>,
    /// Envelope jobs kept for the exhaustive-march comparison.
    pub envelope_samples: Vec<(EnvelopeJob, Arc<Floorplan>)>,
}

/// Comparison jobs kept per kind.
const SAMPLES: usize = 3;

impl Default for Replayer {
    fn default() -> Self {
        Replayer::new()
    }
}

impl Replayer {
    /// A replayer with the served engine's default configuration and a
    /// cold cache of the same capacity.
    pub fn new() -> Self {
        let cfg = FleetConfig::default();
        Replayer {
            rec: Recorder::new(),
            cache: OperatorCache::new(cfg.cache_capacity),
            cfg,
            jobs: Vec::new(),
            lookups: Vec::new(),
            solves: Vec::new(),
            parse_spans: Vec::new(),
            parse_bytes: 0,
            steady_samples: Vec::new(),
            envelope_samples: Vec::new(),
        }
    }

    fn stats(&self, kind: CacheKind) -> CacheStats {
        match kind {
            CacheKind::Steady => self.cache.steady_stats(),
            CacheKind::Spectral => self.cache.spectral_stats(),
            CacheKind::Transient => self.cache.transient_stats(),
            CacheKind::Map => self.cache.map_stats(),
            CacheKind::Result => self.cache.result_stats(),
        }
    }

    /// Parses one request line (job number `job` when it is a job line)
    /// and, for a job, runs and renders it.
    ///
    /// # Errors
    ///
    /// The parser's diagnosis: generated lines always parse.
    pub fn line(
        &mut self,
        parser: &mut RequestParser,
        text: &str,
        job: Option<usize>,
    ) -> Result<(), String> {
        let span = self.rec.begin("parse_line", job);
        let parsed = parser.parse_line(text);
        self.rec.end(span);
        self.parse_spans.push(span);
        self.parse_bytes += text.len() + 1;
        match parsed.map_err(|e| e.to_string())? {
            ParsedLine::Job { spec, plan } => {
                let job = job.ok_or("job line without a job number")?;
                let (record, kind, root) = self.run_resolved(&spec, &plan, job);
                let render = self.rec.begin("render", Some(job));
                let line = record.to_json(&spec).render();
                self.rec.end(render);
                self.jobs.push(JobTrace {
                    kind,
                    job,
                    root,
                    render,
                    line,
                });
                Ok(())
            }
            _ => Ok(()),
        }
    }

    fn lookup<T>(
        &mut self,
        kind: CacheKind,
        job: usize,
        f: impl FnOnce(&OperatorCache, &mut Recorder) -> T,
    ) -> T {
        let before = self.stats(kind).misses;
        let span = self.rec.begin(kind.span_name(), Some(job));
        let out = f(&self.cache, &mut self.rec);
        self.rec.end(span);
        let miss = self.stats(kind).misses > before;
        self.lookups.push(Lookup { kind, span, miss });
        out
    }

    fn solve<T>(
        &mut self,
        layer: &'static str,
        job: usize,
        f: impl FnOnce() -> T,
        work: impl FnOnce(&T) -> (f64, f64),
    ) -> T {
        let span = self.rec.begin(layer, Some(job));
        let out = f();
        self.rec.end(span);
        let (work, aux) = work(&out);
        self.solves.push(Solve {
            layer,
            span,
            work,
            aux,
        });
        out
    }

    fn solver(&self, plan: &Arc<Floorplan>) -> ElectroThermalSolver {
        let mut solver = ElectroThermalSolver::new(plan.as_ref().clone());
        solver.lateral_order = self.cfg.lateral_order;
        solver.z_order = self.cfg.z_order;
        solver
    }

    fn grid(&self, job: &SteadyJob) -> ScenarioGrid {
        let grid = ScenarioGrid::new(self.cfg.technologies.clone())
            .vdd_scales(job.vdd_scales.clone())
            .activities(job.activities.clone());
        match &job.ambients_k {
            Some(ambients) => grid.ambients_k(ambients.clone()),
            None => grid,
        }
    }

    fn dense_engine(&mut self, plan: &Arc<Floorplan>, job: usize) -> SweepEngine {
        let (lateral, z) = (self.cfg.lateral_order, self.cfg.z_order);
        let op = self.lookup(CacheKind::Steady, job, |c, _| {
            c.steady_operator(plan, lateral, z)
        });
        SweepEngine::with_operator(self.solver(plan), op)
            .threads(1)
            .batch_lanes(self.cfg.batch_lanes)
    }

    fn steady_engine(
        &mut self,
        spectral: bool,
        plan: &Arc<Floorplan>,
        job: usize,
    ) -> Result<SweepEngine, JobError> {
        if !spectral {
            return Ok(self.dense_engine(plan, job));
        }
        let (lateral, z) = (self.cfg.lateral_order, self.cfg.z_order);
        let op = self
            .lookup(CacheKind::Spectral, job, |c, _| {
                c.spectral_operator(plan, lateral, z, DEFAULT_REFINEMENT_TOLERANCE)
            })
            .map_err(JobError::Backend)?;
        Ok(SweepEngine::with_spectral_operator(self.solver(plan), op)
            .threads(1)
            .batch_lanes(self.cfg.batch_lanes))
    }

    fn run_resolved(
        &mut self,
        spec: &JobSpec,
        plan: &Arc<Floorplan>,
        job: usize,
    ) -> (JobRecord, &'static str, usize) {
        let root = self.rec.begin("run_resolved", Some(job));
        let (outcome, kind) = self.run_job(spec, plan, job);
        self.rec.end(root);
        let backend = outcome.as_ref().ok().map(|(_, b)| *b);
        let record = JobRecord {
            index: job,
            outcome: outcome.map(|(r, _)| r),
            backend,
            attempts: 1,
            wall_ns: self.rec.spans()[root].duration_ns(),
        };
        (record, kind, root)
    }

    fn run_job(
        &mut self,
        spec: &JobSpec,
        plan: &Arc<Floorplan>,
        job: usize,
    ) -> (Result<(JobReport, SweepBackend), JobError>, &'static str) {
        match spec {
            JobSpec::Steady(j) => {
                let spectral = resolved_spectral(j, plan);
                if !spectral && self.steady_samples.len() < SAMPLES {
                    self.steady_samples.push((j.clone(), Arc::clone(plan)));
                }
                let kind = if spectral { "spectral" } else { "steady" };
                let result = self.steady_engine(spectral, plan, job).map(|engine| {
                    let grid = self.grid(j);
                    let model = power(j, plan, &grid);
                    let layer = if spectral {
                        "spectral.run"
                    } else {
                        "sweep.run"
                    };
                    let report = self.solve(
                        layer,
                        job,
                        || engine.run_with_cancel(&grid, &model, None),
                        |r| (r.len() as f64, r.total_iterations() as f64),
                    );
                    (JobReport::Steady(report), backend(spectral))
                });
                (result, kind)
            }
            JobSpec::Transient(t) => {
                let engine = self.dense_engine(plan, job);
                let grid = self.grid(&t.base);
                let model = power(&t.base, plan, &grid);
                let cfg = TransientConfig::new(t.dt_s, t.steps)
                    .scheme(t.scheme)
                    .waveforms(t.waveforms.clone());
                let caps = silicon_block_capacitances(plan);
                let result = self
                    .lookup(CacheKind::Transient, job, |c, _| {
                        c.transient_operator(engine.operator(), &caps, t.dt_s, t.scheme)
                    })
                    .and_then(|top| {
                        self.solve(
                            "transient.run",
                            job,
                            || engine.run_transient_with_cancel(&grid, &model, &cfg, &top, None),
                            |r| {
                                let lanes = r.as_ref().map_or(0, |r| r.len());
                                ((lanes * t.steps) as f64, 0.0)
                            },
                        )
                    })
                    .map(|r| (JobReport::Transient(r), SweepBackend::Dense))
                    .map_err(JobError::Transient);
                (result, "transient")
            }
            JobSpec::Map(m) => {
                let engine = self.dense_engine(plan, job);
                let grid = self.grid(&m.base);
                let model = power(&m.base, plan, &grid);
                let (lateral, z) = (self.cfg.lateral_order, self.cfg.z_order);
                let map_op = self.lookup(CacheKind::Map, job, |c, _| {
                    c.map_operator(plan, lateral, z, m.nx, m.ny)
                });
                let report = self.solve(
                    "map.run",
                    job,
                    || engine.run_map_with_cancel(&grid, &model, &map_op, None),
                    |r| (r.len() as f64, 0.0),
                );
                (Ok((JobReport::Map(report), SweepBackend::Dense)), "map")
            }
            JobSpec::Delta(d) => (self.run_delta(d, plan, job), "delta"),
            JobSpec::Envelope(e) => {
                if self.envelope_samples.len() < SAMPLES {
                    self.envelope_samples.push((e.clone(), Arc::clone(plan)));
                }
                let spectral = resolved_spectral(&e.base, plan);
                let result = self.steady_engine(spectral, plan, job).and_then(|engine| {
                    let grid = self.grid(&e.base);
                    let model = power(&e.base, plan, &grid);
                    self.solve(
                        "envelope.run",
                        job,
                        || engine.map_envelope(&grid, &model, &envelope_spec(e), RunOptions::new()),
                        |r| {
                            r.as_ref().map_or((0.0, 0.0), |r| {
                                (r.solves as f64, r.exhaustive_solves as f64)
                            })
                        },
                    )
                    .map(|r| (JobReport::Envelope(r), backend(spectral)))
                    .map_err(JobError::Envelope)
                });
                (result, "envelope")
            }
        }
    }

    /// The engine's delta path: cached cold base, nearest-neighbour
    /// seeds, seeded sweep.
    fn run_delta(
        &mut self,
        d: &ptherm_fleet::DeltaJob,
        plan: &Arc<Floorplan>,
        job: usize,
    ) -> Result<(JobReport, SweepBackend), JobError> {
        let delta_spectral = resolved_spectral(&d.job, plan);
        let delta_engine = self.steady_engine(delta_spectral, plan, job)?;
        let base_spectral = resolved_spectral(&d.base, plan);
        let base_engine = self.steady_engine(base_spectral, plan, job)?;
        let base_grid = self.grid(&d.base);
        let base_model = power(&d.base, plan, &base_grid);
        let key = steady_result_fingerprint(&d.base, plan.fingerprint(), base_spectral);
        let base_report = self.lookup(CacheKind::Result, job, |c, rec| {
            c.steady_result(key, || {
                rec.span("sweep.base", Some(job), |_| {
                    base_engine.run_with_cancel(&base_grid, &base_model, None)
                })
            })
        });
        let sink_k = plan.geometry().sink_temperature;
        let base_points: Vec<(ptherm_core::Scenario, &[f64])> = base_report
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
        let grid = self.grid(&d.job);
        let seed_of = |id: usize| -> Option<Vec<f64>> {
            let target = grid.scenario(id, sink_k);
            let mut best: Option<(f64, &[f64])> = None;
            for (candidate, temps) in &base_points {
                if candidate.tech_index != target.tech_index {
                    continue;
                }
                let dist = (candidate.vdd_scale - target.vdd_scale).powi(2)
                    + (candidate.activity - target.activity).powi(2)
                    + (candidate.ambient_k - target.ambient_k).powi(2);
                if best.as_ref().is_none_or(|(b, _)| dist < *b) {
                    best = Some((dist, temps));
                }
            }
            best.map(|(_, temps)| temps.to_vec())
        };
        let seeded = (0..grid.len()).filter(|&id| seed_of(id).is_some()).count();
        let model = power(&d.job, plan, &grid);
        let report = self.solve(
            "sweep.delta",
            job,
            || delta_engine.sweep_seeded(&grid, &model, &seed_of, RunOptions::new()),
            |r| (r.len() as f64, r.total_iterations() as f64),
        );
        Ok((JobReport::Delta { report, seeded }, backend(delta_spectral)))
    }

    /// Jobs whose layer self times do not sum to their `run_resolved`
    /// span (must be none: spans nest by construction).
    pub fn self_time_violations(&self) -> usize {
        let spans = self.rec.spans();
        let self_ns = self_times(spans);
        let sums = subtree_self_sums(spans, &self_ns);
        self.jobs
            .iter()
            .filter(|j| sums[j.root] != spans[j.root].duration_ns())
            .count()
    }

    /// Self time per span name, ns, summed over the replay.
    pub fn self_time_by_layer(&self) -> Vec<(&'static str, u64, usize)> {
        let spans = self.rec.spans();
        let self_ns = self_times(spans);
        let mut by: Vec<(&'static str, u64, usize)> = Vec::new();
        for (span, ns) in spans.iter().zip(self_ns) {
            match by.iter_mut().find(|(name, _, _)| *name == span.name) {
                Some(entry) => {
                    entry.1 += ns;
                    entry.2 += 1;
                }
                None => by.push((span.name, ns, 1)),
            }
        }
        by
    }

    /// A job's engine straight from the cache, outside any span: the
    /// comparison runs below must not add to the replay's lookups.
    fn untraced_engine(&self, plan: &Arc<Floorplan>, spectral: bool) -> Option<SweepEngine> {
        let (lateral, z) = (self.cfg.lateral_order, self.cfg.z_order);
        let engine = if spectral {
            let op = self
                .cache
                .spectral_operator(plan, lateral, z, DEFAULT_REFINEMENT_TOLERANCE)
                .ok()?;
            SweepEngine::with_spectral_operator(self.solver(plan), op)
        } else {
            SweepEngine::with_operator(
                self.solver(plan),
                self.cache.steady_operator(plan, lateral, z),
            )
        };
        Some(engine.threads(1).batch_lanes(self.cfg.batch_lanes))
    }

    /// Wall time of the kept steady jobs with warm-started chains over
    /// the same jobs cold (the served path), best of three each.
    pub fn warm_cold_ratio(&self) -> Option<f64> {
        let (mut warm, mut cold) = (0.0, 0.0);
        for (job, plan) in &self.steady_samples {
            let Some(engine) = self.untraced_engine(plan, false) else {
                continue;
            };
            let grid = self.grid(job);
            let model = power(job, plan, &grid);
            let time = |warm: bool| {
                best_of(3, || {
                    engine.sweep(&grid, &model, RunOptions::new().warm_start(warm));
                })
            };
            warm += time(true);
            cold += time(false);
        }
        (cold > 0.0).then(|| warm / cold)
    }

    /// Wall time of the kept envelope jobs' bisection over an executed
    /// exhaustive march at the same tolerance, best of three each.
    pub fn envelope_exhaustive_ratio(&self) -> Option<f64> {
        let (mut bisect, mut march) = (0.0, 0.0);
        for (job, plan) in &self.envelope_samples {
            let Some(engine) = self.untraced_engine(plan, resolved_spectral(&job.base, plan))
            else {
                continue;
            };
            let grid = self.grid(&job.base);
            let model = power(&job.base, plan, &grid);
            let spec = envelope_spec(job);
            bisect += best_of(3, || {
                let _ = engine.map_envelope(&grid, &model, &spec, RunOptions::new());
            });
            let steps = ((job.hi - job.lo) / job.tolerance).ceil() as usize;
            let points: Vec<f64> = (0..=steps)
                .map(|k| (job.lo + k as f64 * job.tolerance).min(job.hi))
                .collect();
            let exhaustive = match job.axis {
                EnvelopeAxis::VddScale => grid.clone().vdd_scales(points),
                EnvelopeAxis::Activity => grid.clone().activities(points),
                EnvelopeAxis::AmbientK => grid.clone().ambients_k(points),
            };
            let march_model = power(&job.base, plan, &exhaustive);
            march += best_of(3, || {
                engine.sweep(&exhaustive, &march_model, RunOptions::new());
            });
        }
        (march > 0.0).then(|| bisect / march)
    }
}

fn resolved_spectral(job: &SteadyJob, plan: &Floorplan) -> bool {
    match job.backend {
        SweepBackend::Spectral => true,
        SweepBackend::Dense => false,
        SweepBackend::Auto => {
            plan.blocks().len() >= SPECTRAL_AUTO_THRESHOLD && infer_grid(plan).is_ok()
        }
    }
}

fn backend(spectral: bool) -> SweepBackend {
    if spectral {
        SweepBackend::Spectral
    } else {
        SweepBackend::Dense
    }
}

/// The job's power law. The generator only emits the default scaled
/// law; a biased line would replay under the wrong law and show up as
/// a result mismatch rather than pass silently.
fn power(job: &SteadyJob, plan: &Floorplan, grid: &ScenarioGrid) -> ScaledTechPower {
    ScaledTechPower::area_weighted(plan, job.dynamic_w, job.leakage_w).prepared_for(grid)
}

fn envelope_spec(job: &EnvelopeJob) -> EnvelopeSpec {
    EnvelopeSpec {
        axis: job.axis,
        lo: job.lo,
        hi: job.hi,
        tolerance: job.tolerance,
    }
}

/// Fastest of `n` timed runs of `f`, seconds.
pub fn best_of(n: usize, mut f: impl FnMut()) -> f64 {
    (0..n)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}
