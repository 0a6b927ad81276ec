//! Chip-scale batched **transient** electro-thermal solver.
//!
//! The paper's Fig. 9 transient — the RC charging of a thermal
//! capacitance under electro-thermal feedback — scaled from one
//! transistor to the whole floorplan:
//!
//! ```text
//! C dT/dt = P(T, t) − G·(T − T_amb),     G = R⁻¹
//! ```
//!
//! with `R` the steady-state influence matrix ([`ThermalOperator`],
//! Eq. 21 factored) and `C` the diagonal of per-block thermal
//! capacitances ([`crate::thermal::capacitance`]). Writing `u = T −
//! T_amb` and left-multiplying by `R`, the θ-scheme
//! ([`ImplicitScheme`]) collapses to a dense linear recurrence:
//!
//! ```text
//! (A + θI) u⁺ = (A − (1−θ)I) u + R·P̄        A = R·diag(C)/Δt
//!          u⁺ = Φ·u + Q·P̄                  Φ, Q precomputed
//! ```
//!
//! `(A + θI)` is LU-factored **once per (floorplan, C, Δt, scheme)** to
//! build the propagator `Φ` and injection map `Q` — after that every
//! time step is two dense products, with no per-step factorization or
//! stability limit: stiff blocks (small `τ_i = R_ii·C_i`) do not
//! constrain the step, unlike explicit RK4 whose step is capped by the
//! fastest time constant (the [`TransientRk4Reference`] this engine is
//! validated and benchmarked against).
//!
//! # Batching
//!
//! Exactly like the Picard hot path ([`crate::cosim::batch`]), `B`
//! scenario×waveform lanes advance together per time step: the power
//! model fills an `n × B` panel (the Eq. 13 exponentials batch through
//! [`ptherm_math::expv`] via [`BatchPowerModel`]), and the recurrence
//! runs as two `n×n · n×B` GEMMs ([`Matrix::mul_into`]). Per lane the
//! arithmetic order is identical whatever the batch width or worker
//! count, so results are independent of both (bit-identical on the
//! portable GEMM tier, ~ULP on FMA hardware — the same contract as the
//! steady-state batch engine).
//!
//! [`SweepEngine::transient`](crate::cosim::SweepEngine::transient)
//! shards scenario×waveform grids over worker threads on this path;
//! [`SweepEngine::run_transient_per_scenario`](crate::cosim::SweepEngine::run_transient_per_scenario)
//! is the one-lane-at-a-time oracle and
//! [`SweepEngine::run_transient_rk4`](crate::cosim::SweepEngine::run_transient_rk4)
//! the explicit reference. The `transient` bench bin measures the gap
//! and emits `BENCH_transient.json`; `docs/PERFORMANCE.md` documents
//! the tolerances.

use crate::cosim::batch::{first_bad_power, scan_power_poison, BatchPowerModel};
use crate::cosim::ThermalOperator;
use ptherm_math::ode::{rk4, ImplicitScheme};
use ptherm_math::{Matrix, MultiVec};
use ptherm_par::CancelToken;
use std::fmt;

/// Error building or driving a transient solve.
#[derive(Debug, Clone, PartialEq)]
pub enum TransientError {
    /// The capacitance vector does not match the operator's block count.
    DimensionMismatch {
        /// Operator block count.
        blocks: usize,
        /// Capacitance entries supplied.
        capacitances: usize,
    },
    /// A capacitance is non-finite or not strictly positive (the
    /// chip-scale system needs every block to store heat; the lumped
    /// `ThermalRc` quasi-static limit covers `C = 0`).
    BadCapacitance {
        /// Offending block.
        block: usize,
        /// Offending value, J/K.
        value: f64,
    },
    /// The time step is non-finite or not strictly positive.
    BadStep {
        /// Offending step, s.
        dt: f64,
    },
    /// The implicit system matrix could not be factored (non-physical
    /// influence matrix).
    Singular,
    /// A drive waveform is malformed (mismatched trace lengths,
    /// non-increasing trace times, or a non-positive gating
    /// frequency/duty).
    BadWaveform {
        /// Index into the configured waveform axis.
        index: usize,
        /// Explanation.
        detail: &'static str,
    },
}

impl fmt::Display for TransientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransientError::DimensionMismatch {
                blocks,
                capacitances,
            } => write!(
                f,
                "capacitance vector has {capacitances} entries for {blocks} blocks"
            ),
            TransientError::BadCapacitance { block, value } => {
                write!(f, "block {block} capacitance {value} J/K is not positive")
            }
            TransientError::BadStep { dt } => write!(f, "time step {dt} s is not positive"),
            TransientError::Singular => write!(f, "implicit transient matrix is singular"),
            TransientError::BadWaveform { index, detail } => {
                write!(f, "drive waveform {index} is invalid: {detail}")
            }
        }
    }
}

impl std::error::Error for TransientError {}

/// Power-drive waveform multiplying the scenario power model over time —
/// the chip-scale counterpart of the measurement rig's gating
/// (`ptherm-thermal-num`'s 3 Hz square wave, §4.2 / Fig. 9).
#[derive(Debug, Clone, PartialEq)]
pub enum DriveWaveform {
    /// Constant full power from `t = 0` (the Fig. 9 step).
    Step,
    /// ON/OFF gating: scale 1 during the ON fraction of each period,
    /// 0 otherwise (the paper gates its device at 3 Hz, duty 0.5).
    SquareWave {
        /// Gating frequency, Hz.
        frequency: f64,
        /// ON duty cycle in (0, 1].
        duty: f64,
    },
    /// Piecewise-linear power trace: `(times, scales)` samples,
    /// linearly interpolated and clamped at the ends. An empty trace is
    /// full power.
    Trace {
        /// Sample times, strictly increasing, s.
        times: Vec<f64>,
        /// Power scale at each sample time.
        scales: Vec<f64>,
    },
}

impl DriveWaveform {
    /// The paper's measurement gating: 3 Hz, 50% duty.
    pub fn paper_gating() -> Self {
        DriveWaveform::SquareWave {
            frequency: 3.0,
            duty: 0.5,
        }
    }

    /// Checks the waveform's invariants: trace `times`/`scales` must be
    /// the same length with strictly increasing times, and square-wave
    /// gating needs a positive finite frequency and a duty in (0, 1].
    /// The engine validates every configured waveform up front
    /// ([`TransientError::BadWaveform`]) so a malformed one is a typed
    /// error at the API boundary, never a panic inside a sweep worker.
    ///
    /// # Errors
    ///
    /// A static description of the violated invariant.
    pub fn validate(&self) -> Result<(), &'static str> {
        match self {
            DriveWaveform::Step => Ok(()),
            DriveWaveform::SquareWave { frequency, duty } => {
                if !frequency.is_finite() || *frequency <= 0.0 {
                    return Err("gating frequency must be positive and finite");
                }
                if !duty.is_finite() || *duty <= 0.0 || *duty > 1.0 {
                    return Err("duty cycle must lie in (0, 1]");
                }
                Ok(())
            }
            DriveWaveform::Trace { times, scales } => {
                if times.len() != scales.len() {
                    return Err("trace times and scales differ in length");
                }
                if times.iter().chain(scales).any(|v| !v.is_finite()) {
                    return Err("trace times and scales must be finite");
                }
                // Times are finite here, so <= is a total comparison.
                if times.iter().zip(times.iter().skip(1)).any(|(a, b)| b <= a) {
                    return Err("trace times must be strictly increasing");
                }
                Ok(())
            }
        }
    }

    /// Power scale at time `t`. Tolerant of malformed traces (it reads
    /// only the zipped `times`/`scales` prefix), but the engine rejects
    /// those up front via [`Self::validate`].
    pub fn scale_at(&self, t: f64) -> f64 {
        match self {
            DriveWaveform::Step => 1.0,
            DriveWaveform::SquareWave { frequency, duty } => {
                let phase = (t * frequency).fract();
                if phase < *duty {
                    1.0
                } else {
                    0.0
                }
            }
            DriveWaveform::Trace { times, scales } => {
                let n = times.len().min(scales.len());
                if n == 0 {
                    return 1.0;
                }
                let (times, scales) = (&times[..n], &scales[..n]);
                // lint:allow(panic-freedom) — `n == 0` returned early above; both slices have exactly n elements
                if t <= times[0] {
                    // lint:allow(panic-freedom) — as above: n >= 1 here
                    return scales[0];
                }
                if t >= times[n - 1] {
                    return scales[n - 1];
                }
                let idx = times.partition_point(|&x| x < t);
                let (t0, t1) = (times[idx - 1], times[idx]);
                let w = (t - t0) / (t1 - t0);
                scales[idx - 1] + w * (scales[idx] - scales[idx - 1])
            }
        }
    }
}

/// Precomputed implicit transient operator of one floorplan at one
/// `(capacitances, Δt, scheme)`: the propagator `Φ` and power-injection
/// map `Q` of the module-level recurrence, built from one LU
/// factorization and shared read-only by every lane and worker.
#[derive(Debug, Clone)]
pub struct TransientOperator {
    /// Rise propagator `Φ = (A + θI)⁻¹(A − (1−θ)I)`, dimensionless.
    phi: Matrix,
    /// Power injection `Q = (A + θI)⁻¹R`, K/W per step.
    q: Matrix,
    capacitances: Vec<f64>,
    dt: f64,
    scheme: ImplicitScheme,
    sink_temperature: f64,
    /// Smallest diagonal block time constant `R_ii·C_i`, s.
    min_tau: Option<f64>,
    /// Content fingerprint: source operator × capacitances × dt × scheme.
    fingerprint: u64,
}

/// Fingerprint of the propagator [`TransientOperator::new`] would build:
/// the source operator's fingerprint mixed with the capacitance vector,
/// the time step and the scheme — every input of the factorization.
/// Computable without factoring, so a cache can decide hit/miss first.
pub fn propagator_fingerprint(
    op: &ThermalOperator,
    capacitances: &[f64],
    dt: f64,
    scheme: ImplicitScheme,
) -> u64 {
    let mut f = ptherm_floorplan::fingerprint::Fingerprinter::new("ptherm.propagator.v1");
    f.write_u64(op.fingerprint());
    f.write_f64_slice(capacitances);
    f.write_f64(dt);
    f.write_u64(match scheme {
        ImplicitScheme::BackwardEuler => 0,
        ImplicitScheme::Trapezoidal => 1,
    });
    f.finish()
}

impl TransientOperator {
    /// Builds the implicit stepping operator.
    ///
    /// # Errors
    ///
    /// See [`TransientError`].
    pub fn new(
        op: &ThermalOperator,
        capacitances: &[f64],
        dt: f64,
        scheme: ImplicitScheme,
    ) -> Result<Self, TransientError> {
        let n = op.len();
        if capacitances.len() != n {
            return Err(TransientError::DimensionMismatch {
                blocks: n,
                capacitances: capacitances.len(),
            });
        }
        if let Some(block) = capacitances
            .iter()
            .position(|c| !c.is_finite() || *c <= 0.0)
        {
            return Err(TransientError::BadCapacitance {
                block,
                value: capacitances[block],
            });
        }
        if !dt.is_finite() || dt <= 0.0 {
            return Err(TransientError::BadStep { dt });
        }
        let r = op.influence();
        let theta = scheme.theta();
        // A = R·diag(C)/dt; M = A + θI; E = A − (1−θ)I.
        let mut m = Matrix::zeros(n, n);
        let mut e = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                let aij = r[(i, j)] * capacitances[j] / dt;
                let delta = if i == j { 1.0 } else { 0.0 };
                m[(i, j)] = aij + theta * delta;
                e[(i, j)] = aij - (1.0 - theta) * delta;
            }
        }
        // One factorization serves every step: Φ and Q are its solves
        // against the E and R columns.
        let (phi, q) = if n == 0 {
            (Matrix::zeros(0, 0), Matrix::zeros(0, 0))
        } else {
            let lu = m.lu().map_err(|_| TransientError::Singular)?;
            let mut phi = Matrix::zeros(n, n);
            let mut q = Matrix::zeros(n, n);
            let mut col = vec![0.0; n];
            let mut sol = vec![0.0; n];
            for j in 0..n {
                for i in 0..n {
                    col[i] = e[(i, j)];
                }
                lu.solve_into(&col, &mut sol)
                    .map_err(|_| TransientError::Singular)?;
                for i in 0..n {
                    phi[(i, j)] = sol[i];
                }
                for i in 0..n {
                    col[i] = r[(i, j)];
                }
                lu.solve_into(&col, &mut sol)
                    .map_err(|_| TransientError::Singular)?;
                for i in 0..n {
                    q[(i, j)] = sol[i];
                }
            }
            (phi, q)
        };
        let min_tau = (0..n).map(|i| r[(i, i)] * capacitances[i]).reduce(f64::min);
        Ok(TransientOperator {
            phi,
            q,
            capacitances: capacitances.to_vec(),
            dt,
            scheme,
            sink_temperature: op.sink_temperature(),
            min_tau,
            fingerprint: propagator_fingerprint(op, capacitances, dt, scheme),
        })
    }

    /// Stable content fingerprint of this propagator (see
    /// [`propagator_fingerprint`]): equal fingerprints imply
    /// bit-identical `Φ`/`Q` factorizations.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.capacitances.len()
    }

    /// True for an empty floorplan.
    pub fn is_empty(&self) -> bool {
        self.capacitances.is_empty()
    }

    /// Time step, s.
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// Stepping scheme.
    pub fn scheme(&self) -> ImplicitScheme {
        self.scheme
    }

    /// Per-block thermal capacitances, J/K.
    pub fn capacitances(&self) -> &[f64] {
        &self.capacitances
    }

    /// Sink temperature of the source operator, K.
    pub fn sink_temperature(&self) -> f64 {
        self.sink_temperature
    }

    /// Smallest diagonal block time constant `R_ii·C_i`, s — the
    /// stiffness scale an explicit integrator would be capped by;
    /// `None` for an empty floorplan.
    pub fn min_time_constant(&self) -> Option<f64> {
        self.min_tau
    }

    /// The rise propagator `Φ`.
    pub fn propagator(&self) -> &Matrix {
        &self.phi
    }

    /// The power-injection map `Q`, K/W.
    pub fn injection(&self) -> &Matrix {
        &self.q
    }

    /// Drive-evaluation offset into the step — the scheme's shared
    /// forcing-sampling convention ([`ImplicitScheme::forcing_offset`]).
    fn drive_offset(&self) -> f64 {
        self.scheme.forcing_offset(self.dt)
    }

    /// One implicit step for a single scenario, allocation-free:
    /// `out = Φ·rises + Q·powers`. `scratch` must not alias the others.
    ///
    /// # Panics
    ///
    /// Panics if any slice length differs from [`Self::len`].
    pub fn step_into(&self, rises: &[f64], powers: &[f64], scratch: &mut [f64], out: &mut [f64]) {
        self.phi.mul_vec_into(rises, out);
        self.q.mul_vec_into(powers, scratch);
        for (o, s) in out.iter_mut().zip(scratch.iter()) {
            *o += *s;
        }
    }
}

/// One recorded point of a transient trajectory (decimated by
/// [`TransientConfig::record_stride`]).
#[derive(Debug, Clone, PartialEq)]
pub struct TransientSample {
    /// Time after the drive was applied, s.
    pub time_s: f64,
    /// Hottest block temperature at this time, K (the ambient for an
    /// empty floorplan).
    pub peak_temperature_k: f64,
    /// Total injected power over this step, W.
    pub total_power_w: f64,
}

/// Outcome of one scenario×waveform transient.
#[derive(Debug, Clone, PartialEq)]
pub enum TransientOutcome {
    /// The transient ran to the configured end time.
    Finished {
        /// Block temperatures at the final step, K.
        final_temperatures: Vec<f64>,
        /// Hottest block temperature over the whole transient, K;
        /// `None` for an empty floorplan.
        peak_temperature: Option<f64>,
        /// Time of that peak, s.
        peak_time_s: f64,
        /// Decimated trajectory (empty unless recording was requested).
        samples: Vec<TransientSample>,
    },
    /// The power model returned a non-finite or negative value.
    BadPower {
        /// Step index at which it happened.
        step: usize,
        /// Offending block.
        block: usize,
        /// Offending value, W.
        power: f64,
    },
    /// The temperature crossed the solver ceiling (thermal runaway in
    /// finite time).
    Diverged {
        /// Time at which the ceiling was crossed, s.
        time_s: f64,
        /// Peak temperature reached, K.
        temperature: f64,
    },
    /// The solve was cancelled cooperatively (deadline or explicit
    /// [`CancelToken`]) before this lane
    /// finished.
    Cancelled {
        /// Steps completed before cancellation (0 for lanes never
        /// started).
        step: usize,
    },
}

impl TransientOutcome {
    /// True for [`TransientOutcome::Finished`].
    pub fn is_finished(&self) -> bool {
        matches!(self, TransientOutcome::Finished { .. })
    }

    /// Peak temperature for finished transients, K.
    pub fn peak_temperature(&self) -> Option<f64> {
        match self {
            TransientOutcome::Finished {
                peak_temperature, ..
            } => *peak_temperature,
            _ => None,
        }
    }

    /// Final block temperatures for finished transients.
    pub fn final_temperatures(&self) -> Option<&[f64]> {
        match self {
            TransientOutcome::Finished {
                final_temperatures, ..
            } => Some(final_temperatures),
            _ => None,
        }
    }
}

/// Configuration of one transient sweep: the time grid, scheme, drive
/// waveforms and recording policy.
#[derive(Debug, Clone)]
pub struct TransientConfig {
    /// Time step, s.
    pub dt: f64,
    /// Number of steps (total span `steps · dt`).
    pub steps: usize,
    /// Implicit scheme (default: trapezoidal, second order).
    pub scheme: ImplicitScheme,
    /// Drive waveforms — the second sweep axis; every scenario runs
    /// under every waveform. Empty means a single [`DriveWaveform::Step`].
    pub waveforms: Vec<DriveWaveform>,
    /// Per-block thermal capacitances, J/K; `None` derives silicon
    /// column capacitances from the floorplan geometry
    /// ([`crate::thermal::capacitance::silicon_block_capacitances`]).
    pub capacitances: Option<Vec<f64>>,
    /// Record every `record_stride`-th step into
    /// [`TransientOutcome::Finished::samples`] (0 = record nothing).
    pub record_stride: usize,
}

impl TransientConfig {
    /// A trapezoidal step-drive transient over `steps · dt` seconds with
    /// no trajectory recording.
    pub fn new(dt: f64, steps: usize) -> Self {
        TransientConfig {
            dt,
            steps,
            scheme: ImplicitScheme::Trapezoidal,
            waveforms: Vec::new(),
            capacitances: None,
            record_stride: 0,
        }
    }

    /// Replaces the stepping scheme.
    #[must_use]
    pub fn scheme(mut self, scheme: ImplicitScheme) -> Self {
        self.scheme = scheme;
        self
    }

    /// Replaces the waveform axis.
    #[must_use]
    pub fn waveforms(mut self, waveforms: Vec<DriveWaveform>) -> Self {
        self.waveforms = waveforms;
        self
    }

    /// Supplies explicit per-block capacitances, J/K.
    #[must_use]
    pub fn capacitances(mut self, capacitances: Vec<f64>) -> Self {
        self.capacitances = Some(capacitances);
        self
    }

    /// Records every `stride`-th step of the trajectory.
    #[must_use]
    pub fn record_stride(mut self, stride: usize) -> Self {
        self.record_stride = stride;
        self
    }

    /// Total simulated span, s.
    pub fn duration(&self) -> f64 {
        self.dt * self.steps as f64
    }

    /// The effective waveform axis — the configured list, or the single
    /// step drive when none was given — with every waveform validated.
    pub(crate) fn effective_waveforms(&self) -> Result<Vec<DriveWaveform>, TransientError> {
        let waveforms = if self.waveforms.is_empty() {
            vec![DriveWaveform::Step]
        } else {
            self.waveforms.clone()
        };
        for (index, w) in waveforms.iter().enumerate() {
            w.validate()
                .map_err(|detail| TransientError::BadWaveform { index, detail })?;
        }
        Ok(waveforms)
    }
}

/// Results of one transient sweep, scenario-major: the outcome of
/// scenario `s` under waveform `w` sits at index `s · waveforms + w`.
#[derive(Debug, Clone)]
pub struct TransientReport {
    /// One outcome per scenario×waveform pair.
    pub outcomes: Vec<TransientOutcome>,
    /// Width of the waveform axis.
    pub waveform_count: usize,
}

impl TransientReport {
    /// Number of transients run.
    pub fn len(&self) -> usize {
        self.outcomes.len()
    }

    /// True for an empty sweep.
    pub fn is_empty(&self) -> bool {
        self.outcomes.is_empty()
    }

    /// Outcome of `scenario` under `waveform`.
    ///
    /// # Panics
    ///
    /// Panics if the pair is out of range.
    pub fn outcome(&self, scenario: usize, waveform: usize) -> &TransientOutcome {
        assert!(waveform < self.waveform_count, "waveform out of range");
        &self.outcomes[scenario * self.waveform_count + waveform]
    }

    /// Transients that ran to the end time.
    pub fn finished_count(&self) -> usize {
        self.outcomes.iter().filter(|o| o.is_finished()).count()
    }

    /// Hottest finished transient across the sweep, K.
    pub fn max_peak_temperature(&self) -> Option<f64> {
        self.outcomes
            .iter()
            .filter_map(TransientOutcome::peak_temperature)
            .reduce(f64::max)
    }
}

impl fmt::Display for TransientReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} transients: {} finished, {} other",
            self.len(),
            self.finished_count(),
            self.len() - self.finished_count()
        )
    }
}

/// Reusable per-worker state for [`TransientBatchedSolver`]: the batch
/// panels plus per-lane bookkeeping. Buffers keep capacity across
/// chunks.
#[derive(Debug, Clone, Default)]
pub struct TransientWorkspace {
    rises: MultiVec,
    temps: MultiVec,
    powers: MultiVec,
    fresh: MultiVec,
    inject: MultiVec,
    ambient: Vec<f64>,
    scale: Vec<f64>,
    power_min: Vec<f64>,
    power_poison: Vec<f64>,
    peak: Vec<f64>,
    peak_time: Vec<f64>,
    alive: Vec<bool>,
    outcomes: Vec<Option<TransientOutcome>>,
    samples: Vec<Vec<TransientSample>>,
    lane_buf: Vec<f64>,
}

impl TransientWorkspace {
    /// An empty workspace; panels size themselves on first use.
    pub fn new() -> Self {
        TransientWorkspace::default()
    }

    fn reset(&mut self, blocks: usize, lanes: usize, sink_k: f64) {
        self.rises.reset(blocks, lanes);
        self.temps.reset(blocks, lanes);
        self.powers.reset(blocks, lanes);
        self.fresh.reset(blocks, lanes);
        self.inject.reset(blocks, lanes);
        self.ambient.clear();
        self.ambient.resize(lanes, sink_k);
        self.scale.clear();
        self.scale.resize(lanes, 1.0);
        self.power_min.clear();
        self.power_min.resize(lanes, 0.0);
        self.power_poison.clear();
        self.power_poison.resize(lanes, 0.0);
        self.peak.clear();
        self.peak.resize(lanes, sink_k);
        self.peak_time.clear();
        self.peak_time.resize(lanes, 0.0);
        self.alive.clear();
        self.alive.resize(lanes, false);
        self.outcomes.clear();
        self.outcomes.resize(lanes, None);
        self.samples.clear();
        self.samples.resize(lanes, Vec::new());
        self.lane_buf.clear();
        self.lane_buf.resize(blocks, 0.0);
        // Idle lanes still flow through the power model and the GEMMs;
        // a sane temperature keeps batched models (1/T terms) finite.
        for lane in 0..lanes {
            self.temps.fill_lane(lane, sink_k);
        }
    }
}

/// Batched implicit transient driver over one [`TransientOperator`].
///
/// Unlike the Picard batch (whose lanes retire at different iterations),
/// every transient lane runs the same fixed number of steps, so a chunk
/// of `B` scenario×waveform pairs advances in lockstep — two GEMMs per
/// step for the whole chunk — with per-lane divergence/bad-power
/// classification along the way.
#[derive(Debug, Clone, Copy)]
pub struct TransientBatchedSolver<'a> {
    op: &'a TransientOperator,
    /// Runaway ceiling, K.
    ceiling_k: f64,
}

/// Per-lane drive description for one chunk.
#[derive(Debug, Clone)]
pub struct TransientLane<'w> {
    /// Ambient (initial and sink) temperature of this lane, K.
    pub ambient_k: f64,
    /// Drive waveform scaling the lane's power model over time.
    pub waveform: &'w DriveWaveform,
}

impl<'a> TransientBatchedSolver<'a> {
    /// Couples the stepping operator with a runaway ceiling.
    pub fn new(op: &'a TransientOperator, ceiling_k: f64) -> Self {
        TransientBatchedSolver { op, ceiling_k }
    }

    /// Advances one chunk of lanes through `steps` implicit steps.
    ///
    /// The batch panels are `width` lanes wide (the power model's batch
    /// width); only the first `lanes.len() <= width` lanes are active —
    /// trailing lanes idle through the arithmetic at the sink
    /// temperature and are ignored. `model` must have
    /// [`BatchPowerModel::begin_lane`] already called for every entry of
    /// `lanes` (lane `j` ↔ `lanes[j]`). Returns one outcome per active
    /// lane, in order.
    ///
    /// # Panics
    ///
    /// Panics if `width < lanes.len()`.
    #[allow(clippy::too_many_arguments)]
    pub fn solve_chunk<M: BatchPowerModel + ?Sized>(
        &self,
        width: usize,
        lanes: &[TransientLane<'_>],
        model: &mut M,
        ws: &mut TransientWorkspace,
        steps: usize,
        record_stride: usize,
        cancel: Option<&CancelToken>,
    ) -> Vec<TransientOutcome> {
        assert!(width >= lanes.len(), "chunk wider than the batch panels");
        let n = self.op.len();
        let active = lanes.len();
        let dt = self.op.dt();
        let drive_offset = self.op.drive_offset();
        ws.reset(n, width, self.op.sink_temperature());
        for (j, lane) in lanes.iter().enumerate() {
            ws.ambient[j] = lane.ambient_k;
            ws.alive[j] = true;
            ws.peak[j] = lane.ambient_k;
            ws.temps.fill_lane(j, lane.ambient_k);
        }

        for step in 0..steps {
            // Cooperative-cancellation checkpoint: one poll per
            // transient step; still-running lanes retire as Cancelled
            // at the step they reached.
            if cancel.is_some_and(|token| token.is_cancelled()) {
                for j in 0..width {
                    if ws.alive[j] {
                        ws.alive[j] = false;
                        ws.outcomes[j] = Some(TransientOutcome::Cancelled { step });
                    }
                }
                break;
            }
            let t = dt * step as f64;
            // Power panel at the step-start temperatures, scaled by each
            // lane's drive at the scheme's evaluation time.
            model.fill_powers(&ws.temps, &mut ws.powers);
            for (j, lane) in lanes.iter().enumerate() {
                ws.scale[j] = lane.waveform.scale_at(t + drive_offset);
            }
            {
                let scale = &ws.scale[..width];
                for i in 0..n {
                    let prow = &mut ws.powers.component_mut(i)[..width];
                    for j in 0..width {
                        prow[j] *= scale[j];
                    }
                }
            }
            // Vectorized per-lane poison detection — the helper shared
            // with the Picard batch solver.
            scan_power_poison(&ws.powers, width, &mut ws.power_min, &mut ws.power_poison);
            for j in 0..width {
                // lint:allow(float-compare) — exact sentinel: poison stays literal 0.0 until a non-finite write lands (NaN also compares unequal)
                if ws.alive[j] && (ws.power_min[j] < 0.0 || ws.power_poison[j] != 0.0) {
                    if let Some((block, power)) = first_bad_power(&ws.powers, j) {
                        ws.alive[j] = false;
                        ws.outcomes[j] = Some(TransientOutcome::BadPower { step, block, power });
                    }
                }
            }
            // The implicit step: rises ← Φ·rises + Q·powers, batched.
            self.op.phi.mul_into(&ws.rises, &mut ws.fresh);
            self.op.q.mul_into(&ws.powers, &mut ws.inject);
            {
                let fresh = ws.fresh.as_slice();
                let inject = ws.inject.as_slice();
                let rises = ws.rises.as_mut_slice();
                for (r, (f, q)) in rises.iter_mut().zip(fresh.iter().zip(inject)) {
                    *r = *f + *q;
                }
            }
            // Absolute temperatures for the next power evaluation and
            // the per-lane peak/ceiling bookkeeping.
            let t_next = dt * (step + 1) as f64;
            {
                let ambient = &ws.ambient[..width];
                for i in 0..n {
                    let rrow = &ws.rises.component(i)[..width];
                    let trow = &mut ws.temps.component_mut(i)[..width];
                    for j in 0..width {
                        trow[j] = rrow[j] + ambient[j];
                    }
                }
            }
            for j in 0..width {
                if !ws.alive[j] {
                    continue;
                }
                let mut lane_peak = f64::NEG_INFINITY;
                for i in 0..n {
                    lane_peak = lane_peak.max(ws.temps.get(i, j));
                }
                if n > 0 && lane_peak > ws.peak[j] {
                    ws.peak[j] = lane_peak;
                    ws.peak_time[j] = t_next;
                }
                if n > 0 && lane_peak > self.ceiling_k {
                    ws.alive[j] = false;
                    ws.outcomes[j] = Some(TransientOutcome::Diverged {
                        time_s: t_next,
                        temperature: lane_peak,
                    });
                    continue;
                }
                if record_stride > 0 && (step + 1).is_multiple_of(record_stride) {
                    let mut total = 0.0;
                    for i in 0..n {
                        total += ws.powers.get(i, j);
                    }
                    ws.samples[j].push(TransientSample {
                        time_s: t_next,
                        peak_temperature_k: if n > 0 { lane_peak } else { ws.ambient[j] },
                        total_power_w: total,
                    });
                }
            }
        }

        (0..active)
            .map(|j| {
                if let Some(out) = ws.outcomes[j].take() {
                    return out;
                }
                let mut final_temperatures = vec![0.0; n];
                ws.temps.copy_lane_into(j, &mut final_temperatures);
                TransientOutcome::Finished {
                    final_temperatures,
                    peak_temperature: (n > 0).then_some(ws.peak[j]),
                    peak_time_s: ws.peak_time[j],
                    samples: std::mem::take(&mut ws.samples[j]),
                }
            })
            .collect()
    }

    /// The one-lane oracle: identical per-step arithmetic through the
    /// same `Φ`/`Q` matrices, driven with plain vectors. On the portable
    /// GEMM tier this is bit-identical to the batched path; on FMA
    /// hardware they agree to ~1 ULP per accumulation (the
    /// [`crate::cosim::batch`] contract).
    pub fn solve_single<P>(
        &self,
        ambient_k: f64,
        waveform: &DriveWaveform,
        mut power: P,
        steps: usize,
        record_stride: usize,
    ) -> TransientOutcome
    where
        P: FnMut(usize, f64) -> f64,
    {
        let n = self.op.len();
        let dt = self.op.dt();
        let drive_offset = self.op.drive_offset();
        let mut rises = vec![0.0; n];
        let mut temps = vec![ambient_k; n];
        let mut powers = vec![0.0; n];
        let mut scratch = vec![0.0; n];
        let mut next = vec![0.0; n];
        let mut peak = ambient_k;
        let mut peak_time = 0.0;
        let mut samples = Vec::new();
        for step in 0..steps {
            let t = dt * step as f64;
            let scale = waveform.scale_at(t + drive_offset);
            for i in 0..n {
                let p = power(i, temps[i]) * scale;
                if !p.is_finite() || p < 0.0 {
                    return TransientOutcome::BadPower {
                        step,
                        block: i,
                        power: p,
                    };
                }
                powers[i] = p;
            }
            self.op.step_into(&rises, &powers, &mut scratch, &mut next);
            rises.copy_from_slice(&next);
            let t_next = dt * (step + 1) as f64;
            let mut lane_peak = f64::NEG_INFINITY;
            for i in 0..n {
                temps[i] = rises[i] + ambient_k;
                lane_peak = lane_peak.max(temps[i]);
            }
            if n > 0 && lane_peak > peak {
                peak = lane_peak;
                peak_time = t_next;
            }
            if n > 0 && lane_peak > self.ceiling_k {
                return TransientOutcome::Diverged {
                    time_s: t_next,
                    temperature: lane_peak,
                };
            }
            if record_stride > 0 && (step + 1).is_multiple_of(record_stride) {
                samples.push(TransientSample {
                    time_s: t_next,
                    peak_temperature_k: if n > 0 { lane_peak } else { ambient_k },
                    total_power_w: powers.iter().sum(),
                });
            }
        }
        TransientOutcome::Finished {
            final_temperatures: temps,
            peak_temperature: (n > 0).then_some(peak),
            peak_time_s: peak_time,
            samples,
        }
    }
}

/// Explicit RK4 reference for the chip-scale transient: integrates
/// `du/dt = C⁻¹(P̂(t, u + T_amb) − G·u)` with `G = R⁻¹`, the textbook
/// formulation the implicit engine is validated and benchmarked
/// against. Explicit stability caps its step at the fastest network
/// mode (`h·λ_max ≲ 2.78`), which is exactly the cost the implicit
/// engine avoids.
#[derive(Debug, Clone)]
pub struct TransientRk4Reference {
    /// `G = R⁻¹`, W/K.
    g: Matrix,
    inv_c: Vec<f64>,
    sink_temperature: f64,
}

impl TransientRk4Reference {
    /// Inverts the influence operator and couples it with `capacitances`.
    ///
    /// # Errors
    ///
    /// See [`TransientError`].
    pub fn new(op: &ThermalOperator, capacitances: &[f64]) -> Result<Self, TransientError> {
        let n = op.len();
        if capacitances.len() != n {
            return Err(TransientError::DimensionMismatch {
                blocks: n,
                capacitances: capacitances.len(),
            });
        }
        if let Some(block) = capacitances
            .iter()
            .position(|c| !c.is_finite() || *c <= 0.0)
        {
            return Err(TransientError::BadCapacitance {
                block,
                value: capacitances[block],
            });
        }
        let g = if n == 0 {
            Matrix::zeros(0, 0)
        } else {
            op.influence()
                .inverse()
                .map_err(|_| TransientError::Singular)?
        };
        Ok(TransientRk4Reference {
            g,
            inv_c: capacitances.iter().map(|c| 1.0 / c).collect(),
            sink_temperature: op.sink_temperature(),
        })
    }

    /// Gershgorin upper bound on the fastest network rate `λ_max`
    /// (1/s): `max_i Σ_j |G_ij| / C_i`. Zero for an empty floorplan.
    pub fn lambda_max_bound(&self) -> f64 {
        let n = self.inv_c.len();
        let mut bound: f64 = 0.0;
        for i in 0..n {
            let mut row = 0.0;
            for j in 0..n {
                row += self.g[(i, j)].abs();
            }
            bound = bound.max(row * self.inv_c[i]);
        }
        bound
    }

    /// A stability-safe explicit step count for `duration`: `h·λ_max ≤ 1`
    /// (comfortably inside RK4's ≈2.78 linear stability bound, and
    /// accurate at 4th order). At least one step.
    pub fn stable_steps(&self, duration: f64) -> usize {
        ((duration * self.lambda_max_bound()).ceil() as usize).max(1)
    }

    /// Integrates one scenario with RK4 over `steps` fixed steps,
    /// returning the same outcome shape as the implicit engine (samples
    /// left empty). `power(block, T)` is the scenario power model,
    /// `waveform` the drive.
    pub fn solve<P>(
        &self,
        ambient_k: f64,
        waveform: &DriveWaveform,
        power: P,
        duration: f64,
        steps: usize,
    ) -> TransientOutcome
    where
        P: Fn(usize, f64) -> f64,
    {
        let n = self.inv_c.len();
        if n == 0 || duration <= 0.0 {
            return TransientOutcome::Finished {
                final_temperatures: Vec::new(),
                peak_temperature: None,
                peak_time_s: 0.0,
                samples: Vec::new(),
            };
        }
        let g = &self.g;
        let inv_c = &self.inv_c;
        let traj = rk4(
            move |t, u| {
                let mut du = g.mul_vec(u);
                let scale = waveform.scale_at(t);
                for (i, d) in du.iter_mut().enumerate() {
                    *d = (scale * power(i, u[i] + ambient_k) - *d) * inv_c[i];
                }
                du
            },
            0.0,
            duration,
            &vec![0.0; n],
            steps,
        );
        let mut peak = ambient_k;
        let mut peak_time = 0.0;
        for (t, u) in traj.t.iter().zip(&traj.y) {
            for r in u {
                let temp = r + ambient_k;
                if temp > peak {
                    peak = temp;
                    peak_time = *t;
                }
            }
        }
        // rk4 always records y0, so the fallback (the unexcited t = 0
        // state) is never taken; it replaces a panic site all the same.
        let final_temperatures: Vec<f64> = traj.y.last().map_or_else(
            || vec![ambient_k; n],
            |u| u.iter().map(|r| r + ambient_k).collect(),
        );
        TransientOutcome::Finished {
            final_temperatures,
            peak_temperature: Some(peak),
            peak_time_s: peak_time,
            samples: Vec::new(),
        }
    }

    /// Sink temperature of the source operator, K.
    pub fn sink_temperature(&self) -> f64 {
        self.sink_temperature
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptherm_floorplan::{Block, ChipGeometry, Floorplan};

    /// A single centred block on the paper die.
    fn one_block_plan() -> Floorplan {
        Floorplan::new(
            ChipGeometry::paper_1mm(),
            vec![Block::new("b0", 0.5e-3, 0.5e-3, 0.4e-3, 0.4e-3, 0.0)],
        )
        .expect("valid plan")
    }

    #[test]
    fn one_block_trapezoidal_matches_the_analytic_step_response() {
        // The chip-scale engine on a 1-block floorplan IS the Fig. 9
        // lumped RC: rth = R[0][0], cth = C[0]. Trapezoidal stepping at
        // dt = tau/400 must track rth*P*(1 - e^{-t/tau}) to <= 1e-6
        // relative (second-order error ~ (t/tau)e^{-t/tau}(dt/tau)^2/12).
        let fp = one_block_plan();
        let op = ThermalOperator::new(&fp);
        let caps = crate::thermal::capacitance::silicon_block_capacitances(&fp);
        let rth = op.influence()[(0, 0)];
        let tau = rth * caps[0];
        let steps = 2000usize;
        let dt = 5.0 * tau / steps as f64; // tau/400
        let top = TransientOperator::new(&op, &caps, dt, ImplicitScheme::Trapezoidal)
            .expect("valid operator");
        let p = 0.3;
        let solver = TransientBatchedSolver::new(&top, 1e6);
        let out = solver.solve_single(300.0, &DriveWaveform::Step, |_, _| p, steps, 1);
        let TransientOutcome::Finished { samples, .. } = out else {
            panic!("finished expected");
        };
        let steady = rth * p;
        for s in &samples {
            let exact = 300.0 + steady * (1.0 - (-s.time_s / tau).exp());
            let gap = (s.peak_temperature_k - exact).abs();
            assert!(
                gap <= 1e-6 * steady,
                "t = {}: {} vs {exact}",
                s.time_s,
                s.peak_temperature_k
            );
        }
    }

    #[test]
    fn backward_euler_converges_first_order_to_the_same_steady_state() {
        let fp = one_block_plan();
        let op = ThermalOperator::new(&fp);
        let caps = crate::thermal::capacitance::silicon_block_capacitances(&fp);
        let rth = op.influence()[(0, 0)];
        let tau = rth * caps[0];
        let p = 0.3;
        // 20 tau at a coarse dt = tau: BE is unconditionally stable and
        // the steady state is exact for any dt.
        let top = TransientOperator::new(&op, &caps, tau, ImplicitScheme::BackwardEuler)
            .expect("valid operator");
        let solver = TransientBatchedSolver::new(&top, 1e6);
        let out = solver.solve_single(300.0, &DriveWaveform::Step, |_, _| p, 40, 0);
        let finals = out.final_temperatures().expect("finished");
        assert!((finals[0] - (300.0 + rth * p)).abs() < 1e-6 * rth * p);
    }

    #[test]
    fn implicit_steps_are_stable_far_beyond_the_explicit_limit() {
        // dt = 1000x the smallest block tau: explicit RK4 would overflow
        // within a few steps; the implicit engine stays bounded and lands
        // on the steady state.
        let fp = Floorplan::paper_three_blocks();
        let op = ThermalOperator::new(&fp);
        let caps = crate::thermal::capacitance::silicon_block_capacitances(&fp);
        let tmin = (0..3)
            .map(|i| op.influence()[(i, i)] * caps[i])
            .fold(f64::INFINITY, f64::min);
        // L-stable backward Euler kills stiff modes even at dt = 1000x
        // the fastest tau; A-stable trapezoidal needs its stiff modes
        // merely bounded (they oscillate with |amplification| < 1), so
        // it runs at 5x tau_min — still ~2x past RK4's 2.78*tau
        // stability bound — for long enough to drain them.
        let cases = [
            (ImplicitScheme::BackwardEuler, 1000.0 * tmin, 200usize),
            (ImplicitScheme::Trapezoidal, 5.0 * tmin, 4000usize),
        ];
        for (scheme, dt, steps) in cases {
            let top = TransientOperator::new(&op, &caps, dt, scheme).expect("valid operator");
            let solver = TransientBatchedSolver::new(&top, 1e6);
            let out = solver.solve_single(
                300.0,
                &DriveWaveform::Step,
                |i, _| 0.1 * (i + 1) as f64,
                steps,
                0,
            );
            let finals = out.final_temperatures().expect("finished");
            let steady = op.temperatures(&[0.1, 0.2, 0.3]);
            for (a, b) in finals.iter().zip(&steady) {
                assert!(a.is_finite());
                assert!((a - b).abs() < 1e-6, "{scheme:?}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn batched_chunk_matches_the_single_lane_oracle() {
        let fp = Floorplan::paper_three_blocks();
        let op = ThermalOperator::new(&fp);
        let caps = crate::thermal::capacitance::silicon_block_capacitances(&fp);
        let tau = op.influence()[(0, 0)] * caps[0];
        let top = TransientOperator::new(&op, &caps, tau / 10.0, ImplicitScheme::Trapezoidal)
            .expect("valid operator");
        let solver = TransientBatchedSolver::new(&top, 1e6);
        let wave_step = DriveWaveform::Step;
        let wave_gate = DriveWaveform::SquareWave {
            frequency: 1.0 / (20.0 * tau),
            duty: 0.5,
        };
        let lanes = vec![
            TransientLane {
                ambient_k: 300.0,
                waveform: &wave_step,
            },
            TransientLane {
                ambient_k: 320.0,
                waveform: &wave_gate,
            },
            TransientLane {
                ambient_k: 310.0,
                waveform: &wave_step,
            },
        ];
        // Feedback power: leakage-like exponential growth with T.
        let f = |id: usize, b: usize, t: f64| {
            0.05 * (id + 1) as f64 + 0.01 * (b + 1) as f64 * ((t - 300.0) / 40.0).exp2()
        };
        let mut model = crate::cosim::batch::FnBatchPower::new(f);
        for (lane, _) in lanes.iter().enumerate() {
            model.begin_lane(lane, lane);
        }
        let mut ws = TransientWorkspace::new();
        let batched = solver.solve_chunk(lanes.len(), &lanes, &mut model, &mut ws, 400, 40, None);
        for (id, lane) in lanes.iter().enumerate() {
            let single =
                solver.solve_single(lane.ambient_k, lane.waveform, |b, t| f(id, b, t), 400, 40);
            match (&batched[id], &single) {
                (
                    TransientOutcome::Finished {
                        final_temperatures: bt,
                        peak_temperature: bp,
                        samples: bs,
                        ..
                    },
                    TransientOutcome::Finished {
                        final_temperatures: st,
                        peak_temperature: sp,
                        samples: ss,
                        ..
                    },
                ) => {
                    for (a, b) in bt.iter().zip(st) {
                        assert!((a - b).abs() < 1e-9, "lane {id}: {a} vs {b}");
                    }
                    assert!((bp.unwrap() - sp.unwrap()).abs() < 1e-9);
                    assert_eq!(bs.len(), ss.len());
                    for (a, b) in bs.iter().zip(ss) {
                        assert_eq!(a.time_s, b.time_s);
                        assert!((a.peak_temperature_k - b.peak_temperature_k).abs() < 1e-9);
                        assert!((a.total_power_w - b.total_power_w).abs() < 1e-9);
                    }
                }
                other => panic!("mismatched outcomes: {other:?}"),
            }
        }
    }

    #[test]
    fn implicit_operator_agrees_with_the_math_theta_method() {
        // Two assemblies of the same θ-scheme: `ode::theta_method`
        // factors `I − hθA` on the raw Jacobian `A = −C⁻¹R⁻¹`, while
        // `TransientOperator` factors the R-premultiplied form
        // `A' + θI`. Algebraically identical per step, so the results
        // must agree to rounding — this cross-check keeps the two
        // implementations (and their shared forcing-offset convention)
        // from drifting.
        use ptherm_math::ode::theta_method;
        let fp = Floorplan::paper_three_blocks();
        let op = ThermalOperator::new(&fp);
        let caps = crate::thermal::capacitance::silicon_block_capacitances(&fp);
        let n = caps.len();
        let g = op.influence().inverse().expect("invertible");
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                a[(i, j)] = -g[(i, j)] / caps[i];
            }
        }
        let powers = [0.1, 0.2, 0.3];
        let tau0 = op.influence()[(0, 0)] * caps[0];
        let steps = 50usize;
        for scheme in [ImplicitScheme::BackwardEuler, ImplicitScheme::Trapezoidal] {
            let dt = 0.7 * tau0;
            let top = TransientOperator::new(&op, &caps, dt, scheme).expect("valid operator");
            let engine_out = TransientBatchedSolver::new(&top, 1e6).solve_single(
                300.0,
                &DriveWaveform::Step,
                |i, _| powers[i],
                steps,
                0,
            );
            let engine_finals = engine_out.final_temperatures().expect("finished");
            let reference = theta_method(
                &a,
                |_, _| (0..n).map(|i| powers[i] / caps[i]).collect(),
                0.0,
                dt * steps as f64,
                &vec![0.0; n],
                steps,
                scheme,
            )
            .expect("valid system");
            let end = reference.y.last().expect("nonempty");
            for (i, (x, u)) in engine_finals.iter().zip(end).enumerate() {
                let y = 300.0 + u;
                assert!((x - y).abs() < 1e-8, "{scheme:?} block {i}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn malformed_waveforms_are_rejected_as_typed_errors() {
        let bad_trace = DriveWaveform::Trace {
            times: vec![0.0, 1.0],
            scales: vec![0.5],
        };
        assert!(bad_trace.validate().is_err());
        // Tolerant query path: never a panic even on malformed data.
        assert_eq!(bad_trace.scale_at(5.0), 0.5);
        let decreasing = DriveWaveform::Trace {
            times: vec![1.0, 0.5],
            scales: vec![0.1, 0.2],
        };
        assert!(decreasing.validate().is_err());
        assert!(DriveWaveform::SquareWave {
            frequency: 0.0,
            duty: 0.5
        }
        .validate()
        .is_err());
        assert!(DriveWaveform::SquareWave {
            frequency: 3.0,
            duty: 1.5
        }
        .validate()
        .is_err());
        assert!(DriveWaveform::paper_gating().validate().is_ok());
        assert!(DriveWaveform::Step.validate().is_ok());
    }

    #[test]
    fn implicit_engine_matches_the_rk4_reference() {
        // Same continuous system, two discretizations: with dt well under
        // the smallest tau both land on the true trajectory; agreement is
        // limited by the trapezoidal O(dt^2) term (documented tolerance).
        let fp = Floorplan::paper_three_blocks();
        let op = ThermalOperator::new(&fp);
        let caps = crate::thermal::capacitance::silicon_block_capacitances(&fp);
        let tmin = (0..3)
            .map(|i| op.influence()[(i, i)] * caps[i])
            .fold(f64::INFINITY, f64::min);
        let duration = 20.0 * tmin;
        let steps = 800usize; // dt = tmin/40
        let dt = duration / steps as f64;
        let top = TransientOperator::new(&op, &caps, dt, ImplicitScheme::Trapezoidal)
            .expect("valid operator");
        let reference = TransientRk4Reference::new(&op, &caps).expect("invertible");
        let power = |b: usize, t: f64| 0.1 * (b + 1) as f64 + 0.02 * ((t - 300.0) / 30.0).exp2();
        let implicit = TransientBatchedSolver::new(&top, 1e6).solve_single(
            305.0,
            &DriveWaveform::Step,
            power,
            steps,
            0,
        );
        let rk_steps = reference.stable_steps(duration).max(steps);
        let explicit = reference.solve(305.0, &DriveWaveform::Step, power, duration, rk_steps);
        let fi = implicit.final_temperatures().expect("finished");
        let fe = explicit.final_temperatures().expect("finished");
        for (a, b) in fi.iter().zip(fe) {
            let rise = b - 305.0;
            assert!((a - b).abs() <= 1e-4 * rise.max(1.0), "{a} vs {b}");
        }
    }

    #[test]
    fn bad_power_and_divergence_are_classified_per_lane() {
        let fp = Floorplan::paper_three_blocks();
        let op = ThermalOperator::new(&fp);
        let caps = crate::thermal::capacitance::silicon_block_capacitances(&fp);
        let tau = op.influence()[(0, 0)] * caps[0];
        let top = TransientOperator::new(&op, &caps, tau, ImplicitScheme::BackwardEuler)
            .expect("valid operator");
        let solver = TransientBatchedSolver::new(&top, 400.0);
        let wave = DriveWaveform::Step;
        let lanes = vec![
            TransientLane {
                ambient_k: 300.0,
                waveform: &wave,
            },
            TransientLane {
                ambient_k: 300.0,
                waveform: &wave,
            },
            TransientLane {
                ambient_k: 300.0,
                waveform: &wave,
            },
        ];
        // Lane 0 finishes; lane 1 reports NaN power at block 1; lane 2
        // heats violently past the 400 K ceiling.
        let f = |id: usize, b: usize, t: f64| match id {
            1 if b == 1 => f64::NAN,
            2 => 50.0 * ((t - 300.0) / 50.0).exp2(),
            _ => 0.1,
        };
        let mut model = crate::cosim::batch::FnBatchPower::new(f);
        for lane in 0..3 {
            model.begin_lane(lane, lane);
        }
        let mut ws = TransientWorkspace::new();
        let out = solver.solve_chunk(lanes.len(), &lanes, &mut model, &mut ws, 100, 0, None);
        assert!(out[0].is_finished());
        assert!(matches!(
            out[1],
            TransientOutcome::BadPower {
                step: 0,
                block: 1,
                ..
            }
        ));
        assert!(matches!(out[2], TransientOutcome::Diverged { .. }));
        // The poisoned/diverged lanes must not contaminate lane 0.
        let finals = out[0].final_temperatures().expect("finished");
        assert!(finals.iter().all(|t| t.is_finite()));
    }

    #[test]
    fn square_wave_cycles_between_heating_and_cooling() {
        let fp = one_block_plan();
        let op = ThermalOperator::new(&fp);
        let caps = crate::thermal::capacitance::silicon_block_capacitances(&fp);
        let rth = op.influence()[(0, 0)];
        let tau = rth * caps[0];
        // Slow gating: each half-period is 10 tau, so the block settles
        // fully both ways, like the paper's 3 Hz scope traces.
        let period = 20.0 * tau;
        let wave = DriveWaveform::SquareWave {
            frequency: 1.0 / period,
            duty: 0.5,
        };
        let steps = 2000usize;
        let dt = period / steps as f64;
        let top = TransientOperator::new(&op, &caps, dt, ImplicitScheme::Trapezoidal)
            .expect("valid operator");
        let p = 0.3;
        let out =
            TransientBatchedSolver::new(&top, 1e6).solve_single(300.0, &wave, |_, _| p, steps, 1);
        let TransientOutcome::Finished { samples, .. } = out else {
            panic!("finished expected");
        };
        let steady = rth * p;
        // End of the ON half-period: fully risen.
        let on_end = samples[steps / 2 - 2].peak_temperature_k - 300.0;
        assert!(
            (on_end - steady).abs() < 0.01 * steady,
            "{on_end} vs {steady}"
        );
        // End of the OFF half-period: fully decayed.
        let off_end = samples[steps - 2].peak_temperature_k - 300.0;
        assert!(off_end < 0.01 * steady, "{off_end}");
    }

    #[test]
    fn trace_waveform_interpolates_and_clamps() {
        let w = DriveWaveform::Trace {
            times: vec![0.0, 1.0, 2.0],
            scales: vec![0.0, 1.0, 0.5],
        };
        assert_eq!(w.scale_at(-1.0), 0.0);
        assert_eq!(w.scale_at(0.5), 0.5);
        assert_eq!(w.scale_at(1.0), 1.0);
        assert!((w.scale_at(1.5) - 0.75).abs() < 1e-15);
        assert_eq!(w.scale_at(5.0), 0.5);
        let empty = DriveWaveform::Trace {
            times: Vec::new(),
            scales: Vec::new(),
        };
        assert_eq!(empty.scale_at(3.0), 1.0);
    }

    #[test]
    fn operator_construction_is_validated() {
        let fp = Floorplan::paper_three_blocks();
        let op = ThermalOperator::new(&fp);
        assert!(matches!(
            TransientOperator::new(&op, &[1.0, 1.0], 1e-3, ImplicitScheme::BackwardEuler),
            Err(TransientError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            TransientOperator::new(&op, &[1.0, 0.0, 1.0], 1e-3, ImplicitScheme::BackwardEuler),
            Err(TransientError::BadCapacitance { block: 1, .. })
        ));
        assert!(matches!(
            TransientOperator::new(&op, &[1.0, 1.0, 1.0], 0.0, ImplicitScheme::BackwardEuler),
            Err(TransientError::BadStep { .. })
        ));
        assert!(matches!(
            TransientRk4Reference::new(&op, &[1.0]),
            Err(TransientError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn empty_floorplan_transient_finishes_trivially() {
        let fp = Floorplan::new(ChipGeometry::paper_1mm(), Vec::new()).expect("empty plan");
        let op = ThermalOperator::new(&fp);
        let top = TransientOperator::new(&op, &[], 1e-3, ImplicitScheme::Trapezoidal)
            .expect("valid operator");
        assert!(top.is_empty());
        assert_eq!(top.min_time_constant(), None);
        let out = TransientBatchedSolver::new(&top, 1e6).solve_single(
            300.0,
            &DriveWaveform::Step,
            |_, _| 0.0,
            10,
            2,
        );
        match out {
            TransientOutcome::Finished {
                final_temperatures,
                peak_temperature,
                ..
            } => {
                assert!(final_temperatures.is_empty());
                assert_eq!(peak_temperature, None);
            }
            other => panic!("expected finished, got {other:?}"),
        }
    }
}
