//! The fleet's line-delimited JSON job protocol.
//!
//! One request is a stream of JSONL records, one JSON object per line
//! (blank lines and `#`-prefixed comment lines are skipped). Records
//! are discriminated by their `"type"` field:
//!
//! * `floorplan` — registers a named floorplan, either generated
//!   (`"tiles": {"rows", "cols", "p_min", "p_max", "seed"}`) or
//!   explicit (`"blocks": [{"name", "cx", "cy", "w", "l", "power"}]`),
//!   with an optional `"geometry"` object (`width`, `length`,
//!   `thickness`, `conductivity`, `sink_k`; defaults: the paper's 1 mm
//!   die). Floorplans must be defined before any job references them.
//! * `steady` — a steady-state sweep job: `"floorplan"` (name),
//!   `"dynamic_w"`/`"leakage_w"` chip budgets, and optional axes
//!   `"vdd_scales"`, `"activities"`, `"ambients_k"`. An optional
//!   `"name"` registers the job for later `delta` references; an
//!   optional `"power"` selects the power law (`"scaled"` default, or
//!   `"biased"` with an optional positive `"theta_k"` bias
//!   temperature — the De Vogeleer exponential temperature-bias law).
//! * `delta` — an incremental re-solve: `"base"` names an earlier
//!   **named** steady job and the record overrides any of
//!   `dynamic_w`, `leakage_w`, `vdd_scales`, `activities`,
//!   `ambients_k`, `backend` or `deadline_ms`. The engine warm-starts
//!   each delta scenario from the cached base fixed point; output is
//!   bitwise identical whether the base is cached or re-solved.
//!   `"floorplan"`, `"power"` and `"name"` are refused: a delta runs
//!   on its base's floorplan and power law, and cannot itself be a
//!   base.
//! * `envelope` — runaway-envelope bisection: the steady fields plus
//!   `"axis"` (`"vdd_scale"`, `"activity"` or `"ambient_k"`), finite
//!   `"lo"`/`"hi"` interval endpoints and a positive `"tolerance"`.
//!   Each fiber of the remaining axes is bisected to bracket the
//!   converged/runaway boundary.
//! * `transient` — a transient job: the steady fields plus `"dt_s"`,
//!   `"steps"`, optional `"scheme"` (`"trapezoidal"` default, or
//!   `"backward_euler"`) and `"waveforms"` (list of `"step"`,
//!   `{"square": {"frequency", "duty"}}` or
//!   `{"trace": {"times": [...], "scales": [...]}}`).
//! * `map` — a high-resolution spatial map job: the steady fields plus
//!   `"grid": {"nx", "ny"}` (positive tile counts, product bounded so a
//!   hostile request cannot allocate unbounded kernels). Each converged
//!   scenario renders an `nx × ny` FFT temperature map.
//!
//! Every record may carry an optional `"v"` protocol-version field
//! (default [`PROTOCOL_VERSION`]). Lines requesting an unknown version
//! are refused with a typed [`RequestError::Version`]; job result
//! lines echo `"v"` back **only when the request line carried it
//! explicitly**, so version-silent clients see byte-stable output.
//!
//! Serve mode additionally accepts two **control records**:
//! `{"type": "stats"}` (one stats line back on the requesting
//! connection) and `{"type": "shutdown"}` (graceful drain); batch mode
//! refuses them, since a file has no connection to answer on.
//!
//! The full schema with examples is documented in
//! `docs/ARCHITECTURE.md`. Everything parses into typed specs here;
//! malformed input is a [`RequestError`] naming the offending line —
//! never a panic inside a fleet worker.

use crate::json::{Json, JsonError};
use ptherm_core::cosim::{DriveWaveform, EnvelopeAxis, SweepBackend, DEFAULT_BIAS_THETA_K};
use ptherm_floorplan::fingerprint::Fingerprinter;
use ptherm_floorplan::{generator, Block, BuildFloorplanError, ChipGeometry, Floorplan};
use ptherm_math::ode::ImplicitScheme;
use std::fmt;
use std::sync::Arc;

/// The protocol version this build speaks. Request lines may pin it
/// with `"v": 1`; any other value is a typed per-line refusal
/// ([`RequestError::Version`]), so old clients fail loudly against a
/// future incompatible server instead of silently misparsing.
pub const PROTOCOL_VERSION: u64 = 1;

/// A parse/validation failure, pinned to a 1-based request line.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestError {
    /// The line is not valid JSON.
    Json {
        /// 1-based line number.
        line: usize,
        /// Parser diagnosis.
        error: JsonError,
    },
    /// The line is valid JSON but not a valid record.
    Schema {
        /// 1-based line number.
        line: usize,
        /// Explanation.
        detail: String,
    },
    /// A floorplan record failed geometric validation.
    Floorplan {
        /// 1-based line number.
        line: usize,
        /// The underlying validation error.
        error: BuildFloorplanError,
    },
    /// The line requested a protocol version this build does not speak.
    Version {
        /// 1-based line number.
        line: usize,
        /// The unsupported version the line asked for.
        requested: u64,
    },
}

impl fmt::Display for RequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RequestError::Json { line, error } => write!(f, "line {line}: {error}"),
            RequestError::Schema { line, detail } => write!(f, "line {line}: {detail}"),
            RequestError::Floorplan { line, error } => {
                write!(f, "line {line}: invalid floorplan: {error}")
            }
            RequestError::Version { line, requested } => write!(
                f,
                "line {line}: unsupported protocol version {requested} (this build speaks {PROTOCOL_VERSION})"
            ),
        }
    }
}

impl std::error::Error for RequestError {}

/// The power law a job solves under, selected by the record's
/// optional `"power"` field.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PowerSpec {
    /// The paper's flat scaled-technology law (default):
    /// temperature-dependent leakage, temperature-flat dynamic power.
    Scaled,
    /// The De Vogeleer temperature-bias dynamic-power law
    /// ([`ptherm_core::cosim::BiasedTechPower`]): dynamic power grows
    /// as `e^{(T − T_ref)/θ}` on top of the scaled law.
    Biased {
        /// Bias temperature θ, K (finite and positive — the parser
        /// refuses anything else, so the core clamp never fires on
        /// fleet input).
        theta_k: f64,
    },
}

impl PowerSpec {
    /// The record tag (`"scaled"` / `"biased"`).
    pub fn name(self) -> &'static str {
        match self {
            PowerSpec::Scaled => "scaled",
            PowerSpec::Biased { .. } => "biased",
        }
    }
}

/// A steady-state sweep job.
#[derive(Debug, Clone, PartialEq)]
pub struct SteadyJob {
    /// Name of a previously defined floorplan.
    pub floorplan: String,
    /// Optional job name registering this steady job as a `delta`
    /// base on later lines. Names are per-request/per-connection,
    /// like floorplan names, and must be unique.
    pub name: Option<String>,
    /// The power law to solve under (`"power"` field; scaled default).
    pub power: PowerSpec,
    /// Chip dynamic-power budget at activity 1 / nominal Vdd, W.
    pub dynamic_w: f64,
    /// Chip leakage budget at `T_ref` / nominal Vdd, W.
    pub leakage_w: f64,
    /// Supply-scale axis (default `[1.0]`).
    pub vdd_scales: Vec<f64>,
    /// Activity axis (default `[1.0]`).
    pub activities: Vec<f64>,
    /// Ambient axis, K; `None` = the floorplan's sink temperature.
    pub ambients_k: Option<Vec<f64>>,
    /// Requested sweep backend (`"auto"` unless the record says
    /// otherwise). Only steady jobs honour it — map and transient jobs
    /// always run the dense operator.
    pub backend: SweepBackend,
    /// Optional per-job wall-clock budget, ms. When the budget runs
    /// out mid-solve the job retires cooperatively with a typed
    /// deadline-exceeded error carrying its partial-progress stats —
    /// no thread is ever killed. `None` = unbounded.
    pub deadline_ms: Option<u64>,
    /// The protocol version the request line pinned explicitly, if
    /// any. `Some` makes the result line echo `"v"` back; `None`
    /// (version-silent, the common case) keeps the line byte-stable
    /// with pre-versioning output.
    pub v: Option<u64>,
}

/// A transient (time-stepped) job.
#[derive(Debug, Clone, PartialEq)]
pub struct TransientJob {
    /// The steady-state fields (floorplan, budgets, scenario axes).
    pub base: SteadyJob,
    /// Time step, s.
    pub dt_s: f64,
    /// Step count.
    pub steps: usize,
    /// Implicit scheme.
    pub scheme: ImplicitScheme,
    /// Drive waveforms (empty = single step drive).
    pub waveforms: Vec<DriveWaveform>,
}

/// A high-resolution spatial map job.
#[derive(Debug, Clone, PartialEq)]
pub struct MapJob {
    /// The steady-state fields (floorplan, budgets, scenario axes).
    pub base: SteadyJob,
    /// Map grid width in tiles.
    pub nx: usize,
    /// Map grid height in tiles.
    pub ny: usize,
}

/// An incremental delta re-solve: a steady job warm-started from the
/// fixed points of an earlier **named** steady job.
///
/// Resolution happens at parse time: the `"base"` reference is looked
/// up in the request's (or connection's) named-steady registry and
/// cloned in, so the spec is self-contained — serve-mode results
/// cannot depend on later redefinitions, mirroring how floorplan
/// references bind at admission.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaJob {
    /// The referenced base steady job, resolved at parse time.
    pub base: SteadyJob,
    /// The delta job itself: the base with this record's overrides
    /// applied (same floorplan and power law by construction).
    pub job: SteadyJob,
}

/// A runaway-envelope bisection job: bracket the converged/runaway
/// boundary along one scenario axis per fiber of the remaining axes
/// (see [`ptherm_core::cosim::envelope`]).
#[derive(Debug, Clone, PartialEq)]
pub struct EnvelopeJob {
    /// The steady-state fields (floorplan, budgets, fiber axes; the
    /// swept axis's own values are ignored).
    pub base: SteadyJob,
    /// The axis bisected along each fiber.
    pub axis: EnvelopeAxis,
    /// Low end of the searched interval (inclusive).
    pub lo: f64,
    /// High end of the searched interval (inclusive).
    pub hi: f64,
    /// Maximum final bracket width.
    pub tolerance: f64,
}

/// One job of a fleet request.
#[derive(Debug, Clone, PartialEq)]
pub enum JobSpec {
    /// Steady-state sweep.
    Steady(SteadyJob),
    /// Implicit transient.
    Transient(TransientJob),
    /// High-resolution spatial map sweep.
    Map(MapJob),
    /// Incremental delta re-solve against a named steady base.
    Delta(DeltaJob),
    /// Runaway-envelope bisection.
    Envelope(EnvelopeJob),
}

impl JobSpec {
    /// The referenced floorplan name.
    pub fn floorplan(&self) -> &str {
        match self {
            JobSpec::Steady(j) => &j.floorplan,
            JobSpec::Transient(j) => &j.base.floorplan,
            JobSpec::Map(j) => &j.base.floorplan,
            JobSpec::Delta(j) => &j.job.floorplan,
            JobSpec::Envelope(j) => &j.base.floorplan,
        }
    }

    /// Short kind tag for reports.
    pub fn kind(&self) -> &'static str {
        match self {
            JobSpec::Steady(_) => "steady",
            JobSpec::Transient(_) => "transient",
            JobSpec::Map(_) => "map",
            JobSpec::Delta(_) => "delta",
            JobSpec::Envelope(_) => "envelope",
        }
    }

    /// The job's wall-clock budget, ms, if one was requested.
    pub fn deadline_ms(&self) -> Option<u64> {
        match self {
            JobSpec::Steady(j) => j.deadline_ms,
            JobSpec::Transient(j) => j.base.deadline_ms,
            JobSpec::Map(j) => j.base.deadline_ms,
            JobSpec::Delta(j) => j.job.deadline_ms,
            JobSpec::Envelope(j) => j.base.deadline_ms,
        }
    }

    /// The protocol version the request line pinned explicitly, if any
    /// (see [`SteadyJob::v`]).
    pub fn version(&self) -> Option<u64> {
        match self {
            JobSpec::Steady(j) => j.v,
            JobSpec::Transient(j) => j.base.v,
            JobSpec::Map(j) => j.base.v,
            JobSpec::Delta(j) => j.job.v,
            JobSpec::Envelope(j) => j.base.v,
        }
    }
}

/// The result-cache key of one resolved steady job: what the fleet's
/// delta path uses to look up (or single-flight build) the base
/// job's **cold** [`SweepReport`](ptherm_core::cosim::SweepReport) in
/// [`OperatorCache`](crate::cache::OperatorCache).
///
/// Keying rules (documented contract, pinned by
/// `tests/delta_determinism.rs`):
///
/// * **Included** — the floorplan's content fingerprint (not its
///   name: same die, same results), both power budgets, the power law
///   and its θ, all three scenario axes, and the **resolved** backend
///   (dense and spectral fixed points differ at the ULP level).
/// * **Excluded** — the job/floorplan *names*, `deadline_ms`, the
///   protocol-version echo, and retry/fault state: none of them
///   change the fixed points. Engine-fixed configuration (technology
///   kits, image orders, batch width) is also excluded — the cache
///   lives and dies with one validated engine configuration, so those
///   inputs cannot vary across entries.
///
/// A cache miss (or eviction) re-solves the base cold and
/// deterministically reproduces the evicted entry bit for bit, so
/// delta output never depends on cache state.
pub fn steady_result_fingerprint(job: &SteadyJob, plan_fingerprint: u64, spectral: bool) -> u64 {
    let mut f = Fingerprinter::new("ptherm.fleet.steady-result.v1");
    f.write_u64(plan_fingerprint);
    f.write_u64(u64::from(spectral));
    f.write_f64(job.dynamic_w);
    f.write_f64(job.leakage_w);
    match job.power {
        PowerSpec::Scaled => f.write_str("scaled"),
        PowerSpec::Biased { theta_k } => {
            f.write_str("biased");
            f.write_f64(theta_k);
        }
    }
    f.write_f64_slice(&job.vdd_scales);
    f.write_f64_slice(&job.activities);
    match &job.ambients_k {
        None => f.write_str("sink"),
        Some(ambients) => {
            f.write_str("ambients");
            f.write_f64_slice(ambients);
        }
    }
    f.finish()
}

/// A parsed request: named floorplans (in definition order) and jobs
/// (in submission order).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FleetRequest {
    /// Defined floorplans.
    pub floorplans: Vec<(String, Floorplan)>,
    /// Submitted jobs.
    pub jobs: Vec<JobSpec>,
}

/// A serve-mode control record (see the [module docs](self)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlRecord {
    /// `{"type": "stats"}` — answer with one stats line on the
    /// requesting connection.
    Stats,
    /// `{"type": "shutdown"}` — begin a graceful drain: refuse new
    /// admissions, finish queued and in-flight jobs, then exit.
    Shutdown,
}

impl ControlRecord {
    /// The record's `"type"` tag.
    pub fn name(self) -> &'static str {
        match self {
            ControlRecord::Stats => "stats",
            ControlRecord::Shutdown => "shutdown",
        }
    }
}

/// One classified request line: what [`RequestParser`] (and through
/// it [`parse_jsonl`]) produces per JSONL record.
#[derive(Debug, Clone, PartialEq)]
enum Record {
    /// A floorplan definition.
    Floorplan(String, Floorplan),
    /// A job spec (with the pinned protocol version, if any, inside).
    Job(Box<JobSpec>),
    /// A serve-mode control record.
    Control(ControlRecord),
}

/// Validates the optional `"v"` field: absent or
/// [`PROTOCOL_VERSION`] is fine, a non-integer is a schema error, any
/// other integer is a typed version refusal. Returns the explicitly
/// pinned version, if any.
fn validate_version(record: &Json, line: usize) -> Result<Option<u64>, RequestError> {
    match record.get("v") {
        None => Ok(None),
        Some(v) => {
            let requested = v.as_usize().ok_or_else(|| RequestError::Schema {
                line,
                detail: "\"v\" must be a non-negative integer protocol version".into(),
            })? as u64;
            if requested != PROTOCOL_VERSION {
                return Err(RequestError::Version { line, requested });
            }
            Ok(Some(requested))
        }
    }
}

/// Classifies one parsed JSON record. `exists` answers whether a
/// floorplan name has been defined earlier in this
/// request/connection; `steady_of` resolves a named steady job for
/// `delta` references the same way.
fn classify_record(
    record: &Json,
    line: usize,
    exists: &dyn Fn(&str) -> bool,
    steady_of: &dyn Fn(&str) -> Option<SteadyJob>,
) -> Result<Record, RequestError> {
    let schema = |detail: String| RequestError::Schema { line, detail };
    let v = validate_version(record, line)?;
    let kind = record
        .get("type")
        .and_then(Json::as_str)
        .ok_or_else(|| schema("record needs a string \"type\" field".into()))?;
    match kind {
        "floorplan" => {
            let (name, plan) = parse_floorplan(record, line)?;
            Ok(Record::Floorplan(name, plan))
        }
        "steady" => Ok(Record::Job(Box::new(JobSpec::Steady(parse_steady(
            record, line, exists, v,
        )?)))),
        "transient" => Ok(Record::Job(Box::new(JobSpec::Transient(parse_transient(
            record, line, exists, v,
        )?)))),
        "map" => Ok(Record::Job(Box::new(JobSpec::Map(parse_map(
            record, line, exists, v,
        )?)))),
        "delta" => Ok(Record::Job(Box::new(JobSpec::Delta(parse_delta(
            record, line, steady_of, v,
        )?)))),
        "envelope" => Ok(Record::Job(Box::new(JobSpec::Envelope(parse_envelope(
            record, line, exists, v,
        )?)))),
        "stats" => Ok(Record::Control(ControlRecord::Stats)),
        "shutdown" => Ok(Record::Control(ControlRecord::Shutdown)),
        other => Err(schema(format!("unknown record type {other:?}"))),
    }
}

/// Parses a whole JSONL request (see the [module docs](self)).
///
/// Control records (`stats` / `shutdown`) are refused here: they only
/// make sense on a live serve-mode connection.
///
/// # Errors
///
/// The first offending line as a [`RequestError`].
pub fn parse_jsonl(text: &str) -> Result<FleetRequest, RequestError> {
    let mut parser = RequestParser::new();
    let mut jobs = Vec::new();
    for raw in text.lines() {
        match parser.parse_line(raw)? {
            ParsedLine::Empty | ParsedLine::Floorplan(_) => {}
            ParsedLine::Job { spec, .. } => jobs.push(*spec),
            ParsedLine::Control(ctl) => {
                return Err(RequestError::Schema {
                    line: parser.lines_seen(),
                    detail: format!(
                        "control record \"{}\" is only valid on a serve-mode connection",
                        ctl.name()
                    ),
                })
            }
        }
    }
    // Every job's plan handle was dropped with its line, so each
    // registry entry is uniquely owned again and unwraps without a copy.
    let floorplans = parser
        .floorplans
        .into_iter()
        .map(|(name, plan)| (name, Arc::unwrap_or_clone(plan)))
        .collect();
    Ok(FleetRequest { floorplans, jobs })
}

/// One line's outcome from the streaming [`RequestParser`].
#[derive(Debug, Clone)]
pub enum ParsedLine {
    /// Blank or comment line — nothing to do.
    Empty,
    /// A floorplan was defined and registered under this name.
    Floorplan(String),
    /// A job, with its floorplan resolved **at admission time** against
    /// this parser's registry. Carrying the resolved handle (rather
    /// than re-resolving by name at run time) is what makes serve-mode
    /// results independent of later floorplan definitions on other
    /// connections — and therefore bitwise identical to batch mode.
    Job {
        /// The parsed job spec (boxed: a spec is an order of magnitude
        /// larger than the other variants).
        spec: Box<JobSpec>,
        /// The referenced floorplan, resolved on this connection.
        plan: Arc<Floorplan>,
    },
    /// A serve-mode control record.
    Control(ControlRecord),
}

/// Incremental per-connection parser for serve mode.
///
/// Unlike [`parse_jsonl`] (whole request, first-error refusal), a
/// `RequestParser` consumes one line at a time and keeps the
/// connection's floorplan registry across lines, so a long-lived
/// client can interleave definitions and jobs. Errors are per-line:
/// the caller reports the refusal and keeps the connection open.
///
/// Each connection gets its own parser; floorplans defined on one
/// connection are invisible to every other, which keeps result lines
/// free of cross-client interference.
#[derive(Debug, Default)]
pub struct RequestParser {
    floorplans: Vec<(String, Arc<Floorplan>)>,
    named_steady: Vec<(String, SteadyJob)>,
    line: usize,
}

impl RequestParser {
    /// A parser with an empty floorplan registry, at line 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Lines consumed so far (including blank/comment/refused lines).
    pub fn lines_seen(&self) -> usize {
        self.line
    }

    /// Counts a line the caller refused without parsing (the serve
    /// reader's over-long and non-UTF-8 lines), so later errors keep
    /// their line numbers.
    pub fn skip_line(&mut self) {
        self.line += 1;
    }

    /// Looks up a floorplan defined earlier on this connection.
    pub fn floorplan(&self, name: &str) -> Option<&Arc<Floorplan>> {
        self.floorplans
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, plan)| plan)
    }

    /// Consumes one raw request line.
    ///
    /// # Errors
    ///
    /// A [`RequestError`] pinned to this connection's 1-based line
    /// count. The parser stays usable: a refused line consumes its
    /// line number and nothing else.
    pub fn parse_line(&mut self, raw: &str) -> Result<ParsedLine, RequestError> {
        self.line += 1;
        let line = self.line;
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            return Ok(ParsedLine::Empty);
        }
        let record = Json::parse(trimmed).map_err(|error| RequestError::Json { line, error })?;
        let exists = |name: &str| self.floorplans.iter().any(|(n, _)| n == name);
        let steady_of = |name: &str| {
            self.named_steady
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, job)| job.clone())
        };
        match classify_record(&record, line, &exists, &steady_of)? {
            Record::Floorplan(name, plan) => {
                if self.floorplans.iter().any(|(n, _)| *n == name) {
                    return Err(RequestError::Schema {
                        line,
                        detail: format!("floorplan {name:?} defined twice"),
                    });
                }
                self.floorplans.push((name.clone(), Arc::new(plan)));
                Ok(ParsedLine::Floorplan(name))
            }
            Record::Job(spec) => {
                if let JobSpec::Steady(job) = &*spec {
                    if let Some(name) = &job.name {
                        if self.named_steady.iter().any(|(n, _)| n == name) {
                            return Err(RequestError::Schema {
                                line,
                                detail: format!("steady job {name:?} named twice"),
                            });
                        }
                        self.named_steady.push((name.clone(), job.clone()));
                    }
                }
                // classify_record validated the reference, so the
                // lookup cannot miss; still, fail typed rather than
                // unwrap if the invariant ever breaks.
                let plan = self.floorplan(spec.floorplan()).cloned().ok_or_else(|| {
                    RequestError::Schema {
                        line,
                        detail: format!(
                            "job references undefined floorplan {:?}",
                            spec.floorplan()
                        ),
                    }
                })?;
                Ok(ParsedLine::Job { spec, plan })
            }
            Record::Control(ctl) => Ok(ParsedLine::Control(ctl)),
        }
    }
}

fn field_f64(record: &Json, key: &str, line: usize) -> Result<f64, RequestError> {
    record
        .get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| RequestError::Schema {
            line,
            detail: format!("missing or non-numeric \"{key}\""),
        })
}

fn optional_f64(record: &Json, key: &str, default: f64, line: usize) -> Result<f64, RequestError> {
    match record.get(key) {
        None => Ok(default),
        Some(v) => v.as_f64().ok_or_else(|| RequestError::Schema {
            line,
            detail: format!("\"{key}\" must be a number"),
        }),
    }
}

fn optional_f64_list(
    record: &Json,
    key: &str,
    line: usize,
) -> Result<Option<Vec<f64>>, RequestError> {
    let bad = || RequestError::Schema {
        line,
        detail: format!("\"{key}\" must be an array of numbers"),
    };
    match record.get(key) {
        None => Ok(None),
        Some(v) => {
            let items = v.as_array().ok_or_else(bad)?;
            items
                .iter()
                .map(|x| x.as_f64().ok_or_else(bad))
                .collect::<Result<Vec<f64>, _>>()
                .map(Some)
        }
    }
}

fn parse_geometry(record: &Json, line: usize) -> Result<ChipGeometry, RequestError> {
    let defaults = ChipGeometry::paper_1mm();
    let Some(g) = record.get("geometry") else {
        return Ok(defaults);
    };
    // A non-object "geometry" must be an error: Json::get on it would
    // return None for every field and silently serve the default die.
    if !matches!(g, Json::Object(_)) {
        return Err(RequestError::Schema {
            line,
            detail: "\"geometry\" must be an object".into(),
        });
    }
    Ok(ChipGeometry {
        width: optional_f64(g, "width", defaults.width, line)?,
        length: optional_f64(g, "length", defaults.length, line)?,
        thickness: optional_f64(g, "thickness", defaults.thickness, line)?,
        conductivity: optional_f64(g, "conductivity", defaults.conductivity, line)?,
        sink_temperature: optional_f64(g, "sink_k", defaults.sink_temperature, line)?,
    })
}

fn parse_floorplan(record: &Json, line: usize) -> Result<(String, Floorplan), RequestError> {
    let schema = |detail: String| RequestError::Schema { line, detail };
    let name = record
        .get("name")
        .and_then(Json::as_str)
        .ok_or_else(|| schema("floorplan record needs a string \"name\"".into()))?
        .to_string();
    let geometry = parse_geometry(record, line)?;
    let plan = match (record.get("tiles"), record.get("blocks")) {
        (Some(tiles), None) => {
            let dim = |key: &str| -> Result<usize, RequestError> {
                tiles
                    .get(key)
                    .and_then(Json::as_usize)
                    .filter(|&n| n > 0)
                    .ok_or_else(|| RequestError::Schema {
                        line,
                        detail: format!("\"tiles\" needs a positive integer \"{key}\""),
                    })
            };
            let rows = dim("rows")?;
            let cols = dim("cols")?;
            let p_min = optional_f64(tiles, "p_min", 0.0, line)?;
            let p_max = optional_f64(tiles, "p_max", p_min, line)?;
            let seed = tiles
                .get("seed")
                .map(|s| {
                    s.as_usize().ok_or_else(|| RequestError::Schema {
                        line,
                        detail: "\"seed\" must be a non-negative integer".into(),
                    })
                })
                .transpose()?
                .unwrap_or(0) as u64;
            if !(0.0..=f64::INFINITY).contains(&p_min) || p_max < p_min {
                return Err(schema(
                    "\"tiles\" power range must satisfy 0 <= p_min <= p_max".into(),
                ));
            }
            generator::tiled(geometry, rows, cols, p_min, p_max, seed)
                .map_err(|error| RequestError::Floorplan { line, error })?
        }
        (None, Some(blocks)) => {
            let items = blocks
                .as_array()
                .ok_or_else(|| schema("\"blocks\" must be an array".into()))?;
            let parsed: Result<Vec<Block>, RequestError> = items
                .iter()
                .enumerate()
                .map(|(i, b)| {
                    let name = b
                        .get("name")
                        .and_then(Json::as_str)
                        .map(str::to_string)
                        .unwrap_or_else(|| format!("blk-{i}"));
                    Ok(Block::new(
                        name,
                        field_f64(b, "cx", line)?,
                        field_f64(b, "cy", line)?,
                        field_f64(b, "w", line)?,
                        field_f64(b, "l", line)?,
                        optional_f64(b, "power", 0.0, line)?,
                    ))
                })
                .collect();
            Floorplan::new(geometry, parsed?)
                .map_err(|error| RequestError::Floorplan { line, error })?
        }
        _ => {
            return Err(schema(
                "floorplan record needs exactly one of \"tiles\" or \"blocks\"".into(),
            ))
        }
    };
    Ok((name, plan))
}

/// Parses the optional `"backend"` field, falling back to `default`
/// when the record is silent.
fn parse_backend(
    record: &Json,
    default: SweepBackend,
    line: usize,
) -> Result<SweepBackend, RequestError> {
    match record.get("backend").map(|b| b.as_str()) {
        None => Ok(default),
        Some(Some("auto")) => Ok(SweepBackend::Auto),
        Some(Some("dense")) => Ok(SweepBackend::Dense),
        Some(Some("spectral")) => Ok(SweepBackend::Spectral),
        Some(other) => Err(RequestError::Schema {
            line,
            detail: format!("unknown backend {other:?} (use \"auto\", \"dense\" or \"spectral\")"),
        }),
    }
}

/// Parses the optional `"deadline_ms"` field, falling back to
/// `default` when the record is silent.
fn parse_deadline(
    record: &Json,
    default: Option<u64>,
    line: usize,
) -> Result<Option<u64>, RequestError> {
    match record.get("deadline_ms") {
        None => Ok(default),
        Some(v) => Ok(Some(
            v.as_usize()
                .filter(|&ms| ms > 0)
                .map(|ms| ms as u64)
                .ok_or_else(|| RequestError::Schema {
                    line,
                    detail: "\"deadline_ms\" must be a positive integer of milliseconds".into(),
                })?,
        )),
    }
}

/// Parses the optional `"power"` / `"theta_k"` pair into a
/// [`PowerSpec`]. Unknown laws, a `theta_k` without `"power":
/// "biased"`, and a non-finite or non-positive θ are all typed
/// refusals — the core's defensive clamp never fires on fleet input.
fn parse_power(record: &Json, line: usize) -> Result<PowerSpec, RequestError> {
    let schema = |detail: String| RequestError::Schema { line, detail };
    let power = match record.get("power").map(|p| p.as_str()) {
        None => None,
        Some(Some(name)) => Some(name),
        Some(None) => return Err(schema("\"power\" must be a string".into())),
    };
    match power {
        None | Some("scaled") => {
            if record.get("theta_k").is_some() {
                return Err(schema(
                    "\"theta_k\" only applies to the biased power law (add \"power\": \"biased\")"
                        .into(),
                ));
            }
            Ok(PowerSpec::Scaled)
        }
        Some("biased") => {
            let theta_k = optional_f64(record, "theta_k", DEFAULT_BIAS_THETA_K, line)?;
            if !theta_k.is_finite() || theta_k <= 0.0 {
                return Err(schema(format!(
                    "\"theta_k\" must be a finite positive bias temperature, got {theta_k}"
                )));
            }
            Ok(PowerSpec::Biased { theta_k })
        }
        Some(other) => Err(schema(format!(
            "unknown power law {other:?} (use \"scaled\" or \"biased\")"
        ))),
    }
}

fn parse_steady(
    record: &Json,
    line: usize,
    exists: &dyn Fn(&str) -> bool,
    v: Option<u64>,
) -> Result<SteadyJob, RequestError> {
    let schema = |detail: String| RequestError::Schema { line, detail };
    let floorplan = record
        .get("floorplan")
        .and_then(Json::as_str)
        .ok_or_else(|| schema("job needs a string \"floorplan\" reference".into()))?
        .to_string();
    if !exists(&floorplan) {
        return Err(schema(format!(
            "job references undefined floorplan {floorplan:?} (define it on an earlier line)"
        )));
    }
    let name = match record.get("name") {
        None => None,
        Some(n) => Some(
            n.as_str()
                .ok_or_else(|| schema("\"name\" must be a string".into()))?
                .to_string(),
        ),
    };
    Ok(SteadyJob {
        floorplan,
        name,
        power: parse_power(record, line)?,
        dynamic_w: field_f64(record, "dynamic_w", line)?,
        leakage_w: field_f64(record, "leakage_w", line)?,
        vdd_scales: optional_f64_list(record, "vdd_scales", line)?.unwrap_or_else(|| vec![1.0]),
        activities: optional_f64_list(record, "activities", line)?.unwrap_or_else(|| vec![1.0]),
        ambients_k: optional_f64_list(record, "ambients_k", line)?,
        backend: parse_backend(record, SweepBackend::Auto, line)?,
        deadline_ms: parse_deadline(record, None, line)?,
        v,
    })
}

/// Parses a `delta` record, resolving its `"base"` reference against
/// the named-steady registry and applying the record's overrides.
fn parse_delta(
    record: &Json,
    line: usize,
    steady_of: &dyn Fn(&str) -> Option<SteadyJob>,
    v: Option<u64>,
) -> Result<DeltaJob, RequestError> {
    let schema = |detail: String| RequestError::Schema { line, detail };
    // A delta runs on its base's floorplan and power law and cannot
    // itself be a base; refuse the fields loudly instead of silently
    // ignoring a plausible mistake.
    for (key, hint) in [
        ("floorplan", "delta jobs run on their base's floorplan"),
        ("power", "delta jobs inherit their base's power law"),
        ("theta_k", "delta jobs inherit their base's power law"),
        ("name", "delta jobs cannot be a base for further deltas"),
    ] {
        if record.get(key).is_some() {
            return Err(schema(format!(
                "\"{key}\" is not allowed on a delta job ({hint})"
            )));
        }
    }
    let base_name = record.get("base").and_then(Json::as_str).ok_or_else(|| {
        schema("delta job needs a string \"base\" naming an earlier named steady job".into())
    })?;
    let base = steady_of(base_name).ok_or_else(|| {
        schema(format!(
            "delta references undefined steady job {base_name:?} (give a steady job on an earlier line a \"name\")"
        ))
    })?;
    let job = SteadyJob {
        name: None,
        dynamic_w: optional_f64(record, "dynamic_w", base.dynamic_w, line)?,
        leakage_w: optional_f64(record, "leakage_w", base.leakage_w, line)?,
        vdd_scales: optional_f64_list(record, "vdd_scales", line)?
            .unwrap_or_else(|| base.vdd_scales.clone()),
        activities: optional_f64_list(record, "activities", line)?
            .unwrap_or_else(|| base.activities.clone()),
        ambients_k: optional_f64_list(record, "ambients_k", line)?
            .or_else(|| base.ambients_k.clone()),
        backend: parse_backend(record, base.backend, line)?,
        deadline_ms: parse_deadline(record, base.deadline_ms, line)?,
        v,
        ..base.clone()
    };
    Ok(DeltaJob { base, job })
}

/// Parses an `envelope` record: the steady fields plus the bisection
/// axis, interval and tolerance (validated here so a bad spec is a
/// parse-time refusal with a line number, not a worker-side error).
fn parse_envelope(
    record: &Json,
    line: usize,
    exists: &dyn Fn(&str) -> bool,
    v: Option<u64>,
) -> Result<EnvelopeJob, RequestError> {
    let schema = |detail: String| RequestError::Schema { line, detail };
    let base = parse_steady(record, line, exists, v)?;
    if base.name.is_some() {
        return Err(schema(
            "only steady jobs may carry a \"name\" (delta bases are steady fixed points)".into(),
        ));
    }
    let axis = match record.get("axis").map(|a| a.as_str()) {
        Some(Some("vdd_scale")) => EnvelopeAxis::VddScale,
        Some(Some("activity")) => EnvelopeAxis::Activity,
        Some(Some("ambient_k")) => EnvelopeAxis::AmbientK,
        Some(other) => {
            return Err(schema(format!(
                "unknown envelope axis {other:?} (use \"vdd_scale\", \"activity\" or \"ambient_k\")"
            )))
        }
        None => {
            return Err(schema(
                "envelope job needs an \"axis\" (\"vdd_scale\", \"activity\" or \"ambient_k\")"
                    .into(),
            ))
        }
    };
    let lo = field_f64(record, "lo", line)?;
    let hi = field_f64(record, "hi", line)?;
    let tolerance = field_f64(record, "tolerance", line)?;
    for (key, value) in [("lo", lo), ("hi", hi), ("tolerance", tolerance)] {
        if !value.is_finite() {
            return Err(schema(format!("\"{key}\" must be finite, got {value}")));
        }
    }
    if lo > hi {
        return Err(schema(format!(
            "envelope interval is empty: lo {lo} > hi {hi}"
        )));
    }
    if tolerance <= 0.0 {
        return Err(schema(format!(
            "\"tolerance\" must be positive, got {tolerance}"
        )));
    }
    Ok(EnvelopeJob {
        base,
        axis,
        lo,
        hi,
        tolerance,
    })
}

fn parse_waveform(value: &Json, line: usize) -> Result<DriveWaveform, RequestError> {
    let schema = |detail: String| RequestError::Schema { line, detail };
    if value.as_str() == Some("step") {
        return Ok(DriveWaveform::Step);
    }
    if let Some(square) = value.get("square") {
        return Ok(DriveWaveform::SquareWave {
            frequency: field_f64(square, "frequency", line)?,
            duty: field_f64(square, "duty", line)?,
        });
    }
    if let Some(trace) = value.get("trace") {
        let times = optional_f64_list(trace, "times", line)?
            .ok_or_else(|| schema("\"trace\" needs a \"times\" array".into()))?;
        let scales = optional_f64_list(trace, "scales", line)?
            .ok_or_else(|| schema("\"trace\" needs a \"scales\" array".into()))?;
        return Ok(DriveWaveform::Trace { times, scales });
    }
    Err(schema(
        "waveform must be \"step\", {\"square\": ...} or {\"trace\": ...}".into(),
    ))
}

fn parse_transient(
    record: &Json,
    line: usize,
    exists: &dyn Fn(&str) -> bool,
    v: Option<u64>,
) -> Result<TransientJob, RequestError> {
    let schema = |detail: String| RequestError::Schema { line, detail };
    let base = parse_steady(record, line, exists, v)?;
    if base.name.is_some() {
        return Err(schema(
            "only steady jobs may carry a \"name\" (delta bases are steady fixed points)".into(),
        ));
    }
    let dt_s = field_f64(record, "dt_s", line)?;
    let steps = record
        .get("steps")
        .and_then(Json::as_usize)
        .filter(|&n| n > 0)
        .ok_or_else(|| schema("transient job needs a positive integer \"steps\"".into()))?;
    let scheme = match record.get("scheme").map(|s| s.as_str()) {
        None => ImplicitScheme::Trapezoidal,
        Some(Some("trapezoidal")) => ImplicitScheme::Trapezoidal,
        Some(Some("backward_euler")) => ImplicitScheme::BackwardEuler,
        Some(other) => {
            return Err(schema(format!(
                "unknown scheme {other:?} (use \"trapezoidal\" or \"backward_euler\")"
            )))
        }
    };
    let waveforms = match record.get("waveforms") {
        None => Vec::new(),
        Some(list) => list
            .as_array()
            .ok_or_else(|| schema("\"waveforms\" must be an array".into()))?
            .iter()
            .map(|w| parse_waveform(w, line))
            .collect::<Result<Vec<_>, _>>()?,
    };
    // Waveform invariants are checked here so a bad record is refused at
    // parse time with its line number, not deep inside a worker.
    for w in &waveforms {
        w.validate()
            .map_err(|detail| schema(format!("invalid waveform: {detail}")))?;
    }
    Ok(TransientJob {
        base,
        dt_s,
        steps,
        scheme,
        waveforms,
    })
}

/// Upper bound on `nx · ny` of one map job. The operator's resident
/// cost is 8 spectrum planes of `mx·my` f64 (≤ 16·nx·ny elements each
/// when torus padding doubles both axes), plus a transient extended
/// kernel table of `(2k+2)²·nx·ny` entries during assembly — ~1.8 kB
/// per tile worst case. 2¹⁸ tiles (a 512×512 map) therefore caps a
/// hostile request line at under half a GB peak while leaving every
/// realistic hotspot-localization grid comfortably legal.
const MAX_MAP_TILES: usize = 1 << 18;

fn parse_map(
    record: &Json,
    line: usize,
    exists: &dyn Fn(&str) -> bool,
    v: Option<u64>,
) -> Result<MapJob, RequestError> {
    let schema = |detail: String| RequestError::Schema { line, detail };
    let base = parse_steady(record, line, exists, v)?;
    if base.name.is_some() {
        return Err(schema(
            "only steady jobs may carry a \"name\" (delta bases are steady fixed points)".into(),
        ));
    }
    let grid = record
        .get("grid")
        .ok_or_else(|| schema("map job needs a \"grid\" object".into()))?;
    if !matches!(grid, Json::Object(_)) {
        return Err(schema("\"grid\" must be an object".into()));
    }
    let dim = |key: &str| -> Result<usize, RequestError> {
        grid.get(key)
            .and_then(Json::as_usize)
            .filter(|&n| n > 0)
            .ok_or_else(|| RequestError::Schema {
                line,
                detail: format!("\"grid\" needs a positive integer \"{key}\""),
            })
    };
    let nx = dim("nx")?;
    let ny = dim("ny")?;
    if nx.saturating_mul(ny) > MAX_MAP_TILES {
        return Err(schema(format!(
            "map grid {nx}x{ny} exceeds the {MAX_MAP_TILES}-tile bound"
        )));
    }
    Ok(MapJob { base, nx, ny })
}

#[cfg(test)]
mod tests {
    use super::*;

    const REQUEST: &str = r#"
# a fleet request
{"type": "floorplan", "name": "tiny", "tiles": {"rows": 2, "cols": 2, "p_min": 0.02, "p_max": 0.05, "seed": 7}}
{"type": "floorplan", "name": "custom", "blocks": [{"name": "a", "cx": 0.5e-3, "cy": 0.5e-3, "w": 0.2e-3, "l": 0.2e-3, "power": 0.1}]}

{"type": "steady", "floorplan": "tiny", "dynamic_w": 0.3, "leakage_w": 0.03, "vdd_scales": [0.9, 1.0], "ambients_k": [300, 340]}
{"type": "transient", "floorplan": "custom", "dynamic_w": 0.2, "leakage_w": 0.02, "dt_s": 1e-4, "steps": 50, "scheme": "backward_euler", "waveforms": ["step", {"square": {"frequency": 3, "duty": 0.5}}]}
{"type": "map", "floorplan": "tiny", "dynamic_w": 0.3, "leakage_w": 0.03, "grid": {"nx": 32, "ny": 24}}
"#;

    #[test]
    fn parses_a_full_request() {
        let req = parse_jsonl(REQUEST).unwrap();
        assert_eq!(req.floorplans.len(), 2);
        assert_eq!(req.floorplans[0].1.blocks().len(), 4);
        assert_eq!(req.jobs.len(), 3);
        let JobSpec::Steady(s) = &req.jobs[0] else {
            panic!("steady")
        };
        assert_eq!(s.vdd_scales, vec![0.9, 1.0]);
        assert_eq!(s.ambients_k, Some(vec![300.0, 340.0]));
        assert_eq!(s.activities, vec![1.0]); // default
        let JobSpec::Transient(t) = &req.jobs[1] else {
            panic!("transient")
        };
        assert_eq!(t.scheme, ImplicitScheme::BackwardEuler);
        assert_eq!(t.waveforms.len(), 2);
        assert_eq!(t.base.floorplan, "custom");
        let JobSpec::Map(m) = &req.jobs[2] else {
            panic!("map")
        };
        assert_eq!((m.nx, m.ny), (32, 24));
        assert_eq!(m.base.floorplan, "tiny");
        assert_eq!(req.jobs[2].kind(), "map");
    }

    #[test]
    fn tiled_floorplans_are_reproducible() {
        let req = parse_jsonl(REQUEST).unwrap();
        let again = parse_jsonl(REQUEST).unwrap();
        assert_eq!(
            req.floorplans[0].1.fingerprint(),
            again.floorplans[0].1.fingerprint()
        );
    }

    #[test]
    fn undefined_floorplan_is_a_schema_error_with_line() {
        let err = parse_jsonl(
            r#"{"type": "steady", "floorplan": "ghost", "dynamic_w": 1, "leakage_w": 0.1}"#,
        )
        .unwrap_err();
        let RequestError::Schema { line, detail } = err else {
            panic!("schema error")
        };
        assert_eq!(line, 1);
        assert!(detail.contains("ghost"));
    }

    #[test]
    fn malformed_json_reports_the_line() {
        let err = parse_jsonl("\n\n{not json}").unwrap_err();
        assert!(matches!(err, RequestError::Json { line: 3, .. }));
    }

    #[test]
    fn duplicate_and_overlapping_floorplans_are_rejected() {
        let dup = r#"
{"type": "floorplan", "name": "x", "tiles": {"rows": 1, "cols": 1}}
{"type": "floorplan", "name": "x", "tiles": {"rows": 2, "cols": 2}}
"#;
        assert!(matches!(
            parse_jsonl(dup),
            Err(RequestError::Schema { line: 3, .. })
        ));
        let overlap = r#"{"type": "floorplan", "name": "bad", "blocks": [
{"cx": 0.5e-3, "cy": 0.5e-3, "w": 0.4e-3, "l": 0.4e-3}, {"cx": 0.5e-3, "cy": 0.5e-3, "w": 0.4e-3, "l": 0.4e-3}]}"#;
        // (single line in practice; keep it one line for the test)
        let overlap = overlap.replace('\n', " ");
        assert!(matches!(
            parse_jsonl(&overlap),
            Err(RequestError::Floorplan { line: 1, .. })
        ));
    }

    #[test]
    fn invalid_waveforms_fail_at_parse_time() {
        let bad = r#"
{"type": "floorplan", "name": "f", "tiles": {"rows": 1, "cols": 1}}
{"type": "transient", "floorplan": "f", "dynamic_w": 0.1, "leakage_w": 0.01, "dt_s": 1e-4, "steps": 5, "waveforms": [{"square": {"frequency": -1, "duty": 0.5}}]}
"#;
        let err = parse_jsonl(bad).unwrap_err();
        let RequestError::Schema { line: 3, detail } = err else {
            panic!("schema error, got {err:?}")
        };
        assert!(detail.contains("frequency"));
    }

    #[test]
    fn non_object_geometry_is_rejected_not_defaulted() {
        // Regression: a mistyped "geometry" used to be silently replaced
        // by the default 1 mm die.
        let err = parse_jsonl(
            r#"{"type": "floorplan", "name": "x", "geometry": "2mm", "tiles": {"rows": 1, "cols": 1}}"#,
        )
        .unwrap_err();
        let RequestError::Schema { line: 1, detail } = err else {
            panic!("schema error, got {err:?}")
        };
        assert!(detail.contains("geometry"));
    }

    #[test]
    fn zero_steps_transient_is_rejected() {
        let bad = r#"
{"type": "floorplan", "name": "f", "tiles": {"rows": 1, "cols": 1}}
{"type": "transient", "floorplan": "f", "dynamic_w": 0.1, "leakage_w": 0.01, "dt_s": 1e-4, "steps": 0}
"#;
        let err = parse_jsonl(bad).unwrap_err();
        let RequestError::Schema { line: 3, detail } = err else {
            panic!("schema error, got {err:?}")
        };
        assert!(detail.contains("steps"));
    }

    #[test]
    fn unknown_record_type_is_rejected() {
        let err = parse_jsonl(r#"{"type": "mystery"}"#).unwrap_err();
        assert!(matches!(err, RequestError::Schema { line: 1, .. }));
    }

    #[test]
    fn explicit_protocol_version_is_accepted_and_recorded() {
        let req = parse_jsonl(
            r#"
{"type": "floorplan", "name": "f", "tiles": {"rows": 1, "cols": 1}}
{"type": "steady", "v": 1, "floorplan": "f", "dynamic_w": 0.1, "leakage_w": 0.01}
{"type": "steady", "floorplan": "f", "dynamic_w": 0.1, "leakage_w": 0.01}
"#,
        )
        .unwrap();
        assert_eq!(req.jobs[0].version(), Some(PROTOCOL_VERSION));
        // A version-silent line stays silent — its result line must not
        // grow a "v" field.
        assert_eq!(req.jobs[1].version(), None);
    }

    #[test]
    fn unknown_protocol_version_is_a_typed_refusal() {
        let err = parse_jsonl(
            r#"
{"type": "floorplan", "name": "f", "tiles": {"rows": 1, "cols": 1}}
{"type": "steady", "v": 2, "floorplan": "f", "dynamic_w": 0.1, "leakage_w": 0.01}
"#,
        )
        .unwrap_err();
        assert_eq!(
            err,
            RequestError::Version {
                line: 3,
                requested: 2
            }
        );
        assert!(err.to_string().contains("unsupported protocol version 2"));
        // A mistyped "v" is a schema error, not a version refusal.
        let err = parse_jsonl(r#"{"type": "stats", "v": "one"}"#).unwrap_err();
        assert!(matches!(err, RequestError::Schema { line: 1, .. }));
    }

    #[test]
    fn control_records_are_refused_in_batch_mode() {
        for kind in ["stats", "shutdown"] {
            let err = parse_jsonl(&format!(r#"{{"type": "{kind}"}}"#)).unwrap_err();
            let RequestError::Schema { line: 1, detail } = err else {
                panic!("schema error, got {err:?}")
            };
            assert!(detail.contains(kind), "{detail}");
            assert!(detail.contains("serve-mode"), "{detail}");
        }
    }

    #[test]
    fn streaming_parser_interleaves_definitions_and_jobs() {
        let mut parser = RequestParser::new();
        assert!(matches!(parser.parse_line(""), Ok(ParsedLine::Empty)));
        assert!(matches!(
            parser.parse_line("# comment"),
            Ok(ParsedLine::Empty)
        ));
        let defined = parser
            .parse_line(r#"{"type": "floorplan", "name": "f", "tiles": {"rows": 2, "cols": 2, "p_min": 0.01, "p_max": 0.02, "seed": 1}}"#)
            .unwrap();
        assert!(matches!(defined, ParsedLine::Floorplan(name) if name == "f"));
        let job = parser
            .parse_line(
                r#"{"type": "steady", "floorplan": "f", "dynamic_w": 0.1, "leakage_w": 0.01}"#,
            )
            .unwrap();
        let ParsedLine::Job { spec, plan } = job else {
            panic!("job line")
        };
        assert_eq!(spec.kind(), "steady");
        // The resolved handle is the registered floorplan itself.
        assert!(Arc::ptr_eq(&plan, parser.floorplan("f").unwrap()));
        assert!(matches!(
            parser.parse_line(r#"{"type": "stats"}"#),
            Ok(ParsedLine::Control(ControlRecord::Stats))
        ));
        assert!(matches!(
            parser.parse_line(r#"{"type": "shutdown"}"#),
            Ok(ParsedLine::Control(ControlRecord::Shutdown))
        ));
        assert_eq!(parser.lines_seen(), 6);
    }

    #[test]
    fn streaming_parser_survives_refused_lines() {
        let mut parser = RequestParser::new();
        // Line 1: bad JSON. Line 2: unknown floorplan. Line 3: bad
        // version. Each refusal names its own line, and the parser
        // keeps accepting afterwards.
        assert!(matches!(
            parser.parse_line("{oops"),
            Err(RequestError::Json { line: 1, .. })
        ));
        assert!(matches!(
            parser.parse_line(
                r#"{"type": "steady", "floorplan": "ghost", "dynamic_w": 1, "leakage_w": 0.1}"#
            ),
            Err(RequestError::Schema { line: 2, .. })
        ));
        assert!(matches!(
            parser.parse_line(r#"{"type": "stats", "v": 99}"#),
            Err(RequestError::Version {
                line: 3,
                requested: 99
            })
        ));
        assert!(matches!(
            parser.parse_line(
                r#"{"type": "floorplan", "name": "f", "tiles": {"rows": 1, "cols": 1}}"#
            ),
            Ok(ParsedLine::Floorplan(_))
        ));
        // Registries are per-parser: a fresh connection cannot see "f".
        let mut other = RequestParser::new();
        assert!(matches!(
            other.parse_line(
                r#"{"type": "steady", "floorplan": "f", "dynamic_w": 1, "leakage_w": 0.1}"#
            ),
            Err(RequestError::Schema { line: 1, .. })
        ));
    }

    const DELTA_REQUEST: &str = r#"
{"type": "floorplan", "name": "tiny", "tiles": {"rows": 2, "cols": 2, "p_min": 0.02, "p_max": 0.05, "seed": 7}}
{"type": "steady", "floorplan": "tiny", "name": "nominal", "dynamic_w": 0.3, "leakage_w": 0.03, "vdd_scales": [0.9, 1.0], "ambients_k": [300, 340]}
{"type": "delta", "base": "nominal", "vdd_scales": [0.95, 1.05], "deadline_ms": 500}
{"type": "envelope", "floorplan": "tiny", "dynamic_w": 0.3, "leakage_w": 0.03, "activities": [0.5, 1.0], "axis": "vdd_scale", "lo": 0.5, "hi": 3.0, "tolerance": 0.01}
{"type": "steady", "floorplan": "tiny", "dynamic_w": 0.3, "leakage_w": 0.03, "power": "biased", "theta_k": 60}
"#;

    #[test]
    fn parses_named_steady_delta_and_envelope_records() {
        let req = parse_jsonl(DELTA_REQUEST).unwrap();
        assert_eq!(req.jobs.len(), 4);
        let JobSpec::Steady(base) = &req.jobs[0] else {
            panic!("steady")
        };
        assert_eq!(base.name.as_deref(), Some("nominal"));
        assert_eq!(base.power, PowerSpec::Scaled);
        let JobSpec::Delta(delta) = &req.jobs[1] else {
            panic!("delta")
        };
        // The base resolved at parse time, self-contained.
        assert_eq!(&delta.base, base);
        // Overrides applied; everything else inherited; the delta's
        // own job carries no name.
        assert_eq!(delta.job.vdd_scales, vec![0.95, 1.05]);
        assert_eq!(delta.job.ambients_k, base.ambients_k);
        assert_eq!(delta.job.dynamic_w, base.dynamic_w);
        assert_eq!(delta.job.deadline_ms, Some(500));
        assert_eq!(delta.job.name, None);
        assert_eq!(req.jobs[1].kind(), "delta");
        assert_eq!(req.jobs[1].floorplan(), "tiny");
        let JobSpec::Envelope(env) = &req.jobs[2] else {
            panic!("envelope")
        };
        assert_eq!(env.axis, EnvelopeAxis::VddScale);
        assert_eq!((env.lo, env.hi, env.tolerance), (0.5, 3.0, 0.01));
        assert_eq!(env.base.activities, vec![0.5, 1.0]);
        assert_eq!(req.jobs[2].kind(), "envelope");
        let JobSpec::Steady(biased) = &req.jobs[3] else {
            panic!("steady")
        };
        assert_eq!(biased.power, PowerSpec::Biased { theta_k: 60.0 });
    }

    #[test]
    fn dangling_delta_base_is_a_typed_refusal() {
        let err = parse_jsonl(
            r#"
{"type": "floorplan", "name": "f", "tiles": {"rows": 1, "cols": 1}}
{"type": "delta", "base": "ghost"}
"#,
        )
        .unwrap_err();
        let RequestError::Schema { line: 3, detail } = err else {
            panic!("schema error, got {err:?}")
        };
        assert!(detail.contains("ghost"), "{detail}");
        assert!(detail.contains("name"), "{detail}");
    }

    #[test]
    fn delta_refuses_floorplan_power_and_name_fields() {
        let prefix = concat!(
            r#"{"type": "floorplan", "name": "f", "tiles": {"rows": 1, "cols": 1}}"#,
            "\n",
            r#"{"type": "steady", "floorplan": "f", "name": "b", "dynamic_w": 1, "leakage_w": 0.1}"#,
        );
        for (field, value) in [
            ("floorplan", "\"f\""),
            ("power", "\"biased\""),
            ("theta_k", "60"),
            ("name", "\"d\""),
        ] {
            let bad =
                format!("{prefix}\n{{\"type\": \"delta\", \"base\": \"b\", \"{field}\": {value}}}");
            let err = parse_jsonl(&bad).unwrap_err();
            let RequestError::Schema { line: 3, detail } = err else {
                panic!("schema error for {field}, got {err:?}")
            };
            assert!(detail.contains(field), "{detail}");
        }
    }

    #[test]
    fn steady_names_are_unique_and_steady_only() {
        // Duplicate names collide like duplicate floorplans.
        let dup = r#"
{"type": "floorplan", "name": "f", "tiles": {"rows": 1, "cols": 1}}
{"type": "steady", "floorplan": "f", "name": "x", "dynamic_w": 1, "leakage_w": 0.1}
{"type": "steady", "floorplan": "f", "name": "x", "dynamic_w": 2, "leakage_w": 0.2}
"#;
        assert!(matches!(
            parse_jsonl(dup),
            Err(RequestError::Schema { line: 4, .. })
        ));
        // A name on a transient/map/envelope record would never
        // register — refused, not silently dropped.
        for suffix in [
            r#"{"type": "transient", "floorplan": "f", "name": "t", "dynamic_w": 1, "leakage_w": 0.1, "dt_s": 1e-4, "steps": 5}"#,
            r#"{"type": "map", "floorplan": "f", "name": "m", "dynamic_w": 1, "leakage_w": 0.1, "grid": {"nx": 4, "ny": 4}}"#,
            r#"{"type": "envelope", "floorplan": "f", "name": "e", "dynamic_w": 1, "leakage_w": 0.1, "axis": "vdd_scale", "lo": 0.5, "hi": 2.0, "tolerance": 0.1}"#,
        ] {
            let bad = format!(
                "{}\n{suffix}",
                r#"{"type": "floorplan", "name": "f", "tiles": {"rows": 1, "cols": 1}}"#
            );
            let err = parse_jsonl(&bad).unwrap_err();
            let RequestError::Schema { line: 2, detail } = err else {
                panic!("schema error, got {err:?}")
            };
            assert!(detail.contains("steady"), "{detail}");
        }
    }

    #[test]
    fn power_law_validation_is_typed() {
        let prefix = r#"{"type": "floorplan", "name": "f", "tiles": {"rows": 1, "cols": 1}}"#;
        let detail_of = |suffix: &str| -> String {
            let err = parse_jsonl(&format!("{prefix}\n{suffix}")).unwrap_err();
            let RequestError::Schema { line: 2, detail } = err else {
                panic!("schema error on line 2, got {err:?}")
            };
            detail
        };
        // Unknown law.
        assert!(detail_of(
            r#"{"type": "steady", "floorplan": "f", "dynamic_w": 1, "leakage_w": 0.1, "power": "cubic"}"#
        )
        .contains("cubic"));
        // θ without the biased law.
        assert!(detail_of(
            r#"{"type": "steady", "floorplan": "f", "dynamic_w": 1, "leakage_w": 0.1, "theta_k": 60}"#
        )
        .contains("biased"));
        // Non-positive θ.
        assert!(detail_of(
            r#"{"type": "steady", "floorplan": "f", "dynamic_w": 1, "leakage_w": 0.1, "power": "biased", "theta_k": -5}"#
        )
        .contains("theta_k"));
        // Default θ when the biased law is silent about it.
        let req = parse_jsonl(&format!(
            "{prefix}\n{}",
            r#"{"type": "steady", "floorplan": "f", "dynamic_w": 1, "leakage_w": 0.1, "power": "biased"}"#
        ))
        .unwrap();
        let JobSpec::Steady(s) = &req.jobs[0] else {
            panic!("steady")
        };
        assert_eq!(
            s.power,
            PowerSpec::Biased {
                theta_k: DEFAULT_BIAS_THETA_K
            }
        );
    }

    #[test]
    fn envelope_jobs_validate_axis_interval_and_tolerance() {
        let prefix = r#"{"type": "floorplan", "name": "f", "tiles": {"rows": 1, "cols": 1}}"#;
        let detail_of = |suffix: &str| -> String {
            let err = parse_jsonl(&format!("{prefix}\n{suffix}")).unwrap_err();
            let RequestError::Schema { line: 2, detail } = err else {
                panic!("schema error on line 2, got {err:?}")
            };
            detail
        };
        assert!(detail_of(
            r#"{"type": "envelope", "floorplan": "f", "dynamic_w": 1, "leakage_w": 0.1, "lo": 0.5, "hi": 2.0, "tolerance": 0.1}"#
        )
        .contains("axis"));
        assert!(detail_of(
            r#"{"type": "envelope", "floorplan": "f", "dynamic_w": 1, "leakage_w": 0.1, "axis": "frequency", "lo": 0.5, "hi": 2.0, "tolerance": 0.1}"#
        )
        .contains("frequency"));
        assert!(detail_of(
            r#"{"type": "envelope", "floorplan": "f", "dynamic_w": 1, "leakage_w": 0.1, "axis": "vdd_scale", "hi": 2.0, "tolerance": 0.1}"#
        )
        .contains("lo"));
        assert!(detail_of(
            r#"{"type": "envelope", "floorplan": "f", "dynamic_w": 1, "leakage_w": 0.1, "axis": "vdd_scale", "lo": 3.0, "hi": 2.0, "tolerance": 0.1}"#
        )
        .contains("empty"));
        assert!(detail_of(
            r#"{"type": "envelope", "floorplan": "f", "dynamic_w": 1, "leakage_w": 0.1, "axis": "vdd_scale", "lo": 0.5, "hi": 2.0, "tolerance": 0}"#
        )
        .contains("tolerance"));
    }

    #[test]
    fn streaming_parser_resolves_delta_bases_per_connection() {
        let mut parser = RequestParser::new();
        parser
            .parse_line(r#"{"type": "floorplan", "name": "f", "tiles": {"rows": 1, "cols": 1}}"#)
            .unwrap();
        parser
            .parse_line(
                r#"{"type": "steady", "floorplan": "f", "name": "b", "dynamic_w": 1, "leakage_w": 0.1}"#,
            )
            .unwrap();
        let ParsedLine::Job { spec, .. } = parser
            .parse_line(r#"{"type": "delta", "base": "b", "dynamic_w": 1.1}"#)
            .unwrap()
        else {
            panic!("job line")
        };
        let JobSpec::Delta(delta) = *spec else {
            panic!("delta")
        };
        assert_eq!(delta.job.dynamic_w, 1.1);
        assert_eq!(delta.base.dynamic_w, 1.0);
        // Registries are per-connection, mirroring floorplans.
        let mut other = RequestParser::new();
        assert!(matches!(
            other.parse_line(r#"{"type": "delta", "base": "b"}"#),
            Err(RequestError::Schema { line: 1, .. })
        ));
    }

    #[test]
    fn result_fingerprint_keys_on_physics_not_labels() {
        let req = parse_jsonl(DELTA_REQUEST).unwrap();
        let JobSpec::Steady(base) = &req.jobs[0] else {
            panic!("steady")
        };
        let key = steady_result_fingerprint(base, 0x1234, false);
        // Stable across calls.
        assert_eq!(key, steady_result_fingerprint(base, 0x1234, false));
        // Labels and scheduling knobs are excluded...
        let mut renamed = base.clone();
        renamed.name = Some("other".into());
        renamed.deadline_ms = Some(17);
        renamed.v = Some(PROTOCOL_VERSION);
        renamed.floorplan = "alias".into();
        assert_eq!(key, steady_result_fingerprint(&renamed, 0x1234, false));
        // ...while every physical input is included.
        let mut hotter = base.clone();
        hotter.dynamic_w += 0.1;
        assert_ne!(key, steady_result_fingerprint(&hotter, 0x1234, false));
        let mut biased = base.clone();
        biased.power = PowerSpec::Biased { theta_k: 100.0 };
        assert_ne!(key, steady_result_fingerprint(&biased, 0x1234, false));
        let mut axes = base.clone();
        axes.vdd_scales.push(1.2);
        assert_ne!(key, steady_result_fingerprint(&axes, 0x1234, false));
        let mut sink = base.clone();
        sink.ambients_k = None;
        assert_ne!(key, steady_result_fingerprint(&sink, 0x1234, false));
        assert_ne!(key, steady_result_fingerprint(base, 0x5678, false));
        assert_ne!(key, steady_result_fingerprint(base, 0x1234, true));
    }

    #[test]
    fn map_jobs_validate_their_grid() {
        let prefix = r#"{"type": "floorplan", "name": "f", "tiles": {"rows": 1, "cols": 1}}"#;
        let detail_of = |suffix: &str| -> String {
            let err = parse_jsonl(&format!("{prefix}\n{suffix}")).unwrap_err();
            let RequestError::Schema { line: 2, detail } = err else {
                panic!("schema error on line 2, got {err:?}")
            };
            detail
        };
        // Missing, mistyped and non-positive grids all fail with their
        // own diagnostic.
        assert!(detail_of(
            r#"{"type": "map", "floorplan": "f", "dynamic_w": 1, "leakage_w": 0.1}"#
        )
        .contains("grid"));
        assert!(detail_of(
            r#"{"type": "map", "floorplan": "f", "dynamic_w": 1, "leakage_w": 0.1, "grid": "big"}"#
        )
        .contains("must be an object"));
        assert!(detail_of(
            r#"{"type": "map", "floorplan": "f", "dynamic_w": 1, "leakage_w": 0.1, "grid": {"nx": 0, "ny": 4}}"#
        )
        .contains("nx"));
        assert!(detail_of(
            r#"{"type": "map", "floorplan": "f", "dynamic_w": 1, "leakage_w": 0.1, "grid": {"nx": 8}}"#
        )
        .contains("ny"));
        // The tile bound refuses hostile allocations at parse time.
        assert!(detail_of(
            r#"{"type": "map", "floorplan": "f", "dynamic_w": 1, "leakage_w": 0.1, "grid": {"nx": 100000, "ny": 100000}}"#
        )
        .contains("bound"));
    }
}
