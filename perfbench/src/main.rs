//! The repository benchmark: `fleet serve` over TCP on four traffic
//! mixes, and a traced in-process replay of the same requests.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sweep_grid --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Run from the repository root. The benchmark builds the `fleet`
//! binary from the checkout, spawns `fleet serve --threads 2`, drives
//! it from two TCP connections for `--seconds`, checks every result
//! line against an in-process batch run of the same jobs, and prints
//! one metric per line followed by a final JSON summary line.
//! `--trace 1` reports the per-layer metrics instead; `--workload all`
//! runs every workload in both modes. The exit code is non-zero on any
//! correctness failure. See `perfbench/README.md`.

mod client;
mod gen;
mod kernels;
mod replay;
mod stats;
mod trace;
mod verify;

use client::{Conn, ConnLog, Server};
use gen::{probe_lines, Line, Stream, Workload};
use ptherm_fleet::{parse_jsonl, FleetEngineBuilder, Json, RequestParser};
use replay::Replayer;
use stats::{median, quantile};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};
use verify::{account, canonical, Accounting, Reference};

/// Slices of the timed window: each end-to-end figure is the median of
/// its per-slice values, so a burst of noise from other tenants of the
/// machine inside one slice does not move it.
const SLICES: usize = 5;
/// Server set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Outstanding job lines each connection keeps in flight in the timed
/// window: one, so every workload's latency percentiles sit inside one
/// mode of the latency distribution (see the README's "Workloads").
///
/// Result lines stall on the server's unbuffered two-write output until
/// the client's delayed ACK (~40 ms), except when the client ACKs sooner
/// by sending its next line; with more jobs in flight that escape is
/// common and timing-dependent (25–40% of answers at 4 in flight), which
/// puts the median on the edge between two modes. More in flight also
/// saturates the server's two workers on the CPU-heavy mixes, so
/// queueing tracks the speed of a shared machine: run-to-run spreads
/// reached 10–28%.
const WINDOW: usize = 1;
/// Outstanding set-up jobs per connection: set-up builds may overlap
/// on the server's two workers whatever the timed window is.
const SETUP_WINDOW: usize = 4;
/// Fewest latency samples a run's percentiles may rest on.
const MIN_SAMPLES: usize = 200;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: Vec<bool>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let workload = value("--workload").ok_or("--workload <name|all> is required")?;
    let workloads = if workload == "all" {
        Workload::ALL.to_vec()
    } else {
        vec![Workload::from_name(workload).ok_or(format!("unknown workload {workload:?}"))?]
    };
    let seed = value("--seed")
        .unwrap_or("1")
        .parse()
        .map_err(|_| "--seed needs a non-negative integer")?;
    let seconds: f64 = value("--seconds")
        .unwrap_or("10")
        .parse()
        .map_err(|_| "--seconds needs a number")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match (value("--trace").unwrap_or("0"), workload) {
        (_, "all") => vec![false, true],
        ("0", _) => vec![false],
        ("1", _) => vec![true],
        (other, _) => return Err(format!("--trace takes 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workloads,
        seed,
        seconds,
        trace,
    })
}

fn target_dir() -> PathBuf {
    PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into()))
}

/// Builds the served `fleet` binary from the checkout.
fn build_server() -> Result<PathBuf, String> {
    if !Path::new("Cargo.toml").is_file() || !Path::new("crates/fleet").is_dir() {
        return Err("run from the repository root (no Cargo.toml / crates/fleet here)".into());
    }
    let target = target_dir();
    let status = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".into()))
        .args([
            "build",
            "--release",
            "--quiet",
            "-p",
            "ptherm-bench",
            "--bin",
            "fleet",
        ])
        .env("CARGO_TARGET_DIR", &target)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("could not run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building the fleet binary failed ({status})"));
    }
    Ok(target.join("release").join("fleet"))
}

/// A served run: the connection logs and the timed window.
struct Served {
    logs: Vec<ConnLog>,
    t0: Instant,
    until: Instant,
    setup_s: f64,
    peak_rss_mb: f64,
    stats: Json,
}

impl Served {
    /// Job lines sent inside the timed window with their logs.
    fn timed(&self) -> impl Iterator<Item = (&ConnLog, usize)> {
        self.logs.iter().flat_map(move |log| {
            (log.setup_jobs..log.job_lines.len())
                .filter(move |&seq| log.sent_at[seq] >= self.t0)
                .map(move |seq| (log, seq))
        })
    }

    /// Client latency minus the job's own `wall_ns`, ms.
    fn overheads_ms(&self) -> Vec<f64> {
        self.timed()
            .filter_map(|(log, seq)| {
                let reply = log.replies[seq].as_ref()?;
                let wall_ns = Json::parse(&reply.text).ok()?.get("wall_ns")?.as_f64()?;
                Some((reply.at - log.sent_at[seq]).as_secs_f64() * 1e3 - wall_ns / 1e6)
            })
            .collect()
    }

    /// Index of the slice of the timed window holding `at`.
    fn slice_of(&self, at: Instant) -> Option<usize> {
        if at < self.t0 || at >= self.until {
            return None;
        }
        let share = (at - self.t0).as_secs_f64() / (self.until - self.t0).as_secs_f64();
        Some(((share * SLICES as f64) as usize).min(SLICES - 1))
    }

    /// Latencies (ms) of the jobs sent in each slice.
    fn latency_slices(&self) -> Vec<Vec<f64>> {
        let mut slices = vec![Vec::new(); SLICES];
        for (log, seq) in self.timed() {
            if let (Some(reply), Some(i)) = (&log.replies[seq], self.slice_of(log.sent_at[seq])) {
                slices[i].push((reply.at - log.sent_at[seq]).as_secs_f64() * 1e3);
            }
        }
        slices
    }

    /// `"ok": true` answers per second in each slice: the answers after
    /// the slice's first over the time from its first to its last.
    fn rate_slices(&self) -> Vec<f64> {
        let mut arrivals = vec![Vec::new(); SLICES];
        for reply in self
            .logs
            .iter()
            .flat_map(|log| log.replies.iter().flatten())
        {
            if let Some(i) = self.slice_of(reply.at) {
                if reply.text.contains("\"ok\":true") {
                    arrivals[i].push(reply.at);
                }
            }
        }
        arrivals
            .iter()
            .filter_map(|ats| {
                let (first, last) = (ats.iter().min()?, ats.iter().max()?);
                (last > first).then(|| (ats.len() - 1) as f64 / (*last - *first).as_secs_f64())
            })
            .collect()
    }
}

/// Spawns the server [`SETUPS`] times, setting up each, and drives the
/// last one for `seconds`.
fn serve(bin: &Path, workload: Workload, seed: u64, seconds: f64) -> Result<Served, String> {
    let io = |e: std::io::Error| e.to_string();
    let mut setup_times = Vec::new();
    for round in 0..SETUPS {
        let started = Instant::now();
        let server = Server::spawn(bin).map_err(io)?;
        let mut conns = Vec::new();
        let mut streams = Vec::new();
        for c in 0..2 {
            let mut conn = Conn::open(&server.addr).map_err(io)?;
            let stream = Stream::new(workload, seed, c);
            conn.run_setup(&stream.setup, SETUP_WINDOW).map_err(io)?;
            conns.push(conn);
            streams.push(stream);
        }
        setup_times.push(started.elapsed().as_secs_f64());
        if round + 1 < SETUPS {
            drop(conns);
            server.stop();
            continue;
        }
        let t0 = Instant::now();
        let until = t0 + Duration::from_secs_f64(seconds);
        std::thread::scope(|s| {
            let handles: Vec<_> = conns
                .iter_mut()
                .zip(streams.iter_mut())
                .map(|(conn, stream)| s.spawn(move || conn.run_timed(stream, WINDOW, until)))
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .map_err(|_| "client thread panicked".to_string())?
                        .map_err(io)
                })
                .collect::<Result<Vec<()>, String>>()
        })?;
        let stats = conns[0].stats().map_err(io)?;
        let peak_rss_mb = server
            .peak_rss_mb()
            .ok_or("could not read the server's VmHWM")?;
        let logs = conns.into_iter().map(Conn::into_log).collect();
        server.stop();
        return Ok(Served {
            logs,
            t0,
            until,
            setup_s: median(&setup_times).unwrap_or(f64::NAN),
            peak_rss_mb,
            stats,
        });
    }
    Err("no set-up rounds".into())
}

/// One metric of the summary line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What one run reports.
struct Outcome {
    acc: Accounting,
    correct: bool,
    metrics: Vec<Metric>,
}

fn check_served(served: &Served) -> Result<Accounting, String> {
    let logs: Vec<&ConnLog> = served.logs.iter().collect();
    let reference = Reference::build(&logs, 2)?;
    let acc = account(&logs, &reference);
    println!(
        "check: {} job lines sent, {} ok, {} ok:false, {} refused, {} unanswered",
        acc.sent, acc.ok, acc.not_ok, acc.refused, acc.unanswered
    );
    println!("check: error_rate = {} ratio", acc.error_rate());
    println!("check: result_mismatches = {} count", acc.mismatches);
    Ok(acc)
}

fn end_to_end(bin: &Path, workload: Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let served = serve(bin, workload, seed, seconds)?;
    let slices = served.latency_slices();
    let latencies: Vec<f64> = slices.concat();
    let deciles: Vec<String> = (1..10)
        .map(|d| {
            format!(
                "{:.1}",
                quantile(&latencies, d as f64 / 10.0).unwrap_or(f64::NAN)
            )
        })
        .collect();
    println!(
        "check: latency samples = {}, deciles (ms) = {}",
        latencies.len(),
        deciles.join(" ")
    );
    if latencies.len() < MIN_SAMPLES {
        eprintln!(
            "perfbench: only {} latency samples (< {MIN_SAMPLES}); raise --seconds",
            latencies.len()
        );
    }
    let sliced = |p: f64| {
        let per_slice: Vec<f64> = slices.iter().filter_map(|s| quantile(s, p)).collect();
        median(&per_slice).unwrap_or(f64::NAN)
    };
    let metrics = vec![
        metric(
            "jobs_per_s",
            median(&served.rate_slices()).unwrap_or(f64::NAN),
            "1/s",
        ),
        metric("latency_p50_ms", sliced(0.50), "ms"),
        metric("latency_p95_ms", sliced(0.95), "ms"),
        metric("setup_s", served.setup_s, "s"),
        metric("peak_rss_mb", served.peak_rss_mb, "MB"),
    ];
    let acc = check_served(&served)?;
    Ok(Outcome {
        correct: acc.failed() == 0 && acc.mismatches == 0,
        acc,
        metrics,
    })
}

/// Replays `lines` (one connection's, in send order) until `budget`
/// runs out; returns the replayed prefix.
fn replay_lines(rep: &mut Replayer, lines: &[Line], budget: Duration) -> Result<Vec<Line>, String> {
    let started = Instant::now();
    let mut parser = RequestParser::new();
    let mut seq = 0;
    let mut replayed = Vec::new();
    for line in lines {
        if line.job && started.elapsed() > budget {
            break;
        }
        let job = line.job.then_some(seq);
        rep.line(&mut parser, &line.text, job)?;
        seq += usize::from(line.job);
        replayed.push(line.clone());
    }
    Ok(replayed)
}

/// Parse + `FleetEngine::run` + render of `lines`, untraced; returns
/// the wall time and the canonical result lines.
fn untraced_batch(lines: &[Line], threads: usize) -> Result<(f64, Vec<String>), String> {
    let text: String = lines.iter().map(|l| format!("{}\n", l.text)).collect();
    let started = Instant::now();
    let request = parse_jsonl(&text).map_err(|e| e.to_string())?;
    let engine = FleetEngineBuilder::new()
        .threads(threads)
        .request(&request)
        .build()
        .map_err(|e| e.to_string())?;
    let report = engine.run(&request.jobs);
    let rendered: Vec<String> = report
        .jobs
        .iter()
        .map(|r| r.to_json(&request.jobs[r.index]).render())
        .collect();
    let wall = started.elapsed().as_secs_f64();
    Ok((wall, rendered.iter().filter_map(|l| canonical(l)).collect()))
}

fn traced(bin: &Path, workload: Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let served = serve(bin, workload, seed, seconds / 2.0)?;
    let overheads = served.overheads_ms();
    let acc = check_served(&served)?;
    let counter = |k: &str| served.stats.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    let refused = counter("refused_backpressure") + counter("refused_protocol");
    // The server's own cache counters, summed over its five caches.
    let (mut hits, mut misses, mut evictions) = (0.0, 0.0, 0.0);
    if let Some(Json::Object(caches)) = served.stats.get("caches") {
        for (_, c) in caches {
            let field = |k: &str| c.get(k).and_then(Json::as_f64).unwrap_or(0.0);
            hits += field("hits");
            misses += field("misses");
            evictions += field("evictions");
        }
    }

    // The traced replay of the first connection's lines.
    let log = &served.logs[0];
    let mut rep = Replayer::new();
    let replay_started = Instant::now();
    let replayed = replay_lines(&mut rep, &log.lines, Duration::from_secs_f64(seconds / 4.0))?;
    let traced_wall = replay_started.elapsed().as_secs_f64();
    let mut replay_mismatches = 0;
    for job in &rep.jobs {
        let served_line = log.replies[job.job]
            .as_ref()
            .and_then(|r| canonical(&r.text));
        if served_line.is_some() && served_line != canonical(&job.line) {
            replay_mismatches += 1;
        }
    }
    let (untraced_wall, untraced_lines) = untraced_batch(&replayed, 1)?;
    let (two_thread_wall, _) = untraced_batch(&replayed, 2)?;
    let replay_lines_canonical: Vec<String> =
        rep.jobs.iter().filter_map(|j| canonical(&j.line)).collect();
    if untraced_lines != replay_lines_canonical {
        replay_mismatches += 1;
    }
    let violations = rep.self_time_violations();
    println!(
        "check: replayed {} jobs; {replay_mismatches} differ from the served or batch lines; \
         {violations} break the self-time sum",
        rep.jobs.len()
    );

    // Layer probes for job kinds the stream never sends: the first pass
    // builds (its cache lookups give the build figures), the second runs
    // warm (its jobs and solves give the run figures).
    let mut probes = Replayer::new();
    let probe = probe_lines(workload);
    replay_lines(&mut probes, &probe, Duration::MAX)?;
    probes.jobs.clear();
    probes.solves.clear();
    replay_lines(&mut probes, &probe, Duration::MAX)?;

    let k = kernels::measure(
        &mut rep.rec,
        workload.probe_tiles() * workload.probe_tiles(),
        workload.lanes(),
        workload.fft_side(),
    );
    let path = target_dir()
        .join("perfbench")
        .join(format!("trace-{}-seed{seed}.jsonl", workload.name()));
    if let Err(e) = rep.rec.write_jsonl(&path) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
    println!(
        "trace: {} spans written to {}",
        rep.rec.spans().len(),
        path.display()
    );
    for (name, ns, count) in rep.self_time_by_layer() {
        println!(
            "trace: self time {name:<20} {:>12.3} ms over {count} spans",
            ns as f64 / 1e6
        );
    }

    let mut metrics = vec![
        metric(
            "server.overhead_p50_ms",
            quantile(&overheads, 0.5).unwrap_or(f64::NAN),
            "ms",
        ),
        metric(
            "server.overhead_p95_ms",
            quantile(&overheads, 0.95).unwrap_or(f64::NAN),
            "ms",
        ),
        metric("server.refused", refused, "count"),
        metric("cache.hit_ratio", hits / (hits + misses).max(1.0), "ratio"),
        metric("cache.misses", misses, "count"),
        metric("cache.evictions", evictions, "count"),
    ];
    metrics.extend(layer_metrics(&rep, &probes)?);
    metrics.extend([
        metric(
            "engine.scaling_2t",
            untraced_wall / two_thread_wall,
            "ratio",
        ),
        metric("gemm.gflops", k.gemm_gflops, "GFLOP/s"),
        metric("gemm.peak_ratio", k.gemm_gflops / k.peak_gflops, "ratio"),
        metric("expv.ns_per_elem", k.expv_ns_per_elem, "ns"),
        metric("fft.gflops", k.fft_gflops, "GFLOP/s"),
        metric("machine.peak_gflops", k.peak_gflops, "GFLOP/s"),
        metric("trace.overhead_ratio", traced_wall / untraced_wall, "ratio"),
    ]);
    Ok(Outcome {
        correct: acc.failed() == 0
            && acc.mismatches == 0
            && replay_mismatches == 0
            && violations == 0,
        acc,
        metrics,
    })
}

/// Per-layer figures from the replay's spans, falling back to the
/// probe replay for layers the workload's stream does not reach.
fn layer_metrics(w: &Replayer, p: &Replayer) -> Result<Vec<Metric>, String> {
    let dur = |r: &Replayer, span: usize| r.rec.spans()[span].duration_ns() as f64;
    let engine_ms = |r: &Replayer, kind: &str| {
        let xs: Vec<f64> = r
            .jobs
            .iter()
            .filter(|j| j.kind == kind)
            .map(|j| dur(r, j.root) / 1e6)
            .collect();
        median(&xs)
    };
    let build_ms = |r: &Replayer, kind: replay::CacheKind| {
        let xs: Vec<f64> = r
            .lookups
            .iter()
            .filter(|l| l.kind == kind && l.miss)
            .map(|l| dur(r, l.span) / 1e6)
            .collect();
        median(&xs)
    };
    // (Σ span ns, Σ work, Σ aux) over one solve layer.
    let solve_sums = |r: &Replayer, layer: &str| {
        let mut sums = (0.0, 0.0, 0.0);
        for s in r.solves.iter().filter(|s| s.layer == layer) {
            sums.0 += dur(r, s.span);
            sums.1 += s.work;
            sums.2 += s.aux;
        }
        (sums.1 > 0.0).then_some(sums)
    };
    let either = |f: &dyn Fn(&Replayer) -> Option<f64>| f(w).or_else(|| f(p));

    let parse_ns: f64 = w.parse_spans.iter().map(|&s| dur(w, s)).sum();
    let hit_us: Vec<f64> = w
        .lookups
        .iter()
        .filter(|l| !l.miss)
        .map(|l| dur(w, l.span) / 1e3)
        .collect();
    let build_total: f64 = w
        .lookups
        .iter()
        .filter(|l| l.miss)
        .map(|l| dur(w, l.span) / 1e6)
        .sum();
    let renders: Vec<f64> = w.jobs.iter().map(|j| dur(w, j.render) / 1e3).collect();
    use replay::CacheKind as C;

    let figures: Vec<(&'static str, Option<f64>, &'static str)> = vec![
        (
            "jobs.parse_us_per_line",
            Some(parse_ns / 1e3 / w.parse_spans.len().max(1) as f64),
            "us",
        ),
        (
            "jobs.parse_mb_per_s",
            Some(w.parse_bytes as f64 / (parse_ns / 1e9) / 1e6),
            "MB/s",
        ),
        ("cache.build_ms_total", Some(build_total), "ms"),
        ("cache.hit_us", median(&hit_us), "us"),
        (
            "operator.build_ms",
            either(&|r| build_ms(r, C::Steady)),
            "ms",
        ),
        (
            "engine.steady_ms",
            either(&|r| engine_ms(r, "steady")),
            "ms",
        ),
        ("engine.delta_ms", either(&|r| engine_ms(r, "delta")), "ms"),
        (
            "engine.envelope_ms",
            either(&|r| engine_ms(r, "envelope")),
            "ms",
        ),
        (
            "engine.transient_ms",
            either(&|r| engine_ms(r, "transient")),
            "ms",
        ),
        ("engine.map_ms", either(&|r| engine_ms(r, "map")), "ms"),
        (
            "engine.spectral_ms",
            either(&|r| engine_ms(r, "spectral")),
            "ms",
        ),
        ("engine.render_us", median(&renders), "us"),
        (
            "sweep.us_per_scenario",
            either(&|r| solve_sums(r, "sweep.run").map(|s| s.0 / 1e3 / s.1)),
            "us",
        ),
        (
            "sweep.iterations_per_scenario",
            either(&|r| solve_sums(r, "sweep.run").map(|s| s.2 / s.1)),
            "count",
        ),
        (
            "sweep.warm_cold_wall_ratio",
            either(&|r| r.warm_cold_ratio()),
            "ratio",
        ),
        (
            "envelope.solve_ratio",
            either(&|r| solve_sums(r, "envelope.run").map(|s| s.1 / s.2)),
            "ratio",
        ),
        (
            "envelope.exhaustive_wall_ratio",
            either(&|r| r.envelope_exhaustive_ratio()),
            "ratio",
        ),
        (
            "transient.factor_ms",
            either(&|r| build_ms(r, C::Transient)),
            "ms",
        ),
        (
            "transient.lane_steps_per_s",
            either(&|r| solve_sums(r, "transient.run").map(|s| s.1 / (s.0 / 1e9))),
            "1/s",
        ),
        (
            "spectral.build_ms",
            either(&|r| build_ms(r, C::Spectral)),
            "ms",
        ),
        (
            "spectral.us_per_scenario",
            either(&|r| solve_sums(r, "spectral.run").map(|s| s.0 / 1e3 / s.1)),
            "us",
        ),
        ("map.build_ms", either(&|r| build_ms(r, C::Map)), "ms"),
        (
            "map.ms_per_map",
            either(&|r| solve_sums(r, "map.run").map(|s| s.0 / 1e6 / s.1)),
            "ms",
        ),
    ];
    figures
        .into_iter()
        .map(|(name, value, unit)| match value {
            Some(v) if v.is_finite() => Ok(metric(name, v, unit)),
            _ => Err(format!("per-layer metric {name} could not be measured")),
        })
        .collect()
}

fn summary_line(outcome: &Outcome) -> String {
    let metrics = outcome
        .metrics
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                Json::Object(vec![
                    ("value".into(), Json::Number(m.value)),
                    ("unit".into(), Json::String(m.unit.into())),
                ]),
            )
        })
        .collect();
    Json::Object(vec![
        ("correct".into(), Json::Bool(outcome.correct)),
        ("attempted".into(), Json::Number(outcome.acc.sent as f64)),
        ("failed".into(), Json::Number(outcome.acc.failed() as f64)),
        ("metrics".into(), Json::Object(metrics)),
    ])
    .render()
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let bin = build_server()?;
    let mut all_correct = true;
    for &workload in &args.workloads {
        for &trace in &args.trace {
            let mode = if trace { "traced" } else { "end-to-end" };
            println!("== {} ({mode}, seed {})", workload.name(), args.seed);
            let outcome = if trace {
                traced(&bin, workload, args.seed, args.seconds)?
            } else {
                end_to_end(&bin, workload, args.seed, args.seconds)?
            };
            for m in &outcome.metrics {
                if !m.value.is_finite() {
                    return Err(format!("metric {} is not finite", m.name));
                }
                println!("metric: {} = {} {}", m.name, m.value, m.unit);
            }
            all_correct &= outcome.correct;
            println!("{}", summary_line(&outcome));
        }
    }
    Ok(all_correct)
}

fn main() {
    let code = match run() {
        Ok(true) => 0,
        Ok(false) => {
            eprintln!("perfbench: correctness check failed");
            1
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
    };
    std::process::exit(code);
}
