//! Integration tests for the persistent fleet service
//! ([`ptherm_fleet::server`]): real TCP connections against a live
//! [`FleetServer`], exercising the serve-mode guarantees the module
//! docs promise — batch/serve bitwise identity, graceful drain with
//! zero lost jobs, typed backpressure refusals, line-isolated protocol
//! errors, bounded request lines, live stats, cache persist/warm across
//! restarts, and prompt whole-line result delivery.

use ptherm_fleet::server::MAX_LINE_BYTES;
use ptherm_fleet::{
    parse_jsonl, Fault, FaultPlan, FleetEngine, FleetEngineBuilder, FleetServer, Json, ServeConfig,
    ServeListener, ServeSummary,
};
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// A mixed request both floorplan kinds, every job kind — including a
/// named steady base, a `delta` re-solve referencing it, an `envelope`
/// bisection, and a biased-power steady — a `"v": 1` pin and a
/// run-time failure: the same shapes the golden suite pins for batch
/// mode.
const MIXED_REQUEST: &str = r#"{"type": "floorplan", "name": "quad", "tiles": {"rows": 2, "cols": 2, "p_min": 0.0, "p_max": 0.0, "seed": 7}}
{"type": "floorplan", "name": "solo", "blocks": [{"name": "blk", "cx": 0.5e-3, "cy": 0.5e-3, "w": 0.4e-3, "l": 0.4e-3}]}
{"type": "steady", "floorplan": "quad", "dynamic_w": 0.0, "leakage_w": 0.0, "vdd_scales": [0.9, 1.0, 1.1], "v": 1}
{"type": "transient", "floorplan": "solo", "dynamic_w": 0.0, "leakage_w": 0.0, "dt_s": 1e-4, "steps": 10}
{"type": "map", "floorplan": "quad", "dynamic_w": 0.0, "leakage_w": 0.0, "grid": {"nx": 8, "ny": 8}, "ambients_k": [300, 320]}
{"type": "transient", "floorplan": "quad", "dynamic_w": 0.0, "leakage_w": 0.0, "dt_s": -1e-4, "steps": 5}
{"type": "steady", "floorplan": "quad", "name": "base", "dynamic_w": 0.0, "leakage_w": 0.0, "vdd_scales": [0.9, 1.1], "power": "biased"}
{"type": "delta", "base": "base", "vdd_scales": [0.95, 1.05]}
{"type": "envelope", "floorplan": "quad", "dynamic_w": 0.0, "leakage_w": 0.0, "axis": "vdd_scale", "lo": 0.5, "hi": 1.5, "tolerance": 0.25}
"#;

const QUAD: &str = "{\"type\": \"floorplan\", \"name\": \"quad\", \"tiles\": \
    {\"rows\": 2, \"cols\": 2, \"p_min\": 0.0, \"p_max\": 0.0, \"seed\": 7}}\n";

/// A single-scenario steady job on `quad`; `dynamic_w` varies the
/// result line so distinct jobs render distinct bytes.
fn point_job(dynamic_w: f64) -> String {
    format!(
        "{{\"type\": \"steady\", \"floorplan\": \"quad\", \"dynamic_w\": {dynamic_w:?}, \
         \"leakage_w\": 0.01, \"vdd_scales\": [1.0]}}\n"
    )
}

fn engine(threads: usize) -> FleetEngine {
    FleetEngineBuilder::new()
        .threads(threads)
        .build()
        .expect("valid configuration")
}

/// Binds an ephemeral TCP port, starts serving on a background thread,
/// and returns the address plus the join handle yielding the
/// [`ServeSummary`].
fn start(engine: FleetEngine, config: ServeConfig) -> (SocketAddr, JoinHandle<ServeSummary>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let server = FleetServer::new(engine, config);
    let handle = thread::spawn(move || {
        server
            .serve(vec![ServeListener::Tcp(listener)])
            .expect("serve")
    });
    (addr, handle)
}

/// One full client exchange: stream `request`, half-close the write
/// side, collect every response line until the server closes.
fn roundtrip(addr: SocketAddr, request: &str) -> Vec<String> {
    roundtrip_bytes(addr, request.as_bytes())
}

/// [`roundtrip`] for a request that need not be valid UTF-8.
fn roundtrip_bytes(addr: SocketAddr, request: &[u8]) -> Vec<String> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(request).expect("send request");
    stream.shutdown(Shutdown::Write).expect("half-close");
    BufReader::new(stream)
        .lines()
        .map(|line| line.expect("response line"))
        .collect()
}

/// Pins the one timing-dependent field so lines compare bitwise.
fn normalize(line: &str) -> String {
    let Some(at) = line.find("\"wall_ns\":") else {
        return line.to_string();
    };
    let digits_start = at + "\"wall_ns\":".len();
    let digits_end = line[digits_start..]
        .find(|c: char| !c.is_ascii_digit())
        .map_or(line.len(), |off| digits_start + off);
    format!("{}0{}", &line[..digits_start], &line[digits_end..])
}

fn job_index(line: &str) -> Option<usize> {
    Json::parse(line).ok()?.get("job")?.as_usize()
}

/// The batch baseline: `parse_jsonl` → [`FleetEngine::run`] →
/// normalized result lines in job order.
fn batch_lines(request_text: &str, threads: usize) -> Vec<String> {
    let request = parse_jsonl(request_text).expect("valid request");
    let engine = FleetEngineBuilder::new()
        .threads(threads)
        .request(&request)
        .build()
        .expect("valid configuration");
    let report = engine.run(&request.jobs);
    let mut lines = vec![String::new(); report.jobs.len()];
    for record in &report.jobs {
        lines[record.index] = normalize(&record.to_json(&request.jobs[record.index]).render());
    }
    lines
}

/// Result lines from a serve exchange, sorted into job order and
/// normalized; panics on refusal or control lines.
fn served_in_job_order(lines: &[String]) -> Vec<String> {
    let mut indexed: Vec<(usize, String)> = lines
        .iter()
        .map(|line| {
            assert!(
                line.contains("\"ok\":"),
                "expected a result line, got: {line}"
            );
            (job_index(line).expect("job index"), normalize(line))
        })
        .collect();
    indexed.sort_by_key(|(index, _)| *index);
    indexed.into_iter().map(|(_, line)| line).collect()
}

fn stat(summary: &ServeSummary, key: &str) -> f64 {
    summary
        .stats
        .get(key)
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("stats field {key}"))
}

/// Two concurrent connections stream the same mixed request — both
/// defining the same floorplan names, proving admission-time binding
/// keeps registries connection-local — and each gets back exactly the
/// lines a batch run of that request produces, bitwise (wall-ns
/// normalized), including the `"v": 1` echo and the `ok:false` line.
#[test]
fn concurrent_connections_match_batch_bitwise() {
    let expected = batch_lines(MIXED_REQUEST, 2);
    let (addr, handle) = start(engine(2), ServeConfig::default());

    let clients: Vec<JoinHandle<Vec<String>>> = (0..2)
        .map(|_| thread::spawn(move || roundtrip(addr, MIXED_REQUEST)))
        .collect();
    for client in clients {
        let lines = client.join().expect("client thread");
        assert_eq!(served_in_job_order(&lines), expected);
    }

    // Drain and check the books: 2 connections, 14 jobs, 2 failures
    // (the negative-dt transient per connection).
    let shutdown = roundtrip(addr, "{\"type\": \"shutdown\"}\n");
    assert_eq!(shutdown.len(), 1, "shutdown ack only: {shutdown:?}");
    let summary = handle.join().expect("server thread");
    assert_eq!(stat(&summary, "connections_opened"), 3.0);
    assert_eq!(stat(&summary, "connections_closed"), 3.0);
    assert_eq!(stat(&summary, "jobs_admitted"), 14.0);
    assert_eq!(stat(&summary, "jobs_ok"), 12.0);
    assert_eq!(stat(&summary, "jobs_failed"), 2.0);
    assert_eq!(stat(&summary, "refused_backpressure"), 0.0);
    assert_eq!(stat(&summary, "refused_protocol"), 0.0);
    assert!(stat(&summary, "latency_p50_ns") > 0.0);
    assert!(stat(&summary, "latency_p99_ns") >= stat(&summary, "latency_p50_ns"));
}

/// A shutdown control record mid-stream drains every admitted job to
/// its result line before the connection closes: delay faults keep the
/// single worker busy so the queue is genuinely non-empty when the
/// drain starts, and still zero jobs are lost.
#[test]
fn graceful_shutdown_drains_every_admitted_job() {
    let mut faults = FaultPlan::new();
    for job in 0..3 {
        faults = faults.inject(job, Fault::Delay { ms: 40 });
    }
    let engine = FleetEngineBuilder::new()
        .threads(1)
        .faults(faults)
        .build()
        .expect("valid configuration");
    let (addr, handle) = start(engine, ServeConfig::default());

    let mut request = String::from(
        "{\"type\": \"floorplan\", \"name\": \"quad\", \"tiles\": \
         {\"rows\": 2, \"cols\": 2, \"p_min\": 0.0, \"p_max\": 0.0, \"seed\": 7}}\n",
    );
    let jobs = 8;
    for _ in 0..jobs {
        request.push_str(
            "{\"type\": \"steady\", \"floorplan\": \"quad\", \"dynamic_w\": 0.0, \
             \"leakage_w\": 0.0, \"vdd_scales\": [1.0]}\n",
        );
    }
    request.push_str("{\"type\": \"shutdown\"}\n");

    let lines = roundtrip(addr, &request);
    let acks: Vec<&String> = lines
        .iter()
        .filter(|l| l.contains("\"type\":\"shutdown\""))
        .collect();
    assert_eq!(acks.len(), 1, "one shutdown ack: {lines:?}");
    let mut answered: Vec<usize> = lines
        .iter()
        .filter(|l| l.contains("\"ok\":"))
        .map(|l| job_index(l).expect("job index"))
        .collect();
    answered.sort_unstable();
    assert_eq!(answered, (0..jobs).collect::<Vec<_>>(), "zero lost jobs");

    let summary = handle.join().expect("server thread");
    assert_eq!(stat(&summary, "jobs_admitted"), jobs as f64);
    assert_eq!(stat(&summary, "jobs_ok"), jobs as f64);
    assert_eq!(stat(&summary, "jobs_failed"), 0.0);
    assert_eq!(stat(&summary, "queue_depth"), 0.0);
}

/// At queue capacity, admission refuses with a typed
/// `"refused": "backpressure"` line naming the depth instead of
/// buffering without bound; every job is either answered or refused,
/// never dropped silently.
#[test]
fn backpressure_refuses_at_capacity_with_a_typed_line() {
    // Job 0 stalls the only worker for 400 ms, so the burst behind it
    // must overflow a capacity-1 queue.
    let faults = FaultPlan::new().inject(0, Fault::Delay { ms: 400 });
    let engine = FleetEngineBuilder::new()
        .threads(1)
        .faults(faults)
        .build()
        .expect("valid configuration");
    let config = ServeConfig {
        queue_capacity: 1,
        ..ServeConfig::default()
    };
    let (addr, handle) = start(engine, config);

    let mut request = String::from(
        "{\"type\": \"floorplan\", \"name\": \"quad\", \"tiles\": \
         {\"rows\": 2, \"cols\": 2, \"p_min\": 0.0, \"p_max\": 0.0, \"seed\": 7}}\n",
    );
    let jobs = 8;
    for _ in 0..jobs {
        request.push_str(
            "{\"type\": \"steady\", \"floorplan\": \"quad\", \"dynamic_w\": 0.0, \
             \"leakage_w\": 0.0, \"vdd_scales\": [1.0]}\n",
        );
    }
    request.push_str("{\"type\": \"shutdown\"}\n");

    let lines = roundtrip(addr, &request);
    let refused: Vec<&String> = lines
        .iter()
        .filter(|l| l.contains("\"refused\":\"backpressure\""))
        .collect();
    let answered = lines.iter().filter(|l| l.contains("\"ok\":")).count();
    assert!(
        !refused.is_empty(),
        "a capacity-1 queue behind a stalled worker must refuse: {lines:?}"
    );
    assert!(
        refused[0].contains("queue full (depth"),
        "refusal names the depth: {}",
        refused[0]
    );
    assert_eq!(
        answered + refused.len(),
        jobs,
        "every job answered or refused, never dropped: {lines:?}"
    );

    let summary = handle.join().expect("server thread");
    assert_eq!(stat(&summary, "jobs_admitted"), answered as f64);
    assert_eq!(stat(&summary, "refused_backpressure"), refused.len() as f64);
    assert_eq!(stat(&summary, "queue_capacity"), 1.0);
}

/// A zero-capacity queue is a valid library configuration: it refuses
/// every job with a typed backpressure line and still shuts down
/// cleanly, rather than aborting the serve scope.
#[test]
fn zero_capacity_refuses_every_job_and_shuts_down_cleanly() {
    let config = ServeConfig {
        queue_capacity: 0,
        ..ServeConfig::default()
    };
    let (addr, handle) = start(engine(2), config);

    let request = format!("{QUAD}{}{{\"type\": \"shutdown\"}}\n", point_job(0.1));
    let lines = roundtrip(addr, &request);
    let refused: Vec<&String> = lines
        .iter()
        .filter(|l| l.contains("\"refused\":\"backpressure\""))
        .collect();
    assert_eq!(refused.len(), 1, "one refusal line: {lines:?}");
    assert!(
        refused[0].contains("queue full (depth 0/0)"),
        "refusal names the zero bound: {}",
        refused[0]
    );
    assert!(
        !lines.iter().any(|l| l.contains("\"ok\":")),
        "no job may run: {lines:?}"
    );

    let summary = handle.join().expect("server thread");
    assert_eq!(stat(&summary, "jobs_admitted"), 0.0);
    assert_eq!(stat(&summary, "refused_backpressure"), 1.0);
    assert_eq!(stat(&summary, "queue_capacity"), 0.0);
}

/// Serve-mode protocol errors are line-isolated: malformed JSON and an
/// unknown protocol version each yield a typed refusal line, and the
/// connection keeps serving the valid jobs around them (batch mode, by
/// contrast, refuses the whole file).
#[test]
fn protocol_errors_are_line_isolated() {
    let (addr, handle) = start(engine(1), ServeConfig::default());

    let request = "this is not json\n\
        {\"type\": \"floorplan\", \"name\": \"quad\", \"tiles\": \
        {\"rows\": 2, \"cols\": 2, \"p_min\": 0.0, \"p_max\": 0.0, \"seed\": 7}}\n\
        {\"type\": \"steady\", \"floorplan\": \"quad\", \"dynamic_w\": 0.0, \
        \"leakage_w\": 0.0, \"vdd_scales\": [1.0], \"v\": 99}\n\
        {\"type\": \"steady\", \"floorplan\": \"quad\", \"dynamic_w\": 0.0, \
        \"leakage_w\": 0.0, \"vdd_scales\": [1.0]}\n";
    let lines = roundtrip(addr, request);

    let refusals: Vec<&String> = lines
        .iter()
        .filter(|l| l.contains("\"refused\":\"protocol\""))
        .collect();
    assert_eq!(refusals.len(), 2, "two protocol refusals: {lines:?}");
    assert!(
        refusals
            .iter()
            .any(|l| l.contains("unsupported protocol version 99")),
        "version refusal is typed: {refusals:?}"
    );
    let results: Vec<&String> = lines.iter().filter(|l| l.contains("\"ok\":true")).collect();
    assert_eq!(results.len(), 1, "the valid job still ran: {lines:?}");
    assert_eq!(
        job_index(results[0]),
        Some(0),
        "job numbering skips refusals"
    );

    let _ = roundtrip(addr, "{\"type\": \"shutdown\"}\n");
    let summary = handle.join().expect("server thread");
    assert_eq!(stat(&summary, "refused_protocol"), 2.0);
    assert_eq!(stat(&summary, "jobs_ok"), 1.0);
}

/// The `{"type": "stats"}` control record answers mid-connection with
/// live counters and cache hit rates, interleaved with job results on
/// the same stream.
#[test]
fn stats_control_record_reports_live_counters() {
    let (addr, handle) = start(engine(1), ServeConfig::default());

    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("read half"));
    let mut line = String::new();

    stream
        .write_all(
            b"{\"type\": \"floorplan\", \"name\": \"quad\", \"tiles\": \
              {\"rows\": 2, \"cols\": 2, \"p_min\": 0.0, \"p_max\": 0.0, \"seed\": 7}}\n\
              {\"type\": \"steady\", \"floorplan\": \"quad\", \"dynamic_w\": 0.0, \
              \"leakage_w\": 0.0, \"vdd_scales\": [1.0]}\n",
        )
        .expect("send job");
    reader.read_line(&mut line).expect("result line");
    assert!(line.contains("\"ok\":true"), "job result first: {line}");

    stream
        .write_all(b"{\"type\": \"stats\"}\n")
        .expect("send stats");
    line.clear();
    reader.read_line(&mut line).expect("stats line");
    let stats = Json::parse(&line).expect("stats json");
    assert_eq!(
        stats.get("type").and_then(Json::as_str),
        Some("stats"),
        "typed stats line: {line}"
    );
    assert_eq!(stats.get("jobs_ok").and_then(Json::as_f64), Some(1.0));
    assert_eq!(stats.get("queue_depth").and_then(Json::as_f64), Some(0.0));
    let steady = stats
        .get("caches")
        .and_then(|c| c.get("steady"))
        .expect("steady cache stats");
    assert_eq!(steady.get("misses").and_then(Json::as_f64), Some(1.0));

    stream
        .write_all(b"{\"type\": \"shutdown\"}\n")
        .expect("send shutdown");
    line.clear();
    reader.read_line(&mut line).expect("shutdown ack");
    assert!(line.contains("\"type\":\"shutdown\""), "ack: {line}");

    let _ = handle.join().expect("server thread");
}

/// Cache persistence across restarts: the first serve lifecycle saves
/// a fingerprint-keyed manifest on drain; a second lifecycle with a
/// fresh engine warms from it (every recipe rebuilt, none stale),
/// serves the same request entirely from cache hits, and produces
/// bitwise-identical result lines.
#[test]
fn manifest_round_trip_warms_a_restarted_server() {
    let manifest: PathBuf =
        std::env::temp_dir().join(format!("ptherm-serve-manifest-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&manifest);
    let config = ServeConfig {
        manifest_path: Some(manifest.clone()),
        ..ServeConfig::default()
    };
    let request = "{\"type\": \"floorplan\", \"name\": \"quad\", \"tiles\": \
        {\"rows\": 2, \"cols\": 2, \"p_min\": 0.0, \"p_max\": 0.0, \"seed\": 7}}\n\
        {\"type\": \"steady\", \"floorplan\": \"quad\", \"dynamic_w\": 0.0, \
        \"leakage_w\": 0.0, \"vdd_scales\": [0.9, 1.0]}\n\
        {\"type\": \"transient\", \"floorplan\": \"quad\", \"dynamic_w\": 0.0, \
        \"leakage_w\": 0.0, \"dt_s\": 1e-4, \"steps\": 5}\n\
        {\"type\": \"shutdown\"}\n";

    let (addr, handle) = start(engine(1), config.clone());
    let first: Vec<String> = roundtrip(addr, request)
        .into_iter()
        .filter(|l| l.contains("\"ok\":"))
        .collect();
    let summary = handle.join().expect("server thread");
    assert!(summary.warm.is_none(), "no manifest to warm from yet");
    assert!(summary.manifest_saved, "drain saves the manifest");

    let (addr, handle) = start(engine(1), config);
    let second: Vec<String> = roundtrip(addr, request)
        .into_iter()
        .filter(|l| l.contains("\"ok\":"))
        .collect();
    let summary = handle.join().expect("server thread");
    let warm = summary.warm.expect("warmed from the saved manifest");
    assert_eq!(warm.rebuilt, 2, "steady operator + transient propagator");
    assert_eq!(warm.skipped, 0, "nothing stale");

    // The warm pass itself pays the build (the miss); the served jobs
    // are then pure hits — a restarted service is warm from job one.
    let caches = summary.stats.get("caches").expect("cache stats");
    for cache in ["steady", "transient"] {
        let stats = caches.get(cache).expect("cache entry");
        assert_eq!(
            stats.get("misses").and_then(Json::as_f64),
            Some(1.0),
            "{cache}: only the warm pass misses"
        );
        assert!(
            stats.get("hits").and_then(Json::as_f64).unwrap_or(0.0) >= 1.0,
            "{cache}: served jobs hit the warmed cache"
        );
    }

    let normalize_all = |lines: &[String]| lines.iter().map(|l| normalize(l)).collect::<Vec<_>>();
    assert_eq!(
        normalize_all(&first),
        normalize_all(&second),
        "restart is bitwise-invisible to clients"
    );
    let _ = std::fs::remove_file(&manifest);
}

/// Closed loop over one TCP connection with the client's default socket
/// options: each job is sent only after the previous result line has
/// arrived. A server that split a result line across two small writes
/// would stall every round trip on the client's delayed ACK (~40 ms);
/// whole-line writes on a `TCP_NODELAY` socket answer in well under a
/// millisecond.
#[test]
fn closed_loop_round_trips_do_not_wait_on_delayed_acks() {
    let (addr, handle) = start(engine(1), ServeConfig::default());
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("read half"));
    stream.write_all(QUAD.as_bytes()).expect("send floorplan");

    let mut round_trips = Vec::new();
    let mut line = String::new();
    for i in 0..20 {
        let job = point_job(0.1 + 0.01 * f64::from(i));
        let sent = Instant::now();
        stream.write_all(job.as_bytes()).expect("send job");
        line.clear();
        reader.read_line(&mut line).expect("result line");
        round_trips.push(sent.elapsed());
        assert!(line.contains("\"ok\":true"), "job {i}: {line}");
    }
    round_trips.sort_unstable();
    let median = round_trips[round_trips.len() / 2];
    assert!(
        median < Duration::from_millis(10),
        "median round trip {median:?} (all: {round_trips:?})"
    );

    stream
        .write_all(b"{\"type\": \"shutdown\"}\n")
        .expect("send shutdown");
    let _ = handle.join().expect("server thread");
}

/// 32 jobs arrive in one write on a connection that stays open, so
/// result lines queue up behind each other at the writer: the client
/// still reads exactly 32 lines, each bitwise the batch line for its
/// job — no line split or merged at a write boundary.
#[test]
fn pipelined_result_lines_stay_whole() {
    let jobs: String = (0..32).map(|i| point_job(0.05 * f64::from(i))).collect();
    let request = format!("{QUAD}{jobs}");
    let expected = batch_lines(&request, 2);
    let (addr, handle) = start(engine(2), ServeConfig::default());

    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("read half"));
    stream.write_all(request.as_bytes()).expect("send request");
    let lines: Vec<String> = (0..32)
        .map(|_| {
            let mut line = String::new();
            reader.read_line(&mut line).expect("result line");
            line.strip_suffix('\n')
                .expect("newline-terminated")
                .to_string()
        })
        .collect();
    assert_eq!(served_in_job_order(&lines), expected);

    stream
        .write_all(b"{\"type\": \"shutdown\"}\n")
        .expect("send shutdown");
    let summary = handle.join().expect("server thread");
    assert_eq!(stat(&summary, "jobs_ok"), 32.0);
}

/// A request line longer than `MAX_LINE_BYTES` is refused with a typed
/// protocol line naming the cap, skipped through its newline, and the
/// connection keeps serving the jobs behind it; the skipped line still
/// counts toward the line numbers later errors report.
#[test]
fn over_long_request_lines_are_refused_and_skipped() {
    let (addr, handle) = start(engine(1), ServeConfig::default());
    let mut request = vec![b'x'; MAX_LINE_BYTES + 1024];
    request.push(b'\n');
    request.extend_from_slice(QUAD.as_bytes());
    request.extend_from_slice(point_job(0.1).as_bytes());
    request.extend_from_slice(b"not json\n");
    let lines = roundtrip_bytes(addr, &request);

    // Refusals come from the reader in line order; the result line
    // races the last refusal.
    let (refusals, results): (Vec<&String>, Vec<&String>) =
        lines.iter().partition(|l| l.contains("\"refused\":"));
    assert_eq!(refusals.len(), 2, "two refusals: {lines:?}");
    let refusal = Json::parse(refusals[0]).expect("refusal json");
    assert_eq!(
        refusal.get("refused").and_then(Json::as_str),
        Some("protocol")
    );
    assert_eq!(
        refusal.get("error").and_then(Json::as_str),
        Some(format!("line exceeds {MAX_LINE_BYTES} bytes").as_str())
    );
    assert!(
        refusals[1].contains("\"error\":\"line 4: "),
        "the skipped line is line 1: {}",
        refusals[1]
    );
    assert_eq!(results.len(), 1, "the job still ran: {lines:?}");
    assert!(results[0].contains("\"ok\":true"), "{}", results[0]);
    assert_eq!(job_index(results[0]), Some(0));

    let _ = roundtrip(addr, "{\"type\": \"shutdown\"}\n");
    let summary = handle.join().expect("server thread");
    assert_eq!(stat(&summary, "refused_protocol"), 2.0);
    assert_eq!(stat(&summary, "jobs_ok"), 1.0);
}

/// A request line that is not valid UTF-8 gets a typed protocol refusal
/// instead of closing the connection.
#[test]
fn invalid_utf8_request_lines_are_refused_not_fatal() {
    let (addr, handle) = start(engine(1), ServeConfig::default());
    let mut request = b"{\"type\": \"steady\", \"floorplan\": \"\xff\xfe\"}\n".to_vec();
    request.extend_from_slice(QUAD.as_bytes());
    request.extend_from_slice(point_job(0.1).as_bytes());
    let lines = roundtrip_bytes(addr, &request);

    assert_eq!(lines.len(), 2, "one refusal, one result: {lines:?}");
    assert!(
        lines[0].contains("\"refused\":\"protocol\"") && lines[0].contains("not valid UTF-8"),
        "typed UTF-8 refusal: {}",
        lines[0]
    );
    assert!(lines[1].contains("\"ok\":true"), "job still ran: {lines:?}");

    let _ = roundtrip(addr, "{\"type\": \"shutdown\"}\n");
    let summary = handle.join().expect("server thread");
    assert_eq!(stat(&summary, "refused_protocol"), 1.0);
}
