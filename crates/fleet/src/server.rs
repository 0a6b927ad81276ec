//! The persistent fleet service: a long-running socket front-end over
//! [`FleetEngine`].
//!
//! Batch mode (`parse_jsonl` → [`FleetEngine::run`]) reads a whole
//! request, runs it, exits. This module keeps the engine — and, more
//! importantly, its warmed operator caches — alive across requests:
//! clients connect over TCP (or a Unix socket), stream JSONL job lines,
//! and read JSONL result lines back on the same connection, while one
//! pool of engine workers serves every connection off one shared cache.
//!
//! Design, front to back:
//!
//! * **Admission** — each connection gets a reader thread running a
//!   streaming [`RequestParser`]: floorplan definitions build a
//!   *connection-local* registry, and each job line is bound to its
//!   `Arc<Floorplan>` at admission. Workers then run jobs via
//!   [`FleetEngine::run_resolved`], never consulting a shared name
//!   table — two connections may both define `"chip"` without
//!   colliding, and a served job takes the exact solve path (and bit
//!   pattern) of the same job in a batch run.
//! * **Scheduling** — every connection's admitted jobs push into one
//!   *bounded* FIFO ([`BoundedQueue`]); `FleetConfig::threads` workers
//!   block in `pop_wait` and run jobs in admission order.
//! * **Backpressure** — when the queue is at capacity the job is
//!   refused at admission with a typed `"refused": "backpressure"`
//!   line naming the depth, rather than buffered without bound. The
//!   client retries; the server's memory stays flat.
//! * **Results** — each job carries an `mpsc` handle to its
//!   connection's writer thread; result lines stream back as jobs
//!   complete (tagged `"job": n` in per-connection admission order,
//!   matching the line numbering a batch run of the same request would
//!   use). The writer puts each line and its newline on the socket
//!   in a single `write_all`, and TCP connections are accepted with
//!   `TCP_NODELAY`, so no line waits for the client's delayed ACK
//!   (Nagle would otherwise hold a small second segment for ~40 ms).
//! * **Connections** — a registry keyed by connection id holds one
//!   clone of each live socket for the drain-time read nudge; a
//!   connection's reader removes its entry when it finishes, so closed
//!   connections leave no file descriptors behind.
//! * **Request lines** — each line is read into a reused buffer capped
//!   at [`MAX_LINE_BYTES`]. A longer line is discarded through its
//!   newline and refused with a typed `"refused": "protocol"` line, as
//!   is a line that is not valid UTF-8; the connection keeps serving.
//! * **Control** — `{"type": "stats"}` answers with a metrics line
//!   ([`ServeMetrics::stats_json`]: cache hit rates, queue depth, jobs
//!   served, retries/panics, p50/p99 job latency); `{"type":
//!   "shutdown"}` initiates graceful drain.
//! * **Graceful shutdown** — on a shutdown record, or whenever the
//!   [`FleetServer::shutdown_handle`] flag is raised (the `fleet serve`
//!   binary wires SIGTERM and stdin-close to it), the server stops
//!   accepting, closes the queue, drains every admitted job to its
//!   result line, flushes and closes connections. Zero admitted jobs
//!   are lost.
//! * **Persistence** — with a manifest path configured, startup warms
//!   the caches from the previous run's manifest
//!   ([`crate::persist::warm`]) and drain saves the current recipes
//!   back ([`crate::persist::manifest`]), so a restarted service is
//!   serving cache hits from its first job.

use crate::engine::FleetEngine;
use crate::jobs::{ControlRecord, JobSpec, ParsedLine, RequestParser};
use crate::json::Json;
use crate::metrics::ServeMetrics;
use crate::persist::{self, WarmReport};
use ptherm_floorplan::Floorplan;
use ptherm_par::queue::{BoundedQueue, PushError};
use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::Duration;

/// How often blocking-free loops (accept, drain supervisor) re-check
/// the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(10);

/// The longest request line the reader accepts, newline excluded.
/// Longer lines are refused with a typed protocol line and skipped.
pub const MAX_LINE_BYTES: usize = 4 * 1024 * 1024;

/// Serve-mode configuration (engine configuration lives in
/// [`crate::engine::FleetConfig`]; this is only the front-end).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Admission bound: jobs queued but not yet claimed by a worker.
    /// At capacity, new jobs are refused with a typed backpressure
    /// line instead of buffered. A capacity of 0 refuses every job.
    pub queue_capacity: usize,
    /// Cache manifest to warm from at startup and save on drain
    /// (`None`: no persistence).
    pub manifest_path: Option<PathBuf>,
}

impl Default for ServeConfig {
    /// A 256-job admission bound, no persistence.
    fn default() -> Self {
        ServeConfig {
            queue_capacity: 256,
            manifest_path: None,
        }
    }
}

/// A bound accept socket the server serves on.
#[derive(Debug)]
pub enum ServeListener {
    /// A bound TCP listener.
    Tcp(TcpListener),
    /// A bound Unix-domain listener.
    #[cfg(unix)]
    Unix(UnixListener),
}

impl ServeListener {
    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        match self {
            ServeListener::Tcp(l) => l.set_nonblocking(nonblocking),
            #[cfg(unix)]
            ServeListener::Unix(l) => l.set_nonblocking(nonblocking),
        }
    }

    fn accept(&self) -> io::Result<Conn> {
        match self {
            ServeListener::Tcp(l) => {
                let (stream, _) = l.accept()?;
                Ok(Conn::Tcp(stream))
            }
            #[cfg(unix)]
            ServeListener::Unix(l) => {
                let (stream, _) = l.accept()?;
                Ok(Conn::Unix(stream))
            }
        }
    }
}

/// One accepted connection, TCP or Unix, with uniform clone/shutdown.
#[derive(Debug)]
enum Conn {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Conn {
    fn try_clone(&self) -> io::Result<Conn> {
        match self {
            Conn::Tcp(s) => s.try_clone().map(Conn::Tcp),
            #[cfg(unix)]
            Conn::Unix(s) => s.try_clone().map(Conn::Unix),
        }
    }

    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_nonblocking(nonblocking),
            #[cfg(unix)]
            Conn::Unix(s) => s.set_nonblocking(nonblocking),
        }
    }

    /// Disables Nagle's algorithm on TCP; Unix sockets have none.
    fn set_nodelay(&self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_nodelay(true),
            #[cfg(unix)]
            Conn::Unix(_) => Ok(()),
        }
    }

    fn shutdown(&self, how: Shutdown) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.shutdown(how),
            #[cfg(unix)]
            Conn::Unix(s) => s.shutdown(how),
        }
    }
}

impl io::Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl io::Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Conn::Unix(s) => s.flush(),
        }
    }
}

/// One admitted job: its spec, the floorplan bound at admission, its
/// per-connection sequence number, and the way home.
struct Admitted {
    seq: usize,
    spec: JobSpec,
    plan: Arc<Floorplan>,
    reply: mpsc::Sender<String>,
}

/// What a completed [`FleetServer::serve`] did.
#[derive(Debug, Clone)]
pub struct ServeSummary {
    /// Cache warm-up outcome (`None`: no manifest configured or none
    /// existed yet).
    pub warm: Option<WarmReport>,
    /// Whether a manifest was saved on drain.
    pub manifest_saved: bool,
    /// The final stats line (same shape the `{"type": "stats"}`
    /// control record answers with).
    pub stats: Json,
}

/// Everything the per-connection and worker threads share.
struct Shared<'e> {
    engine: &'e FleetEngine,
    queue: BoundedQueue<Admitted>,
    metrics: &'e ServeMetrics,
    shutdown: &'e AtomicBool,
    /// Read-half clones of every live connection, keyed by connection
    /// id, nudged (`Shutdown::Read`) at drain time to unblock reader
    /// threads. Each reader removes its own entry when it finishes.
    conns: Mutex<BTreeMap<u64, Conn>>,
    next_conn: AtomicU64,
}

impl Shared<'_> {
    fn lock_conns(&self) -> std::sync::MutexGuard<'_, BTreeMap<u64, Conn>> {
        match self.conns.lock() {
            Ok(guard) => guard,
            // Registry operations (insert / remove / shutdown-nudge)
            // cannot leave the map inconsistent mid-panic.
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn stats_line(&self) -> String {
        self.metrics
            .stats_json(
                self.queue.depth(),
                self.queue.capacity(),
                &self.engine.cache().named_stats(),
            )
            .render()
    }
}

/// The persistent fleet service (see the [module docs](self)).
#[derive(Debug)]
pub struct FleetServer {
    engine: FleetEngine,
    config: ServeConfig,
    metrics: Arc<ServeMetrics>,
    shutdown: Arc<AtomicBool>,
}

impl FleetServer {
    /// A server over a (typically builder-constructed) engine.
    pub fn new(engine: FleetEngine, config: ServeConfig) -> Self {
        FleetServer {
            engine,
            config,
            metrics: Arc::new(ServeMetrics::new()),
            shutdown: Arc::new(AtomicBool::new(false)),
        }
    }

    /// The flag that initiates graceful drain when set: share it with a
    /// signal handler (the `fleet serve` binary raises it on SIGTERM)
    /// or a watchdog thread. Also raised internally by a
    /// `{"type": "shutdown"}` control record.
    pub fn shutdown_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// Live serve counters (shared; readable while serving).
    pub fn metrics(&self) -> Arc<ServeMetrics> {
        Arc::clone(&self.metrics)
    }

    /// The engine this server fronts.
    pub fn engine(&self) -> &FleetEngine {
        &self.engine
    }

    /// Serves connections from `listeners` until the shutdown flag is
    /// raised, then drains: stops accepting, closes the admission
    /// queue, runs every already-admitted job to its result line,
    /// flushes and closes every connection, and (if configured) saves
    /// the cache manifest. Every admitted job is either answered with
    /// a result line or — never silently — refused at admission.
    ///
    /// # Errors
    ///
    /// Only setup I/O failures (putting a listener into non-blocking
    /// mode). Per-connection I/O errors close that connection and are
    /// otherwise absorbed.
    pub fn serve(&self, listeners: Vec<ServeListener>) -> io::Result<ServeSummary> {
        let warm = self.warm_from_manifest();
        let workers = self.engine.config().threads.max(1);
        let shared = Shared {
            engine: &self.engine,
            queue: BoundedQueue::new(self.config.queue_capacity),
            metrics: &self.metrics,
            shutdown: &self.shutdown,
            conns: Mutex::new(BTreeMap::new()),
            next_conn: AtomicU64::new(0),
        };
        for listener in &listeners {
            listener.set_nonblocking(true)?;
        }
        thread::scope(|scope| {
            for _ in 0..workers {
                let shared = &shared;
                scope.spawn(move || worker_loop(shared));
            }
            for listener in listeners {
                let shared = &shared;
                scope.spawn(move || accept_loop(scope, listener, shared));
            }
            // Supervise: wait for the flag, then drain. Workers finish
            // the queue and exit on `pop_wait → None`; the read-side
            // nudge unblocks reader threads so they drop their reply
            // handles; writers then drain their channels and close.
            while !self.shutdown.load(Ordering::SeqCst) {
                thread::park_timeout(POLL_INTERVAL);
            }
            shared.queue.close();
            for conn in shared.lock_conns().values() {
                let _ = conn.shutdown(Shutdown::Read);
            }
        });
        let manifest_saved = self.save_manifest();
        Ok(ServeSummary {
            warm,
            manifest_saved,
            stats: self.metrics.stats_json(
                0,
                self.config.queue_capacity,
                &self.engine.cache().named_stats(),
            ),
        })
    }

    /// Warms the engine's caches from the configured manifest, if one
    /// exists and parses. A missing or stale manifest is not an error —
    /// the service starts cold, exactly as if no manifest were
    /// configured.
    fn warm_from_manifest(&self) -> Option<WarmReport> {
        let path = self.config.manifest_path.as_ref()?;
        let text = std::fs::read_to_string(path).ok()?;
        let manifest = persist::parse_manifest(&text).ok()?;
        Some(persist::warm(&self.engine, &manifest))
    }

    /// Saves the current cache recipes to the configured manifest
    /// (write-then-rename, so a crash mid-save never truncates the
    /// previous manifest). Returns whether a manifest was written.
    fn save_manifest(&self) -> bool {
        let Some(path) = self.config.manifest_path.as_ref() else {
            return false;
        };
        let manifest = persist::manifest(&self.engine).render();
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        if std::fs::write(&tmp, manifest).is_err() {
            return false;
        }
        std::fs::rename(&tmp, path).is_ok()
    }
}

/// Claims admitted jobs in admission order until the queue is closed
/// *and* drained, running each with its admission-time floorplan and
/// streaming the result line back to its connection.
fn worker_loop(shared: &Shared<'_>) {
    while let Some(job) = shared.queue.pop_wait() {
        let record = shared.engine.run_resolved(&job.spec, &job.plan, job.seq);
        shared.metrics.job_done(&record);
        let line = record.to_json(&job.spec).render();
        // A vanished connection only loses delivery of this line, not
        // the job: it ran, and its cache effects persist.
        let _ = job.reply.send(line);
    }
}

/// Accepts connections (non-blocking + poll, so shutdown is prompt)
/// and spawns each connection's reader and writer threads.
fn accept_loop<'scope, 'env>(
    scope: &'scope thread::Scope<'scope, 'env>,
    listener: ServeListener,
    shared: &'scope Shared<'env>,
) {
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok(conn) => {
                if conn.set_nonblocking(false).is_err() {
                    continue;
                }
                // Without it, Nagle holds a small segment until the
                // client's delayed ACK; a failure only costs latency.
                let _ = conn.set_nodelay();
                spawn_connection(scope, conn, shared);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(POLL_INTERVAL);
            }
            // Transient accept failures (e.g. aborted handshakes):
            // back off briefly and keep serving.
            Err(_) => thread::sleep(POLL_INTERVAL),
        }
    }
}

fn spawn_connection<'scope, 'env>(
    scope: &'scope thread::Scope<'scope, 'env>,
    conn: Conn,
    shared: &'scope Shared<'env>,
) {
    let write_half = match conn.try_clone() {
        Ok(clone) => clone,
        Err(_) => return,
    };
    let id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
    if let Ok(nudge) = conn.try_clone() {
        shared.lock_conns().insert(id, nudge);
    }
    shared.metrics.connection_opened();
    let (tx, rx) = mpsc::channel::<String>();
    scope.spawn(move || writer_loop(write_half, rx, shared));
    scope.spawn(move || {
        reader_loop(conn, tx, shared);
        shared.lock_conns().remove(&id);
    });
}

/// Streams the connection's output lines until every reply handle —
/// the reader's own and one per in-flight job — is gone and the
/// channel is drained, then closes the socket for good. Each line goes
/// out with its newline in one write, so no trailing 1-byte segment
/// waits on the client's delayed ACK.
fn writer_loop(mut conn: Conn, rx: mpsc::Receiver<String>, shared: &Shared<'_>) {
    for mut line in rx {
        line.push('\n');
        if conn.write_all(line.as_bytes()).is_err() {
            break;
        }
    }
    let _ = conn.shutdown(Shutdown::Both);
    shared.metrics.connection_closed();
}

/// Parses the connection's request lines and admits jobs into the
/// queue. Errors are line-isolated: a malformed, over-long or non-UTF-8
/// line yields a typed refusal and the connection keeps serving (unlike
/// batch mode, where one bad line fails the whole request file).
fn reader_loop(conn: Conn, tx: mpsc::Sender<String>, shared: &Shared<'_>) {
    let mut parser = RequestParser::new();
    let mut jobs_seen = 0usize;
    let mut reader = BufReader::new(conn);
    let mut buf = Vec::new();
    loop {
        let parsed = match read_line(&mut reader, &mut buf) {
            Ok(LineRead::Eof) | Err(_) => break,
            Ok(LineRead::Line) => match std::str::from_utf8(&buf) {
                Ok(raw) => parser.parse_line(raw).map_err(|e| e.to_string()),
                Err(_) => {
                    parser.skip_line();
                    Err("line is not valid UTF-8".to_string())
                }
            },
            Ok(LineRead::TooLong) => {
                parser.skip_line();
                Err(format!("line exceeds {MAX_LINE_BYTES} bytes"))
            }
        };
        match parsed {
            Ok(ParsedLine::Empty) | Ok(ParsedLine::Floorplan(_)) => {}
            Ok(ParsedLine::Job { spec, plan }) => {
                let seq = jobs_seen;
                jobs_seen += 1;
                let admitted = Admitted {
                    seq,
                    spec: *spec,
                    plan,
                    reply: tx.clone(),
                };
                match shared.queue.push(admitted) {
                    Ok(()) => shared.metrics.job_admitted(),
                    Err(e @ PushError::Full { .. }) => {
                        shared.metrics.refused_backpressure();
                        let _ = tx.send(refusal_line(Some(seq), "backpressure", &e.to_string()));
                    }
                    Err(e @ PushError::Closed) => {
                        let _ = tx.send(refusal_line(Some(seq), "shutdown", &e.to_string()));
                    }
                }
            }
            Ok(ParsedLine::Control(ControlRecord::Stats)) => {
                let _ = tx.send(shared.stats_line());
            }
            Ok(ParsedLine::Control(ControlRecord::Shutdown)) => {
                let ack = Json::Object(vec![
                    ("type".into(), Json::String("shutdown".into())),
                    ("draining".into(), Json::Number(shared.queue.depth() as f64)),
                ]);
                let _ = tx.send(ack.render());
                shared.shutdown.store(true, Ordering::SeqCst);
                // Unpark the supervisor promptly? It polls; 10 ms is
                // prompt enough and keeps this handler trivial.
                break;
            }
            Err(error) => {
                shared.metrics.refused_protocol();
                let _ = tx.send(refusal_line(None, "protocol", &error));
            }
        }
    }
    // Dropping `tx` lets the writer finish once in-flight jobs land.
}

/// What [`read_line`] found.
enum LineRead {
    /// `buf` holds one line, its `\n` removed.
    Line,
    /// The line ran past [`MAX_LINE_BYTES`]; it has been consumed
    /// through its newline (or to EOF) and `buf` is meaningless.
    TooLong,
    /// The peer closed its write side with no bytes pending.
    Eof,
}

/// Reads one request line into `buf` (cleared first), reading at most
/// [`MAX_LINE_BYTES`] + 1 bytes before deciding the line is too long. A
/// final line without a newline counts as a line, as with
/// [`BufRead::lines`].
fn read_line<R: BufRead>(reader: &mut R, buf: &mut Vec<u8>) -> io::Result<LineRead> {
    buf.clear();
    let limit = MAX_LINE_BYTES as u64 + 1;
    if reader.by_ref().take(limit).read_until(b'\n', buf)? == 0 {
        return Ok(LineRead::Eof);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
    } else if buf.len() > MAX_LINE_BYTES {
        // Skip the rest of the line, at most one cap's worth at a time.
        while buf.last() != Some(&b'\n') {
            buf.clear();
            if reader.by_ref().take(limit).read_until(b'\n', buf)? == 0 {
                break;
            }
        }
        return Ok(LineRead::TooLong);
    }
    Ok(LineRead::Line)
}

/// A typed refusal line: `{"job": n, "refused": kind, "error": why}`.
fn refusal_line(job: Option<usize>, kind: &str, error: &str) -> String {
    let mut fields = Vec::new();
    if let Some(job) = job {
        fields.push(("job".into(), Json::Number(job as f64)));
    }
    fields.push(("refused".into(), Json::String(kind.into())));
    fields.push(("error".into(), Json::String(error.into())));
    Json::Object(fields).render()
}
