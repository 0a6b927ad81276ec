//! The `fleet serve` process and the TCP client that drives it.
//!
//! Each connection is a closed loop with a fixed window: it keeps
//! `window` job lines outstanding and sends the next one when a result
//! line comes back. Every line goes out in one `write` on a socket with
//! the operating system's default options (Nagle on, delayed ACKs), as
//! an ordinary client's would.

use crate::gen::{Line, Stream};
use ptherm_fleet::Json;
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a drained connection waits for its last answers before
/// counting them as never answered.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(30);
/// Read timeout that lets blocking reads notice deadlines.
const POLL: Duration = Duration::from_millis(100);

/// A running `fleet serve --threads 2` child, killed and reaped on drop.
#[derive(Debug)]
pub struct Server {
    child: Child,
    /// The TCP address from the server's `ready` line.
    pub addr: String,
}

impl Server {
    /// Spawns the server on an ephemeral localhost port and waits for
    /// its `ready` line.
    pub fn spawn(bin: &Path) -> io::Result<Server> {
        let mut child = Command::new(bin)
            .args(["serve", "--threads", "2", "--stdin-shutdown"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let mut ready = String::new();
        if let Some(out) = child.stdout.as_mut() {
            // Byte-at-a-time so nothing past the ready line is buffered
            // away; the rest of stdout is the final stats line.
            let mut byte = [0u8; 1];
            while io::Read::read(out, &mut byte)? == 1 && byte[0] != b'\n' {
                ready.push(byte[0] as char);
            }
        }
        let addr = Json::parse(&ready)
            .ok()
            .and_then(|j| j.get("tcp").and_then(Json::as_str).map(str::to_string));
        let mut server = Server {
            child,
            addr: String::new(),
        };
        match addr {
            Some(addr) => {
                server.addr = addr;
                Ok(server)
            }
            None => Err(io::Error::other(format!(
                "no ready line from server: {ready:?}"
            ))),
        }
    }

    /// The server's peak resident set (`VmHWM`), MB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        let kb: f64 = status
            .lines()
            .find(|l| l.starts_with("VmHWM:"))?
            .split_whitespace()
            .nth(1)?
            .parse()
            .ok()?;
        Some(kb / 1024.0)
    }

    /// Graceful drain (stdin close), then reap; kills after a timeout.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        drop(self.child.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(20);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One received line.
#[derive(Debug, Clone)]
pub struct Reply {
    /// The line as received, without its newline.
    pub text: String,
    /// When its last byte arrived.
    pub at: Instant,
}

/// Everything one connection sent and received.
#[derive(Debug, Clone, Default)]
pub struct ConnLog {
    /// Every line sent, in order.
    pub lines: Vec<Line>,
    /// Job `seq` → index into `lines` (the server numbers job lines per
    /// connection, refused ones included).
    pub job_lines: Vec<usize>,
    /// Job `seq` → send time.
    pub sent_at: Vec<Instant>,
    /// Job `seq` → its answer, if one came.
    pub replies: Vec<Option<Reply>>,
    /// Lines that named no job (protocol refusals, stats).
    pub other: Vec<String>,
    /// Jobs `0..setup_jobs` belong to the setup prefix.
    pub setup_jobs: usize,
}

impl ConnLog {
    /// The request text of job `seq`.
    pub fn job_text(&self, seq: usize) -> &str {
        &self.lines[self.job_lines[seq]].text
    }

    fn outstanding(&self) -> usize {
        self.job_lines.len() - self.replies.iter().filter(|r| r.is_some()).count()
    }
}

/// One client connection with its log.
#[derive(Debug)]
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    partial: Vec<u8>,
    /// What was sent and received so far.
    pub log: ConnLog,
}

impl Conn {
    /// Connects to the server.
    pub fn open(addr: &str) -> io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        let reader = writer.try_clone()?;
        reader.set_read_timeout(Some(POLL))?;
        Ok(Conn {
            writer,
            reader: BufReader::new(reader),
            partial: Vec::new(),
            log: ConnLog::default(),
        })
    }

    /// Sends one line in a single write.
    pub fn send(&mut self, line: Line) -> io::Result<()> {
        let mut bytes = Vec::with_capacity(line.text.len() + 1);
        bytes.extend_from_slice(line.text.as_bytes());
        bytes.push(b'\n');
        self.writer.write_all(&bytes)?;
        if line.job {
            self.log.job_lines.push(self.log.lines.len());
            self.log.sent_at.push(Instant::now());
            self.log.replies.push(None);
        }
        self.log.lines.push(line);
        Ok(())
    }

    /// Reads and files one line; `Ok(false)` when the read timed out.
    fn receive(&mut self) -> io::Result<bool> {
        match self.reader.read_until(b'\n', &mut self.partial) {
            Ok(0) => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed",
            )),
            Ok(_) if self.partial.last() == Some(&b'\n') => {
                let at = Instant::now();
                self.partial.pop();
                let text = String::from_utf8_lossy(&self.partial).into_owned();
                self.partial.clear();
                let seq = Json::parse(&text)
                    .ok()
                    .and_then(|j| j.get("job").and_then(Json::as_usize));
                match seq {
                    Some(seq) if seq < self.log.replies.len() => {
                        self.log.replies[seq] = Some(Reply { text, at });
                    }
                    _ => self.log.other.push(text),
                }
                Ok(true)
            }
            Ok(_) => Ok(false),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                Ok(false)
            }
            Err(e) => Err(e),
        }
    }

    /// Sends `lines` with at most `window` jobs outstanding and waits
    /// for every answer.
    pub fn run_setup(&mut self, lines: &[Line], window: usize) -> io::Result<()> {
        let mut pending = lines.iter().cloned();
        let mut next = pending.next();
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        while next.is_some() || self.log.outstanding() > 0 {
            while let Some(line) = next.take() {
                if line.job && self.log.outstanding() >= window {
                    next = Some(line);
                    break;
                }
                self.send(line)?;
                next = pending.next();
            }
            if self.log.outstanding() > 0 && !self.receive()? && Instant::now() > deadline {
                return Err(io::Error::other("setup jobs never answered"));
            }
        }
        self.log.setup_jobs = self.log.job_lines.len();
        Ok(())
    }

    /// The timed closed loop over `stream` until `until`, then a drain
    /// of the outstanding jobs (bounded by [`DRAIN_TIMEOUT`]).
    pub fn run_timed(
        &mut self,
        stream: &mut Stream,
        window: usize,
        until: Instant,
    ) -> io::Result<()> {
        let mut queue: std::collections::VecDeque<Line> = Default::default();
        while Instant::now() < until {
            while self.log.outstanding() < window {
                if queue.is_empty() {
                    queue.extend(stream.next_unit());
                }
                if let Some(line) = queue.pop_front() {
                    self.send(line)?;
                }
            }
            self.receive()?;
        }
        self.drain()
    }

    /// Reads until every sent job is answered or the drain times out.
    pub fn drain(&mut self) -> io::Result<()> {
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        while self.log.outstanding() > 0 && Instant::now() < deadline {
            self.receive()?;
        }
        Ok(())
    }

    /// Sends a `stats` control record and returns the answer.
    pub fn stats(&mut self) -> io::Result<Json> {
        // Not logged as a request line: the batch reference refuses
        // control records.
        self.writer.write_all(b"{\"type\": \"stats\"}\n")?;
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        while Instant::now() < deadline {
            self.receive()?;
            let found = self
                .log
                .other
                .iter()
                .filter_map(|t| Json::parse(t).ok())
                .find(|j| j.get("type").and_then(Json::as_str) == Some("stats"));
            if let Some(stats) = found {
                return Ok(stats);
            }
        }
        Err(io::Error::other("no stats answer"))
    }

    /// The connection's log, consuming the connection.
    pub fn into_log(self) -> ConnLog {
        self.log
    }
}
