//! The daemon itself: TCP accept loop, one reader thread per connection,
//! the worker pool that executes admitted episodes, and the per-connection
//! outbox every response leaves through.
//!
//! Threading model:
//!
//! * one **accept** thread, blocked in `accept`. It keeps accepting during
//!   drain so late requests get an explicit `draining` reject instead of a
//!   connection refusal; [`Daemon::drain`] wakes it with a connection of
//!   its own once the workers are done;
//! * per connection, a **reader** thread (parses request lines, runs
//!   admission), for at most [`MAX_CONNECTIONS`] connections at once;
//! * `workers` **worker** threads looping
//!   `dequeue → shed-if-expired → execute under catch_unwind → fan out`.
//!
//! Responses are sent by the thread that holds them: the reader appends
//! its acks, rejects and pongs, and a worker appends the response stream
//! it rendered, to the connection's [`Conn`] outbox. Each append is whole
//! lines, and whoever appends sends everything pending with a non-blocking
//! `send(2)`. Only bytes the socket will not take yet go to a **flusher**
//! thread, which lives as long as that backlog; so no worker ever blocks
//! on a slow client, and a connection costs one thread, two while its
//! client lags.
//!
//! A panicking episode is contained by the worker (`catch_unwind` +
//! [`rtlfixer_eval::panic_message`]) and reported to its waiters as an
//! `error` event; the daemon keeps serving.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use rtlfixer_eval::panic_message;
use rtlfixer_faults::{record_recovered, FaultKind, FaultPlan};
use rtlfixer_obs as obs;
use rtlfixer_rag::DistilledStore;

use crate::admission::{Admission, Admit, QueuedJob, QuotaSpec, Waiter};
use crate::protocol::{
    accepted_line, error_line, outcome_stream, rejected_line, shed_line, JobSpec, Request, PONG,
    REJECT_BAD_REQUEST, REJECT_QUEUE_FULL, REJECT_TOO_MANY_CONNECTIONS, SHED_DEADLINE,
    SHUTDOWN_ACK,
};

/// Longest request line the daemon reads, newline excluded. A longer line
/// gets a `bad-request` rejection and its connection is closed, so no
/// client can make a reader buffer more than this.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Most connections served at once. Each costs a reader thread, plus a
/// flusher thread while its client lags behind its responses, so a
/// connection flood costs at most twice this many threads. A connection
/// over the cap gets one `too-many-connections` rejection and is closed; a
/// slot frees when its reader thread ends, which waits for its flusher.
pub const MAX_CONNECTIONS: usize = 256;

/// Most bytes one connection may leave unsent: a few hundred repair
/// streams. A client that stops reading while its requests keep being
/// answered is disconnected when an append would take its backlog past
/// this, so it cannot make the daemon buffer without bound. A single
/// response larger than the cap is still accepted into an empty outbox.
pub const MAX_OUTBOX_BYTES: usize = 4 << 20;

/// Daemon configuration; [`ServeConfig::from_env`] reads the
/// `RTLFIXER_SERVE_*` environment, CLI flags override on top.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Worker threads executing episodes.
    pub workers: usize,
    /// Bounded admission-queue capacity (`RTLFIXER_SERVE_QUEUE`).
    pub queue_limit: usize,
    /// Per-tenant quotas (`RTLFIXER_SERVE_QUOTA`; `None` = unlimited).
    pub quota: Option<QuotaSpec>,
    /// Load-shaping floor added to every episode's service time, in µs.
    /// Simulated episodes finish in microseconds; a floor emulates real
    /// LLM latency, making overload (and the coalescing window)
    /// reachable in tests and benchmarks.
    pub min_service_us: u64,
    /// Deadline applied to requests that name none.
    pub default_deadline_ms: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 2,
            queue_limit: 64,
            quota: None,
            min_service_us: 0,
            default_deadline_ms: None,
        }
    }
}

fn parse_env<T: std::str::FromStr>(name: &str, text: &str) -> Result<T, String> {
    text.trim().parse().map_err(|_| format!("{name}: cannot parse `{text}`"))
}

impl ServeConfig {
    /// Builds a config from the `RTLFIXER_SERVE_*` environment variables
    /// (each falls back to the default when unset).
    pub fn from_env() -> Result<ServeConfig, String> {
        let mut config = ServeConfig::default();
        if let Ok(text) = std::env::var("RTLFIXER_SERVE_QUEUE") {
            config.queue_limit = parse_env("RTLFIXER_SERVE_QUEUE", &text)?;
        }
        if let Ok(text) = std::env::var("RTLFIXER_SERVE_QUOTA") {
            config.quota = QuotaSpec::parse(&text).map_err(|e| format!("RTLFIXER_SERVE_QUOTA: {e}"))?;
        }
        if let Ok(text) = std::env::var("RTLFIXER_SERVE_WORKERS") {
            config.workers = parse_env("RTLFIXER_SERVE_WORKERS", &text)?;
        }
        if let Ok(text) = std::env::var("RTLFIXER_SERVE_MIN_SERVICE_MS") {
            let ms: u64 = parse_env("RTLFIXER_SERVE_MIN_SERVICE_MS", &text)?;
            config.min_service_us = ms
                .checked_mul(1000)
                .ok_or_else(|| format!("RTLFIXER_SERVE_MIN_SERVICE_MS: cannot parse `{text}`"))?;
        }
        if let Ok(text) = std::env::var("RTLFIXER_SERVE_DEADLINE_MS") {
            config.default_deadline_ms = Some(parse_env("RTLFIXER_SERVE_DEADLINE_MS", &text)?);
        }
        Ok(config)
    }
}

/// A running daemon. Dropping it does **not** stop the threads — call
/// [`Daemon::drain`] for an orderly shutdown.
pub struct Daemon {
    /// Where the listener is reached from this host: its bound address,
    /// with a wildcard IP replaced by loopback.
    local: SocketAddr,
    admission: Arc<Admission>,
    distilled: Arc<DistilledStore>,
    workers: Vec<JoinHandle<()>>,
    accept: Option<JoinHandle<()>>,
    stop_accept: Arc<AtomicBool>,
}

impl Daemon {
    /// Binds, spawns the worker pool and the accept loop, and returns.
    pub fn start(config: ServeConfig) -> std::io::Result<Daemon> {
        let listener = TcpListener::bind(&config.addr)?;
        let mut local = listener.local_addr()?;
        match local.ip() {
            IpAddr::V4(ip) if ip.is_unspecified() => local.set_ip(Ipv4Addr::LOCALHOST.into()),
            IpAddr::V6(ip) if ip.is_unspecified() => local.set_ip(Ipv6Addr::LOCALHOST.into()),
            _ => {}
        }
        let admission = Arc::new(Admission::new(config.queue_limit, config.quota.clone()));
        // One distilled store per daemon: every successful repair that took
        // real revisions files a brief, and every later request that hits
        // the same (normalised) error shape retrieves it — the daemon gets
        // better at the traffic it actually serves. `RTLFIXER_RAG_DISTILL=0`
        // turns the loop off (the fixer builder ignores the store).
        let distilled = Arc::new(DistilledStore::new());
        let mut workers = Vec::with_capacity(config.workers.max(1));
        for index in 0..config.workers.max(1) {
            let admission = Arc::clone(&admission);
            let distilled = Arc::clone(&distilled);
            let min_service_us = config.min_service_us;
            workers.push(
                thread::Builder::new()
                    .name(format!("serve-worker-{index}"))
                    .spawn(move || worker_loop(&admission, &distilled, min_service_us))
                    .expect("spawn serve worker"),
            );
        }
        let stop_accept = Arc::new(AtomicBool::new(false));
        let accept = {
            let admission = Arc::clone(&admission);
            let stop = Arc::clone(&stop_accept);
            let default_deadline_ms = config.default_deadline_ms;
            thread::Builder::new()
                .name("serve-accept".to_owned())
                .spawn(move || accept_loop(&listener, &admission, &stop, default_deadline_ms))
                .expect("spawn serve accept loop")
        };
        obs::trace_event(
            "serve-start",
            &[
                ("port", local.port().to_string()),
                ("workers", config.workers.max(1).to_string()),
                ("queue_limit", config.queue_limit.to_string()),
            ],
        );
        Ok(Daemon { local, admission, distilled, workers, accept: Some(accept), stop_accept })
    }

    /// The bound port.
    pub fn port(&self) -> u16 {
        self.local.port()
    }

    /// Repair briefs distilled from served episodes so far.
    pub fn distilled_entries(&self) -> usize {
        self.distilled.len()
    }

    /// Stops admitting new work (idempotent). Workers keep draining the
    /// backlog; the accept loop keeps rejecting with `draining`.
    pub fn begin_drain(&self) {
        self.admission.begin_drain();
    }

    /// Whether draining has started (via [`Daemon::begin_drain`] or a
    /// client `shutdown` op).
    pub fn is_draining(&self) -> bool {
        self.admission.draining()
    }

    /// Jobs waiting in the admission queue.
    pub fn queue_depth(&self) -> usize {
        self.admission.queue_depth()
    }

    /// Graceful shutdown: stop admitting, let the workers finish (or
    /// deadline-shed) every queued job, then stop accepting connections.
    pub fn drain(mut self) {
        self.admission.begin_drain();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        self.stop_accept.store(true, Ordering::SeqCst);
        if let Some(accept) = self.accept.take() {
            // The accept thread is blocked in `accept`: a connection of our
            // own wakes it to see the flag. Should that connection fail, the
            // thread is left blocked rather than joined forever.
            if TcpStream::connect(self.local).is_ok() {
                let _ = accept.join();
            }
        }
        obs::trace_event("serve-drained", &[]);
    }
}

/// One connection's claim on a [`MAX_CONNECTIONS`] slot, released when
/// its reader thread ends (or when the thread fails to spawn).
struct Slot(Arc<AtomicUsize>);

impl Drop for Slot {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

fn accept_loop(
    listener: &TcpListener,
    admission: &Arc<Admission>,
    stop: &AtomicBool,
    default_deadline_ms: Option<u64>,
) {
    // Only this thread takes slots, so checking then taking cannot
    // overshoot the cap. The count guards no other data: relaxed suffices.
    let live = Arc::new(AtomicUsize::new(0));
    loop {
        let accepted = listener.accept();
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let stream = match accepted {
            Ok((stream, _peer)) => stream,
            Err(_) => {
                // Out of descriptors or a connection aborted before it was
                // accepted: back off instead of spinning on the error.
                thread::sleep(Duration::from_millis(2));
                continue;
            }
        };
        if live.load(Ordering::Relaxed) >= MAX_CONNECTIONS {
            refuse_connection(&stream);
            continue;
        }
        live.fetch_add(1, Ordering::Relaxed);
        let slot = Slot(Arc::clone(&live));
        let admission = Arc::clone(admission);
        let _ = thread::Builder::new().name("serve-conn".to_owned()).spawn(move || {
            let _slot = slot;
            handle_connection(stream, &admission, default_deadline_ms);
        });
    }
}

/// Answers a connection over the cap with one `rejected` line and closes
/// it. A fresh socket's send buffer takes one short line, and the send
/// never blocks the accept thread either way.
fn refuse_connection(stream: &TcpStream) {
    obs::counter_add("serve.rejected.connections", 1);
    let detail = format!("{MAX_CONNECTIONS} connections already open");
    let _ = send_nonblocking(stream, rejected_line(REJECT_TOO_MANY_CONNECTIONS, &detail).as_bytes());
    let _ = stream.shutdown(Shutdown::Both);
}

/// `MSG_DONTWAIT | MSG_NOSIGNAL` (Linux values): fail with `EAGAIN`
/// instead of blocking, and report a closed peer as `EPIPE` instead of
/// raising `SIGPIPE`.
const SEND_FLAGS: i32 = 0x40 | 0x4000;

extern "C" {
    // libc is always linked; like `signal` in lib.rs, declaring `send`
    // directly keeps the crate dependency-free.
    fn send(fd: i32, buf: *const u8, len: usize, flags: i32) -> isize;
}

/// One `send(2)` that never blocks: the bytes the socket took, or
/// `WouldBlock` when it took none.
fn send_nonblocking(stream: &TcpStream, bytes: &[u8]) -> io::Result<usize> {
    loop {
        // SAFETY: the descriptor belongs to `stream`, which is borrowed and
        // so stays open for the call, and `bytes` is valid for reads of
        // `bytes.len()` bytes.
        let sent = unsafe { send(stream.as_raw_fd(), bytes.as_ptr(), bytes.len(), SEND_FLAGS) };
        if let Ok(sent) = usize::try_from(sent) {
            return Ok(sent);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// One client connection's send side, shared by its reader thread and by
/// the workers answering its requests ([`Waiter`] holds it). Appends are
/// whole lines and reach the socket in append order.
pub struct Conn {
    stream: TcpStream,
    outbox: Mutex<Outbox>,
    /// Wakes a reader waiting in [`Conn::finish`]: signalled when the
    /// backlog empties, a flusher exits or the connection closes, once the
    /// reader has said it waits.
    settled: Condvar,
}

#[derive(Default)]
struct Outbox {
    /// Appended bytes the socket has not taken yet, in order.
    pending: Vec<u8>,
    /// A flusher thread owns the backlog; appends only queue meanwhile.
    flushing: bool,
    /// Bytes the flusher took out of `pending` and is writing.
    writing: usize,
    /// Responses owed: requests admitted here whose stream is not yet
    /// appended.
    owed: usize,
    /// The reader waits in [`Conn::finish`] for the backlog to settle.
    finishing: bool,
    /// Shut the socket once the backlog is sent (an injected mid-stream
    /// disconnect); nothing more is appended.
    hang_up: bool,
    /// The socket is shut down; appends are dropped.
    closed: bool,
}

impl Conn {
    pub(crate) fn new(stream: TcpStream) -> Conn {
        Conn { stream, outbox: Mutex::new(Outbox::default()), settled: Condvar::new() }
    }

    fn lock(&self) -> MutexGuard<'_, Outbox> {
        // Every update leaves the outbox consistent, so a guard poisoned by
        // a panicking holder is still good to use.
        self.outbox.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Appends one unit of whole lines and sends everything pending that
    /// the socket takes without blocking.
    fn send(self: &Arc<Self>, lines: &str) {
        let mut outbox = self.lock();
        self.append(&mut outbox, lines.as_bytes());
        self.flush_locked(&mut outbox);
    }

    /// Queues an admitted request's ack without sending it, and counts the
    /// response now owed. Admission calls this under its lock, so the ack
    /// precedes any fan-out; the reader sends it with [`Conn::flush`] once
    /// the lock is released.
    pub(crate) fn queue_ack(&self, ack: &str) {
        let mut outbox = self.lock();
        outbox.owed += 1;
        self.append(&mut outbox, ack.as_bytes());
    }

    /// Sends everything pending that the socket takes without blocking.
    fn flush(self: &Arc<Self>) {
        let mut outbox = self.lock();
        self.flush_locked(&mut outbox);
    }

    /// Appends a finished request's response stream and sends it. An
    /// injected mid-stream disconnect appends only the first half of the
    /// lines, then hangs up.
    fn deliver(self: &Arc<Self>, stream: &str, truncate: bool) {
        let mut outbox = self.lock();
        outbox.owed = outbox.owed.saturating_sub(1);
        if truncate {
            self.append(&mut outbox, first_half(stream.as_bytes()));
            outbox.hang_up = true;
        } else {
            self.append(&mut outbox, stream.as_bytes());
        }
        self.flush_locked(&mut outbox);
    }

    fn closed(&self) -> bool {
        self.lock().closed
    }

    /// Adds one unit to the backlog, or disconnects a client whose backlog
    /// it would take past [`MAX_OUTBOX_BYTES`].
    fn append(&self, outbox: &mut Outbox, bytes: &[u8]) {
        if outbox.closed || outbox.hang_up {
            return;
        }
        let unsent = outbox.pending.len() + outbox.writing;
        if unsent > 0 && unsent + bytes.len() > MAX_OUTBOX_BYTES {
            obs::counter_add("serve.disconnected.backlog", 1);
            self.close(outbox);
            return;
        }
        outbox.pending.extend_from_slice(bytes);
    }

    fn flush_locked(self: &Arc<Self>, outbox: &mut Outbox) {
        if outbox.flushing || outbox.closed {
            return;
        }
        while !outbox.pending.is_empty() {
            match send_nonblocking(&self.stream, &outbox.pending) {
                Ok(sent) => {
                    outbox.pending.drain(..sent);
                }
                Err(err) if err.kind() == io::ErrorKind::WouldBlock => {
                    obs::counter_add("serve.flusher.spawned", 1);
                    let conn = Arc::clone(self);
                    let flusher = thread::Builder::new()
                        .name("serve-conn-flush".to_owned())
                        .spawn(move || conn.flush_backlog());
                    match flusher {
                        Ok(_) => outbox.flushing = true,
                        Err(_) => self.close(outbox),
                    }
                    return;
                }
                Err(_) => {
                    self.close(outbox);
                    return;
                }
            }
        }
        self.settle(outbox);
    }

    /// The flusher thread: blocking writes of the backlog, outside the lock,
    /// until it is empty or the connection closes.
    fn flush_backlog(&self) {
        let mut outbox = self.lock();
        while !outbox.closed && !outbox.pending.is_empty() {
            let chunk = std::mem::take(&mut outbox.pending);
            outbox.writing = chunk.len();
            drop(outbox);
            let written = (&self.stream).write_all(&chunk);
            outbox = self.lock();
            outbox.writing = 0;
            if written.is_err() {
                self.close(&mut outbox);
            }
        }
        outbox.flushing = false;
        self.settle(&mut outbox);
    }

    /// The backlog is sent (or the flusher is done): hang up if asked, and
    /// wake a reader waiting to close.
    fn settle(&self, outbox: &mut Outbox) {
        if outbox.hang_up {
            self.close(outbox);
        } else if outbox.finishing {
            self.settled.notify_all();
        }
    }

    fn close(&self, outbox: &mut Outbox) {
        if !outbox.closed {
            outbox.closed = true;
            outbox.pending = Vec::new();
            // Also wakes a flusher blocked in `write` and the reader blocked
            // in `read`.
            let _ = self.stream.shutdown(Shutdown::Both);
        }
        self.settled.notify_all();
    }

    /// The reader is done: waits until the backlog is sent and the flusher
    /// gone (and, after the client's clean end of input, until every
    /// response owed is appended too), then shuts the socket. Waiting for
    /// the flusher keeps a connection's threads inside its slot.
    fn finish(self: &Arc<Self>, await_owed: bool) {
        let mut outbox = self.lock();
        outbox.finishing = true;
        self.flush_locked(&mut outbox);
        while outbox.flushing
            || (!outbox.closed && (!outbox.pending.is_empty() || (await_owed && outbox.owed > 0)))
        {
            outbox = self.settled.wait(outbox).unwrap_or_else(|poisoned| poisoned.into_inner());
        }
        self.close(&mut outbox);
    }
}

/// The first half of a response stream's lines (at least one), for the
/// injected mid-stream disconnect.
fn first_half(stream: &[u8]) -> &[u8] {
    let mut ends = stream.iter().enumerate().filter(|&(_, &byte)| byte == b'\n');
    let keep = (ends.clone().count() / 2).max(1);
    ends.nth(keep - 1).map_or(stream, |(index, _)| &stream[..=index])
}

fn handle_connection(stream: TcpStream, admission: &Admission, default_deadline_ms: Option<u64>) {
    // Nagle off: response events are small writes and latency is the
    // product.
    let _ = stream.set_nodelay(true);
    let conn = Arc::new(Conn::new(stream));
    let mut reader = BufReader::new(&conn.stream);
    let mut buf = Vec::new();
    let clean_eof = loop {
        buf.clear();
        // One byte past the cap tells an over-long line from a full one.
        let limit = MAX_LINE_BYTES as u64 + 1;
        match (&mut reader).take(limit).read_until(b'\n', &mut buf) {
            Ok(0) => break true,
            Err(_) => break false,
            Ok(_) => {}
        }
        if buf.len() > MAX_LINE_BYTES && buf.last() != Some(&b'\n') {
            obs::counter_add("serve.rejected.bad_request", 1);
            let detail = format!("request line longer than {MAX_LINE_BYTES} bytes");
            conn.send(&rejected_line(REJECT_BAD_REQUEST, &detail));
            break false;
        }
        // A hung-up connection (injected disconnect, backlog over the cap)
        // stops reading: requests left in the buffer would go unanswered.
        if conn.closed() {
            break false;
        }
        let Ok(line) = std::str::from_utf8(&buf) else { break false };
        let line = line.trim_end_matches(['\n', '\r']);
        if line.trim().is_empty() {
            continue;
        }
        dispatch_line(line, admission, default_deadline_ms, &conn);
    };
    conn.finish(clean_eof);
}

/// Parses and dispatches one request line; every answer goes to `conn`.
fn dispatch_line(
    line: &str,
    admission: &Admission,
    default_deadline_ms: Option<u64>,
    conn: &Arc<Conn>,
) {
    let request: Request = match serde_json::from_str(line) {
        Ok(request) => request,
        Err(err) => {
            obs::counter_add("serve.rejected.bad_request", 1);
            let detail = format!("unparseable request: {err}");
            return conn.send(&rejected_line(REJECT_BAD_REQUEST, &detail));
        }
    };
    match request.op.as_str() {
        "ping" => conn.send(PONG),
        "shutdown" => {
            obs::counter_add("serve.shutdown_requests", 1);
            admission.begin_drain();
            conn.send(SHUTDOWN_ACK);
        }
        "fix" => {
            let spec = match JobSpec::from_request(&request, default_deadline_ms) {
                Ok(spec) => spec,
                Err(bad) => {
                    obs::counter_add("serve.rejected.bad_request", 1);
                    return conn.send(&rejected_line(REJECT_BAD_REQUEST, &bad.0));
                }
            };
            let fp = spec.fp_hex();
            let mut truncate = false;
            match FaultPlan::server(spec.seed).draw() {
                Some(FaultKind::SlowLorisRequest) => {
                    // A dribbling client stalls only its own reader thread;
                    // the pause proves the daemon keeps serving around it.
                    thread::sleep(Duration::from_millis(2));
                    record_recovered(FaultKind::SlowLorisRequest);
                }
                Some(FaultKind::QueueFullStorm) => {
                    // Synthetic admission pressure: the client sees the
                    // same explicit 429 a genuinely full queue produces.
                    record_recovered(FaultKind::QueueFullStorm);
                    obs::counter_add("serve.rejected.queue_full", 1);
                    return conn
                        .send(&rejected_line(REJECT_QUEUE_FULL, "queue-full storm (injected)"));
                }
                Some(FaultKind::MidStreamDisconnect) => {
                    // The connection will hang up partway through the
                    // response.
                    truncate = true;
                    record_recovered(FaultKind::MidStreamDisconnect);
                }
                _ => {}
            }
            let tenant = request.tenant.clone().unwrap_or_else(|| "anon".to_owned());
            let ack = accepted_line(&fp);
            let job = QueuedJob { fp, spec, tenant, admitted: Instant::now() };
            let waiter = Waiter { conn: Arc::clone(conn), truncate };
            // `admit` queues the ack under the admission lock, so it always
            // precedes the episode's fan-out; it is sent here, after the
            // lock is released.
            match admission.admit(job, waiter, &ack) {
                Admit::Queued | Admit::Coalesced => conn.flush(),
                Admit::Rejected { reason, detail } => conn.send(&rejected_line(reason, &detail)),
            }
        }
        other => {
            obs::counter_add("serve.rejected.bad_request", 1);
            conn.send(&rejected_line(REJECT_BAD_REQUEST, &format!("unknown op `{other}`")));
        }
    }
}

/// Appends one finished request's response to every waiter's connection:
/// coalesced waiters all send the same bytes.
fn fan_out(waiters: Vec<Waiter>, stream: &str) {
    for waiter in waiters {
        waiter.conn.deliver(stream, waiter.truncate);
    }
}

fn worker_loop(admission: &Admission, distilled: &Arc<DistilledStore>, min_service_us: u64) {
    while let Some(job) = admission.dequeue_blocking() {
        let _request_span = obs::span(obs::kind::REQUEST);
        // Wall-clock deadline: work whose deadline expired while queued is
        // shed, not executed — under overload the daemon spends cycles
        // only on requests that can still be answered in time.
        if let Some(deadline_ms) = job.spec.deadline_ms {
            if job.admitted.elapsed() >= Duration::from_millis(deadline_ms) {
                obs::counter_add("serve.shed", 1);
                fan_out(admission.complete(&job.fp), &shed_line(&job.fp, SHED_DEADLINE));
                continue;
            }
        }
        obs::episode_begin();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut repair = job.spec.as_repair_job();
            repair.distilled = Some(distilled);
            rtlfixer_eval::run_repair(&repair)
        }));
        if let Some(telemetry) = obs::episode_end() {
            obs::merge(&telemetry);
        }
        if min_service_us > 0 {
            thread::sleep(Duration::from_micros(min_service_us));
        }
        let stream = match outcome {
            Ok(outcome) => {
                obs::counter_add("serve.completed", 1);
                if outcome.success {
                    obs::counter_add("serve.fixed", 1);
                }
                // A serve worker's episode completion IS its pool barrier:
                // the episode ran on a build-time snapshot, so merging here
                // never races a running fixer.
                if distilled.merge(&outcome.distilled) > 0 {
                    obs::gauge_set("serve.distilled.entries", distilled.len() as i64);
                }
                outcome_stream(&job.fp, &outcome)
            }
            Err(payload) => {
                obs::counter_add("serve.episode_panics", 1);
                error_line(&job.fp, &panic_message(payload))
            }
        };
        fan_out(admission.complete(&job.fp), &stream);
        let latency_us = job.admitted.elapsed().as_micros() as u64;
        obs::observe("serve.latency_us", latency_us);
        obs::gauge_set("serve.queue_depth", admission.queue_depth() as i64);
    }
}
