//! The daemon itself: TCP accept loop, per-connection reader/writer
//! threads, and the worker pool that executes admitted episodes.
//!
//! Threading model:
//!
//! * one **accept** thread (non-blocking listener, polled every 2 ms) that
//!   keeps accepting during drain so late requests get an explicit
//!   `draining` reject instead of a connection refusal;
//! * per connection, a **reader** thread (parses request lines, runs
//!   admission) and a **writer** thread (owns the socket's write half,
//!   fed over a channel — workers fan results out by sending into it),
//!   for at most [`MAX_CONNECTIONS`] connections at once;
//! * `workers` **worker** threads looping
//!   `dequeue → shed-if-expired → execute under catch_unwind → fan out`.
//!
//! A panicking episode is contained by the worker (`catch_unwind` +
//! [`rtlfixer_eval::panic_message`]) and reported to its waiters as an
//! `error` event; the daemon keeps serving.

use std::io::Write;
use std::io::{BufRead, BufReader, Read};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use rtlfixer_eval::panic_message;
use rtlfixer_faults::{record_recovered, FaultKind, FaultPlan};
use rtlfixer_obs as obs;
use rtlfixer_rag::DistilledStore;

use crate::admission::{Admission, Admit, QueuedJob, QuotaSpec, Waiter};
use crate::protocol::{
    accepted_line, error_line, outcome_lines, pong_line, rejected_line, shed_line,
    shutdown_ack_line, JobSpec, Request, REJECT_BAD_REQUEST, REJECT_QUEUE_FULL,
    REJECT_TOO_MANY_CONNECTIONS, SHED_DEADLINE,
};

/// Longest request line the daemon reads, newline excluded. A longer line
/// gets a `bad-request` rejection and its connection is closed, so no
/// client can make a reader buffer more than this.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Most connections served at once; each costs a reader and a writer
/// thread. A connection over the cap gets one `too-many-connections`
/// rejection and is closed; a slot frees when its reader thread ends.
pub const MAX_CONNECTIONS: usize = 256;

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

/// What a connection's writer thread is asked to deliver.
pub enum Delivery {
    /// Connection-private lines (accept/reject/pong).
    Own(Vec<String>),
    /// A finished episode's response stream, shared across coalesced
    /// waiters — the same bytes for everyone.
    Shared(Arc<Vec<String>>),
    /// Injected mid-stream disconnect: deliver a prefix, then hang up.
    Truncated(Arc<Vec<String>>),
    /// The reader is gone; stop writing.
    Close,
}

/// A running daemon. Dropping it does **not** stop the threads — call
/// [`Daemon::drain`] for an orderly shutdown.
pub struct Daemon {
    port: u16,
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
        listener.set_nonblocking(true)?;
        let port = listener.local_addr()?.port();
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
                ("port", port.to_string()),
                ("workers", config.workers.max(1).to_string()),
                ("queue_limit", config.queue_limit.to_string()),
            ],
        );
        Ok(Daemon { port, admission, distilled, workers, accept: Some(accept), stop_accept })
    }

    /// The bound port.
    pub fn port(&self) -> u16 {
        self.port
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
        self.stop_accept.store(true, Ordering::Relaxed);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
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
    while !stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if live.load(Ordering::Relaxed) >= MAX_CONNECTIONS {
                    refuse_connection(stream);
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
            Err(_would_block_or_transient) => thread::sleep(Duration::from_millis(2)),
        }
    }
}

/// Answers a connection over the cap with one `rejected` line and closes
/// it. The accept thread writes it: a fresh socket's send buffer takes
/// one short line without blocking.
fn refuse_connection(mut stream: TcpStream) {
    obs::counter_add("serve.rejected.connections", 1);
    let detail = format!("{MAX_CONNECTIONS} connections already open");
    let _ = write_lines(&mut stream, &[rejected_line(REJECT_TOO_MANY_CONNECTIONS, &detail)]);
    let _ = stream.shutdown(Shutdown::Both);
}

fn handle_connection(
    stream: TcpStream,
    admission: &Admission,
    default_deadline_ms: Option<u64>,
) {
    // Accepted sockets must block: the reader parks in `read_until`.
    // Nagle off: response events are small writes and latency is the
    // product.
    if stream.set_nonblocking(false).is_err() {
        return;
    }
    let _ = stream.set_nodelay(true);
    let Ok(write_half) = stream.try_clone() else { return };
    let (tx, rx) = channel::<Delivery>();
    let Ok(writer) = thread::Builder::new()
        .name("serve-conn-writer".to_owned())
        .spawn(move || writer_loop(write_half, &rx))
    else {
        return;
    };
    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();
    loop {
        buf.clear();
        // One byte past the cap tells an over-long line from a full one.
        let limit = MAX_LINE_BYTES as u64 + 1;
        match (&mut reader).take(limit).read_until(b'\n', &mut buf) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        if buf.len() > MAX_LINE_BYTES && buf.last() != Some(&b'\n') {
            obs::counter_add("serve.rejected.bad_request", 1);
            let detail = format!("request line longer than {MAX_LINE_BYTES} bytes");
            let _ = tx.send(Delivery::Own(vec![rejected_line(REJECT_BAD_REQUEST, &detail)]));
            break;
        }
        let Ok(line) = std::str::from_utf8(&buf) else { break };
        let line = line.trim_end_matches(['\n', '\r']);
        if line.trim().is_empty() {
            continue;
        }
        if dispatch_line(line, admission, default_deadline_ms, &tx).is_err() {
            break;
        }
    }
    let _ = tx.send(Delivery::Close);
    let _ = writer.join();
}

/// Parses and dispatches one request line. `Err(())` means the writer is
/// gone and the connection should wind down.
fn dispatch_line(
    line: &str,
    admission: &Admission,
    default_deadline_ms: Option<u64>,
    tx: &Sender<Delivery>,
) -> Result<(), ()> {
    let send = |lines: Vec<String>| tx.send(Delivery::Own(lines)).map_err(|_| ());
    let request: Request = match serde_json::from_str(line) {
        Ok(request) => request,
        Err(err) => {
            obs::counter_add("serve.rejected.bad_request", 1);
            return send(vec![rejected_line(REJECT_BAD_REQUEST, &format!("unparseable request: {err}"))]);
        }
    };
    match request.op.as_str() {
        "ping" => send(vec![pong_line()]),
        "shutdown" => {
            obs::counter_add("serve.shutdown_requests", 1);
            admission.begin_drain();
            send(vec![shutdown_ack_line()])
        }
        "fix" => {
            let spec = match JobSpec::from_request(&request, default_deadline_ms) {
                Ok(spec) => spec,
                Err(bad) => {
                    obs::counter_add("serve.rejected.bad_request", 1);
                    return send(vec![rejected_line(REJECT_BAD_REQUEST, &bad.0)]);
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
                    return send(vec![rejected_line(
                        REJECT_QUEUE_FULL,
                        "queue-full storm (injected)",
                    )]);
                }
                Some(FaultKind::MidStreamDisconnect) => {
                    // The writer will hang up partway through the response.
                    truncate = true;
                    record_recovered(FaultKind::MidStreamDisconnect);
                }
                _ => {}
            }
            let tenant = request.tenant.clone().unwrap_or_else(|| "anon".to_owned());
            let job = QueuedJob { fp: fp.clone(), spec, tenant, admitted: Instant::now() };
            let waiter = Waiter { sender: tx.clone(), truncate };
            // The ack is emitted by `admit` under the admission lock so it
            // always precedes the episode's fan-out on this channel.
            match admission.admit(job, waiter, accepted_line(&fp)) {
                Admit::Queued | Admit::Coalesced => Ok(()),
                Admit::Rejected { reason, detail } => send(vec![rejected_line(reason, &detail)]),
            }
        }
        other => {
            obs::counter_add("serve.rejected.bad_request", 1);
            send(vec![rejected_line(REJECT_BAD_REQUEST, &format!("unknown op `{other}`"))])
        }
    }
}

fn write_lines(stream: &mut TcpStream, lines: &[String]) -> std::io::Result<()> {
    let mut buffer = String::new();
    for line in lines {
        buffer.push_str(line);
        buffer.push('\n');
    }
    stream.write_all(buffer.as_bytes())?;
    stream.flush()
}

fn writer_loop(mut stream: TcpStream, rx: &Receiver<Delivery>) {
    while let Ok(delivery) = rx.recv() {
        let ok = match delivery {
            Delivery::Own(lines) => write_lines(&mut stream, &lines).is_ok(),
            Delivery::Shared(lines) => write_lines(&mut stream, &lines).is_ok(),
            Delivery::Truncated(lines) => {
                let keep = (lines.len() / 2).max(1);
                let _ = write_lines(&mut stream, &lines[..keep]);
                false
            }
            Delivery::Close => false,
        };
        if !ok {
            break;
        }
    }
    let _ = stream.shutdown(Shutdown::Both);
}

fn fan_out(waiters: Vec<Waiter>, lines: &Arc<Vec<String>>) {
    for waiter in waiters {
        let delivery = if waiter.truncate {
            Delivery::Truncated(Arc::clone(lines))
        } else {
            Delivery::Shared(Arc::clone(lines))
        };
        // A send failure means the client already hung up.
        let _ = waiter.sender.send(delivery);
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
                let lines = Arc::new(vec![shed_line(&job.fp, SHED_DEADLINE)]);
                fan_out(admission.complete(&job.fp), &lines);
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
        let lines = match outcome {
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
                outcome_lines(&job.fp, &outcome)
            }
            Err(payload) => {
                obs::counter_add("serve.episode_panics", 1);
                vec![error_line(&job.fp, &panic_message(payload))]
            }
        };
        let lines = Arc::new(lines);
        fan_out(admission.complete(&job.fp), &lines);
        let latency_us = job.admitted.elapsed().as_micros() as u64;
        obs::observe("serve.latency_us", latency_us);
        obs::gauge_set("serve.queue_depth", admission.queue_depth() as i64);
    }
}
