//! Load generator for the `rtlfixer-serve` daemon (DESIGN.md §3i): drives
//! an in-process daemon through an overload sweep, a coalescing batch and
//! a chaos pass, and records the latency/throughput/shed curves into
//! `results/bench_eval.json`.
//!
//! Phases:
//!
//! 1. **Overload sweep** — closed-loop clients at concurrency K ∈
//!    {1, 3, 6, 12} against capacity 6 (2 workers + 4 queue slots), so the
//!    top level offers 2× capacity. Per level: offered / accepted /
//!    completed / rejected / shed counts, client-measured p50/p99 latency
//!    and throughput. The binary enforces the overload contract: reject +
//!    shed counts rise monotonically with K, accepted p99 stays within 3×
//!    the uncontended p99, and no request ever sees an `error` event.
//! 2. **Coalesce batch** — K clients submit the identical request
//!    concurrently; every response stream must be byte-identical.
//! 3. **Bad requests** — a garbage line and an over-long line each get a
//!    `bad-request` reject (the over-long line's connection is closed), and
//!    the daemon still serves a fix afterwards.
//! 4. **Connection flood** — `MAX_CONNECTIONS` open connections, then one
//!    more: it gets a `too-many-connections` reject, and service resumes
//!    once a slot frees.
//! 5. **Chaos pass** — `FaultSpec::uniform(0.15)` switched on process-wide
//!    (LLM + compiler + server sites). Served results must equal an
//!    in-process `run_repair` baseline job for job: accepted requests keep
//!    their fix rate, overload machinery only ever sheds explicitly.
//!
//! `--daemon` delegates to [`rtlfixer_serve::daemon_main`] — cargo only
//! exposes `CARGO_BIN_EXE_*` for the package under test, so the bench
//! crate's subprocess tests reach the daemon through this binary.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use serde::Deserialize;

use rtlfixer_bench::{record_run_with, render_table, RunScale};
use rtlfixer_eval::{run_repair, RepairJob};
use rtlfixer_serve::server::{MAX_CONNECTIONS, MAX_LINE_BYTES};
use rtlfixer_serve::{Daemon, ServeConfig};

/// The missing-`clk` archetype: broken as written, fixable by the
/// simulated model, unique per request via the module name.
fn broken_module(name: &str) -> String {
    format!(
        "module {name}(input [7:0] in, output reg [7:0] out);\n\
         always @(posedge clk) out <= in;\nendmodule"
    )
}

#[derive(Debug, Deserialize)]
struct Event {
    ev: String,
    success: Option<bool>,
    reason: Option<String>,
}

/// Reads one event line; `None` once the daemon closed the connection.
fn next_event(reader: &mut BufReader<TcpStream>) -> Option<Event> {
    let mut raw = String::new();
    if reader.read_line(&mut raw).expect("read event") == 0 {
        return None;
    }
    Some(serde_json::from_str(raw.trim_end()).unwrap_or_else(|err| panic!("bad event `{raw}`: {err}")))
}

/// How one request ended, as the client saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Fixed,
    Unfixed,
    Rejected,
    Shed,
    /// Connection dropped mid-stream (injected disconnect).
    Disconnected,
    /// `error` event: an episode escaped containment. Always a bug.
    Errored,
}

struct Client {
    port: u16,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(port: u16) -> Client {
        let stream = TcpStream::connect(("127.0.0.1", port)).expect("connect to daemon");
        stream.set_read_timeout(Some(Duration::from_secs(60))).expect("read timeout");
        let _ = stream.set_nodelay(true);
        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
        Client { port, reader, writer: stream }
    }

    fn reconnect(&mut self) {
        *self = Client::connect(self.port);
    }

    /// Sends raw bytes as they are (no newline added).
    fn send_raw(&mut self, bytes: &[u8]) {
        self.writer.write_all(bytes).and_then(|()| self.writer.flush()).expect("send request bytes");
    }

    /// Whether a `ping` on this connection is answered with `pong`.
    fn pings(&mut self) -> bool {
        writeln!(self.writer, "{{\"op\":\"ping\"}}").is_ok()
            && matches!(next_event(&mut self.reader), Some(event) if event.ev == "pong")
    }

    /// Sends one fix request and reads until a terminal event (or EOF).
    fn fix(&mut self, code: &str, seed: u64, deadline_ms: Option<u64>) -> Outcome {
        let deadline = deadline_ms.map(|d| format!(",\"deadline_ms\":{d}")).unwrap_or_default();
        let line = format!(
            "{{\"op\":\"fix\",\"code\":{},\"seed\":{seed}{deadline}}}",
            rtlfixer_obs::json_string(code)
        );
        if writeln!(self.writer, "{line}").and_then(|()| self.writer.flush()).is_err() {
            self.reconnect();
            writeln!(self.writer, "{line}").expect("send after reconnect");
            self.writer.flush().expect("flush after reconnect");
        }
        loop {
            let mut raw = String::new();
            let n = self.reader.read_line(&mut raw).expect("read response");
            if n == 0 {
                // Mid-stream disconnect: the daemon hung up on purpose.
                self.reconnect();
                return Outcome::Disconnected;
            }
            let event: Event = serde_json::from_str(raw.trim_end())
                .unwrap_or_else(|err| panic!("bad event `{raw}`: {err}"));
            match event.ev.as_str() {
                "accepted" | "trace" => {}
                "result" => {
                    return if event.success == Some(true) {
                        Outcome::Fixed
                    } else {
                        Outcome::Unfixed
                    };
                }
                "rejected" => return Outcome::Rejected,
                "shed" => return Outcome::Shed,
                "error" => return Outcome::Errored,
                other => panic!("unexpected event `{other}`"),
            }
        }
    }
}

#[derive(Debug, Default, Clone)]
struct LevelTally {
    offered: usize,
    fixed: usize,
    unfixed: usize,
    rejected: usize,
    shed: usize,
    disconnected: usize,
    errored: usize,
    /// Client-measured latency of completed (result-bearing) requests, µs.
    latencies_us: Vec<u64>,
}

impl LevelTally {
    fn absorb(&mut self, outcome: Outcome, latency_us: u64) {
        self.offered += 1;
        match outcome {
            Outcome::Fixed => {
                self.fixed += 1;
                self.latencies_us.push(latency_us);
            }
            Outcome::Unfixed => {
                self.unfixed += 1;
                self.latencies_us.push(latency_us);
            }
            Outcome::Rejected => self.rejected += 1,
            Outcome::Shed => self.shed += 1,
            Outcome::Disconnected => self.disconnected += 1,
            Outcome::Errored => self.errored += 1,
        }
    }

    fn merge(&mut self, other: LevelTally) {
        self.offered += other.offered;
        self.fixed += other.fixed;
        self.unfixed += other.unfixed;
        self.rejected += other.rejected;
        self.shed += other.shed;
        self.disconnected += other.disconnected;
        self.errored += other.errored;
        self.latencies_us.extend(other.latencies_us);
    }

    fn completed(&self) -> usize {
        self.fixed + self.unfixed
    }
}

fn percentile_us(latencies: &mut [u64], q: f64) -> u64 {
    if latencies.is_empty() {
        return 0;
    }
    latencies.sort_unstable();
    let rank = ((latencies.len() as f64 - 1.0) * q).round() as usize;
    latencies[rank.min(latencies.len() - 1)]
}

/// Runs one closed-loop level: `concurrency` clients, each submitting
/// `per_client` unique requests back to back.
fn run_level(
    port: u16,
    concurrency: usize,
    per_client: usize,
    seed_base: u64,
    deadline_ms: Option<u64>,
) -> (LevelTally, f64) {
    let start = Instant::now();
    let tallies: Vec<LevelTally> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..concurrency)
            .map(|client_index| {
                scope.spawn(move || {
                    let mut client = Client::connect(port);
                    let mut tally = LevelTally::default();
                    for request in 0..per_client {
                        let seed = seed_base + (client_index * per_client + request) as u64;
                        let code = broken_module(&format!("k{concurrency}c{client_index}r{request}"));
                        let sent = Instant::now();
                        let outcome = client.fix(&code, seed, deadline_ms);
                        tally.absorb(outcome, sent.elapsed().as_micros() as u64);
                    }
                    tally
                })
            })
            .collect();
        handles.into_iter().map(|handle| handle.join().expect("client thread")).collect()
    });
    let seconds = start.elapsed().as_secs_f64();
    let mut level = LevelTally::default();
    for tally in tallies {
        level.merge(tally);
    }
    (level, seconds)
}

/// Queue-wait deadline of the probes' requests (coalescing, bad requests,
/// connection flood). The probes check fan-out identity and that service
/// goes on, not latency, so their deadline sits far above the 5 ms service
/// floor: a probe shed because a loaded host stalled the queue would say
/// nothing about what it probes.
const PROBE_DEADLINE_MS: u64 = 10_000;

/// Coalesce batch: every client submits the identical request; collects
/// each client's full line stream, up to and including its terminal event
/// (`result`, `shed`, `rejected` or `error`), for the byte-identity check.
fn run_coalesce_batch(port: u16, clients: usize) -> Vec<Vec<String>> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(move || {
                    let mut client = Client::connect(port);
                    let code = broken_module("coalesce_probe");
                    let line = format!(
                        "{{\"op\":\"fix\",\"code\":{},\"seed\":424242,\"deadline_ms\":{}}}",
                        rtlfixer_obs::json_string(&code),
                        PROBE_DEADLINE_MS
                    );
                    writeln!(client.writer, "{line}").expect("send");
                    client.writer.flush().expect("flush");
                    let mut lines = Vec::new();
                    loop {
                        let mut raw = String::new();
                        assert!(client.reader.read_line(&mut raw).expect("read") > 0);
                        let event: Event = serde_json::from_str(raw.trim_end())
                            .unwrap_or_else(|err| panic!("bad event `{raw}`: {err}"));
                        lines.push(raw.trim_end().to_owned());
                        if matches!(event.ev.as_str(), "result" | "shed" | "rejected" | "error") {
                            return lines;
                        }
                    }
                })
            })
            .collect();
        handles.into_iter().map(|handle| handle.join().expect("client thread")).collect()
    })
}

/// How the bad-request probe went: the reject reasons for a garbage line
/// and an over-long one, and the outcome of a fix sent afterwards.
struct BadRequests {
    garbage: String,
    oversized: String,
    after: Outcome,
}

/// Bad-request probe: a garbage line is rejected and its connection keeps
/// serving; a line over `MAX_LINE_BYTES` is rejected and its connection
/// closed; a fresh connection is still served.
fn run_bad_requests(port: u16) -> BadRequests {
    let reason = |event: Option<Event>| match event {
        Some(Event { ev, reason: Some(reason), .. }) if ev == "rejected" => reason,
        other => panic!("expected a rejection, got {other:?}"),
    };
    let mut client = Client::connect(port);
    client.send_raw(b"this is not json\n");
    let garbage = reason(next_event(&mut client.reader));
    assert!(client.pings(), "a garbage line must not cost its connection");
    client.send_raw(&vec![b'x'; MAX_LINE_BYTES + 1]);
    let oversized = reason(next_event(&mut client.reader));
    assert!(next_event(&mut client.reader).is_none(), "an over-long line's connection must close");
    let after = Client::connect(port).fix(&broken_module("after_bad_requests"), 7, Some(PROBE_DEADLINE_MS));
    BadRequests { garbage, oversized, after }
}

/// How the connection-flood probe went: the reject reason of the
/// connection past the cap, how long after a slot freed a new connection
/// was served, and the outcome of a fix on it.
struct Flood {
    refused: String,
    resumed: Duration,
    after: Outcome,
}

/// Connection-flood probe: `MAX_CONNECTIONS` connections, each holding its
/// slot (a `pong` proves it), then one more, which must be refused; then
/// one hangs up, and new connections are tried until one is served.
fn run_connection_flood(port: u16) -> Flood {
    let mut open: Vec<Client> = (0..MAX_CONNECTIONS)
        .map(|_| {
            let mut client = Client::connect(port);
            assert!(client.pings(), "a connection under the cap must be served");
            client
        })
        .collect();
    let mut over = Client::connect(port);
    let refused = match next_event(&mut over.reader) {
        Some(Event { ev, reason: Some(reason), .. }) if ev == "rejected" => reason,
        other => panic!("expected the connection past the cap to be refused, got {other:?}"),
    };
    assert!(next_event(&mut over.reader).is_none(), "a refused connection must close");
    let freed = Instant::now();
    drop(open.pop());
    let mut fresh = loop {
        let mut client = Client::connect(port);
        if client.pings() {
            break client;
        }
        assert!(freed.elapsed() < Duration::from_secs(10), "no slot freed after a hang-up");
        std::thread::sleep(Duration::from_millis(1));
    };
    let resumed = freed.elapsed();
    let after = fresh.fix(&broken_module("after_flood"), 8, Some(PROBE_DEADLINE_MS));
    Flood { refused, resumed, after }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--daemon") {
        if let Err(err) = rtlfixer_serve::daemon_main(&args[1..]) {
            eprintln!("servebench --daemon: {err}");
            std::process::exit(2);
        }
        return;
    }
    let scale = RunScale::from_args();
    rtlfixer_faults::set_global_spec(None);
    // The chaos pass checks served outcomes job-for-job against an
    // in-process static-database baseline; a daemon that *learns* across
    // requests legitimately diverges from that baseline, so distillation
    // is pinned off for the comparison (the learning loop has its own
    // experiment: `table_learning`).
    std::env::set_var("RTLFIXER_RAG_DISTILL", "0");

    // Capacity 6: 2 workers + 4 queue slots. The 5 ms service floor stands
    // in for real LLM latency (simulated episodes alone finish in µs, so
    // overload would be unreachable); the 8 ms deadline bounds queue wait,
    // keeping accepted latency within the 3× contract while the excess is
    // shed explicitly.
    let workers = 2usize;
    let queue_limit = 4usize;
    let min_service_ms = 5u64;
    let deadline_ms = 8u64;
    let per_client = if scale.quick { 6 } else { 25 };
    let levels = [1usize, 3, 6, 12];

    eprintln!(
        "servebench: overload sweep K={levels:?} against capacity {} \
         ({workers} workers + {queue_limit} queue, {min_service_ms} ms floor, \
         {deadline_ms} ms deadline, {per_client} requests/client)",
        workers + queue_limit
    );

    let config = || ServeConfig {
        workers,
        queue_limit,
        min_service_us: min_service_ms * 1000,
        default_deadline_ms: Some(deadline_ms),
        ..ServeConfig::default()
    };

    let sweep_start = Instant::now();
    let mut rows = Vec::new();
    let mut level_entries = Vec::new();
    let mut pressure_curve = Vec::new();
    let mut uncontended_p99_us = 0u64;
    let mut overload_p99_us = 0u64;
    let mut total_completed = 0usize;
    let mut total_errors = 0usize;
    for (index, &concurrency) in levels.iter().enumerate() {
        // A fresh daemon per level: every level starts with an empty queue.
        let daemon = Daemon::start(config()).expect("daemon starts");
        let (mut level, seconds) =
            run_level(daemon.port(), concurrency, per_client, (index as u64 + 1) << 32, None);
        daemon.drain();
        let p50 = percentile_us(&mut level.latencies_us, 0.50);
        let p99 = percentile_us(&mut level.latencies_us, 0.99);
        if index == 0 {
            uncontended_p99_us = p99;
        }
        if index == levels.len() - 1 {
            overload_p99_us = p99;
        }
        let pressure = level.rejected + level.shed;
        let throughput = if seconds > 0.0 { level.completed() as f64 / seconds } else { 0.0 };
        rows.push(vec![
            concurrency.to_string(),
            level.offered.to_string(),
            level.completed().to_string(),
            level.rejected.to_string(),
            level.shed.to_string(),
            format!("{:.1}", p50 as f64 / 1000.0),
            format!("{:.1}", p99 as f64 / 1000.0),
            format!("{throughput:.0}"),
        ]);
        level_entries.push(serde_json::json!({
            "concurrency": concurrency,
            "offered": level.offered,
            "completed": level.completed(),
            "rejected": level.rejected,
            "shed": level.shed,
            "disconnected": level.disconnected,
            "errors": level.errored,
            "p50_us": p50,
            "p99_us": p99,
            "throughput_rps": throughput,
        }));
        pressure_curve.push(pressure);
        total_completed += level.completed();
        total_errors += level.errored;
    }
    println!(
        "{}",
        render_table(
            &["K", "offered", "completed", "rejected", "shed", "p50 ms", "p99 ms", "req/s"],
            &rows
        )
    );

    // The overload contract, enforced, not just reported.
    assert!(
        pressure_curve.windows(2).all(|pair| pair[0] <= pair[1]),
        "reject+shed pressure must rise monotonically with offered load: {pressure_curve:?}"
    );
    assert!(
        *pressure_curve.last().expect("levels ran") > 0,
        "2x capacity produced no backpressure — the queue bound is not binding"
    );
    let p99_ratio = overload_p99_us as f64 / uncontended_p99_us.max(1) as f64;
    assert!(
        p99_ratio <= 3.0,
        "accepted p99 under 2x overload is {p99_ratio:.2}x the uncontended p99 (contract: <= 3x)"
    );
    assert_eq!(total_errors, 0, "no episode may escape containment");
    println!(
        "overload: p99 {uncontended_p99_us}us -> {overload_p99_us}us ({p99_ratio:.2}x), \
         pressure curve {pressure_curve:?}"
    );

    // Coalesce batch: identical concurrent requests, byte-identical answers.
    let daemon = Daemon::start(config()).expect("daemon starts");
    let coalesce_clients = 6usize;
    let streams = run_coalesce_batch(daemon.port(), coalesce_clients);
    daemon.drain();
    for stream in &streams {
        let last = stream.last().map_or("", String::as_str);
        assert!(
            last.contains("\"ev\":\"result\""),
            "a coalesce probe request ended without a result: {last}"
        );
    }
    for stream in &streams[1..] {
        assert_eq!(stream, &streams[0], "coalesced responses diverged");
    }
    println!("coalesce: {coalesce_clients} identical requests, byte-identical streams");

    // Edge of the protocol: malformed lines and a connection flood get
    // explicit rejects, and the daemon keeps serving through both.
    let daemon = Daemon::start(config()).expect("daemon starts");
    let bad = run_bad_requests(daemon.port());
    let flood = run_connection_flood(daemon.port());
    daemon.drain();
    let served = |outcome: Outcome| matches!(outcome, Outcome::Fixed | Outcome::Unfixed);
    assert_eq!(
        (bad.garbage.as_str(), bad.oversized.as_str()),
        ("bad-request", "bad-request"),
        "malformed request lines must get bad-request"
    );
    assert!(served(bad.after), "no result after the bad requests: {:?}", bad.after);
    assert_eq!(flood.refused, "too-many-connections", "the connection past the cap");
    assert!(served(flood.after), "no result after the connection flood: {:?}", flood.after);
    let resumed_ms = flood.resumed.as_secs_f64() * 1e3;
    println!(
        "bad requests: garbage and over-long lines rejected as bad-request, still serving; \
         connection flood: connection {} refused ({}), served again {resumed_ms:.1} ms after a slot freed",
        MAX_CONNECTIONS + 1,
        flood.refused
    );

    // Chaos pass: uniform faults across all three sites. Served outcomes
    // must match the in-process baseline job for job — overload machinery
    // may shed or disconnect, but never silently change a result.
    let chaos_requests = if scale.quick { 12 } else { 60 };
    rtlfixer_faults::set_global_spec(Some(rtlfixer_faults::FaultSpec::uniform(0.15)));
    let daemon = Daemon::start(ServeConfig {
        workers,
        queue_limit: 16,
        min_service_us: min_service_ms * 1000,
        ..ServeConfig::default()
    })
    .expect("daemon starts");
    let port = daemon.port();
    let mut chaos = LevelTally::default();
    let mut mismatches = 0usize;
    let mut baseline_fixed = 0usize;
    {
        let mut client = Client::connect(port);
        for request in 0..chaos_requests {
            let seed = 0xC4A0_5000 + request as u64;
            let code = broken_module(&format!("chaos{request}"));
            let sent = Instant::now();
            let outcome = client.fix(&code, seed, None);
            chaos.absorb(outcome, sent.elapsed().as_micros() as u64);
            // The in-process baseline under the same global spec: episodes
            // are seed-deterministic, so a served result must agree.
            let baseline = run_repair(&RepairJob::new("", &code, seed));
            if baseline.success {
                baseline_fixed += 1;
            }
            match outcome {
                Outcome::Fixed if !baseline.success => mismatches += 1,
                Outcome::Unfixed if baseline.success => mismatches += 1,
                _ => {}
            }
        }
    }
    daemon.drain();
    rtlfixer_faults::set_global_spec(None);
    assert_eq!(
        mismatches, 0,
        "served results diverged from the batch baseline under chaos"
    );
    assert_eq!(chaos.errored, 0, "chaos must degrade smoothly, not panic");
    assert!(chaos.completed() > 0, "chaos pass completed no requests");
    let served_fix_rate = chaos.fixed as f64 / chaos.completed().max(1) as f64;
    let baseline_fix_rate = baseline_fixed as f64 / chaos_requests as f64;
    println!(
        "chaos: {}/{} completed (fix rate {served_fix_rate:.3}, baseline {baseline_fix_rate:.3}), \
         {} rejected, {} shed, {} disconnected, 0 mismatches",
        chaos.completed(),
        chaos.offered,
        chaos.rejected,
        chaos.shed,
        chaos.disconnected
    );

    let seconds = sweep_start.elapsed().as_secs_f64();
    let stats = rtlfixer_eval::RunStats {
        episodes: total_completed,
        seconds,
        episodes_per_sec: if seconds > 0.0 { total_completed as f64 / seconds } else { 0.0 },
        failed_episodes: 0,
        scheduler: None,
    };
    record_run_with(
        "servebench",
        scale.jobs,
        &stats,
        &[
            ("overload", serde_json::Value::from_serialize(&level_entries)),
            (
                "contract",
                serde_json::json!({
                    "uncontended_p99_us": uncontended_p99_us,
                    "overload_p99_us": overload_p99_us,
                    "p99_ratio": p99_ratio,
                    "errors": total_errors,
                }),
            ),
            (
                "coalesce",
                serde_json::json!({
                    "clients": coalesce_clients,
                    "byte_identical": true,
                }),
            ),
            (
                "bad_request",
                serde_json::json!({
                    "garbage": bad.garbage,
                    "oversized": bad.oversized,
                    "served_after": served(bad.after),
                }),
            ),
            (
                "connection_flood",
                serde_json::json!({
                    "max_connections": MAX_CONNECTIONS,
                    "refused": flood.refused,
                    "resumed_ms": resumed_ms,
                    "served_after": served(flood.after),
                }),
            ),
            (
                "chaos",
                serde_json::json!({
                    "offered": chaos.offered,
                    "completed": chaos.completed(),
                    "rejected": chaos.rejected,
                    "shed": chaos.shed,
                    "disconnected": chaos.disconnected,
                    "served_fix_rate": served_fix_rate,
                    "baseline_fix_rate": baseline_fix_rate,
                    "mismatches": mismatches,
                }),
            ),
        ],
    );
}
