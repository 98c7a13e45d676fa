//! End-to-end daemon tests over real TCP connections.
//!
//! The daemon records into process-global observability and fault state,
//! so every test serializes on one lock and resets that state up front.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use serde::Deserialize;

use rtlfixer_serve::server::{MAX_CONNECTIONS, MAX_LINE_BYTES, MAX_OUTBOX_BYTES};
use rtlfixer_serve::{Daemon, ServeConfig};

/// The missing-`clk` archetype the episode-path tests use: broken as
/// written, fixable by the simulated GPT-3.5-class model.
const BROKEN: &str = "module m(input [7:0] in, output reg [7:0] out);\n\
                      always @(posedge clk) out <= in;\nendmodule";

static LOCK: Mutex<()> = Mutex::new(());

fn setup() -> MutexGuard<'static, ()> {
    let guard = LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    rtlfixer_faults::set_global_spec(None);
    rtlfixer_obs::set_trace_path(None);
    rtlfixer_obs::set_telemetry(true);
    guard
}

/// The superset of response-event fields the assertions look at; unknown
/// fields on a line are ignored.
#[derive(Debug, Deserialize)]
struct Event {
    ev: String,
    fp: Option<String>,
    reason: Option<String>,
    detail: Option<String>,
    success: Option<bool>,
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(port: u16) -> Client {
        let stream = TcpStream::connect(("127.0.0.1", port)).expect("connect to daemon");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("set read timeout");
        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
        Client { reader, writer: stream }
    }

    fn send(&mut self, line: &str) {
        writeln!(self.writer, "{line}").expect("send request line");
        self.writer.flush().expect("flush request line");
    }

    /// Reads the next event line (raw bytes + parsed form).
    fn recv(&mut self) -> (String, Event) {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("read response line");
        assert!(n > 0, "connection closed while awaiting an event");
        let line = line.trim_end().to_owned();
        let event: Event = serde_json::from_str(&line)
            .unwrap_or_else(|err| panic!("unparseable event `{line}`: {err}"));
        (line, event)
    }
}

fn fix_line(code: &str, extra: &str) -> String {
    format!("{{\"op\":\"fix\",\"code\":{}{extra}}}", rtlfixer_obs::json_string(code))
}

fn counter(name: &str) -> u64 {
    rtlfixer_obs::snapshot().counters.get(name).copied().unwrap_or(0)
}

fn config(workers: usize, queue_limit: usize, min_service_ms: u64) -> ServeConfig {
    ServeConfig {
        workers,
        queue_limit,
        min_service_us: min_service_ms * 1000,
        ..ServeConfig::default()
    }
}

#[test]
fn fix_round_trip_streams_trace_then_result() {
    let _guard = setup();
    let daemon = Daemon::start(config(2, 16, 0)).expect("daemon starts");
    let mut client = Client::connect(daemon.port());
    client.send("{\"op\":\"ping\"}");
    assert_eq!(client.recv().1.ev, "pong");
    client.send(&fix_line(BROKEN, ",\"problem\":\"register the input\",\"seed\":3"));
    let mut saw_accepted = false;
    let mut trace_steps = 0usize;
    let fp = loop {
        let (_, event) = client.recv();
        match event.ev.as_str() {
            "accepted" => saw_accepted = true,
            "trace" => trace_steps += 1,
            "result" => {
                assert_eq!(event.success, Some(true), "archetype must fix");
                break event.fp.expect("result carries the fingerprint");
            }
            other => panic!("unexpected event `{other}`"),
        }
    };
    assert!(saw_accepted, "accepted precedes the stream");
    assert!(trace_steps > 0, "the ReAct trace is streamed step by step");
    assert_eq!(fp.len(), 32);
    daemon.drain();
}

/// A successful repair that took real revisions leaves a distilled brief
/// behind, shared across all of the daemon's later requests.
#[test]
fn served_repairs_grow_the_distilled_store() {
    let _guard = setup();
    let daemon = Daemon::start(config(2, 16, 0)).expect("daemon starts");
    assert_eq!(daemon.distilled_entries(), 0);
    let mut client = Client::connect(daemon.port());
    client.send(&fix_line(BROKEN, ",\"problem\":\"register the input\",\"seed\":3"));
    loop {
        let (_, event) = client.recv();
        if event.ev == "result" {
            assert_eq!(event.success, Some(true), "archetype must fix");
            break;
        }
    }
    // The worker merges before fanning the result out, so by the time the
    // client sees `result` the store is populated.
    assert_eq!(daemon.distilled_entries(), 1);
    daemon.drain();
}

/// Satellite: N concurrent identical requests coalesce onto one episode —
/// every client gets a byte-identical response stream, and the telemetry
/// trace shows exactly one episode span.
#[test]
fn concurrent_identical_requests_coalesce_to_one_episode() {
    let _guard = setup();
    let trace_path = std::env::temp_dir().join(format!("serve-coalesce-{}.jsonl", std::process::id()));
    rtlfixer_obs::set_trace_path(Some(&trace_path));
    // One worker and a 500 ms service floor: the first request holds the
    // in-flight slot long enough that every duplicate joins it.
    let daemon = Daemon::start(config(1, 16, 500)).expect("daemon starts");
    let port = daemon.port();
    let clients = 4;
    let streams: Vec<Vec<String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(move || {
                    let mut client = Client::connect(port);
                    client.send(&fix_line(BROKEN, ",\"problem\":\"register the input\""));
                    let mut lines = Vec::new();
                    loop {
                        let (line, event) = client.recv();
                        let done = event.ev == "result";
                        lines.push(line);
                        if done {
                            break;
                        }
                    }
                    lines
                })
            })
            .collect();
        handles.into_iter().map(|handle| handle.join().expect("client thread")).collect()
    });
    daemon.drain();
    for stream in &streams[1..] {
        assert_eq!(stream, &streams[0], "coalesced responses must be byte-identical");
    }
    assert!(streams[0].len() >= 2, "stream has trace steps and a result");
    let trace = std::fs::read_to_string(&trace_path).expect("trace file");
    rtlfixer_obs::set_trace_path(None);
    let _ = std::fs::remove_file(&trace_path);
    let episode_spans = trace
        .lines()
        .filter(|line| line.contains("\"ev\":\"span\"") && line.contains("\"kind\":\"episode\""))
        .count();
    assert_eq!(episode_spans, 1, "one episode executed for {clients} requests");
}

/// Tenant names arrive verbatim in request lines, so none may become a
/// telemetry key: with telemetry on, 64 tenants add no key naming them.
#[test]
fn tenant_names_never_become_telemetry_keys() {
    let _guard = setup();
    let daemon = Daemon::start(config(2, 128, 0)).expect("daemon starts");
    let mut client = Client::connect(daemon.port());
    let tenants = 64;
    for index in 0..tenants {
        client.send(&fix_line(BROKEN, &format!(",\"tenant\":\"flood-{index}\",\"seed\":{index}")));
    }
    let mut results = 0;
    while results < tenants {
        let (_, event) = client.recv();
        match event.ev.as_str() {
            "accepted" | "trace" => {}
            "result" => results += 1,
            other => panic!("unexpected event `{other}`"),
        }
    }
    daemon.drain();
    let snapshot = rtlfixer_obs::snapshot();
    assert!(snapshot.hists.contains_key("serve.latency_us"), "telemetry recorded latency");
    let leaked: Vec<&String> = snapshot
        .counters
        .keys()
        .chain(snapshot.gauges.keys())
        .chain(snapshot.hists.keys())
        .filter(|key| key.contains("flood-"))
        .collect();
    assert!(leaked.is_empty(), "tenant names leaked into telemetry keys: {leaked:?}");
}

#[test]
fn full_queue_rejects_with_429_and_serves_the_rest() {
    let _guard = setup();
    let daemon = Daemon::start(config(1, 1, 300)).expect("daemon starts");
    let mut client = Client::connect(daemon.port());
    let requests = 4;
    for index in 0..requests {
        // Unique sources: no coalescing, every request wants the queue.
        let code = BROKEN.replace("module m(", &format!("module m{index}("));
        client.send(&fix_line(&code, ""));
    }
    let (mut accepted, mut rejected, mut results) = (0usize, 0usize, 0usize);
    while accepted + rejected < requests || results < accepted {
        let (_, event) = client.recv();
        match event.ev.as_str() {
            "accepted" => accepted += 1,
            "rejected" => {
                assert_eq!(event.reason.as_deref(), Some("queue-full"), "{event:?}");
                rejected += 1;
            }
            "trace" => {}
            "result" => {
                assert_eq!(event.success, Some(true));
                results += 1;
            }
            other => panic!("unexpected event `{other}`"),
        }
    }
    assert!(rejected >= 1, "a 1-deep queue under 4 instant requests must reject");
    assert_eq!(accepted + rejected, requests);
    daemon.drain();
}

#[test]
fn exhausted_token_bucket_rejects_with_quota_reason() {
    let _guard = setup();
    let mut config = config(1, 16, 0);
    // Burst of 1 and no refill: the second request must be over quota.
    config.quota = rtlfixer_serve::QuotaSpec::parse("default=0/1").expect("quota parses");
    let daemon = Daemon::start(config).expect("daemon starts");
    let mut client = Client::connect(daemon.port());
    client.send(&fix_line(BROKEN, ""));
    let other = BROKEN.replace("module m(", "module quota_probe(");
    client.send(&fix_line(&other, ""));
    let (mut accepted, mut quota_rejects) = (0usize, 0usize);
    while accepted + quota_rejects < 2 {
        let (_, event) = client.recv();
        match event.ev.as_str() {
            "accepted" => accepted += 1,
            "rejected" => {
                assert_eq!(event.reason.as_deref(), Some("quota-exceeded"), "{event:?}");
                quota_rejects += 1;
            }
            "trace" | "result" => {}
            other => panic!("unexpected event `{other}`"),
        }
    }
    assert_eq!((accepted, quota_rejects), (1, 1));
    daemon.drain();
}

#[test]
fn deadline_expired_in_queue_is_shed_not_executed() {
    let _guard = setup();
    let daemon = Daemon::start(config(1, 16, 300)).expect("daemon starts");
    let mut client = Client::connect(daemon.port());
    // The first request occupies the single worker for ≥300 ms; the
    // second's 50 ms deadline lapses while it waits.
    client.send(&fix_line(BROKEN, ""));
    let hopeless = BROKEN.replace("module m(", "module hopeless(");
    client.send(&fix_line(&hopeless, ",\"deadline_ms\":50"));
    let (mut results, mut sheds) = (0usize, 0usize);
    while results + sheds < 2 {
        let (_, event) = client.recv();
        match event.ev.as_str() {
            "accepted" | "trace" => {}
            "result" => results += 1,
            "shed" => {
                assert_eq!(event.reason.as_deref(), Some("deadline-exceeded"), "{event:?}");
                sheds += 1;
            }
            other => panic!("unexpected event `{other}`"),
        }
    }
    assert_eq!((results, sheds), (1, 1));
    daemon.drain();
}

#[test]
fn shutdown_op_drains_gracefully() {
    let _guard = setup();
    let daemon = Daemon::start(config(1, 16, 300)).expect("daemon starts");
    let mut client = Client::connect(daemon.port());
    client.send(&fix_line(BROKEN, ""));
    client.send("{\"op\":\"shutdown\"}");
    let late = BROKEN.replace("module m(", "module late(");
    client.send(&fix_line(&late, ""));
    let (mut acked, mut drain_rejects, mut results) = (false, 0usize, 0usize);
    while !acked || drain_rejects < 1 || results < 1 {
        let (_, event) = client.recv();
        match event.ev.as_str() {
            "accepted" | "trace" => {}
            "shutdown-ack" => acked = true,
            "rejected" => {
                assert_eq!(event.reason.as_deref(), Some("draining"), "{event:?}");
                drain_rejects += 1;
            }
            "result" => {
                // The in-flight episode completes even though the daemon
                // stopped admitting: graceful, not abrupt.
                assert_eq!(event.success, Some(true));
                results += 1;
            }
            other => panic!("unexpected event `{other}`"),
        }
    }
    assert!(daemon.is_draining());
    daemon.drain();
}

#[test]
fn malformed_lines_get_bad_request_not_a_hangup() {
    let _guard = setup();
    let daemon = Daemon::start(config(1, 16, 0)).expect("daemon starts");
    let mut client = Client::connect(daemon.port());
    client.send("this is not json");
    let (_, event) = client.recv();
    assert_eq!(event.ev, "rejected");
    assert_eq!(event.reason.as_deref(), Some("bad-request"));
    client.send("{\"op\":\"fix\"}");
    let (_, event) = client.recv();
    assert_eq!(event.reason.as_deref(), Some("bad-request"));
    assert!(event.detail.expect("detail names the field").contains("code"));
    // The connection survives both rejects.
    client.send("{\"op\":\"ping\"}");
    assert_eq!(client.recv().1.ev, "pong");
    daemon.drain();
}

#[test]
fn over_long_line_gets_bad_request_and_its_connection_closes() {
    let _guard = setup();
    let daemon = Daemon::start(config(1, 16, 0)).expect("daemon starts");
    let mut client = Client::connect(daemon.port());
    // One byte past the cap and no newline: a reader without a cap would
    // keep buffering, waiting for a line end that never comes.
    let flood = vec![b'x'; MAX_LINE_BYTES + 1];
    client.writer.write_all(&flood).expect("send over-long line");
    client.writer.flush().expect("flush over-long line");
    let (_, event) = client.recv();
    assert_eq!(event.ev, "rejected");
    assert_eq!(event.reason.as_deref(), Some("bad-request"));
    assert!(event.detail.expect("detail names the cap").contains("longer than"));
    let mut rest = String::new();
    let n = client.reader.read_line(&mut rest).expect("read after reject");
    assert_eq!(n, 0, "the connection must close after the reject, got `{rest}`");
    // The daemon itself keeps serving fresh connections.
    let mut fresh = Client::connect(daemon.port());
    fresh.send("{\"op\":\"ping\"}");
    assert_eq!(fresh.recv().1.ev, "pong");
    daemon.drain();
}

#[test]
fn connections_over_the_cap_are_refused_until_a_slot_frees() {
    let _guard = setup();
    let refused = || rtlfixer_obs::snapshot().counters.get("serve.rejected.connections").copied();
    let refused_before = refused().unwrap_or(0);
    let daemon = Daemon::start(config(1, 16, 0)).expect("daemon starts");
    // A pong on each shows the daemon holds a slot for it.
    let mut open: Vec<Client> = (0..MAX_CONNECTIONS)
        .map(|_| {
            let mut client = Client::connect(daemon.port());
            client.send("{\"op\":\"ping\"}");
            assert_eq!(client.recv().1.ev, "pong");
            client
        })
        .collect();
    let mut over = Client::connect(daemon.port());
    let (_, event) = over.recv();
    assert_eq!(event.ev, "rejected");
    assert_eq!(event.reason.as_deref(), Some("too-many-connections"));
    let mut rest = String::new();
    let n = over.reader.read_line(&mut rest).expect("read after reject");
    assert_eq!(n, 0, "the refused connection must close, got `{rest}`");
    assert_eq!(refused(), Some(refused_before + 1));
    // The open connections are still served.
    let last = open.last_mut().expect("open connections");
    last.send("{\"op\":\"ping\"}");
    assert_eq!(last.recv().1.ev, "pong");
    // Hanging up one frees its slot once its reader sees the hang-up.
    drop(open.pop());
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let mut fresh = Client::connect(daemon.port());
        let _ = writeln!(fresh.writer, "{{\"op\":\"ping\"}}");
        let mut line = String::new();
        if fresh.reader.read_line(&mut line).is_ok() && line.contains("\"pong\"") {
            break;
        }
        assert!(Instant::now() < deadline, "no slot freed after a hang-up: `{line}`");
        std::thread::sleep(Duration::from_millis(5));
    }
    drop(open);
    daemon.drain();
}

/// `printf … | nc -N`: a client that half-closes after its requests still
/// gets every response it is owed, and then the daemon closes the
/// connection. The 100 ms service floor puts the end of input well before
/// either result.
#[test]
fn half_closed_client_receives_every_owed_response_then_eof() {
    let _guard = setup();
    let daemon = Daemon::start(config(1, 16, 100)).expect("daemon starts");
    let mut client = Client::connect(daemon.port());
    client.send(&fix_line(BROKEN, ",\"seed\":3"));
    let other = BROKEN.replace("module m(", "module half_closed(");
    client.send(&fix_line(&other, ",\"seed\":4"));
    client.writer.shutdown(Shutdown::Write).expect("half-close the request side");
    let mut events = Vec::new();
    loop {
        let mut line = String::new();
        if client.reader.read_line(&mut line).expect("read until the daemon closes") == 0 {
            break;
        }
        let event: Event = serde_json::from_str(line.trim_end())
            .unwrap_or_else(|err| panic!("unparseable event `{line}`: {err}"));
        events.push(event.ev);
    }
    let count = |ev: &str| events.iter().filter(|e| *e == ev).count();
    assert_eq!((count("accepted"), count("result")), (2, 2), "{events:?}");
    assert_eq!(events.last().map(String::as_str), Some("result"), "{events:?}");
    assert!(count("trace") > 0, "{events:?}");
    daemon.drain();
}

/// A client that pauses reading while its responses pile up past the
/// socket buffers gets the rest from a flusher thread, every line whole
/// and in order, once it reads again. About 6 MB of responses outgrow the
/// kernel's buffers (at most ~4 MB on loopback while nobody reads). The
/// 1 ms service floor holds the answers to ~12 MB/s, so the outbox stays
/// far below its cap in the moments before reading resumes.
#[test]
fn lagging_reader_gets_every_line_through_a_flusher() {
    let _guard = setup();
    let flushers = counter("serve.flusher.spawned");
    let daemon = Daemon::start(config(2, 1024, 1)).expect("daemon starts");
    let mut client = Client::connect(daemon.port());
    let requests = 1000;
    for seed in 0..requests {
        client.send(&fix_line(BROKEN, &format!(",\"seed\":{seed}")));
    }
    let deadline = Instant::now() + Duration::from_secs(60);
    while counter("serve.flusher.spawned") == flushers {
        assert!(Instant::now() < deadline, "the backlog never outgrew the socket");
        std::thread::sleep(Duration::from_millis(10));
    }
    let (mut accepted, mut results) = (0, 0);
    while results < requests {
        let (_, event) = client.recv();
        match event.ev.as_str() {
            "accepted" => accepted += 1,
            "trace" => {}
            "result" => results += 1,
            other => panic!("unexpected event `{other}`"),
        }
    }
    assert_eq!(accepted, requests);
    daemon.drain();
}

/// A client that keeps sending but never reads is disconnected once its
/// unsent responses would pass `MAX_OUTBOX_BYTES`, instead of growing the
/// daemon without bound; other clients are still served.
#[test]
fn non_reading_client_is_disconnected_and_others_are_served() {
    let _guard = setup();
    let disconnects = counter("serve.disconnected.backlog");
    let daemon = Daemon::start(config(2, 4096, 0)).expect("daemon starts");
    let flood = TcpStream::connect(("127.0.0.1", daemon.port())).expect("connect to daemon");
    let sender = {
        let mut flood = flood.try_clone().expect("clone stream");
        std::thread::spawn(move || {
            // Several times the cap in responses; the first failed write
            // means the daemon hung up.
            for seed in 0..20_000 {
                if writeln!(flood, "{}", fix_line(BROKEN, &format!(",\"seed\":{seed}"))).is_err() {
                    break;
                }
            }
        })
    };
    let deadline = Instant::now() + Duration::from_secs(60);
    while counter("serve.disconnected.backlog") == disconnects {
        assert!(
            Instant::now() < deadline,
            "a client that never reads was not disconnected ({MAX_OUTBOX_BYTES}-byte cap)"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    // The flood's connection ends: what it can still read runs out.
    flood.set_read_timeout(Some(Duration::from_secs(30))).expect("set read timeout");
    let mut sink = Vec::new();
    let drained = (&flood).read_to_end(&mut sink);
    assert!(
        drained.is_ok() || drained.as_ref().is_err_and(|e| e.kind() == std::io::ErrorKind::ConnectionReset),
        "the flood connection did not end: {drained:?}"
    );
    sender.join().expect("flood sender");
    let mut other = Client::connect(daemon.port());
    other.send(&fix_line(BROKEN, ",\"seed\":99999"));
    loop {
        let (_, event) = other.recv();
        if event.ev == "result" {
            assert_eq!(event.success, Some(true));
            break;
        }
    }
    daemon.drain();
}
