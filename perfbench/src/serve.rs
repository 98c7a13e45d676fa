//! The serve workloads: an in-process `rtlfixer-serve` daemon driven over
//! one TCP connection, first open loop (Poisson arrivals at a fixed rate,
//! for latency), then closed loop (a fixed window of outstanding requests,
//! for capacity). Both phases send a fixed number of requests, cut into
//! segments of equal request counts, so segment `k` of every child covers
//! the same stretch of its request stream.
//!
//! `serve_hot` draws every request from a 16-entry hot set, each with its
//! own seed: compile caches hit and the distilled store saturates early.
//! `serve_fresh` sends a distinct compile-failing candidate per request:
//! caches miss and successful repairs keep writing new briefs.

use std::collections::{HashMap, HashSet};
use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Deserialize;

use rtlfixer_agent::prefixer;
use rtlfixer_dataset::generation::{GenCapability, Generator};
use rtlfixer_eval::runner::cache_report;
use rtlfixer_eval::{episode_seed, RepairJob};
use rtlfixer_rag::text::TfIdfIndex;
use rtlfixer_rag::{tfidf_corpus, DistilledStore, GuidanceDatabase};
use rtlfixer_serve::{Daemon, JobSpec, Request, ServeConfig};

use crate::layers;
use crate::report::{ChildReport, Segment};
use crate::trace;
use crate::CORPUS_SEED;

/// Arrival rate of the open-loop reference phase.
const RATE_PER_S: f64 = 100.0;
/// Requests of the reference phase (1.5 s at [`RATE_PER_S`]) and of the
/// capacity phase; `--quick` sends a fifth of each.
const REFERENCE: usize = 150;
const CAPACITY: usize = 600;
/// Latency segments of the reference phase, and throughput segments of the
/// capacity phase.
const REFERENCE_SEGMENTS: usize = 3;
const CAPACITY_SEGMENTS: usize = 6;
/// Sources of `serve_hot`'s hot set, and fixes a fresh daemon answers one
/// by one during set-up: one per hot source, or as many fresh candidates
/// outside the stream. (A single fix would leave set-up time at the mercy
/// of the daemon's 2 ms accept poll.)
const WARMUP: usize = 16;
/// Outstanding requests in the capacity phase: enough to keep both
/// workers busy, far below the 64-slot admission queue.
const WINDOW: usize = 8;
/// A request with no terminal event by then is reported missing.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(30);
/// Queue-depth sampling period of the traced run.
const DEPTH_POLL: Duration = Duration::from_millis(5);

/// One fix request, rendered for the wire.
struct Outbound {
    problem: String,
    code: String,
    seed: u64,
    line: String,
    /// The daemon's correlation token for the request's result.
    fp: String,
}

fn json_string(text: &str) -> String {
    serde_json::to_string(text).expect("strings always serialise")
}

fn outbound(problem: &str, code: &str, seed: u64) -> Outbound {
    let request = Request {
        op: "fix".to_owned(),
        code: Some(code.to_owned()),
        problem: Some(problem.to_owned()),
        compiler: None,
        strategy: None,
        rag: None,
        capability: None,
        seed: Some(seed),
        tenant: None,
        deadline_ms: None,
    };
    let fp = JobSpec::from_request(&request, None)
        .expect("a fix request with code is valid")
        .fp_hex();
    let line = format!(
        "{{\"op\":\"fix\",\"code\":{},\"problem\":{},\"seed\":{seed}}}\n",
        json_string(code),
        json_string(problem)
    );
    Outbound {
        problem: problem.to_owned(),
        code: code.to_owned(),
        seed,
        line,
        fp,
    }
}

/// The first `count` distinct compile-failing candidates `(problem, code)`
/// of the corpus stream, sampled like the Table 2 flow: generate, pre-fix,
/// keep if the frontend rejects.
fn failing_candidates(count: usize) -> Vec<(String, String)> {
    let mut problems = rtlfixer_dataset::verilog_eval_human();
    problems.extend(rtlfixer_dataset::verilog_eval_machine());
    let mut generator = Generator::new(GenCapability::Gpt35, episode_seed(CORPUS_SEED, 60, 0, 0));
    let mut pick = StdRng::seed_from_u64(episode_seed(CORPUS_SEED, 60, 1, 0));
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(count);
    for _ in 0..count.saturating_mul(100).max(1000) {
        if out.len() == count {
            break;
        }
        let problem = &problems[pick.gen_range(0..problems.len())];
        let code = prefixer::prefix_fix(&generator.sample(problem).code);
        if seen.insert(rtlfixer_verilog::source_fingerprint(&code))
            && !rtlfixer_verilog::compile(&code).is_ok()
        {
            out.push((problem.description.clone(), code));
        }
    }
    assert_eq!(out.len(), count, "candidate generation stalled");
    out
}

/// The first `count` Poisson arrival offsets at `rate` per second.
pub fn poisson_offsets(rate: f64, count: usize, rng: &mut StdRng) -> Vec<Duration> {
    let mut at = 0.0;
    (0..count)
        .map(|_| {
            at += -(1.0 - rng.gen_range(0.0..1.0f64)).ln() / rate;
            Duration::from_secs_f64(at)
        })
        .collect()
}

#[derive(Debug, Clone, Default, PartialEq)]
enum End {
    #[default]
    Pending,
    Result {
        success: bool,
        code: String,
    },
    Rejected,
    Shed,
    Errored,
}

/// One request's life as the client saw it.
#[derive(Debug, Clone, Default)]
struct Record {
    due: Option<Instant>,
    sent: Option<Instant>,
    ack: Option<Instant>,
    done: Option<Instant>,
    end: End,
}

#[derive(Debug, Deserialize)]
struct Event {
    ev: String,
    fp: Option<String>,
    success: Option<bool>,
}

/// The repaired source of a `result` event (a `rejected` event's `code`
/// is its numeric status, so it is read only from results).
#[derive(Debug, Deserialize)]
struct ResultCode {
    code: Option<String>,
}

#[derive(Clone, Copy)]
enum Schedule<'a> {
    /// Send request `i` at `start + offsets[i]`, whatever is outstanding.
    Open(&'a [Duration]),
    /// Keep this many requests outstanding.
    Closed(usize),
}

/// How late a sender ran is measured against this sleep: sleep most of the
/// way, then yield until the due time.
fn sleep_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_micros(200) {
            std::thread::sleep(left - Duration::from_micros(100));
        } else {
            std::thread::yield_now();
        }
    }
}

/// Sends `requests` on one connection under `schedule` (one sender and one
/// receiver thread) and records every request's events. Protocol
/// violations land in `gates`.
fn drive(
    writer: &TcpStream,
    reader: &mut BufReader<TcpStream>,
    requests: &[Outbound],
    schedule: Schedule,
    gates: &mut Vec<String>,
) -> Vec<Record> {
    let n = requests.len();
    let by_fp: HashMap<&str, usize> = requests
        .iter()
        .enumerate()
        .map(|(i, r)| (r.fp.as_str(), i))
        .collect();
    let (credit_tx, credits) = mpsc::channel::<()>();
    if let Schedule::Closed(window) = schedule {
        for _ in 0..window {
            credit_tx.send(()).expect("credit channel open");
        }
    }
    let start = Instant::now();
    let (sent, received) = std::thread::scope(|scope| {
        let sender = scope.spawn(move || {
            let mut out = Vec::with_capacity(n);
            let mut stream = writer;
            for (i, request) in requests.iter().enumerate() {
                let due = match schedule {
                    Schedule::Open(offsets) => {
                        let due = start + offsets[i];
                        sleep_until(due);
                        due
                    }
                    Schedule::Closed(_) => {
                        if credits.recv().is_err() {
                            break;
                        }
                        Instant::now()
                    }
                };
                if stream.write_all(request.line.as_bytes()).is_err() {
                    break;
                }
                out.push((due, Instant::now()));
            }
            out
        });
        let receiver = scope.spawn(move || {
            let mut records = vec![Record::default(); n];
            let mut gates = Vec::new();
            let (mut acked, mut ended) = (0, 0);
            let mut line = String::new();
            while ended < n {
                line.clear();
                match reader.read_line(&mut line) {
                    Ok(0) => {
                        gates.push("the daemon closed the connection".to_owned());
                        break;
                    }
                    Err(err) => {
                        gates.push(format!(
                            "{} request(s) got no terminal event: {err}",
                            n - ended
                        ));
                        break;
                    }
                    Ok(_) => {}
                }
                let now = Instant::now();
                // Trace lines are most of the stream and carry nothing the
                // accounting needs; a shape check keeps the client cheap.
                if line.starts_with("{\"ev\":\"trace\",") {
                    if !line.trim_end().ends_with('}') {
                        gates.push(format!("malformed event line `{}`", line.trim_end()));
                    }
                    continue;
                }
                let Ok(event) = serde_json::from_str::<Event>(line.trim_end()) else {
                    gates.push(format!("malformed event line `{}`", line.trim_end()));
                    continue;
                };
                // Acks and rejects come back in request order on one
                // connection; results, sheds and errors carry the `fp`.
                let (index, end) = match event.ev.as_str() {
                    "accepted" | "rejected" if acked == n => {
                        gates.push("more acknowledgements than requests".to_owned());
                        continue;
                    }
                    "accepted" => {
                        records[acked].ack = Some(now);
                        acked += 1;
                        continue;
                    }
                    "rejected" => {
                        records[acked].ack = Some(now);
                        acked += 1;
                        (acked - 1, End::Rejected)
                    }
                    kind @ ("result" | "shed" | "error") => {
                        let Some(&index) = event.fp.as_deref().and_then(|fp| by_fp.get(fp)) else {
                            gates.push(format!("`{kind}` event for an unknown request"));
                            continue;
                        };
                        let end = match kind {
                            "result" => End::Result {
                                success: event.success.unwrap_or(false),
                                code: serde_json::from_str::<ResultCode>(line.trim_end())
                                    .ok()
                                    .and_then(|r| r.code)
                                    .unwrap_or_default(),
                            },
                            "shed" => End::Shed,
                            _ => End::Errored,
                        };
                        (index, end)
                    }
                    other => {
                        gates.push(format!("unknown event `{other}`"));
                        continue;
                    }
                };
                if records[index].end != End::Pending {
                    gates.push(format!("request {index} ended twice"));
                    continue;
                }
                if end == End::Errored {
                    gates.push(format!("request {index} got an `error` event"));
                }
                records[index].end = end;
                records[index].done = Some(now);
                ended += 1;
                // The sender may have stopped; a closed channel is fine.
                let _ = credit_tx.send(());
            }
            (records, gates)
        });
        let sent = sender.join().expect("sender thread");
        let received = receiver.join().expect("receiver thread");
        (sent, received)
    });
    let (mut records, receiver_gates) = received;
    gates.extend(receiver_gates);
    if sent.len() < n {
        gates.push(format!("only {} of {n} requests could be sent", sent.len()));
    }
    for (record, (due, at)) in records.iter_mut().zip(sent) {
        record.due = Some(due);
        record.sent = Some(at);
    }
    records
}

fn between(from: Option<Instant>, to: Option<Instant>) -> Option<Duration> {
    Some(to?.saturating_duration_since(from?))
}

/// Latency segments of the open-loop phase: consecutive requests in
/// `segments` equal groups, each result timed from its due time.
fn latency_segments(records: &[Record], segments: usize) -> Vec<Segment> {
    records
        .chunks(records.len().div_ceil(segments).max(1))
        .map(|group| Segment {
            items: 0,
            secs: 0.0,
            latencies_us: group
                .iter()
                .filter(|r| matches!(r.end, End::Result { .. }))
                .filter_map(|r| between(r.due, r.done))
                .map(|d| d.as_secs_f64() * 1e6)
                .collect(),
        })
        .collect()
}

/// Throughput segments of the closed-loop phase: its completions in time
/// order, in `segments` equal groups; a segment runs from the previous
/// group's last completion (the first send, for the first group) to its
/// own last completion, and counts its results.
fn throughput_segments(records: &[Record], segments: usize) -> Vec<Segment> {
    let mut ends: Vec<(Instant, bool)> = records
        .iter()
        .filter_map(|r| Some((r.done?, matches!(r.end, End::Result { .. }))))
        .collect();
    ends.sort_by_key(|&(done, _)| done);
    let Some(mut from) = records.iter().filter_map(|r| r.sent).min() else {
        return Vec::new();
    };
    ends.chunks(records.len().div_ceil(segments).max(1))
        .map(|group| {
            let to = group.last().expect("chunks are non-empty").0;
            let secs = to.saturating_duration_since(from).as_secs_f64();
            from = to;
            Segment {
                items: group.iter().filter(|&&(_, result)| result).count() as u64,
                secs,
                latencies_us: Vec::new(),
            }
        })
        .collect()
}

/// Replays the reference stream sequentially, traced, through a store
/// owned by the benchmark, timing each step of the distillation write path.
fn replay_write_path(report: &mut ChildReport, requests: &[Outbound]) {
    let store = Arc::new(DistilledStore::new());
    let base = GuidanceDatabase::quartus_shared();
    let mut revisions = 0;
    for (i, request) in requests.iter().enumerate() {
        let job = RepairJob {
            distilled: Some(&store),
            ..RepairJob::new(&request.problem, &request.code, request.seed)
        };
        let outcome = layers::repair(&job, i as u64, true);
        revisions += outcome.revisions;
        let inserted = {
            let _span = trace::span("rag.merge");
            store.merge(&outcome.distilled)
        };
        if inserted > 0 {
            let db = {
                let _span = trace::span("rag.merged_db");
                store.merged_database(&base)
            };
            {
                let _span = trace::span("rag.db_fingerprint");
                black_box(db.fingerprint());
            }
            let _span = trace::span("rag.index_build");
            black_box(TfIdfIndex::new(&tfidf_corpus(&db)));
        }
    }
    report.scalar("rag.distilled_entries", store.len() as f64);
    let episodes = requests.len().max(1) as f64;
    report.scalar("agent.revisions_per_episode", revisions as f64 / episodes);
}

/// One child's serve run: generate the request pool, start a daemon and
/// warm it with [`WARMUP`] sequential fixes (set-up), run the reference
/// phase, then the capacity phase.
pub fn serve(seed: u64, traced: bool, quick: bool, fresh: bool) -> ChildReport {
    let scale = if quick { 5 } else { 1 };
    let mut report = ChildReport::default();

    let generation = Instant::now();
    let mut rng = StdRng::seed_from_u64(episode_seed(seed, 61, 0, 0));
    let offsets = poisson_offsets(RATE_PER_S, REFERENCE / scale, &mut rng);
    let total = offsets.len() + CAPACITY / scale;
    let stream_seed = |i: usize| episode_seed(seed, 61, i as u64 + 1, 0);
    let warm_seed = |i: usize| episode_seed(seed, 62, i as u64, 0);
    let (warmup, requests): (Vec<Outbound>, Vec<Outbound>) = if fresh {
        let mut pool = failing_candidates(total + WARMUP);
        let warmup = pool.split_off(total);
        let warmup = warmup
            .iter()
            .enumerate()
            .map(|(i, (problem, code))| outbound(problem, code, warm_seed(i)));
        let requests = pool
            .iter()
            .enumerate()
            .map(|(i, (problem, code))| outbound(problem, code, stream_seed(i)));
        (warmup.collect(), requests.collect())
    } else {
        let hot = failing_candidates(WARMUP);
        let requests = (0..total)
            .map(|i| {
                let (problem, code) = &hot[rng.gen_range(0..WARMUP)];
                outbound(problem, code, stream_seed(i))
            })
            .collect();
        let warmup = hot
            .iter()
            .enumerate()
            .map(|(i, (problem, code))| outbound(problem, code, warm_seed(i)));
        (warmup.collect(), requests)
    };
    let (reference, capacity) = requests.split_at(offsets.len());
    report.gen_s = generation.elapsed().as_secs_f64();

    let setup = Instant::now();
    let daemon = Daemon::start(ServeConfig::default()).expect("daemon binds a local port");
    let stream = TcpStream::connect(("127.0.0.1", daemon.port())).expect("connect to the daemon");
    stream.set_nodelay(true).expect("set TCP_NODELAY");
    stream
        .set_read_timeout(Some(RESPONSE_TIMEOUT))
        .expect("set read timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone the connection"));
    let warm = drive(
        &stream,
        &mut reader,
        &warmup,
        Schedule::Closed(1),
        &mut report.gates,
    );
    if !warm.iter().all(|r| matches!(r.end, End::Result { .. })) {
        report
            .gates
            .push("a warm-up request got no result".to_owned());
    }
    report.setup_s = setup.elapsed().as_secs_f64();

    let caches = cache_report();
    let stop = AtomicBool::new(false);
    let (reference_records, depths) = std::thread::scope(|scope| {
        let poller = traced.then(|| {
            scope.spawn(|| {
                let mut depths = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    depths.push(daemon.queue_depth() as f64);
                    std::thread::sleep(DEPTH_POLL);
                }
                depths
            })
        });
        let records = drive(
            &stream,
            &mut reader,
            reference,
            Schedule::Open(&offsets),
            &mut report.gates,
        );
        stop.store(true, Ordering::Relaxed);
        (
            records,
            poller
                .map(|p| p.join().expect("queue-depth poller"))
                .unwrap_or_default(),
        )
    });
    let capacity_records = drive(
        &stream,
        &mut reader,
        capacity,
        Schedule::Closed(WINDOW),
        &mut report.gates,
    );
    if !traced {
        for (name, value) in layers::cache_ratios(&caches, &cache_report()) {
            report.scalar(name, value);
        }
    }
    drop(reader);
    let _ = stream.shutdown(std::net::Shutdown::Both);
    daemon.drain();

    report.segments = latency_segments(&reference_records, REFERENCE_SEGMENTS);
    report
        .segments
        .extend(throughput_segments(&capacity_records, CAPACITY_SEGMENTS));
    let all = || reference_records.iter().chain(&capacity_records);
    report.attempted = all().count() as u64;
    report.failed = all()
        .filter(|r| !matches!(r.end, End::Result { .. }))
        .count() as u64;
    let count = |end: End| all().filter(|r| r.end == end).count() as f64;
    report.scalar("serve.rejected", count(End::Rejected));
    report.scalar("serve.shed", count(End::Shed));
    let results: Vec<(bool, String)> = all()
        .filter_map(|r| match &r.end {
            End::Result { success, code } => Some((*success, code.clone())),
            _ => None,
        })
        .collect();
    let fixed = results.iter().filter(|(success, _)| *success).count();
    report.scalar("agent.fix_rate", fixed as f64 / results.len().max(1) as f64);
    layers::check_claims(&mut report, results);

    if traced {
        for (i, record) in reference_records.iter().enumerate() {
            let req = i as u64;
            if let (Some(due), Some(sent)) = (record.due, record.sent) {
                trace::record("gen.late", req, due, sent);
                if let Some(ack) = record.ack {
                    trace::record("serve.ack", req, sent, ack);
                    if let Some(done) = record.done {
                        trace::record("serve.result", req, ack, done);
                    }
                }
            }
        }
        let mean = depths.iter().sum::<f64>() / depths.len().max(1) as f64;
        report.scalar("serve.queue_depth.mean", mean);
        report.scalar(
            "serve.queue_depth.max",
            depths.iter().copied().fold(0.0, f64::max),
        );
        replay_write_path(&mut report, reference);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_offsets_are_seeded_sorted_and_near_rate() {
        let draw = |seed| poisson_offsets(100.0, 5000, &mut StdRng::seed_from_u64(seed));
        let offsets = draw(3);
        assert_eq!(offsets, draw(3));
        assert_eq!(offsets.len(), 5000);
        assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        // 5000 gaps of mean 10 ms: 50 s, five standard deviations ±3.5 s.
        let last = offsets.last().expect("offsets").as_secs_f64();
        assert!((46.5..=53.5).contains(&last), "{last}");
    }

    #[test]
    fn phases_cut_into_segments_of_equal_request_counts() {
        let t0 = Instant::now();
        let at = |ms: u64| Some(t0 + Duration::from_millis(ms));
        let record = |due, sent, done, end| Record {
            due,
            sent,
            ack: sent,
            done,
            end,
        };
        let result = || End::Result {
            success: true,
            code: String::new(),
        };
        // Open loop: the rejected request has no latency.
        let open = [
            record(at(0), at(1), at(5), result()),
            record(at(10), at(10), at(12), End::Rejected),
            record(at(20), at(21), at(30), result()),
        ];
        let segments = latency_segments(&open, 2);
        assert_eq!(segments.len(), 2);
        assert_eq!(segments[0].latencies_us, [5000.0]);
        assert_eq!(segments[1].latencies_us, [10000.0]);
        assert!(segments.iter().all(|s| s.items == 0));
        // Closed loop: completions in time order, whatever the send order.
        let closed = [
            record(at(0), at(0), at(40), result()),
            record(at(0), at(0), at(10), result()),
            record(at(10), at(10), at(30), End::Shed),
            record(at(30), at(30), at(100), result()),
        ];
        let segments = throughput_segments(&closed, 2);
        let pieces: Vec<(u64, u128)> = segments
            .iter()
            .map(|s| (s.items, (s.secs * 1e3).round() as u128))
            .collect();
        assert_eq!(pieces, [(1, 30), (2, 70)]);
    }

    /// A scripted stand-in for the daemon: reads `expect` request lines,
    /// waits `delay`, then answers with `replies`.
    fn fake_daemon(
        expect: usize,
        delay: Duration,
        replies: Vec<String>,
    ) -> (u16, std::thread::JoinHandle<()>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind a local port");
        let port = listener.local_addr().expect("local address").port();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept the client");
            let mut lines = BufReader::new(stream.try_clone().expect("clone stream")).lines();
            for _ in 0..expect {
                lines
                    .next()
                    .expect("a request line")
                    .expect("readable request");
            }
            std::thread::sleep(delay);
            let mut out = stream;
            for reply in replies {
                writeln!(out, "{reply}").expect("write a reply");
            }
        });
        (port, server)
    }

    fn client(port: u16) -> (TcpStream, BufReader<TcpStream>) {
        let stream = TcpStream::connect(("127.0.0.1", port)).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
        (stream, reader)
    }

    #[test]
    fn every_request_ends_once_and_protocol_faults_are_gated() {
        let requests: Vec<Outbound> = (0..3)
            .map(|i| outbound("p", &format!("module m{i}; endmodule"), i))
            .collect();
        let fp = |i: usize| requests[i].fp.clone();
        let replies = vec![
            format!("{{\"ev\":\"accepted\",\"fp\":\"{}\"}}", fp(0)),
            format!("{{\"ev\":\"result\",\"fp\":\"{}\",\"success\":true,\"code\":\"module m; endmodule\"}}", fp(0)),
            "{\"ev\":\"rejected\",\"code\":429,\"reason\":\"queue-full\",\"detail\":\"full\"}".to_owned(),
            "not json".to_owned(),
            format!("{{\"ev\":\"accepted\",\"fp\":\"{}\"}}", fp(2)),
            format!("{{\"ev\":\"result\",\"fp\":\"{}\",\"success\":true}}", fp(0)),
            format!("{{\"ev\":\"trace\",\"fp\":\"{}\",\"step\":1}}", fp(2)),
            format!("{{\"ev\":\"shed\",\"fp\":\"{}\",\"reason\":\"deadline-exceeded\"}}", fp(2)),
        ];
        let (port, server) = fake_daemon(3, Duration::ZERO, replies);
        let (stream, mut reader) = client(port);
        let mut gates = Vec::new();
        let records = drive(
            &stream,
            &mut reader,
            &requests,
            Schedule::Closed(3),
            &mut gates,
        );
        server.join().expect("fake daemon");
        let ends: Vec<&End> = records.iter().map(|r| &r.end).collect();
        assert_eq!(
            ends,
            [
                &End::Result {
                    success: true,
                    code: "module m; endmodule".to_owned()
                },
                &End::Rejected,
                &End::Shed
            ]
        );
        assert!(records
            .iter()
            .all(|r| r.sent.is_some() && r.ack.is_some() && r.done.is_some()));
        assert_eq!(gates.len(), 2, "{gates:?}");
        assert!(
            gates[0].contains("malformed") && gates[1].contains("request 0 ended twice"),
            "{gates:?}"
        );
    }

    #[test]
    fn open_loop_sends_on_schedule_and_times_from_the_due_time() {
        // The stand-in answers only after every request is in and 300 ms
        // have passed: an open loop still sends each request when due, and
        // the latency it records runs from the due time.
        let requests: Vec<Outbound> = (0..3)
            .map(|i| outbound("p", &format!("module m{i}; endmodule"), i))
            .collect();
        let replies = requests
            .iter()
            .map(|r| {
                format!(
                    "{{\"ev\":\"result\",\"fp\":\"{}\",\"success\":false}}",
                    r.fp
                )
            })
            .collect();
        let (port, server) = fake_daemon(3, Duration::from_millis(300), replies);
        let (stream, mut reader) = client(port);
        let offsets = [
            Duration::ZERO,
            Duration::from_millis(20),
            Duration::from_millis(40),
        ];
        let mut gates = Vec::new();
        let records = drive(
            &stream,
            &mut reader,
            &requests,
            Schedule::Open(&offsets),
            &mut gates,
        );
        server.join().expect("fake daemon");
        assert!(gates.is_empty(), "{gates:?}");
        let due: Vec<Instant> = records.iter().map(|r| r.due.expect("due")).collect();
        assert_eq!(due[1] - due[0], offsets[1]);
        for record in &records {
            let late = between(record.due, record.sent).expect("sent");
            let latency = between(record.due, record.done).expect("done");
            assert!(
                late < Duration::from_millis(150),
                "sender ran {late:?} late"
            );
            assert!(
                latency >= Duration::from_millis(250),
                "latency {latency:?} not from the due time"
            );
        }
    }
}
