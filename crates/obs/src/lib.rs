//! # rtlfixer-obs
//!
//! The zero-dependency observability layer under every other crate in the
//! workspace: structured spans, a process-wide metrics registry, and an
//! optional JSONL event sink.
//!
//! The ROADMAP's north star is a production-scale service, and a service is
//! only operable if a run can answer "where did this episode spend its
//! time?" without a debugger. This crate provides that window while keeping
//! the repo's core contract intact: **telemetry is strictly out-of-band**.
//! Experiment results are bit-identical with observability on or off, at
//! any worker count — the invariance suite asserts it.
//!
//! * **Spans** — [`span`] returns a guard that records a wall-clock
//!   duration into the registry (and the JSONL sink) when dropped. The
//!   canonical kinds are [`kind::EPISODE`], [`kind::TURN`],
//!   [`kind::MODEL`], [`kind::COMPILE`], [`kind::RETRIEVE`],
//!   [`kind::SIMULATE`], [`kind::SETUP`], [`kind::RETRY`] and
//!   [`kind::REQUEST`]. Layers on
//!   a *simulated* clock (the resilient transport's backoff) record spans
//!   with [`record_span_simulated`] instead of real sleeping, so timings
//!   stay realistic without slowing evaluation down.
//! * **Registry** — named [counters](counter_add), [gauges](gauge_set) and
//!   fixed-bucket (log₂) [histograms](observe), snapshotted with
//!   [`snapshot`] and summarised with [`Histogram::percentile`]. The
//!   simulator counts `sim.cycles`, `sim.settle_sweeps`,
//!   `sim.tape_fast_hits`, `sim.tape_fast_fallbacks` and
//!   `sim.loop_fast_forwards` (runaway loops the fast tape skipped to the
//!   loop cap once their state repeated).
//! * **JSONL sink** — `RTLFIXER_TRACE=<path>` (mirroring the
//!   `RTLFIXER_CACHE` / `RTLFIXER_FAULTS` env conventions: unset, `0`,
//!   `off`, `false` or `no` disable it) streams one JSON object per line:
//!   span events plus per-episode counter summaries.
//! * **Episode capture** — the evaluation pool wraps each episode in
//!   [`episode_begin`] / [`episode_end`]; everything the episode records
//!   lands in a worker-local [`EpisodeTelemetry`] buffer instead of the
//!   shared registry. The pool [`merge`]s the buffers *at the barrier, in
//!   index order*, so the registry contents (and the JSONL line order) are
//!   independent of worker count and thread scheduling. Merging is
//!   commutative sums, so any merge order yields the same aggregate.
//!
//! When neither the sink nor the telemetry flag is active, every entry
//! point is a single relaxed atomic load and an early return — cheap enough
//! to leave instrumentation in the sim kernel's settle loop.

#![warn(missing_docs)]

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

/// Canonical span kinds. Free-form kinds are allowed; these are the ones
/// the workspace's instrumentation uses (and DESIGN.md §3f documents).
pub mod kind {
    /// One full fixing episode (agent loop entry to exit).
    pub const EPISODE: &str = "episode";
    /// One ReAct revision round (retrieve → propose → recompile).
    pub const TURN: &str = "turn";
    /// One language-model call within a revision round, retries included
    /// (wall time; the simulated backoff is recorded as [`RETRY`]).
    pub const MODEL: &str = "model";
    /// One compiler invocation (cached or not).
    pub const COMPILE: &str = "compile";
    /// One guidance-retrieval call.
    pub const RETRIEVE: &str = "retrieve";
    /// One testbench simulation run.
    pub const SIMULATE: &str = "simulate";
    /// One simulator set-up: a design-cache fill (elaborate, lower, tape
    /// compile). Nested inside the [`SIMULATE`] span that needed the
    /// design.
    pub const SETUP: &str = "setup";
    /// One backoff-and-retry of the resilient LLM transport
    /// (simulated-clock duration).
    pub const RETRY: &str = "retry";
    /// One served request's worker-side handling (shed check, episode,
    /// fan-out) in the `rtlfixer-serve` daemon.
    pub const REQUEST: &str = "request";
}

// ---- global switches ----------------------------------------------------

// Cached "is any observability active" flag: 0 = uninitialised,
// 1 = inactive, 2 = active. Every record entry point loads this once.
static ACTIVE: AtomicU8 = AtomicU8::new(0);

// Telemetry flag (`--telemetry` in the bench binaries): 0 = uninitialised,
// 1 = off, 2 = on. Independent of the trace sink.
static TELEMETRY: AtomicU8 = AtomicU8::new(0);

enum Sink {
    /// `RTLFIXER_TRACE` not yet consulted.
    Uninit,
    Off,
    On(BufWriter<File>),
}

static SINK: Mutex<Sink> = Mutex::new(Sink::Uninit);

fn lock_sink() -> MutexGuard<'static, Sink> {
    SINK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn sink_init(sink: &mut Sink) {
    if let Sink::Uninit = sink {
        *sink = match std::env::var("RTLFIXER_TRACE") {
            Ok(value)
                if !matches!(
                    value.to_ascii_lowercase().as_str(),
                    "" | "0" | "off" | "false" | "no"
                ) =>
            {
                match File::create(&value) {
                    Ok(file) => Sink::On(BufWriter::new(file)),
                    Err(_) => Sink::Off, // unwritable path: tracing is best-effort
                }
            }
            _ => Sink::Off,
        };
    }
}

fn recompute_active() {
    let trace = {
        let mut sink = lock_sink();
        sink_init(&mut sink);
        matches!(*sink, Sink::On(_))
    };
    let active = trace || telemetry_enabled();
    ACTIVE.store(if active { 2 } else { 1 }, Ordering::Relaxed);
}

/// Whether any observability output (trace sink or telemetry flag) is
/// active. The fast path of every recording function; a single relaxed
/// atomic load once initialised.
pub fn enabled() -> bool {
    match ACTIVE.load(Ordering::Relaxed) {
        2 => true,
        1 => false,
        _ => {
            recompute_active();
            ACTIVE.load(Ordering::Relaxed) == 2
        }
    }
}

/// Whether the in-memory telemetry registry was explicitly requested
/// (the bench binaries' `--telemetry` flag).
pub fn telemetry_enabled() -> bool {
    TELEMETRY.load(Ordering::Relaxed) == 2
}

/// Turns the telemetry registry on or off process-wide.
pub fn set_telemetry(on: bool) {
    TELEMETRY.store(if on { 2 } else { 1 }, Ordering::Relaxed);
    recompute_active();
}

/// Whether the JSONL trace sink is open.
pub fn trace_enabled() -> bool {
    enabled(); // force lazy init
    matches!(*lock_sink(), Sink::On(_))
}

/// Overrides the trace sink programmatically (tests, A/B runs): `Some`
/// opens (truncating) the file at `path`, `None` closes the sink. Either
/// way the `RTLFIXER_TRACE` environment variable is no longer consulted.
pub fn set_trace_path(path: Option<&std::path::Path>) {
    {
        let mut sink = lock_sink();
        *sink = match path {
            Some(path) => match File::create(path) {
                Ok(file) => Sink::On(BufWriter::new(file)),
                Err(_) => Sink::Off,
            },
            None => Sink::Off,
        };
    }
    recompute_active();
}

fn emit_to_sink(line: &str) {
    let mut sink = lock_sink();
    sink_init(&mut sink);
    if let Sink::On(writer) = &mut *sink {
        let _ = writeln!(writer, "{line}");
        let _ = writer.flush();
    }
}

// ---- histograms ---------------------------------------------------------

/// Bucket count of [`Histogram`]: bucket 0 holds zeros, bucket `i ≥ 1`
/// holds values in `[2^(i-1), 2^i - 1]`.
pub const HIST_BUCKETS: usize = 65;

/// A fixed-bucket (log₂) histogram over `u64` samples.
///
/// Bucket boundaries are powers of two, so merging is element-wise
/// addition (commutative and associative — the property the pool-barrier
/// merge relies on) and percentile estimates are exact to within one
/// octave.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: Box<[u64; HIST_BUCKETS]>,
    count: u64,
    sum: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { buckets: Box::new([0; HIST_BUCKETS]), count: 0, sum: 0 }
    }
}

fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// The inclusive upper bound of bucket `index` (the value
/// [`Histogram::percentile`] reports).
fn bucket_upper(index: usize) -> u64 {
    if index == 0 {
        0
    } else if index >= 64 {
        u64::MAX
    } else {
        (1u64 << index) - 1
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn observe(&mut self, value: u64) {
        self.buckets[bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Adds every sample of `other` into `self` (element-wise).
    pub fn merge_from(&mut self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean sample value (`0` when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (`q` in `[0, 1]`), reported as the upper bound of
    /// the bucket containing it — a conservative (over-)estimate, exact to
    /// within one power of two. `0` when empty.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for (index, bucket) in self.buckets.iter().enumerate() {
            cumulative += bucket;
            if cumulative >= target {
                return bucket_upper(index);
            }
        }
        bucket_upper(HIST_BUCKETS - 1)
    }

    /// Non-empty `(bucket_upper_bound, count)` pairs, low to high.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, count)| **count > 0)
            .map(|(index, count)| (bucket_upper(index), *count))
            .collect()
    }
}

// ---- registry and episode capture ---------------------------------------

/// One coherent view of metric state: counters, gauges, histograms.
/// Used both as the global registry contents and as a snapshot.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Monotonic named counters.
    pub counters: BTreeMap<String, u64>,
    /// Last-write-wins named gauges.
    pub gauges: BTreeMap<String, i64>,
    /// Named log₂ histograms.
    pub hists: BTreeMap<String, Histogram>,
}

static REGISTRY: Mutex<Option<Snapshot>> = Mutex::new(None);

fn with_registry<R>(f: impl FnOnce(&mut Snapshot) -> R) -> R {
    let mut guard = REGISTRY.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    f(guard.get_or_insert_with(Snapshot::default))
}

/// Worker-local telemetry of one episode: everything the episode recorded,
/// buffered away from the shared registry so the parallel pool can merge
/// per-episode data deterministically at its barrier (see the
/// [module docs](self)).
#[derive(Debug, Clone, Default)]
pub struct EpisodeTelemetry {
    /// Counter increments recorded during the episode.
    pub counters: BTreeMap<String, u64>,
    /// Histogram samples recorded during the episode.
    pub hists: BTreeMap<String, Histogram>,
    /// Pre-rendered JSONL event lines, in episode-local order.
    pub events: Vec<String>,
}

impl EpisodeTelemetry {
    /// Folds `other` into `self`. Counter and histogram merging are
    /// commutative sums; events append in call order.
    pub fn merge_from(&mut self, other: &EpisodeTelemetry) {
        for (name, delta) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += delta;
        }
        for (name, hist) in &other.hists {
            self.hists.entry(name.clone()).or_default().merge_from(hist);
        }
        self.events.extend(other.events.iter().cloned());
    }
}

thread_local! {
    static EPISODE: RefCell<Option<EpisodeTelemetry>> = const { RefCell::new(None) };
}

/// Starts buffering this thread's telemetry into a fresh episode capture.
/// No-op (and [`episode_end`] returns `None`) when observability is off.
pub fn episode_begin() {
    if !enabled() {
        return;
    }
    EPISODE.with(|slot| *slot.borrow_mut() = Some(EpisodeTelemetry::default()));
}

/// Ends the current episode capture and returns its buffer. Always clears
/// the capture, even if the episode body panicked and was contained.
pub fn episode_end() -> Option<EpisodeTelemetry> {
    EPISODE.with(|slot| slot.borrow_mut().take())
}

/// Merges one episode's buffered telemetry into the global registry and
/// flushes its buffered JSONL events to the sink (appending an
/// `{"ev":"episode",...}` summary line). The evaluation pool calls this at
/// its barrier, in episode-index order, so registry contents and trace
/// line order are scheduling-independent.
pub fn merge(telemetry: &EpisodeTelemetry) {
    with_registry(|registry| {
        for (name, delta) in &telemetry.counters {
            *registry.counters.entry(name.clone()).or_insert(0) += delta;
        }
        for (name, hist) in &telemetry.hists {
            registry.hists.entry(name.clone()).or_default().merge_from(hist);
        }
    });
    if trace_enabled() {
        for line in &telemetry.events {
            emit_to_sink(line);
        }
        let mut line = String::from("{\"ev\":\"episode\",\"counters\":{");
        for (index, (name, value)) in telemetry.counters.iter().enumerate() {
            if index > 0 {
                line.push(',');
            }
            let _ = write!(line, "{}:{value}", json_string(name));
        }
        line.push_str("}}");
        emit_to_sink(&line);
    }
}

/// Adds `delta` to the named counter (episode buffer if one is active on
/// this thread, the global registry otherwise).
pub fn counter_add(name: &str, delta: u64) {
    if !enabled() || delta == 0 {
        return;
    }
    let buffered = EPISODE.with(|slot| {
        if let Some(telemetry) = slot.borrow_mut().as_mut() {
            *telemetry.counters.entry(name.to_owned()).or_insert(0) += delta;
            true
        } else {
            false
        }
    });
    if !buffered {
        with_registry(|registry| {
            *registry.counters.entry(name.to_owned()).or_insert(0) += delta;
        });
    }
}

/// Sets the named gauge. Gauges are last-write-wins and therefore *not*
/// episode-buffered (a merge order would change the survivor); they are
/// meant for point-in-time process facts (resident entries, pool width).
pub fn gauge_set(name: &str, value: i64) {
    if !enabled() {
        return;
    }
    with_registry(|registry| {
        registry.gauges.insert(name.to_owned(), value);
    });
}

/// Records one sample into the named histogram (episode-buffered like
/// [`counter_add`]).
pub fn observe(name: &str, value: u64) {
    if !enabled() {
        return;
    }
    let buffered = EPISODE.with(|slot| {
        if let Some(telemetry) = slot.borrow_mut().as_mut() {
            telemetry.hists.entry(name.to_owned()).or_default().observe(value);
            true
        } else {
            false
        }
    });
    if !buffered {
        with_registry(|registry| {
            registry.hists.entry(name.to_owned()).or_default().observe(value);
        });
    }
}

/// A point-in-time copy of the global registry.
pub fn snapshot() -> Snapshot {
    with_registry(|registry| registry.clone())
}

/// Zeroes the global registry (tests, A/B sweeps). The trace sink and
/// switches are untouched.
pub fn reset() {
    with_registry(|registry| *registry = Snapshot::default());
}

// ---- spans ---------------------------------------------------------------

/// A live span guard from [`span`]. Records its wall-clock duration (in
/// microseconds) when dropped: counter `span.<kind>.count`, histogram
/// `span.<kind>.us`, and — with the sink open — a
/// `{"ev":"span","kind":...,"us":...}` JSONL line.
#[must_use = "a span records on drop; binding it to _ drops it immediately"]
pub struct Span {
    kind: &'static str,
    start: Option<Instant>,
}

/// Opens a span of the given kind. A no-op guard when observability is off.
pub fn span(kind: &'static str) -> Span {
    Span { kind, start: enabled().then(Instant::now) }
}

impl Span {
    /// Whether this span is live (observability was on at creation).
    pub fn is_recording(&self) -> bool {
        self.start.is_some()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start.take() {
            let micros = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
            record_span(self.kind, micros, false);
        }
    }
}

/// Records a span whose duration comes from a *simulated* clock (e.g. the
/// resilient transport's backoff, which never really sleeps). Same
/// registry/sink treatment as a real span, with `"sim":true` on the JSONL
/// line.
pub fn record_span_simulated(kind: &str, micros: u64) {
    if !enabled() {
        return;
    }
    record_span(kind, micros, true);
}

fn record_span(kind: &str, micros: u64, simulated: bool) {
    counter_add(&format!("span.{kind}.count"), 1);
    observe(&format!("span.{kind}.us"), micros);
    // Per-span JSONL lines for the coarse kinds only: compile/retrieve
    // fire per turn and episode/turn/simulate/retry carry the shape of the
    // loop; all are low-rate relative to sim cycles.
    let line = format!(
        "{{\"ev\":\"span\",\"kind\":{},\"us\":{micros}{}}}",
        json_string(kind),
        if simulated { ",\"sim\":true" } else { "" }
    );
    emit_event(line);
}

/// Routes a pre-rendered JSONL line: episode buffer if active, else
/// straight to the sink.
fn emit_event(line: String) {
    let buffered = EPISODE.with(|slot| {
        if let Some(telemetry) = slot.borrow_mut().as_mut() {
            telemetry.events.push(line.clone());
            true
        } else {
            false
        }
    });
    if !buffered && trace_enabled() {
        emit_to_sink(&line);
    }
}

/// Writes one caller-supplied event object to the trace sink (or episode
/// buffer). `fields` are raw `key:value` JSON fragments; the `ev` field is
/// prepended. Values must already be valid JSON (use [`json_string`] for
/// strings).
pub fn trace_event(ev: &str, fields: &[(&str, String)]) {
    if !enabled() {
        return;
    }
    let mut line = format!("{{\"ev\":{}", json_string(ev));
    for (key, value) in fields {
        let _ = write!(line, ",{}:{value}", json_string(key));
    }
    line.push('}');
    emit_event(line);
}

/// Renders a string as a quoted, escaped JSON string literal.
pub fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    push_json_string(&mut out, text);
    out
}

/// Appends `text` to `out` as a quoted, escaped JSON string literal.
pub fn push_json_string(out: &mut String, text: &str) {
    out.reserve(text.len() + 2);
    out.push('"');
    push_json_escaped(out, text);
    out.push('"');
}

/// Bytes that cannot stand for themselves inside a JSON string literal:
/// `"`, `\` and the C0 controls. Every other byte is copied, which keeps
/// multi-byte UTF-8 sequences (all of whose bytes are ≥ 0x80) whole.
const NEEDS_ESCAPE: [bool; 256] = {
    let mut table = [false; 256];
    let mut byte = 0;
    while byte < 0x20 {
        table[byte] = true;
        byte += 1;
    }
    table[b'"' as usize] = true;
    table[b'\\' as usize] = true;
    table
};

/// Appends `text` to `out` escaped for the inside of a JSON string literal,
/// without the quotes, so a caller can build one literal from several
/// pieces. Runs of bytes that need no escape are copied whole.
pub fn push_json_escaped(out: &mut String, text: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let bytes = text.as_bytes();
    let mut run = 0;
    for (index, &byte) in bytes.iter().enumerate() {
        if !NEEDS_ESCAPE[byte as usize] {
            continue;
        }
        // `byte` is ASCII, so `index` is a char boundary.
        out.push_str(&text[run..index]);
        match byte {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            control => {
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(control >> 4)]));
                out.push(char::from(HEX[usize::from(control & 0xf)]));
            }
        }
        run = index + 1;
    }
    out.push_str(&text[run..]);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests mutate process-global switches; serialise them.
    fn switch_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn with_telemetry<R>(f: impl FnOnce() -> R) -> R {
        let _guard = switch_lock();
        set_telemetry(true);
        reset();
        let out = f();
        set_telemetry(false);
        reset();
        out
    }

    #[test]
    fn disabled_observability_records_nothing() {
        let _guard = switch_lock();
        set_telemetry(false);
        set_trace_path(None);
        reset();
        counter_add("x", 3);
        observe("h", 10);
        gauge_set("g", 1);
        let _span = span("compile");
        drop(_span);
        assert_eq!(snapshot(), Snapshot::default());
        episode_begin();
        assert!(episode_end().is_none(), "no capture when off");
    }

    #[test]
    fn counters_gauges_histograms_land_in_registry() {
        with_telemetry(|| {
            counter_add("agent.turns", 2);
            counter_add("agent.turns", 3);
            gauge_set("pool.jobs", 4);
            observe("lat", 100);
            observe("lat", 1_000);
            let snap = snapshot();
            assert_eq!(snap.counters.get("agent.turns"), Some(&5));
            assert_eq!(snap.gauges.get("pool.jobs"), Some(&4));
            let hist = snap.hists.get("lat").expect("histogram exists");
            assert_eq!(hist.count(), 2);
            assert_eq!(hist.sum(), 1_100);
        });
    }

    #[test]
    fn span_records_count_and_duration() {
        with_telemetry(|| {
            {
                let _span = span("compile");
                assert!(_span.is_recording());
            }
            record_span_simulated("retry", 250_000);
            let snap = snapshot();
            assert_eq!(snap.counters.get("span.compile.count"), Some(&1));
            assert_eq!(snap.counters.get("span.retry.count"), Some(&1));
            let retry = snap.hists.get("span.retry.us").expect("retry hist");
            assert_eq!(retry.sum(), 250_000);
        });
    }

    #[test]
    fn histogram_buckets_and_percentiles() {
        let mut hist = Histogram::new();
        assert_eq!(hist.percentile(0.5), 0);
        for value in [0u64, 1, 2, 3, 4, 700, 700, 700, 700, 3_000] {
            hist.observe(value);
        }
        assert_eq!(hist.count(), 10);
        // p50 is the 5th-ranked sample (4) → bucket [4, 7].
        assert_eq!(hist.percentile(0.5), 7);
        // p80 falls among the 700s → bucket [512, 1023].
        assert_eq!(hist.percentile(0.8), 1023);
        // p95+ reaches the 3000 sample → bucket [2048, 4095].
        assert_eq!(hist.percentile(0.95), 4095);
        assert_eq!(hist.percentile(0.0), 0);
        assert!(hist.mean() > 0.0);
        let buckets = hist.nonzero_buckets();
        assert!(buckets.iter().any(|(upper, count)| *upper == 1023 && *count == 4));
    }

    #[test]
    fn episode_capture_diverts_from_registry() {
        with_telemetry(|| {
            episode_begin();
            counter_add("c", 7);
            observe("h", 9);
            let telemetry = episode_end().expect("capture active");
            assert_eq!(telemetry.counters.get("c"), Some(&7));
            assert!(snapshot().counters.is_empty(), "registry untouched until merge");
            merge(&telemetry);
            assert_eq!(snapshot().counters.get("c"), Some(&7));
            assert_eq!(snapshot().hists.get("h").map(Histogram::count), Some(1));
        });
    }

    #[test]
    fn merge_is_order_independent() {
        // The pool-barrier contract: whatever order worker-local buffers
        // merge in, the aggregate is identical.
        let make = |seed: u64| {
            let mut t = EpisodeTelemetry::default();
            *t.counters.entry("episodes".into()).or_insert(0) += 1;
            *t.counters.entry(format!("by_seed.{}", seed % 3)).or_insert(0) += seed;
            t.hists.entry("lat".into()).or_default().observe(seed * 17 % 2_000);
            t
        };
        let parts: Vec<EpisodeTelemetry> = (0..24).map(make).collect();
        let merge_all = |order: &[usize]| {
            let mut total = EpisodeTelemetry::default();
            for &index in order {
                total.merge_from(&parts[index]);
            }
            (total.counters, total.hists)
        };
        let forward: Vec<usize> = (0..24).collect();
        let backward: Vec<usize> = (0..24).rev().collect();
        let interleaved: Vec<usize> =
            (0..24).step_by(2).chain((1..24).step_by(2)).collect();
        let reference = merge_all(&forward);
        assert_eq!(merge_all(&backward), reference);
        assert_eq!(merge_all(&interleaved), reference);
    }

    #[test]
    fn trace_sink_writes_parseable_lines() {
        let _guard = switch_lock();
        let path = std::env::temp_dir().join(format!("obs_test_{}.jsonl", std::process::id()));
        set_trace_path(Some(&path));
        reset();
        {
            let _span = span("compile");
        }
        trace_event("custom", &[("answer", "42".to_owned()), ("name", json_string("a\"b"))]);
        episode_begin();
        counter_add("c", 1);
        let telemetry = episode_end().expect("capture");
        merge(&telemetry);
        set_trace_path(None);
        set_telemetry(false);
        reset();
        let text = std::fs::read_to_string(&path).expect("trace file written");
        let _ = std::fs::remove_file(&path);
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.len() >= 3, "span + custom + episode lines: {text}");
        for line in &lines {
            // Minimal shape check without a JSON parser (this crate has no
            // dependencies): balanced braces, quoted ev field first.
            assert!(line.starts_with("{\"ev\":\""), "{line}");
            assert!(line.ends_with('}'), "{line}");
        }
        assert!(text.contains("\"ev\":\"episode\""), "{text}");
        assert!(text.contains("\"answer\":42"), "{text}");
        assert!(text.contains("a\\\"b"), "{text}");
    }

    #[test]
    fn json_string_escapes() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    /// The escaper `push_json_string` replaced, one `char` at a time: the
    /// oracle the run-copying version must match byte for byte.
    fn json_string_reference(text: &str) -> String {
        let mut out = String::with_capacity(text.len() + 2);
        out.push('"');
        for ch in text.chars() {
            match ch {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    /// Every control byte, both escaped printables, DEL, plain ASCII and
    /// one UTF-8 sequence of each length.
    fn awkward_chars() -> Vec<char> {
        let mut chars: Vec<char> = (0u8..0x20).map(char::from).collect();
        chars.extend(['"', '\\', '\u{7f}', ' ', 'a', '/', '\u{e9}', '\u{4e2d}', '\u{1f600}']);
        chars
    }

    #[test]
    fn every_awkward_char_escapes_like_the_reference() {
        for ch in awkward_chars() {
            for text in [ch.to_string(), format!("ab{ch}cd"), format!("{ch}{ch}")] {
                assert_eq!(json_string(&text), json_string_reference(&text), "{text:?}");
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        #[test]
        fn push_json_string_matches_the_reference(seed: u64, len in 0usize..80) {
            let alphabet = awkward_chars();
            let mut state = seed;
            let text: String = (0..len)
                .map(|_| {
                    // splitmix64: a draw per char from the seed.
                    state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                    let mut z = state;
                    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                    alphabet[((z ^ (z >> 31)) % alphabet.len() as u64) as usize]
                })
                .collect();
            let mut out = String::from("prefix:");
            push_json_string(&mut out, &text);
            proptest::prop_assert_eq!(out, format!("prefix:{}", json_string_reference(&text)));
        }
    }
}
