//! `perfbench`: end-to-end and per-layer performance of the RTLFixer repair
//! pipeline and its serve daemon, on four workloads.
//!
//! ```text
//! perfbench --workload W [--seed N] [--seconds S] [--trace 0|1] [--quick] [--spans PATH]
//! ```
//!
//! Each measurement runs in a fresh child process (this executable with
//! `--child`), so process-wide caches start cold as in a user's run and
//! peak memory is per child. Children run one after another, child `k`
//! on inputs made from `(--seed, k)`, while another child fits in
//! `--seconds` (at least three; `--quick` runs just three, on tiny inputs).
//! Every child cuts its work into the same aligned segments. End-to-end
//! metrics come from the untraced children: throughput and latency from
//! the less-disturbed half of each segment's copies, set-up time and
//! memory as medians. With `--trace 1`
//! every child runs twice, plain and traced, and the traced twins give the
//! per-layer metrics; `--spans PATH` also writes the first traced child's
//! spans as JSON lines. See README.md for every name.
//!
//! The last line of stdout is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.

mod batch;
mod layers;
mod report;
mod serve;
mod stats;
mod trace;

use std::io::Read;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use rtlfixer_eval::episode_seed;

use crate::report::{ChildReport, Segment};

/// Generation seed of every input corpus: the Table 1 dataset, the Table 2
/// candidate pool and the serve request pools (7 is the Table 1 default).
/// Corpus cost is dominated by a few heavy items — a few dozen of the
/// Table 2 pool's candidates take 70% of its simulation time, and per-seed
/// datasets differ up to 2× in build time and memory — so the corpora
/// stay fixed, like a benchmark suite, and `--seed` drives everything
/// stochastic on top: episode seeds, request seeds and choices, arrivals.
pub const CORPUS_SEED: u64 = 7;

/// Untraced children per run at least, so set-up time has a median.
const MIN_CHILDREN: usize = 3;
const MAX_CHILDREN: usize = 64;
/// Every child must have ended this long after the run started.
const RUN_LIMIT: Duration = Duration::from_secs(170);
/// Distinct candidate sources a traced child compiles for `compilers.compile`.
const COMPILE_PROBES: usize = 1000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    RepairGrid,
    PasskSim,
    ServeHot,
    ServeFresh,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::RepairGrid,
        Workload::PasskSim,
        Workload::ServeHot,
        Workload::ServeFresh,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::RepairGrid => "repair_grid",
            Workload::PasskSim => "passk_sim",
            Workload::ServeHot => "serve_hot",
            Workload::ServeFresh => "serve_fresh",
        }
    }

    fn run(self, seed: u64, traced: bool, quick: bool) -> ChildReport {
        match self {
            Workload::RepairGrid => batch::repair_grid(seed, traced, quick),
            Workload::PasskSim => batch::passk_sim(seed, traced, quick),
            Workload::ServeHot => serve::serve(seed, traced, quick, false),
            Workload::ServeFresh => serve::serve(seed, traced, quick, true),
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    spans: Option<String>,
    child: bool,
}

const USAGE: &str = "usage: perfbench --workload repair_grid|passk_sim|serve_hot|serve_fresh \
                     [--seed N] [--seconds S] [--trace 0|1] [--quick] [--spans PATH]";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut parsed = Args {
        workload: Workload::RepairGrid,
        seed: 1,
        seconds: 20.0,
        trace: false,
        quick: false,
        spans: None,
        child: false,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == name)
                        .ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => parsed.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(0.0..=120.0).contains(&parsed.seconds) {
                    return Err("--seconds must be within 0..=120".to_owned());
                }
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                }
            }
            "--spans" => parsed.spans = Some(value()?.clone()),
            "--quick" => parsed.quick = true,
            "--child" => parsed.child = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    parsed.workload = workload.ok_or("--workload is required")?;
    Ok(parsed)
}

/// The commit the checkout is at, read from `.git` without running git.
fn git_sha() -> String {
    let read = |path: &str| std::fs::read_to_string(format!(".git/{path}")).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    let sha = match head.strip_prefix("ref: ") {
        None => Some(head.to_owned()),
        Some(name) => read(name).map(|s| s.trim().to_owned()).or_else(|| {
            read("packed-refs")?.lines().find_map(|line| {
                let (sha, reference) = line.split_once(' ')?;
                (reference == name).then(|| sha.to_owned())
            })
        }),
    };
    sha.unwrap_or_else(|| "unknown".to_owned())
}

/// UTC wall-clock time as `YYYY-MM-DDTHH:MM:SSZ`.
fn utc_now() -> String {
    let secs = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    civil(secs)
}

fn civil(secs: u64) -> String {
    let (days, rem) = ((secs / 86_400) as i64, secs % 86_400);
    // Civil date from days since 1970-01-01 (H. Hinnant's algorithm).
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!(
        "{year:04}-{month:02}-{day:02}T{:02}:{:02}:{:02}Z",
        rem / 3600,
        rem / 60 % 60,
        rem % 60
    )
}

fn provenance(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"sha\":\"{}\",\"nproc\":{nproc},\"profile\":\"{profile}\",\"workload\":\"{}\",\"seed\":{},\
         \"seconds\":{},\"trace\":{},\"quick\":{},\"date\":\"{}\"}}",
        git_sha(),
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.quick,
        utc_now()
    )
}

/// Runs one workload segment in this process; what the child reports.
fn measure(args: &Args) -> ChildReport {
    trace::start_clock();
    let mut report = args.workload.run(args.seed, args.trace, args.quick);
    if args.trace {
        for (name, value) in layers::probe_scalars(COMPILE_PROBES) {
            report.scalar(name, value);
        }
        let spans = trace::drain();
        if let Some(path) = &args.spans {
            if let Err(err) = trace::write_jsonl(path, &provenance(args), &spans) {
                report
                    .gates
                    .push(format!("cannot write spans to {path}: {err}"));
            }
        }
        report.layers = trace::layers(&spans)
            .into_iter()
            .map(|(name, l)| (name.to_owned(), l))
            .collect();
    }
    match report::peak_rss_kb() {
        Ok(kb) => report.rss_kb = kb,
        Err(err) => report.gates.push(err),
    }
    report
}

/// Spawns one child and waits for it, killing it at the run's deadline.
fn run_child(
    args: &Args,
    seed: u64,
    traced: bool,
    spans: Option<&str>,
    deadline: Instant,
) -> Result<ChildReport, String> {
    let exe =
        std::env::current_exe().map_err(|err| format!("cannot find own executable: {err}"))?;
    let mut command = Command::new(exe);
    command.args([
        "--child",
        "--workload",
        args.workload.name(),
        "--seed",
        &seed.to_string(),
    ]);
    command.args(["--trace", if traced { "1" } else { "0" }]);
    if args.quick {
        command.arg("--quick");
    }
    if let Some(path) = spans {
        command.args(["--spans", path]);
    }
    let mut process = command
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|err| format!("cannot start a child: {err}"))?;
    let mut stdout = process.stdout.take().expect("child stdout is piped");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        stdout.read_to_string(&mut text).map(|_| text)
    });
    let status = loop {
        match process.try_wait() {
            Ok(Some(status)) => break Ok(status),
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(10)),
            Ok(None) => {
                let _ = process.kill();
                let _ = process.wait();
                break Err("a child ran past the run's time limit and was killed".to_owned());
            }
            Err(err) => break Err(format!("cannot wait for a child: {err}")),
        }
    };
    let text = reader.join().expect("child stdout reader");
    let status = status?;
    if !status.success() {
        return Err(format!("a child failed ({status})"));
    }
    ChildReport::parse(&text.map_err(|err| format!("cannot read a child's report: {err}"))?)
}

/// One reported metric.
struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
    /// How the value was formed, for the human-readable report.
    note: String,
}

fn metric(
    name: impl Into<String>,
    unit: &'static str,
    value: f64,
    note: impl Into<String>,
) -> Metric {
    let value = if value.is_finite() { value } else { 0.0 };
    Metric {
        name: name.into(),
        unit,
        value,
        note: note.into(),
    }
}

fn spread_note(values: &[f64]) -> String {
    match stats::quartiles(values) {
        Some((q1, median, q3)) => {
            format!(
                "median {median:.6} q1 {q1:.6} q3 {q3:.6} n {}",
                values.len()
            )
        }
        None => "n 0".to_owned(),
    }
}

fn sorted(values: impl IntoIterator<Item = f64>) -> Vec<f64> {
    let mut values: Vec<f64> = values.into_iter().collect();
    values.sort_by(f64::total_cmp);
    values
}

/// Percentile of pooled samples; `None` (not reported) when fewer than ten
/// samples lie beyond it.
fn pooled(sorted: &[f64], q: f64) -> (Option<f64>, String) {
    let value = stats::percentile(sorted, q);
    let support = if value.is_some() {
        ""
    } else {
        ", fewer than ten beyond: not reported"
    };
    (value, format!("pooled n {}{support}", sorted.len()))
}

/// A child's latency percentile in ms, if its sample supports it.
fn child_percentile(report: &ChildReport, q: f64) -> Option<f64> {
    stats::percentile(&sorted(report.latencies_us().map(|us| us / 1e3)), q)
}

/// The less-disturbed half of `copies` (of an odd number, the middle copy
/// too): those with the lowest `cost`. Load from other tenants of a shared
/// machine only ever slows work down, in spells that come and go
/// independently on each processor, so disturbed copies of a segment are
/// dropped; keeping half rather than only the best copy stops one child
/// whose seeds happened to draw cheap work from setting a segment's cost.
fn better_half(mut copies: Vec<&Segment>, cost: impl Fn(&Segment) -> f64) -> Vec<&Segment> {
    copies.sort_by(|a, b| cost(a).total_cmp(&cost(b)));
    copies.truncate(copies.len().div_ceil(2));
    copies
}

/// Each aligned segment's copies across `children` that `keep` accepts,
/// segment by segment.
fn copies_by_segment(
    children: &[ChildReport],
    keep: fn(&Segment) -> bool,
) -> impl Iterator<Item = Vec<&Segment>> {
    let segments = children.iter().map(|r| r.segments.len()).max().unwrap_or(0);
    (0..segments).map(move |k| {
        let copies = children.iter().filter_map(move |r| r.segments.get(k));
        copies.filter(|s| keep(s)).collect()
    })
}

/// Items per second over the half of each segment's timed copies with the
/// highest rates.
fn kept_throughput(children: &[ChildReport]) -> f64 {
    let (mut items, mut secs) = (0, 0.0);
    for copies in copies_by_segment(children, |s| s.items > 0 && s.secs > 0.0) {
        for kept in better_half(copies, |s| -(s.items as f64) / s.secs) {
            items += kept.items;
            secs += kept.secs;
        }
    }
    if secs > 0.0 {
        items as f64 / secs
    } else {
        0.0
    }
}

/// Latency samples in ms, ascending, pooled over the half of each
/// segment's copies in which latency percentile `q` was lowest: a
/// percentile is judged on the copies least disturbed at that percentile.
fn kept_latencies(children: &[ChildReport], q: f64) -> Vec<f64> {
    let at_q = |s: &Segment| {
        stats::nearest_rank(&sorted(s.latencies_us.iter().copied()), q).unwrap_or(f64::INFINITY)
    };
    let mut latencies = Vec::new();
    for copies in copies_by_segment(children, |s| !s.latencies_us.is_empty()) {
        for kept in better_half(copies, at_q) {
            latencies.extend(kept.latencies_us.iter().map(|us| us / 1e3));
        }
    }
    sorted(latencies)
}

/// End-to-end metrics printed for people but left out of the result line
/// and `BENCHMARK.json`: the tail latency. On a host shared with other
/// tenants it follows their load, not the program: across ten seeds of the
/// same code its spread reached 168%, beyond any bound the benchmark may
/// set, so a bound on it would pass or reject changes at random. The
/// traced run keeps each layer's p99.
const PRINTED_ONLY: [&str; 1] = ["p90_ms"];

/// End-to-end metrics over the run's untraced children: throughput and
/// latency percentiles from the less-disturbed half of each segment's
/// copies, set-up time and peak memory as medians over the children.
fn end_to_end(plain: &[ChildReport]) -> Vec<Metric> {
    let values = |value: &dyn Fn(&ChildReport) -> Option<f64>| -> Vec<f64> {
        plain.iter().filter_map(value).collect()
    };
    let median = |name, unit, values: Vec<f64>| {
        let note = format!("median of children; {}", spread_note(&values));
        metric(name, unit, stats::median(&values).unwrap_or(0.0), note)
    };
    let kept = |name, values: Vec<f64>| {
        format!(
            "less-disturbed half of each segment's copies; children's own {name}: {}",
            spread_note(&values)
        )
    };
    let percentile = |name, q| {
        let (value, note) = pooled(&kept_latencies(plain, q), q);
        let children = values(&|r| child_percentile(r, q));
        metric(
            name,
            "ms",
            value.unwrap_or(0.0),
            format!("{}; {note}", kept(name, children)),
        )
    };
    vec![
        median("setup_s", "s", values(&|r| Some(r.setup_s))),
        metric(
            "throughput_per_s",
            "1/s",
            kept_throughput(plain),
            kept(
                "throughput_per_s",
                values(&|r| Some(r.work_items() as f64 / r.work_s())),
            ),
        ),
        percentile("p50_ms", 0.50),
        percentile("p90_ms", 0.90),
        median(
            "peak_rss_mb",
            "MB",
            values(&|r| Some(r.rss_kb as f64 / 1024.0)),
        ),
    ]
}

/// Span names of the traced run, and whether they enclose other spans
/// (only those get a self time distinct from their busy time).
const SPANS: [(&str, bool); 16] = [
    ("agent.episode", true),
    ("eval.sample", true),
    ("agent.prefix_fix", false),
    ("rag.retrieve", false),
    ("llm.turn", false),
    ("compilers.compile", false),
    ("sim.setup", false),
    ("sim.check", false),
    ("dataset.sample", false),
    ("rag.merge", false),
    ("rag.merged_db", false),
    ("rag.db_fingerprint", false),
    ("rag.index_build", false),
    ("serve.ack", false),
    ("serve.result", false),
    ("gen.late", false),
];

/// Per-layer scalars a traced child reports, with units.
const TRACED_SCALARS: [(&str, &str); 14] = [
    ("agent.fix_rate", "ratio"),
    ("agent.revisions_per_episode", "count"),
    ("eval.pass1_fixed", "ratio"),
    ("eval.tasks", "count"),
    ("eval.batches", "count"),
    ("eval.barrier_idle_ms", "ms"),
    ("rag.hit_share", "ratio"),
    ("rag.distilled_entries", "count"),
    ("compilers.distinct_sources", "count"),
    ("sim.designs", "count"),
    ("serve.queue_depth.mean", "count"),
    ("serve.queue_depth.max", "count"),
    ("serve.rejected", "count"),
    ("serve.shed", "count"),
];

/// Cache hit ratios, taken from the untraced twins (the traced run's
/// probes add lookups of their own).
const PLAIN_SCALARS: [&str; 3] = [
    "compilers.outcome_hit_ratio",
    "verilog.analysis_hit_ratio",
    "sim.design_hit_ratio",
];

fn scalar_median(reports: &[ChildReport], name: &str) -> (f64, String) {
    let values: Vec<f64> = reports
        .iter()
        .map(|r| r.scalars.get(name).copied().unwrap_or(0.0))
        .collect();
    (stats::median(&values).unwrap_or(0.0), spread_note(&values))
}

fn per_layer(plain: &[ChildReport], traced: &[ChildReport]) -> Vec<Metric> {
    let children = traced.len().max(1) as f64;
    let per_child = format!("mean per traced child of {}", traced.len());
    let mut out = Vec::new();
    for (name, encloses) in SPANS {
        let layers: Vec<&trace::Layer> = traced.iter().filter_map(|r| r.layers.get(name)).collect();
        let total =
            |field: fn(&trace::Layer) -> u64| layers.iter().map(|l| field(l)).sum::<u64>() as f64;
        let durations = sorted(
            layers
                .iter()
                .flat_map(|l| l.durations_ns.iter().map(|&ns| ns as f64 / 1e3)),
        );
        out.push(metric(
            format!("{name}.count"),
            "count",
            total(|l| l.count) / children,
            &per_child,
        ));
        out.push(metric(
            format!("{name}.busy_ms"),
            "ms",
            total(|l| l.busy_ns) / 1e6 / children,
            &per_child,
        ));
        if encloses {
            out.push(metric(
                format!("{name}.self_ms"),
                "ms",
                total(|l| l.self_ns) / 1e6 / children,
                &per_child,
            ));
        }
        for (q, label) in [(0.5, "p50_us"), (0.99, "p99_us")] {
            let (value, note) = pooled(&durations, q);
            out.push(metric(
                format!("{name}.{label}"),
                "us",
                value.unwrap_or(0.0),
                note,
            ));
        }
        if name == "sim.check" {
            let all: f64 = durations.iter().sum();
            let tail: f64 = durations.iter().rev().take(durations.len() / 10).sum();
            let share = if all > 0.0 { tail / all } else { 0.0 };
            out.push(metric(
                "sim.tail10_share",
                "ratio",
                share,
                "check time in the slowest tenth",
            ));
        }
    }
    for (name, unit) in TRACED_SCALARS {
        let (value, note) = scalar_median(traced, name);
        out.push(metric(name, unit, value, note));
    }
    for name in PLAIN_SCALARS {
        let (value, note) = scalar_median(plain, name);
        out.push(metric(
            name,
            "ratio",
            value,
            format!("untraced twins; {note}"),
        ));
    }
    let per_item = |reports: &[ChildReport]| {
        let seconds: f64 = reports.iter().map(ChildReport::work_s).sum();
        seconds
            / reports
                .iter()
                .map(ChildReport::work_items)
                .sum::<u64>()
                .max(1) as f64
    };
    out.push(metric(
        "trace.overhead",
        "ratio",
        per_item(traced) / per_item(&plain[..traced.len().min(plain.len())]) - 1.0,
        "traced over untraced time per item on the same inputs, minus one",
    ));
    out
}

fn orchestrate(args: &Args) -> ExitCode {
    println!("perfbench provenance {}", provenance(args));
    let started = Instant::now();
    let deadline = started + RUN_LIMIT;
    let min_children = if args.trace { 1 } else { MIN_CHILDREN };
    let twins: &[bool] = if args.trace { &[false, true] } else { &[false] };
    let mut plain: Vec<ChildReport> = Vec::new();
    let mut traced: Vec<ChildReport> = Vec::new();
    let mut gates: Vec<String> = Vec::new();
    // The longest a child (or twin pair) has taken, so the run stops
    // starting children once the next might not fit in `--seconds`.
    let mut longest = 0.0f64;
    'children: for index in 0..MAX_CHILDREN {
        let seed = episode_seed(args.seed, 900, index as u64, 0);
        let child_started = Instant::now();
        for &tracing in twins {
            let spans = args.spans.as_deref().filter(|_| tracing && index == 0);
            let report = match run_child(args, seed, tracing, spans, deadline) {
                Ok(report) => report,
                Err(err) => {
                    gates.push(format!("child {index}: {err}"));
                    break 'children;
                }
            };
            let fingerprint = report
                .fingerprint
                .map_or_else(|| "-".to_owned(), |fp| format!("{fp:032x}"));
            println!(
                "child {index} seed {seed} trace {} setup_s {:.6} gen_s {:.3} items {} work_s {:.3} \
                 items_per_s {:.1} p50_ms {:.4} p90_ms {:.4} failed {} rss_mb {:.1} fingerprint {fingerprint}",
                u8::from(tracing),
                report.setup_s,
                report.gen_s,
                report.work_items(),
                report.work_s(),
                report.work_items() as f64 / report.work_s(),
                child_percentile(&report, 0.5).unwrap_or(0.0),
                child_percentile(&report, 0.9).unwrap_or(0.0),
                report.failed,
                report.rss_kb as f64 / 1024.0,
            );
            gates.extend(
                report
                    .gates
                    .iter()
                    .map(|gate| format!("child {index}: {gate}")),
            );
            if tracing {
                if report.fingerprint != plain.last().and_then(|p| p.fingerprint) {
                    gates.push(format!(
                        "child {index}: traced outcomes differ from the untraced twin's"
                    ));
                }
                traced.push(report);
            } else {
                plain.push(report);
            }
        }
        longest = longest.max(child_started.elapsed().as_secs_f64());
        // `--quick` is a smoke test: the minimum, however short.
        let timed_out = args.quick || started.elapsed().as_secs_f64() + longest > args.seconds;
        if !gates.is_empty() || (plain.len() >= min_children && timed_out) {
            break;
        }
    }

    for name in ["agent.fix_rate", "eval.pass1_fixed"] {
        let values: Vec<f64> = plain
            .iter()
            .filter_map(|r| r.scalars.get(name).copied())
            .collect();
        if !values.is_empty() {
            println!("quality {name} {}", spread_note(&values));
        }
    }
    let metrics = match (plain.is_empty(), args.trace) {
        (true, _) => Vec::new(),
        (false, false) => end_to_end(&plain),
        (false, true) => per_layer(&plain, &traced),
    };
    for m in &metrics {
        let printed_only = if PRINTED_ONLY.contains(&m.name.as_str()) {
            ", printed only"
        } else {
            ""
        };
        println!(
            "metric {} = {} {} ({}{printed_only})",
            m.name, m.value, m.unit, m.note
        );
    }
    let attempted: u64 = plain.iter().chain(&traced).map(|r| r.attempted).sum();
    let failed: u64 = plain.iter().chain(&traced).map(|r| r.failed).sum();
    for gate in &gates {
        println!("gate failed: {gate}");
    }
    let correct = gates.is_empty() && !plain.is_empty();
    println!("gates {}", if correct { "passed" } else { "FAILED" });
    let body: Vec<String> = metrics
        .iter()
        .filter(|m| !PRINTED_ONLY.contains(&m.name.as_str()))
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
        attempted.max(1),
        body.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let switch = std::env::vars_os()
        .map(|(name, _)| name)
        .find(|name| name.to_string_lossy().starts_with("RTLFIXER_"));
    if let Some(name) = switch {
        eprintln!(
            "perfbench: refusing to run with {} set: RTLFIXER_* switches change the program under test",
            name.to_string_lossy()
        );
        return ExitCode::from(2);
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.child {
        println!("{}", measure(&args).to_lines());
        ExitCode::SUCCESS
    } else {
        orchestrate(&args)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(workload: Workload, trace: bool) -> Args {
        Args {
            workload,
            seed: 3,
            seconds: 0.0,
            trace,
            quick: true,
            spans: None,
            child: true,
        }
    }

    fn names(metrics: Vec<Metric>) -> Vec<String> {
        metrics.into_iter().map(|m| m.name).collect()
    }

    #[test]
    fn quick_smoke_of_every_workload_plain_and_traced() {
        let _drain = trace::TEST_LOCK
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        for workload in Workload::ALL {
            let plain = measure(&args(workload, false));
            let traced = measure(&args(workload, true));
            for report in [&plain, &traced] {
                assert!(
                    report.gates.is_empty(),
                    "{}: {:?}",
                    workload.name(),
                    report.gates
                );
                assert!(
                    report.attempted > 0 && report.failed == 0,
                    "{}",
                    workload.name()
                );
                assert!(report.work_items() > 0 && report.work_s() > 0.0 && report.rss_kb > 0);
                assert!(report.latencies_us().next().is_some());
            }
            // The timing wrappers leave outcomes bit-identical.
            assert_eq!(plain.fingerprint, traced.fingerprint, "{}", workload.name());
            assert!(
                traced.layers["agent.episode"].count > 0,
                "{}",
                workload.name()
            );
            assert!(plain.layers.is_empty());
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let report = ChildReport {
            segments: vec![Segment {
                items: 1,
                secs: 1.0,
                latencies_us: vec![1.0],
            }],
            ..ChildReport::default()
        };
        let reports = [report];
        let reported: Vec<String> = names(end_to_end(&reports))
            .into_iter()
            .filter(|name| !PRINTED_ONLY.contains(&name.as_str()))
            .chain(names(per_layer(&reports, &reports)))
            .chain(Workload::ALL.iter().map(|w| w.name().to_owned()))
            .collect();
        for name in &reported {
            assert!(
                spec.contains(&format!("\"name\": \"{name}\"")),
                "{name} missing"
            );
        }
        assert_eq!(
            spec.matches("\"name\":").count(),
            reported.len(),
            "BENCHMARK.json lists extra names"
        );
    }

    #[test]
    fn each_segment_keeps_its_less_disturbed_half() {
        let segment = |items, secs, latencies_us: &[f64]| Segment {
            items,
            secs,
            latencies_us: latencies_us.to_vec(),
        };
        let child = |segments| ChildReport {
            segments,
            ..ChildReport::default()
        };
        // Child `a` was slowed in the first segment, child `b` in the
        // second, child `c` in both; segment 2 is latency only, and only
        // `a` has it. Of three copies the better two are kept.
        let a = child(vec![
            segment(10, 2.0, &[9000.0, 7000.0]),
            segment(30, 1.0, &[1000.0]),
            segment(0, 0.0, &[4000.0, 6000.0]),
        ]);
        let b = child(vec![
            segment(10, 1.0, &[2000.0, 12000.0]),
            segment(30, 3.0, &[5000.0]),
        ]);
        let c = child(vec![
            segment(10, 4.0, &[20000.0]),
            segment(30, 6.0, &[30000.0]),
        ]);
        let three = [a.clone(), b.clone(), c];
        assert_eq!(kept_throughput(&three), (20.0 + 60.0) / (3.0 + 4.0));
        assert_eq!(
            kept_latencies(&three, 0.5),
            [1.0, 2.0, 4.0, 5.0, 6.0, 7.0, 9.0, 12.0]
        );
        // Of two copies the better one is kept, judged at each percentile:
        // `b` has the lower median in segment 0, `a` the lower maximum.
        let two = [a, b];
        assert_eq!(kept_throughput(&two), 40.0 / 2.0);
        assert_eq!(kept_latencies(&two, 0.5), [1.0, 2.0, 4.0, 6.0, 12.0]);
        assert_eq!(kept_latencies(&two, 1.0), [1.0, 4.0, 6.0, 7.0, 9.0]);
        assert_eq!(kept_throughput(&[]), 0.0);
        assert!(kept_latencies(&[], 0.5).is_empty());
    }

    #[test]
    fn arguments_follow_the_benchmark_interface() {
        let argv = |text: &str| {
            text.split_whitespace()
                .map(str::to_owned)
                .collect::<Vec<_>>()
        };
        let parsed = parse_args(&argv(
            "--workload serve_fresh --seed 7 --seconds 10 --trace 1",
        ))
        .expect("the BENCHMARK.json invocation parses");
        assert_eq!(parsed.workload, Workload::ServeFresh);
        assert_eq!(
            (parsed.seed, parsed.seconds, parsed.trace, parsed.child),
            (7, 10.0, true, false)
        );
        for bad in [
            "",
            "--workload nope",
            "--workload passk_sim --trace 2",
            "--workload passk_sim --seed",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "`{bad}` must be refused");
        }
    }

    #[test]
    fn civil_dates_are_utc() {
        assert_eq!(civil(0), "1970-01-01T00:00:00Z");
        assert_eq!(civil(951_782_400), "2000-02-29T00:00:00Z");
        assert_eq!(civil(1_792_108_799), "2026-10-15T23:59:59Z");
    }
}
