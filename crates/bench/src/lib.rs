//! # rtlfixer-bench
//!
//! The benchmark harness regenerating every table and figure of the paper
//! (see DESIGN.md §3 for the experiment index):
//!
//! | Binary      | Reproduces |
//! |-------------|-----------|
//! | `table1`    | Table 1 — fix rate grid on VerilogEval-syntax |
//! | `table2`    | Table 2 — pass@{1,5} before/after fixing |
//! | `table3`    | Table 3 — RTLLM generalisation |
//! | `figure4`   | Figure 4 — outcome shares before/after fixing |
//! | `figure7`   | Figure 7 — ReAct iteration histogram |
//! | `stats55`   | §4.2 — the "55% of errors are syntax" statistic |
//! | `ablations` | DESIGN.md ablations (retriever, budget, pre-fixer, DB size) |
//! | `chaos`     | DESIGN.md §3d — fix rate vs injected fault rate sweep |
//!
//! Each binary accepts `--quick` for a scaled-down run, `--jobs N` for
//! the episode pool width and `--telemetry` to record aggregated spans /
//! counters / histograms next to throughput; all print paper-vs-measured
//! rows and full-scale outputs are recorded in `EXPERIMENTS.md`. The `benches/` directory holds Criterion benchmarks of
//! the component layers (lexer, parser, simulator, retrieval, agent loop)
//! and per-experiment harness benchmarks.

#![warn(missing_docs)]

pub mod simdesigns;

/// Formats a ratio with three decimals (`0.985`).
pub fn fmt3(value: f64) -> String {
    format!("{value:.3}")
}

/// Renders a simple aligned markdown-ish table: header plus rows.
pub fn render_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let render_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::from("|");
        for (cell, width) in cells.iter().zip(widths) {
            line.push_str(&format!(" {cell:width$} |"));
        }
        line
    };
    let mut out = String::new();
    let header_cells: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    out.push_str(&render_row(&header_cells, &widths));
    out.push('\n');
    let mut sep = String::from("|");
    for width in &widths {
        sep.push_str(&"-".repeat(width + 2));
        sep.push('|');
    }
    out.push_str(&sep);
    out.push('\n');
    for row in rows {
        out.push_str(&render_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Common CLI flags shared by the reproduction binaries.
#[derive(Debug, Clone, Copy)]
pub struct RunScale {
    /// Scaled-down run (for smoke tests / CI).
    pub quick: bool,
    /// Worker threads for episode execution (`0` = available parallelism).
    /// Results are identical for every value (see `rtlfixer_eval::runner`).
    pub jobs: usize,
    /// Aggregate in-memory telemetry (spans, counters, histograms) and
    /// record it alongside throughput in `results/bench_eval.json`.
    /// Telemetry is out-of-band: measured results are bit-identical with
    /// the flag on or off.
    pub telemetry: bool,
}

impl RunScale {
    /// Reads `--quick`, `--jobs N` (or `--jobs=N`) and `--telemetry` from
    /// the process arguments, and switches the process-wide telemetry
    /// registry on when `--telemetry` is present. `--jobs` defaults to `0`,
    /// meaning "use the machine's available parallelism". Unknown
    /// arguments and unparsable `--jobs` values exit with status 2 and a
    /// message on stderr.
    pub fn from_args() -> Self {
        let scale = Self::parse_args(std::env::args().skip(1)).unwrap_or_else(|message| {
            eprintln!("error: {message}");
            std::process::exit(2);
        });
        if scale.telemetry {
            rtlfixer_obs::set_telemetry(true);
        }
        scale
    }

    /// Argument parsing, separated from `std::env` (and from the
    /// process-wide telemetry switch) for testability.
    pub fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let jobs = |value: &str| {
            value.parse().map_err(|_| format!("--jobs expects a worker count, got `{value}`"))
        };
        let mut scale = RunScale { quick: false, jobs: 0, telemetry: false };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            if arg == "--quick" {
                scale.quick = true;
            } else if arg == "--telemetry" {
                scale.telemetry = true;
            } else if arg == "--jobs" {
                scale.jobs = jobs(&args.next().ok_or("--jobs expects a worker count")?)?;
            } else if let Some(value) = arg.strip_prefix("--jobs=") {
                scale.jobs = jobs(value)?;
            } else {
                return Err(format!(
                    "unknown argument `{arg}` (expected --quick, --jobs N, --telemetry)"
                ));
            }
        }
        Ok(scale)
    }
}

/// Renders the telemetry registry snapshot as the `"telemetry"` block of
/// a `bench_eval.json` entry: every counter, per-span latency summaries
/// (p50/p95/mean over the log₂ histograms), revisions-per-error-category
/// and per-cache hit ratios.
fn telemetry_json() -> serde_json::Value {
    use std::collections::BTreeMap;
    let snap = rtlfixer_obs::snapshot();
    let mut spans: BTreeMap<String, serde_json::Value> = BTreeMap::new();
    for (name, hist) in &snap.hists {
        let Some(kind) = name.strip_prefix("span.").and_then(|s| s.strip_suffix(".us"))
        else {
            continue;
        };
        spans.insert(
            kind.to_owned(),
            serde_json::json!({
                "count": hist.count(),
                "p50_us": hist.percentile(0.50),
                "p95_us": hist.percentile(0.95),
                "mean_us": hist.mean(),
            }),
        );
    }
    let revisions: BTreeMap<String, u64> = snap
        .counters
        .iter()
        .filter_map(|(k, v)| {
            k.strip_prefix("agent.revisions.by_category.").map(|slug| (slug.to_owned(), *v))
        })
        .collect();
    let caches = rtlfixer_eval::cache_report();
    let cache_hit_ratio = serde_json::json!({
        "analyses": caches.analyses.hit_rate,
        "outcomes": caches.outcomes.hit_rate,
        "designs": caches.designs.hit_rate,
        "verdicts": caches.verdicts.hit_rate,
    });
    serde_json::json!({
        "counters": snap.counters,
        "spans": spans,
        "revisions_by_category": revisions,
        "cache_hit_ratio": cache_hit_ratio,
    })
}

/// Records one experiment's throughput into `results/bench_eval.json`.
///
/// The file is a JSON object keyed by experiment name; each call
/// merge-writes its entry so the binaries can run in any order or subset.
/// Each entry carries the wall-clock stats plus a snapshot of the
/// process-wide artifact caches (analysis / compile-outcome / elaborated
/// design hits and misses), of the per-problem verdict memos and of the
/// fault-injection counters
/// (injected / recovered / exhausted per kind), so throughput numbers are
/// interpretable next to the cache and fault behaviour that produced them.
///
/// With `--telemetry` (see [`RunScale`]) the entry additionally carries a
/// `"telemetry"` block: every registry counter, p50/p95/mean span
/// latencies, revisions-per-error-category and per-cache hit ratios.
///
/// Environment overrides:
/// * `RTLFIXER_RESULTS_DIR` — output directory (used by tests).
/// * `RTLFIXER_RECORD_AS` — record under this key instead of `experiment`
///   (used for A/B runs of one binary, e.g. cache on vs off).
pub fn record_run(experiment: &str, jobs: usize, stats: &rtlfixer_eval::RunStats) {
    record_run_with(experiment, jobs, stats, &[]);
}

/// [`record_run`] plus experiment-specific keys merged into the entry.
///
/// Each `(key, value)` pair in `extra` is inserted alongside the standard
/// throughput/cache/fault fields (`simbench` uses this to attach per-design
/// cycles/sec for both kernel backends and the tape compiler statistics).
pub fn record_run_with(
    experiment: &str,
    jobs: usize,
    stats: &rtlfixer_eval::RunStats,
    extra: &[(&str, serde_json::Value)],
) {
    let dir = std::env::var("RTLFIXER_RESULTS_DIR").unwrap_or_else(|_| "results".to_owned());
    let key = std::env::var("RTLFIXER_RECORD_AS").unwrap_or_else(|_| experiment.to_owned());
    let path = std::path::Path::new(&dir).join("bench_eval.json");
    let mut root = std::fs::read_to_string(&path)
        .ok()
        .and_then(|text| serde_json::from_str::<serde_json::Value>(&text).ok())
        .unwrap_or_else(|| serde_json::json!({}));
    if !root.is_object() {
        root = serde_json::json!({});
    }
    let caches = serde_json::Value::from_serialize(&rtlfixer_eval::cache_report());
    let faults = serde_json::Value::from_serialize(&rtlfixer_faults::fault_report());
    let mut entry = serde_json::json!({
        "jobs": rtlfixer_eval::resolve_jobs(jobs),
        "episodes": stats.episodes,
        "failed_episodes": stats.failed_episodes,
        "wall_seconds": stats.seconds,
        "episodes_per_sec": stats.episodes_per_sec,
        "caches": caches,
        "faults": faults,
    });
    // Scheduler metadata, for runs that went through the planner.
    if let Some(scheduler) = stats.scheduler {
        if let Some(mut map) = entry.as_object_mut() {
            map.insert("scheduler".to_owned(), serde_json::Value::from_serialize(&scheduler));
        }
    }
    if rtlfixer_obs::telemetry_enabled() {
        if let Some(mut map) = entry.as_object_mut() {
            map.insert("telemetry".to_owned(), telemetry_json());
        }
    }
    if let Some(mut map) = entry.as_object_mut() {
        for (k, v) in extra {
            map.insert((*k).to_owned(), v.clone());
        }
    }
    if let Some(mut map) = root.as_object_mut() {
        map.insert(key, entry);
    }
    if std::fs::create_dir_all(&dir).is_err() {
        return; // read-only checkout: recording throughput is best-effort
    }
    let text = serde_json::to_string_pretty(&root).expect("serialises");
    let _ = std::fs::write(&path, text + "\n");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let out = render_table(
            &["name", "value"],
            &[vec!["alpha".into(), "1".into()], vec!["b".into(), "100".into()]],
        );
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0].len(), lines[2].len());
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    fn fmt3_rounds() {
        assert_eq!(fmt3(0.98549), "0.985");
    }

    #[test]
    fn run_scale_parses_jobs() {
        let args = |list: &[&str]| list.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let scale = RunScale::parse_args(args(&["--quick", "--jobs", "4"])).unwrap();
        assert!(scale.quick);
        assert_eq!(scale.jobs, 4);
        assert!(!scale.telemetry);
        let scale = RunScale::parse_args(args(&["--jobs=2"])).unwrap();
        assert!(!scale.quick);
        assert_eq!(scale.jobs, 2);
        let scale = RunScale::parse_args(args(&[])).unwrap();
        assert_eq!(scale.jobs, 0);
        // Unknown arguments and unparsable or missing worker counts are
        // errors, not defaults: a mistyped flag must not launch a full run.
        for (bad, needle) in [
            (&["--bogus-flag"][..], "unknown argument `--bogus-flag`"),
            (&["--quick", "subcommand", "2"], "unknown argument `subcommand`"),
            (&["--quick", "--jobs", "abc"], "got `abc`"),
            (&["--jobs=-1"], "got `-1`"),
            (&["--jobs"], "expects a worker count"),
        ] {
            let err = RunScale::parse_args(args(bad)).unwrap_err();
            assert!(err.contains(needle), "{bad:?}: {err}");
        }
    }

    #[test]
    fn run_scale_parses_telemetry_without_switching_it_on() {
        // `parse_args` is pure: only `from_args` flips the process-wide
        // registry, so tests can parse flags without global effects.
        let scale = RunScale::parse_args(["--telemetry".to_owned()]).unwrap();
        assert!(scale.telemetry);
        assert!(!rtlfixer_obs::telemetry_enabled());
    }
}
