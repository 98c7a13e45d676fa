//! Observability must be out-of-band: turning the telemetry registry and
//! the JSONL trace sink on or off leaves experiment outputs bit-identical
//! at any worker count, while the aggregated counters themselves are a
//! pure function of the episode set (independent of scheduling). These
//! tests toggle process-wide observability state directly, so they live in
//! their own integration-test binary.

use rtlfixer_agent::Strategy;
use rtlfixer_compilers::CompilerKind;
use rtlfixer_eval::experiments::table1::{load_entries, run_cell_timed, FixRateConfig};
use rtlfixer_llm::Capability;

/// Fix rates for a representative pair of Table 1 cells (the heaviest and
/// the lightest pipeline), as bit patterns: invariance means
/// *bit-identical*, not approximately equal.
fn fix_rates(jobs: usize) -> Vec<u64> {
    let config = FixRateConfig { max_entries: Some(12), repeats: 2, jobs, ..Default::default() };
    let entries = load_entries(&config);
    [
        (Strategy::React { max_iterations: 10 }, CompilerKind::Quartus, true),
        (Strategy::OneShot, CompilerKind::Simple, false),
    ]
    .into_iter()
    .enumerate()
    .map(|(cell, (strategy, compiler, rag))| {
        let (rate, _) = run_cell_timed(
            &entries,
            strategy,
            compiler,
            rag,
            Capability::Gpt35Class,
            &config,
            cell as u64,
        );
        rate.to_bits()
    })
    .collect()
}

/// The scheduling-independent projection of a registry snapshot: counters
/// only. Histograms of wall-clock timings legitimately differ run to run;
/// counters may not.
fn counters() -> Vec<(String, u64)> {
    rtlfixer_obs::snapshot().counters.into_iter().collect()
}

#[test]
fn outputs_identical_with_observability_on_or_off() {
    // Reference semantics: observability fully off, serial.
    rtlfixer_obs::set_telemetry(false);
    rtlfixer_obs::set_trace_path(None);
    let off = fix_rates(1);
    assert_eq!(fix_rates(4), off, "fix rates diverged (obs off, jobs 4)");

    // Telemetry registry + JSONL sink on: outputs stay bit-identical at
    // every worker count.
    let trace_path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("obs_invariance.jsonl");
    let _ = std::fs::remove_file(&trace_path);
    rtlfixer_obs::set_telemetry(true);
    rtlfixer_obs::set_trace_path(Some(&trace_path));
    rtlfixer_obs::reset();
    let serial = fix_rates(1);
    assert_eq!(serial, off, "fix rates diverged when observability came on");
    let serial_counters = counters();
    for jobs in [2, 4] {
        rtlfixer_obs::reset();
        assert_eq!(fix_rates(jobs), off, "fix rates diverged (obs on, jobs {jobs})");
        // The merged worker-local telemetry is a pure function of the
        // episode set: counters match the serial run exactly.
        assert_eq!(counters(), serial_counters, "counters diverged at jobs {jobs}");
    }

    // The instrumentation actually recorded (not a vacuous invariance):
    // episodes ran, turns were spanned, compiles counted.
    let recorded: std::collections::BTreeMap<String, u64> =
        serial_counters.iter().cloned().collect();
    assert!(recorded.get("agent.episodes").copied().unwrap_or(0) > 0, "{recorded:?}");
    assert!(recorded.get("agent.compiles").copied().unwrap_or(0) > 0, "{recorded:?}");
    assert!(recorded.get("span.turn.count").copied().unwrap_or(0) > 0, "{recorded:?}");
    // Each revision round calls the model exactly once.
    assert_eq!(
        recorded.get("span.model.count"),
        recorded.get("span.turn.count"),
        "model spans must pair with turn spans: {recorded:?}"
    );

    // The trace file holds parseable JSONL with per-episode summaries.
    rtlfixer_obs::set_trace_path(None); // flush + close before reading
    let text = std::fs::read_to_string(&trace_path).expect("trace file written");
    assert!(!text.is_empty(), "trace file is empty");
    for line in text.lines() {
        assert!(
            line.starts_with('{') && line.ends_with('}') && line.contains("\"ev\":"),
            "bad JSONL line: {line}"
        );
    }
    assert!(text.contains("\"ev\":\"episode\""), "no episode summaries in trace");

    rtlfixer_obs::set_telemetry(false);
    rtlfixer_obs::reset();
}
