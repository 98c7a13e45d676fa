//! The artifact caches must be behaviorally invisible: every experiment
//! output is bit-identical with caching enabled or disabled, at any worker
//! count. These tests toggle the process-wide switch directly, so they live
//! in their own integration-test binary (each toggle would race with tests
//! asserting exact hit/miss counts if they shared a process).

use rtlfixer_agent::Strategy;
use rtlfixer_compilers::CompilerKind;
use rtlfixer_dataset::Problem;
use rtlfixer_eval::experiments::table1::{load_entries, run_cell_timed, FixRateConfig};
use rtlfixer_eval::experiments::table2::{evaluate_suite, PassAtKConfig};
use rtlfixer_eval::sim_debug::sim_debug_study;
use rtlfixer_llm::Capability;

/// Fix rates for a representative pair of Table 1 cells: the heaviest
/// pipeline (ReAct + RAG + Quartus) and the lightest (One-shot + Simple).
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
        // Bit pattern, not value: invariance means *bit-identical*.
        rate.to_bits()
    })
    .collect()
}

/// The §5 study rows, as exact counters.
fn study_rows(jobs: usize) -> Vec<(String, usize, usize)> {
    let problems: Vec<_> =
        rtlfixer_dataset::suites::verilog_eval_human().into_iter().step_by(12).collect();
    sim_debug_study(&problems, 11, jobs)
        .into_iter()
        .map(|row| (row.set, row.attempted, row.repaired))
        .collect()
}

/// Table 2's pass@k rows and Figure 4's shares at the `--quick` config, as
/// bit patterns. The problems are passed in, so later calls meet the
/// verdict memos earlier calls filled.
fn pass_rows(problems: &[Problem], jobs: usize) -> Vec<u64> {
    let config = PassAtKConfig { samples: 8, max_problems: Some(30), seed: 11, jobs };
    let evaluation = evaluate_suite("Human", problems, &config);
    let shares = [evaluation.shares_original, evaluation.shares_fixed];
    evaluation
        .rows
        .iter()
        .flat_map(|r| [r.pass1_original, r.pass1_fixed, r.pass5_original, r.pass5_fixed])
        .chain(shares.iter().flat_map(|s| [s.pass, s.syntax_error, s.sim_error]))
        .map(f64::to_bits)
        .collect()
}

#[test]
fn outputs_identical_with_cache_on_or_off_at_any_jobs() {
    let problems = rtlfixer_dataset::verilog_eval_human();
    // Baseline: caches off, serial — the reference semantics.
    rtlfixer_cache::set_enabled(false);
    let rates_off = fix_rates(1);
    let rows_off = study_rows(1);
    let pass_off = pass_rows(&problems, 1);

    rtlfixer_cache::set_enabled(true);
    for jobs in [1, 4] {
        assert_eq!(fix_rates(jobs), rates_off, "fix rates diverged (cache on, jobs {jobs})");
        assert_eq!(study_rows(jobs), rows_off, "§5 study diverged (cache on, jobs {jobs})");
        assert_eq!(pass_rows(&problems, jobs), pass_off, "pass@k diverged (cache on, jobs {jobs})");
    }
    // And the off/parallel corner: disabling must also be invisible.
    rtlfixer_cache::set_enabled(false);
    assert_eq!(fix_rates(4), rates_off, "fix rates diverged (cache off, jobs 4)");
    assert_eq!(pass_rows(&problems, 4), pass_off, "pass@k diverged (cache off, jobs 4)");

    // The warm runs actually exercised the caches (this is an invariance
    // test, not a vacuous one).
    rtlfixer_cache::set_enabled(true);
    let report = rtlfixer_eval::cache_report();
    assert!(report.outcomes.hits > 0, "no outcome-cache traffic: {report:?}");
    assert!(report.analyses.hits > 0, "no analysis-cache traffic: {report:?}");
    assert!(report.verdicts.hits > 0, "no verdict-memo traffic: {report:?}");

    // A warm repeat re-reads only sources the cache already holds: the
    // model's drafts go through the analysis cache too, so the pass adds
    // hits and no misses, and still matches the uncached reference.
    assert_eq!(fix_rates(1), rates_off, "fix rates diverged (cache on, warm repeat)");
    let warm = rtlfixer_eval::cache_report();
    let (hits, misses) = (
        warm.analyses.hits - report.analyses.hits,
        warm.analyses.misses - report.analyses.misses,
    );
    assert!(hits > 0 && misses == 0, "warm pass: analyses hits +{hits} misses +{misses}");
}
