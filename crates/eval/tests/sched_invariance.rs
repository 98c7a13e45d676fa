//! Scheduling invariance: episode results are a pure function of the spec,
//! so the plan may only change *when* an episode runs — never its outcome.
//! The fingerprint-batched plan, at every worker count, must reproduce the
//! serial grid-order run episode for episode. If any point of the matrix
//! moves, the scheduler changed results, which is a correctness bug — not a
//! baseline to re-record.

use rtlfixer_agent::Strategy;
use rtlfixer_compilers::CompilerKind;
use rtlfixer_eval::experiments::table1::{
    load_entries, table1_merged, FixRateConfig, PAPER_TABLE1,
};
use rtlfixer_eval::runner::episode_grid;
use rtlfixer_eval::{run_planned_checked, run_repair, EpisodeFeatures, Plan, RepairJob};
use rtlfixer_llm::Capability;

/// The `table1 --quick`-shaped grid (all 14 cells, entries × repeats),
/// scaled down.
fn quick_config(jobs: usize) -> FixRateConfig {
    FixRateConfig { max_entries: Some(8), repeats: 2, jobs, ..Default::default() }
}

#[test]
fn batched_plan_reproduces_serial_grid_order_episodes() {
    let config = quick_config(1);
    let entries = load_entries(&config);
    for (cell, &(strategy, rag, compiler, llm, _)) in PAPER_TABLE1.iter().enumerate() {
        let strategy = if strategy == "One-shot" {
            Strategy::OneShot
        } else {
            Strategy::React { max_iterations: 10 }
        };
        let compiler = match compiler {
            "Simple" => CompilerKind::Simple,
            "iverilog" => CompilerKind::Iverilog,
            _ => CompilerKind::Quartus,
        };
        let capability =
            if llm == "GPT-4" { Capability::Gpt4Class } else { Capability::Gpt35Class };
        let specs = episode_grid(config.base_seed, cell as u64, entries.len(), config.repeats);
        let episode = |i: usize| {
            let entry = &entries[specs[i].entry];
            let outcome = run_repair(&RepairJob {
                compiler,
                strategy,
                rag,
                capability,
                ..RepairJob::new(&entry.description, &entry.code, specs[i].seed)
            });
            (outcome.success, outcome.revisions, outcome.final_code)
        };
        // Reference semantics: grid order (no batching), serial.
        let (reference, failures, _) = run_planned_checked(1, &Plan::grid(specs.len()), episode);
        assert!(failures.is_empty(), "cell {cell}: {failures:?}");

        let features: Vec<EpisodeFeatures> = specs
            .iter()
            .map(|spec| EpisodeFeatures::of(&entries[spec.entry].code, None))
            .collect();
        let batched = Plan::batched(&features);
        assert!(batched.coalesced() > 0, "cell {cell}: repeats must coalesce");
        for jobs in [1, 4] {
            let (measured, failures, _) = run_planned_checked(jobs, &batched, episode);
            assert!(failures.is_empty(), "cell {cell} --jobs {jobs}: {failures:?}");
            assert_eq!(
                measured, reference,
                "cell {cell}: the batched plan diverged from serial grid order at --jobs {jobs}"
            );
        }
    }
}

#[test]
fn table1_fingerprint_is_jobs_invariant() {
    let outputs = |jobs: usize| {
        let merged = table1_merged(&quick_config(jobs));
        let rates: Vec<u64> = merged.cells.iter().map(|cell| cell.fix_rate.to_bits()).collect();
        (merged.verdict_fingerprint, rates)
    };
    let serial = outputs(1);
    assert_ne!(serial.0, 0, "degenerate fingerprint");
    assert_eq!(outputs(4), serial, "verdicts diverged at --jobs 4");
}
