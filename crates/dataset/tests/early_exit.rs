//! `Problem::check` against the full testbench it shortens.
//!
//! A check stops the testbench at the first mismatching cycle, while
//! `run_testbench` drives every cycle and counts every mismatch. Over every
//! suite problem and a spread of candidates (the solution, functional-bug
//! mutants, a degraded output and an oscillator), the check must give the
//! verdict the full run maps to, and drive no more simulation than it.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::SeedableRng;
use rtlfixer_dataset::{mutate, suites, Problem, Verdict, VerdictMemo};
use rtlfixer_sim::testbench::{run_testbench, TestResult, TestbenchError};

const SEED: u64 = 0xC0FFEE;

/// Counters of the simulator's work, from `f`'s telemetry episode.
fn sim_counters<T>(f: impl FnOnce() -> T) -> (T, BTreeMap<String, u64>) {
    rtlfixer_obs::episode_begin();
    let out = f();
    let telemetry = rtlfixer_obs::episode_end().expect("telemetry is on");
    let counters =
        telemetry.counters.into_iter().filter(|(name, _)| name.starts_with("sim.")).collect();
    (out, counters)
}

/// The verdict a full `run_testbench` maps to, with its report when it ran
/// to the end.
fn full_run(problem: &Problem, code: &str) -> (Verdict, Option<TestResult>) {
    let analysis = rtlfixer_verilog::compile_shared(code);
    if !analysis.is_ok() || analysis.file.module(&problem.top).is_none() {
        return (Verdict::CompileError, None);
    }
    let mut golden = (problem.golden)();
    let stimuli = problem.stimuli(SEED);
    match run_testbench(&analysis, &problem.top, golden.as_mut(), &stimuli, &problem.clocking) {
        Ok(result) if result.passed => (Verdict::Pass, Some(result)),
        Ok(result) => (Verdict::SimMismatch, Some(result)),
        Err(TestbenchError::Sim(_)) => (Verdict::SimMismatch, None),
        Err(TestbenchError::Elab(_)) => (Verdict::CompileError, None),
    }
}

fn candidates(problem: &Problem) -> Vec<(String, String)> {
    let solution = &problem.solution;
    let mut out = vec![("solution".to_owned(), solution.clone())];
    for seed in 0..4 {
        let mut rng = StdRng::seed_from_u64(seed);
        if let Some(mutant) = mutate::inject_functional_bug(solution, &mut rng) {
            out.push((format!("mutant {seed}"), mutant));
        }
    }
    out.push(("degrade_output".to_owned(), mutate::degrade_output(solution)));
    out.push((
        "oscillator".to_owned(),
        solution.replace("endmodule", "wire osc_n;\nassign osc_n = ~osc_n;\nendmodule"),
    ));
    out
}

#[test]
fn check_matches_the_full_testbench_and_drives_no_more() {
    rtlfixer_obs::set_telemetry(true);
    let problems = suites::verilog_eval_human()
        .into_iter()
        .chain(suites::verilog_eval_machine())
        .chain(suites::rtllm());
    let (mut judged, mut cut_short) = (0, 0);
    for problem in problems {
        for (label, code) in candidates(&problem) {
            let what = format!("{} {label}:\n{code}", problem.id);
            // A fresh memo per check, so every check simulates.
            let fresh = Problem { verdicts: VerdictMemo::default(), ..problem.clone() };
            let ((want, report), full) = sim_counters(|| full_run(&problem, &code));
            let (got, early) = sim_counters(|| fresh.check_seeded(&code, SEED));
            assert_eq!(got, want, "{what}");
            for (name, &count) in &early {
                let bound = full.get(name).copied().unwrap_or(0);
                assert!(count <= bound, "{what}\n{name}: check {count} > full run {bound}");
            }
            judged += 1;
            // A run the full testbench carries past its first mismatch
            // must stop sooner under the check.
            let Some(report) = report else { continue };
            let Some(mismatch) = &report.first_mismatch else { continue };
            if mismatch.cycle + 1 < report.cycles {
                cut_short += 1;
                let driven: &[&str] = if problem.is_sequential() {
                    &["sim.settle_sweeps", "sim.cycles"]
                } else {
                    &["sim.settle_sweeps"]
                };
                for name in driven {
                    let (count, bound) = (early.get(*name), full.get(*name));
                    assert!(count < bound, "{what}\n{name}: check {count:?}, full {bound:?}");
                }
            }
        }
    }
    assert!(judged > 1_500, "{judged} candidates judged");
    assert!(cut_short > 1_000, "only {cut_short} checks stopped early");
}

#[test]
fn golden_models_name_exactly_the_problems_outputs() {
    // The check compares the ports the golden model names, at the model's
    // widths; those must be the problem's declared outputs.
    let problems = suites::verilog_eval_human()
        .into_iter()
        .chain(suites::verilog_eval_machine())
        .chain(suites::rtllm());
    for problem in problems {
        let want: BTreeMap<&str, u32> =
            problem.outputs.iter().map(|(name, width)| (name.as_str(), *width)).collect();
        let mut golden = (problem.golden)();
        golden.reset();
        for inputs in problem.stimuli(SEED) {
            let expected = golden.step(&inputs);
            let got: BTreeMap<&str, u32> =
                expected.iter().map(|(name, value)| (name.as_str(), value.width())).collect();
            assert_eq!(got, want, "{}", problem.id);
        }
    }
}
