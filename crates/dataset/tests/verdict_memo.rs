//! The per-problem verdict memo behind `Problem::check`: a repeated check
//! does not simulate, and a verdict computed under one backend selection or
//! one set of problem fields never answers a check made under another.
//!
//! The tests flip process-wide switches (the cache kill switch and the
//! simulator backends), so they live in their own binary and serialise.

use std::sync::{Arc, Mutex, MutexGuard};

use rtlfixer_dataset::golden::{input_u64, out1, Comb};
use rtlfixer_dataset::suites::find_problem;
use rtlfixer_dataset::{verdict_memo_stats, Problem, Verdict};
use rtlfixer_sim::force_sim_backends;

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn and8() -> Problem {
    find_problem("human/and8").expect("corpus problem")
}

/// A design that compiles and simulates but computes OR instead of AND.
fn wrong(p: &Problem) -> String {
    p.solution.replacen(" & ", " | ", 1)
}

/// Runs `check` under a telemetry capture; returns its verdict and the
/// simulator work it did (`sim.cycles` + `sim.settle_sweeps`).
fn sim_work(check: impl FnOnce() -> Verdict) -> (Verdict, u64) {
    rtlfixer_obs::set_telemetry(true);
    rtlfixer_obs::episode_begin();
    let verdict = check();
    let telemetry = rtlfixer_obs::episode_end().expect("telemetry is on");
    let work = ["sim.cycles", "sim.settle_sweeps"]
        .iter()
        .map(|name| telemetry.counters.get(*name).copied().unwrap_or(0))
        .sum();
    (verdict, work)
}

fn traced_check(p: &Problem, code: &str) -> (Verdict, u64) {
    sim_work(|| p.check(code))
}

#[test]
fn a_repeated_check_does_not_simulate() {
    let _serial = serial();
    let p = and8();
    let code = wrong(&p);
    assert_ne!(code, p.solution, "the edit applied");
    let before = verdict_memo_stats();
    let (first, work) = traced_check(&p, &code);
    assert_eq!(first, Verdict::SimMismatch);
    assert!(work > 0, "the first check simulates");
    let (again, work) = traced_check(&p, &code);
    assert_eq!((again, work), (Verdict::SimMismatch, 0), "the repeat simulated");
    // Clones share the memo.
    assert_eq!(traced_check(&p.clone(), &code), (Verdict::SimMismatch, 0));
    let after = verdict_memo_stats();
    assert_eq!(after.misses - before.misses, 1, "{after:?}");
    assert_eq!(after.hits - before.hits, 2, "{after:?}");
    // Another seed is another stimulus: it simulates.
    let (verdict, work) = sim_work(|| p.check_seeded(&code, 12345));
    assert_eq!(verdict, Verdict::SimMismatch);
    assert!(work > 0, "answered from another seed's verdict");
}

#[test]
fn another_backend_selection_simulates_again() {
    let _serial = serial();
    let p = and8();
    let solution = p.solution.clone();
    assert!(traced_check(&p, &solution).1 > 0);
    for (event, tape) in [(false, true), (true, false), (false, false)] {
        force_sim_backends(Some(event), Some(tape));
        let (verdict, work) = traced_check(&p, &solution);
        assert_eq!(verdict, Verdict::Pass, "event {event}, tape {tape}");
        assert!(work > 0, "event {event}, tape {tape}: answered from another backend's verdict");
        assert_eq!(traced_check(&p, &solution), (Verdict::Pass, 0), "event {event}, tape {tape}");
    }
    force_sim_backends(None, None);
    assert_eq!(traced_check(&p, &solution), (Verdict::Pass, 0));
}

#[test]
fn changed_problem_fields_give_a_fresh_problems_verdict() {
    let _serial = serial();
    let p = and8();
    let code = wrong(&p);
    // No cycles compare nothing, so even a wrong design passes.
    let mut mutated = p.clone();
    mutated.test_cycles = 0;
    assert_eq!(mutated.check(&code), Verdict::Pass);
    mutated.test_cycles = p.test_cycles;
    let (verdict, work) = traced_check(&mutated, &code);
    assert_eq!(verdict, and8().check(&code));
    assert!(work > 0, "answered from the zero-cycle verdict");

    // A golden model that wants OR accepts the wrong design and rejects the
    // solution: both verdicts flip.
    let solution = p.solution.clone();
    assert_eq!(p.check(&solution), Verdict::Pass);
    let mut or_golden = p.clone();
    or_golden.golden = Arc::new(|| {
        Box::new(Comb::new(|ins| {
            out1("y", 8, u128::from(input_u64(ins, "a") | input_u64(ins, "b")))
        }))
    });
    assert_eq!(or_golden.check(&solution), Verdict::SimMismatch);
    assert_eq!(or_golden.check(&code), Verdict::Pass);
    // The original, sharing the memo, still judges by its own golden model.
    assert_eq!(p.check(&solution), Verdict::Pass);
    assert_eq!(p.check(&code), Verdict::SimMismatch);

    // A top module the source does not declare.
    let mut renamed = p.clone();
    renamed.top = "other_module".into();
    assert_eq!(renamed.check(&solution), Verdict::CompileError);
}

#[test]
fn the_cache_switch_bypasses_the_memo() {
    let _serial = serial();
    let p = and8();
    let solution = p.solution.clone();
    assert_eq!(p.check(&solution), Verdict::Pass);
    rtlfixer_cache::set_enabled(false);
    let before = verdict_memo_stats();
    for _ in 0..2 {
        let (verdict, work) = traced_check(&p, &solution);
        assert_eq!(verdict, Verdict::Pass);
        assert!(work > 0, "a disabled memo answered");
    }
    let after = verdict_memo_stats();
    rtlfixer_cache::set_enabled(true);
    assert_eq!(after.bypassed - before.bypassed, 2, "{after:?}");
    assert_eq!((after.hits, after.misses), (before.hits, before.misses), "{after:?}");
}

#[test]
fn the_memo_is_dropped_with_its_problem() {
    let _serial = serial();
    let before = verdict_memo_stats().entries;
    let p = and8();
    let solution = p.solution.clone();
    p.check(&solution);
    p.check(&wrong(&p));
    let clone = p.clone();
    assert_eq!(verdict_memo_stats().entries, before + 2);
    drop(p);
    assert_eq!(verdict_memo_stats().entries, before + 2, "a clone still holds it");
    drop(clone);
    assert_eq!(verdict_memo_stats().entries, before);
}
