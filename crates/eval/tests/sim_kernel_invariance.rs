//! Sim-kernel invariance: every simulation backend must be bit-identical
//! to the tree-walking interpreter the kernel replaced. The backends form
//! a three-way A/B/C matrix — (A) the full-sweep walker (event kernel
//! off), (B) the interned event-driven kernel, (C) the compiled
//! register-bytecode tape (the default) — driven through
//! `force_sim_backends`. Two pins, both recorded against the pre-kernel
//! implementation:
//!
//! 1. The full `table1 --quick` episode grid (14 cells x 40 entries x 3
//!    repeats) reproduces the recorded fix rates exactly, at `--jobs 1` and
//!    `--jobs 4`, under every backend.
//! 2. A verdict transcript over every benchmark problem in all three suites
//!    (solution at two stimulus seeds, plus a seeded functional mutant)
//!    hashes to the recorded fingerprint under every backend. This is the
//!    part that actually drives `run_testbench` cycle-by-cycle — table1's
//!    fix loop is compile-feedback only.
//!
//! If either pin moves for any backend, that backend changed simulation
//! semantics; that is a correctness bug, not a baseline to re-record.

use std::sync::Mutex;

use rand::rngs::StdRng;
use rand::SeedableRng;

use rtlfixer_dataset::{mutate, rtllm, verilog_eval_human, verilog_eval_machine, Verdict};
use rtlfixer_eval::experiments::table1::{table1, FixRateConfig};
use rtlfixer_sim::force_sim_backends;

/// The backend switches are process-global; tests forcing them must not
/// overlap.
static BACKEND_LOCK: Mutex<()> = Mutex::new(());

/// `(label, event kernel, tape)` per matrix point.
const BACKENDS: [(&str, bool, bool); 3] =
    [("sweep", false, false), ("event", true, false), ("tape", true, true)];

/// The `--quick` grid's fix rates, recorded before the kernel swap
/// (bit-exact: shortest-roundtrip literals parse back to the same f64).
///
/// The recording pins the *whole* pipeline, so an intentional agent-layer
/// change legitimately moves it — identically across all three backends.
/// Cell 3 (One-shot + RAG + iverilog) was re-recorded when the hybrid
/// retriever became the RAG default; every other cell is unchanged from
/// the pre-kernel recording. A divergence between backends is still a
/// simulation-correctness bug, never a baseline to re-record.
const QUICK_GRID_RATES: [f64; 14] = [
    0.4833333333333331,
    0.5583333333333333,
    0.675,
    0.6833333333333333,
    0.8916666666666669,
    0.6833333333333333,
    0.7083333333333335,
    0.825,
    0.8166666666666668,
    0.9583333333333333,
    0.9166666666666666,
    0.9916666666666666,
    0.925,
    0.9916666666666666,
];

fn quick_grid_rates(jobs: usize) -> Vec<u64> {
    let config = FixRateConfig { max_entries: Some(40), repeats: 3, jobs, ..Default::default() };
    table1(&config).iter().map(|cell| cell.fix_rate.to_bits()).collect()
}

#[test]
fn table1_quick_grid_matches_recorded_fingerprint_under_every_backend() {
    let _guard = BACKEND_LOCK.lock().unwrap();
    rtlfixer_faults::set_global_spec(None);
    let pinned: Vec<u64> = QUICK_GRID_RATES.iter().map(|r| r.to_bits()).collect();
    for (label, event, tape) in BACKENDS {
        force_sim_backends(Some(event), Some(tape));
        for jobs in [1, 4] {
            let measured = quick_grid_rates(jobs);
            assert_eq!(
                measured,
                pinned,
                "table1 --quick grid diverged from the pre-kernel recording on the \
                 `{label}` backend at --jobs {jobs}: {:?}",
                measured.iter().map(|bits| f64::from_bits(*bits)).collect::<Vec<_>>()
            );
        }
    }
    force_sim_backends(None, None);
}

/// Verdict transcript fingerprint recorded against the pre-kernel
/// interpreter (see `verdict_transcript`).
const VERDICT_FINGERPRINT: &str = "6e1d06fe7fcb63b9fe9e51206c569f8b";

fn verdict_code(verdict: Verdict) -> char {
    match verdict {
        Verdict::CompileError => 'C',
        Verdict::SimMismatch => 'M',
        Verdict::Pass => 'P',
    }
}

/// One line per benchmark problem: the solution simulated at two stimulus
/// seeds, plus a seeded functional mutant (compiles, behaves differently) so
/// the mismatch path is exercised, not just the all-pass diagonal.
fn verdict_transcript() -> String {
    let mut transcript = String::new();
    let mut rng = StdRng::seed_from_u64(0x51D1_CAFE);
    let problems = [verilog_eval_human(), verilog_eval_machine(), rtllm()].concat();
    assert!(problems.len() > 20, "suites unexpectedly small: {}", problems.len());
    for problem in &problems {
        let gold = verdict_code(problem.check_seeded(&problem.solution, 0xC0FFEE));
        let alt = verdict_code(problem.check_seeded(&problem.solution, 12345));
        let mutant = mutate::inject_functional_bug(&problem.solution, &mut rng)
            .map_or('-', |bad| verdict_code(problem.check(&bad)));
        transcript.push_str(&format!("{}:{gold}{alt}{mutant};", problem.id));
    }
    transcript
}

/// `render_sim_feedback` quotes `SimError::Unstable` verbatim to the
/// repair agent, so the still-toggling net names it reports must not
/// depend on which kernel is enabled — otherwise agent transcripts (and
/// anything fingerprinted over them) would fork per backend.
#[test]
fn unstable_feedback_is_identical_under_every_backend() {
    let _guard = BACKEND_LOCK.lock().unwrap();
    let problem = rtlfixer_dataset::suites::find_problem("human/and8").expect("exists");
    let oscillating = problem
        .solution
        .replace("endmodule", "wire osc_n;\nassign osc_n = ~osc_n;\nendmodule");
    let mut rendered = Vec::new();
    for (label, event, tape) in BACKENDS {
        force_sim_backends(Some(event), Some(tape));
        let feedback = rtlfixer_eval::sim_debug::render_sim_feedback(&problem, &oscillating)
            .expect("unstable designs still render feedback");
        assert!(feedback.contains("osc_n"), "`{label}`: {feedback}");
        rendered.push((label, feedback));
    }
    force_sim_backends(None, None);
    let (baseline_label, baseline) = &rendered[0];
    for (label, feedback) in &rendered[1..] {
        assert_eq!(
            feedback, baseline,
            "unstable feedback diverged between `{baseline_label}` and `{label}`"
        );
    }
}

#[test]
fn testbench_verdicts_match_recorded_fingerprint_under_every_backend() {
    let _guard = BACKEND_LOCK.lock().unwrap();
    for (label, event, tape) in BACKENDS {
        force_sim_backends(Some(event), Some(tape));
        let transcript = verdict_transcript();
        // Non-vacuity: the transcript must exercise both the pass and the
        // mismatch paths of the simulator, not just compile errors.
        assert!(transcript.contains('P'), "no passing verdicts:\n{transcript}");
        assert!(transcript.contains('M'), "no mismatch verdicts:\n{transcript}");
        let fingerprint =
            format!("{:032x}", rtlfixer_cache::fingerprint128(transcript.as_bytes()));
        assert_eq!(
            fingerprint, VERDICT_FINGERPRINT,
            "simulation verdicts diverged from the pre-kernel recording on the \
             `{label}` backend; transcript:\n{transcript}"
        );
    }
    force_sim_backends(None, None);
}
