//! Benchmark suite assembly with the paper's exact shapes:
//!
//! * VerilogEval-Human: **156** problems, split **71 easy / 85 hard**
//!   (the paper's pass-rate-0.1 split).
//! * VerilogEval-Machine: **143** problems (low-level generated
//!   descriptions; a subset of the same circuits, as in the real benchmark
//!   where the two suites share problems).
//! * RTLLM: **29** larger designs.

use crate::archetypes::{all_blueprints, Blueprint};
use crate::problem::{Difficulty, Problem, Suite};

/// Paper count: VerilogEval-Human problems.
pub const HUMAN_COUNT: usize = 156;
/// Paper count: VerilogEval-Human easy subset.
pub const HUMAN_EASY: usize = 71;
/// Paper count: VerilogEval-Human hard subset.
pub const HUMAN_HARD: usize = 85;
/// Paper count: VerilogEval-Machine problems.
pub const MACHINE_COUNT: usize = 143;
/// Paper count: RTLLM problems.
pub const RTLLM_COUNT: usize = 29;

/// Instantiates a blueprint into a suite problem.
pub fn problem_from_blueprint(bp: &Blueprint, suite: Suite, prefix: &str) -> Problem {
    let description = match suite {
        Suite::VerilogEvalMachine => bp.machine_description(),
        _ => bp.description.clone(),
    };
    Problem {
        id: format!("{prefix}/{}", bp.name),
        suite,
        description,
        top: "top_module".to_owned(),
        inputs: bp.inputs.clone(),
        outputs: bp.outputs.clone(),
        clocking: bp.clocking.clone(),
        solution: bp.solution.clone(),
        golden: bp.golden.clone(),
        difficulty: bp.difficulty,
        test_cycles: bp.test_cycles,
        verdicts: Default::default(),
    }
}

/// A proxy for how hard a problem is *for an LLM* (the paper's easy/hard
/// split is by measured pass rate, which this score orders).
fn hardness_score(bp: &Blueprint) -> u32 {
    let mut score = 0;
    if bp.difficulty == Difficulty::Hard {
        score += 8;
    }
    if bp.is_sequential() {
        score += 2;
    }
    if bp.outputs.len() > 1 {
        score += 2;
    }
    let max_width = bp
        .inputs
        .iter()
        .chain(&bp.outputs)
        .map(|(_, w)| *w)
        .max()
        .unwrap_or(1);
    if max_width >= 16 {
        score += 1;
    }
    if max_width >= 64 {
        score += 2;
    }
    if bp.solution.lines().count() > 10 {
        score += 2;
    }
    score
}

/// Blueprints ordered hardest-first (deterministic tie-break by name).
fn ordered_blueprints() -> Vec<Blueprint> {
    let mut all = all_blueprints();
    all.sort_by(|a, b| {
        hardness_score(b)
            .cmp(&hardness_score(a))
            .then_with(|| a.name.cmp(&b.name))
    });
    all
}

/// The VerilogEval-Human suite: 156 problems, 71 easy / 85 hard.
pub fn verilog_eval_human() -> Vec<Problem> {
    let ordered = ordered_blueprints();
    assert!(
        ordered.len() >= HUMAN_COUNT,
        "need {HUMAN_COUNT} blueprints, have {}",
        ordered.len()
    );
    ordered
        .iter()
        .take(HUMAN_COUNT)
        .enumerate()
        .map(|(rank, bp)| {
            let mut problem = problem_from_blueprint(bp, Suite::VerilogEvalHuman, "human");
            // The hardest HUMAN_HARD problems by rank are the hard split.
            problem.difficulty =
                if rank < HUMAN_HARD { Difficulty::Hard } else { Difficulty::Easy };
            problem
        })
        .collect()
}

/// The VerilogEval-Machine suite: 143 problems (drops the most trivial
/// circuits from the Human set, keeping the shared-core structure of the
/// real benchmarks).
pub fn verilog_eval_machine() -> Vec<Problem> {
    let ordered = ordered_blueprints();
    ordered
        .iter()
        .take(MACHINE_COUNT)
        .enumerate()
        .map(|(rank, bp)| {
            let mut problem = problem_from_blueprint(bp, Suite::VerilogEvalMachine, "machine");
            // Machine keeps the same global ordering; the hard fraction
            // follows the Human split boundary.
            problem.difficulty =
                if rank < HUMAN_HARD { Difficulty::Hard } else { Difficulty::Easy };
            problem
        })
        .collect()
}

/// The RTLLM suite: the 29 hardest (system-scale) designs.
pub fn rtllm() -> Vec<Problem> {
    let ordered = ordered_blueprints();
    ordered
        .iter()
        .take(RTLLM_COUNT)
        .map(|bp| {
            let mut problem = problem_from_blueprint(bp, Suite::Rtllm, "rtllm");
            problem.difficulty = bp.difficulty;
            problem
        })
        .collect()
}

/// Looks up a problem by id across all suites.
pub fn find_problem(id: &str) -> Option<Problem> {
    verilog_eval_human()
        .into_iter()
        .chain(verilog_eval_machine())
        .chain(rtllm())
        .find(|p| p.id == id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn human_shape_matches_paper() {
        let suite = verilog_eval_human();
        assert_eq!(suite.len(), HUMAN_COUNT);
        let easy = suite.iter().filter(|p| p.difficulty == Difficulty::Easy).count();
        let hard = suite.iter().filter(|p| p.difficulty == Difficulty::Hard).count();
        assert_eq!(easy, HUMAN_EASY);
        assert_eq!(hard, HUMAN_HARD);
    }

    #[test]
    fn machine_shape_matches_paper() {
        assert_eq!(verilog_eval_machine().len(), MACHINE_COUNT);
    }

    #[test]
    fn rtllm_shape_matches_paper() {
        let suite = rtllm();
        assert_eq!(suite.len(), RTLLM_COUNT);
        // The named paper examples must be in scope.
        assert!(suite.iter().any(|p| p.id.ends_with("conwaylife")));
    }

    #[test]
    fn ids_are_unique_within_and_across_suites() {
        let mut ids: Vec<String> = verilog_eval_human()
            .into_iter()
            .chain(verilog_eval_machine())
            .chain(rtllm())
            .map(|p| p.id)
            .collect();
        let before = ids.len();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), before);
    }

    #[test]
    fn machine_descriptions_are_mechanical() {
        let suite = verilog_eval_machine();
        assert!(suite
            .iter()
            .all(|p| p.description.starts_with("I want you to create a Verilog module")));
    }

    #[test]
    fn hard_split_contains_the_hard_archetypes() {
        let suite = verilog_eval_human();
        let hard_ids: Vec<&str> = suite
            .iter()
            .filter(|p| p.difficulty == Difficulty::Hard)
            .map(|p| p.id.as_str())
            .collect();
        for name in ["conwaylife", "detect101", "rrarb4"] {
            assert!(
                hard_ids.iter().any(|id| id.ends_with(name)),
                "{name} should be hard: {hard_ids:?}"
            );
        }
    }

    #[test]
    fn find_problem_round_trips() {
        assert!(find_problem("human/vector100r").is_some());
        assert!(find_problem("rtllm/conwaylife").is_some());
        assert!(find_problem("nope/zzz").is_none());
    }
}
