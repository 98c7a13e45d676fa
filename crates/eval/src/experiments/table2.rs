//! Table 2 (pass@k before/after syntax fixing on VerilogEval), Table 3
//! (RTLLM generalisation) and Figure 4 (error-class shares).

use serde::Serialize;

use rtlfixer_agent::{prefixer, RtlFixerBuilder, Strategy};
use rtlfixer_compilers::CompilerKind;
use rtlfixer_dataset::generation::{GenCapability, Generator};
use rtlfixer_dataset::{Difficulty, Problem, Verdict};
use rtlfixer_llm::{Capability, ResilientModel, SimulatedLlm};

use crate::metrics::mean_pass_at_k;
use crate::runner::{episode_seed, run_episodes_planned, EpisodeSpec, RunStats};
use crate::schedule::EpisodeFeatures;

/// Configuration for generation-based experiments.
#[derive(Debug, Clone, Copy)]
pub struct PassAtKConfig {
    /// Samples per problem (the paper uses n = 20).
    pub samples: usize,
    /// Cap on problems per suite (`None` = all).
    pub max_problems: Option<usize>,
    /// Base seed.
    pub seed: u64,
    /// Worker threads (`0` = available parallelism). Problems are the unit
    /// of parallelism; results are identical for every value.
    pub jobs: usize,
}

impl Default for PassAtKConfig {
    fn default() -> Self {
        PassAtKConfig { samples: 20, max_problems: None, seed: 11, jobs: 0 }
    }
}

/// Per-sample outcome classes, before and after fixing (Figure 4's pie).
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct OutcomeShares {
    /// Fraction of samples passing simulation.
    pub pass: f64,
    /// Fraction failing to compile (syntax errors).
    pub syntax_error: f64,
    /// Fraction compiling but failing simulation.
    pub sim_error: f64,
}

/// One pass@k row (a Table 2 line).
#[derive(Debug, Clone, Serialize)]
pub struct PassRow {
    /// "All", "easy" or "hard".
    pub set: String,
    /// Problems in the split.
    pub problems: usize,
    /// pass@1 before fixing.
    pub pass1_original: f64,
    /// pass@1 after fixing syntax errors.
    pub pass1_fixed: f64,
    /// pass@5 before fixing.
    pub pass5_original: f64,
    /// pass@5 after fixing.
    pub pass5_fixed: f64,
}

/// Full result of a suite evaluation.
#[derive(Debug, Clone, Serialize)]
pub struct SuiteEvaluation {
    /// Suite label.
    pub suite: String,
    /// All/easy/hard rows.
    pub rows: Vec<PassRow>,
    /// Outcome shares before fixing (Figure 4 inner ring).
    pub shares_original: OutcomeShares,
    /// Outcome shares after fixing (Figure 4 outer ring).
    pub shares_fixed: OutcomeShares,
    /// Fraction of generated samples that failed to compile.
    pub syntax_failure_rate: f64,
    /// Same, after fixing.
    pub syntax_failure_rate_fixed: f64,
    /// Wall-clock statistics (episodes = problems × samples).
    pub stats: RunStats,
}

/// Per-problem counts from one evaluation pass.
#[derive(Debug)]
struct ProblemCounts {
    /// Difficulty of the problem (for the easy/hard splits).
    difficulty: Difficulty,
    /// Samples passing simulation before fixing.
    pass_original: usize,
    /// Samples passing simulation after fixing.
    pass_fixed: usize,
    /// Samples generated for this problem.
    samples: usize,
    /// Samples failing to compile before fixing.
    syntax_original: usize,
    /// Samples failing to compile after fixing.
    syntax_fixed: usize,
    /// Samples compiling but failing simulation before fixing.
    sim_original: usize,
    /// Samples compiling but failing simulation after fixing.
    sim_fixed: usize,
}

/// Evaluates one problem: generates `samples` candidates, measures original
/// verdicts, applies the fixer to compile-failing candidates and re-measures.
fn evaluate_problem(problem: &Problem, config: &PassAtKConfig, index: u64) -> ProblemCounts {
    // Seed-namespace cells 40 (generation) and 41 (fixing) — see
    // [`crate::runner::episode_seed`].
    let gen_seed = episode_seed(config.seed, 40, index, 0);
    let mut generator = Generator::new(GenCapability::Gpt35, gen_seed);
    let mut counts = ProblemCounts {
        difficulty: problem.difficulty,
        pass_original: 0,
        pass_fixed: 0,
        samples: config.samples,
        syntax_original: 0,
        syntax_fixed: 0,
        sim_original: 0,
        sim_fixed: 0,
    };
    for sample in 0..config.samples {
        let candidate = generator.sample(problem);
        // §4 Setup: the rule-based fixer is applied to every generated
        // sample before evaluation.
        let normalised = prefixer::prefix_fix(&candidate.code);
        let original = problem.check(&normalised);
        match original {
            Verdict::Pass => counts.pass_original += 1,
            Verdict::CompileError => counts.syntax_original += 1,
            Verdict::SimMismatch => counts.sim_original += 1,
        }
        // Fixing pass: only compile errors go through RTLFixer.
        let fixed_verdict = if original == Verdict::CompileError {
            let fix_seed = episode_seed(config.seed, 41, index, sample as u64);
            let llm =
                ResilientModel::new(SimulatedLlm::new(Capability::Gpt35Class, fix_seed), fix_seed);
            let mut fixer = RtlFixerBuilder::new()
                .compiler(CompilerKind::Quartus)
                .strategy(Strategy::React { max_iterations: 10 })
                .with_rag(true)
                .fault_seed(fix_seed)
                .build(llm);
            let outcome = fixer.fix_problem(&problem.description, &normalised);
            problem.check(&outcome.final_code)
        } else {
            original
        };
        match fixed_verdict {
            Verdict::Pass => counts.pass_fixed += 1,
            Verdict::CompileError => counts.syntax_fixed += 1,
            Verdict::SimMismatch => counts.sim_fixed += 1,
        }
    }
    counts
}

fn shares(counts: &[ProblemCounts], fixed: bool) -> OutcomeShares {
    let total: usize = counts.iter().map(|c| c.samples).sum();
    if total == 0 {
        return OutcomeShares::default();
    }
    let (pass, syntax, sim) = counts.iter().fold((0usize, 0usize, 0usize), |acc, c| {
        if fixed {
            (acc.0 + c.pass_fixed, acc.1 + c.syntax_fixed, acc.2 + c.sim_fixed)
        } else {
            (acc.0 + c.pass_original, acc.1 + c.syntax_original, acc.2 + c.sim_original)
        }
    });
    OutcomeShares {
        pass: pass as f64 / total as f64,
        syntax_error: syntax as f64 / total as f64,
        sim_error: sim as f64 / total as f64,
    }
}

fn row(set: &str, counts: &[&ProblemCounts]) -> PassRow {
    let original: Vec<(usize, usize)> =
        counts.iter().map(|c| (c.pass_original, c.samples)).collect();
    let fixed: Vec<(usize, usize)> = counts.iter().map(|c| (c.pass_fixed, c.samples)).collect();
    PassRow {
        set: set.to_owned(),
        problems: counts.len(),
        pass1_original: mean_pass_at_k(&original, 1),
        pass1_fixed: mean_pass_at_k(&fixed, 1),
        pass5_original: mean_pass_at_k(&original, 5),
        pass5_fixed: mean_pass_at_k(&fixed, 5),
    }
}

/// The striding subset [`evaluate_suite`] evaluates: with `max_problems`
/// set, problems are sampled across the suite so both difficulty splits
/// stay represented (the suites are ordered hardest-first).
fn subset<'a>(problems: &'a [Problem], config: &PassAtKConfig) -> Vec<&'a Problem> {
    match config.max_problems {
        Some(cap) if cap < problems.len() => {
            let stride = (problems.len() / cap).max(1);
            problems.iter().step_by(stride).take(cap).collect()
        }
        _ => problems.iter().collect(),
    }
}

/// Runs the Table 2 evaluation over a problem suite, producing All/easy/hard
/// rows plus the Figure 4 shares.
pub fn evaluate_suite(
    suite_label: &str,
    problems: &[Problem],
    config: &PassAtKConfig,
) -> SuiteEvaluation {
    let problems = subset(problems, config);
    // One problem per pool task: sample generation is sequential within a
    // problem (the generator's RNG stream is per-problem), but problems are
    // independent, seeded by subset index, and safe to run in any order.
    // Synthetic specs carry the subset index; the seeds episodes actually
    // use derive inside `evaluate_problem`.
    let specs: Vec<EpisodeSpec> = (0..problems.len())
        .map(|p| EpisodeSpec {
            cell: 40,
            entry: p,
            repeat: 0,
            seed: episode_seed(config.seed, 40, p as u64, 0),
        })
        .collect();
    let features: Vec<EpisodeFeatures> =
        problems.iter().map(|p| EpisodeFeatures::of(&p.description, None)).collect();
    let (results, failures, mut stats) =
        run_episodes_planned(config.jobs, &specs, &features, |spec| {
            evaluate_problem(problems[spec.entry], config, spec.entry as u64)
        });
    if let Some(first) = failures.first() {
        panic!(
            "{} of {} problems panicked; first at subset index {}: {}",
            failures.len(),
            specs.len(),
            first.index,
            first.message
        );
    }
    // Episodes are problems × samples, not problems: rescale the pool's
    // per-task accounting so throughput stays comparable to the old path.
    stats.episodes = specs.len() * config.samples;
    stats.episodes_per_sec =
        if stats.seconds > 0.0 { stats.episodes as f64 / stats.seconds } else { 0.0 };
    let counts: Vec<ProblemCounts> =
        results.into_iter().map(|counts| counts.expect("no failures")).collect();

    let all: Vec<&ProblemCounts> = counts.iter().collect();
    let easy: Vec<&ProblemCounts> =
        counts.iter().filter(|c| c.difficulty == Difficulty::Easy).collect();
    let hard: Vec<&ProblemCounts> =
        counts.iter().filter(|c| c.difficulty == Difficulty::Hard).collect();
    let shares_original = shares(&counts, false);
    let shares_fixed = shares(&counts, true);
    SuiteEvaluation {
        suite: suite_label.to_owned(),
        rows: vec![row("All", &all), row("easy", &easy), row("hard", &hard)],
        shares_original,
        shares_fixed,
        syntax_failure_rate: shares_original.syntax_error,
        syntax_failure_rate_fixed: shares_fixed.syntax_error,
        stats,
    }
}

/// Table 3: RTLLM syntax success rate and pass@1, before/after RTLFixer.
#[derive(Debug, Clone, Serialize)]
pub struct Table3Result {
    /// Fraction of generated samples that compile, before fixing.
    pub syntax_success_original: f64,
    /// Same after ReAct + RAG fixing.
    pub syntax_success_fixed: f64,
    /// pass@1 before fixing.
    pub pass1_original: f64,
    /// pass@1 after fixing.
    pub pass1_fixed: f64,
}

/// Runs the Table 3 evaluation on the RTLLM suite.
pub fn table3(config: &PassAtKConfig) -> Table3Result {
    table3_timed(config).0
}

/// [`table3`] plus the underlying suite run's wall-clock stats.
pub fn table3_timed(config: &PassAtKConfig) -> (Table3Result, RunStats) {
    let problems = rtlfixer_dataset::rtllm();
    let evaluation = evaluate_suite("RTLLM", &problems, config);
    let all = &evaluation.rows[0];
    let result = Table3Result {
        syntax_success_original: 1.0 - evaluation.syntax_failure_rate,
        syntax_success_fixed: 1.0 - evaluation.syntax_failure_rate_fixed,
        pass1_original: all.pass1_original,
        pass1_fixed: all.pass1_fixed,
    };
    (result, evaluation.stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> PassAtKConfig {
        PassAtKConfig { samples: 6, max_problems: Some(16), seed: 5, jobs: 1 }
    }

    #[test]
    fn fixing_improves_human_pass_rate() {
        let problems = rtlfixer_dataset::verilog_eval_human();
        let result = evaluate_suite("Human", &problems, &small_config());
        let all = &result.rows[0];
        assert!(
            all.pass1_fixed >= all.pass1_original,
            "fixed {} < original {}",
            all.pass1_fixed,
            all.pass1_original
        );
        assert!(result.syntax_failure_rate_fixed < result.syntax_failure_rate);
    }

    #[test]
    fn pass5_bounds_pass1() {
        let problems = rtlfixer_dataset::verilog_eval_human();
        let result = evaluate_suite("Human", &problems, &small_config());
        for row in &result.rows {
            assert!(row.pass5_original >= row.pass1_original, "{row:?}");
            assert!(row.pass5_fixed >= row.pass1_fixed, "{row:?}");
        }
    }

    #[test]
    fn shares_sum_to_one() {
        let problems = rtlfixer_dataset::verilog_eval_machine();
        let result = evaluate_suite("Machine", &problems, &small_config());
        let total = result.shares_original.pass
            + result.shares_original.syntax_error
            + result.shares_original.sim_error;
        assert!((total - 1.0).abs() < 1e-9, "{total}");
    }

    #[test]
    fn easy_outperforms_hard() {
        let problems = rtlfixer_dataset::verilog_eval_human();
        let config = PassAtKConfig { samples: 8, max_problems: Some(40), seed: 5, jobs: 1 };
        let result = evaluate_suite("Human", &problems, &config);
        let easy = result.rows.iter().find(|r| r.set == "easy").unwrap();
        let hard = result.rows.iter().find(|r| r.set == "hard").unwrap();
        assert!(
            easy.pass1_original > hard.pass1_original,
            "easy {} vs hard {}",
            easy.pass1_original,
            hard.pass1_original
        );
    }

    #[test]
    fn suite_evaluation_is_jobs_invariant() {
        let problems = rtlfixer_dataset::verilog_eval_human();
        let serial = evaluate_suite("Human", &problems, &small_config());
        let parallel_config = PassAtKConfig { jobs: 4, ..small_config() };
        let parallel = evaluate_suite("Human", &problems, &parallel_config);
        for (a, b) in serial.rows.iter().zip(&parallel.rows) {
            assert_eq!(a.pass1_original, b.pass1_original);
            assert_eq!(a.pass1_fixed, b.pass1_fixed);
            assert_eq!(a.pass5_original, b.pass5_original);
            assert_eq!(a.pass5_fixed, b.pass5_fixed);
        }
        assert_eq!(serial.syntax_failure_rate, parallel.syntax_failure_rate);
    }

    #[test]
    fn table3_improves_syntax_success() {
        let config = PassAtKConfig { samples: 6, max_problems: Some(12), seed: 5, jobs: 1 };
        let result = table3(&config);
        assert!(result.syntax_success_fixed > result.syntax_success_original);
        assert!(result.pass1_fixed >= result.pass1_original);
    }
}
