//! The closed-batch workloads: `repair_grid` (Table 1's traffic) and
//! `passk_sim` (Table 2's generate → check → repair → check flow).

use std::time::Instant;

use rtlfixer_agent::{prefixer, Strategy};
use rtlfixer_compilers::CompilerKind;
use rtlfixer_dataset::generation::{GenCapability, Generator};
use rtlfixer_dataset::Verdict;
use rtlfixer_eval::runner::{
    cache_report, episode_grid, episode_seed, run_episodes_planned, EpisodeSpec,
};
use rtlfixer_eval::schedule::EpisodeFeatures;
use rtlfixer_eval::{mean_pass_at_k, RepairJob, RunStats};
use rtlfixer_rag::{shared_tfidf_index, GuidanceDatabase};

use crate::layers;
use crate::report::{ChildReport, Segment};
use crate::trace;
use crate::CORPUS_SEED;

/// Episode-pool threads (the planner clamps them to the available
/// parallelism).
const JOBS: usize = 2;

/// The four Table 1 fixer configurations of `repair_grid`.
const CONFIGS: [(Strategy, CompilerKind, bool); 4] = [
    (
        Strategy::React { max_iterations: 10 },
        CompilerKind::Quartus,
        true,
    ),
    (
        Strategy::React { max_iterations: 10 },
        CompilerKind::Iverilog,
        true,
    ),
    (
        Strategy::React { max_iterations: 10 },
        CompilerKind::Quartus,
        false,
    ),
    (Strategy::OneShot, CompilerKind::Quartus, true),
];

fn micros(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e6
}

/// Builds both guidance databases' TF-IDF indexes, the lazy set-up every
/// first retrieval of a process would otherwise pay.
fn build_indexes() {
    for db in [
        GuidanceDatabase::quartus_shared(),
        GuidanceDatabase::iverilog_shared(),
    ] {
        shared_tfidf_index(&db);
    }
}

fn add_scheduler(report: &mut ChildReport, stats: &[RunStats], tasks: usize) {
    let scheduler = stats.iter().filter_map(|s| s.scheduler);
    let (batches, idle_us) =
        scheduler.fold((0, 0), |(b, i), s| (b + s.batches, i + s.barrier_idle_us));
    report.scalar("eval.tasks", tasks as f64);
    report.scalar("eval.batches", batches as f64);
    report.scalar("eval.barrier_idle_ms", idle_us as f64 / 1e3);
}

struct Episode {
    success: bool,
    revisions: usize,
    micros: f64,
    /// Kept for the first repeat of each entry, for [`layers::check_claims`].
    final_code: Option<String>,
}

/// One pass of `entries × 4 configs × repeats` episodes over the corpus,
/// config by config through the planned episode pool; `seed` drives the
/// episodes.
pub fn repair_grid(seed: u64, traced: bool, quick: bool) -> ChildReport {
    let (max_entries, repeats) = if quick { (24, 2) } else { (usize::MAX, 6) };
    let mut report = ChildReport::default();
    let setup = Instant::now();
    let dataset = rtlfixer_dataset::verilog_eval_syntax_shared(CORPUS_SEED);
    let entries = &dataset[..dataset.len().min(max_entries)];
    build_indexes();
    report.setup_s = setup.elapsed().as_secs_f64();

    let caches = cache_report();
    let mut episodes = Vec::new();
    let mut stats = Vec::new();
    let mut tasks = 0;
    // One segment per fixer configuration.
    for (cell, &(strategy, compiler, rag)) in CONFIGS.iter().enumerate() {
        let specs = episode_grid(seed, cell as u64, entries.len(), repeats);
        let features: Vec<EpisodeFeatures> = specs
            .iter()
            .map(|spec| {
                let entry = &entries[spec.entry];
                EpisodeFeatures::of(&entry.code, entry.categories.first().map(|c| c.slug()))
            })
            .collect();
        let start = Instant::now();
        let (results, failures, run) = run_episodes_planned(JOBS, &specs, &features, |spec| {
            let entry = &entries[spec.entry];
            let job = RepairJob {
                compiler,
                strategy,
                rag,
                ..RepairJob::new(&entry.description, &entry.code, spec.seed)
            };
            let req = (cell * entries.len() * repeats + spec.entry * repeats + spec.repeat) as u64;
            let started = Instant::now();
            let outcome = layers::repair(&job, req, traced);
            Episode {
                success: outcome.success,
                revisions: outcome.revisions,
                micros: micros(started),
                final_code: (spec.repeat == 0).then_some(outcome.final_code),
            }
        });
        let secs = start.elapsed().as_secs_f64();
        let done: Vec<&Episode> = results.iter().flatten().collect();
        report.segments.push(Segment {
            items: done.len() as u64,
            secs,
            latencies_us: done.iter().map(|e| e.micros).collect(),
        });
        report.failed += failures.len() as u64;
        tasks += specs.len();
        stats.push(run);
        episodes.extend(results);
    }
    if !traced {
        for (name, value) in layers::cache_ratios(&caches, &cache_report()) {
            report.scalar(name, value);
        }
    }
    add_scheduler(&mut report, &stats, tasks);

    report.attempted = episodes.len() as u64;
    let done: Vec<&Episode> = episodes.iter().flatten().collect();
    let bits: Vec<u8> = episodes
        .iter()
        .flat_map(|e| match e {
            Some(e) => [
                u8::from(e.success),
                u8::try_from(e.revisions).unwrap_or(u8::MAX),
            ],
            None => [u8::MAX, u8::MAX],
        })
        .collect();
    report.fingerprint = Some(rtlfixer_cache::fingerprint128(&bits));
    let fixed = done.iter().filter(|e| e.success).count();
    let revisions: usize = done.iter().map(|e| e.revisions).sum();
    report.scalar("agent.fix_rate", fixed as f64 / done.len().max(1) as f64);
    report.scalar(
        "agent.revisions_per_episode",
        revisions as f64 / done.len().max(1) as f64,
    );
    layers::check_claims(
        &mut report,
        episodes
            .into_iter()
            .flatten()
            .filter_map(|e| Some((e.success, e.final_code?))),
    );
    report
}

fn verdict_code(verdict: &Verdict) -> u8 {
    match verdict {
        Verdict::CompileError => 0,
        Verdict::SimMismatch => 1,
        Verdict::Pass => 2,
    }
}

/// One problem's samples: verdicts before and after repair, per sample.
struct ProblemRun {
    verdicts: Vec<(Verdict, Verdict)>,
    micros: Vec<f64>,
    /// `(fixed?, final source)` of each repaired sample.
    repairs: Vec<(bool, String)>,
    /// Revisions the repairs took, summed.
    revisions: usize,
}

fn evaluate_problem(
    problem: &rtlfixer_dataset::Problem,
    seed: u64,
    index: usize,
    samples: usize,
    traced: bool,
) -> ProblemRun {
    let span = |name| traced.then(|| trace::span(name));
    let pool_seed = episode_seed(CORPUS_SEED, 40, index as u64, 0);
    let mut generator = Generator::new(GenCapability::Gpt35, pool_seed);
    let mut run = ProblemRun {
        verdicts: Vec::new(),
        micros: Vec::new(),
        repairs: Vec::new(),
        revisions: 0,
    };
    for sample in 0..samples {
        let req = (index * samples + sample) as u64;
        if traced {
            trace::set_request(req);
        }
        let started = Instant::now();
        let _sample_span = span("eval.sample");
        let candidate = {
            let _span = span("dataset.sample");
            generator.sample(problem)
        };
        let code = {
            let _span = span("agent.prefix_fix");
            prefixer::prefix_fix(&candidate.code)
        };
        let original = layers::check(problem, &code, traced);
        let fixed = if original == Verdict::CompileError {
            let fix_seed = episode_seed(seed, 41, index as u64, sample as u64);
            let outcome = layers::repair(
                &RepairJob::new(&problem.description, &code, fix_seed),
                req,
                traced,
            );
            let verdict = layers::check(problem, &outcome.final_code, traced);
            run.revisions += outcome.revisions;
            run.repairs.push((outcome.success, outcome.final_code));
            verdict
        } else {
            original.clone()
        };
        run.verdicts.push((original, fixed));
        run.micros.push(micros(started));
    }
    run
}

/// One pass of the Table 2 flow over the VerilogEval Human and Machine
/// suites, one pool task per problem; `seed` drives the repairs. The pass
/// is a single segment: a few problems hold most of the simulation time,
/// so cutting the pass into shorter pool passes would leave a thread idle
/// at every barrier.
pub fn passk_sim(seed: u64, traced: bool, quick: bool) -> ChildReport {
    let (stride, samples) = if quick { (10, 2) } else { (1, 5) };
    let mut report = ChildReport::default();
    let setup = Instant::now();
    let mut problems = rtlfixer_dataset::verilog_eval_human();
    problems.extend(rtlfixer_dataset::verilog_eval_machine());
    let problems: Vec<_> = problems.into_iter().step_by(stride).collect();
    build_indexes();
    report.setup_s = setup.elapsed().as_secs_f64();

    let caches = cache_report();
    let start = Instant::now();
    let specs: Vec<EpisodeSpec> = (0..problems.len())
        .map(|p| EpisodeSpec {
            cell: 40,
            entry: p,
            repeat: 0,
            seed: episode_seed(seed, 40, p as u64, 0),
        })
        .collect();
    let features: Vec<EpisodeFeatures> = problems
        .iter()
        .map(|p| EpisodeFeatures::of(&p.description, None))
        .collect();
    let (results, failures, stats) = run_episodes_planned(JOBS, &specs, &features, |spec| {
        evaluate_problem(&problems[spec.entry], seed, spec.entry, samples, traced)
    });
    let secs = start.elapsed().as_secs_f64();
    if !traced {
        for (name, value) in layers::cache_ratios(&caches, &cache_report()) {
            report.scalar(name, value);
        }
    }
    add_scheduler(&mut report, &[stats], specs.len());

    report.attempted = (problems.len() * samples) as u64;
    report.failed = (failures.len() * samples) as u64;
    let runs: Vec<ProblemRun> = results.into_iter().flatten().collect();
    report.segments.push(Segment {
        items: (runs.len() * samples) as u64,
        secs,
        latencies_us: runs.iter().flat_map(|r| r.micros.iter().copied()).collect(),
    });
    let bits: Vec<u8> = runs
        .iter()
        .flat_map(|r| r.verdicts.iter())
        .flat_map(|(original, fixed)| [verdict_code(original), verdict_code(fixed)])
        .collect();
    report.fingerprint = Some(rtlfixer_cache::fingerprint128(&bits));
    let passes: Vec<(usize, usize)> = runs
        .iter()
        .map(|r| {
            (
                r.verdicts
                    .iter()
                    .filter(|(_, fixed)| *fixed == Verdict::Pass)
                    .count(),
                r.verdicts.len(),
            )
        })
        .collect();
    report.scalar("eval.pass1_fixed", mean_pass_at_k(&passes, 1));
    let revisions: usize = runs.iter().map(|r| r.revisions).sum();
    let repairs: Vec<(bool, String)> = runs.into_iter().flat_map(|r| r.repairs).collect();
    let fixed = repairs.iter().filter(|(success, _)| *success).count();
    report.scalar("agent.fix_rate", fixed as f64 / repairs.len().max(1) as f64);
    report.scalar(
        "agent.revisions_per_episode",
        revisions as f64 / repairs.len().max(1) as f64,
    );
    layers::check_claims(&mut report, repairs);
    report
}
