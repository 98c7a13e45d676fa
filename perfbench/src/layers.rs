//! The repair episode, plain or traced, and the per-layer probes of the
//! traced run.
//!
//! The traced episode is `rtlfixer_eval::run_repair`'s recipe with two
//! timing wrappers slipped in through public seams: a [`Retriever`] passed
//! to `RtlFixerBuilder::retriever` and a [`LanguageModel`] wrapped around
//! the resilient model. Outcome fingerprints of traced and plain runs must
//! match, which shows the wrappers leave the program unchanged.

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use rtlfixer_agent::{FixOutcome, RtlFixerBuilder};
use rtlfixer_compilers::CompilerKind;
use rtlfixer_dataset::{Problem, Verdict};
use rtlfixer_eval::{run_repair, RepairJob};
use rtlfixer_llm::{
    LanguageModel, RepairRequest, RepairResponse, RepairTurn, ResilientModel, SimulatedLlm,
};
use rtlfixer_rag::{
    hybrid_enabled, DefaultRetriever, GuidanceDatabase, HybridRetriever, RetrievalQuery, Retrieved,
    Retriever,
};

use crate::report::ChildReport;
use crate::trace;

/// Distinct final sources per process whose success claim is re-checked
/// with an uncached compile.
const CLAIMS_CHECKED: usize = 256;

static RETRIEVALS: AtomicU64 = AtomicU64::new(0);
static RETRIEVALS_WITH_HITS: AtomicU64 = AtomicU64::new(0);
/// Distinct candidate sources the model saw or proposed, by fingerprint.
static CANDIDATES: Mutex<BTreeMap<u128, String>> = Mutex::new(BTreeMap::new());
/// `(source fingerprint, top module)` pairs checked so far; the first check
/// of each times a simulator set-up.
static DESIGNS: Mutex<BTreeSet<(u128, String)>> = Mutex::new(BTreeSet::new());

struct TimedRetriever(Box<dyn Retriever>);

impl Retriever for TimedRetriever {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn retrieve<'a>(&self, db: &'a GuidanceDatabase, query: &RetrievalQuery) -> Vec<Retrieved<'a>> {
        let hits = {
            let _span = trace::span("rag.retrieve");
            self.0.retrieve(db, query)
        };
        RETRIEVALS.fetch_add(1, Ordering::Relaxed);
        if !hits.is_empty() {
            RETRIEVALS_WITH_HITS.fetch_add(1, Ordering::Relaxed);
        }
        hits
    }
}

struct TimedLlm<L>(L);

fn note_candidate(code: &str) {
    let key = rtlfixer_verilog::source_fingerprint(code);
    let mut candidates = CANDIDATES.lock().expect("candidate set lock");
    candidates.entry(key).or_insert_with(|| code.to_owned());
}

impl<L: LanguageModel> LanguageModel for TimedLlm<L> {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn begin_episode(&mut self) {
        self.0.begin_episode();
    }

    fn propose_repair(&mut self, request: &RepairRequest) -> RepairResponse {
        self.0.propose_repair(request)
    }

    fn propose_repair_turn(&mut self, request: &RepairRequest) -> RepairTurn {
        let turn = {
            let _span = trace::span("llm.turn");
            self.0.propose_repair_turn(request)
        };
        note_candidate(&request.code);
        if let Some(response) = &turn.response {
            note_candidate(&response.code);
        }
        turn
    }
}

/// Runs one repair episode: `run_repair` itself, or its traced twin
/// tagged with request `req`.
pub fn repair(job: &RepairJob, req: u64, traced: bool) -> FixOutcome {
    if !traced {
        return run_repair(job);
    }
    trace::set_request(req);
    let _span = trace::span("agent.episode");
    let mut llm = ResilientModel::new(SimulatedLlm::new(job.capability, job.seed), job.seed);
    if let Some(deadline) = job.deadline_ms {
        llm = llm.with_deadline(deadline);
    }
    // `RtlFixerBuilder`'s own default retriever, wrapped.
    let retriever: Box<dyn Retriever> = if hybrid_enabled() {
        Box::new(HybridRetriever::new())
    } else {
        Box::new(DefaultRetriever::new())
    };
    let mut builder = RtlFixerBuilder::new()
        .compiler(job.compiler)
        .strategy(job.strategy)
        .with_rag(job.rag)
        .fault_seed(job.seed)
        .retriever(Box::new(TimedRetriever(retriever)));
    if let Some(store) = job.distilled {
        builder = builder.distilled(Arc::clone(store));
    }
    builder
        .build(TimedLlm(llm))
        .fix_problem(job.problem, job.code)
}

/// `problem.check(code)`; traced, the first sight of each design also times
/// a `Simulator::new` of it (elaborate, lower, tape compile) as `sim.setup`.
pub fn check(problem: &Problem, code: &str, traced: bool) -> Verdict {
    if !traced {
        return problem.check(code);
    }
    let key = (
        rtlfixer_verilog::source_fingerprint(code),
        problem.top.clone(),
    );
    let first_sight = DESIGNS.lock().expect("design set lock").insert(key);
    if first_sight {
        let analysis = rtlfixer_verilog::compile_shared(code);
        if analysis.is_ok() && analysis.file.module(&problem.top).is_some() {
            let _span = trace::span("sim.setup");
            let _ = black_box(rtlfixer_sim::Simulator::new(&analysis, &problem.top));
        }
    }
    let _span = trace::span("sim.check");
    problem.check(code)
}

/// Per-layer scalars the probes above collected, plus an uncached compile
/// — frontend analysis, then the Quartus log render — of (at most
/// `limit` of) the distinct candidates the model saw, timed as
/// `compilers.compile`.
pub fn probe_scalars(limit: usize) -> Vec<(&'static str, f64)> {
    let candidates = std::mem::take(&mut *CANDIDATES.lock().expect("candidate set lock"));
    let compiler = CompilerKind::Quartus.build();
    for source in candidates.values().take(limit) {
        let _span = trace::span("compilers.compile");
        // `Compiler::compile` reads the process-wide analysis cache, which
        // the episodes filled; the uncached frontend run is the miss cost.
        black_box(rtlfixer_verilog::compile(source));
        black_box(compiler.compile(source, "top_module.v"));
    }
    let retrievals = RETRIEVALS.load(Ordering::Relaxed);
    let hit_share = if retrievals == 0 {
        0.0
    } else {
        RETRIEVALS_WITH_HITS.load(Ordering::Relaxed) as f64 / retrievals as f64
    };
    let designs = DESIGNS.lock().expect("design set lock").len();
    vec![
        ("rag.hit_share", hit_share),
        ("compilers.distinct_sources", candidates.len() as f64),
        ("sim.designs", designs as f64),
    ]
}

/// Re-checks success claims: a claimed fix must compile clean under an
/// uncached frontend run, and a failed episode's final source must not.
pub fn check_claims(report: &mut ChildReport, claims: impl IntoIterator<Item = (bool, String)>) {
    let mut seen = HashSet::new();
    for (success, code) in claims {
        if seen.len() == CLAIMS_CHECKED {
            break;
        }
        if seen.insert(rtlfixer_verilog::source_fingerprint(&code))
            && rtlfixer_verilog::compile(&code).is_ok() != success
        {
            report.gates.push(format!(
                "an episode reported success={success} for a source that disagrees"
            ));
        }
    }
}

/// Hit ratios of the three process-wide artifact caches between two
/// snapshots.
pub fn cache_ratios(
    before: &rtlfixer_eval::runner::CacheReport,
    after: &rtlfixer_eval::runner::CacheReport,
) -> Vec<(&'static str, f64)> {
    use rtlfixer_eval::runner::CacheCounters;
    let ratio = |a: &CacheCounters, b: &CacheCounters| {
        let hits = b.hits - a.hits;
        let lookups = hits + b.misses - a.misses;
        if lookups == 0 {
            0.0
        } else {
            hits as f64 / lookups as f64
        }
    };
    vec![
        (
            "compilers.outcome_hit_ratio",
            ratio(&before.outcomes, &after.outcomes),
        ),
        (
            "verilog.analysis_hit_ratio",
            ratio(&before.analyses, &after.analyses),
        ),
        (
            "sim.design_hit_ratio",
            ratio(&before.designs, &after.designs),
        ),
    ]
}
