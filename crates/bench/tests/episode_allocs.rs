//! Heap-allocation budget of repair episodes.
//!
//! A counting global allocator tallies every heap allocation (`alloc`,
//! `alloc_zeroed` and `realloc` calls) on the calling thread. The test
//! runs a slice of the Table 1 grid twice on one thread, with every
//! process-wide default pinned: the first pass fills the process-wide
//! caches (analyses, compile outcomes, the databases' indexes and briefs),
//! the second reads them. The warm pass is what a long batch run or a busy
//! daemon pays per episode, so its counts are the budget: per episode,
//! per model turn and per retrieval.
//!
//! The bounds are the counts measured when model turns stopped building
//! text and retrieval moved into per-thread scratch buffers, plus
//! headroom: a turn that formats a key or a thought per diagnostic again,
//! or a retrieval that allocates its working vectors again, fails here.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rtlfixer_agent::{RtlFixerBuilder, Strategy};
use rtlfixer_compilers::CompilerKind;
use rtlfixer_eval::episode_seed;
use rtlfixer_llm::{
    Capability, LanguageModel, RepairRequest, RepairResponse, RepairTurn, ResilientModel,
    SimulatedLlm,
};
use rtlfixer_rag::{GuidanceDatabase, HybridRetriever, RetrievalQuery, Retrieved, Retriever};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static TURN_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static TURNS: Cell<u64> = const { Cell::new(0) };
    static RETRIEVAL_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static RETRIEVALS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // A thread being torn down has no counter left; its frees are not
    // counted anyway.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; counting touches
// only a const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

fn add(cell: &'static std::thread::LocalKey<Cell<u64>>, n: u64) {
    cell.with(|c| c.set(c.get() + n));
}

/// The hybrid retriever, counting what its calls allocate (their result
/// vector included).
struct CountedRetriever(HybridRetriever);

impl Retriever for CountedRetriever {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn retrieve<'a>(
        &self,
        db: &'a GuidanceDatabase,
        query: &RetrievalQuery<'_>,
    ) -> Vec<Retrieved<'a>> {
        let before = allocs();
        let hits = self.0.retrieve(db, query);
        add(&RETRIEVAL_ALLOCS, allocs() - before);
        add(&RETRIEVALS, 1);
        hits
    }
}

/// The episode's model, counting what its turns allocate (the response's
/// code and reasoning included).
struct CountedModel<L>(L);

impl<L: LanguageModel> LanguageModel for CountedModel<L> {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn begin_episode(&mut self) {
        self.0.begin_episode();
    }

    fn propose_repair(&mut self, request: &RepairRequest<'_>) -> RepairResponse {
        self.0.propose_repair(request)
    }

    fn propose_repair_turn(&mut self, request: &RepairRequest<'_>) -> RepairTurn {
        let before = allocs();
        let turn = self.0.propose_repair_turn(request);
        add(&TURN_ALLOCS, allocs() - before);
        add(&TURNS, 1);
        turn
    }
}

/// The VerilogEval-syntax curation seed of the paper grids.
const CORPUS_SEED: u64 = 7;
/// Entries and repeats of the slice; every Table 1 fixer configuration
/// runs over it.
const ENTRIES: usize = 64;
const REPEATS: usize = 2;

/// `repair_grid`'s four Table 1 fixer configurations.
const CONFIGS: [(Strategy, CompilerKind, bool); 4] = [
    (Strategy::React { max_iterations: 10 }, CompilerKind::Quartus, true),
    (Strategy::React { max_iterations: 10 }, CompilerKind::Iverilog, true),
    (Strategy::React { max_iterations: 10 }, CompilerKind::Quartus, false),
    (Strategy::OneShot, CompilerKind::Quartus, true),
];

/// Allocations of one pass over the slice.
#[derive(Debug, Clone, Copy)]
struct Pass {
    episodes: u64,
    total: u64,
    turns: u64,
    turn_allocs: u64,
    retrievals: u64,
    retrieval_allocs: u64,
}

impl Pass {
    fn per_episode(&self) -> f64 {
        self.total as f64 / self.episodes as f64
    }

    fn per_turn(&self) -> f64 {
        self.turn_allocs as f64 / self.turns as f64
    }

    fn per_retrieval(&self) -> f64 {
        self.retrieval_allocs as f64 / self.retrievals as f64
    }

    fn report(&self, name: &str) {
        let per = |n: u64| n as f64 / self.episodes as f64;
        eprintln!(
            "{name}: {} episodes, {:.1} allocations per episode ({:.1} in model turns, {:.1} in \
             retrieval, {:.1} elsewhere); {:.2} per turn over {} turns, {:.2} per retrieval over \
             {} retrievals",
            self.episodes,
            self.per_episode(),
            per(self.turn_allocs),
            per(self.retrieval_allocs),
            per(self.total - self.turn_allocs - self.retrieval_allocs),
            self.per_turn(),
            self.turns,
            self.per_retrieval(),
            self.retrievals,
        );
    }
}

fn counters() -> (u64, u64, u64, u64) {
    (
        TURNS.with(Cell::get),
        TURN_ALLOCS.with(Cell::get),
        RETRIEVALS.with(Cell::get),
        RETRIEVAL_ALLOCS.with(Cell::get),
    )
}

fn pass(dataset: &[rtlfixer_dataset::SyntaxBenchEntry]) -> Pass {
    let (turns, turn_allocs, retrievals, retrieval_allocs) = counters();
    let mut episodes = 0;
    let before = allocs();
    for (cell, &(strategy, compiler, rag)) in CONFIGS.iter().enumerate() {
        for (index, entry) in dataset.iter().take(ENTRIES).enumerate() {
            for repeat in 0..REPEATS {
                let seed = episode_seed(1, cell as u64, index as u64, repeat as u64);
                let llm = ResilientModel::with_spec(
                    SimulatedLlm::new(Capability::Gpt35Class, seed),
                    None,
                    seed,
                );
                let outcome = RtlFixerBuilder::new()
                    .compiler(compiler)
                    .strategy(strategy)
                    .with_rag(rag)
                    .retriever(Box::new(CountedRetriever(HybridRetriever::new())))
                    .fault_seed(seed)
                    .fault_spec(None)
                    .build(CountedModel(llm))
                    .fix_problem(&entry.description, &entry.code);
                drop(outcome);
                episodes += 1;
            }
        }
    }
    let total = allocs() - before;
    let (turns_after, turn_allocs_after, retrievals_after, retrieval_allocs_after) = counters();
    Pass {
        episodes,
        total,
        turns: turns_after - turns,
        turn_allocs: turn_allocs_after - turn_allocs,
        retrievals: retrievals_after - retrievals,
        retrieval_allocs: retrieval_allocs_after - retrieval_allocs,
    }
}

#[test]
fn warm_episodes_stay_within_their_allocation_budget() {
    // Pin every process-wide switch an environment could flip.
    rtlfixer_cache::set_enabled(true);
    rtlfixer_obs::set_trace_path(None);
    rtlfixer_obs::set_telemetry(false);
    let dataset = rtlfixer_dataset::verilog_eval_syntax_shared(CORPUS_SEED);
    let cold = pass(&dataset);
    let warm = pass(&dataset);
    cold.report("cold");
    warm.report("warm");
    assert_eq!(warm.episodes, (CONFIGS.len() * ENTRIES * REPEATS) as u64);
    assert!(warm.turns > warm.episodes, "the slice must exercise multi-turn episodes");
    assert!(warm.retrievals > 0, "the slice must exercise retrieval");

    // Measured on this slice when the budget was set: 16.7 allocations per
    // warm episode (9.2 in model turns, 1.2 in retrieval), 4.57 per turn
    // and 1.00 per retrieval (its returned hits), against 50.3 per episode
    // (26.6 / 11.4), 13.16 per turn and 9.75 per retrieval before. Each
    // bound allows about 20% on top, or half an allocation per call.
    assert!(
        warm.per_episode() <= 20.0,
        "warm episodes allocate {:.1} times each (budget 20)",
        warm.per_episode()
    );
    assert!(
        warm.per_turn() <= 5.5,
        "warm model turns allocate {:.2} times each (budget 5.5)",
        warm.per_turn()
    );
    assert!(
        warm.per_retrieval() <= 1.5,
        "warm retrievals allocate {:.2} times each (budget 1.5)",
        warm.per_retrieval()
    );
}
