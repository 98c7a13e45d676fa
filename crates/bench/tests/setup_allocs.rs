//! Heap budget of simulator set-up.
//!
//! A counting global allocator tallies heap allocations (`alloc`,
//! `alloc_zeroed` and `realloc` calls) and live heap bytes on the calling
//! thread. Over the `conwaylife` solution, whose 16×16 generate loop
//! unrolls to 512 processes, and over all 299 VerilogEval Human and Machine
//! solutions, the test measures three things:
//!
//! * the allocations elaboration's flattening makes, per generate
//!   iteration for `conwaylife` and in total for the suites;
//! * the allocations a cold `Simulator::new` makes: flatten, lower, tape
//!   compile, fill the design cache and zero the state;
//! * the live heap one cached design keeps once its simulator is dropped.
//!
//! The bounds are the values measured when processes started borrowing
//! their bodies from the analysis and a cached design kept only its kernel,
//! plus headroom. Before that change, elaboration deep-cloned every process
//! body per generate iteration and the cached design kept those copies
//! beside its kernel; either coming back fails here.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashSet;

use rtlfixer_sim::Simulator;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn note(allocs: u64, bytes: i64) {
    // A thread being torn down has no counters left; nothing reads them.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + allocs));
    let _ = LIVE.try_with(|n| n.set(n.get() + bytes));
}

// SAFETY: every method forwards to `System` unchanged; counting touches
// only const-initialised thread-local `Cell`s, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size() as i64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size() as i64);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(1, new_size as i64 - layout.size() as i64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(0, -(layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f`, returning its result, the allocations it made and the heap
/// bytes it left live.
fn measure<R>(f: impl FnOnce() -> R) -> (R, u64, i64) {
    let (allocs, live) = (ALLOCS.with(Cell::get), LIVE.with(Cell::get));
    let out = f();
    (
        out,
        ALLOCS.with(Cell::get) - allocs,
        LIVE.with(Cell::get) - live,
    )
}

/// `conwaylife`'s generate iterations: 16 rows, each unrolling 16 cells.
const CONWAY_ITERATIONS: u64 = 16 + 16 * 16;

/// Flattening `conwaylife`, allocations per generate iteration (10.0 when
/// set; 199.2 when every process cloned its body).
const CONWAY_FLATTEN_PER_ITERATION: f64 = 12.0;
/// Flattening all 299 solutions (10,869 allocations when set; 118,516
/// before).
const SUITE_FLATTEN_ALLOCS: u64 = 12_500;
/// A cold `Simulator::new` of `conwaylife` (48,094 when set; 99,820
/// before).
const CONWAY_SETUP_ALLOCS: u64 = 53_000;
/// Cold `Simulator::new` over the suites' 156 distinct sources (59,396
/// when set; 114,057 before).
const SUITE_SETUP_ALLOCS: u64 = 66_000;
/// Heap `conwaylife`'s cached design keeps (2,584,852 bytes when set;
/// 5,002,181 before).
const CONWAY_KEPT_BYTES: i64 = 2_850_000;
/// Heap the 156 cached designs keep together (3,197,557 bytes when set;
/// 6,077,142 before).
const SUITE_KEPT_BYTES: i64 = 3_550_000;

#[test]
fn simulator_setup_stays_within_its_heap_budget() {
    rtlfixer_cache::set_enabled(true);
    // Warm the process-wide statics (design cache shards, switches) so the
    // first measured design does not pay for them.
    let warm = rtlfixer_verilog::compile("module warm(input a, output y); assign y = a; endmodule");
    drop(Simulator::new(&warm, "warm").expect("elaborates"));

    let problems: Vec<_> = rtlfixer_dataset::suites::verilog_eval_human()
        .into_iter()
        .chain(rtlfixer_dataset::suites::verilog_eval_machine())
        .collect();
    assert_eq!(problems.len(), 299);
    let analyses: Vec<_> = problems
        .iter()
        .map(|p| rtlfixer_verilog::compile(&p.solution))
        .collect();

    // Flattening alone: no cache involved.
    let mut suite_flatten = 0;
    let mut conway_flatten = None;
    for (problem, analysis) in problems.iter().zip(&analyses) {
        let (processes, allocs, _) =
            measure(|| rtlfixer_sim::elab::flatten(analysis, &problem.top).expect("elaborates"));
        suite_flatten += allocs;
        if problem.id == "human/conwaylife" {
            assert_eq!(processes, 513, "512 unrolled assigns and one clocked block");
            conway_flatten = Some(allocs);
        }
    }
    let conway_flatten = conway_flatten.expect("human/conwaylife is in the suite");

    // Cold set-up of each distinct source: every `Simulator::new` fills the
    // design cache, and what stays live once the simulator is dropped is
    // the cached design.
    let mut seen = HashSet::new();
    let (mut suite_setup, mut suite_kept, mut distinct) = (0, 0, 0);
    let mut conway = None;
    for (problem, analysis) in problems.iter().zip(&analyses) {
        if !seen.insert(analysis.fingerprint) {
            continue;
        }
        let (allocs, _, kept) = measure(|| {
            let (sim, allocs, _) = measure(|| Simulator::new(analysis, &problem.top));
            drop(sim.expect("elaborates"));
            allocs
        });
        distinct += 1;
        suite_setup += allocs;
        suite_kept += kept;
        if problem.id == "human/conwaylife" {
            conway = Some((allocs, kept));
        }
    }
    let (conway_setup, conway_kept) = conway.expect("human/conwaylife is in the suite");

    let per_iteration = conway_flatten as f64 / CONWAY_ITERATIONS as f64;
    println!(
        "conwaylife: flatten {conway_flatten} allocations ({per_iteration:.1} per generate \
         iteration), Simulator::new {conway_setup} allocations, cached design keeps \
         {conway_kept} bytes"
    );
    println!(
        "299 solutions ({distinct} distinct sources): flatten {suite_flatten} allocations, \
         Simulator::new {suite_setup} allocations, cached designs keep {suite_kept} bytes"
    );
    assert!(
        per_iteration <= CONWAY_FLATTEN_PER_ITERATION,
        "{per_iteration:.1} per iteration"
    );
    assert!(suite_flatten <= SUITE_FLATTEN_ALLOCS, "{suite_flatten}");
    assert!(conway_setup <= CONWAY_SETUP_ALLOCS, "{conway_setup}");
    assert!(suite_setup <= SUITE_SETUP_ALLOCS, "{suite_setup}");
    assert!(conway_kept <= CONWAY_KEPT_BYTES, "{conway_kept}");
    assert!(suite_kept <= SUITE_KEPT_BYTES, "{suite_kept}");
}
