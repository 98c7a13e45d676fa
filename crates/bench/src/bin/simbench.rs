//! Steady-state simulator throughput: cycles/sec on the shared benchmark
//! design set (see `rtlfixer_bench::simdesigns`), measured under both
//! kernel backends — the tree-walking event kernel (`tree`) and the
//! compiled register-bytecode tape (`tape`) — in the same process via
//! `rtlfixer_sim::force_sim_backends`. Complements Criterion with recorded
//! numbers per design/backend so kernel regressions show up in
//! `results/bench_eval.json` next to the experiment throughput entries,
//! together with the tape compiler statistics (ops emitted / constant
//! folded / dead-eliminated) and the two-state fast-path hit ratio.
//!
//! Run with `cargo run --release -p rtlfixer-bench --bin simbench`
//! (`--quick` for the smoke-test cycle count).

use std::hint::black_box;
use std::time::{Duration, Instant};

use rtlfixer_bench::simdesigns::{SimDesign, SIM_DESIGNS};
use rtlfixer_bench::{record_run_with, render_table, RunScale};

/// Runs `design` for `cycles` cycles on a fresh simulator under the
/// currently forced backend; returns wall time plus the simulator's tape
/// runtime counters (fast-path hits / fallbacks, both 0 on the tree path).
fn measure(design: &SimDesign, cycles: usize) -> (Duration, u64, u64) {
    let mut sim = design.build();
    let start = Instant::now();
    for i in 0..cycles as u64 {
        (design.step)(&mut sim, i);
        black_box(sim.peek(design.watch));
    }
    let wall = start.elapsed();
    let (hits, falls) = sim.tape_runtime();
    (wall, hits, falls)
}

fn per_sec(cycles: usize, wall: Duration) -> f64 {
    let seconds = wall.as_secs_f64();
    if seconds > 0.0 {
        cycles as f64 / seconds
    } else {
        0.0
    }
}

/// One design's measurements: everything the final table, JSON record,
/// and totals need.
struct DesignResult {
    name: &'static str,
    row: Vec<String>,
    extra: serde_json::Value,
    cycles: usize,
    wall: Duration,
}

/// Measures one design under both backends (same-process A/B).
fn run_design(design: &SimDesign, cycles: usize) -> DesignResult {
    rtlfixer_sim::force_sim_backends(None, Some(false));
    let (tree_wall, _, _) = measure(design, cycles);
    rtlfixer_sim::force_sim_backends(None, Some(true));
    let (tape_wall, fast_hits, fast_falls) = measure(design, cycles);
    rtlfixer_sim::force_sim_backends(None, None);

    let tree_cps = per_sec(cycles, tree_wall);
    let tape_cps = per_sec(cycles, tape_wall);
    let speedup = if tree_cps > 0.0 { tape_cps / tree_cps } else { 0.0 };
    let runs = fast_hits + fast_falls;
    let fast_ratio = if runs > 0 { fast_hits as f64 / runs as f64 } else { 0.0 };

    let stats = design.build().tape_stats();
    rtlfixer_obs::counter_add(
        &format!("simbench.{}.tape_ops_emitted", design.name),
        stats.ops_emitted,
    );
    rtlfixer_obs::counter_add(
        &format!("simbench.{}.tape_ops_folded", design.name),
        stats.ops_folded,
    );
    rtlfixer_obs::counter_add(&format!("simbench.{}.tape_ops_dead", design.name), stats.ops_dead);

    DesignResult {
        name: design.name,
        row: vec![
            format!("cycle_{}", design.name),
            cycles.to_string(),
            format!("{tree_cps:.0}"),
            format!("{tape_cps:.0}"),
            format!("{speedup:.2}x"),
            format!("{:.0}%", fast_ratio * 100.0),
            stats.limb_class.to_string(),
        ],
        extra: serde_json::json!({
            "cycles": cycles,
            "tree_cycles_per_sec": tree_cps,
            "tape_cycles_per_sec": tape_cps,
            "speedup": speedup,
            "fast_hit_ratio": fast_ratio,
            "tape_ops_emitted": stats.ops_emitted,
            "tape_ops_folded": stats.ops_folded,
            "tape_ops_dead_eliminated": stats.ops_dead,
            "tape_procs": stats.taped,
            "tape_fast_procs": stats.fast,
            "limb_class": stats.limb_class,
            "fast_rejected_procs": stats.fast_rejected,
        }),
        // Both backend passes count toward recorded totals.
        cycles: cycles * 2,
        wall: tree_wall + tape_wall,
    }
}

fn main() {
    let scale = RunScale::from_args();
    let cycles: usize = if scale.quick { 20_000 } else { 2_000_000 };
    let results: Vec<DesignResult> =
        SIM_DESIGNS.iter().map(|design| run_design(design, cycles)).collect();

    let rows: Vec<Vec<String>> = results.iter().map(|r| r.row.clone()).collect();
    println!("Simulator cycle throughput ({cycles} cycles per design per backend):");
    print!(
        "{}",
        render_table(
            &[
                "design",
                "cycles",
                "tree c/s",
                "tape c/s",
                "speedup",
                "fast-path",
                "limbs",
            ],
            &rows,
        )
    );

    let total_cycles: usize = results.iter().map(|r| r.cycles).sum();
    let total_wall: Duration = results.iter().map(|r| r.wall).sum();
    let stats = rtlfixer_eval::RunStats::new(total_cycles, total_wall);
    println!(
        "total: {} cycles in {:.3}s ({:.0} eps/s)",
        stats.episodes, stats.seconds, stats.episodes_per_sec
    );
    let extra_keyed: Vec<(String, serde_json::Value)> = results
        .iter()
        .map(|r| (format!("design.{}", r.name), r.extra.clone()))
        .collect();
    let extra_refs: Vec<(&str, serde_json::Value)> =
        extra_keyed.iter().map(|(k, v)| (k.as_str(), v.clone())).collect();
    record_run_with("simbench", 1, &stats, &extra_refs);
}
