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
//! (`--quick` for the smoke-test cycle count). Multi-process mode:
//! `--shard i/n` measures the designs whose index strides onto shard `i`
//! and writes a fragment; `merge-shards n` reassembles the full design
//! table in canonical order (throughput numbers are wall-clock
//! measurements, so unlike table1/table2 they are not expected to be
//! bit-identical across runs — only the set of designs covered is).

use std::hint::black_box;
use std::time::{Duration, Instant};

use rtlfixer_bench::shards::{as_bool, as_str, as_usize, read_fragments, write_fragment};
use rtlfixer_bench::simdesigns::{SimDesign, SIM_DESIGNS};
use rtlfixer_bench::{die, record_run_with, render_table, RunScale};
use rtlfixer_eval::Shard;

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
/// and totals need, independent of which process measured it.
struct DesignResult {
    index: usize,
    row: Vec<String>,
    extra: serde_json::Value,
    cycles: usize,
    wall_nanos: u64,
}

/// Measures one design under both backends (same-process A/B).
fn run_design(index: usize, design: &SimDesign, cycles: usize) -> DesignResult {
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
        index,
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
        wall_nanos: (tree_wall + tape_wall).as_nanos() as u64,
    }
}

/// Renders and records a complete (unsharded or merged) design set.
fn finish(results: &[DesignResult], cycles: usize) {
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
    let total_wall: Duration = results.iter().map(|r| Duration::from_nanos(r.wall_nanos)).sum();
    let stats = rtlfixer_eval::RunStats::new(total_cycles, total_wall);
    println!(
        "total: {} cycles in {:.3}s ({:.0} eps/s)",
        stats.episodes, stats.seconds, stats.episodes_per_sec
    );
    let extra_keyed: Vec<(String, serde_json::Value)> = results
        .iter()
        .map(|r| (format!("design.{}", SIM_DESIGNS[r.index].name), r.extra.clone()))
        .collect();
    let extra_refs: Vec<(&str, serde_json::Value)> =
        extra_keyed.iter().map(|(k, v)| (k.as_str(), v.clone())).collect();
    record_run_with("simbench", 1, &stats, &extra_refs);
}

fn results_json(quick: bool, results: &[DesignResult]) -> serde_json::Value {
    let designs: Vec<serde_json::Value> = results
        .iter()
        .map(|r| {
            serde_json::json!({
                "index": r.index as u64,
                "name": SIM_DESIGNS[r.index].name,
                "row": r.row.clone(),
                "extra": r.extra.clone(),
                "cycles": r.cycles as u64,
                "wall_nanos": r.wall_nanos,
            })
        })
        .collect();
    serde_json::json!({ "quick": quick, "designs": designs })
}

/// Decodes fragments back into design results, validating the set covers
/// every design exactly once.
fn results_from_fragments(
    quick: bool,
    payloads: &[serde_json::Value],
) -> Result<Vec<DesignResult>, String> {
    let mut slots: Vec<Option<DesignResult>> = (0..SIM_DESIGNS.len()).map(|_| None).collect();
    for payload in payloads {
        if as_bool(&payload["quick"]) != Some(quick) {
            return Err(
                "fragment scale does not match this invocation (run merge-shards with the same \
                 --quick flag the shards used)"
                    .to_owned(),
            );
        }
        let designs = payload["designs"].as_array().ok_or("fragment missing `designs`")?;
        for design in designs {
            let index = design
                .get("index")
                .and_then(as_usize)
                .ok_or("fragment design missing `index`")?;
            let slot = slots
                .get_mut(index)
                .ok_or_else(|| format!("fragment design index {index} is outside the set"))?;
            if slot.is_some() {
                return Err(format!("design index {index} is covered twice across fragments"));
            }
            if as_str(&design["name"]) != Some(SIM_DESIGNS[index].name) {
                return Err(format!("fragment design {index} name does not match the set"));
            }
            let row = design["row"]
                .as_array()
                .ok_or("fragment design missing `row`")?
                .iter()
                .map(|c| as_str(c).map(str::to_owned).ok_or("non-string row cell"))
                .collect::<Result<Vec<_>, _>>()?;
            *slot = Some(DesignResult {
                index,
                row,
                extra: design["extra"].clone(),
                cycles: design.get("cycles").and_then(as_usize).ok_or("missing `cycles`")?,
                wall_nanos: design["wall_nanos"].as_u64().ok_or("missing `wall_nanos`")?,
            });
        }
    }
    slots
        .into_iter()
        .enumerate()
        .map(|(index, slot)| {
            slot.ok_or_else(|| {
                format!(
                    "design index {index} ({}) is missing from the merged fragments",
                    SIM_DESIGNS[index].name
                )
            })
        })
        .collect()
}

fn main() {
    let scale = RunScale::from_args();
    let cycles: usize = if scale.quick { 20_000 } else { 2_000_000 };

    if let Some(count) = scale.merge_shards {
        let payloads = read_fragments("simbench", count).unwrap_or_else(|e| die(e));
        let results = results_from_fragments(scale.quick, &payloads).unwrap_or_else(|e| die(e));
        eprintln!("simbench: merged {count} shards");
        finish(&results, cycles);
        return;
    }

    let shard = scale.shard.unwrap_or(Shard::FULL);
    let results: Vec<DesignResult> = SIM_DESIGNS
        .iter()
        .enumerate()
        .filter(|(index, _)| shard.owns(*index))
        .map(|(index, design)| run_design(index, design, cycles))
        .collect();

    if let Some(shard) = scale.shard {
        let path = write_fragment("simbench", shard, results_json(scale.quick, &results));
        println!("wrote fragment {} ({} designs)", path.display(), results.len());
        return;
    }
    finish(&results, cycles);
}
