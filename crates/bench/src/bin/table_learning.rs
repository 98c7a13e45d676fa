//! Learning curve: fix rate vs episodes served as the distilled guidance
//! store grows (DESIGN.md §3k).
//!
//! Replays the same iverilog episode grid round after round against one
//! shared `DistilledStore`; seeds never change between rounds, so any
//! movement in the fix rate is the retrieval loop feeding successful
//! repairs back into the database. Run with
//! `cargo run --release -p rtlfixer-bench --bin table_learning`
//! (add `--quick` for a scaled-down smoke run).

use rtlfixer_bench::{fmt3, record_run_with, render_table, RunScale};
use rtlfixer_eval::experiments::table_learning::{run_learning, LearningConfig};

fn main() {
    let scale = RunScale::from_args();
    let mut config = if scale.quick { LearningConfig::quick() } else { LearningConfig::full() };
    config.episodes.jobs = scale.jobs;

    let points = run_learning(&config);

    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.round.to_string(),
                fmt3(p.fix_rate),
                p.store_entries.to_string(),
                format!("{:.2}", p.stats.seconds),
                format!("{:.0}", p.stats.episodes_per_sec),
            ]
        })
        .collect();
    println!("== Learning curve (iverilog + ReAct ×10 + RAG, shared distilled store) ==");
    println!(
        "{}",
        render_table(&["round", "fix rate", "store", "secs", "eps/s"], &rows)
    );
    if let (Some(first), Some(last)) = (points.first(), points.last()) {
        println!(
            "fix rate {} -> {} over {} rounds ({} distilled briefs)",
            fmt3(first.fix_rate),
            fmt3(last.fix_rate),
            points.len(),
            last.store_entries
        );
    }

    let mut stats = rtlfixer_eval::RunStats::new(0, std::time::Duration::ZERO);
    for point in &points {
        stats.accumulate(&point.stats);
    }
    record_run_with(
        "table_learning",
        scale.jobs,
        &stats,
        &[("curve", serde_json::Value::from_serialize(&points))],
    );
}
