//! Reproduces **Table 1**: fix rate for One-shot vs ReAct, w/ and w/o RAG,
//! across feedback sources and LLMs, on VerilogEval-syntax.
//!
//! Run with `cargo run --release -p rtlfixer-bench --bin table1`
//! (add `--quick` for a scaled-down smoke run).

use rtlfixer_bench::{fmt3, record_run, render_table, RunScale};
use rtlfixer_eval::experiments::table1::{table1_merged, FixRateConfig};

fn main() {
    let scale = RunScale::from_args();
    let config = if scale.quick {
        FixRateConfig { max_entries: Some(40), repeats: 3, jobs: scale.jobs, ..Default::default() }
    } else {
        FixRateConfig { jobs: scale.jobs, ..Default::default() }
    };
    eprintln!(
        "Table 1: fix rate on VerilogEval-syntax ({} entries x {} repeats per cell, 14 cells)",
        config.max_entries.map_or(212, |c| c),
        config.repeats
    );
    let merged = table1_merged(&config);
    let rows: Vec<Vec<String>> = merged
        .cells
        .iter()
        .map(|cell| {
            vec![
                cell.strategy.clone(),
                if cell.rag { "w/" } else { "w/o" }.to_owned(),
                cell.compiler.clone(),
                cell.llm.clone(),
                fmt3(cell.fix_rate),
                fmt3(cell.paper),
                fmt3(cell.fix_rate - cell.paper),
                format!("{:.2}", cell.stats.seconds),
                format!("{:.0}", cell.stats.episodes_per_sec),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "Prompt", "RAG", "Feedback", "LLM", "measured", "paper", "delta", "secs",
                "eps/s",
            ],
            &rows
        )
    );
    println!("verdict_fingerprint: {:032x}", merged.verdict_fingerprint);
    let mut stats = rtlfixer_eval::RunStats::new(0, std::time::Duration::ZERO);
    for cell in &merged.cells {
        stats.accumulate(&cell.stats);
    }
    record_run("table1", scale.jobs, &stats);
    println!("{}", serde_json::to_string_pretty(&merged.cells).expect("serialises"));
}
