//! Reproduces **Table 2**: pass@{1,5} on VerilogEval (Human and Machine),
//! original vs after syntax fixing, with the All/easy/hard splits.
//!
//! Run with `cargo run --release -p rtlfixer-bench --bin table2`
//! (add `--quick` for a scaled-down smoke run).

use rtlfixer_bench::{fmt3, record_run, render_table, RunScale};
use rtlfixer_eval::experiments::table2::{evaluate_suite, PassAtKConfig};

/// Paper values: (suite, set, pass1_orig, pass1_fixed, pass5_orig, pass5_fixed).
const PAPER: &[(&str, &str, f64, f64, f64, f64)] = &[
    ("Human", "All", 0.267, 0.368, 0.458, 0.506),
    ("Human", "easy", 0.521, 0.666, 0.808, 0.847),
    ("Human", "hard", 0.053, 0.120, 0.164, 0.221),
    ("Machine", "All", 0.467, 0.799, 0.691, 0.891),
    ("Machine", "easy", 0.568, 0.833, 0.782, 0.892),
    ("Machine", "hard", 0.367, 0.771, 0.601, 0.890),
];

fn main() {
    let scale = RunScale::from_args();
    let config = if scale.quick {
        PassAtKConfig { samples: 8, max_problems: Some(30), seed: 11, jobs: scale.jobs }
    } else {
        PassAtKConfig { jobs: scale.jobs, ..Default::default() }
    };
    eprintln!(
        "Table 2: pass@k on VerilogEval (n = {} samples/problem{})",
        config.samples,
        config.max_problems.map_or(String::new(), |c| format!(", first {c} problems"))
    );
    let human = evaluate_suite("Human", &rtlfixer_dataset::verilog_eval_human(), &config);
    let machine = evaluate_suite("Machine", &rtlfixer_dataset::verilog_eval_machine(), &config);
    let mut rows = Vec::new();
    for evaluation in [&human, &machine] {
        for row in &evaluation.rows {
            let paper = PAPER
                .iter()
                .find(|(suite, set, ..)| *suite == evaluation.suite && *set == row.set);
            let paper_cells = match paper {
                Some((_, _, p1o, p1f, p5o, p5f)) => {
                    (fmt3(*p1o), fmt3(*p1f), fmt3(*p5o), fmt3(*p5f))
                }
                None => ("-".into(), "-".into(), "-".into(), "-".into()),
            };
            rows.push(vec![
                evaluation.suite.clone(),
                row.set.clone(),
                format!("{}", row.problems),
                fmt3(row.pass1_original),
                fmt3(row.pass1_fixed),
                paper_cells.0,
                paper_cells.1,
                fmt3(row.pass5_original),
                fmt3(row.pass5_fixed),
                paper_cells.2,
                paper_cells.3,
            ]);
        }
    }
    println!(
        "{}",
        render_table(
            &[
                "Dataset", "Set", "#", "p@1 orig", "p@1 fixed", "paper orig", "paper fixed",
                "p@5 orig", "p@5 fixed", "paper orig", "paper fixed",
            ],
            &rows
        )
    );
    let mut stats = human.stats;
    stats.accumulate(&machine.stats);
    record_run("table2", scale.jobs, &stats);
    println!("{}", serde_json::to_string_pretty(&[human, machine]).expect("serialises"));
}
