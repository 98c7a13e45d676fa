//! Reproduces **Figure 4**: VerilogEval pass@1 outcome shares prior
//! (inner ring) and post (outer ring) syntax fixing — the pie charts.
//!
//! Run with `cargo run --release -p rtlfixer-bench --bin figure4`.

use rtlfixer_bench::{fmt3, record_run, render_table, RunScale};
use rtlfixer_eval::experiments::table2::{evaluate_suite, PassAtKConfig};

fn main() {
    let scale = RunScale::from_args();
    let config = if scale.quick {
        PassAtKConfig { samples: 8, max_problems: Some(30), seed: 11, jobs: scale.jobs }
    } else {
        PassAtKConfig { jobs: scale.jobs, ..Default::default() }
    };
    eprintln!("Figure 4: outcome shares before/after fixing");
    let mut rows = Vec::new();
    let mut stats = rtlfixer_eval::RunStats::new(0, std::time::Duration::ZERO);
    for (label, problems) in [
        ("Human", rtlfixer_dataset::verilog_eval_human()),
        ("Machine", rtlfixer_dataset::verilog_eval_machine()),
    ] {
        let evaluation = evaluate_suite(label, &problems, &config);
        stats.accumulate(&evaluation.stats);
        for (ring, shares) in [
            ("prior (inner)", evaluation.shares_original),
            ("post (outer)", evaluation.shares_fixed),
        ] {
            rows.push(vec![
                label.to_owned(),
                ring.to_owned(),
                fmt3(shares.pass),
                fmt3(shares.syntax_error),
                fmt3(shares.sim_error),
            ]);
        }
    }
    println!(
        "{}",
        render_table(&["Suite", "Ring", "pass", "syntax error", "sim error"], &rows)
    );
    println!("Paper (Human): pass rises 0.267 -> 0.368 purely from syntax fixing.");
    record_run("figure4", scale.jobs, &stats);
}
