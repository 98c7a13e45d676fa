//! Verdicts of the pass@k corpus's runaway-loop candidates.
//!
//! `repair_undeclared` declares a procedurally assigned name as a 1-bit
//! `reg`. When that name is a loop index, `i < 16` can never become false
//! and the loop runs to the simulator's 65,536-trip cap on every process
//! activation. These are the 15 such checks of one Table 2 pass (repair
//! seed 1), verbatim. Their `Problem::check` verdicts are pinned. A full
//! `run_testbench` over the same stimulus must fast-forward each runaway
//! loop instead of running every trip; the check itself stops at the first
//! mismatching cycle, which for `human/rrarb4` comes under reset, before
//! its loop ever runs, so the check must drive less than the full run.

use std::collections::BTreeMap;

use rtlfixer_dataset::suites::find_problem;
use rtlfixer_dataset::{Problem, Verdict};
use rtlfixer_sim::testbench::run_testbench;

const RRARB4: &str = r"module top_module(input clk, input reset, input [3:0] req, output reg [3:0] gnt);
reg k;
reg last;
reg [1:0] pick;
reg hit;
always @(posedge clk) begin
if (reset) begin gnt <= 1; last <= 3; end
else begin
hit = 0;
pick = 0;
for (k = 1; k <= 4; k = k + 1) begin
if (!hit && req[(last + k) % 4]) begin
pick = (last + k) % 4;
hit = 1;
end
end
if (hit) begin gnt <= 4'b0001 << pick; last <= pick; end
else gnt <= 4'b0000;
end
end
endmodule
";

const UNGRAY16_DOWN: &str = r"module top_module(input [15:0] g, output reg [15:0] b);
reg i;
always @* begin
  b = g;
for (i = 1; i < 16; i = i - 1) b = b ^ (g >> i);
end
endmodule
";

const UNGRAY16_AND: &str = r"module top_module(input [15:0] g, output reg [15:0] b);
reg i;
always @* begin
  b = g;
for (i = 1; i < 16; i = i + 1) b = b & (g >> i);
end
endmodule
";

const UNGRAY8_LE: &str = r"module top_module(input [7:0] g, output reg [7:0] b);
reg i;
always @(*) begin
  b = g;
for (i = 1; i <= 8; i = i + 1) b = b ^ (g >> i);
end
endmodule
";

const UNGRAY8_AND: &str = r"module top_module(input [7:0] g, output reg [7:0] b);
reg i;
always @* begin
  b = g;
for (i = 1; i < 8; i = i + 1) b = b & (g >> i);
end
endmodule
";

const POPCOUNT32: &str = r"module top_module(input [31:0] in, output reg [5:0] count);
reg i;
always @* begin
  count = 0;
for (i = 0; i < 32; i = i + 1) count = count + in[i];
end
endmodule
";

const REVERSE16: &str = r"module top_module(input [15:0] in, output reg [15:0] out);
reg i;
always @* begin
for (i = 0; i < 16; i = i + 1) out[i] = in[15 - i];
end
endmodule
";

const UNGRAY16: &str = r"module top_module(input [15:0] g, output reg [15:0] b);
reg i;
always @(*) begin
  b = g;
for (i = 1; i < 16; i = i + 1) b = b ^ (g >> i);

end
endmodule
";

const UNGRAY8: &str = r"module top_module(input [7:0] g, output reg [7:0] b);
reg i;
always @* begin
  b = g;
for (i = 1; i < 8; i = i + 1) b = b ^ (g >> i);
end
endmodule
";

const VECTOR100R: &str = r"module top_module(input [99:0] in, output reg [99:0] out);
reg i;
always @* begin
for (i = 0; i < 100; i = i + 1) out[i] = in[99 - i];

end
endmodule
";

const POPCOUNT16: &str = r"module top_module(input [15:0] in, output reg [4:0] count);
reg i;
always @* begin
  count = 0;
for (i = 0; i < 16; i = i + 1) count = count + in[i];

end
endmodule
";

const REVERSE32: &str = r"module top_module(input [31:0] in, output reg [31:0] out);
reg i;
always @* begin
for (i = 0; i < 32; i = i + 1) out[i] = in[31 - i];
end
endmodule
";

const CANDIDATES: [(&str, &str); 15] = [
    ("human/rrarb4", RRARB4),
    ("human/ungray16", UNGRAY16_DOWN),
    ("human/ungray16", UNGRAY16_AND),
    ("human/ungray8", UNGRAY8_LE),
    ("human/ungray8", UNGRAY8_AND),
    ("human/popcount32", POPCOUNT32),
    ("human/popcount32", POPCOUNT32),
    ("human/reverse16", REVERSE16),
    ("machine/ungray16", UNGRAY16),
    ("machine/ungray8", UNGRAY8),
    ("machine/vector100r", VECTOR100R),
    ("machine/popcount16", POPCOUNT16),
    ("machine/popcount32", POPCOUNT32),
    ("machine/reverse16", REVERSE16),
    ("machine/reverse32", REVERSE32),
];

/// Runs `f` in a telemetry episode and returns its counters.
fn counted<T>(f: impl FnOnce() -> T) -> (T, BTreeMap<String, u64>) {
    rtlfixer_obs::episode_begin();
    let out = f();
    (out, rtlfixer_obs::episode_end().expect("telemetry is on").counters)
}

/// A full `run_testbench` of `source` at `Problem::check`'s stimulus seed.
fn full_run(problem: &Problem, source: &str) {
    let analysis = rtlfixer_verilog::compile_shared(source);
    let mut golden = (problem.golden)();
    let stimuli = problem.stimuli(0xC0FFEE);
    let result =
        run_testbench(&analysis, &problem.top, golden.as_mut(), &stimuli, &problem.clocking)
            .expect("the candidate simulates");
    assert!(!result.passed);
}

#[test]
fn runaway_candidates_keep_their_verdicts_and_fast_forward() {
    rtlfixer_obs::set_telemetry(true);
    for (id, source) in CANDIDATES {
        let problem = find_problem(id).expect("corpus problem");
        let ((), full) = counted(|| full_run(&problem, source));
        let skips = full.get("sim.loop_fast_forwards").copied().unwrap_or(0);
        assert!(skips > 0, "{id}: the runaway loop was not fast-forwarded\n{source}");
        let (verdict, check) = counted(|| problem.check(source));
        assert_eq!(verdict, Verdict::SimMismatch, "{id}:\n{source}");
        let sweeps = |counters: &BTreeMap<String, u64>| {
            counters.get("sim.settle_sweeps").copied().unwrap_or(0)
        };
        let (ran, bound) = (sweeps(&check), sweeps(&full));
        assert!(
            0 < ran && ran < bound,
            "{id}: the check ran {ran} settle sweeps, the full run {bound}\n{source}"
        );
    }
}
