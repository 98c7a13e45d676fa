//! Exactness of the fast tape's runaway-loop fast-forward.
//!
//! A loop that never exits on its own condition runs to the 65,536-trip
//! loop cap. Once such a loop's back-edge state repeats, the two-state
//! fast tape skips whole periods of it; the tree walker (the oracle)
//! always runs every trip. Each case drives the same stimulus through
//! both and requires identical values on every watched signal after every
//! cycle. The tape run's `sim.loop_fast_forwards` telemetry counter pins
//! whether the skip fired, so a silent return to running every capped trip
//! fails here rather than only in the benchmark.
//!
//! The first ten designs are repaired candidates from the pass@k corpus:
//! the repair declared a loop index as a 1-bit `reg`, so `i < 16` can
//! never become false.

use std::sync::Mutex;

use rtlfixer_sim::{force_sim_backends, value::LogicVec, Simulator};

/// `force_sim_backends` is process-global; runs must not overlap.
static BACKEND_LOCK: Mutex<()> = Mutex::new(());

/// `-1` step: the 1-bit index goes 1, 0, 1, … under `i < 16`.
const UNGRAY16_DOWN: &str = "module top_module(input [15:0] g, output reg [15:0] b);\n\
    reg i;\nalways @* begin\n  b = g;\n\
    for (i = 1; i < 16; i = i - 1) b = b ^ (g >> i);\nend\nendmodule";

/// `&` accumulate.
const UNGRAY16_AND: &str = "module top_module(input [15:0] g, output reg [15:0] b);\n\
    reg i;\nalways @* begin\n  b = g;\n\
    for (i = 1; i < 16; i = i + 1) b = b & (g >> i);\nend\nendmodule";

/// `<=` bound, `^` accumulate.
const UNGRAY8_LE: &str = "module top_module(input [7:0] g, output reg [7:0] b);\n\
    reg i;\nalways @(*) begin\n  b = g;\n\
    for (i = 1; i <= 8; i = i + 1) b = b ^ (g >> i);\nend\nendmodule";

const UNGRAY8: &str = "module top_module(input [7:0] g, output reg [7:0] b);\n\
    reg i;\nalways @* begin\n  b = g;\n\
    for (i = 1; i < 8; i = i + 1) b = b ^ (g >> i);\nend\nendmodule";

/// 6-bit accumulator: the period reaches 128 trips.
const POPCOUNT32: &str = "module top_module(input [31:0] in, output reg [5:0] count);\n\
    reg i;\nalways @* begin\n  count = 0;\n\
    for (i = 0; i < 32; i = i + 1) count = count + in[i];\nend\nendmodule";

/// 5-bit accumulator: the period reaches 64 trips.
const POPCOUNT16: &str = "module top_module(input [15:0] in, output reg [4:0] count);\n\
    reg i;\nalways @* begin\n  count = 0;\n\
    for (i = 0; i < 16; i = i + 1) count = count + in[i];\nend\nendmodule";

/// Bit stores through a runtime index.
const REVERSE16: &str = "module top_module(input [15:0] in, output reg [15:0] out);\n\
    reg i;\nalways @* begin\n\
    for (i = 0; i < 16; i = i + 1) out[i] = in[15 - i];\nend\nendmodule";

const REVERSE32: &str = "module top_module(input [31:0] in, output reg [31:0] out);\n\
    reg i;\nalways @* begin\n\
    for (i = 0; i < 32; i = i + 1) out[i] = in[31 - i];\nend\nendmodule";

/// 100-bit registers: the 2-limb fast-tape class.
const VECTOR100R: &str = "module top_module(input [99:0] in, output reg [99:0] out);\n\
    reg i;\nalways @* begin\n\
    for (i = 0; i < 100; i = i + 1) out[i] = in[99 - i];\nend\nendmodule";

/// Posedge block with blocking temporaries, a `% 4` index and
/// non-blocking writes after the loop.
const RRARB4: &str = "module top_module(input clk, input reset, input [3:0] req, \
    output reg [3:0] gnt);\n\
    reg k;\nreg last;\nreg [1:0] pick;\nreg hit;\n\
    always @(posedge clk) begin\n\
    if (reset) begin gnt <= 1; last <= 3; end\n\
    else begin\n\
    hit = 0;\npick = 0;\n\
    for (k = 1; k <= 4; k = k + 1) begin\n\
    if (!hit && req[(last + k) % 4]) begin\n\
    pick = (last + k) % 4;\nhit = 1;\nend\nend\n\
    if (hit) begin gnt <= 4'b0001 << pick; last <= pick; end\n\
    else gnt <= 4'b0000;\nend\nend\nendmodule";

/// An `integer` index counting down under `i >= 0`. The simulator
/// compares unsigned, so the condition never fails (under `i < 16` the
/// index would wrap past zero and end the loop after 16 trips): the loop
/// runs to the cap with a state that never repeats.
const COUNT_DOWN: &str = "module top_module(input [7:0] a, output reg [31:0] y);\n\
    integer i;\nalways @* begin\n  y = 0;\n\
    for (i = 15; i >= 0; i = i - 1) y = y + a;\nend\nendmodule";

/// A runaway loop queueing a non-blocking write on every trip.
const NBA_LOOP: &str = "module top_module(input clk, input [3:0] d, output reg [3:0] q);\n\
    reg i;\nalways @(posedge clk) begin\n\
    for (i = 0; i < 2; i = i + 1) q[i] <= d[i] ^ q[i];\nend\nendmodule";

/// A runaway inner loop inside a terminating outer loop: every outer trip
/// starts a new instance of the inner loop.
const INNER_RUNAWAY: &str = "module top_module(input [7:0] a, output reg [7:0] y);\n\
    integer j;\nreg i;\nalways @* begin\n  y = 0;\n\
    for (j = 0; j < 3; j = j + 1)\n\
    for (i = 0; i < 2; i = i + 1) y = y + a + j;\nend\nendmodule";

/// A runaway outer loop around a terminating inner loop whose counter is
/// part of the outer loop's state.
const OUTER_RUNAWAY: &str = "module top_module(input [7:0] a, output reg [7:0] y);\n\
    integer j;\nreg i;\nalways @* begin\n  y = 0;\n\
    for (i = 0; i < 2; i = i + 1)\n\
    for (j = 0; j < a[1:0]; j = j + 1) y = y + a;\nend\nendmodule";

/// Both loops runaway: 2^32 trips in all, so no oracle; after them
/// `y = (2^32 * a) % 7 = (4 * a) % 7`.
const BOTH_RUNAWAY: &str = "module top_module(input [2:0] a, output reg [2:0] y);\n\
    reg k;\nreg i;\nalways @* begin\n  y = 0;\n\
    for (k = 0; k < 2; k = k + 1)\n\
    for (i = 0; i < 2; i = i + 1) y = (y + a) % 7;\nend\nendmodule";

/// Period 7, and 65,536 trips leave remainder 2 mod 7: `y` ends at 2.
const PERIOD7: &str = "module top_module(input go, output reg [2:0] y);\n\
    always @* begin\n  y = 0;\n\
    while (go && y < 8) y = (y + 1) % 7;\nend\nendmodule";

/// Terminating loops only: `for` (not unrollable: runtime bound) and
/// `while` under 100 trips.
const TERMINATING: &str = "module top_module(input [6:0] n, output reg [15:0] y);\n\
    integer i;\nreg [6:0] k;\nalways @* begin\n  y = 0;\n\
    for (i = 0; i < n; i = i + 1) y = y + i;\n\
    k = n;\nwhile (k != 0) begin y = y + 1; k = k - 1; end\nend\nendmodule";

/// One cycle of stimulus: `(input, width, value)` pokes.
type Pokes = Vec<(&'static str, u32, u128)>;

/// Runs `stimulus` on a fresh simulator (tree walker or tape) and returns
/// the values of `watch` after every cycle, plus the loop fast-forwards
/// counted meanwhile.
fn run(
    source: &str,
    clock: Option<&str>,
    watch: &[&str],
    stimulus: &[Pokes],
    tape: bool,
) -> (Vec<LogicVec>, u64) {
    force_sim_backends(None, Some(tape));
    rtlfixer_obs::set_telemetry(true);
    rtlfixer_obs::episode_begin();
    let analysis = rtlfixer_verilog::compile(source);
    assert!(analysis.is_ok(), "{:?}", analysis.diagnostics);
    let mut sim = Simulator::new(&analysis, "top_module").expect("design elaborates");
    sim.run_initial().expect("initial");
    let mut transcript = Vec::new();
    for pokes in stimulus {
        for &(name, width, value) in pokes {
            sim.poke(name, LogicVec::from_u128(width, value)).expect("port");
        }
        match clock {
            Some(clk) => sim.clock_cycle(clk).expect("cycle"),
            None => sim.settle().expect("settles"),
        }
        for name in watch {
            transcript.push(sim.peek(name).expect("signal"));
        }
    }
    let telemetry = rtlfixer_obs::episode_end().expect("telemetry is on");
    force_sim_backends(None, None);
    (transcript, telemetry.counters.get("sim.loop_fast_forwards").copied().unwrap_or(0))
}

/// Runs `source` under the tree walker and the tape, requires identical
/// transcripts, and returns the tape's transcript and fast-forward count.
fn tape_vs_oracle(
    source: &str,
    clock: Option<&str>,
    watch: &[&str],
    stimulus: &[Pokes],
) -> (Vec<LogicVec>, u64) {
    let _guard = BACKEND_LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let (tree, tree_skips) = run(source, clock, watch, stimulus, false);
    let (tape, skips) = run(source, clock, watch, stimulus, true);
    assert_eq!(tree_skips, 0, "the tree walker runs every trip");
    assert_eq!(tree, tape, "tape diverges from the tree walker");
    (tape, skips)
}

/// Three values of one input.
fn vectors(name: &'static str, width: u32, values: [u128; 3]) -> Vec<Pokes> {
    values.iter().map(|&v| vec![(name, width, v)]).collect()
}

#[test]
fn corpus_runaway_loops_fast_forward_exactly() {
    let cases: [(&str, &str, &str, u32); 9] = [
        (UNGRAY16_DOWN, "g", "b", 16),
        (UNGRAY16_AND, "g", "b", 16),
        (UNGRAY8_LE, "g", "b", 8),
        (UNGRAY8, "g", "b", 8),
        (POPCOUNT32, "in", "count", 32),
        (POPCOUNT16, "in", "count", 16),
        (REVERSE16, "in", "out", 16),
        (REVERSE32, "in", "out", 32),
        (VECTOR100R, "in", "out", 100),
    ];
    for (source, input, output, width) in cases {
        let mask = (1u128 << width) - 1;
        let stimulus = vectors(input, width, [
            0x9E37_79B9_7F4A_7C15_F39C_C060_5CED_C834 & mask,
            0x0123_4567_89AB_CDEF_0123_4567_89AB_CDEF & mask,
            0x5555_5555_5555_5555_5555_5555_5555_5555 & mask,
        ]);
        let (_, skips) = tape_vs_oracle(source, None, &[output, "i"], &stimulus);
        assert!(skips >= 3, "no fast-forward in\n{source}");
    }
}

#[test]
fn clocked_runaway_loop_with_blocking_temporaries_fast_forwards_exactly() {
    let stimulus: Vec<Pokes> = [(1, 0b0000), (0, 0b1011), (0, 0b0110), (0, 0b0001), (0, 0)]
        .iter()
        .map(|&(reset, req)| vec![("reset", 1, reset), ("req", 4, req)])
        .collect();
    let watch = ["gnt", "last", "pick", "hit", "k"];
    let (_, skips) = tape_vs_oracle(RRARB4, Some("clk"), &watch, &stimulus);
    assert!(skips >= 4, "no fast-forward on the posedge loop");
}

#[test]
fn capped_loop_without_a_repeating_state_runs_every_trip() {
    let stimulus = vectors("a", 8, [3, 0xA5, 0xFF]);
    let (tape, skips) = tape_vs_oracle(COUNT_DOWN, None, &["y", "i"], &stimulus);
    assert_eq!(skips, 0, "a state that never repeats must not be skipped");
    // The loop ran to the 65,536-trip cap.
    assert_eq!(tape[0].to_u64(), Some(3 * 65_536));
}

#[test]
fn runaway_loop_queueing_non_blocking_writes_is_never_skipped() {
    let stimulus = vectors("d", 4, [0b0011, 0b0101, 0b1110]);
    let (_, skips) = tape_vs_oracle(NBA_LOOP, Some("clk"), &["q", "i"], &stimulus);
    assert_eq!(skips, 0, "every trip queues a write, so the state never repeats");
}

#[test]
fn nested_runaway_loops_fast_forward_exactly() {
    let stimulus = vectors("a", 8, [1, 0x37, 0xC2]);
    let (_, skips) = tape_vs_oracle(INNER_RUNAWAY, None, &["y", "i", "j"], &stimulus);
    assert!(skips >= 9, "each of the three inner instances per run must skip: {skips}");
    let (_, skips) = tape_vs_oracle(OUTER_RUNAWAY, None, &["y", "i", "j"], &stimulus);
    assert!(skips >= 3, "no fast-forward of the outer loop");
}

#[test]
fn doubly_runaway_nest_matches_the_closed_form() {
    let _guard = BACKEND_LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let stimulus = vectors("a", 3, [3, 5, 1]);
    let (tape, skips) = run(BOTH_RUNAWAY, None, &["y"], &stimulus, true);
    let ys: Vec<u64> = tape.iter().map(|v| v.to_u64().expect("x-free")).collect();
    assert_eq!(ys, [(4 * 3) % 7, (4 * 5) % 7, 4]);
    assert!(skips > 3, "inner and outer loops must both skip: {skips}");
}

#[test]
fn period_not_dividing_the_trips_left_fast_forwards_exactly() {
    let stimulus = vectors("go", 1, [1, 0, 1]);
    let (tape, skips) = tape_vs_oracle(PERIOD7, None, &["y"], &stimulus);
    let ys: Vec<u64> = tape.iter().map(|v| v.to_u64().expect("x-free")).collect();
    assert_eq!(ys, [65_536 % 7, 0, 65_536 % 7]);
    assert!(skips >= 2);
}

#[test]
fn terminating_loops_never_fast_forward() {
    let stimulus = vectors("n", 7, [0, 99, 57]);
    let (tape, skips) = tape_vs_oracle(TERMINATING, None, &["y"], &stimulus);
    assert_eq!(tape[1].to_u64(), Some(99 * 98 / 2 + 99));
    assert_eq!(skips, 0, "loops under the probe point are never probed");
}
