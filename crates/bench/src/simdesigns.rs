//! Shared simulator benchmark designs, used by both the Criterion
//! `sim/cycle_*` / `sim/tape_*` pairs in `benches/components.rs` and the
//! `simbench` binary so the two harnesses measure identical workloads.
//!
//! Each [`SimDesign`] bundles the Verilog source, the top module name and a
//! per-cycle drive function. The first three designs are the historical
//! PR 4 kernel benchmarks (tiny adder, 8-bit counter, 256-bit datapath);
//! `crc16_comb` and `alu_seq` are compute-bound designs added alongside the
//! tape backend, where per-cycle kernel work dominates harness overhead;
//! `wide_128` and `wide_256` exercise the 2- and 4-limb wide fast-path
//! register classes.

use rtlfixer_sim::{value::LogicVec, Simulator};

/// One benchmark design: source, top module and a per-cycle driver.
pub struct SimDesign {
    /// Row name used in benchmark output (`cycle_<name>` / `tape_<name>`).
    pub name: &'static str,
    /// Top-level module to elaborate.
    pub module: &'static str,
    /// Verilog source text.
    pub source: &'static str,
    /// Output signal peeked (and black-boxed) each cycle.
    pub watch: &'static str,
    /// One-time setup after elaboration (tie off resets, constants).
    pub init: fn(&mut Simulator),
    /// Advances the simulation by one cycle for iteration `i`.
    pub step: fn(&mut Simulator, u64),
}

const SMALL_COMB: &str = "module small(input [7:0] a, input [7:0] b,\n\
                          output [7:0] y, output carry);\n\
                          assign {carry, y} = a + b;\nendmodule";

const COUNTER: &str = "module ctr(input clk, input reset, output reg [7:0] q);\n\
                       always @(posedge clk) begin\n\
                       if (reset) q <= 0; else q <= q + 1;\nend\nendmodule";

const WIDE_256: &str = "module wide(input clk, input [7:0] d, output reg [255:0] acc);\n\
                        always @(posedge clk)\n\
                        acc <= {acc[247:0], d} ^ (acc >> 3);\nendmodule";

const WIDE_128: &str = "module wide128(input clk, input [7:0] d, output reg [127:0] acc);\n\
                        always @(posedge clk)\n\
                        acc <= ({acc[119:0], d} ^ (acc >> 5)) + {120'h0, acc[127:120]};\n\
                        endmodule";

const CRC16_COMB: &str = "module crc16(input [7:0] d, input [15:0] crc_in,\n\
                          output reg [15:0] crc_out);\n\
                          integer i;\n\
                          reg [15:0] c;\n\
                          always @* begin\n\
                            c = crc_in;\n\
                            for (i = 0; i < 8; i = i + 1) begin\n\
                              if (c[15] ^ d[7 - i])\n\
                                c = {c[14:0], 1'b0} ^ 16'h1021;\n\
                              else\n\
                                c = {c[14:0], 1'b0};\n\
                            end\n\
                            crc_out = c;\n\
                          end\nendmodule";

// Branch-free CRC: the `{16{bit}} & poly` idiom replaces the data-dependent
// `if`, so the unrolled loop compiles to straight-line dataflow with no
// data-dependent jump in the tape.
const CRC16_FLAT: &str = "module crc16f(input clk, input [7:0] d,\n\
                          output reg [15:0] crc);\n\
                          integer i;\n\
                          reg [15:0] c;\n\
                          always @(posedge clk) begin\n\
                            c = crc;\n\
                            for (i = 0; i < 8; i = i + 1)\n\
                              c = {c[14:0], 1'b0} ^ ({16{c[15] ^ d[7 - i]}} & 16'h1021);\n\
                            crc <= c ^ {8'h00, d};\n\
                          end\nendmodule";

const ALU_SEQ: &str ="module alu(input clk, input [7:0] a, input [7:0] b,\n\
                       input [2:0] op, output reg [15:0] y);\n\
                       always @(posedge clk) begin\n\
                         case (op)\n\
                           3'd0: y <= a + b;\n\
                           3'd1: y <= a - b;\n\
                           3'd2: y <= a & b;\n\
                           3'd3: y <= a | b;\n\
                           3'd4: y <= a ^ b;\n\
                           3'd5: y <= a * b;\n\
                           3'd6: y <= a << b[2:0];\n\
                           default: y <= (a < b) ? {8'h00, a} : {8'h00, b};\n\
                         endcase\n\
                       end\nendmodule";

fn init_none(_sim: &mut Simulator) {}

fn init_counter(sim: &mut Simulator) {
    sim.poke("reset", LogicVec::from_u64(1, 0)).expect("port");
}

fn init_wide(sim: &mut Simulator) {
    sim.poke("d", LogicVec::from_u64(8, 0xA5)).expect("port");
}

fn step_small(sim: &mut Simulator, i: u64) {
    sim.poke("a", LogicVec::from_u64(8, i & 0xFF)).expect("port");
    sim.poke("b", LogicVec::from_u64(8, (i >> 3) & 0xFF)).expect("port");
    sim.settle().expect("settles");
}

fn step_clock(sim: &mut Simulator, _i: u64) {
    sim.clock_cycle("clk").expect("cycle");
}

fn step_crc(sim: &mut Simulator, i: u64) {
    sim.poke("d", LogicVec::from_u64(8, i & 0xFF)).expect("port");
    sim.poke("crc_in", LogicVec::from_u64(16, (i >> 2) & 0xFFFF)).expect("port");
    sim.settle().expect("settles");
}

fn step_alu(sim: &mut Simulator, i: u64) {
    sim.poke("a", LogicVec::from_u64(8, i & 0xFF)).expect("port");
    sim.poke("b", LogicVec::from_u64(8, (i >> 5) & 0xFF)).expect("port");
    sim.poke("op", LogicVec::from_u64(3, i & 0x7)).expect("port");
    sim.clock_cycle("clk").expect("cycle");
}

/// The benchmark design set, in reporting order.
pub const SIM_DESIGNS: &[SimDesign] = &[
    SimDesign {
        name: "small_comb",
        module: "small",
        source: SMALL_COMB,
        watch: "y",
        init: init_none,
        step: step_small,
    },
    SimDesign {
        name: "medium_seq",
        module: "ctr",
        source: COUNTER,
        watch: "q",
        init: init_counter,
        step: step_clock,
    },
    SimDesign {
        name: "wide_256",
        module: "wide",
        source: WIDE_256,
        watch: "acc",
        init: init_wide,
        step: step_clock,
    },
    SimDesign {
        name: "wide_128",
        module: "wide128",
        source: WIDE_128,
        watch: "acc",
        init: init_wide,
        step: step_clock,
    },
    SimDesign {
        name: "crc16_comb",
        module: "crc16",
        source: CRC16_COMB,
        watch: "crc_out",
        init: init_none,
        step: step_crc,
    },
    SimDesign {
        name: "crc16_flat",
        module: "crc16f",
        source: CRC16_FLAT,
        watch: "crc",
        init: init_wide,
        step: step_clock,
    },
    SimDesign {
        name: "alu_seq",
        module: "alu",
        source: ALU_SEQ,
        watch: "y",
        init: init_none,
        step: step_alu,
    },
];

impl SimDesign {
    /// Elaborates a fresh simulator for this design and runs `init`.
    pub fn build(&self) -> Simulator {
        let analysis = rtlfixer_verilog::compile(self.source);
        let mut sim = Simulator::new(&analysis, self.module).expect("design elaborates");
        (self.init)(&mut sim);
        sim
    }
}
