//! Criterion benchmarks of the component layers: frontend, simulator,
//! retrieval, repair operators and the full agent loop.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use rtlfixer_agent::{RtlFixerBuilder, Strategy};
use rtlfixer_bench::simdesigns::SIM_DESIGNS;
use rtlfixer_compilers::CompilerKind;
use rtlfixer_llm::{Capability, SimulatedLlm};
use rtlfixer_rag::text::TfIdfIndex;
use rtlfixer_rag::{
    tfidf_corpus, DefaultRetriever, GuidanceDatabase, RetrievalQuery, Retriever, TfIdfRetriever,
};
use rtlfixer_sim::{value::LogicVec, Simulator};

const COUNTER: &str = "module ctr(input clk, input reset, output reg [7:0] q);\n\
                       always @(posedge clk) begin\n\
                       if (reset) q <= 0; else q <= q + 1;\nend\nendmodule";

const BROKEN: &str = "module m(input [7:0] in, output reg [7:0] out);\n\
                      always @(posedge clk) out <= in;\nendmodule";

fn bench_frontend(c: &mut Criterion) {
    let source = rtlfixer_dataset::suites::find_problem("rtllm/conwaylife")
        .expect("problem exists")
        .solution;
    c.bench_function("lexer/conwaylife", |b| {
        b.iter(|| rtlfixer_verilog::lexer::lex(black_box(&source)))
    });
    c.bench_function("parser/conwaylife", |b| {
        b.iter(|| rtlfixer_verilog::parser::parse(black_box(&source)))
    });
    c.bench_function("compile/counter", |b| {
        b.iter(|| rtlfixer_verilog::compile(black_box(COUNTER)))
    });
    c.bench_function("compile/broken", |b| {
        b.iter(|| rtlfixer_verilog::compile(black_box(BROKEN)))
    });
}

fn bench_compilers(c: &mut Criterion) {
    for kind in CompilerKind::ALL {
        let compiler = kind.build();
        c.bench_function(&format!("compiler_log/{kind}"), |b| {
            b.iter(|| compiler.compile(black_box(BROKEN), "main.sv"))
        });
    }
}

fn bench_simulator(c: &mut Criterion) {
    let analysis = rtlfixer_verilog::compile(COUNTER);
    c.bench_function("sim/counter_64_cycles", |b| {
        b.iter(|| {
            let mut sim = Simulator::new(&analysis, "ctr").expect("elaborates");
            sim.poke("reset", LogicVec::from_u64(1, 1)).expect("port");
            sim.clock_cycle("clk").expect("cycle");
            sim.poke("reset", LogicVec::from_u64(1, 0)).expect("port");
            for _ in 0..64 {
                sim.clock_cycle("clk").expect("cycle");
            }
            black_box(sim.peek("q"))
        })
    });
    let conway = rtlfixer_dataset::suites::find_problem("rtllm/conwaylife").expect("exists");
    let conway_analysis = rtlfixer_verilog::compile(&conway.solution);
    // A cold set-up: elaborate, lower, tape compile and zero the state.
    // `Simulator::new` would hit the design cache after its first call and
    // time only the state.
    c.bench_function("sim/conway_elaborate", |b| {
        b.iter(|| {
            let design = rtlfixer_sim::elab::elaborate(black_box(&conway_analysis), "top_module")
                .expect("elaborates");
            Simulator::from_design(std::sync::Arc::new(design))
        })
    });

    // Steady-state per-cycle throughput on the shared design set (see
    // `rtlfixer_bench::simdesigns`). Each design is measured twice in the
    // same process: `sim/cycle_*` forces the tree-walking event kernel
    // (comparable to the pre-tape history of these benchmark names) and
    // `sim/tape_*` forces the compiled register-bytecode tape. The
    // simulator is built once per pair; each iteration is exactly one cycle.
    for design in SIM_DESIGNS {
        rtlfixer_sim::force_sim_backends(None, Some(false));
        let mut sim = design.build();
        let mut i = 0u64;
        c.bench_function(&format!("sim/cycle_{}", design.name), |b| {
            b.iter(|| {
                i = i.wrapping_add(1);
                (design.step)(&mut sim, i);
                black_box(sim.peek(design.watch))
            })
        });
        rtlfixer_sim::force_sim_backends(None, Some(true));
        let mut sim = design.build();
        let mut i = 0u64;
        c.bench_function(&format!("sim/tape_{}", design.name), |b| {
            b.iter(|| {
                i = i.wrapping_add(1);
                (design.step)(&mut sim, i);
                black_box(sim.peek(design.watch))
            })
        });
        rtlfixer_sim::force_sim_backends(None, None);
    }
}

fn bench_retrieval(c: &mut Criterion) {
    let db = GuidanceDatabase::quartus();
    let retriever = DefaultRetriever::new();
    let query = RetrievalQuery::from_log(
        "Error (10161): Verilog HDL error at main.sv(2): object \"clk\" is not declared.",
    );
    c.bench_function("rag/exact_tag_retrieve", |b| {
        b.iter(|| retriever.retrieve(black_box(&db), black_box(&query)))
    });
    let iv_db = GuidanceDatabase::iverilog();
    let iv_query =
        RetrievalQuery::from_log("main.v:2: error: Unable to bind wire/reg/memory 'clk'");
    c.bench_function("rag/jaccard_fallback", |b| {
        b.iter(|| retriever.retrieve(black_box(&iv_db), black_box(&iv_query)))
    });

    // Before/after datapoint for the database-owned index: the old
    // TfIdfRetriever rebuilt the index on every retrieve; now the database
    // builds it on its first retrieval and every later one scores against
    // it in one pass over the query's terms.
    let tfidf = TfIdfRetriever::new();
    let tfidf_query = RetrievalQuery::from_log(
        "Error (10170): Verilog HDL syntax error at main.sv(3) near text \"endmodule\"",
    );
    c.bench_function("rag/tfidf_cold_index_per_call", |b| {
        b.iter(|| {
            let index = TfIdfIndex::new(&tfidf_corpus(black_box(&db)));
            black_box(index.top_k(&tfidf_query.log, tfidf.top_k))
        })
    });
    // Build the database's own index outside the timed loop, as the first
    // retrieval of a run does.
    let _ = tfidf.retrieve(&db, &tfidf_query);
    c.bench_function("rag/tfidf_cached_index", |b| {
        b.iter(|| tfidf.retrieve(black_box(&db), black_box(&tfidf_query)))
    });
}

fn bench_artifact_cache(c: &mut Criterion) {
    // The cold/cached pairs below are the before/after datapoints for the
    // content-addressed artifact caches: cold = the full computation the
    // episode pool used to repeat, cached = the fingerprint lookup it does
    // now when a candidate source recurs.
    rtlfixer_cache::set_enabled(true);
    let source = rtlfixer_dataset::suites::find_problem("rtllm/conwaylife")
        .expect("problem exists")
        .solution;

    // Analysis cache: full frontend pass vs content-addressed lookup.
    c.bench_function("cache/compile_cold", |b| {
        b.iter(|| rtlfixer_verilog::compile(black_box(&source)))
    });
    let _ = rtlfixer_verilog::compile_shared(&source);
    c.bench_function("cache/compile_cached", |b| {
        b.iter(|| rtlfixer_verilog::compile_shared(black_box(&source)))
    });

    // Outcome cache: personality log render vs lookup.
    let quartus = CompilerKind::Quartus.build();
    c.bench_function("cache/outcome_cold", |b| {
        b.iter(|| quartus.compile(black_box(BROKEN), "main.sv"))
    });
    let _ = quartus.compile_cached(BROKEN, "main.sv");
    c.bench_function("cache/outcome_cached", |b| {
        b.iter(|| quartus.compile_cached(black_box(BROKEN), "main.sv"))
    });

    // Design cache: elaboration (which lowers and tape-compiles before it
    // returns) vs reuse of the shared `Arc<Design>`.
    let analysis = rtlfixer_verilog::compile(&source);
    c.bench_function("cache/elaborate_cold", |b| {
        b.iter(|| rtlfixer_sim::elab::elaborate(black_box(&analysis), "top_module"))
    });
    let _ = rtlfixer_sim::elab::elaborate_shared(&analysis, "top_module");
    c.bench_function("cache/elaborate_reused", |b| {
        b.iter(|| rtlfixer_sim::elab::elaborate_shared(black_box(&analysis), "top_module"))
    });
}

fn bench_repair(c: &mut Criterion) {
    let analysis = rtlfixer_verilog::compile(BROKEN);
    let diag = analysis.errors()[0].clone();
    c.bench_function("repair/undeclared_clk", |b| {
        b.iter(|| rtlfixer_llm::repair::repair(black_box(BROKEN), &diag, &analysis))
    });
}

fn bench_agent(c: &mut Criterion) {
    c.bench_function("agent/react_episode_gpt4", |b| {
        b.iter(|| {
            let llm = SimulatedLlm::new(Capability::Gpt4Class, 7);
            let mut fixer = RtlFixerBuilder::new()
                .compiler(CompilerKind::Quartus)
                .strategy(Strategy::React { max_iterations: 10 })
                .with_rag(true)
                .build(llm);
            black_box(fixer.fix(BROKEN))
        })
    });
}

criterion_group!(
    benches,
    bench_frontend,
    bench_compilers,
    bench_simulator,
    bench_retrieval,
    bench_artifact_cache,
    bench_repair,
    bench_agent
);
criterion_main!(benches);
