//! Golden renderings of repair-episode transcripts.
//!
//! A fixed episode set is rendered twice — through `FixTrace`'s Figure 2c
//! `Display` and through the daemon's `outcome_stream` wire events — and
//! each rendering is pinned by one `fingerprint128`. The set covers the
//! four `repair_grid` fixer configurations over 16 VerilogEval-syntax
//! entries, one configuration with injected faults (garbled logs,
//! compiler crashes, malformed completions) and one episode pair through a
//! `DistilledStore`, so every kind of trace step and observation appears.
//!
//! The values were recorded before trace text became lazily rendered and
//! before the daemon rendered a stream into one buffer with a run-copying
//! escaper: the transcript a reader sees and the bytes a served client
//! receives must not depend on how the text is built. Coalesced serve
//! fan-out relies on the second rendering staying byte-identical.

use std::sync::Arc;

use rtlfixer_agent::{FixOutcome, RtlFixerBuilder, Strategy};
use rtlfixer_compilers::CompilerKind;
use rtlfixer_eval::episode_seed;
use rtlfixer_faults::{FaultKind, FaultSpec};
use rtlfixer_llm::{Capability, ResilientModel, SimulatedLlm};
use rtlfixer_rag::{DistilledStore, HybridRetriever};
use rtlfixer_serve::protocol::outcome_stream;

/// The VerilogEval-syntax curation seed of the paper grids.
const CORPUS_SEED: u64 = 7;
const ENTRIES: usize = 16;

/// `repair_grid`'s four Table 1 fixer configurations.
const CONFIGS: [(Strategy, CompilerKind, bool); 4] = [
    (Strategy::React { max_iterations: 10 }, CompilerKind::Quartus, true),
    (Strategy::React { max_iterations: 10 }, CompilerKind::Iverilog, true),
    (Strategy::React { max_iterations: 10 }, CompilerKind::Quartus, false),
    (Strategy::OneShot, CompilerKind::Quartus, true),
];

/// Golden `(FixTrace Display, outcome_stream)` fingerprints per set,
/// recorded when each step still held its text as a `String`.
const GRID: (u128, u128) =
    (0xd763_279a_b038_9d5d_777f_ac79_2465_fb67, 0x5219_c6e8_fc27_532c_f0dc_485d_c5d4_e0f1);
const FAULTS: (u128, u128) =
    (0x8082_65d2_3fc8_464f_5ab6_78c0_418e_092a, 0x3314_c85c_b1d0_9676_73cb_f672_b1b7_e7fe);
const DISTILLED: (u128, u128) =
    (0x3530_a049_4d26_9ecb_d6ed_4f2b_6ae3_1407, 0xbe04_19ab_7828_416b_2a89_98df_62a7_6f08);

struct Config {
    strategy: Strategy,
    compiler: CompilerKind,
    rag: bool,
    capability: Capability,
    faults: Option<Arc<FaultSpec>>,
}

impl Config {
    fn grid(cell: usize) -> Config {
        let (strategy, compiler, rag) = CONFIGS[cell];
        Config { strategy, compiler, rag, capability: Capability::Gpt35Class, faults: None }
    }
}

/// One episode with every process-wide default pinned: explicit fault
/// specs on both the compiler and the model side, and an explicit
/// retriever, so the environment cannot change what is rendered.
fn episode(
    config: &Config,
    problem: &str,
    code: &str,
    seed: u64,
    store: Option<&Arc<DistilledStore>>,
) -> FixOutcome {
    let llm = ResilientModel::with_spec(
        SimulatedLlm::new(config.capability, seed),
        config.faults.clone(),
        seed,
    );
    let mut builder = RtlFixerBuilder::new()
        .compiler(config.compiler)
        .strategy(config.strategy)
        .with_rag(config.rag)
        .retriever(Box::new(HybridRetriever::new()))
        .fault_seed(seed)
        .fault_spec(config.faults.clone());
    if let Some(store) = store {
        builder = builder.distilled(Arc::clone(store));
    }
    builder.build(llm).fix_problem(problem, code)
}

/// Both renderings of a set, each concatenated over its episodes in order.
fn render(outcomes: &[FixOutcome]) -> (String, String) {
    let mut transcripts = String::new();
    let mut wire = String::new();
    for (index, outcome) in outcomes.iter().enumerate() {
        transcripts.push_str(&outcome.trace.to_string());
        wire.push_str(&outcome_stream(&format!("{index:032x}"), outcome));
    }
    (transcripts, wire)
}

fn fingerprints(outcomes: &[FixOutcome]) -> (u128, u128, String, String) {
    let (transcripts, wire) = render(outcomes);
    (
        rtlfixer_cache::fingerprint128(transcripts.as_bytes()),
        rtlfixer_cache::fingerprint128(wire.as_bytes()),
        transcripts,
        wire,
    )
}

fn assert_golden(set: &str, outcomes: &[FixOutcome], golden: (u128, u128)) {
    let (transcripts, wire, _, _) = fingerprints(outcomes);
    assert_eq!(
        (transcripts, wire),
        golden,
        "{set}: rendered transcripts/wire lines changed (got {transcripts:#034x}, {wire:#034x})"
    );
}

#[test]
fn grid_configurations_render_golden_traces() {
    let dataset = rtlfixer_dataset::verilog_eval_syntax_shared(CORPUS_SEED);
    let mut outcomes = Vec::new();
    for cell in 0..CONFIGS.len() {
        let config = Config::grid(cell);
        for (index, entry) in dataset.iter().take(ENTRIES).enumerate() {
            let seed = episode_seed(1, cell as u64, index as u64, 0);
            outcomes.push(episode(&config, &entry.description, &entry.code, seed, None));
        }
    }
    let (_, _, transcripts, _) = fingerprints(&outcomes);
    for needle in ["Action 1: Compiler", "Action 2: RAG[..", "Revise", "Finish"] {
        assert!(transcripts.contains(needle), "grid set lacks `{needle}`");
    }
    assert_golden("grid", &outcomes, GRID);
}

#[test]
fn fault_injected_episodes_render_golden_traces() {
    let spec = FaultSpec::none()
        .with_rate(FaultKind::GarbledLog, 0.3)
        .with_rate(FaultKind::CompilerCrash, 0.2)
        .with_rate(FaultKind::MalformedOutput, 0.3);
    let config = Config { faults: Some(Arc::new(spec)), ..Config::grid(0) };
    let dataset = rtlfixer_dataset::verilog_eval_syntax_shared(CORPUS_SEED);
    let outcomes: Vec<FixOutcome> = dataset
        .iter()
        .take(ENTRIES)
        .enumerate()
        .map(|(index, entry)| {
            let seed = episode_seed(1, 9, index as u64, 0);
            episode(&config, &entry.description, &entry.code, seed, None)
        })
        .collect();
    let (_, _, transcripts, _) = fingerprints(&outcomes);
    for kind in ["garbled-log", "compiler-crash", "malformed-output"] {
        assert!(transcripts.contains(&format!("Fault[{kind}]")), "fault set lacks {kind}");
    }
    assert!(transcripts.contains("Action 2: Retry"), "fault set lacks a crash retry");
    assert_golden("faults", &outcomes, FAULTS);
}

#[test]
fn distilled_brief_renders_golden_traces() {
    const PHANTOM_CLK: &str = "module m(input [7:0] in, output reg [7:0] out);\n\
                               always @(posedge clk) out <= in;\nendmodule";
    let store = Arc::new(DistilledStore::new());
    let config = Config { capability: Capability::Gpt4Class, ..Config::grid(0) };
    let first = episode(&config, "register the input", PHANTOM_CLK, 7, Some(&store));
    assert_eq!(store.merge(&first.distilled), 1, "the first episode distills one brief");
    let second = episode(&config, "register the input", PHANTOM_CLK, 21, Some(&store));
    let outcomes = [first, second];
    let (_, _, transcripts, wire) = fingerprints(&outcomes);
    let distilled = "A previous repair cleared this exact error shape";
    assert!(transcripts.contains(distilled), "the second episode reads the distilled brief");
    assert!(wire.contains(distilled));
    assert_golden("distilled", &outcomes, DISTILLED);
}
