//! Asserts that every dataset/database artifact has the exact shape the
//! paper reports (§3.3, §3.4, §4.2).

use rtlfixer::dataset;
use rtlfixer::rag::GuidanceDatabase;

#[test]
fn verilog_eval_syntax_has_212_entries() {
    assert_eq!(dataset::verilog_eval_syntax(7).len(), 212);
}

#[test]
fn human_suite_is_156_with_71_85_split() {
    let suite = dataset::verilog_eval_human();
    assert_eq!(suite.len(), 156);
    let easy = suite.iter().filter(|p| p.difficulty == dataset::Difficulty::Easy).count();
    assert_eq!(easy, 71);
    assert_eq!(suite.len() - easy, 85);
}

#[test]
fn machine_suite_is_143() {
    assert_eq!(dataset::verilog_eval_machine().len(), 143);
}

#[test]
fn rtllm_suite_is_29() {
    assert_eq!(dataset::rtllm().len(), 29);
}

#[test]
fn guidance_databases_match_section_3_3() {
    let quartus = GuidanceDatabase::quartus();
    assert_eq!(quartus.entries().len(), 45, "11 categories with 45 entries for Quartus");
    assert_eq!(quartus.categories().len(), 11);
    let iverilog = GuidanceDatabase::iverilog();
    assert_eq!(iverilog.entries().len(), 30, "7 categories with 30 entries for iverilog");
    assert_eq!(iverilog.categories().len(), 7);
}

#[test]
fn react_iteration_budget_is_10() {
    // §4 Setup: "we restrict the LLM to a maximum of 10 iterations".
    let strategy = rtlfixer::agent::Strategy::React { max_iterations: 10 };
    assert_eq!(strategy.revision_budget(), 10);
}

#[test]
fn paper_named_examples_exist() {
    // Figure 5's vector100r and Figure 6's conwaylife must be real problems.
    assert!(dataset::suites::find_problem("human/vector100r").is_some());
    assert!(dataset::suites::find_problem("rtllm/conwaylife").is_some());
}

#[test]
fn table1_grid_has_14_cells() {
    assert_eq!(rtlfixer::eval::experiments::table1::PAPER_TABLE1.len(), 14);
}
