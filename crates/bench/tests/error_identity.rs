//! The simulated model's per-episode memo identifies an error by its
//! category and payload, compared in place (`Diagnostic::same_error`). It
//! replaced a memo keyed by a formatted string; this test checks, over
//! every diagnostic of the VerilogEval-syntax corpus and of five generated
//! candidates per VerilogEval problem, that both group the diagnostics
//! into the same classes, so every episode draws exactly as before.

use std::collections::HashMap;

use rtlfixer_agent::prefixer::prefix_fix;
use rtlfixer_dataset::generation::{GenCapability, Generator};
use rtlfixer_verilog::diag::Diagnostic;

/// The memo key as first written: the category's slug and the
/// debug-printed payload in one string.
fn error_key(diag: &Diagnostic) -> String {
    format!("{}:{:?}", diag.category.slug(), diag.data)
}

#[test]
fn typed_identity_groups_diagnostics_like_the_string_key() {
    let mut diagnostics = Vec::new();
    for entry in rtlfixer_dataset::verilog_eval_syntax_shared(7).iter() {
        diagnostics.extend(rtlfixer_verilog::compile(&entry.code).diagnostics);
    }
    let mut problems = rtlfixer_dataset::verilog_eval_human();
    problems.extend(rtlfixer_dataset::verilog_eval_machine());
    let mut generator = Generator::new(GenCapability::Gpt35, 7);
    for problem in &problems {
        for _ in 0..5 {
            let candidate = generator.sample(problem);
            diagnostics.extend(rtlfixer_verilog::compile(&prefix_fix(&candidate.code)).diagnostics);
        }
    }
    assert!(diagnostics.len() > 500, "{} diagnostics", diagnostics.len());

    // Number each diagnostic's class in order of first sight, once by the
    // string key and once by typed identity; the numberings must agree.
    let mut by_key: HashMap<String, usize> = HashMap::new();
    let mut by_identity: Vec<&Diagnostic> = Vec::new();
    let mut shared = 0;
    for diag in &diagnostics {
        let next = by_key.len();
        let key_class = *by_key.entry(error_key(diag)).or_insert(next);
        let identity_class = match by_identity.iter().position(|seen| seen.same_error(diag)) {
            Some(class) => class,
            None => {
                by_identity.push(diag);
                by_identity.len() - 1
            }
        };
        assert_eq!(key_class, identity_class, "{diag:?}");
        shared += usize::from(identity_class < next);
    }
    assert_eq!(by_key.len(), by_identity.len());
    assert!(shared > 0, "some errors recur across the corpus");
}
