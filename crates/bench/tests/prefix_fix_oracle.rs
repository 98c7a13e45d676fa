//! `prefix_fix` against the three-pass pipeline it replaced, on the text
//! it runs on in the experiments: the 212 VerilogEval-syntax entries (each
//! also under the presentation noise a completion carries) and five
//! generated candidates per VerilogEval problem, noise included.

use rtlfixer_agent::prefixer::{
    extract_markdown, prefix_fix, remove_misplaced_directives, strip_prose,
};
use rtlfixer_dataset::generation::{GenCapability, Generator};

/// The pre-fixer as first written: three passes, each building its own
/// string.
fn three_passes(source: &str) -> String {
    let code = extract_markdown(source);
    let code = strip_prose(&code);
    remove_misplaced_directives(&code)
}

/// `code` as completions present it: fenced, trailed by prose, with CRLF
/// line ends, behind a decoy plan fence, and with a directive moved into
/// the module body.
fn presentations(code: &str) -> Vec<String> {
    let mut directive = code.to_owned();
    if let Some(body) = code.find(";\n") {
        directive.insert_str(body + 2, "`timescale 1ns/1ps\n");
    }
    vec![
        code.to_owned(),
        format!("Here is the implementation:\n```verilog\n{code}\n```\n"),
        format!("{code}\nThis module implements the requested behavior."),
        code.replace('\n', "\r\n"),
        rtlfixer_faults::malform_completion(code),
        directive,
        format!("`timescale 1ns/1ps\n{code}\n`default_nettype none\n"),
    ]
}

#[test]
fn syntax_entries_prefix_fix_like_the_three_passes() {
    let dataset = rtlfixer_dataset::verilog_eval_syntax_shared(7);
    assert_eq!(dataset.len(), rtlfixer_dataset::SYNTAX_BENCH_COUNT);
    let mut rewritten = 0;
    for entry in dataset.iter() {
        for text in presentations(&entry.code) {
            let fixed = prefix_fix(&text);
            assert_eq!(fixed, three_passes(&text), "{}: {text:?}", entry.problem_id);
            rewritten += usize::from(fixed != text);
        }
    }
    assert!(rewritten > dataset.len(), "the noise must exercise every pass");
}

#[test]
fn generated_candidates_prefix_fix_like_the_three_passes() {
    let mut problems = rtlfixer_dataset::verilog_eval_human();
    problems.extend(rtlfixer_dataset::verilog_eval_machine());
    assert_eq!(problems.len(), 299);
    let mut generator = Generator::new(GenCapability::Gpt35, 7);
    let mut noisy = 0;
    for problem in &problems {
        for _ in 0..5 {
            let candidate = generator.sample(problem);
            let fixed = prefix_fix(&candidate.code);
            assert_eq!(fixed, three_passes(&candidate.code), "{}", problem.id);
            noisy += usize::from(fixed != candidate.code);
        }
    }
    assert!(noisy > 0, "some candidates carry presentation noise");
}
