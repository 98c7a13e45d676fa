//! The rule-based syntax pre-fixer.
//!
//! §4 Setup: *"A simple rule-based syntax fixer is applied to every
//! LLM-generated verilog code, which avoids simple errors such as misplaced
//! timescale derivatives."* The dataset curation (§3.4) additionally
//! extracts code from markdown blocks and strips extraneous prose — the
//! same normalisations live here so both the agent and the curation
//! pipeline share them.

/// Applies all rule-based fixes: markdown extraction, prose stripping and
/// misplaced-directive removal.
///
/// The result is [`remove_misplaced_directives`] of [`strip_prose`] of
/// [`extract_markdown`], built in one allocation: the code block and the
/// line range are located in place, and only the lines that survive are
/// copied out.
///
/// # Examples
///
/// ```
/// use rtlfixer_agent::prefixer::prefix_fix;
///
/// let raw = "Here is the code:\n```verilog\nmodule m(input a, output y);\nassign y = a;\nendmodule\n```\nHope this helps!";
/// let fixed = prefix_fix(raw);
/// assert!(fixed.starts_with("module"));
/// assert!(fixed.trim_end().ends_with("endmodule"));
/// ```
pub fn prefix_fix(source: &str) -> String {
    let code = markdown_code(source);
    let Some((start, end)) = code_lines(code) else {
        // Nothing to strip: drop the misplaced directives of `code` as is.
        let module = code.find("module");
        let mut out = String::with_capacity(code.len());
        let mut at = 0;
        for line in code.split_inclusive('\n') {
            if !is_misplaced_directive(line, at, module) {
                out.push_str(line);
            }
            at += line.len();
        }
        return out;
    };
    // The stripped text is lines `start..end`, each ending in a newline;
    // offsets below are into that text, where the directive rule reads
    // them.
    let lines = || code.lines().skip(start).take(end - start);
    let mut module = None;
    let mut at = 0;
    for line in lines() {
        if let Some(found) = line.find("module") {
            module = Some(at + found);
            break;
        }
        at += line.len() + 1;
    }
    let mut out = String::with_capacity(code.len() + 1);
    let mut at = 0;
    for line in lines() {
        if !is_misplaced_directive(line, at, module) {
            out.push_str(line);
            out.push('\n');
        }
        at += line.len() + 1;
    }
    out
}

/// The body of the fenced code block [`extract_markdown`] picks, borrowed
/// from `source`; `source` itself when it has no fence.
fn markdown_code(source: &str) -> &str {
    let mut first = None;
    for block in fenced_blocks(source) {
        if block.contains("module") {
            return block;
        }
        first.get_or_insert(block);
    }
    first.unwrap_or(source)
}

/// The line range [`strip_prose`] keeps, counted in `code.lines()`: from
/// the first line that opens Verilog (`module`, a directive or a comment)
/// through the last `endmodule` line, or through the last line when no
/// `endmodule` follows. `None` when there is nothing to strip.
fn code_lines(code: &str) -> Option<(usize, usize)> {
    let mut start = None;
    let mut end = None;
    let mut count = 0;
    for (index, line) in code.lines().enumerate() {
        let trimmed = line.trim_start();
        if start.is_none()
            && (trimmed.starts_with("module")
                || trimmed.starts_with('`')
                || trimmed.starts_with("//")
                || trimmed.starts_with("/*"))
        {
            start = Some(index);
        }
        if trimmed.starts_with("endmodule") {
            end = Some(index + 1);
        }
        count = index + 1;
    }
    let (start, end) = (start?, end.unwrap_or(count));
    (start < end).then_some((start, end))
}

/// Whether `line`, starting at byte `at` of its text, is a directive past
/// the text's first `module` (at byte `module`), which
/// [`remove_misplaced_directives`] drops.
fn is_misplaced_directive(line: &str, at: usize, module: Option<usize>) -> bool {
    let trimmed = line.trim_start();
    module.is_some_and(|module| at > module)
        && (trimmed.starts_with("`timescale")
            || trimmed.starts_with("`default_nettype")
            || trimmed.starts_with("`include"))
}

/// Extracts the contents of the first fenced code block that contains a
/// `module`, if any; falls back to the first fenced block otherwise.
///
/// Real completions often lead with a fenced pseudo-code plan before the
/// actual Verilog block — taking the first block blindly would salvage the
/// plan instead of the code.
pub fn extract_markdown(source: &str) -> String {
    markdown_code(source).to_owned()
}

/// Bodies of every fenced code block in `source`, in order, borrowed from
/// it. The opening fence's info string (e.g. `verilog`) is not part of the
/// body; an unclosed fence's body runs to the end.
fn fenced_blocks(source: &str) -> impl Iterator<Item = &str> {
    let mut rest = Some(source);
    std::iter::from_fn(move || {
        let open = rest?.find("```")?;
        let after_fence = &rest?[open + 3..];
        let body_start = after_fence.find('\n').map_or(0, |i| i + 1);
        let body = &after_fence[body_start..];
        match body.find("```") {
            Some(close) => {
                rest = Some(&body[close + 3..]);
                Some(&body[..close])
            }
            None => {
                rest = None;
                Some(body)
            }
        }
    })
}

/// Drops prose lines before the first `module`/directive line and after the
/// last `endmodule`.
pub fn strip_prose(source: &str) -> String {
    let lines: Vec<&str> = source.lines().collect();
    let code_start = lines.iter().position(|l| {
        let t = l.trim_start();
        t.starts_with("module")
            || t.starts_with('`')
            || t.starts_with("//")
            || t.starts_with("/*")
    });
    let code_end = lines
        .iter()
        .rposition(|l| l.trim_start().starts_with("endmodule"))
        .map(|i| i + 1);
    // Nothing recognisably Verilog: leave the text alone (idempotence —
    // re-slicing arbitrary prose must not keep rewriting it).
    let (Some(start), end) = (code_start, code_end.unwrap_or(lines.len())) else {
        return source.to_owned();
    };
    if start >= end {
        return source.to_owned();
    }
    let mut out = lines[start..end].join("\n");
    out.push('\n');
    out
}

/// Removes `` `timescale ``-style directives that appear after the first
/// `module` keyword (illegal position).
pub fn remove_misplaced_directives(source: &str) -> String {
    let Some(module_pos) = source.find("module") else {
        return source.to_owned();
    };
    let mut out = String::with_capacity(source.len());
    for (idx, line) in source.split_inclusive('\n').scan(0usize, |acc, line| {
        let start = *acc;
        *acc += line.len();
        Some((start, line))
    }) {
        let trimmed = line.trim_start();
        let is_directive = trimmed.starts_with("`timescale")
            || trimmed.starts_with("`default_nettype")
            || trimmed.starts_with("`include");
        if is_directive && idx > module_pos {
            continue;
        }
        out.push_str(line);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extracts_fenced_block() {
        let raw = "Sure! Here's the module:\n```verilog\nmodule m;\nendmodule\n```\n";
        assert_eq!(extract_markdown(raw), "module m;\nendmodule\n");
    }

    #[test]
    fn unfenced_passthrough() {
        assert_eq!(extract_markdown("module m;"), "module m;");
    }

    #[test]
    fn unclosed_fence_takes_rest() {
        let raw = "```verilog\nmodule m;\nendmodule";
        assert_eq!(extract_markdown(raw), "module m;\nendmodule");
    }

    #[test]
    fn prefers_block_containing_module_over_decoy() {
        let raw = "Plan first:\n```\n1. inspect\n2. patch\n```\nThen the code:\n\
                   ```verilog\nmodule m;\nendmodule\n```\n";
        assert_eq!(extract_markdown(raw), "module m;\nendmodule\n");
    }

    #[test]
    fn falls_back_to_first_block_without_module() {
        let raw = "```\nplain text\n```\nand\n```\nmore text\n```\n";
        assert_eq!(extract_markdown(raw), "plain text\n");
    }

    #[test]
    fn salvages_malformed_completion() {
        // The shape rtlfixer_faults::malform_completion produces: prose, a
        // decoy non-code fence, then the real ```verilog fence.
        let raw = rtlfixer_faults::malform_completion(
            "module m(input a, output y);\nassign y = a;\nendmodule",
        );
        let fixed = prefix_fix(&raw);
        assert!(fixed.starts_with("module"), "{fixed}");
        assert!(fixed.trim_end().ends_with("endmodule"), "{fixed}");
    }

    #[test]
    fn strips_leading_and_trailing_prose() {
        let raw = "Certainly, see below.\nmodule m;\nendmodule\nLet me know!";
        let out = strip_prose(raw);
        assert_eq!(out, "module m;\nendmodule\n");
    }

    #[test]
    fn keeps_leading_directives() {
        let raw = "`timescale 1ns/1ps\nmodule m;\nendmodule\n";
        assert_eq!(strip_prose(raw), raw);
    }

    #[test]
    fn removes_timescale_inside_module() {
        let raw = "module m(input a, output y);\n`timescale 1ns/1ps\nassign y = a;\nendmodule\n";
        let out = remove_misplaced_directives(raw);
        assert!(!out.contains("timescale"));
        assert!(rtlfixer_verilog::compile(&out).is_ok());
    }

    #[test]
    fn full_pipeline_produces_compilable_code() {
        let raw = "Here's my solution:\n\n```verilog\nmodule m(input a, output y);\n\
                   `timescale 1ns/1ps\nassign y = ~a;\nendmodule\n```\n\nThis inverts a.";
        let fixed = prefix_fix(raw);
        assert!(rtlfixer_verilog::compile(&fixed).is_ok(), "{fixed}");
    }

    #[test]
    fn clean_code_is_untouched_semantically() {
        let clean = "module m(input a, output y);\nassign y = a;\nendmodule\n";
        assert_eq!(prefix_fix(clean), clean);
    }

    /// The pre-fixer as first written: three passes, each building its own
    /// string. Kept as the oracle of the one-pass [`prefix_fix`].
    pub(super) fn three_passes(source: &str) -> String {
        let code = extract_markdown(source);
        let code = strip_prose(&code);
        remove_misplaced_directives(&code)
    }

    #[test]
    fn one_pass_equals_the_three_passes_on_fence_and_prose_edge_cases() {
        let cases = [
            "",
            "\n",
            "\r\n",
            "```",
            "``````",
            "```\n```",
            "```verilog",
            "```verilog\n",
            "```verilog module m; endmodule```",
            "prose only",
            "prose\nmore prose\n",
            "module m;\nendmodule",
            "module m;\r\nendmodule\r\n",
            "module m;\r\n`timescale 1ns/1ps\r\nendmodule\r\nprose",
            "module m;\rendmodule\r",
            "endmodule\nmodule m;",
            "endmodule\nmodule m;\n`timescale 1ns/1ps\n",
            "  module m;\n  `timescale 1ns/1ps\nendmodule  \n",
            "`timescale 1ns/1ps\nmodule m;\n`include \"x.v\"\nendmodule trailing\nprose",
            "// a module comment\n`timescale 1ns\nmodule m; endmodule\n`default_nettype none",
            "/* c */\n`timescale 1ns\n",
            "x `timescale\nmodule\n`timescale 1ns\n",
            "top_module text\n`timescale 1ns\nmodule m;\nendmodule",
            "Sure:\n```\nplan\n```\n```verilog\nmodule m;\n`timescale 1ns\nendmodule\n```\nok",
            "```\nno code here\n```\nmodule m;\nendmodule\n",
            "```verilog\nmodule a;\nendmodule\n```\n```verilog\nmodule b;\nendmodule\n```",
            "```\n`timescale 1ns\n```",
            "caf\u{e9} module\n`default_nettype none\n\u{1F600}endmodule",
            "\n\nmodule m;\n\n\nendmodule\n\n\n",
            "endmodule",
            "`",
            "//",
        ];
        for case in cases {
            assert_eq!(prefix_fix(case), three_passes(case), "{case:?}");
        }
    }
}

#[cfg(test)]
mod props {
    use super::tests::three_passes;
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        #[test]
        fn one_pass_equals_the_three_passes_on_arbitrary_text(s in ".{0,200}") {
            prop_assert_eq!(prefix_fix(&s), three_passes(&s));
        }

        #[test]
        fn one_pass_equals_the_three_passes_on_completion_shaped_text(
            s in "((Sure, here you go!|Hope this helps|1\\. patch the line| *)(\n|\r\n)\
                  |```(verilog|)(\n|\r\n|)\
                  |( *)module m\\(input a, output y\\);(\n|\r\n|\r)\
                  |( *)`(timescale 1ns/1ps|default_nettype none|include \"x.v\")(\n|\r\n)\
                  |(// note|/\\* c \\*/)\n\
                  |assign y = a;(\n|\r\n)\
                  |( *)endmodule( *)(\n|\r\n|)){0,12}"
        ) {
            prop_assert_eq!(prefix_fix(&s), three_passes(&s));
        }

        // The pre-fixer runs on every model completion, including its own
        // output when a salvaged candidate round-trips through another
        // repair turn — one application must be a fixed point.
        #[test]
        fn idempotent_on_arbitrary_text(s in ".{0,200}") {
            let once = prefix_fix(&s);
            prop_assert_eq!(prefix_fix(&once), once);
        }

        #[test]
        fn idempotent_on_completion_shaped_text(
            s in "((Sure, here you go!|Hope this helps|1\\. patch the line)\n\
                  |```(verilog|)\n\
                  |module m\\(input a, output y\\);\n\
                  |`timescale 1ns/1ps\n\
                  |assign y = a;\n\
                  |endmodule\n){0,12}"
        ) {
            let once = prefix_fix(&s);
            prop_assert_eq!(prefix_fix(&once), once);
        }

        #[test]
        fn salvaging_malformed_completions_is_a_fixed_point(
            code in "module m;\n(assign y = [a-z];\n){0,3}endmodule\n"
        ) {
            let wrapped = rtlfixer_faults::malform_completion(&code);
            let once = prefix_fix(&wrapped);
            prop_assert!(once.starts_with("module"), "{}", once);
            prop_assert_eq!(prefix_fix(&once), once);
        }
    }
}
