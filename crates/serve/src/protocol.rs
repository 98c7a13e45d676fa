//! The wire protocol: line-delimited JSON, one request object per line in,
//! a stream of event objects back out.
//!
//! Requests carry an `op` (`fix`, `ping`, `shutdown`) plus the fix
//! parameters; responses are event lines tagged with an `ev` field. Fix
//! responses are correlated by the request's content-addressed fingerprint
//! (`fp`), **not** a per-connection id: identical requests produce
//! byte-identical response streams, which is what lets the daemon coalesce
//! concurrent duplicates into one episode and fan the same bytes out to
//! every waiter.

use serde::Deserialize;

use rtlfixer_agent::{Action, FixOutcome, Strategy};
use rtlfixer_cache::Fingerprint128;
use rtlfixer_compilers::CompilerKind;
use rtlfixer_eval::RepairJob;
use rtlfixer_llm::Capability;

/// Rejection reason: the bounded admission queue is full.
pub const REJECT_QUEUE_FULL: &str = "queue-full";
/// Rejection reason: the tenant's token bucket is empty.
pub const REJECT_QUOTA: &str = "quota-exceeded";
/// Rejection reason: the daemon is draining and admits nothing new.
pub const REJECT_DRAINING: &str = "draining";
/// Rejection reason: the request is malformed.
pub const REJECT_BAD_REQUEST: &str = "bad-request";
/// Rejection reason: the daemon already serves its maximum number of
/// connections; this one is closed after the line.
pub const REJECT_TOO_MANY_CONNECTIONS: &str = "too-many-connections";
/// Shed reason: the request's deadline passed while it waited in queue.
pub const SHED_DEADLINE: &str = "deadline-exceeded";

/// One parsed request line. Unknown ops are rejected; missing optional
/// fields take the documented defaults.
#[derive(Debug, Clone, Deserialize)]
pub struct Request {
    /// `fix`, `ping` or `shutdown`.
    pub op: String,
    /// The broken RTL source (required for `fix`).
    pub code: Option<String>,
    /// Natural-language problem description.
    pub problem: Option<String>,
    /// Compiler personality: `simple`, `iverilog` or `quartus` (default).
    pub compiler: Option<String>,
    /// Strategy: `oneshot` or `react` (default, 10 iterations).
    pub strategy: Option<String>,
    /// Retrieval-augmented guidance (default true).
    pub rag: Option<bool>,
    /// Simulated model capability: `gpt-3.5` (default) or `gpt-4`.
    pub capability: Option<String>,
    /// Episode seed; derived from the source fingerprint when omitted, so
    /// identical sources replay identical episodes.
    pub seed: Option<u64>,
    /// Tenant id for quota / fairness accounting (default `"anon"`).
    pub tenant: Option<String>,
    /// Deadline in ms: bounds queue wait (wall clock) and is propagated
    /// into the retry budget (simulated clock).
    pub deadline_ms: Option<u64>,
}

/// Everything that determines a fix request's outcome, owned — the job an
/// admitted request carries through the queue. Mirrors
/// [`rtlfixer_eval::RepairJob`] field for field.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Natural-language problem description.
    pub problem: String,
    /// The broken RTL source.
    pub code: String,
    /// Compiler personality.
    pub compiler: CompilerKind,
    /// Fixing strategy.
    pub strategy: Strategy,
    /// Retrieval-augmented guidance on/off.
    pub rag: bool,
    /// Simulated model capability.
    pub capability: Capability,
    /// Episode seed.
    pub seed: u64,
    /// Deadline propagated into the retry budget, in ms.
    pub deadline_ms: Option<u64>,
}

/// A bad `fix` request, with the field that failed validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BadRequest(pub String);

impl JobSpec {
    /// Validates a parsed [`Request`] into a job. `default_deadline_ms`
    /// applies when the request names none.
    pub fn from_request(
        request: &Request,
        default_deadline_ms: Option<u64>,
    ) -> Result<JobSpec, BadRequest> {
        let code = match request.code.as_deref() {
            Some(code) if !code.trim().is_empty() => code.to_owned(),
            _ => return Err(BadRequest("fix requires a non-empty `code`".to_owned())),
        };
        let compiler = match request.compiler.as_deref() {
            None => CompilerKind::Quartus,
            Some(label) => match label.to_ascii_lowercase().as_str() {
                "simple" => CompilerKind::Simple,
                "iverilog" => CompilerKind::Iverilog,
                "quartus" => CompilerKind::Quartus,
                other => return Err(BadRequest(format!("unknown compiler `{other}`"))),
            },
        };
        let strategy = match request.strategy.as_deref() {
            None => Strategy::React { max_iterations: 10 },
            Some(label) => match label.to_ascii_lowercase().as_str() {
                "oneshot" | "one-shot" => Strategy::OneShot,
                "react" => Strategy::React { max_iterations: 10 },
                other => return Err(BadRequest(format!("unknown strategy `{other}`"))),
            },
        };
        let capability = match request.capability.as_deref() {
            None => Capability::Gpt35Class,
            Some(label) => match label.to_ascii_lowercase().as_str() {
                "gpt-3.5" | "gpt3.5" | "gpt35" => Capability::Gpt35Class,
                "gpt-4" | "gpt4" => Capability::Gpt4Class,
                other => return Err(BadRequest(format!("unknown capability `{other}`"))),
            },
        };
        let deadline_ms = request.deadline_ms.or(default_deadline_ms);
        let mut spec = JobSpec {
            problem: request.problem.clone().unwrap_or_default(),
            code,
            compiler,
            strategy,
            rag: request.rag.unwrap_or(true),
            capability,
            seed: 0,
            deadline_ms,
        };
        // With no explicit seed, derive one from the job content so equal
        // sources replay equal episodes (and coalesce).
        spec.seed = request.seed.unwrap_or_else(|| spec.fingerprint() as u64);
        Ok(spec)
    }

    /// The job's content-addressed fingerprint: a pure function of every
    /// outcome-determining field. Equal fingerprints ⇒ equal responses,
    /// the invariant request coalescing rests on.
    ///
    /// Each field is hashed as `{byte length}:{bytes}` — length-prefixed,
    /// so concatenation is unambiguous — and fed straight into the hash
    /// from where it lives; numbers are spelled in decimal on the stack.
    pub fn fingerprint(&self) -> u128 {
        let compiler: &[u8] = match self.compiler {
            CompilerKind::Simple => b"simple",
            CompilerKind::Iverilog => b"iverilog",
            CompilerKind::Quartus => b"quartus",
        };
        let mut iterations = Decimal::default();
        let strategy: [&[u8]; 2] = match self.strategy {
            Strategy::OneShot => [b"oneshot", b""],
            Strategy::React { max_iterations } => [b"react", iterations.of(max_iterations as u64)],
        };
        let capability: &[u8] = match self.capability {
            Capability::Gpt35Class => b"gpt35",
            Capability::Gpt4Class => b"gpt4",
        };
        let rag: &[u8] = if self.rag { b"rag" } else { b"norag" };
        let (mut seed, mut deadline) = (Decimal::default(), Decimal::default());
        let seed = seed.of(self.seed);
        let deadline = self.deadline_ms.map_or(&b""[..], |d| deadline.of(d));
        let mut hash = Fingerprint128::new();
        for field in [
            &[compiler][..],
            &strategy,
            &[capability],
            &[rag],
            &[seed],
            &[deadline],
            &[self.problem.as_bytes()],
            &[self.code.as_bytes()],
        ] {
            let mut len = Decimal::default();
            hash.write(len.of(field.iter().map(|part| part.len() as u64).sum()));
            hash.write(b":");
            for part in field {
                hash.write(part);
            }
        }
        hash.finish()
    }

    /// The fingerprint as the 32-hex-char `fp` wire token.
    pub fn fp_hex(&self) -> String {
        format!("{:032x}", self.fingerprint())
    }

    /// Borrows this spec as the canonical episode-path job.
    pub fn as_repair_job(&self) -> RepairJob<'_> {
        RepairJob {
            problem: &self.problem,
            code: &self.code,
            compiler: self.compiler,
            strategy: self.strategy,
            rag: self.rag,
            capability: self.capability,
            seed: self.seed,
            deadline_ms: self.deadline_ms,
            distilled: None,
        }
    }
}

/// A number's decimal digits, spelled into a buffer on the stack.
#[derive(Default)]
struct Decimal([u8; 20]);

impl Decimal {
    /// The digits of `n` (`u64::MAX` has 20).
    fn of(&mut self, mut n: u64) -> &[u8] {
        let mut at = self.0.len();
        loop {
            at -= 1;
            self.0[at] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                return &self.0[at..];
            }
        }
    }
}

// ---- response events ----------------------------------------------------
//
// Rendered by hand (the vendored serde_derive cannot derive Serialize for
// lifetime-generic structs) with `rtlfixer_obs`'s escaper. Field order is
// fixed, so equal events render to equal bytes — the byte-identity
// contract coalesced fan-out relies on. Every event line ends in a
// newline: a connection appends each as one unit, so lines never
// interleave.

use std::fmt::Write as _;

use rtlfixer_agent::TraceText;
use rtlfixer_obs::{json_string, push_json_escaped, push_json_string};

/// The daemon's startup announcement (stdout, not the socket; no newline).
pub fn listening_line(port: u16) -> String {
    format!("{{\"ev\":\"listening\",\"port\":{port}}}")
}

/// A request was admitted (or coalesced onto an in-flight episode — the
/// line is identical either way, by design).
pub fn accepted_line(fp: &str) -> String {
    format!("{{\"ev\":\"accepted\",\"fp\":{}}}\n", json_string(fp))
}

/// A request was refused at admission; 429-style, never silent.
pub fn rejected_line(reason: &str, detail: &str) -> String {
    format!(
        "{{\"ev\":\"rejected\",\"code\":429,\"reason\":{},\"detail\":{}}}\n",
        json_string(reason),
        json_string(detail)
    )
}

/// An admitted request was dropped before execution (deadline passed in
/// queue).
pub fn shed_line(fp: &str, reason: &str) -> String {
    format!("{{\"ev\":\"shed\",\"fp\":{},\"reason\":{}}}\n", json_string(fp), json_string(reason))
}

/// The answer to `ping`.
pub const PONG: &str = "{\"ev\":\"pong\"}\n";

/// Acknowledges a `shutdown` op; the daemon drains after sending it.
pub const SHUTDOWN_ACK: &str = "{\"ev\":\"shutdown-ack\"}\n";

/// An episode escaped containment (panicked); the daemon survives and
/// reports the payload.
pub fn error_line(fp: &str, detail: &str) -> String {
    format!("{{\"ev\":\"error\",\"fp\":{},\"detail\":{}}}\n", json_string(fp), json_string(detail))
}

/// Fixed bytes of one stream line besides `fp` and its text fields: field
/// names, punctuation, numbers and the action, with room to spare.
const LINE_FIXED_BYTES: usize = 160;

/// Renders a finished episode as its response stream: one `trace` line per
/// ReAct step, then the `result` line, into one buffer. A pure function of
/// `(fp, outcome)` — the byte-identity contract for coalesced fan-out,
/// whose waiters all send this one buffer. The episode stored its steps as
/// handles (`rtlfixer_agent::TraceText`); their text is escaped straight
/// from where it lives, once per finished episode, not inside the episode.
pub fn outcome_stream(fp: &str, outcome: &FixOutcome) -> String {
    let steps = &outcome.trace.steps;
    // Sized without rendering anything: the model's reasoning is written
    // once, below, and only estimated here.
    let text: usize = outcome.final_code.len()
        + steps
            .iter()
            .map(|step| step.thought.len_hint() + step.observation.len_hint())
            .sum::<usize>();
    // Escapes grow the text a little (logs and code are full of newlines).
    let capacity = text + text / 8 + (steps.len() + 1) * (fp.len() + LINE_FIXED_BYTES);
    let mut out = String::with_capacity(capacity);
    for (index, step) in steps.iter().enumerate() {
        out.push_str("{\"ev\":\"trace\",\"fp\":");
        push_json_string(&mut out, fp);
        let _ = write!(out, ",\"step\":{},\"action\":\"", index + 1);
        // The lower-cased `Action` display, RAG without its query excerpt.
        match &step.action {
            Action::Compiler => out.push_str("compiler"),
            Action::Rag { .. } => out.push_str("rag"),
            Action::Revise => out.push_str("revise"),
            Action::Fault { kind } => {
                out.push_str("fault[");
                push_json_escaped(&mut out, &kind.to_ascii_lowercase());
                out.push(']');
            }
            Action::Retry => out.push_str("retry"),
            Action::Finish => out.push_str("finish"),
        }
        out.push_str("\",\"thought\":");
        push_trace_text(&mut out, &step.thought);
        out.push_str(",\"observation\":");
        push_trace_text(&mut out, &step.observation);
        out.push_str("}\n");
    }
    out.push_str("{\"ev\":\"result\",\"fp\":");
    push_json_string(&mut out, fp);
    let _ = write!(
        out,
        ",\"success\":{},\"revisions\":{},\"degraded\":{},\"fault_events\":{},\"code\":",
        outcome.success, outcome.revisions, outcome.degraded, outcome.fault_events,
    );
    push_json_string(&mut out, &outcome.final_code);
    out.push_str("}\n");
    out
}

/// Appends a trace text as one JSON string literal, escaping each of its
/// pieces in place.
fn push_trace_text(out: &mut String, text: &TraceText) {
    out.push('"');
    text.for_each_piece(|piece| push_json_escaped(out, piece));
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fix_request(code: &str) -> Request {
        serde_json::from_str(&format!(
            "{{\"op\":\"fix\",\"code\":{}}}",
            rtlfixer_obs::json_string(code)
        ))
        .expect("parses")
    }

    #[test]
    fn defaults_mirror_the_batch_episode_path() {
        let spec = JobSpec::from_request(&fix_request("module m; endmodule"), None).unwrap();
        assert_eq!(spec.compiler, CompilerKind::Quartus);
        assert_eq!(spec.strategy, Strategy::React { max_iterations: 10 });
        assert!(spec.rag);
        assert_eq!(spec.capability, Capability::Gpt35Class);
        assert_eq!(spec.deadline_ms, None);
    }

    #[test]
    fn equal_requests_share_a_fingerprint_and_seed() {
        let a = JobSpec::from_request(&fix_request("module m; endmodule"), None).unwrap();
        let b = JobSpec::from_request(&fix_request("module m; endmodule"), None).unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.seed, b.seed);
        let c = JobSpec::from_request(&fix_request("module n; endmodule"), None).unwrap();
        assert_ne!(a.fingerprint(), c.fingerprint());
        assert_eq!(a.fp_hex().len(), 32);
    }

    #[test]
    fn fingerprint_covers_every_outcome_determining_field() {
        let base = JobSpec::from_request(&fix_request("module m; endmodule"), None).unwrap();
        let variants = [
            JobSpec { compiler: CompilerKind::Iverilog, ..base.clone() },
            JobSpec { strategy: Strategy::OneShot, ..base.clone() },
            JobSpec { rag: false, ..base.clone() },
            JobSpec { capability: Capability::Gpt4Class, ..base.clone() },
            JobSpec { seed: base.seed ^ 1, ..base.clone() },
            JobSpec { deadline_ms: Some(5), ..base.clone() },
            JobSpec { problem: "different".to_owned(), ..base.clone() },
        ];
        for variant in variants {
            assert_ne!(variant.fingerprint(), base.fingerprint(), "{variant:?}");
        }
    }

    /// The fingerprint as first written: every field formatted into one
    /// canonical string, then hashed. Kept as the oracle of the streamed
    /// hash.
    fn canonical_fingerprint(spec: &JobSpec) -> u128 {
        let mut canonical = String::new();
        let compiler = match spec.compiler {
            CompilerKind::Simple => "simple",
            CompilerKind::Iverilog => "iverilog",
            CompilerKind::Quartus => "quartus",
        };
        let strategy = match spec.strategy {
            Strategy::OneShot => "oneshot".to_owned(),
            Strategy::React { max_iterations } => format!("react{max_iterations}"),
        };
        let capability = match spec.capability {
            Capability::Gpt35Class => "gpt35",
            Capability::Gpt4Class => "gpt4",
        };
        for field in [
            compiler,
            &strategy,
            capability,
            if spec.rag { "rag" } else { "norag" },
            &spec.seed.to_string(),
            &spec.deadline_ms.map(|d| d.to_string()).unwrap_or_default(),
            &spec.problem,
            &spec.code,
        ] {
            canonical.push_str(&field.len().to_string());
            canonical.push(':');
            canonical.push_str(field);
        }
        rtlfixer_cache::fingerprint128(canonical.as_bytes())
    }

    #[test]
    fn streamed_fingerprint_equals_the_canonical_string_hash() {
        let base = JobSpec::from_request(&fix_request("module m; endmodule"), None).unwrap();
        // The seed derived with no explicit one is the canonical hash of
        // the spec with seed 0.
        assert_eq!(base.seed, canonical_fingerprint(&JobSpec { seed: 0, ..base.clone() }) as u64);
        let long_code = "module m(input a, output y);\n  assign y = a; // 10:20\n".repeat(300);
        let mut specs = vec![base.clone()];
        for compiler in [CompilerKind::Simple, CompilerKind::Iverilog, CompilerKind::Quartus] {
            for strategy in [
                Strategy::OneShot,
                Strategy::React { max_iterations: 0 },
                Strategy::React { max_iterations: 9 },
                Strategy::React { max_iterations: 10 },
                Strategy::React { max_iterations: usize::MAX },
            ] {
                for (rag, capability) in
                    [(true, Capability::Gpt35Class), (false, Capability::Gpt4Class)]
                {
                    specs.push(JobSpec { compiler, strategy, rag, capability, ..base.clone() });
                }
            }
        }
        for seed in [0, 1, 9, 10, 99, 100, 12_345, u64::MAX] {
            specs.push(JobSpec { seed, ..base.clone() });
        }
        for deadline_ms in [None, Some(0), Some(7), Some(10), Some(250), Some(u64::MAX)] {
            specs.push(JobSpec { deadline_ms, ..base.clone() });
        }
        for (problem, code) in [
            ("", "m"),
            ("12:34", "5:6"),
            ("caf\u{e9} \u{1F600}", "module \u{e9};"),
            ("a problem", long_code.as_str()),
        ] {
            specs.push(JobSpec {
                problem: problem.to_owned(),
                code: code.to_owned(),
                ..base.clone()
            });
        }
        for spec in &specs {
            assert_eq!(spec.fingerprint(), canonical_fingerprint(spec), "{spec:?}");
            assert_eq!(spec.fp_hex(), format!("{:032x}", canonical_fingerprint(spec)));
        }
    }

    #[test]
    fn bad_requests_are_named() {
        let mut request = fix_request("module m; endmodule");
        request.code = Some("   ".to_owned());
        assert!(JobSpec::from_request(&request, None).is_err());
        let mut request = fix_request("module m; endmodule");
        request.compiler = Some("vivado".to_owned());
        let err = JobSpec::from_request(&request, None).unwrap_err();
        assert!(err.0.contains("vivado"));
    }

    #[test]
    fn outcome_stream_ends_in_the_result() {
        use rtlfixer_agent::FixTrace;
        let mut trace = FixTrace::new();
        trace.push("compile it", Action::Compiler, "error: x");
        trace.push("done", Action::Finish, "");
        let outcome = FixOutcome {
            success: true,
            final_code: "module m; endmodule".to_owned(),
            revisions: 1,
            initial_categories: vec![],
            remaining_categories: vec![],
            degraded: false,
            fault_events: 0,
            distilled: vec![],
            trace,
        };
        let stream = outcome_stream("00ff", &outcome);
        assert!(stream.ends_with('\n'));
        let lines: Vec<&str> = stream.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"ev\":\"trace\"") && lines[0].contains("\"step\":1"));
        assert!(lines[0].contains("\"action\":\"compiler\""));
        assert!(lines[2].contains("\"ev\":\"result\"") && lines[2].contains("\"success\":true"));
        // Deterministic rendering: the same outcome yields the same bytes.
        assert_eq!(stream, outcome_stream("00ff", &outcome));
    }
}
