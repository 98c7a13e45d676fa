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
    pub fn fingerprint(&self) -> u128 {
        let mut canonical = String::new();
        let compiler = match self.compiler {
            CompilerKind::Simple => "simple",
            CompilerKind::Iverilog => "iverilog",
            CompilerKind::Quartus => "quartus",
        };
        let strategy = match self.strategy {
            Strategy::OneShot => "oneshot".to_owned(),
            Strategy::React { max_iterations } => format!("react{max_iterations}"),
        };
        let capability = match self.capability {
            Capability::Gpt35Class => "gpt35",
            Capability::Gpt4Class => "gpt4",
        };
        // Length-prefixed fields: no concatenation ambiguity.
        for field in [
            compiler,
            &strategy,
            capability,
            if self.rag { "rag" } else { "norag" },
            &self.seed.to_string(),
            &self.deadline_ms.map(|d| d.to_string()).unwrap_or_default(),
            &self.problem,
            &self.code,
        ] {
            canonical.push_str(&field.len().to_string());
            canonical.push(':');
            canonical.push_str(field);
        }
        rtlfixer_cache::fingerprint128(canonical.as_bytes())
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

// ---- response events ----------------------------------------------------
//
// Rendered by hand (the vendored serde_derive cannot derive Serialize for
// lifetime-generic structs); `json_string` handles escaping. Field order
// is fixed, so equal events render to equal bytes — the byte-identity
// contract coalesced fan-out relies on.

use rtlfixer_obs::json_string;

/// The daemon's startup announcement (stdout, not the socket).
pub fn listening_line(port: u16) -> String {
    format!("{{\"ev\":\"listening\",\"port\":{port}}}")
}

/// A request was admitted (or coalesced onto an in-flight episode — the
/// line is identical either way, by design).
pub fn accepted_line(fp: &str) -> String {
    format!("{{\"ev\":\"accepted\",\"fp\":{}}}", json_string(fp))
}

/// A request was refused at admission; 429-style, never silent.
pub fn rejected_line(reason: &str, detail: &str) -> String {
    format!(
        "{{\"ev\":\"rejected\",\"code\":429,\"reason\":{},\"detail\":{}}}",
        json_string(reason),
        json_string(detail)
    )
}

/// An admitted request was dropped before execution (deadline passed in
/// queue).
pub fn shed_line(fp: &str, reason: &str) -> String {
    format!("{{\"ev\":\"shed\",\"fp\":{},\"reason\":{}}}", json_string(fp), json_string(reason))
}

/// `pong`.
pub fn pong_line() -> String {
    "{\"ev\":\"pong\"}".to_owned()
}

/// Acknowledges a `shutdown` op; the daemon drains after sending it.
pub fn shutdown_ack_line() -> String {
    "{\"ev\":\"shutdown-ack\"}".to_owned()
}

/// An episode escaped containment (panicked); the daemon survives and
/// reports the payload.
pub fn error_line(fp: &str, detail: &str) -> String {
    format!("{{\"ev\":\"error\",\"fp\":{},\"detail\":{}}}", json_string(fp), json_string(detail))
}

/// Renders a finished episode as its response stream: one `trace` line per
/// ReAct step, then the `result` line. A pure function of `(fp, outcome)`
/// — the byte-identity contract for coalesced fan-out. The episode stored
/// its steps as handles (`rtlfixer_agent::TraceText`); their text is
/// rendered here, once per finished episode, not inside the episode.
pub fn outcome_lines(fp: &str, outcome: &FixOutcome) -> Vec<String> {
    let mut lines = Vec::with_capacity(outcome.trace.steps.len() + 1);
    for (index, step) in outcome.trace.steps.iter().enumerate() {
        let action = match &step.action {
            Action::Rag { .. } => "rag".to_owned(),
            other => format!("{other}").to_ascii_lowercase(),
        };
        lines.push(format!(
            "{{\"ev\":\"trace\",\"fp\":{},\"step\":{},\"action\":{},\"thought\":{},\"observation\":{}}}",
            json_string(fp),
            index + 1,
            json_string(&action),
            json_string(&step.thought.as_str()),
            json_string(&step.observation.as_str()),
        ));
    }
    lines.push(format!(
        "{{\"ev\":\"result\",\"fp\":{},\"success\":{},\"revisions\":{},\"degraded\":{},\"fault_events\":{},\"code\":{}}}",
        json_string(fp),
        outcome.success,
        outcome.revisions,
        outcome.degraded,
        outcome.fault_events,
        json_string(&outcome.final_code),
    ));
    lines
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
    fn outcome_lines_end_in_the_result() {
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
        let lines = outcome_lines("00ff", &outcome);
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"ev\":\"trace\"") && lines[0].contains("\"step\":1"));
        assert!(lines[0].contains("\"action\":\"compiler\""));
        assert!(lines[2].contains("\"ev\":\"result\"") && lines[2].contains("\"success\":true"));
        // Deterministic rendering: the same outcome yields the same bytes.
        assert_eq!(lines, outcome_lines("00ff", &outcome));
    }
}
