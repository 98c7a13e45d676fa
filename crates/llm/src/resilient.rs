//! The resilient transport layer over any [`LanguageModel`].
//!
//! A production RTLFixer talks to an LLM API that times out, rate-limits,
//! truncates and malforms. [`ResilientModel`] wraps any inner model with
//! the client-side machinery a deployment needs:
//!
//! * **Bounded retries** with exponential backoff and seeded jitter on a
//!   *simulated clock* — no real sleeping, so evaluation stays fast and
//!   bit-identical while backoff arithmetic stays realistic.
//! * A **per-episode circuit breaker**: after enough consecutive failed
//!   calls the episode stops hammering the API and degrades.
//! * A **retry-budget ledger** charging retries to wall-clock and token
//!   budgets that are *distinct* from the agent's ReAct revision budget —
//!   retries buy reliability, not extra reasoning turns.
//!
//! Faults come from a seeded [`FaultPlan`], so whether (and when) a call
//! fails is a pure function of the episode seed: parallel runs at any
//! worker count reproduce the same faults. With faults off the wrapper is
//! pure delegation — bit-identical to the unwrapped model.

use std::sync::Arc;

use rtlfixer_faults::{self as faults, FaultKind, FaultPlan, FaultSpec};

use crate::model::{LanguageModel, RepairRequest, RepairResponse};
use crate::reasoning::Reasoning;

/// One observable resilience event within a repair turn, in order of
/// occurrence. The agent replays these into its ReAct trace so degraded
/// episodes stay auditable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TurnEvent {
    /// A fault struck the call (attempt is 0-based within the turn).
    Fault {
        /// The injected fault kind.
        kind: FaultKind,
        /// 0-based call attempt within this turn.
        attempt: usize,
    },
    /// The client backed off and retried.
    Retry {
        /// 0-based attempt that failed and is being retried.
        attempt: usize,
        /// Simulated backoff charged to the retry ledger, in ms.
        backoff_ms: u64,
    },
    /// The per-episode circuit breaker is (now) open; no call was made.
    CircuitOpen,
}

/// The result of one repair turn through the resilient transport.
#[derive(Debug, Clone)]
pub struct RepairTurn {
    /// The delivered revision, or `None` when every retry was exhausted
    /// (the agent keeps its previous candidate).
    pub response: Option<RepairResponse>,
    /// Resilience events, in order.
    pub events: Vec<TurnEvent>,
    /// Whether the delivered completion is malformed (prose-wrapped) and
    /// needs salvage through the pre-fixer.
    pub malformed: bool,
}

impl RepairTurn {
    /// A clean, fault-free turn.
    pub fn clean(response: RepairResponse) -> Self {
        RepairTurn { response: Some(response), events: Vec::new(), malformed: false }
    }

    /// Whether anything went wrong this turn.
    pub fn is_degraded(&self) -> bool {
        !self.events.is_empty() || self.response.is_none()
    }
}

/// Retry and degradation policy for [`ResilientModel`].
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Maximum retries per turn (on top of the initial call).
    pub max_retries: usize,
    /// First backoff step, in simulated ms (doubles per retry).
    pub base_backoff_ms: u64,
    /// Backoff ceiling, in simulated ms.
    pub max_backoff_ms: u64,
    /// Per-episode simulated wall-clock budget for backoff, in ms.
    pub retry_budget_ms: u64,
    /// Per-episode token budget for wasted (faulted) completions.
    pub retry_token_budget: u64,
    /// Consecutive failed calls that open the circuit breaker.
    pub breaker_threshold: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 4,
            base_backoff_ms: 250,
            max_backoff_ms: 4_000,
            retry_budget_ms: 30_000,
            retry_token_budget: 20_000,
            breaker_threshold: 12,
        }
    }
}

/// What resilience has cost this episode so far. Charged separately from
/// the agent's revision budget.
#[derive(Debug, Clone, Copy, Default)]
pub struct RetryLedger {
    /// Simulated backoff wall-clock spent, in ms.
    pub wall_ms: u64,
    /// Tokens burned on faulted (discarded) completions.
    pub tokens: u64,
    /// Retries performed.
    pub retries: u64,
}

/// A [`LanguageModel`] wrapper adding retries, backoff, circuit breaking
/// and budget accounting. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct ResilientModel<L> {
    inner: L,
    plan: FaultPlan,
    policy: RetryPolicy,
    ledger: RetryLedger,
    deadline_ms: Option<u64>,
    consecutive_failures: u32,
    breaker_open: bool,
}

/// Rough token estimate for a discarded completion (chars / 4, the usual
/// English-plus-code heuristic).
fn estimate_tokens(text: &str) -> u64 {
    (text.len() as u64).div_ceil(4)
}

impl<L: LanguageModel> ResilientModel<L> {
    /// Wraps `inner` under the process-wide fault spec, with the fault
    /// stream derived from `episode_seed`.
    pub fn new(inner: L, episode_seed: u64) -> Self {
        Self::with_plan(inner, FaultPlan::llm(episode_seed))
    }

    /// Wraps `inner` under an explicit spec (chaos harness, tests).
    pub fn with_spec(inner: L, spec: Option<Arc<FaultSpec>>, episode_seed: u64) -> Self {
        Self::with_plan(inner, FaultPlan::llm_with(spec, episode_seed))
    }

    fn with_plan(inner: L, plan: FaultPlan) -> Self {
        ResilientModel {
            inner,
            plan,
            policy: RetryPolicy::default(),
            ledger: RetryLedger::default(),
            deadline_ms: None,
            consecutive_failures: 0,
            breaker_open: false,
        }
    }

    /// Overrides the retry policy (builder style).
    pub fn policy(mut self, policy: RetryPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Caps the episode's *total* simulated retry wall-clock at an
    /// external deadline (builder style). The retry budget becomes
    /// `min(retry_budget_ms, deadline_ms)`: a served request stops
    /// retrying at its deadline instead of exhausting the full backoff
    /// schedule. `0` forbids retries entirely.
    pub fn with_deadline(mut self, deadline_ms: u64) -> Self {
        self.deadline_ms = Some(deadline_ms);
        self
    }

    /// The external deadline cap, if any.
    pub fn deadline_ms(&self) -> Option<u64> {
        self.deadline_ms
    }

    /// The effective simulated wall-clock budget for retries this
    /// episode: the policy budget, clipped by the deadline when set.
    pub fn effective_retry_budget_ms(&self) -> u64 {
        match self.deadline_ms {
            Some(deadline) => self.policy.retry_budget_ms.min(deadline),
            None => self.policy.retry_budget_ms,
        }
    }

    /// The episode's resilience spend so far.
    pub fn ledger(&self) -> RetryLedger {
        self.ledger
    }

    /// Whether the circuit breaker has tripped this episode.
    pub fn breaker_open(&self) -> bool {
        self.breaker_open
    }

    /// A reference to the wrapped model.
    pub fn inner(&self) -> &L {
        &self.inner
    }

    /// Exponential backoff with seeded jitter: `base * 2^attempt` capped
    /// at the ceiling, plus up to 25% decorrelating jitter.
    fn backoff_ms(&mut self, attempt: usize) -> u64 {
        let shift = attempt.min(16) as u32;
        let base = self
            .policy
            .base_backoff_ms
            .saturating_mul(1u64 << shift)
            .min(self.policy.max_backoff_ms);
        base + self.plan.jitter_ms(base / 4)
    }

    /// Notes a failed call; returns `true` if the breaker just opened.
    fn note_failure(&mut self) -> bool {
        self.consecutive_failures += 1;
        if self.consecutive_failures >= self.policy.breaker_threshold {
            self.breaker_open = true;
        }
        self.breaker_open
    }

    /// Runs one repair turn: inject faults per the plan, retry transient
    /// ones under the budget, deliver degraded completions for the agent
    /// to salvage, or report exhaustion.
    pub fn turn(&mut self, request: &RepairRequest<'_>) -> RepairTurn {
        let mut events = Vec::new();
        if self.breaker_open {
            events.push(TurnEvent::CircuitOpen);
            return RepairTurn { response: None, events, malformed: false };
        }

        let mut faulted_kinds: Vec<FaultKind> = Vec::new();
        let mut attempt = 0usize;
        loop {
            let Some(kind) = self.plan.draw() else {
                // Clean call: the inner model answers.
                let response = self.inner.propose_repair(request);
                for kind in faulted_kinds {
                    faults::record_recovered(kind);
                }
                self.consecutive_failures = 0;
                rtlfixer_obs::counter_add(
                    "llm.completion_tokens",
                    estimate_tokens(&response.code),
                );
                return RepairTurn { response: Some(response), events, malformed: false };
            };

            events.push(TurnEvent::Fault { kind, attempt });
            if kind == FaultKind::MalformedOutput {
                // The completion *is* delivered, just wrapped in prose.
                // Recovery (salvage via the pre-fixer) is the agent's call.
                let inner_response = self.inner.propose_repair(request);
                for kind in faulted_kinds {
                    faults::record_recovered(kind);
                }
                self.consecutive_failures = 0;
                return RepairTurn {
                    response: Some(RepairResponse {
                        code: faults::malform_completion(&inner_response.code),
                        thought: inner_response.thought,
                    }),
                    events,
                    malformed: true,
                };
            }

            // Transport faults deliver nothing; truncated / empty
            // completions fail client-side validation (no `endmodule` /
            // no content) — all are retried. Truncated and empty
            // completions still cost their tokens.
            faulted_kinds.push(kind);
            if matches!(kind, FaultKind::TruncatedCompletion | FaultKind::EmptyCompletion) {
                let wasted = estimate_tokens(&request.code);
                self.ledger.tokens += wasted;
                rtlfixer_obs::counter_add("llm.wasted_tokens", wasted);
            }
            if self.note_failure() {
                faults::record_exhausted(kind);
                events.push(TurnEvent::CircuitOpen);
                return RepairTurn { response: None, events, malformed: false };
            }
            let over_budget = self.ledger.tokens > self.policy.retry_token_budget;
            if attempt >= self.policy.max_retries || over_budget {
                faults::record_exhausted(kind);
                return RepairTurn { response: None, events, malformed: false };
            }
            let backoff = self.backoff_ms(attempt);
            if self.ledger.wall_ms + backoff > self.effective_retry_budget_ms() {
                faults::record_exhausted(kind);
                return RepairTurn { response: None, events, malformed: false };
            }
            self.ledger.wall_ms += backoff;
            self.ledger.retries += 1;
            rtlfixer_obs::counter_add("llm.retries", 1);
            rtlfixer_obs::record_span_simulated(
                rtlfixer_obs::kind::RETRY,
                backoff.saturating_mul(1_000),
            );
            events.push(TurnEvent::Retry { attempt, backoff_ms: backoff });
            attempt += 1;
        }
    }
}

impl<L: LanguageModel> LanguageModel for ResilientModel<L> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn begin_episode(&mut self) {
        self.ledger = RetryLedger::default();
        self.consecutive_failures = 0;
        self.breaker_open = false;
        self.inner.begin_episode();
    }

    fn propose_repair(&mut self, request: &RepairRequest<'_>) -> RepairResponse {
        // Plain-API callers still get graceful degradation: an exhausted
        // turn returns the code unchanged.
        self.turn(request).response.unwrap_or_else(|| RepairResponse {
            code: request.code.clone(),
            thought: Reasoning::fixed(
                "The model API was unavailable after exhausting retries; the code is \
                 unchanged this turn.",
            ),
        })
    }

    fn propose_repair_turn(&mut self, request: &RepairRequest<'_>) -> RepairTurn {
        self.turn(request)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Feedback, PromptStyle};
    use crate::simulated::SimulatedLlm;
    use crate::Capability;

    const BROKEN: &str = "module m(input [7:0] in, output reg [7:0] out);\n\
                          always @(posedge clk) out <= in;\nendmodule";

    fn request() -> RepairRequest<'static> {
        RepairRequest {
            code: BROKEN.to_owned(),
            problem: "",
            feedback: Feedback { log: "", identified: &[], informativeness: 0.85 },
            guidance: &[],
            style: PromptStyle::React,
            attempt: 0,
        }
    }

    fn spec(rate: f64) -> Option<Arc<FaultSpec>> {
        Some(Arc::new(FaultSpec::uniform(rate)))
    }

    #[test]
    fn no_spec_is_pure_delegation() {
        let mut bare = SimulatedLlm::new(Capability::Gpt4Class, 11);
        let mut wrapped = ResilientModel::with_spec(SimulatedLlm::new(Capability::Gpt4Class, 11), None, 11);
        bare.begin_episode();
        wrapped.begin_episode();
        let req = request();
        let a = bare.propose_repair(&req);
        let turn = wrapped.propose_repair_turn(&req);
        assert!(!turn.is_degraded());
        let b = turn.response.expect("delivered");
        assert_eq!(a.code, b.code);
        assert_eq!(a.thought.to_string(), b.thought.to_string());
        assert_eq!(wrapped.ledger().retries, 0);
    }

    #[test]
    fn transient_faults_recover_to_the_same_completion() {
        // Transport faults never consume the inner model's randomness, so
        // a recovered turn delivers exactly what a fault-free turn would.
        let req = request();
        let mut reference = SimulatedLlm::new(Capability::Gpt4Class, 3);
        reference.begin_episode();
        let expected = reference.propose_repair(&req);

        let only_timeouts = Some(Arc::new(
            FaultSpec::none().with_rate(FaultKind::Timeout, 0.45),
        ));
        // Find a seed whose first turn faults at least once yet recovers.
        for seed in 0..200u64 {
            let mut model = ResilientModel::with_spec(
                SimulatedLlm::new(Capability::Gpt4Class, 3),
                only_timeouts.clone(),
                seed,
            );
            model.begin_episode();
            let turn = model.propose_repair_turn(&req);
            let faults =
                turn.events.iter().filter(|e| matches!(e, TurnEvent::Fault { .. })).count();
            if faults > 0 {
                if let Some(response) = turn.response {
                    assert_eq!(response.code, expected.code, "seed {seed}");
                    assert!(model.ledger().retries >= 1);
                    assert!(model.ledger().wall_ms > 0);
                    return;
                }
            }
        }
        panic!("no seed produced a recovered faulted turn at rate 0.45");
    }

    #[test]
    fn certain_faults_exhaust_within_retry_bound() {
        let always = Some(Arc::new(FaultSpec::none().with_rate(FaultKind::Timeout, 1.0)));
        let mut model =
            ResilientModel::with_spec(SimulatedLlm::new(Capability::Gpt4Class, 5), always, 5);
        model.begin_episode();
        let turn = model.propose_repair_turn(&request());
        assert!(turn.response.is_none(), "certain timeouts must exhaust");
        let policy = RetryPolicy::default();
        let faults = turn.events.iter().filter(|e| matches!(e, TurnEvent::Fault { .. })).count();
        assert!(faults <= policy.max_retries + 1);
        assert!(faults >= 2, "at least one retry was attempted");
    }

    #[test]
    fn breaker_opens_and_fast_fails_subsequent_turns() {
        let always = Some(Arc::new(FaultSpec::none().with_rate(FaultKind::RateLimited, 1.0)));
        let mut model = ResilientModel::with_spec(
            SimulatedLlm::new(Capability::Gpt4Class, 7),
            always,
            7,
        );
        model.begin_episode();
        let req = request();
        for _ in 0..8 {
            let _ = model.propose_repair_turn(&req);
            if model.breaker_open() {
                break;
            }
        }
        assert!(model.breaker_open(), "certain faults must trip the breaker");
        let turn = model.propose_repair_turn(&req);
        assert_eq!(turn.events, vec![TurnEvent::CircuitOpen]);
        assert!(turn.response.is_none());
        // A new episode resets the breaker.
        model.begin_episode();
        assert!(!model.breaker_open());
        assert_eq!(model.ledger().retries, 0);
    }

    #[test]
    fn malformed_output_is_delivered_for_salvage() {
        let malformed = Some(Arc::new(FaultSpec::none().with_rate(FaultKind::MalformedOutput, 1.0)));
        let mut model = ResilientModel::with_spec(
            SimulatedLlm::new(Capability::Gpt4Class, 9),
            malformed,
            9,
        );
        model.begin_episode();
        let turn = model.propose_repair_turn(&request());
        assert!(turn.malformed);
        let response = turn.response.expect("malformed completions are delivered");
        assert!(response.code.contains("```verilog"), "{}", response.code);
        assert!(response.code.contains("Hope this helps"));
    }

    #[test]
    fn backoff_grows_and_respects_budget() {
        let always = Some(Arc::new(FaultSpec::none().with_rate(FaultKind::TransientServerError, 1.0)));
        let mut model = ResilientModel::with_spec(
            SimulatedLlm::new(Capability::Gpt4Class, 13),
            always,
            13,
        )
        .policy(RetryPolicy { retry_budget_ms: 700, ..RetryPolicy::default() });
        model.begin_episode();
        let turn = model.propose_repair_turn(&request());
        assert!(turn.response.is_none());
        // 250 + 500 would pass 700 only after the second backoff; the
        // ledger never exceeds the budget.
        assert!(model.ledger().wall_ms <= 700, "{:?}", model.ledger());
        let backoffs: Vec<u64> = turn
            .events
            .iter()
            .filter_map(|e| match e {
                TurnEvent::Retry { backoff_ms, .. } => Some(*backoff_ms),
                _ => None,
            })
            .collect();
        for pair in backoffs.windows(2) {
            assert!(pair[1] >= pair[0], "backoff must not shrink: {backoffs:?}");
        }
    }

    #[test]
    fn deadline_stops_retries_before_full_backoff_schedule() {
        let always = Some(Arc::new(FaultSpec::none().with_rate(FaultKind::Timeout, 1.0)));
        let run = |deadline: Option<u64>| {
            let mut model = ResilientModel::with_spec(
                SimulatedLlm::new(Capability::Gpt4Class, 23),
                always.clone(),
                23,
            );
            if let Some(ms) = deadline {
                model = model.with_deadline(ms);
            }
            model.begin_episode();
            let _ = model.propose_repair_turn(&request());
            model.ledger()
        };

        // Without a deadline, certain faults walk the whole backoff
        // schedule (250 + 500 + 1000 + 2000 plus jitter > 3750 ms).
        let free = run(None);
        assert!(free.retries >= 3, "{free:?}");
        assert!(free.wall_ms > 3_000, "{free:?}");

        // A 600 ms deadline stops the schedule after the first backoff
        // step or two — never past the deadline.
        let capped = run(Some(600));
        assert!(capped.wall_ms <= 600, "{capped:?}");
        assert!(capped.retries < free.retries, "{capped:?} vs {free:?}");

        // A zero deadline forbids retries entirely.
        let none = run(Some(0));
        assert_eq!(none.retries, 0, "{none:?}");
        assert_eq!(none.wall_ms, 0, "{none:?}");
    }

    #[test]
    fn plain_api_degrades_to_unchanged_code() {
        let always = Some(Arc::new(FaultSpec::none().with_rate(FaultKind::Timeout, 1.0)));
        let mut model = ResilientModel::with_spec(
            SimulatedLlm::new(Capability::Gpt4Class, 17),
            always,
            17,
        );
        model.begin_episode();
        let req = request();
        let response = model.propose_repair(&req);
        assert_eq!(response.code, req.code, "exhausted turn keeps the code");
        assert!(response.thought.to_string().contains("unavailable"));
    }

    #[test]
    fn fault_stream_is_reproducible() {
        let run = || {
            let mut model = ResilientModel::with_spec(
                SimulatedLlm::new(Capability::Gpt35Class, 21),
                spec(0.4),
                21,
            );
            model.begin_episode();
            let req = request();
            let mut shape = Vec::new();
            for _ in 0..6 {
                let turn = model.propose_repair_turn(&req);
                shape.push((turn.events.len(), turn.response.is_some(), turn.malformed));
            }
            shape
        };
        assert_eq!(run(), run());
    }
}
