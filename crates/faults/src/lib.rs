//! # rtlfixer-faults
//!
//! Deterministic fault injection for the agent's two unreliable externals:
//! the LLM API and the EDA compiler. A production RTLFixer deployment sees
//! timeouts, rate limits, truncated or malformed completions, compiler
//! crashes and garbled logs; this crate lets the reproduction *rehearse*
//! those failures without giving up bit-identical results.
//!
//! The design mirrors `rtlfixer-cache` (DESIGN.md §3c):
//!
//! * [`FaultSpec`] — per-kind injection rates, parsed from the
//!   `RTLFIXER_FAULTS` environment variable (`off` / unset is the kill
//!   switch) or set programmatically with [`set_global_spec`].
//! * [`FaultPlan`] — a *seeded* per-episode draw stream. Plans derive from
//!   the episode seed (one salt per injection site), so whether an episode
//!   hits a fault is a pure function of its grid coordinates: parallel runs
//!   at any `--jobs` value stay bit-identical, faults included.
//! * Atomic injected / recovered / exhausted counters, exported as a serde
//!   [`FaultReport`] next to the cache counters in throughput artifacts.
//!
//! With no spec (the default), plans draw nothing and consume no
//! randomness, so a faults-off run is bit-identical to a build without the
//! layer.

#![warn(missing_docs)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An injection site: one class of unreliable boundary the fixer crosses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Site {
    /// The LLM transport / decode path.
    Llm,
    /// The EDA compiler subprocess.
    Compiler,
    /// The serving layer (`rtlfixer-serve`): sockets, queues, admission.
    Server,
}

impl Site {
    /// All sites, in [`FaultKind::ALL`] grouping order.
    pub const ALL: [Site; 3] = [Site::Llm, Site::Compiler, Site::Server];
}

/// Every injectable fault. The first six strike the LLM transport / decode
/// path; the next two strike the compiler; the last three strike the
/// serving layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The API call times out; no completion is delivered.
    Timeout,
    /// HTTP 429; no completion is delivered.
    RateLimited,
    /// A completion arrives cut off mid-stream (missing `endmodule`).
    TruncatedCompletion,
    /// A completion arrives wrapped in prose and stray markdown fences.
    MalformedOutput,
    /// A completion arrives with empty content.
    EmptyCompletion,
    /// HTTP 5xx; no completion is delivered.
    TransientServerError,
    /// The compiler process crashes; no log is produced.
    CompilerCrash,
    /// The compiler produces a corrupted, tag-less log.
    GarbledLog,
    /// A client trickles its request line in byte by byte, pinning a
    /// connection slot (slow-loris).
    SlowLorisRequest,
    /// The client socket drops mid-response; streamed trace events after
    /// the disconnect go nowhere.
    MidStreamDisconnect,
    /// A synthetic admission storm: the queue reports full even though
    /// real occupancy is lower, forcing a shed decision.
    QueueFullStorm,
}

impl FaultKind {
    /// All kinds, grouped by site — LLM first, then compiler, then server
    /// (the order of [`FaultSpec`] rates).
    pub const ALL: [FaultKind; 11] = [
        FaultKind::Timeout,
        FaultKind::RateLimited,
        FaultKind::TruncatedCompletion,
        FaultKind::MalformedOutput,
        FaultKind::EmptyCompletion,
        FaultKind::TransientServerError,
        FaultKind::CompilerCrash,
        FaultKind::GarbledLog,
        FaultKind::SlowLorisRequest,
        FaultKind::MidStreamDisconnect,
        FaultKind::QueueFullStorm,
    ];

    /// Stable kebab-case identifier (spec syntax, reports, trace steps).
    pub fn slug(self) -> &'static str {
        match self {
            FaultKind::Timeout => "timeout",
            FaultKind::RateLimited => "rate-limited",
            FaultKind::TruncatedCompletion => "truncated-completion",
            FaultKind::MalformedOutput => "malformed-output",
            FaultKind::EmptyCompletion => "empty-completion",
            FaultKind::TransientServerError => "transient-server-error",
            FaultKind::CompilerCrash => "compiler-crash",
            FaultKind::GarbledLog => "garbled-log",
            FaultKind::SlowLorisRequest => "slow-loris",
            FaultKind::MidStreamDisconnect => "mid-stream-disconnect",
            FaultKind::QueueFullStorm => "queue-full-storm",
        }
    }

    /// Parses a spec-syntax slug.
    pub fn from_slug(slug: &str) -> Option<FaultKind> {
        FaultKind::ALL.into_iter().find(|k| k.slug() == slug)
    }

    /// The call site this kind strikes.
    pub fn site(self) -> Site {
        match self {
            FaultKind::CompilerCrash | FaultKind::GarbledLog => Site::Compiler,
            FaultKind::SlowLorisRequest
            | FaultKind::MidStreamDisconnect
            | FaultKind::QueueFullStorm => Site::Server,
            _ => Site::Llm,
        }
    }

    /// Whether this kind strikes the LLM call site (vs the compiler or the
    /// serving layer).
    pub fn is_llm_side(self) -> bool {
        self.site() == Site::Llm
    }

    fn index(self) -> usize {
        FaultKind::ALL.iter().position(|k| *k == self).expect("kind in ALL")
    }
}

/// Per-kind injection rates in `[0, 1]`, indexed as [`FaultKind::ALL`].
///
/// Each *call site* (one LLM request, one compile run) draws at most one
/// fault; a site's total injection probability is the sum of its kinds'
/// rates, capped at 1.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    rates: [f64; 11],
}

impl FaultSpec {
    /// A spec injecting nothing (useful as a parse base).
    pub fn none() -> Self {
        FaultSpec { rates: [0.0; 11] }
    }

    /// A spec where every call site faults with total probability `rate`,
    /// split evenly across that site's kinds — the chaos sweep's single
    /// knob. Each site splits independently, so batch runs (which never
    /// open a server-site plan) draw identically whether or not the
    /// serving kinds exist.
    pub fn uniform(rate: f64) -> Self {
        let rate = rate.clamp(0.0, 1.0);
        let mut spec = FaultSpec::none();
        for kind in FaultKind::ALL {
            let share = FaultKind::ALL.iter().filter(|k| k.site() == kind.site()).count();
            spec.rates[kind.index()] = rate / share as f64;
        }
        spec
    }

    /// Sets one kind's rate (builder style).
    pub fn with_rate(mut self, kind: FaultKind, rate: f64) -> Self {
        self.rates[kind.index()] = rate.clamp(0.0, 1.0);
        self
    }

    /// This kind's injection rate.
    pub fn rate(&self, kind: FaultKind) -> f64 {
        self.rates[kind.index()]
    }

    /// Total injection probability at one call site (capped at 1).
    pub fn site_total(&self, llm_side: bool) -> f64 {
        self.site_rate(if llm_side { Site::Llm } else { Site::Compiler })
    }

    /// Total injection probability at one [`Site`] (capped at 1).
    pub fn site_rate(&self, site: Site) -> f64 {
        FaultKind::ALL
            .iter()
            .filter(|k| k.site() == site)
            .map(|k| self.rates[k.index()])
            .sum::<f64>()
            .min(1.0)
    }

    /// Whether the spec injects anything at all.
    pub fn is_active(&self) -> bool {
        self.rates.iter().any(|r| *r > 0.0)
    }

    /// Parses the `RTLFIXER_FAULTS` spec syntax. `None` means faults off.
    ///
    /// * `off`, `0`, `false`, `no`, empty — kill switch.
    /// * a bare number, e.g. `0.15` — [`FaultSpec::uniform`] at that rate.
    /// * comma-separated `slug=rate` pairs, e.g.
    ///   `timeout=0.1,garbled-log=0.05` — per-kind rates (unnamed kinds 0).
    pub fn parse(text: &str) -> Result<Option<FaultSpec>, String> {
        let text = text.trim();
        if matches!(text.to_ascii_lowercase().as_str(), "" | "off" | "0" | "false" | "no") {
            return Ok(None);
        }
        if let Ok(rate) = text.parse::<f64>() {
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!("fault rate {rate} outside [0, 1]"));
            }
            let spec = FaultSpec::uniform(rate);
            return Ok(spec.is_active().then_some(spec));
        }
        let mut spec = FaultSpec::none();
        for pair in text.split(',') {
            let pair = pair.trim();
            let (slug, rate) = pair
                .split_once('=')
                .ok_or_else(|| format!("expected slug=rate, got `{pair}`"))?;
            let kind = FaultKind::from_slug(slug.trim())
                .ok_or_else(|| format!("unknown fault kind `{}`", slug.trim()))?;
            let rate: f64 = rate
                .trim()
                .parse()
                .map_err(|_| format!("bad rate `{}` for {}", rate.trim(), kind.slug()))?;
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!("rate {rate} for {} outside [0, 1]", kind.slug()));
            }
            spec = spec.with_rate(kind, rate);
        }
        Ok(spec.is_active().then_some(spec))
    }
}

// Outer None = uninitialised (read RTLFIXER_FAULTS lazily); inner None =
// faults off.
#[allow(clippy::type_complexity)]
static GLOBAL_SPEC: Mutex<Option<Option<Arc<FaultSpec>>>> = Mutex::new(None);

/// The process-wide fault spec: `RTLFIXER_FAULTS` read lazily, overridable
/// with [`set_global_spec`]. `None` = faults off (the default).
///
/// A malformed environment spec disables faults rather than aborting —
/// benchmark runs must not die to a typo in a tuning variable.
pub fn global_spec() -> Option<Arc<FaultSpec>> {
    let mut guard = GLOBAL_SPEC.lock().expect("fault spec lock");
    guard
        .get_or_insert_with(|| {
            std::env::var("RTLFIXER_FAULTS")
                .ok()
                .and_then(|text| FaultSpec::parse(&text).unwrap_or(None))
                .map(Arc::new)
        })
        .clone()
}

/// Overrides the process-wide spec (tests, the chaos harness). `None`
/// turns faults off regardless of the environment.
pub fn set_global_spec(spec: Option<FaultSpec>) {
    *GLOBAL_SPEC.lock().expect("fault spec lock") = Some(spec.map(Arc::new));
}

/// Whether any fault injection is active process-wide.
pub fn enabled() -> bool {
    global_spec().is_some()
}

// Seed salts: one per injection site, so the LLM and compiler draw streams
// of one episode are independent (and independent of the episode's own
// model randomness, which mixes nothing in).
const LLM_SALT: u64 = 0xFA17_5EED_11C0_DE01;
const COMPILER_SALT: u64 = 0xFA17_5EED_C0DE_C0DE;
const SERVER_SALT: u64 = 0xFA17_5EED_5E12_7E00;

/// The per-episode fault draw stream for one injection site.
///
/// A plan is a pure function of `(spec, episode seed, site)`: every draw
/// comes from its own seeded RNG, so fault placement is reproducible
/// across runs, worker counts and thread schedules. With no spec the plan
/// draws nothing and consumes no randomness.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    spec: Option<Arc<FaultSpec>>,
    site: Site,
    rng: StdRng,
}

impl FaultPlan {
    /// The LLM-site plan for an episode, under the [`global_spec`].
    pub fn llm(episode_seed: u64) -> Self {
        Self::llm_with(global_spec(), episode_seed)
    }

    /// The compiler-site plan for an episode, under the [`global_spec`].
    pub fn compiler(episode_seed: u64) -> Self {
        Self::compiler_with(global_spec(), episode_seed)
    }

    /// The server-site plan for a request, under the [`global_spec`].
    /// Seeded by the request fingerprint rather than an episode seed, so a
    /// request's serving-layer faults are as reproducible as its repairs.
    pub fn server(request_seed: u64) -> Self {
        Self::server_with(global_spec(), request_seed)
    }

    /// The LLM-site plan under an explicit spec (chaos harness, tests —
    /// avoids mutating process-wide state).
    pub fn llm_with(spec: Option<Arc<FaultSpec>>, episode_seed: u64) -> Self {
        FaultPlan {
            spec,
            site: Site::Llm,
            rng: StdRng::seed_from_u64(episode_seed ^ LLM_SALT),
        }
    }

    /// The compiler-site plan under an explicit spec.
    pub fn compiler_with(spec: Option<Arc<FaultSpec>>, episode_seed: u64) -> Self {
        FaultPlan {
            spec,
            site: Site::Compiler,
            rng: StdRng::seed_from_u64(episode_seed ^ COMPILER_SALT),
        }
    }

    /// The server-site plan under an explicit spec.
    pub fn server_with(spec: Option<Arc<FaultSpec>>, request_seed: u64) -> Self {
        FaultPlan {
            spec,
            site: Site::Server,
            rng: StdRng::seed_from_u64(request_seed ^ SERVER_SALT),
        }
    }

    /// A plan that never injects (faults disabled).
    pub fn inert() -> Self {
        FaultPlan { spec: None, site: Site::Llm, rng: StdRng::seed_from_u64(0) }
    }

    /// Whether this plan can inject anything.
    pub fn is_active(&self) -> bool {
        self.spec.as_ref().is_some_and(|s| s.site_rate(self.site) > 0.0)
    }

    /// Draws the fault (if any) for the next call at this plan's site.
    /// Consumes exactly one RNG value when active, none otherwise.
    pub fn draw(&mut self) -> Option<FaultKind> {
        let spec = self.spec.as_ref()?;
        let total = spec.site_rate(self.site);
        if total <= 0.0 {
            return None;
        }
        let x: f64 = self.rng.gen_range(0.0..1.0);
        let mut cumulative = 0.0;
        for kind in FaultKind::ALL {
            if kind.site() != self.site {
                continue;
            }
            cumulative += spec.rate(kind);
            if x < cumulative.min(1.0) {
                record_injected(kind);
                return Some(kind);
            }
        }
        None
    }

    /// A seeded jitter draw in `0..=spread` milliseconds (exponential
    /// backoff decorrelation).
    pub fn jitter_ms(&mut self, spread: u64) -> u64 {
        if spread == 0 {
            return 0;
        }
        self.rng.gen_range(0..=spread)
    }

    /// Cuts a completion off mid-stream: keeps a seeded 30–70% prefix,
    /// respecting char boundaries.
    pub fn truncate_completion(&mut self, code: &str) -> String {
        if code.is_empty() {
            return String::new();
        }
        let percent = self.rng.gen_range(30..70u64);
        let mut cut = (code.len() as u64 * percent / 100) as usize;
        while cut < code.len() && !code.is_char_boundary(cut) {
            cut += 1;
        }
        code[..cut].to_owned()
    }

    /// Corrupts a compiler log: seeded character noise that destroys the
    /// numeric error tags exact-match retrieval keys on.
    pub fn garble_log(&mut self, log: &str) -> String {
        const NOISE: [char; 6] = ['#', '@', '%', '~', '?', '*'];
        let mut out = String::with_capacity(log.len());
        for ch in log.chars() {
            // Digits always garble (tags must not survive); other
            // non-whitespace garbles at ~25%.
            let garble = ch.is_ascii_digit()
                || (!ch.is_whitespace() && self.rng.gen_bool(0.25));
            if garble {
                out.push(NOISE[self.rng.gen_range(0..NOISE.len())]);
            } else {
                out.push(ch);
            }
        }
        out
    }
}

/// The log text a crashed compiler run leaves behind.
pub fn crash_log() -> &'static str {
    "Internal Error: Sub-system: VRFX, File: /quartus/synth/vrfx/vrfx_verilog_elaborate.cpp\n\
     Stack Trace: (signal 11, segmentation violation)\n\
     Quartus Prime Compiler was unsuccessful. 0 errors, 0 warnings"
}

/// Wraps a completion in prose plus a decoy fenced block — the classic
/// "chatty model" malformation the pre-fixer must salvage.
pub fn malform_completion(code: &str) -> String {
    format!(
        "Sure! Let me outline the approach first:\n```\n1. inspect the error\n2. patch the \
         offending line\n```\nAnd here is the corrected implementation:\n```verilog\n{code}\n```\n\
         Hope this helps — let me know if anything else breaks!"
    )
}

// --- counters ------------------------------------------------------------

const KINDS: usize = FaultKind::ALL.len();

#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);
static INJECTED: [AtomicU64; KINDS] = [ZERO; KINDS];
static RECOVERED: [AtomicU64; KINDS] = [ZERO; KINDS];
static EXHAUSTED: [AtomicU64; KINDS] = [ZERO; KINDS];

/// Counts one injected fault (called by [`FaultPlan::draw`]).
pub fn record_injected(kind: FaultKind) {
    INJECTED[kind.index()].fetch_add(1, Ordering::Relaxed);
    rtlfixer_obs::counter_add("faults.injected", 1);
    rtlfixer_obs::counter_add(&format!("faults.injected.{}", kind.slug()), 1);
}

/// Counts a fault the retry / degrade machinery fully absorbed.
pub fn record_recovered(kind: FaultKind) {
    RECOVERED[kind.index()].fetch_add(1, Ordering::Relaxed);
    rtlfixer_obs::counter_add("faults.recovered", 1);
    rtlfixer_obs::counter_add(&format!("faults.recovered.{}", kind.slug()), 1);
}

/// Counts a fault that survived every retry (the turn was lost).
pub fn record_exhausted(kind: FaultKind) {
    EXHAUSTED[kind.index()].fetch_add(1, Ordering::Relaxed);
    rtlfixer_obs::counter_add("faults.exhausted", 1);
    rtlfixer_obs::counter_add(&format!("faults.exhausted.{}", kind.slug()), 1);
}

/// Resets all counters (A/B sweeps, tests).
pub fn reset_counters() {
    for i in 0..KINDS {
        INJECTED[i].store(0, Ordering::Relaxed);
        RECOVERED[i].store(0, Ordering::Relaxed);
        EXHAUSTED[i].store(0, Ordering::Relaxed);
    }
}

/// Per-kind counter row of a [`FaultReport`].
#[derive(Debug, Clone, serde::Serialize)]
pub struct FaultKindStats {
    /// The kind's [`FaultKind::slug`].
    pub kind: &'static str,
    /// Faults injected.
    pub injected: u64,
    /// Faults absorbed by retry / salvage / degrade.
    pub recovered: u64,
    /// Faults that cost their turn.
    pub exhausted: u64,
}

/// Point-in-time snapshot of the process-wide fault counters, exported
/// next to the artifact caches' `CacheReport` (`rtlfixer_eval::runner`) in
/// throughput artifacts.
#[derive(Debug, Clone, serde::Serialize)]
pub struct FaultReport {
    /// Whether injection was active at snapshot time.
    pub enabled: bool,
    /// Total faults injected since process start (or last reset).
    pub injected: u64,
    /// Total faults recovered.
    pub recovered: u64,
    /// Total faults exhausted.
    pub exhausted: u64,
    /// Non-zero per-kind rows.
    pub by_kind: Vec<FaultKindStats>,
}

/// Snapshots the fault counters.
pub fn fault_report() -> FaultReport {
    let by_kind: Vec<FaultKindStats> = FaultKind::ALL
        .into_iter()
        .map(|kind| FaultKindStats {
            kind: kind.slug(),
            injected: INJECTED[kind.index()].load(Ordering::Relaxed),
            recovered: RECOVERED[kind.index()].load(Ordering::Relaxed),
            exhausted: EXHAUSTED[kind.index()].load(Ordering::Relaxed),
        })
        .filter(|row| row.injected + row.recovered + row.exhausted > 0)
        .collect();
    FaultReport {
        enabled: enabled(),
        injected: by_kind.iter().map(|r| r.injected).sum(),
        recovered: by_kind.iter().map(|r| r.recovered).sum(),
        exhausted: by_kind.iter().map(|r| r.exhausted).sum(),
        by_kind,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slugs_round_trip() {
        for kind in FaultKind::ALL {
            assert_eq!(FaultKind::from_slug(kind.slug()), Some(kind));
        }
        assert_eq!(FaultKind::from_slug("nope"), None);
    }

    #[test]
    fn spec_parsing() {
        assert_eq!(FaultSpec::parse("off").unwrap(), None);
        assert_eq!(FaultSpec::parse("").unwrap(), None);
        assert_eq!(FaultSpec::parse("0").unwrap(), None);
        let uniform = FaultSpec::parse("0.3").unwrap().expect("active");
        assert!((uniform.site_total(true) - 0.3).abs() < 1e-12);
        assert!((uniform.site_total(false) - 0.3).abs() < 1e-12);
        let pairs = FaultSpec::parse("timeout=0.1, garbled-log=0.05").unwrap().expect("active");
        assert_eq!(pairs.rate(FaultKind::Timeout), 0.1);
        assert_eq!(pairs.rate(FaultKind::GarbledLog), 0.05);
        assert_eq!(pairs.rate(FaultKind::RateLimited), 0.0);
        assert!(FaultSpec::parse("bogus=0.1").is_err());
        assert!(FaultSpec::parse("timeout=2.0").is_err());
        assert!(FaultSpec::parse("1.5").is_err());
    }

    #[test]
    fn plans_are_deterministic_and_site_independent() {
        let spec = Some(Arc::new(FaultSpec::uniform(0.5)));
        let draw_all = |mut plan: FaultPlan| -> Vec<Option<FaultKind>> {
            (0..64).map(|_| plan.draw()).collect()
        };
        let a = draw_all(FaultPlan::llm_with(spec.clone(), 42));
        let b = draw_all(FaultPlan::llm_with(spec.clone(), 42));
        assert_eq!(a, b, "same seed, same stream");
        let c = draw_all(FaultPlan::llm_with(spec.clone(), 43));
        assert_ne!(a, c, "different seed, different stream");
        let d = draw_all(FaultPlan::compiler_with(spec, 42));
        assert_ne!(a, d, "sites draw independent streams");
        assert!(a.iter().flatten().all(|k| k.is_llm_side()));
        assert!(d.iter().flatten().all(|k| !k.is_llm_side()));
        assert!(a.iter().any(|f| f.is_some()) && a.iter().any(|f| f.is_none()));
    }

    #[test]
    fn server_site_draws_only_server_kinds() {
        let spec = Arc::new(FaultSpec::uniform(0.5));
        for site in Site::ALL {
            assert!((spec.site_rate(site) - 0.5).abs() < 1e-12, "{site:?}");
        }
        let draw_all = |mut plan: FaultPlan| -> Vec<Option<FaultKind>> {
            (0..64).map(|_| plan.draw()).collect()
        };
        let a = draw_all(FaultPlan::server_with(Some(spec.clone()), 42));
        let b = draw_all(FaultPlan::server_with(Some(spec.clone()), 42));
        assert_eq!(a, b, "same seed, same stream");
        assert!(a.iter().flatten().all(|k| k.site() == Site::Server));
        assert!(a.iter().flatten().all(|k| !k.is_llm_side()));
        assert!(a.iter().any(|f| f.is_some()) && a.iter().any(|f| f.is_none()));
        let llm = draw_all(FaultPlan::llm_with(Some(spec), 42));
        assert_ne!(a, llm, "sites draw independent streams");
    }

    #[test]
    fn server_spec_pairs_parse() {
        let spec = FaultSpec::parse("slow-loris=0.1,queue-full-storm=0.2")
            .unwrap()
            .expect("active");
        assert_eq!(spec.rate(FaultKind::SlowLorisRequest), 0.1);
        assert_eq!(spec.rate(FaultKind::QueueFullStorm), 0.2);
        assert!((spec.site_rate(Site::Server) - 0.3).abs() < 1e-12);
        assert_eq!(spec.site_rate(Site::Llm), 0.0);
        assert_eq!(spec.site_rate(Site::Compiler), 0.0);
    }

    #[test]
    fn inactive_plans_draw_nothing() {
        let mut inert = FaultPlan::inert();
        assert!(!inert.is_active());
        assert_eq!(inert.draw(), None);
        let mut zero = FaultPlan::llm_with(Some(Arc::new(FaultSpec::uniform(0.0))), 7);
        assert!(!zero.is_active());
        assert_eq!(zero.draw(), None);
    }

    #[test]
    fn draw_rate_tracks_spec() {
        let spec = Some(Arc::new(FaultSpec::uniform(0.25)));
        let mut plan = FaultPlan::llm_with(spec, 9);
        let hits = (0..4000).filter(|_| plan.draw().is_some()).count();
        assert!((800..1200).contains(&hits), "{hits} injections at rate 0.25");
    }

    #[test]
    fn garbled_logs_lose_tags() {
        let mut plan = FaultPlan::compiler_with(Some(Arc::new(FaultSpec::uniform(0.1))), 3);
        let garbled = plan.garble_log("Error (10161): object \"clk\" is not declared");
        assert!(!garbled.contains("10161"), "{garbled}");
        assert_eq!(garbled.chars().count(), "Error (10161): object \"clk\" is not declared".chars().count());
    }

    #[test]
    fn truncation_keeps_a_proper_prefix() {
        let mut plan = FaultPlan::llm_with(Some(Arc::new(FaultSpec::uniform(0.1))), 5);
        let code = "module m(input a, output y);\nassign y = a;\nendmodule\n";
        let cut = plan.truncate_completion(code);
        assert!(code.starts_with(&cut));
        assert!(cut.len() < code.len());
        assert!(!cut.contains("endmodule"));
        assert_eq!(plan.truncate_completion(""), "");
    }

    #[test]
    fn malformed_wrapper_contains_decoy_block() {
        let wrapped = malform_completion("module m; endmodule");
        let first_fence = wrapped.find("```").unwrap();
        let code_fence = wrapped.find("```verilog").unwrap();
        assert!(first_fence < code_fence, "decoy block must come first");
        assert!(wrapped.contains("module m; endmodule"));
    }

    #[test]
    fn counters_aggregate_by_kind() {
        reset_counters();
        record_injected(FaultKind::Timeout);
        record_injected(FaultKind::Timeout);
        record_recovered(FaultKind::Timeout);
        record_exhausted(FaultKind::GarbledLog);
        let report = fault_report();
        assert!(report.injected >= 2);
        assert!(report.recovered >= 1);
        assert!(report.exhausted >= 1);
        assert!(report.by_kind.iter().any(|r| r.kind == "timeout" && r.injected >= 2));
        reset_counters();
    }
}
