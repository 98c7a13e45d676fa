//! Admission control: the bounded queue, per-tenant token buckets,
//! weighted fair dequeue and request coalescing.
//!
//! Every decision point is explicit and observable:
//!
//! * **Bounded queue** — at most `queue_limit` jobs wait, across all
//!   tenants. A full queue rejects (`429 queue-full`); it never grows
//!   unbounded.
//! * **Token buckets** — each tenant refills at `rate` tokens/second up to
//!   `burst`; a fix request costs one token. An empty bucket rejects
//!   (`429 quota-exceeded`) without touching the queue.
//! * **Weighted fair dequeue** — tenants hold separate FIFO queues and
//!   workers pick across them round-robin, `weight` jobs per visit, so one
//!   flooding tenant cannot starve the rest.
//! * **Coalescing** — a fix whose fingerprint matches an in-flight episode
//!   joins that episode's waiter list instead of queueing: one execution,
//!   the same bytes fanned out to every waiter.
//! * **Draining** — once draining starts nothing is admitted
//!   (`429 draining`); workers finish the backlog and exit.
//!
//! Both maps are bounded, although tenant names and fingerprints come from
//! the request line:
//!
//! * **Tenants** — a tenant is remembered only while it has queued jobs or
//!   a bucket that has not yet refilled to `burst`. Once both are false its
//!   state and rotation slot are dropped (on its last dequeue, on a later
//!   visit of the rotation, or when a new tenant arrives). A returning
//!   tenant starts from a full bucket with the same weight — exactly the
//!   state it was dropped in — so forgetting never changes an admit or
//!   reject decision; it rejoins at the end of the rotation, as in
//!   deficit round robin. At most `queue_limit` tenants have queued work;
//!   the rest are tenants that spent tokens within the last
//!   `burst / rate` seconds (with `rate = 0`, for good: forgetting them
//!   would refill a spent quota).
//! * **In flight** — every queued job holds one entry, and every dequeued
//!   job, executed or shed, leaves through [`Admission::complete`], so
//!   there are at most `queue_limit` plus the worker count entries.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use crate::protocol::{JobSpec, REJECT_DRAINING, REJECT_QUEUE_FULL, REJECT_QUOTA};
use crate::server::Conn;

/// One tenant's token-bucket configuration plus its fair-share weight.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BucketCfg {
    /// Tokens added per second.
    pub rate: f64,
    /// Bucket capacity (burst size).
    pub burst: f64,
    /// Jobs dequeued per round-robin visit (fair-share weight, ≥ 1).
    pub weight: u32,
}

/// Per-tenant quota table parsed from `RTLFIXER_SERVE_QUOTA`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QuotaSpec {
    /// Bucket for tenants without an explicit row (`None` = unlimited).
    pub default: Option<BucketCfg>,
    /// Explicit per-tenant rows.
    pub tenants: Vec<(String, BucketCfg)>,
}

impl QuotaSpec {
    /// Parses the `RTLFIXER_SERVE_QUOTA` syntax. `None` means quotas off.
    ///
    /// * `off`, `0`, `false`, `no`, empty — kill switch (unlimited).
    /// * comma-separated `tenant=rate/burst` or `tenant=rate/burst/weight`
    ///   rows; the pseudo-tenant `default` covers everyone unnamed, e.g.
    ///   `default=5/10,acme=100/200/4`.
    pub fn parse(text: &str) -> Result<Option<QuotaSpec>, String> {
        let text = text.trim();
        if matches!(text.to_ascii_lowercase().as_str(), "" | "off" | "0" | "false" | "no") {
            return Ok(None);
        }
        let mut spec = QuotaSpec::default();
        for row in text.split(',') {
            let row = row.trim();
            let (tenant, cfg) = row
                .split_once('=')
                .ok_or_else(|| format!("expected tenant=rate/burst, got `{row}`"))?;
            let mut parts = cfg.split('/');
            let rate: f64 = parts
                .next()
                .unwrap_or_default()
                .trim()
                .parse()
                .map_err(|_| format!("bad rate in `{row}`"))?;
            let burst: f64 = parts
                .next()
                .ok_or_else(|| format!("missing burst in `{row}`"))?
                .trim()
                .parse()
                .map_err(|_| format!("bad burst in `{row}`"))?;
            let weight: u32 = match parts.next() {
                None => 1,
                Some(w) => w.trim().parse().map_err(|_| format!("bad weight in `{row}`"))?,
            };
            if rate < 0.0 || burst < 1.0 || weight < 1 {
                return Err(format!("`{row}`: need rate ≥ 0, burst ≥ 1, weight ≥ 1"));
            }
            let cfg = BucketCfg { rate, burst, weight };
            if tenant.trim() == "default" {
                spec.default = Some(cfg);
            } else {
                spec.tenants.push((tenant.trim().to_owned(), cfg));
            }
        }
        Ok(Some(spec))
    }

    fn for_tenant(&self, tenant: &str) -> Option<BucketCfg> {
        self.tenants
            .iter()
            .find(|(name, _)| name == tenant)
            .map(|(_, cfg)| *cfg)
            .or(self.default)
    }
}

/// A live token bucket.
#[derive(Debug)]
struct TokenBucket {
    cfg: BucketCfg,
    tokens: f64,
    refilled: Instant,
}

impl TokenBucket {
    fn new(cfg: BucketCfg) -> Self {
        TokenBucket { cfg, tokens: cfg.burst, refilled: Instant::now() }
    }

    /// Tokens available at `now`: refilled since the last take, capped at
    /// `burst` (where a new bucket starts).
    fn level(&self, now: Instant) -> f64 {
        let dt = now.saturating_duration_since(self.refilled).as_secs_f64();
        (self.tokens + dt * self.cfg.rate).min(self.cfg.burst)
    }

    fn try_take(&mut self, now: Instant) -> bool {
        self.tokens = self.level(now);
        self.refilled = now;
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

/// One admitted job waiting for (or joined to) execution.
#[derive(Debug)]
pub struct QueuedJob {
    /// The fingerprint hex token correlating responses.
    pub fp: String,
    /// The job itself.
    pub spec: JobSpec,
    /// Owning tenant (its fair-share queue and quota bucket).
    pub tenant: String,
    /// Admission instant — queue-wait deadlines count from here.
    pub admitted: Instant,
}

/// One response consumer of an in-flight episode.
pub struct Waiter {
    /// The connection the response goes out on.
    pub conn: Arc<Conn>,
    /// Injected mid-stream disconnect: deliver the first half of the
    /// lines, then hang up.
    pub truncate: bool,
}

struct TenantState {
    queue: VecDeque<QueuedJob>,
    bucket: Option<TokenBucket>,
    weight: u32,
}

impl TenantState {
    /// Whether dropping this state is invisible: nothing is queued and a
    /// fresh state (full bucket, same weight) would decide the same way.
    fn idle(&self, now: Instant) -> bool {
        self.queue.is_empty() && self.bucket.as_ref().is_none_or(|b| b.level(now) >= b.cfg.burst)
    }
}

struct State {
    draining: bool,
    queued_total: usize,
    /// Remembered tenants: those with queued jobs or a refilling bucket.
    tenants: HashMap<String, TenantState>,
    /// Round-robin rotation over `tenants`; the front is being visited.
    rotation: VecDeque<String>,
    /// Dequeues left for the front tenant this visit.
    credit: u32,
    /// fp → waiters of the episode currently queued or executing.
    inflight: HashMap<String, Vec<Waiter>>,
}

/// Why (or how) an admission attempt resolved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Admit {
    /// The job was queued; a worker will execute it.
    Queued,
    /// An identical episode is in flight; the caller joined its waiters.
    Coalesced,
    /// Refused: reason slug (`queue-full`, `quota-exceeded`, `draining`)
    /// plus a human detail.
    Rejected {
        /// Protocol reason slug.
        reason: &'static str,
        /// Human-readable detail for the response line.
        detail: String,
    },
}

/// The admission state machine shared by connections and workers.
pub struct Admission {
    queue_limit: usize,
    quota: Option<QuotaSpec>,
    state: Mutex<State>,
    work_ready: Condvar,
}

impl Admission {
    /// Creates the admission controller.
    pub fn new(queue_limit: usize, quota: Option<QuotaSpec>) -> Self {
        Admission {
            queue_limit: queue_limit.max(1),
            quota,
            state: Mutex::new(State {
                draining: false,
                queued_total: 0,
                tenants: HashMap::new(),
                rotation: VecDeque::new(),
                credit: 0,
                inflight: HashMap::new(),
            }),
            work_ready: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Tries to admit one fix request. Checks, in order: draining, the
    /// tenant's token bucket, coalescing, then queue capacity. Counters
    /// fire for every path, so the overload story is always visible.
    ///
    /// On `Queued`/`Coalesced` the `ack` line is queued on the waiter's
    /// connection *while the admission lock is held* (the caller sends it
    /// after the lock is released). Workers can only reach this waiter
    /// through [`Admission::complete`], which takes the same lock — so the
    /// ack is ordered before any fan-out line even when the episode
    /// finishes before the admitting thread is scheduled again.
    pub fn admit(&self, job: QueuedJob, waiter: Waiter, ack: &str) -> Admit {
        let mut state = self.lock();
        if state.draining {
            rtlfixer_obs::counter_add("serve.rejected.draining", 1);
            return Admit::Rejected {
                reason: REJECT_DRAINING,
                detail: "daemon is draining".to_owned(),
            };
        }
        // Quota: charged per request, coalesced or not — a duplicate still
        // consumed admission work, and free duplicates would let a tenant
        // launder unlimited traffic through one hot source.
        if let Some(quota) = &self.quota {
            let tenant = job.tenant.clone();
            let cfg = quota.for_tenant(&tenant);
            let tenant_state = ensure_tenant(&mut state, &tenant, cfg);
            if let Some(bucket) = tenant_state.bucket.as_mut() {
                if !bucket.try_take(Instant::now()) {
                    drop(state);
                    rtlfixer_obs::counter_add("serve.rejected.quota", 1);
                    return Admit::Rejected {
                        reason: REJECT_QUOTA,
                        detail: format!("tenant `{tenant}` is out of quota"),
                    };
                }
            }
        }
        if let Some(waiters) = state.inflight.get_mut(&job.fp) {
            waiter.conn.queue_ack(ack);
            waiters.push(waiter);
            rtlfixer_obs::counter_add("serve.coalesced", 1);
            return Admit::Coalesced;
        }
        if state.queued_total >= self.queue_limit {
            rtlfixer_obs::counter_add("serve.rejected.queue_full", 1);
            return Admit::Rejected {
                reason: REJECT_QUEUE_FULL,
                detail: format!("queue limit {} reached", self.queue_limit),
            };
        }
        let tenant = job.tenant.clone();
        waiter.conn.queue_ack(ack);
        state.inflight.insert(job.fp.clone(), vec![waiter]);
        let cfg = self.quota.as_ref().and_then(|q| q.for_tenant(&tenant));
        ensure_tenant(&mut state, &tenant, cfg).queue.push_back(job);
        state.queued_total += 1;
        rtlfixer_obs::counter_add("serve.admitted", 1);
        rtlfixer_obs::gauge_set("serve.queue_depth", state.queued_total as i64);
        drop(state);
        self.work_ready.notify_one();
        Admit::Queued
    }

    /// Worker side: blocks until a job is available (weighted fair pick)
    /// or the daemon is draining with an empty backlog (`None` — the
    /// worker exits).
    pub fn dequeue_blocking(&self) -> Option<QueuedJob> {
        let mut state = self.lock();
        loop {
            if state.queued_total > 0 {
                let job = fair_pick(&mut state);
                rtlfixer_obs::gauge_set("serve.queue_depth", state.queued_total as i64);
                return Some(job);
            }
            if state.draining {
                return None;
            }
            state = self
                .work_ready
                .wait(state)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }

    /// Completes an episode: removes its in-flight entry and returns the
    /// waiters to fan the response out to. Requests arriving after this
    /// start a fresh episode.
    pub fn complete(&self, fp: &str) -> Vec<Waiter> {
        self.lock().inflight.remove(fp).unwrap_or_default()
    }

    /// Stops admitting; wakes every worker so the backlog drains and idle
    /// workers exit.
    pub fn begin_drain(&self) {
        self.lock().draining = true;
        self.work_ready.notify_all();
    }

    /// Whether draining has started.
    pub fn draining(&self) -> bool {
        self.lock().draining
    }

    /// Jobs currently waiting (not executing).
    pub fn queue_depth(&self) -> usize {
        self.lock().queued_total
    }
}

fn ensure_tenant<'a>(
    state: &'a mut State,
    tenant: &str,
    cfg: Option<BucketCfg>,
) -> &'a mut TenantState {
    if !state.tenants.contains_key(tenant) {
        // Forget the idle tenants whose buckets have refilled since their
        // last dequeue, so the maps track live tenants, not every name seen.
        let now = Instant::now();
        state.tenants.retain(|_, t| !t.idle(now));
        let tenants = &state.tenants;
        state.rotation.retain(|name| tenants.contains_key(name));
        state.rotation.push_back(tenant.to_owned());
        state.tenants.insert(
            tenant.to_owned(),
            TenantState {
                queue: VecDeque::new(),
                bucket: cfg.map(TokenBucket::new),
                weight: cfg.map_or(1, |c| c.weight.max(1)),
            },
        );
    }
    state.tenants.get_mut(tenant).expect("tenant just ensured")
}

/// Weighted round-robin pick: visit tenants in rotation order, serving up
/// to `weight` queued jobs per visit. A visit that ends with the tenant
/// idle forgets it instead of rotating it. Caller guarantees
/// `queued_total > 0`.
fn fair_pick(state: &mut State) -> QueuedJob {
    let now = Instant::now();
    let State { tenants, rotation, credit, queued_total, .. } = state;
    for _ in 0..=rotation.len() {
        let front = rotation.front().expect("queued work implies a remembered tenant");
        let tenant = tenants.get_mut(front).expect("rotation names remembered tenants");
        let job = tenant.queue.pop_front();
        if job.is_some() {
            *queued_total -= 1;
            *credit = if *credit == 0 { tenant.weight } else { *credit } - 1;
        }
        if *credit == 0 || tenant.queue.is_empty() {
            *credit = 0; // the visit is over
            if tenant.idle(now) {
                if let Some(name) = rotation.pop_front() {
                    tenants.remove(&name);
                }
            } else {
                rotation.rotate_left(1);
            }
        }
        if let Some(job) = job {
            return job;
        }
    }
    unreachable!("queued_total > 0 but no tenant had work");
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::sync::OnceLock;

    fn job(fp: &str, tenant: &str) -> QueuedJob {
        let request: crate::protocol::Request = serde_json::from_str(&format!(
            "{{\"op\":\"fix\",\"code\":\"module {fp}; endmodule\"}}"
        ))
        .unwrap();
        let spec = JobSpec::from_request(&request, None).unwrap();
        QueuedJob {
            fp: fp.to_owned(),
            spec,
            tenant: tenant.to_owned(),
            admitted: Instant::now(),
        }
    }

    /// A waiter on one connection shared by every test, to a listener
    /// that never accepts: acks queue and nothing is sent.
    fn waiter() -> Waiter {
        static CONN: OnceLock<(TcpListener, Arc<Conn>)> = OnceLock::new();
        let (_, conn) = CONN.get_or_init(|| {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind a local port");
            let addr = listener.local_addr().expect("local address");
            let stream = TcpStream::connect(addr).expect("connect to the listener");
            (listener, Arc::new(Conn::new(stream)))
        });
        Waiter { conn: Arc::clone(conn), truncate: false }
    }

    #[test]
    fn queue_bound_is_explicit_reject() {
        let admission = Admission::new(2, None);
        assert_eq!(admission.admit(job("a", "t"), waiter(), ""), Admit::Queued);
        assert_eq!(admission.admit(job("b", "t"), waiter(), ""), Admit::Queued);
        match admission.admit(job("c", "t"), waiter(), "") {
            Admit::Rejected { reason, .. } => assert_eq!(reason, REJECT_QUEUE_FULL),
            other => panic!("expected queue-full, got {other:?}"),
        }
        assert_eq!(admission.queue_depth(), 2);
    }

    #[test]
    fn identical_fingerprints_coalesce_without_queueing() {
        let admission = Admission::new(1, None);
        assert_eq!(admission.admit(job("same", "t"), waiter(), ""), Admit::Queued);
        // The queue is full (limit 1), yet the duplicate still joins.
        assert_eq!(admission.admit(job("same", "t"), waiter(), ""), Admit::Coalesced);
        assert_eq!(admission.queue_depth(), 1);
        assert_eq!(admission.complete("same").len(), 2);
    }

    #[test]
    fn empty_bucket_rejects_with_quota_reason() {
        let quota = QuotaSpec::parse("default=0/2").unwrap();
        let admission = Admission::new(16, quota);
        assert_eq!(admission.admit(job("a", "t"), waiter(), ""), Admit::Queued);
        assert_eq!(admission.admit(job("b", "t"), waiter(), ""), Admit::Queued);
        match admission.admit(job("c", "t"), waiter(), "") {
            Admit::Rejected { reason, .. } => assert_eq!(reason, REJECT_QUOTA),
            other => panic!("expected quota-exceeded, got {other:?}"),
        }
    }

    #[test]
    fn draining_rejects_everything_new() {
        let admission = Admission::new(16, None);
        admission.begin_drain();
        match admission.admit(job("a", "t"), waiter(), "") {
            Admit::Rejected { reason, .. } => assert_eq!(reason, REJECT_DRAINING),
            other => panic!("expected draining, got {other:?}"),
        }
        // Draining with an empty backlog releases workers immediately.
        assert_eq!(admission.dequeue_blocking().map(|j| j.fp), None);
    }

    #[test]
    fn weighted_fair_dequeue_interleaves_tenants() {
        let quota = QuotaSpec::parse("heavy=1000/1000/2,light=1000/1000").unwrap();
        let admission = Admission::new(64, quota);
        for i in 0..6 {
            assert_eq!(admission.admit(job(&format!("h{i}"), "heavy"), waiter(), ""), Admit::Queued);
        }
        for i in 0..3 {
            assert_eq!(admission.admit(job(&format!("l{i}"), "light"), waiter(), ""), Admit::Queued);
        }
        let order: Vec<String> =
            (0..9).map(|_| admission.dequeue_blocking().expect("job").fp).collect();
        // heavy (weight 2) gets two slots per visit, light one: a flood of
        // heavy jobs cannot starve light.
        assert_eq!(order, vec!["h0", "h1", "l0", "h2", "h3", "l1", "h4", "h5", "l2"]);
    }

    #[test]
    fn idle_tenants_leave_no_state_behind() {
        let admission = Admission::new(4, None);
        for i in 0..10_000 {
            let fp = format!("f{i}");
            let tenant = format!("t{i}");
            assert_eq!(admission.admit(job(&fp, &tenant), waiter(), ""), Admit::Queued);
            assert_eq!(admission.dequeue_blocking().map(|j| j.fp), Some(fp.clone()));
            assert_eq!(admission.complete(&fp).len(), 1);
        }
        let state = admission.lock();
        assert_eq!((state.tenants.len(), state.rotation.len()), (0, 0));
        assert!(state.inflight.is_empty());
    }

    #[test]
    fn forgetting_never_refills_a_spent_quota() {
        // Rate 0: a spent burst never refills, so the tenant stays
        // remembered after its queue empties, through a newcomer's sweep.
        let quota = QuotaSpec::parse("default=0/1").unwrap();
        let admission = Admission::new(16, quota);
        assert_eq!(admission.admit(job("a", "t"), waiter(), ""), Admit::Queued);
        assert_eq!(admission.dequeue_blocking().map(|j| j.fp).as_deref(), Some("a"));
        admission.complete("a");
        assert_eq!(admission.admit(job("b", "u"), waiter(), ""), Admit::Queued);
        match admission.admit(job("c", "t"), waiter(), "") {
            Admit::Rejected { reason, .. } => assert_eq!(reason, REJECT_QUOTA),
            other => panic!("expected quota-exceeded, got {other:?}"),
        }
    }

    #[test]
    fn refilled_tenants_are_swept_when_a_new_tenant_arrives() {
        let quota = QuotaSpec::parse("default=1000/1").unwrap();
        let admission = Admission::new(16, quota);
        assert_eq!(admission.admit(job("a", "t"), waiter(), ""), Admit::Queued);
        assert_eq!(admission.dequeue_blocking().map(|j| j.fp).as_deref(), Some("a"));
        std::thread::sleep(std::time::Duration::from_millis(5)); // 1000/s refills a burst of 1
        assert_eq!(admission.admit(job("b", "u"), waiter(), ""), Admit::Queued);
        let state = admission.lock();
        assert!(!state.tenants.contains_key("t"));
        assert_eq!(state.rotation, ["u"]);
    }

    #[test]
    fn quota_spec_parsing() {
        assert_eq!(QuotaSpec::parse("off").unwrap(), None);
        assert_eq!(QuotaSpec::parse("").unwrap(), None);
        let spec = QuotaSpec::parse("default=5/10,acme=100/200/4").unwrap().unwrap();
        assert_eq!(spec.default, Some(BucketCfg { rate: 5.0, burst: 10.0, weight: 1 }));
        assert_eq!(
            spec.for_tenant("acme"),
            Some(BucketCfg { rate: 100.0, burst: 200.0, weight: 4 })
        );
        assert_eq!(spec.for_tenant("anyone"), spec.default);
        assert!(QuotaSpec::parse("acme").is_err());
        assert!(QuotaSpec::parse("acme=5").is_err());
        assert!(QuotaSpec::parse("acme=5/0").is_err());
    }

    #[test]
    fn bucket_refills_over_time() {
        let cfg = BucketCfg { rate: 1000.0, burst: 2.0, weight: 1 };
        let mut bucket = TokenBucket::new(cfg);
        let now = Instant::now();
        assert!(bucket.try_take(now));
        assert!(bucket.try_take(now));
        assert!(!bucket.try_take(now), "burst of 2 is spent");
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert!(bucket.try_take(Instant::now()), "1000/s refills within 5 ms");
    }
}
