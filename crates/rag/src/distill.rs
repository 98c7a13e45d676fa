//! The self-extending guidance store (DESIGN.md §3k).
//!
//! Successful episodes distill `(error fingerprint → fix delta → guidance)`
//! entries into a [`DistilledStore`]. The store is read through immutable
//! [`DistilledSnapshot`]s: an episode captures one snapshot when its fixer
//! is built and never observes concurrent merges, so a pool of episodes
//! stays bit-identical at any `--jobs` as long as merges happen only at the
//! pool barrier (which is where the eval runner and the learning-curve
//! experiment put them — in grid index order). The serve daemon shares one
//! process-wide store across requests, which is the cross-request caching
//! headroom PR 8 left open: a diagnostic any tenant fixed once upgrades
//! every later request that hits the same error shape.
//!
//! Two read paths consume the store:
//!
//! * **Exact fingerprint lookup** — the agent fingerprints the current
//!   compiler log ([`log_fingerprint`]) and a hit returns authoritative
//!   (exact-retrieval) guidance, the distilled analogue of a tag match.
//! * **The merged database** — [`DistilledStore::merged_database`] appends
//!   the distilled entries to a base [`GuidanceDatabase`] so the lexical
//!   and category legs of the hybrid retriever see them too. Each
//!   generation's merged database is a new database carrying its own
//!   TF-IDF index ([`crate::retriever::shared_tfidf_index`]), so a grown
//!   store can never be read through a stale index. The store caches only
//!   the current generation's merged databases; an older one, and its
//!   index, is freed when the last episode holding it drops it.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use rtlfixer_verilog::diag::ErrorCategory;

use crate::database::{category_brief, ErrorCategorySlug, GuidanceDatabase, GuidanceEntry};
use crate::retriever::rag_switch_on;

/// Hard cap on distilled entries: the store is a cache of repair shapes,
/// not an unbounded log. Beyond the cap new shapes are dropped (counted by
/// the caller's telemetry), keeping long-running daemons bounded.
pub const MAX_DISTILLED: usize = 1024;

/// Merged databases kept per generation, one per base `Arc` (the two
/// shipped editions need two). Past the cap the oldest is dropped, so
/// callers passing a fresh base per episode cannot grow the cache.
const MAX_MERGED_BASES: usize = 4;

/// Whether episodes read and feed the distilled store
/// (`RTLFIXER_RAG_DISTILL` kill switch; on unless explicitly disabled —
/// though batch experiments only participate when they wire a store in,
/// so the paper grids reproduce bit-for-bit either way).
pub fn distill_enabled() -> bool {
    rag_switch_on("RTLFIXER_RAG_DISTILL")
}

/// Fingerprint of a compiler log's error *shape*: digit runs collapse to
/// `#` and quoted names to `~`, so the same diagnostic at a different line
/// number or signal name maps to the same distilled entry.
pub fn log_fingerprint(log: &str) -> u128 {
    let mut normalized = String::with_capacity(log.len());
    let mut chars = log.chars().peekable();
    while let Some(c) = chars.next() {
        if c.is_ascii_digit() {
            while chars.peek().is_some_and(char::is_ascii_digit) {
                chars.next();
            }
            normalized.push('#');
        } else if c == '"' || c == '\'' {
            let quote = c;
            while let Some(&next) = chars.peek() {
                chars.next();
                if next == quote {
                    break;
                }
            }
            normalized.push('~');
        } else {
            normalized.push(c);
        }
    }
    rtlfixer_cache::fingerprint128(normalized.as_bytes())
}

/// One distilled repair brief: the error shape it covers, the exemplar log
/// it was distilled from, and the fix-delta guidance a successful episode
/// wrote back.
#[derive(Debug, Clone, PartialEq)]
pub struct DistilledEntry {
    /// [`log_fingerprint`] of the originating compiler log.
    pub fingerprint: u128,
    /// Error category of the first-reported diagnostic the episode fixed.
    pub category: ErrorCategorySlug,
    /// The originating log (truncated), kept as the lexical exemplar.
    pub log_exemplar: String,
    /// The distilled fix-delta guidance, shared with every prompt and
    /// trace that shows it.
    pub guidance: Arc<str>,
}

impl DistilledEntry {
    /// Distills a successful episode: the initial failing log, the
    /// first-reported category, and the observed fix effort become a
    /// repair brief for the next episode that hits the same error shape.
    pub fn from_episode(
        initial_log: &str,
        category: ErrorCategory,
        revisions: usize,
        lines_changed: usize,
    ) -> DistilledEntry {
        const MAX_EXEMPLAR: usize = 240;
        let mut log_exemplar = initial_log.to_owned();
        if log_exemplar.len() > MAX_EXEMPLAR {
            let cut = (0..=MAX_EXEMPLAR)
                .rev()
                .find(|&i| log_exemplar.is_char_boundary(i))
                .unwrap_or(0);
            log_exemplar.truncate(cut);
        }
        let guidance = format!(
            "A previous repair cleared this exact error shape ({}) in {} revision(s), \
             changing {} line(s). Apply the category's standard repair directly: {}",
            category.slug(),
            revisions,
            lines_changed,
            category_brief(category).0,
        );
        DistilledEntry {
            fingerprint: log_fingerprint(initial_log),
            category: ErrorCategorySlug(category),
            log_exemplar,
            guidance: guidance.into(),
        }
    }

    /// Materialises the entry as a database row (for the merged database).
    fn as_guidance_entry(&self) -> GuidanceEntry {
        let (grammar_hint, anti_patterns) = category_brief(self.category.0);
        GuidanceEntry {
            id: format!("distilled-{:032x}", self.fingerprint),
            category: self.category,
            error_tag: None,
            log_exemplar: self.log_exemplar.clone(),
            guidance: self.guidance.to_string(),
            demonstration: None,
            grammar_hint: grammar_hint.to_owned(),
            anti_patterns: anti_patterns.iter().map(|s| (*s).to_owned()).collect(),
        }
    }
}

/// An immutable view of the store at one generation. Episodes hold a
/// snapshot for their whole lifetime; merges build new snapshots.
#[derive(Debug, Default)]
pub struct DistilledSnapshot {
    entries: BTreeMap<u128, DistilledEntry>,
    generation: u64,
}

impl DistilledSnapshot {
    /// Looks up the distilled entry for a compiler log, if one exists.
    pub fn lookup(&self, log: &str) -> Option<&DistilledEntry> {
        self.entries.get(&log_fingerprint(log))
    }

    /// Number of distilled entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the snapshot holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Monotone generation counter (bumps once per inserting merge).
    pub fn generation(&self) -> u64 {
        self.generation
    }
}

/// The sharable, growable store. All mutation goes through [`merge`]
/// (copy-on-write: readers keep their snapshot); reads go through
/// [`snapshot`].
///
/// [`merge`]: DistilledStore::merge
/// [`snapshot`]: DistilledStore::snapshot
#[derive(Debug, Default)]
pub struct DistilledStore {
    current: Mutex<Arc<DistilledSnapshot>>,
    /// The current generation's merged databases, one per base, at most
    /// [`MAX_MERGED_BASES`].
    merged: Mutex<Vec<Merged>>,
}

/// One cached merged database, keyed by the identity of its base `Arc` and
/// the generation it covers. Holding the base keeps its address from being
/// reused by another database while the entry lives.
#[derive(Debug)]
struct Merged {
    base: Arc<GuidanceDatabase>,
    generation: u64,
    db: Arc<GuidanceDatabase>,
}

impl DistilledStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current immutable snapshot.
    pub fn snapshot(&self) -> Arc<DistilledSnapshot> {
        Arc::clone(&self.current.lock().expect("distill store lock"))
    }

    /// Number of distilled entries in the current snapshot.
    pub fn len(&self) -> usize {
        self.snapshot().len()
    }

    /// Whether the current snapshot holds no entries.
    pub fn is_empty(&self) -> bool {
        self.snapshot().is_empty()
    }

    /// Merges distilled entries, first-wins per fingerprint, capped at
    /// [`MAX_DISTILLED`]. Returns how many entries were actually inserted;
    /// the generation bumps only when that is non-zero, so repeat merges
    /// of known shapes are free (no snapshot churn, no index rebuilds).
    ///
    /// Determinism contract: with a fixed call order (the eval runner
    /// merges at the pool barrier in grid index order) the resulting
    /// snapshot is a pure function of the episode results, independent of
    /// `--jobs`.
    pub fn merge(&self, entries: &[DistilledEntry]) -> usize {
        if entries.is_empty() {
            return 0;
        }
        let mut current = self.current.lock().expect("distill store lock");
        let novel: Vec<&DistilledEntry> = entries
            .iter()
            .filter(|e| !current.entries.contains_key(&e.fingerprint))
            .collect();
        if novel.is_empty() {
            return 0;
        }
        let mut next = DistilledSnapshot {
            entries: current.entries.clone(),
            generation: current.generation + 1,
        };
        let mut inserted = 0;
        for entry in novel {
            if next.entries.len() >= MAX_DISTILLED {
                break;
            }
            if next.entries.insert(entry.fingerprint, entry.clone()).is_none() {
                inserted += 1;
            }
        }
        if inserted == 0 {
            return 0;
        }
        *current = Arc::new(next);
        drop(current);
        // The cached merged databases cover the old generation: release
        // them so each is freed with its last episode.
        self.merged.lock().expect("distill merge cache lock").clear();
        inserted
    }

    /// The base database extended with the current distilled entries (in
    /// fingerprint order), cached per (base `Arc`, generation) so thousands
    /// of episodes share one materialisation and its index. An empty store
    /// aliases the base `Arc` — zero cost until the first successful
    /// distillation.
    pub fn merged_database(&self, base: &Arc<GuidanceDatabase>) -> Arc<GuidanceDatabase> {
        let snapshot = self.snapshot();
        if snapshot.is_empty() {
            return Arc::clone(base);
        }
        let generation = snapshot.generation();
        let mut cache = self.merged.lock().expect("distill merge cache lock");
        if let Some(hit) =
            cache.iter().find(|m| m.generation == generation && Arc::ptr_eq(&m.base, base))
        {
            return Arc::clone(&hit.db);
        }
        let mut entries = base.entries().to_vec();
        entries.extend(snapshot.entries.values().map(DistilledEntry::as_guidance_entry));
        let db = Arc::new(GuidanceDatabase::new(base.edition, entries));
        // Older generations are dead: every new episode snapshots the
        // current one. A merge that overtook our snapshot may have left
        // newer entries; those stay.
        cache.retain(|m| m.generation >= generation);
        if cache.len() == MAX_MERGED_BASES {
            cache.remove(0);
        }
        cache.push(Merged { base: Arc::clone(base), generation, db: Arc::clone(&db) });
        db
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::retriever::shared_tfidf_index;

    fn entry(tag: u8) -> DistilledEntry {
        DistilledEntry::from_episode(
            &format!("error: object 'sig_{tag}' is not declared at line {tag}"),
            ErrorCategory::UndeclaredIdentifier,
            2,
            1,
        )
    }

    #[test]
    fn fingerprint_normalises_numbers_and_names() {
        let a = log_fingerprint("main.sv(2): object \"clk\" is not declared");
        let b = log_fingerprint("main.sv(17): object \"reset_n\" is not declared");
        assert_eq!(a, b, "line numbers and quoted names must not split shapes");
        let c = log_fingerprint("main.sv(2): index 8 out of range");
        assert_ne!(a, c, "different messages are different shapes");
    }

    #[test]
    fn merge_is_first_wins_and_generation_bumps_only_on_insert() {
        // Quoted names normalise to the same shape: entry(1) and entry(2)
        // share a fingerprint, so only one of them lands.
        let store = DistilledStore::new();
        assert_eq!(store.merge(&[entry(1), entry(2)]), 1);
        let a = DistilledEntry::from_episode("alpha error", ErrorCategory::SyntaxError, 1, 1);
        let b = DistilledEntry::from_episode("beta error", ErrorCategory::SyntaxError, 1, 1);
        let store = DistilledStore::new();
        assert_eq!(store.snapshot().generation(), 0);
        assert_eq!(store.merge(&[a.clone(), b.clone()]), 2);
        assert_eq!(store.snapshot().generation(), 1);
        // Re-merging known shapes is a no-op: no generation churn.
        assert_eq!(store.merge(std::slice::from_ref(&a)), 0);
        assert_eq!(store.snapshot().generation(), 1);
        // First-wins: a different payload under the same fingerprint loses.
        let mut rewrite = a.clone();
        rewrite.guidance = "different".into();
        store.merge(&[rewrite]);
        assert_eq!(store.snapshot().lookup("alpha error").unwrap().guidance, a.guidance);
    }

    #[test]
    fn snapshots_are_immutable_views() {
        let store = DistilledStore::new();
        let before = store.snapshot();
        store.merge(&[DistilledEntry::from_episode("gamma", ErrorCategory::SyntaxError, 1, 1)]);
        assert!(before.is_empty(), "pre-merge snapshot must not change");
        assert_eq!(store.snapshot().len(), 1);
    }

    #[test]
    fn merged_database_extends_and_is_shared_per_generation() {
        let base = GuidanceDatabase::iverilog_shared();
        let store = DistilledStore::new();
        // Empty store: alias, not copy.
        assert!(Arc::ptr_eq(&store.merged_database(&base), &base));
        store.merge(&[DistilledEntry::from_episode("delta", ErrorCategory::SyntaxError, 1, 1)]);
        let merged = store.merged_database(&base);
        assert_eq!(merged.entries().len(), base.entries().len() + 1);
        // The extension carries its own index, covering the new entry.
        assert_eq!(shared_tfidf_index(&merged).len(), base.entries().len() + 1);
        // Same generation: one shared materialisation.
        assert!(Arc::ptr_eq(&merged, &store.merged_database(&base)));
        // Another base of the same generation gets its own materialisation.
        let quartus = GuidanceDatabase::quartus_shared();
        let merged_quartus = store.merged_database(&quartus);
        assert_eq!(merged_quartus.entries().len(), quartus.entries().len() + 1);
        assert!(Arc::ptr_eq(&merged, &store.merged_database(&base)));
        // A fresh base per call cannot grow the cache past its cap.
        for _ in 0..3 * MAX_MERGED_BASES {
            store.merged_database(&Arc::new(GuidanceDatabase::iverilog()));
        }
        assert_eq!(store.merged.lock().unwrap().len(), MAX_MERGED_BASES);
    }

    #[test]
    fn old_generation_is_freed_when_its_last_holder_drops_it() {
        let base = GuidanceDatabase::iverilog_shared();
        let store = DistilledStore::new();
        store.merge(&[DistilledEntry::from_episode("epsilon", ErrorCategory::SyntaxError, 1, 1)]);
        let old = store.merged_database(&base);
        shared_tfidf_index(&old);
        let weak = Arc::downgrade(&old);
        store.merge(&[DistilledEntry::from_episode("zeta", ErrorCategory::SyntaxError, 1, 1)]);
        // An episode still holding the old generation keeps it alive.
        assert!(weak.upgrade().is_some());
        drop(old);
        assert!(weak.upgrade().is_none(), "the store must not pin an old generation");
        let new = store.merged_database(&base);
        assert_eq!(new.entries().len(), base.entries().len() + 2);
    }

    #[test]
    fn cap_bounds_the_store() {
        let store = DistilledStore::new();
        let entries: Vec<DistilledEntry> = (0..MAX_DISTILLED + 10)
            .map(|i| {
                // Letters, not digits: digits normalise away.
                let shape: String =
                    format!("{i:04}").chars().map(|c| (b'a' + (c as u8 - b'0')) as char).collect();
                DistilledEntry::from_episode(&shape, ErrorCategory::SyntaxError, 1, 1)
            })
            .collect();
        store.merge(&entries);
        assert_eq!(store.len(), MAX_DISTILLED);
    }
}
