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
//!
//! A generation re-reads no text. A merge derives what every generation
//! needs from each entry it inserts — its database row, its rendered
//! brief and its TF-IDF terms — once; each base database derives the same
//! for its own entries once. A merged database holds all of these by
//! handle, and its index is assembled from the entries' term runs, which
//! each base's vocabulary extension numbers once per distilled entry. An
//! entry's exemplar token set, which only the Jaccard retriever reads, is
//! tokenized on that retriever's first comparison against the entry, into
//! a cell every generation holding the entry shares.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use rtlfixer_cache::Fingerprint128;
use rtlfixer_verilog::diag::ErrorCategory;

use crate::database::{
    category_brief, ErrorCategorySlug, ExemplarTokens, GuidanceDatabase, GuidanceEntry,
};
use crate::retriever::rag_switch_on;
use crate::text::{Corpus, TermCounts, TermRuns, Vocabulary};

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
///
/// The normalised log is hashed as it is read: runs of other bytes go into
/// the hash straight from the log. Digits and quotes are ASCII, and no
/// byte of a multi-byte UTF-8 character is, so a byte scan finds exactly
/// the characters a character scan would.
pub fn log_fingerprint(log: &str) -> u128 {
    let bytes = log.as_bytes();
    let mut hash = Fingerprint128::new();
    // `bytes[kept..at]` is the run of plain bytes not yet hashed.
    let (mut kept, mut at) = (0, 0);
    while at < bytes.len() {
        let byte = bytes[at];
        let stands_for: &[u8] = if byte.is_ascii_digit() {
            hash.write(&bytes[kept..at]);
            while at < bytes.len() && bytes[at].is_ascii_digit() {
                at += 1;
            }
            b"#"
        } else if byte == b'"' || byte == b'\'' {
            hash.write(&bytes[kept..at]);
            at += 1;
            // Up to and including the closing quote, or to the end.
            while at < bytes.len() {
                at += 1;
                if bytes[at - 1] == byte {
                    break;
                }
            }
            b"~"
        } else {
            at += 1;
            continue;
        };
        hash.write(stands_for);
        kept = at;
    }
    hash.write(&bytes[kept..]);
    hash.finish()
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

/// A distilled entry with what every merged database derives from it,
/// built once, when a merge inserts it.
#[derive(Debug)]
struct Distilled {
    entry: DistilledEntry,
    /// The entry as a database row.
    row: Arc<GuidanceEntry>,
    /// The row's [`GuidanceEntry::render_brief`].
    brief: Arc<str>,
    /// The cell of the row's exemplar token set, filled by the first
    /// Jaccard retrieval of any generation that holds the row.
    tokens: ExemplarTokens,
    /// The row's TF-IDF document, before a base's vocabulary numbers it.
    terms: TermCounts,
    /// Insertion position in the store: the entry's slot in each
    /// [`Extension::docs`].
    seq: usize,
}

impl Distilled {
    fn new(entry: &DistilledEntry, seq: usize) -> Self {
        let row = entry.as_guidance_entry();
        let brief = Arc::from(row.render_brief());
        // The document `tfidf_corpus` makes of the row.
        let terms = TermCounts::new(&format!("{} {}", row.log_exemplar, row.guidance));
        let tokens = ExemplarTokens::default();
        Distilled { entry: entry.clone(), row: Arc::new(row), brief, tokens, terms, seq }
    }
}

/// An immutable view of the store at one generation. Episodes hold a
/// snapshot for their whole lifetime; merges build new snapshots.
#[derive(Debug, Default)]
pub struct DistilledSnapshot {
    entries: BTreeMap<u128, Arc<Distilled>>,
    generation: u64,
}

impl DistilledSnapshot {
    /// Looks up the distilled entry for a compiler log, if one exists.
    pub fn lookup(&self, log: &str) -> Option<&DistilledEntry> {
        self.entries.get(&log_fingerprint(log)).map(|distilled| &distilled.entry)
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
    /// One extension per base database merged into, at most
    /// [`MAX_MERGED_BASES`], each holding that base's current merged
    /// database.
    bases: Mutex<Vec<Extension>>,
}

/// What the store keeps per base database, keyed by the identity of the
/// base `Arc`. Holding the base keeps its address from being reused by
/// another database while the extension lives.
#[derive(Debug)]
struct Extension {
    base: Arc<GuidanceDatabase>,
    /// The base's vocabulary, extended with the distilled terms it lacks.
    vocab: Vocabulary,
    /// Each distilled entry's TF-IDF document numbered in `vocab`, by
    /// insertion position; filled when a generation first holds the entry.
    docs: Vec<Option<TermRuns>>,
    /// The merged database of the newest generation built, with that
    /// generation; dropped by the next inserting merge.
    merged: Option<(u64, Arc<GuidanceDatabase>)>,
}

impl Extension {
    fn new(base: &Arc<GuidanceDatabase>) -> Self {
        Extension {
            base: Arc::clone(base),
            vocab: base.corpus().vocab.extended(),
            docs: Vec::new(),
            merged: None,
        }
    }

    /// The base extended with `snapshot`'s entries, in fingerprint order.
    /// Everything but the TF-IDF index is shared, and only entries this
    /// base has not held before get their terms numbered.
    fn build(&mut self, snapshot: &DistilledSnapshot) -> GuidanceDatabase {
        let base = &self.base;
        let base_corpus = base.corpus();
        let len = base.entries().len() + snapshot.len();
        let mut entries = Vec::with_capacity(len);
        let mut briefs = Vec::with_capacity(len);
        let mut tokens = Vec::with_capacity(len);
        let mut docs = Vec::with_capacity(len);
        entries.extend(base.entries().iter().cloned());
        briefs.extend(base.briefs().iter().cloned());
        tokens.extend(base.exemplar_cells().iter().cloned());
        docs.extend(base_corpus.docs.iter().cloned());
        if self.docs.len() < snapshot.len() {
            self.docs.resize(snapshot.len(), None);
        }
        for distilled in snapshot.entries.values() {
            entries.push(Arc::clone(&distilled.row));
            briefs.push(Arc::clone(&distilled.brief));
            tokens.push(Arc::clone(&distilled.tokens));
            let doc =
                self.docs[distilled.seq].get_or_insert_with(|| self.vocab.number(&distilled.terms));
            docs.push(Arc::clone(doc));
        }
        let corpus = Corpus { vocab: self.vocab.clone(), docs };
        GuidanceDatabase::derived(base.edition, entries, briefs.into(), tokens.into(), corpus)
    }
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

    /// Merges distilled entries, first-wins per fingerprint (within the
    /// batch too), capped at [`MAX_DISTILLED`]. Returns how many entries
    /// were actually inserted; the generation bumps only when that is
    /// non-zero, so repeat merges of known shapes and merges into a full
    /// store are free (no snapshot churn, no index rebuilds). Each inserted
    /// entry is tokenized here, once.
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
        if current.entries.len() >= MAX_DISTILLED
            || entries.iter().all(|e| current.entries.contains_key(&e.fingerprint))
        {
            return 0;
        }
        let mut next = DistilledSnapshot {
            entries: current.entries.clone(),
            generation: current.generation + 1,
        };
        let mut inserted = 0;
        for entry in entries {
            let seq = next.entries.len();
            if seq >= MAX_DISTILLED {
                break;
            }
            if let Entry::Vacant(slot) = next.entries.entry(entry.fingerprint) {
                slot.insert(Arc::new(Distilled::new(entry, seq)));
                inserted += 1;
            }
        }
        *current = Arc::new(next);
        drop(current);
        // The merged databases cover the old generation: release them so
        // each is freed with its last episode.
        for extension in self.bases.lock().expect("distill merge cache lock").iter_mut() {
            extension.merged = None;
        }
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
        let mut bases = self.bases.lock().expect("distill merge cache lock");
        let at = match bases.iter().position(|ext| Arc::ptr_eq(&ext.base, base)) {
            Some(at) => at,
            None => {
                if bases.len() == MAX_MERGED_BASES {
                    bases.remove(0);
                }
                bases.push(Extension::new(base));
                bases.len() - 1
            }
        };
        let extension = &mut bases[at];
        if let Some((built, db)) = &extension.merged {
            if *built == generation {
                return Arc::clone(db);
            }
        }
        let db = Arc::new(extension.build(&snapshot));
        // A merge that overtook our snapshot may have left a newer
        // generation; it stays.
        if extension.merged.as_ref().is_none_or(|(built, _)| *built < generation) {
            extension.merged = Some((generation, Arc::clone(&db)));
        }
        db
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::retriever::{
        shared_tfidf_index, tfidf_corpus, JaccardRetriever, RetrievalQuery, Retriever,
    };
    use crate::text::{token_sets_built, TfIdfIndex, TokenSet};

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

    /// The fingerprint as first written: the whole log normalised into a
    /// new string, then hashed. Kept as the oracle of the streamed hash.
    fn normalised_fingerprint(log: &str) -> u128 {
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

    #[test]
    fn streamed_fingerprint_equals_the_normalised_string_hash() {
        let mut logs: Vec<String> = [
            "",
            "7",
            "\"",
            "'",
            "''",
            "main.sv(2): object \"clk\" is not declared",
            "Error (10161): at main.sv(17): object 'reset_n' is 'not declared",
            "unterminated \"quote with 12 digits",
            "mixed \"a'b\" 'c\"d' 99x9 caf\u{e9} \u{1F600}42\u{1F600}",
            "trailing digits 123",
        ]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
        // Seeded pseudo-random logs over the characters that matter.
        let alphabet: Vec<char> = "ab 0179\"'\u{e9}\u{1F600}:()\n".chars().collect();
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for len in 0..400 {
            let log: String = (0..len % 40)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    alphabet[(state % alphabet.len() as u64) as usize]
                })
                .collect();
            logs.push(log);
        }
        for log in &logs {
            assert_eq!(log_fingerprint(log), normalised_fingerprint(log), "{log:?}");
        }
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
        assert_eq!(store.bases.lock().unwrap().len(), MAX_MERGED_BASES);
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

    /// `count` entries of distinct shapes, starting at shape `from`.
    fn shapes(from: usize, count: usize) -> Vec<DistilledEntry> {
        (from..from + count)
            .map(|i| {
                // Letters, not digits: digits normalise away.
                let shape: String =
                    format!("{i:04}").chars().map(|c| (b'a' + (c as u8 - b'0')) as char).collect();
                DistilledEntry::from_episode(&shape, ErrorCategory::SyntaxError, 1, 1)
            })
            .collect()
    }

    #[test]
    fn an_older_snapshot_reads_newer_vocabulary_terms_as_unseen() {
        // A generation built after a newer one numbered its terms: those
        // terms are in the vocabulary, below the index's term count, yet
        // no document of this generation holds them.
        let base = GuidanceDatabase::quartus_shared();
        let store = DistilledStore::new();
        let shape = |log| DistilledEntry::from_episode(log, ErrorCategory::SyntaxError, 1, 1);
        store.merge(&[shape("xyzzy plugh")]);
        let older = store.snapshot();
        store.merge(&[shape("frobnitz gnusto")]);
        store.merged_database(&base);
        let late = store.bases.lock().unwrap()[0].build(&older);
        assert_eq!(late.entries().len(), base.entries().len() + 1);
        let from_text = TfIdfIndex::new(&tfidf_corpus(&late));
        let index = shared_tfidf_index(&late);
        for query in ["", "frobnitz", "gnusto frobnitz xyzzy", "xyzzy error", "error syntax near"] {
            let bits = |scores: Vec<f64>| scores.into_iter().map(f64::to_bits).collect::<Vec<_>>();
            assert_eq!(bits(index.scores(query)), bits(from_text.scores(query)), "{query:?}");
        }
    }

    #[test]
    fn exemplars_are_tokenized_once_per_entry() {
        // A base of this test's own, so its token sets are built on this
        // thread, where the count is read.
        let base = Arc::new(GuidanceDatabase::iverilog());
        let store = DistilledStore::new();
        let jaccard = JaccardRetriever { threshold: 0.0, top_k: usize::MAX };
        let query = RetrievalQuery::from_log("syntax error bbbb");
        let mut older: Option<Arc<GuidanceDatabase>> = None;
        for (from, count) in [(0, 1), (10, 3), (20, 2)] {
            let before = token_sets_built();
            assert_eq!(store.merge(&shapes(from, count)), count);
            let merged = store.merged_database(&base);
            assert_eq!(token_sets_built(), before, "merges and generations tokenize nothing");
            // The first Jaccard retrieval of a generation tokenizes the
            // exemplars no earlier generation compared against (the
            // base's too, the first time), and its query.
            let fresh = if older.is_none() { base.entries().len() + count } else { count };
            let hits = jaccard.retrieve(&merged, &query);
            assert_eq!(hits.len(), merged.entries().len());
            assert_eq!(token_sets_built() - before, fresh as u64 + 1, "each exemplar once");
            let before = token_sets_built();
            jaccard.retrieve(&merged, &query);
            assert_eq!(token_sets_built() - before, 1, "a repeat tokenizes its query only");
            // Entries an older generation held keep their token set.
            if let Some(older) = &older {
                for (old, entry) in older.entries().iter().enumerate() {
                    let new = merged.entries().iter().position(|e| Arc::ptr_eq(e, entry)).unwrap();
                    let (was, is) = (&older.exemplar_cells()[old], &merged.exemplar_cells()[new]);
                    assert!(Arc::ptr_eq(was, is), "{}", entry.id);
                    assert!(std::ptr::eq(older.exemplar_tokens(old), merged.exemplar_tokens(new)));
                }
            }
            for (index, entry) in merged.entries().iter().enumerate() {
                let tokens = merged.exemplar_tokens(index);
                assert_eq!(*tokens, TokenSet::new(&entry.log_exemplar), "{}", entry.id);
            }
            older = Some(merged);
        }
    }

    #[test]
    fn cap_bounds_the_store() {
        let store = DistilledStore::new();
        assert_eq!(store.merge(&shapes(0, MAX_DISTILLED + 10)), MAX_DISTILLED);
        assert_eq!(store.len(), MAX_DISTILLED);
    }

    #[test]
    fn a_full_store_leaves_its_snapshot_alone() {
        let store = DistilledStore::new();
        store.merge(&shapes(0, MAX_DISTILLED));
        let full = store.snapshot();
        let base = GuidanceDatabase::iverilog_shared();
        let merged = store.merged_database(&base);
        // Novel shapes no longer fit: nothing is inserted, the snapshot is
        // the very same one and the generation stays.
        for batch in [shapes(MAX_DISTILLED, 1), shapes(MAX_DISTILLED + 1, 3)] {
            assert_eq!(store.merge(&batch), 0);
            assert!(Arc::ptr_eq(&full, &store.snapshot()));
            assert_eq!(store.snapshot().generation(), full.generation());
        }
        assert!(Arc::ptr_eq(&merged, &store.merged_database(&base)), "no rebuild at the cap");
    }

    #[test]
    fn first_wins_within_one_batch() {
        let store = DistilledStore::new();
        let first = entry(1);
        let mut second = entry(2);
        second.guidance = "later payload".into();
        assert_eq!(first.fingerprint, second.fingerprint);
        assert_eq!(store.merge(&[first.clone(), second]), 1);
        let log = "error: object 'x' is not declared at line 9";
        assert_eq!(store.snapshot().lookup(log).unwrap().guidance, first.guidance);
    }
}
