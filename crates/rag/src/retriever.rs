//! Retrievers over the guidance database.
//!
//! §3.3: *"common retrievers such as pattern-matching, fuzzy search, or
//! similarity search with a vector database are suitable. In our
//! experiments, we opted for an exact match to error tags for simplicity."*
//!
//! All three options are implemented:
//!
//! * [`ExactTagRetriever`] — the paper's choice: match on numeric error
//!   tags parsed from the log. Only works when the log carries tags
//!   (Quartus), which is the mechanism behind RAG helping Quartus more than
//!   iverilog in Table 1.
//! * [`JaccardRetriever`] — fuzzy token-set matching, the fallback that
//!   still works on tag-less iverilog logs.
//! * [`TfIdfRetriever`] — cosine similarity over a TF-IDF index, the
//!   "vector database" stand-in.
//!
//! Each [`GuidanceDatabase`] owns its TF-IDF index, built on the first
//! lexical retrieval ([`shared_tfidf_index`]) and shared by every thread
//! and episode that reads the database. Databases are immutable, so the
//! index never goes stale; a database extended by the distill loop is a
//! new database with its own index.

use std::borrow::Cow;
use std::cell::RefCell;

use rtlfixer_verilog::diag::ErrorCategory;

use crate::database::{GuidanceDatabase, GuidanceEntry};
use crate::text::{TfIdfIndex, TokenSet};

/// A retrieval request: the compiler log (the `RAG[logs]` action input in
/// Figure 2b) plus any structured hints the caller has.
///
/// Both fields may borrow: the agent's query reads the compile outcome's
/// own log and categories instead of copying them every turn.
#[derive(Debug, Clone, Default)]
pub struct RetrievalQuery<'a> {
    /// The raw compiler log text.
    pub log: Cow<'a, str>,
    /// Error categories the caller's feedback layer already identified in
    /// the log (empty when the caller has no structured view). The hybrid
    /// retriever uses these as category evidence; tag and lexical
    /// retrievers ignore them.
    pub identified: Cow<'a, [ErrorCategory]>,
}

impl<'a> RetrievalQuery<'a> {
    /// Builds a query from a log string (borrowed or owned).
    pub fn from_log(log: impl Into<Cow<'a, str>>) -> Self {
        RetrievalQuery { log: log.into(), identified: Cow::Borrowed(&[]) }
    }

    /// Attaches the caller's identified error categories (borrowed or
    /// owned).
    pub fn with_identified(mut self, identified: impl Into<Cow<'a, [ErrorCategory]>>) -> Self {
        self.identified = identified.into();
        self
    }

    /// Numeric error tags found in the log (`Error (10161): …`), in order
    /// of first occurrence.
    ///
    /// A tag is 4–6 digits between parentheses: real Quartus message IDs
    /// are in that band, parenthesised line numbers (`main.sv(2)`) are
    /// shorter, and anything longer is a timestamp or address that must
    /// not alias to a tag.
    pub fn tags(&self) -> Vec<u32> {
        let mut tags = Vec::new();
        self.tags_into(&mut tags);
        tags
    }

    /// Writes [`tags`](Self::tags) into `tags`, replacing its contents.
    fn tags_into(&self, tags: &mut Vec<u32>) {
        const MIN_TAG_DIGITS: usize = 4;
        const MAX_TAG_DIGITS: usize = 6;
        tags.clear();
        let bytes = self.log.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            if bytes[i] != b'(' {
                i += 1;
                continue;
            }
            let mut j = i + 1;
            let mut value: u32 = 0;
            let mut digits = 0;
            while j < bytes.len() && bytes[j].is_ascii_digit() {
                // Past the cap the run is already disqualified; stop
                // accumulating (a 10+-digit run would overflow `u32`) but
                // keep consuming so `j` lands past the whole run.
                if digits < MAX_TAG_DIGITS {
                    value = value * 10 + u32::from(bytes[j] - b'0');
                }
                digits += 1;
                j += 1;
            }
            if (MIN_TAG_DIGITS..=MAX_TAG_DIGITS).contains(&digits)
                && j < bytes.len()
                && bytes[j] == b')'
                && !tags.contains(&value)
            {
                tags.push(value);
            }
            // Resume *at* `j`, never past it: when the digit scan consumed
            // nothing, `bytes[j]` is the byte right after `(` and may itself
            // open a tag (`"((10161):"`); the old `i = j; i += 1` skipped it.
            i = j.max(i + 1);
        }
    }
}

/// The strongest kind of evidence backing a retrieval hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Evidence {
    /// Numeric error tag in the log matched the entry's tag.
    Exact,
    /// The caller's identified error categories cover the entry's category.
    Category,
    /// Token-level similarity (Jaccard or TF-IDF cosine) only.
    Lexical,
    /// Fingerprint hit in the distilled store (a previously successful
    /// repair of the same error shape).
    Distilled,
}

impl Evidence {
    /// The telemetry counter of hits backed by this evidence, spelled out
    /// so no hit builds a name.
    pub fn counter(self) -> &'static str {
        match self {
            Evidence::Exact => "rag.hits.exact",
            Evidence::Category => "rag.hits.category",
            Evidence::Lexical => "rag.hits.lexical",
            Evidence::Distilled => "rag.hits.distilled",
        }
    }
}

/// A retrieved entry with its match score.
#[derive(Debug, Clone, PartialEq)]
pub struct Retrieved<'a> {
    /// The matched database entry.
    pub entry: &'a GuidanceEntry,
    /// The entry's position in the database (its
    /// [`GuidanceDatabase::brief`] index).
    pub index: usize,
    /// Retriever-specific score (1.0 for exact tag matches).
    pub score: f64,
    /// Whether this hit came from an exact error-tag match. Fuzzy and
    /// vector hits set `false`; downstream consumers must branch on this
    /// flag, never on a score sentinel (fuzzy scores can legitimately
    /// reach 1.0 on degenerate logs).
    pub exact: bool,
    /// The strongest evidence kind behind the hit (for telemetry).
    pub evidence: Evidence,
}

/// Object-safe retriever interface.
pub trait Retriever: Send + Sync {
    /// Name for reports.
    fn name(&self) -> &str;

    /// Returns matching entries, best first.
    fn retrieve<'a>(
        &self,
        db: &'a GuidanceDatabase,
        query: &RetrievalQuery<'_>,
    ) -> Vec<Retrieved<'a>>;
}

/// The paper's retriever: exact match on compiler error tags.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExactTagRetriever {
    _private: (),
}

impl ExactTagRetriever {
    /// Creates the retriever.
    pub fn new() -> Self {
        ExactTagRetriever { _private: () }
    }
}

impl Retriever for ExactTagRetriever {
    fn name(&self) -> &str {
        "exact-tag"
    }

    fn retrieve<'a>(
        &self,
        db: &'a GuidanceDatabase,
        query: &RetrievalQuery<'_>,
    ) -> Vec<Retrieved<'a>> {
        let tags = query.tags();
        if tags.is_empty() {
            return Vec::new();
        }
        // Order hits by their tag's first occurrence in the log so the
        // prompt leads with the first-reported (usually root-cause)
        // diagnostic, not with whichever entry sits earliest in the
        // database. Stable sort keeps database order within one tag.
        let mut hits: Vec<(usize, usize, &GuidanceEntry)> = db
            .entries()
            .iter()
            .enumerate()
            .filter_map(|(index, e)| {
                let tag = e.error_tag?;
                let rank = tags.iter().position(|&t| t == tag)?;
                Some((rank, index, &**e))
            })
            .collect();
        hits.sort_by_key(|&(rank, _, _)| rank);
        hits.into_iter()
            .map(|(_, index, entry)| Retrieved {
                entry,
                index,
                score: 1.0,
                exact: true,
                evidence: Evidence::Exact,
            })
            .collect()
    }
}

/// Fuzzy retriever: Jaccard similarity between the query log and each
/// entry's stored log exemplar. The log is tokenised once per call, and
/// each exemplar once per entry, on the first comparison against it: a
/// distilled store's generations share the token sets of the entries they
/// hold.
#[derive(Debug, Clone, Copy)]
pub struct JaccardRetriever {
    /// Minimum similarity to count as a match.
    pub threshold: f64,
    /// Maximum entries returned.
    pub top_k: usize,
}

impl Default for JaccardRetriever {
    fn default() -> Self {
        JaccardRetriever { threshold: 0.12, top_k: 3 }
    }
}

impl JaccardRetriever {
    /// Creates a retriever with the default threshold (0.12) and top-k (3).
    pub fn new() -> Self {
        Self::default()
    }
}

impl Retriever for JaccardRetriever {
    fn name(&self) -> &str {
        "jaccard"
    }

    fn retrieve<'a>(
        &self,
        db: &'a GuidanceDatabase,
        query: &RetrievalQuery<'_>,
    ) -> Vec<Retrieved<'a>> {
        let query = TokenSet::new(&query.log);
        let mut scored: Vec<Retrieved<'a>> = db
            .entries()
            .iter()
            .enumerate()
            .map(|(index, entry)| Retrieved {
                entry,
                index,
                score: query.jaccard(db.exemplar_tokens(index)),
                exact: false,
                evidence: Evidence::Lexical,
            })
            .filter(|r| r.score >= self.threshold)
            .collect();
        scored.sort_by(|a, b| b.score.partial_cmp(&a.score).unwrap_or(std::cmp::Ordering::Equal));
        scored.truncate(self.top_k);
        scored
    }
}

/// Vector-similarity retriever: TF-IDF cosine over entry log exemplars
/// plus guidance text.
#[derive(Debug, Clone)]
pub struct TfIdfRetriever {
    /// Minimum cosine similarity to count as a match.
    pub threshold: f64,
    /// Maximum entries returned.
    pub top_k: usize,
}

impl Default for TfIdfRetriever {
    fn default() -> Self {
        TfIdfRetriever { threshold: 0.08, top_k: 3 }
    }
}

impl TfIdfRetriever {
    /// Creates a retriever with default threshold and top-k.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Builds the TF-IDF corpus for a guidance database (one document per
/// entry: log exemplar plus guidance text).
pub fn tfidf_corpus(db: &GuidanceDatabase) -> Vec<String> {
    db.entries()
        .iter()
        .map(|e| format!("{} {}", e.log_exemplar, e.guidance))
        .collect()
}

/// The TF-IDF index of `db`, built on first use and owned by the database.
///
/// Indexing computes document frequencies over every entry — far too
/// expensive to redo per retrieval call when a ReAct experiment issues one
/// retrieval per compile failure. Concurrent first calls build once; every
/// caller gets the same index for as long as the database lives. The
/// build reads each entry's cached term runs: a database tokenizes its own
/// entries once, and a distilled store's merged database reuses the terms
/// of the base and of every distilled entry, so it tokenizes nothing.
pub fn shared_tfidf_index(db: &GuidanceDatabase) -> &TfIdfIndex {
    db.tfidf.get_or_init(|| TfIdfIndex::assemble(db.corpus()))
}

impl Retriever for TfIdfRetriever {
    fn name(&self) -> &str {
        "tfidf"
    }

    fn retrieve<'a>(
        &self,
        db: &'a GuidanceDatabase,
        query: &RetrievalQuery<'_>,
    ) -> Vec<Retrieved<'a>> {
        shared_tfidf_index(db)
            .top_k(&query.log, self.top_k)
            .into_iter()
            .filter(|(_, score)| *score >= self.threshold)
            .map(|(index, score)| Retrieved {
                entry: &db.entries()[index],
                index,
                score,
                exact: false,
                evidence: Evidence::Lexical,
            })
            .collect()
    }
}

/// Retrieval 2.0 (DESIGN.md §3k): blends exact-tag ≻ category ≻ lexical
/// evidence into one ranked list with calibrated weights.
///
/// Every entry is scored `w_exact·[tag match] + w_cat·[category match] +
/// w_lex·cosine`; the weights are calibrated so any exact hit (1.0)
/// outranks the best possible non-exact blend (0.45 + 0.35 = 0.8), and a
/// category-confirmed entry outranks a lexical-only one. Exact hits keep
/// the first-reported-tag ordering of [`ExactTagRetriever`] and are never
/// truncated; at most `top_k_fuzzy` non-exact hits are appended. On
/// tag-less logs (iverilog) the category evidence carried by
/// [`RetrievalQuery::identified`] is what the exact path never had — this
/// is the mechanism that closes the Table 1 RAG gap between Quartus and
/// iverilog.
#[derive(Debug, Clone, Copy)]
pub struct HybridRetriever {
    /// Weight of an exact tag match.
    pub exact_weight: f64,
    /// Weight of a category match against the query's identified set.
    pub category_weight: f64,
    /// Weight multiplying the TF-IDF cosine similarity.
    pub lexical_weight: f64,
    /// Minimum cosine for lexical evidence to contribute at all.
    pub lexical_threshold: f64,
    /// Maximum non-exact hits appended after the exact ones.
    pub top_k_fuzzy: usize,
}

impl Default for HybridRetriever {
    fn default() -> Self {
        HybridRetriever {
            exact_weight: 1.0,
            category_weight: 0.45,
            lexical_weight: 0.35,
            lexical_threshold: 0.08,
            top_k_fuzzy: 3,
        }
    }
}

impl HybridRetriever {
    /// Creates the retriever with the calibrated default weights.
    pub fn new() -> Self {
        Self::default()
    }
}

/// One entry with positive blended score, by position: what the hybrid
/// retriever ranks before it builds any hit.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    db_index: usize,
    score: f64,
    /// Position of the entry's tag among the log's tags; `usize::MAX`
    /// when it has none there.
    tag_rank: usize,
    evidence: Evidence,
}

impl Candidate {
    fn exact(&self) -> bool {
        self.evidence == Evidence::Exact
    }
}

/// Per-thread working memory of hybrid retrievals: the log's tags and the
/// scored candidates. Every retrieval on a thread reuses it, so only the
/// returned hits allocate once the buffers fit the database.
#[derive(Default)]
struct HybridScratch {
    tags: Vec<u32>,
    candidates: Vec<Candidate>,
}

thread_local! {
    static HYBRID_SCRATCH: RefCell<HybridScratch> = RefCell::default();
}

impl Retriever for HybridRetriever {
    fn name(&self) -> &str {
        "hybrid"
    }

    fn retrieve<'a>(
        &self,
        db: &'a GuidanceDatabase,
        query: &RetrievalQuery<'_>,
    ) -> Vec<Retrieved<'a>> {
        HYBRID_SCRATCH.with(|cell| self.rank(db, query, &mut cell.borrow_mut()))
    }
}

impl HybridRetriever {
    fn rank<'a>(
        &self,
        db: &'a GuidanceDatabase,
        query: &RetrievalQuery<'_>,
        scratch: &mut HybridScratch,
    ) -> Vec<Retrieved<'a>> {
        let HybridScratch { tags, candidates } = scratch;
        query.tags_into(tags);
        candidates.clear();
        // Every entry's cosine from one pass over the log's own terms.
        shared_tfidf_index(db).with_scores(&query.log, |cosine| {
            for (db_index, entry) in db.entries().iter().enumerate() {
                let tag_rank = entry.error_tag.and_then(|tag| tags.iter().position(|&t| t == tag));
                let exact = tag_rank.is_some();
                let category = query.identified.contains(&entry.category.0);
                let lexical =
                    if cosine[db_index] >= self.lexical_threshold { cosine[db_index] } else { 0.0 };
                let score = self.exact_weight * f64::from(u8::from(exact))
                    + self.category_weight * f64::from(u8::from(category))
                    + self.lexical_weight * lexical;
                if score <= 0.0 {
                    continue;
                }
                let evidence = if exact {
                    Evidence::Exact
                } else if category {
                    Evidence::Category
                } else {
                    Evidence::Lexical
                };
                candidates.push(Candidate {
                    db_index,
                    score,
                    tag_rank: tag_rank.unwrap_or(usize::MAX),
                    evidence,
                });
            }
        });
        // Exact hits first in first-reported-tag order (the root-cause
        // contract of `ExactTagRetriever`); non-exact hits by blended score,
        // with the database index as the deterministic tiebreak. Indices
        // are distinct, so the order is total and an unstable sort ranks
        // as a stable one would.
        candidates.sort_unstable_by(|a, b| {
            b.exact()
                .cmp(&a.exact())
                .then(a.tag_rank.cmp(&b.tag_rank))
                .then(b.score.partial_cmp(&a.score).unwrap_or(std::cmp::Ordering::Equal))
                .then(a.db_index.cmp(&b.db_index))
        });
        let exact_count = candidates.iter().take_while(|c| c.exact()).count();
        candidates
            .iter()
            .take(exact_count + self.top_k_fuzzy)
            .map(|c| Retrieved {
                entry: &db.entries()[c.db_index],
                index: c.db_index,
                score: c.score,
                exact: c.exact(),
                evidence: c.evidence,
            })
            .collect()
    }
}

/// Whether a `RTLFIXER_RAG_*` switch is on. Unset and unrecognised
/// spellings keep the default on (a typo must not silently change the
/// engine, mirroring the other `RTLFIXER_*` switches); `0`/`off`/`false`/
/// `no` turn it off.
pub(crate) fn rag_switch_on(name: &str) -> bool {
    match std::env::var(name) {
        Ok(value) => {
            !matches!(value.to_ascii_lowercase().as_str(), "0" | "off" | "false" | "no")
        }
        Err(_) => true,
    }
}

/// Whether the hybrid retriever is the process default
/// (`RTLFIXER_RAG_HYBRID` kill switch; on unless explicitly disabled).
pub fn hybrid_enabled() -> bool {
    rag_switch_on("RTLFIXER_RAG_HYBRID")
}

/// The paper's composite strategy: exact tag match when the log carries
/// tags, Jaccard fuzzy fallback otherwise.
#[derive(Debug, Clone, Default)]
pub struct DefaultRetriever {
    exact: ExactTagRetriever,
    fuzzy: JaccardRetriever,
}

impl DefaultRetriever {
    /// Creates the composite retriever.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Retriever for DefaultRetriever {
    fn name(&self) -> &str {
        "exact-tag+jaccard-fallback"
    }

    fn retrieve<'a>(
        &self,
        db: &'a GuidanceDatabase,
        query: &RetrievalQuery<'_>,
    ) -> Vec<Retrieved<'a>> {
        let exact = self.exact.retrieve(db, query);
        if !exact.is_empty() {
            return exact;
        }
        self.fuzzy.retrieve(db, query)
    }
}

/// Convenience: the error categories covered by a retrieval result.
pub fn retrieved_categories(results: &[Retrieved<'_>]) -> Vec<ErrorCategory> {
    let mut cats: Vec<ErrorCategory> = results.iter().map(|r| r.entry.category.0).collect();
    cats.sort_by_key(|c| *c as u8);
    cats.dedup();
    cats
}

#[cfg(test)]
mod tests {
    use super::*;

    const QUARTUS_LOG: &str = "Error (10161): Verilog HDL error at main.sv(2): object \"clk\" \
                               is not declared. Verify the object name is correct.";
    const IVERILOG_LOG: &str =
        "main.v:2: error: Unable to bind wire/reg/memory 'clk' in 'top_module'";

    #[test]
    fn tag_parsing() {
        let q = RetrievalQuery::from_log(QUARTUS_LOG);
        assert_eq!(q.tags(), vec![10161]);
        let q2 = RetrievalQuery::from_log("Error (10232): ... Error (10161): ... Error (10232):");
        assert_eq!(q2.tags(), vec![10232, 10161]);
        // Short parenthesised numbers (line numbers) are not tags.
        let q3 = RetrievalQuery::from_log("error at main.sv(2): something");
        assert!(q3.tags().is_empty());
    }

    #[test]
    fn tag_parsing_reexamines_paren_after_failed_scan() {
        // Regression: the old parser advanced past the byte after a failed
        // digit scan, so a `(` immediately following another `(` was never
        // examined and these logs silently lost their tags.
        let doubled = RetrievalQuery::from_log("((10161): object \"clk\" is not declared");
        assert_eq!(doubled.tags(), vec![10161]);
        let nested = RetrievalQuery::from_log("(see (10161)) for details");
        assert_eq!(nested.tags(), vec![10161]);
        // A non-digit, non-paren byte after `(` must still be stepped over.
        let prose = RetrievalQuery::from_log("(note (10232)) and (also(10161))");
        assert_eq!(prose.tags(), vec![10232, 10161]);
        // A tag run ending right before another tag's opening paren.
        let adjacent = RetrievalQuery::from_log("(123(10161)");
        assert_eq!(adjacent.tags(), vec![10161]);
    }

    #[test]
    fn tag_parsing_caps_digit_runs() {
        // Quartus tags are 4–6 digits; longer runs (timestamps, addresses)
        // must neither alias to a tag nor overflow the accumulator.
        let q = RetrievalQuery::from_log("(12345678901234567890) then (1234567) then (10161)");
        assert_eq!(q.tags(), vec![10161]);
        let six = RetrievalQuery::from_log("(123456): six digits is still a tag");
        assert_eq!(six.tags(), vec![123_456]);
    }

    #[test]
    fn exact_hits_ordered_by_first_tag_occurrence() {
        // The log reports the index error first; database order would lead
        // with the undeclared-identifier entries (they sit earliest in the
        // Quartus database). The prompt must lead with the first-reported
        // diagnostic instead.
        let db = GuidanceDatabase::quartus();
        let log = "Error (10232): index 8 out of range ... Error (10161): object \"x\" \
                   is not declared";
        let results = ExactTagRetriever::new().retrieve(&db, &RetrievalQuery::from_log(log));
        assert!(!results.is_empty());
        let first_undeclared = results
            .iter()
            .position(|r| r.entry.category.0 == ErrorCategory::UndeclaredIdentifier)
            .expect("undeclared entries retrieved");
        let last_index = results
            .iter()
            .rposition(|r| {
                matches!(
                    r.entry.category.0,
                    ErrorCategory::IndexOutOfRange | ErrorCategory::IndexArithmetic
                )
            })
            .expect("index entries retrieved");
        assert!(
            last_index < first_undeclared,
            "index-family hits (first-reported tag) must precede undeclared hits"
        );
    }

    #[test]
    fn hybrid_exact_hits_lead_and_keep_tag_order() {
        let db = GuidanceDatabase::quartus();
        let log = "Error (10232): index 8 out of range ... Error (10161): object \"x\" \
                   is not declared";
        let results = HybridRetriever::new().retrieve(&db, &RetrievalQuery::from_log(log));
        let exact: Vec<_> = results.iter().take_while(|r| r.exact).collect();
        assert!(!exact.is_empty(), "exact hits must lead the ranked list");
        // All exact hits precede all non-exact ones, in first-tag order.
        assert!(results.iter().skip(exact.len()).all(|r| !r.exact));
        assert!(matches!(
            exact[0].entry.category.0,
            ErrorCategory::IndexOutOfRange | ErrorCategory::IndexArithmetic
        ));
        // Exact hits are never truncated by the fuzzy top-k.
        let plain = ExactTagRetriever::new().retrieve(&db, &RetrievalQuery::from_log(log));
        assert_eq!(exact.len(), plain.len());
    }

    #[test]
    fn hybrid_uses_category_evidence_on_tagless_logs() {
        // The iverilog log carries no tags; with the caller's identified
        // categories attached, the hybrid retriever must surface the right
        // category with `Category` evidence (never claiming exactness).
        let db = GuidanceDatabase::iverilog();
        let query = RetrievalQuery::from_log(IVERILOG_LOG)
            .with_identified(vec![ErrorCategory::UndeclaredIdentifier]);
        let results = HybridRetriever::new().retrieve(&db, &query);
        assert!(!results.is_empty());
        assert_eq!(results[0].entry.category.0, ErrorCategory::UndeclaredIdentifier);
        assert!(results.iter().all(|r| !r.exact), "no tags in the log, no exact hits");
        assert!(results
            .iter()
            .any(|r| r.evidence == Evidence::Category || r.evidence == Evidence::Distilled));
        // Without identified categories it degrades to lexical-only and
        // still retrieves (the Jaccard/TF-IDF behaviour).
        let lexical_only =
            HybridRetriever::new().retrieve(&db, &RetrievalQuery::from_log(IVERILOG_LOG));
        assert!(lexical_only.iter().all(|r| r.evidence == Evidence::Lexical));
    }

    #[test]
    fn hybrid_scores_rank_category_above_lexical_only() {
        let db = GuidanceDatabase::iverilog();
        let query = RetrievalQuery::from_log(IVERILOG_LOG)
            .with_identified(vec![ErrorCategory::UndeclaredIdentifier]);
        let results = HybridRetriever::new().retrieve(&db, &query);
        let first_lexical = results.iter().position(|r| r.evidence == Evidence::Lexical);
        let last_category = results.iter().rposition(|r| r.evidence == Evidence::Category);
        if let (Some(lex), Some(cat)) = (first_lexical, last_category) {
            assert!(cat < lex, "category-confirmed hits must outrank lexical-only ones");
        }
        for pair in results.windows(2) {
            assert!(pair[0].score >= pair[1].score, "one ranked list, best first");
        }
    }

    #[test]
    fn exact_tag_hits_on_quartus_log() {
        let db = GuidanceDatabase::quartus();
        let results =
            ExactTagRetriever::new().retrieve(&db, &RetrievalQuery::from_log(QUARTUS_LOG));
        assert!(!results.is_empty());
        assert!(results
            .iter()
            .all(|r| r.entry.category.0 == ErrorCategory::UndeclaredIdentifier));
    }

    #[test]
    fn exact_tag_misses_on_iverilog_log() {
        // The mechanism behind RAG+iverilog < RAG+Quartus in Table 1.
        let db = GuidanceDatabase::iverilog();
        let results =
            ExactTagRetriever::new().retrieve(&db, &RetrievalQuery::from_log(IVERILOG_LOG));
        assert!(results.is_empty());
    }

    #[test]
    fn jaccard_recovers_iverilog_match() {
        let db = GuidanceDatabase::iverilog();
        let results =
            JaccardRetriever::new().retrieve(&db, &RetrievalQuery::from_log(IVERILOG_LOG));
        assert!(!results.is_empty());
        assert_eq!(results[0].entry.category.0, ErrorCategory::UndeclaredIdentifier);
    }

    #[test]
    fn default_retriever_falls_back() {
        let db = GuidanceDatabase::iverilog();
        let retriever = DefaultRetriever::new();
        let results = retriever.retrieve(&db, &RetrievalQuery::from_log(IVERILOG_LOG));
        assert!(!results.is_empty(), "fuzzy fallback should fire");
        let db_q = GuidanceDatabase::quartus();
        let results_q = retriever.retrieve(&db_q, &RetrievalQuery::from_log(QUARTUS_LOG));
        assert!(results_q.iter().all(|r| r.exact), "exact path should win");
        assert!(results.iter().all(|r| !r.exact), "fuzzy hits must not claim exactness");
    }

    #[test]
    fn tfidf_finds_index_entries() {
        let db = GuidanceDatabase::quartus();
        let log = "Error (10232): index 8 cannot fall outside the declared range [7:0] \
                   for vector \"out\"";
        let results = TfIdfRetriever::new().retrieve(&db, &RetrievalQuery::from_log(log));
        assert!(!results.is_empty());
        let cats = retrieved_categories(&results);
        assert!(
            cats.contains(&ErrorCategory::IndexOutOfRange)
                || cats.contains(&ErrorCategory::IndexArithmetic),
            "{cats:?}"
        );
    }

    #[test]
    fn scores_sorted_descending() {
        let db = GuidanceDatabase::quartus();
        let results = JaccardRetriever { threshold: 0.0, top_k: 10 }
            .retrieve(&db, &RetrievalQuery::from_log(QUARTUS_LOG));
        for pair in results.windows(2) {
            assert!(pair[0].score >= pair[1].score);
        }
    }

    #[test]
    fn empty_log_retrieves_nothing_exact() {
        let db = GuidanceDatabase::quartus();
        assert!(ExactTagRetriever::new()
            .retrieve(&db, &RetrievalQuery::default())
            .is_empty());
    }

    #[test]
    fn shared_index_is_reused_per_database() {
        let db = GuidanceDatabase::quartus();
        let first = shared_tfidf_index(&db);
        let again = shared_tfidf_index(&db);
        assert!(std::ptr::eq(first, again), "same database must share one index");
        assert_eq!(first.len(), 45);
        // A different database gets its own index.
        let iverilog = GuidanceDatabase::iverilog();
        let other = shared_tfidf_index(&iverilog);
        assert!(!std::ptr::eq(first, other));
        assert_eq!(other.len(), 30);
    }

    #[test]
    fn cached_retrieval_matches_cold_index() {
        let db = GuidanceDatabase::quartus();
        let query = RetrievalQuery::from_log(QUARTUS_LOG);
        let retriever = TfIdfRetriever::new();
        let cached: Vec<(String, f64)> = retriever
            .retrieve(&db, &query)
            .into_iter()
            .map(|r| (r.entry.id.clone(), r.score))
            .collect();
        let cold_index = TfIdfIndex::new(&tfidf_corpus(&db));
        let cold: Vec<(String, f64)> = cold_index
            .top_k(&query.log, retriever.top_k)
            .into_iter()
            .filter(|(_, s)| *s >= retriever.threshold)
            .map(|(i, s)| (db.entries()[i].id.clone(), s))
            .collect();
        assert_eq!(cached, cold);
    }
}
