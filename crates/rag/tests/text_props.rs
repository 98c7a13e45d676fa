//! Property tests for the rag text layer — the tokenizer, the Jaccard
//! metric, the error-tag scanner and the TF-IDF index that every retriever
//! sits on. Most pin algebraic invariants (bounds, symmetry, token-set
//! identity) rather than specific values, so a refactor of the scanning
//! loops can't quietly bend the metric the fuzzy retrievers rank by. The
//! TF-IDF index is pinned bit for bit against [`Oracle`], the per-entry
//! cosine it replaced — over plain corpora, the shipped databases, and
//! every generation of a growing distilled store, whose indexes are
//! assembled from cached term runs instead of text.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;

use rtlfixer_rag::text::{
    documents_tokenized, jaccard_distance, jaccard_similarity, tokenize, TfIdfIndex,
};
use rtlfixer_rag::{
    shared_tfidf_index, tfidf_corpus, DistilledEntry, DistilledStore, GuidanceDatabase,
    RetrievalQuery, Retriever, TfIdfRetriever,
};
use rtlfixer_verilog::diag::ErrorCategory;

/// Log-ish text: words, digit runs, and the punctuation compiler logs
/// actually contain — parens around error tags included.
const LOG_TEXT: &str = "([a-z_]{1,8}|[0-9]{1,8}|\\(|\\)|: |'|\\n| ){0,24}";

/// A corpus of up to eight `|`-separated documents over a small vocabulary,
/// so documents share terms; any document may be empty.
const CORPUS_TEXT: &str = "(([a-e]{1,2}|[0-3]|_) ){0,10}(\\|(([a-e]{1,2}|[0-3]|_) ){0,10}){0,7}";

/// One to five `|`-separated compiler logs of [`LOG_TEXT`]'s shape, the
/// successive merges into a store.
const STORE_LOGS: &str = "([a-z_]{1,8}|[0-9]{1,8}|\\(|\\)|: |'|\\n| ){0,24}\
                          (\\|([a-z_]{1,8}|[0-9]{1,8}|\\(|\\)|: |'|\\n| ){0,24}){0,4}";

/// Queries over a wider vocabulary: corpus terms, repeated tokens, terms no
/// document holds (`f`, `g`, `4`, `5`), upper case, and the empty string.
const QUERY_TEXT: &str = "(([a-g]{1,2}|[0-5]|[A-C]|_)(: | )){0,12}";

/// The per-entry TF-IDF cosine the inverted index replaced, kept as its
/// oracle: it rebuilds the query's vector for every document it scores.
struct Oracle {
    docs: Vec<BTreeMap<String, f64>>,
    idf: BTreeMap<String, f64>,
}

impl Oracle {
    fn new<S: AsRef<str>>(corpus: &[S]) -> Self {
        let n = corpus.len().max(1) as f64;
        let mut doc_freq: BTreeMap<String, usize> = BTreeMap::new();
        let mut raw_docs = Vec::new();
        for doc in corpus {
            let mut tf: BTreeMap<String, f64> = BTreeMap::new();
            for token in tokenize(doc.as_ref()) {
                *tf.entry(token).or_insert(0.0) += 1.0;
            }
            for term in tf.keys() {
                *doc_freq.entry(term.clone()).or_insert(0) += 1;
            }
            raw_docs.push(tf);
        }
        let idf: BTreeMap<String, f64> = doc_freq
            .into_iter()
            .map(|(term, df)| (term, (n / (1.0 + df as f64)).ln() + 1.0))
            .collect();
        let docs = raw_docs
            .into_iter()
            .map(|tf| {
                tf.into_iter()
                    .map(|(term, count)| {
                        let weight = count * idf.get(&term).copied().unwrap_or(1.0);
                        (term, weight)
                    })
                    .collect()
            })
            .collect();
        Oracle { docs, idf }
    }

    fn similarity(&self, idx: usize, query: &str) -> f64 {
        let Some(doc) = self.docs.get(idx) else { return 0.0 };
        let mut qv: BTreeMap<String, f64> = BTreeMap::new();
        for token in tokenize(query) {
            *qv.entry(token).or_insert(0.0) += 1.0;
        }
        for (term, weight) in qv.iter_mut() {
            *weight *= self.idf.get(term).copied().unwrap_or(1.0);
        }
        let dot: f64 = qv
            .iter()
            .filter_map(|(term, qw)| doc.get(term).map(|dw| qw * dw))
            .sum();
        let qn: f64 = qv.values().map(|w| w * w).sum::<f64>().sqrt();
        let dn: f64 = doc.values().map(|w| w * w).sum::<f64>().sqrt();
        if qn == 0.0 || dn == 0.0 {
            0.0
        } else {
            dot / (qn * dn)
        }
    }

    fn score_bits(&self, query: &str) -> Vec<u64> {
        (0..self.docs.len()).map(|i| self.similarity(i, query).to_bits()).collect()
    }

    fn top_k(&self, query: &str, k: usize) -> Vec<(usize, f64)> {
        let mut scored: Vec<(usize, f64)> =
            (0..self.docs.len()).map(|i| (i, self.similarity(i, query))).collect();
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        scored.truncate(k);
        scored
    }
}

fn bits(scores: &[f64]) -> Vec<u64> {
    scores.iter().map(|s| s.to_bits()).collect()
}

fn ranked_bits(ranked: &[(usize, f64)]) -> Vec<(usize, u64)> {
    ranked.iter().map(|&(i, s)| (i, s.to_bits())).collect()
}

/// `TfIdfRetriever` over `db` against the oracle's top-k, as `(id, score
/// bits)` lists.
fn retriever_and_oracle(
    db: &GuidanceDatabase,
    oracle: &Oracle,
    log: &str,
) -> [Vec<(String, u64)>; 2] {
    let retriever = TfIdfRetriever::new();
    let served = retriever
        .retrieve(db, &RetrievalQuery::from_log(log))
        .into_iter()
        .map(|hit| (hit.entry.id.clone(), hit.score.to_bits()))
        .collect();
    let expected = oracle
        .top_k(log, retriever.top_k)
        .into_iter()
        .filter(|&(_, score)| score >= retriever.threshold)
        .map(|(i, score)| (db.entries()[i].id.clone(), score.to_bits()))
        .collect();
    [served, expected]
}

#[test]
fn tfidf_scores_match_the_oracle_on_edge_queries() {
    let corpus = ["alpha beta beta", "", "gamma alpha", "delta"];
    let index = TfIdfIndex::new(&corpus);
    let oracle = Oracle::new(&corpus);
    for query in ["", "   ", "zeta eta", "ALPHA alpha alpha", "beta zeta", "delta delta gamma"] {
        let scores = index.scores(query);
        assert_eq!(bits(&scores), oracle.score_bits(query), "query {query:?}");
        for k in [0, 1, 4, 9] {
            assert_eq!(
                ranked_bits(&index.top_k(query, k)),
                ranked_bits(&oracle.top_k(query, k)),
                "query {query:?}, k {k}"
            );
        }
    }
    // A query sharing no term keeps the oracle's sign of zero: `-0.0`
    // against documents with terms, `0.0` against the empty document.
    let disjoint = index.scores("zeta");
    assert!(disjoint[0] == 0.0 && disjoint[0].is_sign_negative());
    assert!(disjoint[1] == 0.0 && disjoint[1].is_sign_positive());
    // An empty corpus scores nothing.
    assert!(TfIdfIndex::new::<&str>(&[]).scores("alpha").is_empty());
}

#[test]
fn tfidf_retriever_matches_the_oracle_on_the_shipped_databases() {
    for db in [GuidanceDatabase::quartus(), GuidanceDatabase::iverilog()] {
        let oracle = Oracle::new(&tfidf_corpus(&db));
        // Every entry's own exemplar, plus a real-shaped log of each edition.
        let logs = db.entries().iter().map(|e| e.log_exemplar.clone()).chain([
            "Error (10161): Verilog HDL error at main.sv(2): object \"clk\" is not declared."
                .to_owned(),
            "main.v:2: error: Unable to bind wire/reg/memory 'clk' in 'top_module'".to_owned(),
            String::new(),
        ]);
        for log in logs {
            let [served, expected] = retriever_and_oracle(&db, &oracle, &log);
            assert_eq!(served, expected, "{:?} log {log:?}", db.edition);
        }
    }
}

/// A word of letters only (digits and quoted names normalise away in
/// distilled fingerprints), distinct per `i` and absent from both shipped
/// databases.
fn novel_word(i: usize) -> String {
    let letters: String =
        format!("{i:03}").bytes().map(|digit| char::from(b'q' + (digit - b'0') % 10)).collect();
    format!("zz{letters}")
}

/// Generation `g`'s `k`-th distilled log: shared error wording plus two
/// words that first appear in that generation.
fn distilled_log(g: usize, k: usize) -> String {
    format!(
        "Error (10161): Verilog HDL error at main.sv({g}): object {} is not declared near {}",
        novel_word(2 * (4 * g + k)),
        novel_word(2 * (4 * g + k) + 1)
    )
}

/// Asserts that `db`'s shared index scores every query bit for bit like
/// the oracle over the database's text.
fn assert_scores_match_the_oracle(db: &GuidanceDatabase, queries: &[String]) {
    let oracle = Oracle::new(&tfidf_corpus(db));
    let index = shared_tfidf_index(db);
    assert_eq!(index.len(), db.entries().len());
    for query in queries {
        assert_eq!(
            bits(&index.scores(query)),
            oracle.score_bits(query),
            "{:?} with {} entries, query {query:?}",
            db.edition,
            db.entries().len()
        );
    }
}

#[test]
fn store_generations_score_like_the_oracle_and_share_their_entries() {
    let bases = [GuidanceDatabase::quartus_shared(), GuidanceDatabase::iverilog_shared()];
    // Tokenize the bases first so the counts below see only the store.
    for base in &bases {
        shared_tfidf_index(base);
    }
    let store = DistilledStore::new();
    let generations = 6;
    let mut held: Vec<Arc<GuidanceDatabase>> = Vec::new();
    for g in 0..generations {
        let batch: Vec<DistilledEntry> = (0..=g % 3)
            .map(|k| {
                let log = distilled_log(g, k);
                DistilledEntry::from_episode(&log, ErrorCategory::UndeclaredIdentifier, 1 + k, 2)
            })
            .collect();
        let before = documents_tokenized();
        assert_eq!(store.merge(&batch), batch.len());
        assert_eq!(
            documents_tokenized() - before,
            batch.len() as u64,
            "a merge tokenizes each entry it inserts, once"
        );
        for base in &bases {
            let before = documents_tokenized();
            let merged = store.merged_database(base);
            shared_tfidf_index(&merged);
            assert_eq!(documents_tokenized(), before, "a generation re-tokenizes nothing");
            for (index, entry) in merged.entries().iter().enumerate() {
                assert_eq!(**merged.brief(index), entry.render_brief());
            }
            for (index, entry) in base.entries().iter().enumerate() {
                assert!(Arc::ptr_eq(entry, &merged.entries()[index]));
                assert!(Arc::ptr_eq(base.brief(index), merged.brief(index)));
            }
            // Entries an older generation of this base held keep their
            // row and brief.
            if let Some(older) = held.iter().rev().find(|db| db.edition == base.edition) {
                for (old, entry) in older.entries().iter().enumerate() {
                    let new = merged.entries().iter().position(|e| e.id == entry.id).unwrap();
                    assert!(Arc::ptr_eq(entry, &merged.entries()[new]), "{}", entry.id);
                    assert!(Arc::ptr_eq(older.brief(old), merged.brief(new)), "{}", entry.id);
                }
            }
            held.push(merged);
        }
    }
    // Every generation, against logs of its own and of later generations:
    // a later generation's words are in the vocabulary but no document of
    // an older generation holds them, so they must act as unseen.
    let mut queries = vec![String::new(), "   ".to_owned(), novel_word(999)];
    queries.extend((0..generations).map(|g| distilled_log(g, 0)));
    queries.push(format!("{} {}", novel_word(2 * 4 * (generations - 1)), novel_word(0)));
    queries.push(bases[0].entries()[0].log_exemplar.clone());
    queries.push(bases[1].entries()[3].log_exemplar.clone());
    for db in &held {
        assert_scores_match_the_oracle(db, &queries);
    }
}

proptest! {
    #[test]
    fn grown_store_indexes_match_the_oracle(
        logs in STORE_LOGS,
        query in LOG_TEXT,
    ) {
        let logs: Vec<&str> = logs.split('|').collect();
        let bases = [GuidanceDatabase::quartus_shared(), GuidanceDatabase::iverilog_shared()];
        let store = DistilledStore::new();
        let mut held = Vec::new();
        for (i, log) in logs.iter().enumerate() {
            let entry = DistilledEntry::from_episode(log, ErrorCategory::SyntaxError, 1, 1);
            let base: &Arc<GuidanceDatabase> = &bases[i % 2];
            shared_tfidf_index(base);
            let before = documents_tokenized();
            let inserted = store.merge(&[entry]);
            let merged = store.merged_database(base);
            shared_tfidf_index(&merged);
            prop_assert_eq!(documents_tokenized() - before, inserted as u64);
            held.push(merged);
        }
        let queries = [query.as_str(), logs[0], logs[logs.len() - 1]];
        for db in &held {
            let oracle = Oracle::new(&tfidf_corpus(db));
            let index = shared_tfidf_index(db);
            for query in &queries {
                prop_assert_eq!(bits(&index.scores(query)), oracle.score_bits(query));
            }
        }
    }

    #[test]
    fn tfidf_scores_are_bit_identical_to_the_oracle(corpus in CORPUS_TEXT, query in QUERY_TEXT) {
        let docs: Vec<&str> = corpus.split('|').collect();
        let index = TfIdfIndex::new(&docs);
        let oracle = Oracle::new(&docs);
        prop_assert_eq!(index.len(), docs.len());
        prop_assert_eq!(bits(&index.scores(&query)), oracle.score_bits(&query));
        prop_assert_eq!(
            ranked_bits(&index.top_k(&query, 3)),
            ranked_bits(&oracle.top_k(&query, 3))
        );
        // A document's own text, repeated, is a query rich in shared terms.
        let echo = format!("{0} {0}", docs[0]);
        prop_assert_eq!(bits(&index.scores(&echo)), oracle.score_bits(&echo));
    }

    #[test]
    fn tfidf_retriever_matches_the_oracle_on_log_text(log in LOG_TEXT) {
        for db in [GuidanceDatabase::quartus_shared(), GuidanceDatabase::iverilog_shared()] {
            let oracle = Oracle::new(&tfidf_corpus(&db));
            let [served, expected] = retriever_and_oracle(&db, &oracle, &log);
            prop_assert_eq!(served, expected);
        }
    }

    #[test]
    fn tokens_are_lowercase_word_characters(text in ".{0,200}") {
        for token in tokenize(&text) {
            prop_assert!(!token.is_empty());
            prop_assert!(
                token.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'),
                "bad token {token:?} from {text:?}"
            );
        }
    }

    #[test]
    fn tokenize_is_idempotent_over_its_own_rendering(text in LOG_TEXT) {
        // Re-tokenizing the space-joined token stream must reproduce it:
        // tokenization is a projection.
        let tokens = tokenize(&text);
        prop_assert_eq!(tokenize(&tokens.join(" ")), tokens);
    }

    #[test]
    fn jaccard_is_bounded_and_symmetric(a in LOG_TEXT, b in LOG_TEXT) {
        let ab = jaccard_similarity(&a, &b);
        prop_assert!((0.0..=1.0).contains(&ab), "out of bounds: {ab}");
        prop_assert_eq!(ab, jaccard_similarity(&b, &a));
        let d = jaccard_distance(&a, &b);
        prop_assert!((d - (1.0 - ab)).abs() < 1e-12);
    }

    #[test]
    fn jaccard_self_similarity_is_one(a in LOG_TEXT) {
        prop_assert_eq!(jaccard_similarity(&a, &a), 1.0);
    }

    #[test]
    fn jaccard_depends_only_on_the_token_set(a in LOG_TEXT, b in LOG_TEXT) {
        // Repetition and order are invisible: doubling one side and
        // reversing its token order must not move the similarity.
        let doubled = format!("{a} {a}");
        let reversed =
            tokenize(&a).into_iter().rev().collect::<Vec<_>>().join(" ");
        prop_assert_eq!(jaccard_similarity(&a, &b), jaccard_similarity(&doubled, &b));
        prop_assert_eq!(jaccard_similarity(&a, &b), jaccard_similarity(&reversed, &b));
    }

    #[test]
    fn tag_scanner_never_panics_and_reports_unique_in_log_tags(text in LOG_TEXT) {
        let query = RetrievalQuery::from_log(text.clone());
        let tags = query.tags();
        for tag in &tags {
            // Every reported tag's digits appear in the log (the scanner
            // only ever reads digit runs out of the text).
            prop_assert!(
                text.contains(&tag.to_string()),
                "tag {tag} not in {text:?}"
            );
        }
        let mut unique = tags.clone();
        unique.sort_unstable();
        unique.dedup();
        prop_assert_eq!(unique.len(), tags.len());
    }
}
