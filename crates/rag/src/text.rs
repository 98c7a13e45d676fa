//! Text utilities shared by the retrievers and (via this crate) the dataset
//! curation pipeline: tokenisation, Jaccard similarity and TF-IDF cosine.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::{Arc, RwLock};

/// Splits text into lowercase alphanumeric tokens; numbers survive as
/// tokens so error tags like `10161` are matchable.
pub fn tokenize(text: &str) -> Vec<String> {
    tokens(&text.to_ascii_lowercase()).map(str::to_owned).collect()
}

/// Whether `byte` belongs to a token: ASCII alphanumerics and `_`. Every
/// other byte, including each byte of a non-ASCII character, separates
/// tokens.
fn is_token_byte(byte: u8) -> bool {
    byte.is_ascii_alphanumeric() || byte == b'_'
}

/// The byte ranges of the tokens of `text`: maximal runs of token bytes,
/// found by one scan over the bytes. A run starts and ends next to ASCII
/// bytes, so every range falls on character boundaries.
fn token_spans(text: &str) -> impl Iterator<Item = (usize, usize)> + '_ {
    let bytes = text.as_bytes();
    let mut pos = 0;
    std::iter::from_fn(move || {
        while pos < bytes.len() && !is_token_byte(bytes[pos]) {
            pos += 1;
        }
        if pos == bytes.len() {
            return None;
        }
        let start = pos;
        while pos < bytes.len() && is_token_byte(bytes[pos]) {
            pos += 1;
        }
        Some((start, pos))
    })
}

/// The tokens of already-lowercased text, borrowed from it.
fn tokens(lowered: &str) -> impl Iterator<Item = &str> {
    token_spans(lowered).map(move |(start, end)| &lowered[start..end])
}

/// A token's first 8 bytes as a big-endian integer, zero-padded. Tokens
/// hold no zero byte, so comparing keys orders tokens as strings do, up to
/// ties between tokens that share their first 8 bytes.
fn prefix_key(token: &str) -> u64 {
    let mut key = [0u8; 8];
    let len = token.len().min(8);
    key[..len].copy_from_slice(&token.as_bytes()[..len]);
    u64::from_be_bytes(key)
}

/// A token of some text: its [`prefix_key`] and its byte range.
type KeyedSpan = (u64, usize, usize);

/// Writes the tokens of already-lowercased text into `spans` in
/// lexicographic order, repeats kept. The sort compares one integer per
/// token and falls back to the strings only on equal prefixes.
fn sort_token_spans(lowered: &str, spans: &mut Vec<KeyedSpan>) {
    let token = |&(_, start, end): &KeyedSpan| &lowered[start..end];
    spans.clear();
    spans.extend(
        token_spans(lowered).map(|(start, end)| (prefix_key(&lowered[start..end]), start, end)),
    );
    spans.sort_unstable_by(|a, b| a.0.cmp(&b.0).then_with(|| token(a).cmp(token(b))));
}

/// The tokens of already-lowercased text in lexicographic order, repeats
/// kept.
fn sorted_tokens(lowered: &str) -> Vec<&str> {
    let mut spans = Vec::new();
    sort_token_spans(lowered, &mut spans);
    spans.into_iter().map(|(_, start, end)| &lowered[start..end]).collect()
}

/// Per-thread working memory of TF-IDF queries: the lowercased query, its
/// sorted tokens and one dot product per document. Every query on a
/// thread reuses it, so a query allocates nothing once the buffers have
/// grown to fit; a buffer grown past [`SCRATCH_KEEP`] bytes by one long
/// query is released after it.
#[derive(Default)]
struct QueryScratch {
    lowered: String,
    spans: Vec<KeyedSpan>,
    dots: Vec<f64>,
}

/// Bytes a [`QueryScratch`] buffer keeps between queries.
const SCRATCH_KEEP: usize = 64 * 1024;

impl QueryScratch {
    fn release_oversized(&mut self) {
        if self.lowered.capacity() > SCRATCH_KEEP {
            self.lowered = String::new();
        }
        if self.spans.capacity() * std::mem::size_of::<KeyedSpan>() > SCRATCH_KEEP {
            self.spans = Vec::new();
        }
        if self.dots.capacity() * std::mem::size_of::<f64>() > SCRATCH_KEEP {
            self.dots = Vec::new();
        }
    }
}

thread_local! {
    static QUERY_SCRATCH: RefCell<QueryScratch> = RefCell::default();
}

/// Runs `f` on the thread's query scratch. `f` must not query again.
fn with_query_scratch<R>(f: impl FnOnce(&mut QueryScratch) -> R) -> R {
    QUERY_SCRATCH.with(|cell| {
        let mut scratch = cell.borrow_mut();
        let result = f(&mut scratch);
        scratch.release_oversized();
        result
    })
}

/// The distinct tokens of a text, sorted: the operand of Jaccard
/// similarity, built once per text so comparing two sets is one merge
/// walk. The guidance database keeps one per entry exemplar, and dataset
/// curation one per pooled candidate.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TokenSet {
    tokens: Vec<Box<str>>,
}

impl TokenSet {
    /// The token set of `text` (tokenised as [`tokenize`] does).
    pub fn new(text: &str) -> Self {
        #[cfg(test)]
        TOKEN_SETS.with(|count| count.set(count.get() + 1));
        let lowered = text.to_ascii_lowercase();
        let mut tokens = sorted_tokens(&lowered);
        tokens.dedup();
        TokenSet { tokens: tokens.into_iter().map(Box::from).collect() }
    }

    /// Jaccard similarity to `other` (see [`jaccard_similarity`]): the
    /// shared token count over the union count, 1 for two empty sets.
    pub fn jaccard(&self, other: &TokenSet) -> f64 {
        let (a, b) = (&self.tokens, &other.tokens);
        if a.is_empty() && b.is_empty() {
            return 1.0;
        }
        let (mut i, mut j, mut shared) = (0, 0, 0usize);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    shared += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        let union = a.len() + b.len() - shared;
        shared as f64 / union as f64
    }
}

/// Jaccard similarity of the token *sets* of two texts, in `[0, 1]`.
///
/// This is the distance the paper uses both for fuzzy retrieval and for the
/// DBSCAN clustering of the VerilogEval-syntax dataset (Jaccard distance =
/// `1 - similarity`). Callers comparing one text many times build its
/// [`TokenSet`] once instead.
///
/// # Examples
///
/// ```
/// use rtlfixer_rag::text::jaccard_similarity;
///
/// assert_eq!(jaccard_similarity("a b c", "a b c"), 1.0);
/// assert_eq!(jaccard_similarity("a b", "c d"), 0.0);
/// assert!((jaccard_similarity("a b c", "b c d") - 0.5).abs() < 1e-9);
/// ```
pub fn jaccard_similarity(a: &str, b: &str) -> f64 {
    TokenSet::new(a).jaccard(&TokenSet::new(b))
}

/// Jaccard distance (`1 - similarity`).
pub fn jaccard_distance(a: &str, b: &str) -> f64 {
    1.0 - jaccard_similarity(a, b)
}

thread_local! {
    static TOKENIZED: Cell<u64> = const { Cell::new(0) };
}

#[cfg(test)]
thread_local! {
    static TOKEN_SETS: Cell<u64> = const { Cell::new(0) };
}

/// How many [`TokenSet`]s the calling thread has built: one per Jaccard
/// query, one per exemplar of a database the first time it is compared
/// against, and one per entry a distilled store's merge inserts. A grown
/// store's generations share their entries' sets and build none, which is
/// what the store's tests read this count to check.
#[cfg(test)]
pub(crate) fn token_sets_built() -> u64 {
    TOKEN_SETS.with(Cell::get)
}

/// How many documents the calling thread has tokenized into TF-IDF terms:
/// one per document of a plain-text corpus ([`TfIdfIndex::new`], a base
/// database's first index) and one per entry a distilled store's merge
/// inserts. Assembling a grown store's index reads cached terms and adds
/// nothing, which is what tests and profiles read this count to check.
pub fn documents_tokenized() -> u64 {
    TOKENIZED.with(Cell::get)
}

fn count_tokenized(documents: usize) {
    TOKENIZED.with(|count| count.set(count.get() + documents as u64));
}

/// A TF-IDF document: its distinct terms as `(term id, count)` runs, in
/// lexicographic term order. Shared by every index whose corpus holds the
/// document.
pub(crate) type TermRuns = Arc<[(u32, u32)]>;

/// Term names to term ids.
type TermIds = HashMap<Box<str>, u32>;

/// The term ids of a TF-IDF corpus.
///
/// A tokenized corpus ([`Corpus::tokenize`]) numbers its terms in
/// lexicographic order, and that map never changes. A distilled store
/// extends it, once per base database, with the terms of the entries it
/// merges ([`Vocabulary::extended`]): extension ids continue after the
/// base's in order of first sight and are never reassigned, so an index
/// assembled earlier stays valid and treats an id at or past its own term
/// count as a term it never saw.
#[derive(Debug, Clone)]
pub(crate) struct Vocabulary {
    base: Arc<TermIds>,
    extension: Option<Arc<RwLock<TermIds>>>,
}

impl Vocabulary {
    /// The same base with a new, empty extension.
    pub(crate) fn extended(&self) -> Vocabulary {
        Vocabulary { base: Arc::clone(&self.base), extension: Some(Arc::default()) }
    }

    /// Number of ids handed out so far.
    pub(crate) fn len(&self) -> usize {
        let extension = self.extension.as_ref();
        self.base.len() + extension.map_or(0, |ext| ext.read().expect("vocabulary lock").len())
    }

    /// Numbers a document's terms, giving each term the base lacks the next
    /// extension id.
    ///
    /// # Panics
    ///
    /// Panics on a vocabulary that was not [`extended`](Self::extended).
    pub(crate) fn number(&self, terms: &TermCounts) -> TermRuns {
        let mut ext = self
            .extension
            .as_ref()
            .expect("only an extended vocabulary numbers new terms")
            .write()
            .expect("vocabulary lock");
        terms
            .iter()
            .map(|(term, count)| {
                let id = match self.base.get(term) {
                    Some(&id) => id,
                    None => {
                        let next = (self.base.len() + ext.len()) as u32;
                        *ext.entry(Box::from(term)).or_insert(next)
                    }
                };
                (id, count)
            })
            .collect()
    }
}

/// A document's distinct terms and their counts, in lexicographic order,
/// before any vocabulary numbers them: what a distilled entry keeps of its
/// one tokenization, so each base database's vocabulary can number it
/// without reading the text again.
#[derive(Debug)]
pub(crate) struct TermCounts {
    /// The distinct terms, joined by single spaces (no term holds one).
    terms: Box<str>,
    counts: Box<[u32]>,
}

impl TermCounts {
    /// Tokenizes `text` as [`tokenize`] does.
    pub(crate) fn new(text: &str) -> Self {
        count_tokenized(1);
        let lowered = text.to_ascii_lowercase();
        let sorted = sorted_tokens(&lowered);
        let runs: Vec<&[&str]> = sorted.chunk_by(|a, b| a == b).collect();
        let terms = runs.iter().map(|run| run[0]).collect::<Vec<_>>().join(" ");
        TermCounts {
            terms: terms.into(),
            counts: runs.iter().map(|run| run.len() as u32).collect(),
        }
    }

    fn iter(&self) -> impl Iterator<Item = (&str, u32)> {
        // An empty `terms` splits into one empty string; the empty
        // `counts` ends the zip before it.
        self.terms.split(' ').zip(self.counts.iter().copied())
    }
}

/// A tokenized TF-IDF corpus: each document's term runs and the vocabulary
/// that numbers them. [`TfIdfIndex::assemble`] builds an index from it
/// without reading any text.
#[derive(Debug, Clone)]
pub(crate) struct Corpus {
    pub(crate) vocab: Vocabulary,
    pub(crate) docs: Vec<TermRuns>,
}

impl Corpus {
    /// Tokenizes plain text, numbering its terms in lexicographic order so
    /// that sorting a document's ids sorts its terms.
    pub(crate) fn tokenize<S: AsRef<str>>(corpus: &[S]) -> Corpus {
        count_tokenized(corpus.len());
        let lowered: Vec<String> =
            corpus.iter().map(|text| text.as_ref().to_ascii_lowercase()).collect();
        // Provisional ids in order of first sight, for every token of every
        // document back to back.
        let mut seen: HashMap<&str, u32> = HashMap::new();
        let mut names: Vec<&str> = Vec::new();
        let mut ids: Vec<u32> = Vec::new();
        let mut ends = Vec::with_capacity(lowered.len());
        for text in &lowered {
            for token in tokens(text) {
                let id = *seen.entry(token).or_insert_with(|| {
                    names.push(token);
                    (names.len() - 1) as u32
                });
                ids.push(id);
            }
            ends.push(ids.len());
        }
        let mut order: Vec<u32> = (0..names.len() as u32).collect();
        order.sort_unstable_by_key(|&id| names[id as usize]);
        let mut rank = vec![0u32; names.len()];
        let mut vocab = TermIds::with_capacity(names.len());
        for (lexical, &id) in order.iter().enumerate() {
            rank[id as usize] = lexical as u32;
            vocab.insert(Box::from(names[id as usize]), lexical as u32);
        }
        let mut start = 0;
        let docs = ends
            .into_iter()
            .map(|end| {
                let doc = &mut ids[start..end];
                start = end;
                for id in doc.iter_mut() {
                    *id = rank[*id as usize];
                }
                doc.sort_unstable();
                doc.chunk_by(|a, b| a == b).map(|run| (run[0], run.len() as u32)).collect()
            })
            .collect();
        Corpus { vocab: Vocabulary { base: Arc::new(vocab), extension: None }, docs }
    }
}

/// A small TF-IDF vector index over a fixed corpus, with cosine-similarity
/// queries — the "similarity search with a vector database" retriever
/// option the paper mentions in §3.3.
///
/// Stored inverted: each term id owns its idf and a postings slice of
/// `(document, tf·idf)`, and every document's norm is computed at build
/// time, so scoring a query visits only the postings of its own terms.
/// Every float sum runs in lexicographic term order — the order that fixes
/// the last bits of every score.
#[derive(Debug, Clone)]
pub struct TfIdfIndex {
    vocab: Vocabulary,
    /// Each term's idf, by id: 1 for a term no document holds, the weight
    /// of a query term the corpus never saw.
    idf: Box<[f64]>,
    /// Term `id`'s postings are `postings[starts[id]..starts[id + 1]]`.
    starts: Box<[usize]>,
    /// `(document, tf·idf)`, grouped by term, each group in document order.
    postings: Box<[(usize, f64)]>,
    /// Per-document L2 norm of its tf·idf vector.
    norms: Box<[f64]>,
}

impl TfIdfIndex {
    /// Builds an index over `corpus`.
    pub fn new<S: AsRef<str>>(corpus: &[S]) -> Self {
        Self::assemble(&Corpus::tokenize(corpus))
    }

    /// Builds an index from term runs alone: counts each term's documents,
    /// derives `idf = ln(n / (1 + df)) + 1`, and in one pass over the
    /// documents lays out the postings and sums each norm over the
    /// document's own runs. Runs are in lexicographic term order and each
    /// sum starts at `-0.0`, the identity `f64::sum` folds from, so each
    /// norm is bit-for-bit the `sum().sqrt()` over that document's ordered
    /// weights. Ids the vocabulary handed to other documents have df 0 and
    /// no postings.
    pub(crate) fn assemble(corpus: &Corpus) -> Self {
        let terms = corpus.vocab.len();
        let n = corpus.docs.len().max(1) as f64;
        // `starts[id + 1]` first counts term `id`'s documents; prefix sums
        // then turn `starts[id]` into its first posting.
        let mut starts = vec![0usize; terms + 1];
        for doc in &corpus.docs {
            for &(id, _) in doc.iter() {
                starts[id as usize + 1] += 1;
            }
        }
        let idf: Box<[f64]> = starts[1..]
            .iter()
            .map(|&df| if df == 0 { 1.0 } else { (n / (1.0 + df as f64)).ln() + 1.0 })
            .collect();
        for id in 0..terms {
            starts[id + 1] += starts[id];
        }
        let mut next = starts[..terms].to_vec();
        let mut postings = vec![(0, 0.0); starts[terms]].into_boxed_slice();
        let norms = corpus
            .docs
            .iter()
            .enumerate()
            .map(|(doc, runs)| {
                let mut norm_sq = -0.0f64;
                for &(id, count) in runs.iter() {
                    let weight = f64::from(count) * idf[id as usize];
                    norm_sq += weight * weight;
                    let slot = &mut next[id as usize];
                    postings[*slot] = (doc, weight);
                    *slot += 1;
                }
                norm_sq.sqrt()
            })
            .collect();
        TfIdfIndex {
            vocab: corpus.vocab.clone(),
            idf,
            starts: starts.into_boxed_slice(),
            postings,
            norms,
        }
    }

    /// Number of indexed documents.
    pub fn len(&self) -> usize {
        self.norms.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.norms.is_empty()
    }

    /// Cosine similarity of `query` against every document, in document
    /// order.
    ///
    /// The log is tokenized once and each distinct query term visits only
    /// its own postings. Every score equals the per-document cosine
    /// `q·d / (|q|·|d|)` bit for bit: terms are summed in lexicographic
    /// order and each dot product starts at `-0.0` as `f64::sum` does, so a
    /// document sharing no term with the query scores `-0.0`. An empty
    /// query or document scores `0.0`. Terms no document holds weigh idf 1
    /// in the query norm, whether or not the vocabulary numbers them.
    pub fn scores(&self, query: &str) -> Vec<f64> {
        self.with_scores(query, <[f64]>::to_vec)
    }

    /// Calls `f` with [`scores`](Self::scores)`(query)`, computed in the
    /// thread's scratch buffers: lowercasing, tokenizing, sorting and
    /// scoring allocate nothing once the buffers fit the query and the
    /// corpus.
    pub(crate) fn with_scores<R>(&self, query: &str, f: impl FnOnce(&[f64]) -> R) -> R {
        with_query_scratch(|scratch| {
            let QueryScratch { lowered, spans, dots } = scratch;
            lowered.clear();
            lowered.push_str(query);
            lowered.make_ascii_lowercase();
            sort_token_spans(lowered, spans);
            let term = |&(_, start, end): &KeyedSpan| &lowered[start..end];
            let extension =
                self.vocab.extension.as_ref().map(|ext| ext.read().expect("vocabulary lock"));
            dots.clear();
            dots.resize(self.norms.len(), -0.0);
            let mut query_sq = -0.0f64;
            for run in spans.chunk_by(|a, b| a.0 == b.0 && term(a) == term(b)) {
                let count = run.len() as f64;
                let name = term(&run[0]);
                let id = self
                    .vocab
                    .base
                    .get(name)
                    .or_else(|| extension.as_ref()?.get(name))
                    .map(|&id| id as usize)
                    .filter(|&id| id < self.idf.len());
                let (idf, postings) = match id {
                    Some(id) => {
                        (self.idf[id], &self.postings[self.starts[id]..self.starts[id + 1]])
                    }
                    None => (1.0, &[][..]),
                };
                let weight = count * idf;
                query_sq += weight * weight;
                for &(doc, doc_weight) in postings {
                    dots[doc] += weight * doc_weight;
                }
            }
            drop(extension);
            let query_norm = query_sq.sqrt();
            for (dot, &norm) in dots.iter_mut().zip(&self.norms) {
                *dot =
                    if query_norm == 0.0 || norm == 0.0 { 0.0 } else { *dot / (query_norm * norm) };
            }
            f(dots)
        })
    }

    /// Indices of the `k` most similar documents with their scores,
    /// best first (ties keep document order).
    pub fn top_k(&self, query: &str, k: usize) -> Vec<(usize, f64)> {
        let mut scored: Vec<(usize, f64)> = self.scores(query).into_iter().enumerate().collect();
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        scored.truncate(k);
        scored
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenize_keeps_numbers_and_underscores() {
        assert_eq!(
            tokenize("Error (10161): top_module \"clk\""),
            vec!["error", "10161", "top_module", "clk"]
        );
    }

    #[test]
    fn sorted_tokens_match_a_string_sort() {
        let texts = [
            "",
            "error (10161): object \"clk\" is not declared",
            "abcdefgh abcdefghi abcdefg abcdefgh_ abcdefgh0 abcdefgh abc",
            "caf\u{e9}_x \u{1F600}y z\u{e9}z 12 1 123456789 12345678",
            "____ ___ _ a_ _a zz z zzzzzzzzz zzzzzzzz",
        ];
        for text in texts {
            let lowered = text.to_ascii_lowercase();
            let mut expected: Vec<&str> = lowered
                .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                .filter(|token| !token.is_empty())
                .collect();
            expected.sort_unstable();
            assert_eq!(sorted_tokens(&lowered), expected, "{text:?}");
        }
    }

    #[test]
    fn token_sets_compare_like_the_text_similarity() {
        let a = TokenSet::new("Index out[8] is out of range");
        let b = TokenSet::new("index 8 cannot fall outside range");
        assert_eq!(a.jaccard(&b), 3.0 / 9.0);
        assert_eq!(TokenSet::new("").jaccard(&TokenSet::default()), 1.0);
    }

    #[test]
    fn jaccard_bounds() {
        assert_eq!(jaccard_similarity("", ""), 1.0);
        assert_eq!(jaccard_similarity("x", ""), 0.0);
        assert_eq!(jaccard_distance("a b", "a b"), 0.0);
    }

    #[test]
    fn jaccard_is_symmetric() {
        let a = "index out of range for vector";
        let b = "index 8 cannot fall outside range";
        assert_eq!(jaccard_similarity(a, b), jaccard_similarity(b, a));
    }

    #[test]
    fn tfidf_ranks_relevant_doc_first() {
        let corpus = [
            "object is not declared verify the object name",
            "index cannot fall outside the declared range for vector",
            "syntax error near text expecting",
        ];
        let index = TfIdfIndex::new(&corpus);
        assert_eq!(index.len(), 3);
        let top = index.top_k("index 5 cannot fall outside declared range", 1);
        assert_eq!(top[0].0, 1);
        assert!(top[0].1 > 0.5);
    }

    #[test]
    fn tfidf_zero_for_disjoint_query() {
        let index = TfIdfIndex::new(&["alpha beta", "gamma delta"]);
        assert_eq!(index.scores("zeta eta"), vec![0.0, 0.0]);
        assert_eq!(index.scores("alpha")[1], 0.0);
        assert_eq!(index.scores(""), vec![0.0, 0.0]);
    }
}
