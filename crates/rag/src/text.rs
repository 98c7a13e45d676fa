//! Text utilities shared by the retrievers and (via this crate) the dataset
//! curation pipeline: tokenisation, Jaccard similarity and TF-IDF cosine.

use std::collections::HashMap;

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

/// The tokens of already-lowercased text, borrowed from it: maximal runs
/// of token bytes, found by one scan over the bytes. A run starts and ends
/// next to ASCII bytes, so every slice falls on character boundaries.
fn tokens(lowered: &str) -> impl Iterator<Item = &str> {
    let bytes = lowered.as_bytes();
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
        Some(&lowered[start..pos])
    })
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

/// The tokens of already-lowercased text in lexicographic order, repeats
/// kept. The sort compares one integer per token and falls back to the
/// strings only on equal prefixes.
fn sorted_tokens(lowered: &str) -> Vec<&str> {
    let mut keyed: Vec<(u64, &str)> = tokens(lowered).map(|t| (prefix_key(t), t)).collect();
    keyed.sort_unstable_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(b.1)));
    keyed.into_iter().map(|(_, token)| token).collect()
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

/// A small TF-IDF vector index over a fixed corpus, with cosine-similarity
/// queries — the "similarity search with a vector database" retriever
/// option the paper mentions in §3.3.
///
/// Stored inverted: each term maps to its idf and a postings list of
/// `(document, tf·idf)`, and every document's norm is computed at build
/// time, so scoring a query visits only the postings of its own terms.
/// Every float sum runs in lexicographic term order — the order that fixes
/// the last bits of every score — so the map itself needs no order.
#[derive(Debug, Clone)]
pub struct TfIdfIndex {
    terms: HashMap<Box<str>, Term>,
    /// Per-document L2 norm of its tf·idf vector.
    norms: Vec<f64>,
}

/// One indexed term: its idf and the documents it occurs in.
#[derive(Debug, Clone)]
struct Term {
    idf: f64,
    /// `(document, tf·idf)` in document order.
    postings: Vec<(usize, f64)>,
}

impl TfIdfIndex {
    /// Builds an index over `corpus`.
    pub fn new<S: AsRef<str>>(corpus: &[S]) -> Self {
        let lowered: Vec<String> =
            corpus.iter().map(|text| text.as_ref().to_ascii_lowercase()).collect();
        // Terms get ids in order of first sight; each document's ids are
        // sorted so equal tokens form one run, its term count.
        let mut ids: HashMap<&str, usize> = HashMap::new();
        let mut names: Vec<&str> = Vec::new();
        let mut postings: Vec<Vec<(usize, f64)>> = Vec::new();
        let mut doc_ids = Vec::new();
        for (doc, text) in lowered.iter().enumerate() {
            doc_ids.clear();
            for token in tokens(text) {
                let id = *ids.entry(token).or_insert_with(|| {
                    names.push(token);
                    postings.push(Vec::new());
                    names.len() - 1
                });
                doc_ids.push(id);
            }
            doc_ids.sort_unstable();
            for run in doc_ids.chunk_by(|a, b| a == b) {
                postings[run[0]].push((doc, run.len() as f64));
            }
        }
        let n = corpus.len().max(1) as f64;
        // Sums start at -0.0, the identity `f64::sum` folds from, and walk
        // the terms in lexicographic order: each norm is bit-for-bit the
        // `sum().sqrt()` over that document's ordered weights.
        let mut order: Vec<usize> = (0..names.len()).collect();
        order.sort_unstable_by_key(|&id| names[id]);
        let mut norm_sq = vec![-0.0f64; corpus.len()];
        let mut terms = HashMap::with_capacity(names.len());
        for id in order {
            let mut postings = std::mem::take(&mut postings[id]);
            let idf = (n / (1.0 + postings.len() as f64)).ln() + 1.0;
            for (doc, weight) in &mut postings {
                *weight *= idf;
                norm_sq[*doc] += *weight * *weight;
            }
            terms.insert(Box::from(names[id]), Term { idf, postings });
        }
        TfIdfIndex { terms, norms: norm_sq.into_iter().map(f64::sqrt).collect() }
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
    /// query or document scores `0.0`. Terms the corpus never saw weigh
    /// idf 1 in the query norm.
    pub fn scores(&self, query: &str) -> Vec<f64> {
        let lowered = query.to_ascii_lowercase();
        let query_terms = sorted_tokens(&lowered);
        let mut dots = vec![-0.0f64; self.norms.len()];
        let mut query_sq = -0.0f64;
        for run in query_terms.chunk_by(|a, b| a == b) {
            let count = run.len() as f64;
            let term = self.terms.get(run[0]);
            let weight = count * term.map_or(1.0, |t| t.idf);
            query_sq += weight * weight;
            for &(doc, doc_weight) in term.map_or(&[][..], |t| &t.postings) {
                dots[doc] += weight * doc_weight;
            }
        }
        let query_norm = query_sq.sqrt();
        for (dot, &norm) in dots.iter_mut().zip(&self.norms) {
            *dot = if query_norm == 0.0 || norm == 0.0 { 0.0 } else { *dot / (query_norm * norm) };
        }
        dots
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
