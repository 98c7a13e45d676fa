//! Each guidance database owns its TF-IDF index, so the distill loop can
//! never read a grown database through a stale index: a merged database
//! is a new database whose index, built on its first retrieval, covers
//! the distilled entries, while the base database keeps its own index
//! untouched. Exercised from many threads at once, because that is how
//! the serve daemon hits it.

use std::ptr;
use std::sync::Arc;
use std::thread;

use rtlfixer_rag::{
    shared_tfidf_index, DistilledEntry, DistilledStore, GuidanceDatabase, RetrievalQuery,
    Retriever, TfIdfRetriever,
};
use rtlfixer_verilog::diag::ErrorCategory;

#[test]
fn merged_database_gets_a_fresh_index_under_concurrency() {
    let base = Arc::new(GuidanceDatabase::quartus());
    let base_index = shared_tfidf_index(&base);
    assert_eq!(base_index.len(), base.entries().len());

    let store = DistilledStore::new();
    store.merge(&[DistilledEntry::from_episode(
        "syntax error near 'zorblefrazzle' on line 7",
        ErrorCategory::SyntaxError,
        2,
        1,
    )]);
    let merged = store.merged_database(&base);

    // Many threads race the first build of the merged index; every one
    // must get the same index, and it must cover the distilled entry.
    let indexes: Vec<_> = thread::scope(|scope| {
        let handles: Vec<_> =
            (0..8).map(|_| scope.spawn(|| shared_tfidf_index(&merged))).collect();
        handles.into_iter().map(|h| h.join().expect("no panics")).collect()
    });
    for index in &indexes {
        assert!(ptr::eq(*index, indexes[0]), "racing first calls built two indexes");
        assert_eq!(index.len(), base.entries().len() + 1);
    }

    // The base database's index is untouched — same index, same length.
    let base_again = shared_tfidf_index(&base);
    assert!(ptr::eq(base_index, base_again));
    assert_eq!(base_again.len(), base.entries().len());

    // And a lexical retriever over the merged database can actually reach
    // the distilled entry through the merged database's index.
    let retriever = TfIdfRetriever::new();
    let query =
        RetrievalQuery::from_log("syntax error near 'zorblefrazzle' on line 12".to_owned());
    let hits = retriever.retrieve(&merged, &query);
    assert!(
        hits.iter().any(|h| h.entry.id.starts_with("distilled-")),
        "distilled entry unreachable: {:?}",
        hits.iter().map(|h| h.entry.id.as_str()).collect::<Vec<_>>()
    );
}
