//! Shard fragment I/O for the bench binaries' multi-process mode.
//!
//! A `--shard i/n` run executes its stripe of the experiment grid and
//! writes the raw verdicts (not the derived rates) to
//! `<results_dir>/shards/<experiment>.shard<i>of<n>.json`. The
//! `merge-shards <n>` subcommand reads the complete fragment set back and
//! reassembles the full run through the *same* fold an unsharded run uses,
//! so merged output is byte-identical — fix rates and fingerprints are
//! recomputed from verdicts, never averaged from per-shard rates.
//!
//! Fragments are self-describing: each file records its experiment name
//! and shard coordinates, and the merge validates the set (all `n` files
//! present, coordinates matching the filename, consistent scale flags)
//! before the eval-layer merge validates episode coverage.

use rtlfixer_eval::{RunStats, SchedulerStats, Shard};
use serde::Content;
use serde_json::Value;

/// The directory shard fragments live in, under the results dir
/// (`RTLFIXER_RESULTS_DIR`, default `results`).
pub fn shards_dir() -> std::path::PathBuf {
    let dir = std::env::var("RTLFIXER_RESULTS_DIR").unwrap_or_else(|_| "results".to_owned());
    std::path::Path::new(&dir).join("shards")
}

/// Path of one experiment shard's fragment file.
pub fn fragment_path(experiment: &str, shard: Shard) -> std::path::PathBuf {
    shards_dir().join(format!("{experiment}.shard{}of{}.json", shard.index, shard.count))
}

/// Writes one shard's fragment, wrapping `payload` with the experiment
/// name and shard coordinates. Returns the written path.
pub fn write_fragment(experiment: &str, shard: Shard, payload: Value) -> std::path::PathBuf {
    let dir = shards_dir();
    std::fs::create_dir_all(&dir).expect("create shards directory");
    let wrapped = serde_json::json!({
        "experiment": experiment,
        "shard_index": shard.index,
        "shard_count": shard.count,
        "payload": payload,
    });
    let path = fragment_path(experiment, shard);
    let text = serde_json::to_string_pretty(&wrapped).expect("fragment serialises");
    std::fs::write(&path, text + "\n").expect("write fragment");
    path
}

/// Reads the complete fragment set (`0..count`) for `experiment`,
/// validating each file's recorded coordinates against its name. Returns
/// payloads by shard index.
pub fn read_fragments(experiment: &str, count: usize) -> Result<Vec<Value>, String> {
    if count == 0 {
        return Err("merge-shards expects a shard count >= 1".to_owned());
    }
    let mut payloads = Vec::with_capacity(count);
    for index in 0..count {
        let shard = Shard { index, count };
        let path = fragment_path(experiment, shard);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("missing fragment {}: {e}", path.display()))?;
        let value: Value = serde_json::from_str(&text)
            .map_err(|e| format!("unreadable fragment {}: {e}", path.display()))?;
        let recorded = (
            as_str(&value["experiment"]),
            value["shard_index"].as_u64(),
            value["shard_count"].as_u64(),
        );
        if recorded != (Some(experiment), Some(index as u64), Some(count as u64)) {
            return Err(format!(
                "fragment {} does not match its name (recorded {:?})",
                path.display(),
                recorded
            ));
        }
        payloads.push(value["payload"].clone());
    }
    Ok(payloads)
}

/// The value as a string, if it is one (the vendored `Value` has no
/// `as_str`; fragments need it for labels and policy names).
pub fn as_str(value: &Value) -> Option<&str> {
    match &value.0 {
        Content::Str(s) => Some(s),
        _ => None,
    }
}

/// The value as a bool, if it is one.
pub fn as_bool(value: &Value) -> Option<bool> {
    match value.0 {
        Content::Bool(b) => Some(b),
        _ => None,
    }
}

/// The value as a usize, if it is an unsigned integer.
pub fn as_usize(value: &Value) -> Option<usize> {
    value.as_u64().and_then(|v| usize::try_from(v).ok())
}

/// Decodes a fragment's serialised [`RunStats`] (the inverse of
/// `Value::from_serialize(&stats)` — the vendored serde has no
/// `Deserialize` derive, so fragments navigate the content tree).
pub fn stats_from_json(value: &Value) -> Result<RunStats, String> {
    let int = |key: &str| {
        value
            .get(key)
            .and_then(as_usize)
            .ok_or_else(|| format!("fragment stats missing `{key}`"))
    };
    let float = |key: &str| {
        value
            .get(key)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("fragment stats missing `{key}`"))
    };
    let scheduler = match value.get("scheduler") {
        Some(v) if v.is_object() => Some(scheduler_from_json(v)?),
        _ => None,
    };
    Ok(RunStats {
        episodes: int("episodes")?,
        seconds: float("seconds")?,
        episodes_per_sec: float("episodes_per_sec")?,
        failed_episodes: int("failed_episodes")?,
        scheduler,
    })
}

/// Decodes a fragment's serialised [`SchedulerStats`]. The policy label
/// maps back onto the static names; anything unrecognised reads as
/// `"mixed"` rather than failing the merge.
fn scheduler_from_json(value: &Value) -> Result<SchedulerStats, String> {
    let int = |key: &str| {
        value
            .get(key)
            .and_then(as_usize)
            .ok_or_else(|| format!("fragment scheduler stats missing `{key}`"))
    };
    let policy = match as_str(&value["policy"]) {
        Some("grid") => "grid",
        Some("lpt") => "lpt",
        _ => "mixed",
    };
    Ok(SchedulerStats {
        policy,
        batches: int("batches")?,
        coalesced: int("coalesced")?,
        rank_correlation: value
            .get("rank_correlation")
            .and_then(Value::as_f64)
            .ok_or("fragment scheduler stats missing `rank_correlation`")?,
        barrier_idle_us: value
            .get("barrier_idle_us")
            .and_then(Value::as_u64)
            .ok_or("fragment scheduler stats missing `barrier_idle_us`")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    // `RTLFIXER_RESULTS_DIR` is process-global; fragment round-trip tests
    // must not interleave their env mutations.
    static ENV_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn fragments_round_trip_and_validate_coordinates() {
        let _guard = ENV_LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        let dir = std::env::temp_dir().join(format!("rtlfixer-shards-{}", std::process::id()));
        std::env::set_var("RTLFIXER_RESULTS_DIR", &dir);
        let payload = |n: u64| serde_json::json!({ "verdicts": [n, n + 1] });
        write_fragment("t", Shard { index: 0, count: 2 }, payload(0));
        write_fragment("t", Shard { index: 1, count: 2 }, payload(10));
        let payloads = read_fragments("t", 2).expect("complete set");
        assert_eq!(payloads.len(), 2);
        assert_eq!(payloads[1]["verdicts"].as_array().unwrap()[0].as_u64(), Some(10));
        // Missing member of a larger set.
        let err = read_fragments("t", 3).unwrap_err();
        assert!(err.contains("missing fragment"), "{err}");
        // A fragment copied over another's name is caught by the recorded
        // coordinates, before any payload-level validation.
        std::fs::copy(
            fragment_path("t", Shard { index: 0, count: 2 }),
            fragment_path("t", Shard { index: 1, count: 2 }),
        )
        .unwrap();
        let err = read_fragments("t", 2).unwrap_err();
        assert!(err.contains("does not match its name"), "{err}");
        std::env::remove_var("RTLFIXER_RESULTS_DIR");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_round_trip_through_fragment_json() {
        let stats = RunStats::new(24, std::time::Duration::from_millis(500))
            .with_failed(2)
            .with_scheduler(SchedulerStats {
                policy: "lpt",
                batches: 7,
                coalesced: 3,
                rank_correlation: 0.75,
                barrier_idle_us: 42,
            });
        let decoded = stats_from_json(&Value::from_serialize(&stats)).expect("round trips");
        assert_eq!(decoded.episodes, 24);
        assert_eq!(decoded.failed_episodes, 2);
        assert_eq!(decoded.seconds.to_bits(), stats.seconds.to_bits());
        let sched = decoded.scheduler.expect("scheduler survives");
        assert_eq!(sched.policy, "lpt");
        assert_eq!(sched.batches, 7);
        assert_eq!(sched.barrier_idle_us, 42);
        // A scheduler-less run decodes to `None` (serialised as null).
        let bare = RunStats::new(1, std::time::Duration::from_millis(1));
        assert!(stats_from_json(&Value::from_serialize(&bare)).unwrap().scheduler.is_none());
    }
}
