//! # rtlfixer-cache
//!
//! A sharded, concurrent, content-addressed artifact cache — the memoisation
//! substrate under the compile → feedback → repair loop.
//!
//! The evaluation grid replays the same problem corpus across cells and
//! repeats, so the frontend sees each broken source many times, every
//! compiler personality re-renders the same diagnostics, and the testbench
//! re-elaborates identical designs once per proposal. All three computations
//! are pure functions of their inputs, so each artifact is cached once per
//! process behind a content hash:
//!
//! * [`fingerprint128`] — the canonical 128-bit content hash. Cache keys pair
//!   it with whatever non-content coordinates matter (compiler personality,
//!   file name, top module), so a collision requires two distinct inputs to
//!   agree on all 128 bits — negligible at any realistic working-set size.
//! * [`ShardedCache`] — a lock-striped hash map. Workers of the parallel
//!   episode pool hit disjoint shards most of the time, and the value is
//!   computed *outside* the shard lock so a slow miss never blocks readers.
//! * [`enabled`] / [`set_enabled`] — a process-wide kill switch
//!   (`RTLFIXER_CACHE=0` in the environment, or programmatic). Caching is
//!   behaviourally invisible — results are bit-identical on or off — so the
//!   switch exists purely for invariance tests and perf A/B runs.
//!
//! ## Invariance guarantee
//!
//! A cache entry is only ever the memoised result of a pure function of its
//! key. Eviction (a shard clearing when full) and the kill switch therefore
//! change wall-clock time, never results. The repo's invariance suite runs
//! experiment binaries with the cache on and off at several `--jobs` values
//! and asserts byte-identical outputs.

#![warn(missing_docs)]

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;
/// Seed of the high half's FNV stream.
const HI_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// Final avalanche (splitmix64) of an FNV state, so short inputs still
/// spread across the whole 64-bit space.
fn avalanche(mut hash: u64) -> u64 {
    hash ^= hash >> 30;
    hash = hash.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    hash ^= hash >> 27;
    hash = hash.wrapping_mul(0x94D0_49BB_1331_11EB);
    hash ^ (hash >> 31)
}

/// The canonical 128-bit content hash: two independently-seeded FNV-1a
/// 64-bit streams over the same bytes (low half seed 0, high half seed
/// `0x9E37_79B9_7F4A_7C15`), each finished by a splitmix64 avalanche.
/// Stable across processes and platforms.
///
/// Both streams advance in one loop: their multiply chains are
/// independent, so the CPU overlaps them and a source costs about 1.2
/// serial passes instead of two. [`Fingerprint128`] is the same hash fed
/// in pieces.
pub fn fingerprint128(bytes: &[u8]) -> u128 {
    let mut hash = Fingerprint128::new();
    hash.write(bytes);
    hash.finish()
}

/// [`fingerprint128`] computed incrementally: writing a byte string in
/// any number of pieces gives the value of the whole string, so a caller
/// hashing a composite key feeds its parts where they live instead of
/// copying them into one buffer first.
///
/// ```
/// use rtlfixer_cache::{fingerprint128, Fingerprint128};
///
/// let mut hash = Fingerprint128::new();
/// hash.write(b"module m; ");
/// hash.write(b"endmodule");
/// assert_eq!(hash.finish(), fingerprint128(b"module m; endmodule"));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint128 {
    lo: u64,
    hi: u64,
}

impl Fingerprint128 {
    /// The hash of no bytes yet.
    #[inline]
    pub fn new() -> Self {
        Fingerprint128 { lo: FNV_OFFSET, hi: FNV_OFFSET ^ HI_SEED }
    }

    /// Appends `bytes` to the hashed string.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        let (mut lo, mut hi) = (self.lo, self.hi);
        for &byte in bytes {
            lo = (lo ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
            hi = (hi ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        }
        (self.lo, self.hi) = (lo, hi);
    }

    /// The fingerprint of everything written so far.
    #[inline]
    pub fn finish(&self) -> u128 {
        (u128::from(avalanche(self.hi)) << 64) | u128::from(avalanche(self.lo))
    }
}

impl Default for Fingerprint128 {
    fn default() -> Self {
        Self::new()
    }
}

// Global kill switch: 0 = uninitialised (read RTLFIXER_CACHE lazily),
// 1 = enabled, 2 = disabled.
static ENABLED: AtomicU8 = AtomicU8::new(0);

/// Whether caching is active. Defaults to on; the `RTLFIXER_CACHE`
/// environment variable set to `0`, `off`, `false` or `no` disables it at
/// startup, and [`set_enabled`] overrides either way at runtime.
pub fn enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => {
            let on = match std::env::var("RTLFIXER_CACHE") {
                Ok(value) => {
                    !matches!(value.to_ascii_lowercase().as_str(), "0" | "off" | "false" | "no")
                }
                Err(_) => true,
            };
            ENABLED.store(if on { 1 } else { 2 }, Ordering::Relaxed);
            on
        }
    }
}

/// Turns caching on or off process-wide. Intended for invariance tests and
/// A/B timing; flipping it mid-run is safe (results never depend on it).
pub fn set_enabled(on: bool) {
    ENABLED.store(if on { 1 } else { 2 }, Ordering::Relaxed);
}

/// A point-in-time view of one cache's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute *while the cache was enabled* — real
    /// cold-cache traffic, never kill-switch traffic.
    pub misses: u64,
    /// Lookups that went straight to compute because the cache was
    /// disabled (the `RTLFIXER_CACHE=0` kill switch). Kept separate from
    /// `misses` so an A/B run's 100% bypass is distinguishable from real
    /// cold-cache behaviour.
    pub bypassed: u64,
    /// Entries dropped by capacity-pressure shard clears.
    pub evictions: u64,
    /// Entries currently resident across all shards.
    pub entries: usize,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]` over enabled traffic (`0` when there was
    /// none). Bypassed lookups are excluded — they say nothing about
    /// locality.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A lock-striped concurrent memo table.
///
/// Keys carry full equality — the content hash only picks the shard — so the
/// cache is correct even under (astronomically unlikely) fingerprint
/// collisions within a key type. Each shard is bounded: when it reaches
/// capacity it is cleared wholesale, a generation-style eviction that keeps
/// memory flat without bookkeeping on the hit path. Values are handed out by
/// clone, so `V` is typically an `Arc`.
pub struct ShardedCache<K, V> {
    shards: Vec<Mutex<HashMap<K, V>>>,
    shard_capacity: usize,
    name: &'static str,
    hits: AtomicU64,
    misses: AtomicU64,
    bypassed: AtomicU64,
    evictions: AtomicU64,
}

impl<K: Hash + Eq, V: Clone> ShardedCache<K, V> {
    /// Creates a cache with `shards` lock stripes of at most
    /// `shard_capacity` entries each. Shard count is rounded up to a power
    /// of two (minimum 1).
    pub fn new(shards: usize, shard_capacity: usize) -> Self {
        Self::named(shards, shard_capacity, "cache")
    }

    /// [`ShardedCache::new`] with a name used in the observability
    /// registry (`cache.<name>.evictions`).
    pub fn named(shards: usize, shard_capacity: usize, name: &'static str) -> Self {
        let shards = shards.max(1).next_power_of_two();
        ShardedCache {
            shards: (0..shards).map(|_| Mutex::new(HashMap::new())).collect(),
            shard_capacity: shard_capacity.max(1),
            name,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            bypassed: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard_for(&self, key: &K) -> &Mutex<HashMap<K, V>> {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut hasher);
        let index = (hasher.finish() as usize) & (self.shards.len() - 1);
        &self.shards[index]
    }

    /// Returns the cached value for `key`, computing and inserting it via
    /// `compute` on a miss. `compute` runs *without* the shard lock held, so
    /// concurrent misses on the same key may compute redundantly — both
    /// arrive at the same value (entries memoise pure functions), and the
    /// first insertion wins.
    pub fn get_or_insert_with(&self, key: K, compute: impl FnOnce() -> V) -> V {
        if !enabled() {
            self.bypassed.fetch_add(1, Ordering::Relaxed);
            return compute();
        }
        if let Some(hit) = self.shard_for(&key).lock().expect("cache shard").get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return hit.clone();
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let value = compute();
        let mut shard = self.shard_for(&key).lock().expect("cache shard");
        // Capacity pressure clears the shard wholesale — but only when this
        // insertion would actually grow it. A concurrent miss on the same
        // key must not clear the shard again and wipe the entry the racing
        // thread just inserted (it would land right back anyway).
        if !shard.contains_key(&key) && shard.len() >= self.shard_capacity {
            let evicted = shard.len() as u64;
            shard.clear();
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
            rtlfixer_obs::counter_add(&format!("cache.{}.evictions", self.name), evicted);
        }
        shard.entry(key).or_insert_with(|| value.clone()).clone()
    }

    /// Looks up `key` without computing on a miss.
    pub fn get(&self, key: &K) -> Option<V> {
        if !enabled() {
            self.bypassed.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let hit = self.shard_for(key).lock().expect("cache shard").get(key).cloned();
        match &hit {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        hit
    }

    /// Drops every entry (counters are kept).
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().expect("cache shard").clear();
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            bypassed: self.bypassed.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.shards.iter().map(|s| s.lock().expect("cache shard").len()).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// Tests that assert on exact hit/miss behaviour serialise against the
    /// one test that flips the global switch.
    fn switch_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn fingerprint_is_stable_and_content_sensitive() {
        let a = fingerprint128(b"module m; endmodule");
        assert_eq!(a, fingerprint128(b"module m; endmodule"));
        assert_ne!(a, fingerprint128(b"module m ; endmodule"));
        assert_ne!(fingerprint128(b""), fingerprint128(b"\0"));
        // The two 64-bit halves are independent streams.
        assert_ne!((a >> 64) as u64, a as u64);
    }

    /// One seeded FNV-1a stream on its own: two serial passes of it are
    /// the specification the fused loop must reproduce.
    fn fnv1a64_serial(bytes: &[u8], seed: u64) -> u64 {
        let mut hash = FNV_OFFSET ^ seed;
        for &byte in bytes {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(FNV_PRIME);
        }
        avalanche(hash)
    }

    #[test]
    fn fused_fingerprint_equals_two_serial_passes() {
        let long: Vec<u8> = (0..4096u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8).collect();
        let inputs: [&[u8]; 5] = [b"", b"\0", b"module m; endmodule", "é\u{1F600}".as_bytes(), &long];
        for bytes in inputs {
            let serial = (u128::from(fnv1a64_serial(bytes, HI_SEED)) << 64)
                | u128::from(fnv1a64_serial(bytes, 0));
            assert_eq!(fingerprint128(bytes), serial, "{} bytes", bytes.len());
        }
        // A value recorded from the two-pass implementation.
        assert_eq!(fingerprint128(b"module m; endmodule"), 0x7a93_f8a0_77d5_2b1e_757d_cce7_61f0_4661);
    }

    #[test]
    fn streamed_fingerprint_equals_one_shot_at_every_split() {
        let text = "module m(input a, output y); assign y = ~a; endmodule // é\u{1F600}".as_bytes();
        for first in 0..=text.len() {
            for second in first..=text.len() {
                let mut hash = Fingerprint128::default();
                hash.write(&text[..first]);
                hash.write(&[]);
                hash.write(&text[first..second]);
                hash.write(&text[second..]);
                assert_eq!(hash.finish(), fingerprint128(text), "split at {first}, {second}");
            }
        }
        assert_eq!(Fingerprint128::new().finish(), fingerprint128(b""));
    }

    #[test]
    fn cache_memoises_and_counts() {
        let _guard = switch_lock();
        set_enabled(true);
        let cache: ShardedCache<u64, u64> = ShardedCache::new(4, 16);
        let computed = AtomicUsize::new(0);
        let compute = |v: u64| {
            computed.fetch_add(1, Ordering::Relaxed);
            v * 2
        };
        assert_eq!(cache.get_or_insert_with(7, || compute(7)), 14);
        assert_eq!(cache.get_or_insert_with(7, || compute(7)), 14);
        assert_eq!(computed.load(Ordering::Relaxed), 1);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn shard_clears_when_full_but_stays_correct() {
        let _guard = switch_lock();
        set_enabled(true);
        let cache: ShardedCache<u64, u64> = ShardedCache::new(1, 4);
        for key in 0..64 {
            assert_eq!(cache.get_or_insert_with(key, || key + 1), key + 1);
        }
        assert!(cache.stats().entries <= 4);
        // Capacity clears are no longer silent: every dropped entry counts.
        let stats = cache.stats();
        assert!(stats.evictions > 0, "{stats:?}");
        assert_eq!(stats.evictions % 4, 0, "whole shards of 4 drop at once: {stats:?}");
        // Evicted keys recompute to the same value.
        assert_eq!(cache.get_or_insert_with(0, || 1), 1);
    }

    #[test]
    fn racing_duplicate_miss_does_not_clear_a_full_shard() {
        // Regression: two threads miss on the same key concurrently; the
        // loser reaches the insert path with the shard now at capacity and
        // its key already resident. It must NOT clear the shard (wiping
        // the winner's fresh insertion) — the fix checks key residency
        // before applying capacity pressure.
        let _guard = switch_lock();
        set_enabled(true);
        let cache: ShardedCache<u64, u64> = ShardedCache::new(1, 4);
        for key in 0..3 {
            cache.get_or_insert_with(key, || key);
        }
        // Both racers must pass the hit check before either inserts: the
        // barrier inside `compute` only opens once both have missed.
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    cache.get_or_insert_with(3, || {
                        barrier.wait();
                        33
                    });
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.entries, 4, "the racing clear wiped the shard: {stats:?}");
        assert_eq!(stats.evictions, 0, "no eviction should be recorded: {stats:?}");
        assert_eq!(stats.misses, 5, "both racers count a real miss: {stats:?}");
        for key in 0..3 {
            assert_eq!(cache.get(&key), Some(key), "hot entry survived");
        }
        // A genuinely new key at capacity does clear, and counts it.
        cache.get_or_insert_with(99, || 99);
        let stats = cache.stats();
        assert_eq!(stats.evictions, 4, "{stats:?}");
        assert_eq!(stats.entries, 1, "{stats:?}");
    }

    #[test]
    fn disabled_cache_computes_every_time() {
        let _guard = switch_lock();
        set_enabled(false);
        let cache: ShardedCache<u64, u64> = ShardedCache::new(4, 16);
        let computed = AtomicUsize::new(0);
        for _ in 0..3 {
            cache.get_or_insert_with(1, || {
                computed.fetch_add(1, Ordering::Relaxed);
                2
            });
        }
        assert_eq!(computed.load(Ordering::Relaxed), 3);
        assert_eq!(cache.stats().entries, 0);
        assert_eq!(cache.get(&1), None);
        // Regression: kill-switch traffic is `bypassed`, not `misses` — a
        // disabled run must not masquerade as 100% cold-cache behaviour.
        let stats = cache.stats();
        assert_eq!(stats.misses, 0, "{stats:?}");
        assert_eq!(stats.hits, 0, "{stats:?}");
        assert_eq!(stats.bypassed, 4, "3 inserts + 1 get: {stats:?}");
        assert_eq!(stats.hit_rate(), 0.0);
        set_enabled(true);
        // Re-enabled: the same cache resumes memoising.
        cache.get_or_insert_with(1, || 2);
        assert_eq!(cache.get(&1), Some(2));
    }

    #[test]
    fn concurrent_hammering_is_consistent() {
        let cache: ShardedCache<u64, u64> = ShardedCache::new(8, 128);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for round in 0..1_000u64 {
                        let key = round % 97;
                        assert_eq!(
                            cache.get_or_insert_with(key, || key.wrapping_mul(31)),
                            key.wrapping_mul(31)
                        );
                    }
                });
            }
        });
        assert!(cache.stats().entries <= 97);
    }

    #[test]
    fn clear_empties_all_shards() {
        let cache: ShardedCache<u64, u64> = ShardedCache::new(4, 16);
        for key in 0..10 {
            cache.get_or_insert_with(key, || key);
        }
        cache.clear();
        assert_eq!(cache.stats().entries, 0);
    }
}
