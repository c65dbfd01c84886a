//! The shared, concurrent profile cache (paper §III-C, §III-F).
//!
//! The paper's headline sweep cost — the full `(t, d, p, m)` space in
//! under 200 s — rests on profiling each *necessary operator* once and
//! reusing it across every configuration that shares the signature. This
//! cache is that reuse made explicit: a sharded concurrent map from
//! `(GpuKey, OpSignature)` to the profiled task list, shared by every
//! worker thread of a sweep. Kernel decomposition and latency evaluation
//! run once per unique signature per GPU, not once per plan.

use std::collections::HashMap;
use std::fmt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};

use serde::{Deserialize, Serialize};
use vtrain_graph::OpSignature;
use vtrain_parallel::GpuSpec;

use crate::decompose::canonical;
use crate::profiler::Profiler;
use crate::table::OpProfile;

/// Stable hashable identity of a [`GpuSpec`] (the spec itself holds `f64`
/// fields and cannot be a map key). Two specs with identical performance
/// envelopes produce identical keys — and identical profiles.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct GpuKey {
    name: String,
    peak_fp16_flops: u64,
    memory_bandwidth: u64,
    memory_bytes: u64,
    sm_count: usize,
    launch_overhead_ns: u64,
}

impl GpuKey {
    /// Derives the cache key of a GPU spec (floats keyed bit-exactly).
    ///
    /// The exhaustive destructuring is deliberate: if [`GpuSpec`] grows a
    /// field, this stops compiling until the key (or the destructuring)
    /// accounts for it — two GPUs differing in a performance-relevant
    /// field must never share cached profiles.
    pub fn of(gpu: &GpuSpec) -> Self {
        let GpuSpec {
            name,
            peak_fp16_flops,
            memory_bandwidth,
            memory,
            sm_count,
            kernel_launch_overhead,
        } = gpu;
        GpuKey {
            name: name.clone(),
            peak_fp16_flops: peak_fp16_flops.to_bits(),
            memory_bandwidth: memory_bandwidth.to_bits(),
            memory_bytes: memory.as_u64(),
            sm_count: *sm_count,
            launch_overhead_ns: kernel_launch_overhead.as_nanos(),
        }
    }
}

/// Hit/miss counters of a [`ProfileCache`] (monotonic over its lifetime).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to run the profiler.
    pub misses: u64,
}

impl CacheStats {
    /// Fraction of lookups served from the cache (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Counter difference `self − earlier` (for per-sweep attribution).
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
        }
    }
}

const SHARDS: usize = 16;

/// First token of a snapshot header line.
const SNAPSHOT_MAGIC: &str = "vtrain-profile-snapshot";

/// Snapshot format version; bumped on any encoding change so an old
/// binary never misreads a new snapshot (or vice versa) — it cold-starts
/// instead.
pub const SNAPSHOT_VERSION: u64 = 1;

/// Why a snapshot could not be saved or restored.
///
/// Restore failures are *expected* operational events (a crash mid-write
/// upgrade, a disk hiccup): callers log them and cold-start. None of them
/// leave the cache partially modified.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// The snapshot file could not be read, written, or renamed.
    Io(String),
    /// The document is truncated, checksum-failed, or unparseable.
    Corrupt(String),
    /// The header's format version is not [`SNAPSHOT_VERSION`].
    Version {
        /// The version the header claims.
        found: u64,
    },
}

impl SnapshotError {
    fn corrupt(msg: impl Into<String>) -> SnapshotError {
        SnapshotError::Corrupt(msg.into())
    }
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(msg) => write!(f, "snapshot I/O failure: {msg}"),
            SnapshotError::Corrupt(msg) => write!(f, "corrupt snapshot: {msg}"),
            SnapshotError::Version { found } => write!(
                f,
                "snapshot version mismatch: found v{found}, this build reads v{SNAPSHOT_VERSION}"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// One snapshot entry: the full cache key plus the profiled task list.
#[derive(Serialize, Deserialize)]
struct SnapshotRecord {
    gpu: GpuKey,
    sig: OpSignature,
    profile: OpProfile,
}

/// FNV-1a over `bytes` — the same stable, dependency-free digest the
/// workspace uses for golden-trace and stable-key checksums.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Parses `prefix=<u64>` from an optional header field.
fn field_value(field: Option<&str>, prefix: &str) -> Option<u64> {
    field.and_then(|f| f.strip_prefix(prefix)).and_then(|v| v.parse().ok())
}

/// One cached profile plus its last-touched stamp (a tick of the cache's
/// global access epoch, updated on every hit while a capacity is set —
/// the recency the LRU eviction policy orders by).
#[derive(Debug)]
struct Entry {
    profile: Arc<OpProfile>,
    stamp: AtomicU64,
}

/// One shard of the cache: GPU → (canonical signature → entry).
/// Two-level so lookups borrow the [`GpuKey`] instead of cloning it.
type Shard = RwLock<HashMap<GpuKey, HashMap<OpSignature, Entry>>>;

/// A concurrent, sharded map from `(GpuKey, OpSignature)` to profiled
/// task lists, shared across the threads of a design-space sweep.
///
/// Reads take a shard read-lock; a miss profiles *outside* any lock and
/// inserts under the shard write-lock (first writer wins, so handed-out
/// [`Arc`]s always alias the stored profile). Profiling is deterministic,
/// so racing writers compute identical values and the race is benign.
///
/// A cache built [`with_capacity`](ProfileCache::with_capacity) evicts
/// its least-recently-used entry once inserts push it past the bound —
/// the policy a long-lived `vtrain serve` process needs to stay
/// size-bounded under unbounded tenant diversity. Eviction never changes
/// results: an evicted signature is simply re-profiled (deterministically)
/// on its next use, so a capacity-1 cache produces bit-identical sweeps,
/// only slower.
#[derive(Debug, Default)]
pub struct ProfileCache {
    shards: [Shard; SHARDS],
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    /// Entries currently cached (maintained on insert/evict so the
    /// capacity check never scans the shards).
    entries: AtomicUsize,
    /// Monotonic access clock; each touch stamps its entry with the next
    /// tick. Only advanced while a capacity is set.
    epoch: AtomicU64,
    capacity: Option<usize>,
}

impl ProfileCache {
    /// Creates an empty, unbounded cache.
    pub fn new() -> Self {
        ProfileCache::default()
    }

    /// Creates an empty cache bounded to at most `capacity` distinct
    /// profiles (at least 1): once an insert exceeds the bound, the
    /// least-recently-used entry — globally, across all shards — is
    /// evicted and tallied in [`evictions`](ProfileCache::evictions).
    ///
    /// Concurrent inserters can transiently overshoot the bound by at
    /// most the number of racing threads; each one then evicts back down
    /// before returning.
    pub fn with_capacity(capacity: usize) -> Self {
        ProfileCache { capacity: Some(capacity.max(1)), ..ProfileCache::default() }
    }

    /// The configured capacity bound; `None` for an unbounded cache.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Entries evicted over the cache's lifetime (always 0 without a
    /// capacity).
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    fn shard(&self, sig: &OpSignature) -> &Shard {
        // Spread by the fields that actually vary within one sweep; the
        // exact spread only affects contention, never results.
        let h = (sig.kind as usize)
            .wrapping_mul(31)
            .wrapping_add(sig.tensor)
            .wrapping_mul(31)
            .wrapping_add(sig.micro_batch)
            .wrapping_mul(31)
            .wrapping_add(sig.params as usize);
        &self.shards[h % SHARDS]
    }

    /// The profile of `sig` on `profiler`'s GPU, profiling on first use.
    ///
    /// Entries are keyed by the signature's [canonical]
    /// profiling identity, so signatures differing only in fields their
    /// decomposition never reads (e.g. the tensor degree of an embedding
    /// lookup) share one entry.
    pub fn get_or_profile(&self, profiler: &Profiler, sig: &OpSignature) -> Arc<OpProfile> {
        self.lookup(&GpuKey::of(profiler.gpu()), profiler, sig).0
    }

    /// [`ProfileCache::get_or_profile`] with a caller-derived [`GpuKey`]
    /// (skipping the per-lookup key derivation) and exact attribution:
    /// the lookup's hit or miss is *also* tallied into `local`, so a
    /// sweep worker can report precisely its own share of a cache it
    /// shares with concurrent users.
    pub fn get_with(
        &self,
        gpu: &GpuKey,
        profiler: &Profiler,
        sig: &OpSignature,
        local: &mut CacheStats,
    ) -> Arc<OpProfile> {
        let (profile, hit) = self.lookup(gpu, profiler, sig);
        if hit {
            local.hits += 1;
        } else {
            local.misses += 1;
        }
        profile
    }

    fn lookup(
        &self,
        gpu: &GpuKey,
        profiler: &Profiler,
        sig: &OpSignature,
    ) -> (Arc<OpProfile>, bool) {
        let sig = &canonical(sig);
        let shard = self.shard(sig);
        if let Some(hit) =
            shard.read().unwrap_or_else(|e| e.into_inner()).get(gpu).and_then(|m| m.get(sig))
        {
            self.hits.fetch_add(1, Ordering::Relaxed);
            if self.capacity.is_some() {
                // Recency stamp under the *read* lock: a relaxed store is
                // enough — a racing evictor observing the older stamp
                // merely evicts an entry that was LRU a moment ago.
                hit.stamp.store(self.epoch.fetch_add(1, Ordering::Relaxed), Ordering::Relaxed);
            }
            return (Arc::clone(&hit.profile), true);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let fresh = Arc::new(profiler.profile_operator(sig));
        let mut map = shard.write().unwrap_or_else(|e| e.into_inner());
        let mut inserted = false;
        let entry = map.entry(gpu.clone()).or_default().entry(*sig).or_insert_with(|| {
            inserted = true;
            Entry {
                profile: fresh,
                stamp: AtomicU64::new(self.epoch.fetch_add(1, Ordering::Relaxed)),
            }
        });
        let profile = Arc::clone(&entry.profile);
        drop(map);
        if inserted {
            self.entries.fetch_add(1, Ordering::Relaxed);
            self.evict_over_capacity();
        }
        (profile, false)
    }

    /// Evicts globally-least-recently-used entries until the cache is
    /// back within its capacity. The victim scan takes read locks only
    /// and is O(entries) — paid once per over-capacity insert, which
    /// already paid the (much larger) profiling cost.
    fn evict_over_capacity(&self) {
        let Some(cap) = self.capacity else { return };
        while self.entries.load(Ordering::Relaxed) > cap {
            let mut victim: Option<(usize, GpuKey, OpSignature, u64)> = None;
            for (si, shard) in self.shards.iter().enumerate() {
                let map = shard.read().unwrap_or_else(|e| e.into_inner());
                for (gpu, sigs) in map.iter() {
                    for (sig, entry) in sigs {
                        let stamp = entry.stamp.load(Ordering::Relaxed);
                        if victim.as_ref().is_none_or(|v| stamp < v.3) {
                            victim = Some((si, gpu.clone(), *sig, stamp));
                        }
                    }
                }
            }
            let Some((si, gpu, sig, _)) = victim else { return };
            let mut map = self.shards[si].write().unwrap_or_else(|e| e.into_inner());
            let removed = map.get_mut(&gpu).is_some_and(|m| m.remove(&sig).is_some());
            if removed && map.get(&gpu).is_some_and(HashMap::is_empty) {
                map.remove(&gpu);
            }
            drop(map);
            if removed {
                self.entries.fetch_sub(1, Ordering::Relaxed);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
            // A racing evictor may have removed the victim first; its
            // decrement re-drives the loop condition either way.
        }
    }

    /// Distinct profiles currently cached.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.read()
                    .unwrap_or_else(|e| e.into_inner())
                    .values()
                    .map(HashMap::len)
                    .sum::<usize>()
            })
            .sum()
    }

    /// True if nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Inserts an already-profiled entry (the snapshot restore path),
    /// keyed by the signature's canonical profiling identity. Returns
    /// `true` if the entry was new; an existing entry wins (the running
    /// cache's profile and the snapshot's are bit-identical anyway —
    /// profiling is deterministic).
    fn insert_profile(&self, gpu: GpuKey, sig: &OpSignature, profile: Arc<OpProfile>) -> bool {
        let sig = canonical(sig);
        let shard = self.shard(&sig);
        let mut map = shard.write().unwrap_or_else(|e| e.into_inner());
        let mut inserted = false;
        map.entry(gpu).or_default().entry(sig).or_insert_with(|| {
            inserted = true;
            Entry { profile, stamp: AtomicU64::new(self.epoch.fetch_add(1, Ordering::Relaxed)) }
        });
        drop(map);
        if inserted {
            self.entries.fetch_add(1, Ordering::Relaxed);
            self.evict_over_capacity();
        }
        inserted
    }

    /// Encodes every cached profile as one deterministic snapshot
    /// document: a versioned, checksummed header line followed by one
    /// key-sorted JSON record per entry (records sorted bytewise, so two
    /// caches holding the same entries encode byte-identically regardless
    /// of insertion or shard order).
    ///
    /// The format is `vtrain-profile-snapshot v<N> entries=<n>
    /// checksum=<fnv1a64 hex of the body>`; [`ProfileCache::decode_snapshot`]
    /// (ProfileCache::decode_snapshot) verifies all three fields before
    /// touching the cache, so a truncated or corrupted snapshot is
    /// rejected whole — never partially applied.
    pub fn encode_snapshot(&self) -> String {
        let mut records: Vec<String> = Vec::new();
        for shard in &self.shards {
            let map = shard.read().unwrap_or_else(|e| e.into_inner());
            for (gpu, sigs) in map.iter() {
                for (sig, entry) in sigs {
                    let record = SnapshotRecord {
                        gpu: gpu.clone(),
                        sig: *sig,
                        profile: (*entry.profile).clone(),
                    };
                    records.push(
                        serde_json::to_string(&record)
                            .expect("snapshot records serialize infallibly"),
                    );
                }
            }
        }
        records.sort_unstable();
        let mut body = String::new();
        for r in &records {
            body.push_str(r);
            body.push('\n');
        }
        format!(
            "{SNAPSHOT_MAGIC} v{SNAPSHOT_VERSION} entries={} checksum={:016x}\n{body}",
            records.len(),
            fnv1a64(body.as_bytes()),
        )
    }

    /// Decodes `text` (an [`encode_snapshot`](ProfileCache::encode_snapshot)
    /// document) and inserts its entries, returning how many were new.
    ///
    /// Validation is all-or-nothing: the header's magic, version, entry
    /// count, and body checksum are verified — and every record parsed —
    /// *before* anything is inserted, so a failing snapshot leaves the
    /// cache exactly as it was.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Version`] for a version-mismatched header,
    /// [`SnapshotError::Corrupt`] for anything truncated, checksum-failed,
    /// or unparseable.
    pub fn decode_snapshot(&self, text: &str) -> Result<usize, SnapshotError> {
        let (header, body) =
            text.split_once('\n').ok_or_else(|| SnapshotError::corrupt("missing header line"))?;
        let mut fields = header.split(' ');
        if fields.next() != Some(SNAPSHOT_MAGIC) {
            return Err(SnapshotError::corrupt("bad magic (not a vtrain profile snapshot)"));
        }
        let version = fields
            .next()
            .and_then(|f| f.strip_prefix('v'))
            .and_then(|v| v.parse::<u64>().ok())
            .ok_or_else(|| SnapshotError::corrupt("unparseable version field"))?;
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::Version { found: version });
        }
        let entries = field_value(fields.next(), "entries=")
            .ok_or_else(|| SnapshotError::corrupt("unparseable entries field"))?;
        let checksum = fields
            .next()
            .and_then(|f| f.strip_prefix("checksum="))
            .and_then(|v| u64::from_str_radix(v, 16).ok())
            .ok_or_else(|| SnapshotError::corrupt("unparseable checksum field"))?;
        if fnv1a64(body.as_bytes()) != checksum {
            return Err(SnapshotError::corrupt("body checksum mismatch"));
        }
        let records: Vec<SnapshotRecord> = body
            .lines()
            .map(|line| {
                serde_json::from_str(line)
                    .map_err(|e| SnapshotError::corrupt(format!("unparseable record: {e}")))
            })
            .collect::<Result<_, _>>()?;
        if records.len() as u64 != entries {
            return Err(SnapshotError::corrupt(format!(
                "header promises {entries} entries, body holds {}",
                records.len()
            )));
        }
        let mut inserted = 0;
        for record in records {
            if self.insert_profile(record.gpu, &record.sig, Arc::new(record.profile)) {
                inserted += 1;
            }
        }
        Ok(inserted)
    }

    /// Persists the cache crash-safely: the snapshot is written to a
    /// sibling temporary file and atomically renamed over `path`, so a
    /// crash mid-write leaves either the previous snapshot or none —
    /// never a torn one.
    ///
    /// Returns the number of entries written.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] if the temporary file cannot be written or
    /// renamed.
    pub fn save_snapshot(&self, path: &Path) -> Result<usize, SnapshotError> {
        let text = self.encode_snapshot();
        let entries = self.len();
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(format!(".{}.tmp", std::process::id()));
        let tmp = std::path::PathBuf::from(tmp);
        std::fs::write(&tmp, &text)
            .map_err(|e| SnapshotError::Io(format!("cannot write {}: {e}", tmp.display())))?;
        std::fs::rename(&tmp, path).map_err(|e| {
            let _ = std::fs::remove_file(&tmp);
            SnapshotError::Io(format!(
                "cannot rename {} over {}: {e}",
                tmp.display(),
                path.display()
            ))
        })?;
        Ok(entries)
    }

    /// Restores a [`save_snapshot`](ProfileCache::save_snapshot) file
    /// into this cache, returning how many entries were loaded.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] if the file cannot be read, plus everything
    /// [`decode_snapshot`](ProfileCache::decode_snapshot) rejects. The
    /// cache is untouched on any failure — callers treat that as a cold
    /// start, never a crash.
    pub fn load_snapshot(&self, path: &Path) -> Result<usize, SnapshotError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| SnapshotError::Io(format!("cannot read {}: {e}", path.display())))?;
        self.decode_snapshot(&text)
    }

    /// Publishes this cache's lifetime counters into the global
    /// [`vtrain_obs`] metrics registry (`profile_cache.hits` /
    /// `.misses` / `.evictions` counters, `profile_cache.entries`
    /// gauge). No-op while observability is disabled.
    ///
    /// Registry counters are raised to the lifetime totals (a delta
    /// against the last published value), so one cache publishing
    /// repeatedly — e.g. once per sweep — never double-counts.
    pub fn publish_metrics(&self) {
        if !vtrain_obs::enabled() {
            return;
        }
        let reg = vtrain_obs::global();
        let stats = self.stats();
        let hits = reg.counter("profile_cache.hits");
        hits.add(stats.hits.saturating_sub(hits.get()));
        let misses = reg.counter("profile_cache.misses");
        misses.add(stats.misses.saturating_sub(misses.get()));
        let evictions = reg.counter("profile_cache.evictions");
        evictions.add(self.evictions().saturating_sub(evictions.get()));
        reg.gauge("profile_cache.entries").set(self.len() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vtrain_graph::CompKind;
    use vtrain_model::TimeNs;

    fn sig(micro_batch: usize) -> OpSignature {
        OpSignature {
            kind: CompKind::MhaFwd,
            hidden: 2048,
            heads: 16,
            seq: 1024,
            micro_batch,
            tensor: 2,
            ffn_expansion: 4,
            vocab: 0,
            params: 0,
            recompute: false,
        }
    }

    #[test]
    fn second_lookup_hits_and_aliases() {
        let cache = ProfileCache::new();
        let profiler = Profiler::new(GpuSpec::a100_40gb());
        let a = cache.get_or_profile(&profiler, &sig(1));
        let b = cache.get_or_profile(&profiler, &sig(1));
        assert!(Arc::ptr_eq(&a, &b), "hits must alias the cached profile");
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn cached_profile_is_bit_identical_to_direct_profiling() {
        let cache = ProfileCache::new();
        let profiler = Profiler::new(GpuSpec::a100_40gb());
        for m in [1, 2, 4] {
            let cached = cache.get_or_profile(&profiler, &sig(m));
            let direct = profiler.profile_operator(&sig(m));
            assert_eq!(*cached, direct);
        }
    }

    #[test]
    fn distinct_gpus_do_not_share_entries() {
        let cache = ProfileCache::new();
        let a40 = Profiler::new(GpuSpec::a100_40gb());
        let a80 = Profiler::new(GpuSpec::a100_80gb());
        let p40 = cache.get_or_profile(&a40, &sig(1));
        let p80 = cache.get_or_profile(&a80, &sig(1));
        assert_eq!(cache.len(), 2);
        // 80 GB parts have higher HBM bandwidth ⇒ faster bandwidth-bound
        // kernels; the entries must be independent.
        assert!(p80.total() <= p40.total());
        assert_eq!(cache.stats().hits, 0);
    }

    #[test]
    fn concurrent_lookups_agree() {
        let cache = Arc::new(ProfileCache::new());
        let profiler = Profiler::new(GpuSpec::a100_40gb());
        let totals: Vec<TimeNs> = std::thread::scope(|scope| {
            (0..8)
                .map(|_| {
                    let cache = Arc::clone(&cache);
                    let profiler = profiler.clone();
                    scope.spawn(move || cache.get_or_profile(&profiler, &sig(2)).total())
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().expect("worker"))
                .collect()
        });
        assert!(totals.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(cache.len(), 1);
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 8);
        assert!((0.0..=1.0).contains(&stats.hit_rate()));
    }

    #[test]
    fn capacity_bound_evicts_least_recently_used() {
        let cache = ProfileCache::with_capacity(2);
        let profiler = Profiler::new(GpuSpec::a100_40gb());
        let a = cache.get_or_profile(&profiler, &sig(1));
        let _b = cache.get_or_profile(&profiler, &sig(2));
        // Touch `a` so `b` is the LRU victim when `c` arrives.
        let a2 = cache.get_or_profile(&profiler, &sig(1));
        assert!(Arc::ptr_eq(&a, &a2));
        let _c = cache.get_or_profile(&profiler, &sig(4));
        assert_eq!(cache.len(), 2, "capacity bound holds");
        assert_eq!(cache.evictions(), 1);
        // `a` survived (recently used): looking it up again hits...
        let hits_before = cache.stats().hits;
        let a3 = cache.get_or_profile(&profiler, &sig(1));
        assert!(Arc::ptr_eq(&a, &a3));
        assert_eq!(cache.stats().hits, hits_before + 1);
        // ...while `b` was evicted and must re-profile (a miss).
        let misses_before = cache.stats().misses;
        let _b2 = cache.get_or_profile(&profiler, &sig(2));
        assert_eq!(cache.stats().misses, misses_before + 1);
        assert_eq!(cache.evictions(), 2, "refilling a full cache evicts again");
    }

    #[test]
    fn capacity_one_still_serves_identical_profiles() {
        let bounded = ProfileCache::with_capacity(1);
        let unbounded = ProfileCache::new();
        let profiler = Profiler::new(GpuSpec::a100_40gb());
        // Alternate signatures so every lookup on the bounded cache
        // misses; results must still be bit-identical to the unbounded
        // cache's.
        for _ in 0..3 {
            for m in [1, 2, 4] {
                let b = bounded.get_or_profile(&profiler, &sig(m));
                let u = unbounded.get_or_profile(&profiler, &sig(m));
                assert_eq!(*b, *u);
            }
        }
        assert_eq!(bounded.len(), 1);
        assert!(bounded.evictions() >= 6, "thrashing cache evicts per insert");
        assert_eq!(unbounded.evictions(), 0);
        assert_eq!(unbounded.capacity(), None);
        assert_eq!(bounded.capacity(), Some(1));
    }

    #[test]
    fn concurrent_bounded_lookups_stay_within_capacity() {
        let cache = Arc::new(ProfileCache::with_capacity(2));
        let profiler = Profiler::new(GpuSpec::a100_40gb());
        std::thread::scope(|scope| {
            for w in 0..4 {
                let cache = Arc::clone(&cache);
                let profiler = profiler.clone();
                scope.spawn(move || {
                    for round in 0..8 {
                        let m = 1 << ((w + round) % 4);
                        let p = cache.get_or_profile(&profiler, &sig(m));
                        assert_eq!(*p, profiler.profile_operator(&sig(m)));
                    }
                });
            }
        });
        assert!(cache.len() <= 2, "settles within capacity, got {}", cache.len());
    }

    #[test]
    fn snapshot_round_trips_bit_identically() {
        let cache = ProfileCache::new();
        let profiler = Profiler::new(GpuSpec::a100_40gb());
        for m in [1, 2, 4] {
            cache.get_or_profile(&profiler, &sig(m));
        }
        let text = cache.encode_snapshot();
        let restored = ProfileCache::new();
        assert_eq!(restored.decode_snapshot(&text).expect("valid snapshot decodes"), 3);
        assert_eq!(restored.len(), 3);
        // Restored entries serve hits with profiles bit-identical to the
        // originals — and re-encoding is byte-identical (deterministic
        // sorted encoding).
        for m in [1, 2, 4] {
            assert_eq!(
                *restored.get_or_profile(&profiler, &sig(m)),
                *cache.get_or_profile(&profiler, &sig(m))
            );
        }
        assert_eq!(restored.stats().misses, 0, "every restored lookup hits");
        assert_eq!(restored.encode_snapshot(), text);
    }

    #[test]
    fn snapshot_rejects_corruption_without_mutating() {
        let cache = ProfileCache::new();
        let profiler = Profiler::new(GpuSpec::a100_40gb());
        cache.get_or_profile(&profiler, &sig(1));
        let text = cache.encode_snapshot();

        let fresh = ProfileCache::new();
        // Truncated mid-body: checksum (or count) mismatch.
        let truncated = &text[..text.len() - 7];
        assert!(matches!(fresh.decode_snapshot(truncated), Err(SnapshotError::Corrupt(_))));
        // One flipped body byte: checksum mismatch.
        let mut flipped = text.clone().into_bytes();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x01;
        let flipped = String::from_utf8(flipped).expect("ascii json stays utf-8");
        assert!(fresh.decode_snapshot(&flipped).is_err());
        // Future version: explicit mismatch, not a parse failure.
        let future = text.replacen(" v1 ", " v999 ", 1);
        assert_eq!(fresh.decode_snapshot(&future), Err(SnapshotError::Version { found: 999 }));
        // Not a snapshot at all.
        assert!(fresh.decode_snapshot("hello\nworld\n").is_err());
        assert!(fresh.decode_snapshot("").is_err());
        assert_eq!(fresh.len(), 0, "failed decodes never partially apply");
    }

    #[test]
    fn snapshot_save_and_load_via_tmp_rename() {
        let cache = ProfileCache::new();
        let profiler = Profiler::new(GpuSpec::a100_40gb());
        cache.get_or_profile(&profiler, &sig(2));
        let path = std::env::temp_dir()
            .join(format!("vtrain-cache-snapshot-test-{}.snap", std::process::id()));
        assert_eq!(cache.save_snapshot(&path).expect("save succeeds"), 1);
        let restored = ProfileCache::new();
        assert_eq!(restored.load_snapshot(&path).expect("load succeeds"), 1);
        assert_eq!(restored.len(), 1);
        // A second save atomically replaces the first.
        cache.get_or_profile(&profiler, &sig(4));
        assert_eq!(cache.save_snapshot(&path).expect("re-save succeeds"), 2);
        let again = ProfileCache::new();
        assert_eq!(again.load_snapshot(&path).expect("reload succeeds"), 2);
        std::fs::remove_file(&path).expect("cleanup");
        assert!(matches!(again.load_snapshot(&path), Err(SnapshotError::Io(_))));
    }

    #[test]
    fn snapshot_restore_respects_capacity() {
        let cache = ProfileCache::new();
        let profiler = Profiler::new(GpuSpec::a100_40gb());
        for m in [1, 2, 4] {
            cache.get_or_profile(&profiler, &sig(m));
        }
        let bounded = ProfileCache::with_capacity(2);
        bounded.decode_snapshot(&cache.encode_snapshot()).expect("decode into bounded cache");
        assert!(bounded.len() <= 2, "restore evicts down to capacity");
        assert!(bounded.evictions() >= 1);
    }

    #[test]
    fn stats_since_subtracts() {
        let a = CacheStats { hits: 10, misses: 4 };
        let b = CacheStats { hits: 25, misses: 5 };
        assert_eq!(b.since(&a), CacheStats { hits: 15, misses: 1 });
        assert!((b.since(&a).hit_rate() - 15.0 / 16.0).abs() < 1e-12);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }
}
