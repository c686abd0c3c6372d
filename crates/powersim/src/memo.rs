//! Shared, thread-safe memoisation of region simulations.
//!
//! The simulator is deterministic: one (region, trip count, configuration,
//! power cap, frequency limit) tuple always produces the same
//! [`SimReport`]. A [`SharedSimCache`] exploits that across *executors*:
//! concurrent sweep cells (same machine, different caps/strategies/
//! workloads) share one cache, so a configuration priced by one cell is
//! free for every other cell that touches it.
//!
//! The cap and limit reach a report only through the team's frequency
//! ([`Machine::team_frequency`]), so executors look cells up at the
//! canonical pair [`Machine::operating_point`] names for them rather
//! than at the raw cap: every cap that clamps a team to `f_base` (or to
//! `f_min`) is one cell, simulated once. Likewise the schedule reaches a
//! report only through its chunk stream, chunk count and dispatch class,
//! so executors key it by [`Schedule::canonical`]: `dynamic,128` and
//! `dynamic,256` on a 100-iteration loop are one cell. The cache itself
//! keys whatever configuration and pair it is handed, by value and bits.
//!
//! [`Machine::team_frequency`]: crate::Machine::team_frequency
//! [`Machine::operating_point`]: crate::Machine::operating_point
//! [`Schedule::canonical`]: arcs_omprt::Schedule::canonical
//!
//! ## Key layout
//!
//! Region names are interned once per executor bind into integer
//! [`RegionId`]s by the cache's [`RegionInterner`]; the cell key is a flat
//! `CellKey` of machine words (id, trip count, config, cap bits, freq
//! bits) hashed with an Fx-style multiply hash — no string hashing and no
//! two-level map walk on the hot path.
//!
//! ## Read path
//!
//! Each of the 16 shards is one locked map: a lookup probes its key's
//! shard under the lock. That is enough because most repeats never get
//! here — an executor answers a repeat of the cell a region priced last
//! from its own copy of the report — and sweeps and the broker probe
//! from one thread, so the lock is uncontended.
//!
//! Values are computed *outside* the shard lock — two racing threads may
//! both simulate the same tuple, but the simulator is deterministic so
//! whichever insert lands is correct. The loser returns the winner's
//! `Arc` and its lookup counts as a hit, so the miss counter equals the
//! number of distinct cells resolved regardless of interleaving.

use crate::exec::{SimConfig, SimReport};
use crate::workload::{ImbalanceProfile, RegionModel, WeightTable};
use arcs_trace::{TraceEvent, TraceSink};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

const SHARDS: usize = 16;

/// Multiply-rotate hasher (the Firefox/rustc "Fx" construction) for the
/// integer-word `CellKey`. Not DoS-resistant — keys are simulator
/// configurations, not attacker input — and several times faster than
/// SipHash on short fixed-width keys.
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.add(i as u64);
        self.add((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }
}

/// `BuildHasher` for [`FxHasher`]-keyed maps.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// An interned region name: a dense integer id, valid for the
/// [`RegionInterner`] (and therefore the [`SharedSimCache`]) that issued
/// it. Executors resolve a name to its id once per cache bind and key
/// every subsequent lookup by the id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegionId(u32);

impl RegionId {
    /// The dense index backing this id.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

#[derive(Default)]
struct InternerInner {
    ids: HashMap<Arc<str>, u32>,
    names: Vec<Arc<str>>,
}

/// Name → dense-id interning table, one per cache. Interning is a cold
/// path (once per region per executor bind); lookups by id never touch
/// the table.
#[derive(Default)]
pub struct RegionInterner {
    inner: Mutex<InternerInner>,
}

impl RegionInterner {
    /// Id for `name`, allocating one on first sight.
    pub fn intern(&self, name: &str) -> RegionId {
        let mut inner = self.inner.lock();
        if let Some(&id) = inner.ids.get(name) {
            return RegionId(id);
        }
        let id = u32::try_from(inner.names.len()).expect("more than 2^32 region names");
        let shared: Arc<str> = Arc::from(name);
        inner.names.push(Arc::clone(&shared));
        inner.ids.insert(shared, id);
        RegionId(id)
    }

    /// The name behind `id`, if this interner issued it.
    pub fn resolve(&self, id: RegionId) -> Option<Arc<str>> {
        self.inner.lock().names.get(id.index()).cloned()
    }

    /// Number of distinct names interned so far.
    pub fn len(&self) -> usize {
        self.inner.lock().names.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A cache refused to bind to an executor because it belongs to a
/// different machine model. Reports are machine-dependent and the machine
/// is not part of the cache key, so sharing across models would serve
/// wrong results silently.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheBindError {
    /// Machine the cache was created for.
    pub cache_machine: String,
    /// Machine the executor models.
    pub machine: String,
}

impl std::fmt::Display for CacheBindError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "shared cache belongs to a different machine model: cache is for `{}`, executor models `{}`",
            self.cache_machine, self.machine
        )
    }
}

impl std::error::Error for CacheBindError {}

/// Sentinel for "no DVFS frequency limit": an all-ones NaN pattern no
/// real limit's `f64::to_bits` can produce, so frequency-free lookups and
/// explicit `None` limits share one cell.
const NO_FREQ_BITS: u64 = u64::MAX;

/// Everything that feeds the simulator, flattened to machine words:
/// (region id, trip count, configuration, power-cap bits, frequency-limit
/// bits). The cap and the optional DVFS limit are keyed by bit pattern —
/// executors pass the canonical operating point
/// ([`crate::Machine::operating_point`]), whose caps are `+∞`, `0` or a
/// cap from a small fixed set, never the result of arithmetic — and the
/// configuration's schedule is the canonical representative of its chunk
/// stream (`Schedule::canonical`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct CellKey {
    region: RegionId,
    iterations: usize,
    cfg: SimConfig,
    cap_bits: u64,
    freq_bits: u64,
}

impl CellKey {
    #[inline]
    fn new(
        region: RegionId,
        iterations: usize,
        cfg: SimConfig,
        cap_w: f64,
        freq_limit_ghz: Option<f64>,
    ) -> Self {
        let freq_bits = match freq_limit_ghz {
            Some(f) => {
                let bits = f.to_bits();
                debug_assert_ne!(bits, NO_FREQ_BITS, "NaN frequency limit");
                bits
            }
            None => NO_FREQ_BITS,
        };
        CellKey { region, iterations, cfg, cap_bits: cap_w.to_bits(), freq_bits }
    }

    #[inline]
    fn shard(&self) -> usize {
        let mut h = FxHasher::default();
        self.hash(&mut h);
        (h.finish() as usize) & (SHARDS - 1)
    }
}

type CellMap = HashMap<CellKey, Arc<SimReport>, FxBuildHasher>;

/// Hit/miss counters plus structural occupancy, all captured by
/// [`SharedSimCache::stats`] in one call. The counters are cumulative and
/// monotone (see [`CacheSnapshot::delta_since`]); `entries`,
/// `shard_occupancy` and `interner_size` describe the cache as of the
/// snapshot.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheSnapshot {
    pub hits: u64,
    pub misses: u64,
    /// Distinct cells resolved (sum of `shard_occupancy`).
    pub entries: usize,
    /// Cells per shard, in shard order.
    pub shard_occupancy: Vec<usize>,
    /// Distinct region names interned.
    pub interner_size: usize,
}

impl CacheSnapshot {
    /// Counters accumulated since an earlier snapshot; the structural
    /// fields (entries, occupancy, interner) stay at `self`'s values —
    /// they describe state, not flow.
    pub fn delta_since(&self, earlier: &CacheSnapshot) -> CacheSnapshot {
        CacheSnapshot {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            entries: self.entries,
            shard_occupancy: self.shard_occupancy.clone(),
            interner_size: self.interner_size,
        }
    }

    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hits per lookup in [0, 1]; 0 when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups() as f64
        }
    }
}

/// The handle [`SharedSimCache::get_or_insert_id`] takes: the tag of the
/// cache that made it, which the lookup checks in debug builds.
#[derive(Debug)]
pub struct CacheReader {
    tag: usize,
}

/// A sharded (region, config, cap) → report memo usable from many threads.
///
/// Invariant: one cache serves exactly one machine model — reports depend
/// on the machine, which is not part of the key. [`SharedSimCache::new`]
/// records the machine name and executors attaching the cache assert it.
pub struct SharedSimCache {
    machine: String,
    interner: RegionInterner,
    shards: Vec<Mutex<CellMap>>,
    /// Weight tables of the non-uniform regions priced so far; see
    /// [`SharedSimCache::weight_table`].
    tables: Mutex<Vec<Arc<WeightTable>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Optional event sink; set once, read with one atomic load per
    /// lookup (the hot path stays branch-and-load when unset).
    trace: OnceLock<Arc<dyn TraceSink>>,
}

impl SharedSimCache {
    pub fn new(machine: impl Into<String>) -> Self {
        SharedSimCache {
            machine: machine.into(),
            interner: RegionInterner::default(),
            shards: (0..SHARDS).map(|_| Mutex::default()).collect(),
            tables: Mutex::new(Vec::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            trace: OnceLock::new(),
        }
    }

    /// Name of the machine model this cache's reports belong to.
    pub fn machine(&self) -> &str {
        &self.machine
    }

    /// Is this cache usable by an executor modelling `machine`?
    pub fn check_machine(&self, machine: &str) -> Result<(), CacheBindError> {
        if self.machine == machine {
            Ok(())
        } else {
            Err(CacheBindError { cache_machine: self.machine.clone(), machine: machine.into() })
        }
    }

    /// This cache's name-interning table.
    pub fn interner(&self) -> &RegionInterner {
        &self.interner
    }

    /// Intern `name`, returning the id every id-keyed lookup uses.
    pub fn intern(&self, name: &str) -> RegionId {
        self.interner.intern(name)
    }

    /// The [`WeightTable`] of `region`, built by the first executor to ask
    /// and shared by every later one: the table depends on neither the
    /// configuration nor the cap, so all cells of a sweep and all quanta
    /// of a job price a region off one copy. Tables are found by value
    /// (imbalance profile and trip count), never by name, and a cache
    /// holds one per distinct non-uniform region model — a cold path,
    /// once per region per executor. Uniform regions need no array and
    /// get a fresh, empty table.
    pub fn weight_table(&self, region: &RegionModel) -> Arc<WeightTable> {
        if matches!(region.imbalance, ImbalanceProfile::Uniform) {
            return Arc::new(WeightTable::for_region(region));
        }
        // Built under the lock: cells of one workload start together and
        // ask for the same table, so the second waits instead of building
        // (and holding) a duplicate.
        let mut tables = self.tables.lock();
        if let Some(table) = tables.iter().find(|t| t.matches(region)) {
            return Arc::clone(table);
        }
        let table = Arc::new(WeightTable::for_region(region));
        tables.push(Arc::clone(&table));
        table
    }

    /// A handle for [`SharedSimCache::get_or_insert_id`] on this cache.
    pub fn reader(&self) -> CacheReader {
        CacheReader { tag: self as *const _ as usize }
    }

    /// Attach a [`TraceSink`] receiving [`TraceEvent::CacheHit`] /
    /// [`TraceEvent::CacheMiss`] per lookup. The sink can be set once per
    /// cache (it is shared by every executor bound to it); returns `false`
    /// if a sink was already attached.
    pub fn attach_trace(&self, sink: Arc<dyn TraceSink>) -> bool {
        self.trace.set(sink).is_ok()
    }

    #[inline]
    fn trace_lookup(&self, region: RegionId, hit: bool) {
        if let Some(sink) = self.trace.get() {
            self.record_lookup(sink, region, hit);
        }
    }

    /// `trace_lookup` with a sink attached: kept out of
    /// line, so the untraced hit path stays small.
    #[cold]
    fn record_lookup(&self, sink: &Arc<dyn TraceSink>, region: RegionId, hit: bool) {
        if !sink.enabled() {
            return;
        }
        let region = self
            .interner
            .resolve(region)
            .map(|n| n.to_string())
            .unwrap_or_else(|| format!("region#{}", region.index()));
        let event =
            if hit { TraceEvent::CacheHit { region } } else { TraceEvent::CacheMiss { region } };
        sink.record(None, event);
    }

    /// Count one hit on `region`: the counter and the `CacheHit` event.
    /// Lookups call it; so does an executor that answers a repeat of the
    /// cell its region priced last from its own copy of the report — the
    /// same counts as probing.
    #[inline]
    pub fn note_hit(&self, region: RegionId) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        self.trace_lookup(region, true);
    }

    #[inline]
    fn note_miss(&self, region: RegionId) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.trace_lookup(region, false);
    }

    /// Counters and occupancy in one [`CacheSnapshot`]. Takes each shard
    /// lock briefly — a cold path for reporting, not lookups.
    pub fn stats(&self) -> CacheSnapshot {
        let shard_occupancy: Vec<usize> = self.shards.iter().map(|s| s.lock().len()).collect();
        CacheSnapshot {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: shard_occupancy.iter().sum(),
            shard_occupancy,
            interner_size: self.interner.len(),
        }
    }

    /// The hot-path lookup, keyed by an interned [`RegionId`]: one probe
    /// of the key's shard under its lock. `compute` runs without any lock
    /// held.
    #[allow(clippy::too_many_arguments)]
    pub fn get_or_insert_id(
        &self,
        reader: &mut CacheReader,
        region: RegionId,
        iterations: usize,
        cfg: SimConfig,
        cap_w: f64,
        freq_limit_ghz: Option<f64>,
        compute: impl FnOnce() -> SimReport,
    ) -> Arc<SimReport> {
        debug_assert_eq!(
            reader.tag, self as *const _ as usize,
            "CacheReader used with a cache other than the one that created it"
        );
        let key = CellKey::new(region, iterations, cfg, cap_w, freq_limit_ghz);
        let shard = &self.shards[key.shard()];
        let found = shard.lock().get(&key).cloned();
        if let Some(rep) = found {
            self.note_hit(region);
            return rep;
        }

        // Genuine miss: simulate outside any lock, then publish. Keep the
        // first insert if another thread raced us here; both computed the
        // same deterministic report. Only the landing insert counts as a
        // miss — the loser returns the winner's `Arc`, so its lookup counts
        // as a (late) hit. This keeps the miss counter equal to the number
        // of distinct cells resolved, independent of thread interleaving:
        // parallel sweeps report the same misses as serial.
        let rep = Arc::new(compute());
        let mut map = shard.lock();
        if let Some(winner) = map.get(&key).cloned() {
            drop(map);
            self.note_hit(region);
            return winner;
        }
        map.insert(key, Arc::clone(&rep));
        drop(map);
        self.note_miss(region);
        rep
    }
}

impl std::fmt::Debug for SharedSimCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedSimCache")
            .field("machine", &self.machine)
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::simulate_region;
    use crate::machine::Machine;
    use crate::workload::{ImbalanceProfile, MemoryProfile, RegionModel, StrideClass};
    use arcs_omprt::Schedule;

    fn region(name: &str) -> RegionModel {
        RegionModel {
            name: name.into(),
            iterations: 256,
            cycles_per_iter: 10_000.0,
            imbalance: ImbalanceProfile::Uniform,
            memory: MemoryProfile {
                footprint_bytes: 1e6,
                accesses_per_iter: 100.0,
                stride: StrideClass::Medium,
                temporal_reuse: 0.4,
                hot_bytes_per_thread: 4096.0,
            },
            serial_s: 0.0,
            critical_s: 0.0,
        }
    }

    /// One lookup of `r` (by interned id, through `reader`), simulating on
    /// a miss.
    fn lookup(
        cache: &SharedSimCache,
        reader: &mut CacheReader,
        m: &Machine,
        r: &RegionModel,
        cfg: SimConfig,
        cap_w: f64,
    ) -> Arc<SimReport> {
        let id = cache.intern(&r.name);
        cache.get_or_insert_id(reader, id, r.iterations, cfg, cap_w, None, || {
            simulate_region(m, cap_w, r, cfg)
        })
    }

    fn counters(cache: &SharedSimCache) -> (u64, u64) {
        let s = cache.stats();
        (s.hits, s.misses)
    }

    #[test]
    fn second_lookup_hits() {
        let m = Machine::crill();
        let cache = SharedSimCache::new(&m.name);
        let r = region("a");
        let cfg = SimConfig { threads: 8, schedule: Schedule::static_block() };
        let mut reader = cache.reader();
        let first = lookup(&cache, &mut reader, &m, &r, cfg, 85.0);
        let id = cache.intern(&r.name);
        let second = cache.get_or_insert_id(&mut reader, id, r.iterations, cfg, 85.0, None, || {
            panic!("must not recompute")
        });
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(counters(&cache), (1, 1));
    }

    #[test]
    fn caps_and_trip_counts_key_separately() {
        let m = Machine::crill();
        let cache = SharedSimCache::new(&m.name);
        let r = region("a");
        let cfg = SimConfig { threads: 8, schedule: Schedule::static_block() };
        let mut reader = cache.reader();
        for cap in [55.0, 85.0] {
            lookup(&cache, &mut reader, &m, &r, cfg, cap);
        }
        let mut r2 = region("a");
        r2.iterations = 512;
        lookup(&cache, &mut reader, &m, &r2, cfg, 55.0);
        assert_eq!(counters(&cache), (0, 3));
    }

    #[test]
    fn concurrent_lookups_converge() {
        let m = Machine::crill();
        let cache = SharedSimCache::new(&m.name);
        let r = region("hot");
        let cfg = SimConfig { threads: 16, schedule: Schedule::dynamic(8) };
        let times: Vec<f64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| s.spawn(|| lookup(&cache, &mut cache.reader(), &m, &r, cfg, 70.0).time_s))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(times.windows(2).all(|w| w[0] == w[1]));
        let stats = cache.stats();
        assert_eq!(stats.lookups(), 8);
        assert!(stats.misses >= 1);
    }

    #[test]
    fn another_reader_is_served_the_original_arcs() {
        // Cells spread over every shard, inserted through one reader; a
        // second reader is served the very `Arc`s that landed.
        let m = Machine::crill();
        let cache = SharedSimCache::new(&m.name);
        let r = region("a");
        let id = cache.intern(&r.name);
        let mut reader = cache.reader();
        let mut firsts = Vec::new();
        for threads in 1..=32 {
            let cfg = SimConfig { threads, schedule: Schedule::static_block() };
            firsts.push(cache.get_or_insert_id(
                &mut reader,
                id,
                r.iterations,
                cfg,
                85.0,
                None,
                || simulate_region(&m, 85.0, &r, cfg),
            ));
        }
        let mut other = cache.reader();
        for (i, threads) in (1..=32).enumerate() {
            let cfg = SimConfig { threads, schedule: Schedule::static_block() };
            let again =
                cache.get_or_insert_id(&mut other, id, r.iterations, cfg, 85.0, None, || {
                    panic!("must not recompute")
                });
            assert!(Arc::ptr_eq(&firsts[i], &again));
        }
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (32, 32));
        assert_eq!(stats.entries, 32);
    }

    #[test]
    fn frequency_limits_key_separately_from_the_unlimited_cell() {
        use crate::exec::simulate_region_at_freq;
        let m = Machine::crill();
        let cache = SharedSimCache::new(&m.name);
        let r = region("a");
        let cfg = SimConfig { threads: 8, schedule: Schedule::static_block() };
        let mut reader = cache.reader();
        let id = cache.intern(&r.name);
        lookup(&cache, &mut reader, &m, &r, cfg, 85.0);
        cache.get_or_insert_id(&mut reader, id, r.iterations, cfg, 85.0, None, || {
            panic!("must not recompute")
        });
        // Each frequency limit is its own cell.
        cache.get_or_insert_id(&mut reader, id, r.iterations, cfg, 85.0, Some(2.1), || {
            simulate_region_at_freq(&m, 85.0, &r, cfg, Some(2.1))
        });
        assert_eq!(counters(&cache), (1, 2));
    }

    #[test]
    fn snapshot_delta_and_occupancy() {
        let a = CacheSnapshot { hits: 10, misses: 4, ..Default::default() };
        let b = CacheSnapshot {
            hits: 25,
            misses: 5,
            entries: 5,
            shard_occupancy: vec![5; 1],
            interner_size: 2,
        };
        let d = b.delta_since(&a);
        assert_eq!((d.hits, d.misses), (15, 1));
        assert_eq!(d.entries, 5, "structural fields report current state");
        assert_eq!(d.interner_size, 2);
        assert_eq!(d.lookups(), 16);

        let m = Machine::crill();
        let cache = SharedSimCache::new(&m.name);
        let r = region("occ");
        let mut reader = cache.reader();
        for threads in [4usize, 8, 16] {
            let cfg = SimConfig { threads, schedule: Schedule::static_block() };
            lookup(&cache, &mut reader, &m, &r, cfg, 85.0);
        }
        let s = cache.stats();
        assert_eq!(s.entries, 3);
        assert_eq!(s.shard_occupancy.iter().sum::<usize>(), 3);
        assert_eq!(s.interner_size, 1);
        assert!(s.hit_rate() == 0.0);
    }

    #[test]
    fn check_machine_returns_typed_error() {
        let cache = SharedSimCache::new("crill");
        assert_eq!(cache.check_machine("crill"), Ok(()));
        let err = cache.check_machine("minotaur").unwrap_err();
        assert_eq!(err.cache_machine, "crill");
        assert_eq!(err.machine, "minotaur");
        assert!(err.to_string().contains("different machine model"));
    }

    #[test]
    fn interner_is_stable_and_resolvable() {
        let cache = SharedSimCache::new("crill");
        let a = cache.intern("sp/x_solve");
        let b = cache.intern("sp/y_solve");
        assert_ne!(a, b);
        assert_eq!(cache.intern("sp/x_solve"), a, "interning is idempotent");
        assert_eq!(cache.interner().resolve(a).as_deref(), Some("sp/x_solve"));
        assert_eq!(cache.interner().resolve(RegionId(99)), None);
        assert_eq!(cache.interner().len(), 2);
    }

    #[test]
    fn lookups_emit_cache_events_once_a_sink_is_attached() {
        use arcs_trace::{TraceEvent, TraceSink, VecSink};

        let m = Machine::crill();
        let cache = SharedSimCache::new(&m.name);
        let sink = Arc::new(VecSink::new());
        assert!(cache.attach_trace(Arc::clone(&sink) as Arc<dyn TraceSink>));
        assert!(!cache.attach_trace(Arc::new(VecSink::new())), "sink is set once");

        let r = region("a");
        let cfg = SimConfig { threads: 8, schedule: Schedule::static_block() };
        let mut reader = cache.reader();
        for _ in 0..2 {
            lookup(&cache, &mut reader, &m, &r, cfg, 85.0);
        }
        let records = sink.drain();
        assert_eq!(records.len(), 2);
        assert!(matches!(&records[0].event, TraceEvent::CacheMiss { region } if region == "a"));
        assert!(matches!(&records[1].event, TraceEvent::CacheHit { region } if region == "a"));
    }
}
