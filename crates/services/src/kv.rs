//! A memcached-like key-value store with the Facebook ETC workload.
//!
//! §IV-B: *"we run a memcached instance with 10 worker threads pinned on a
//! single socket … We configure the workload generator to recreate the ETC
//! workload from Facebook"*.
//!
//! Two layers, deliberately separated:
//!
//! * [`KvStore`] — a real, functional sharded hash table. Requests
//!   actually `get`/`set` against it (hit/miss semantics, value sizes,
//!   versioning), so the service's behaviour is grounded in real data
//!   structures rather than a bare latency constant.
//! * [`KvService`] — the timing layer: each request runs on a worker of a
//!   [`WorkerPool`] built from the server's [`MachineConfig`], with a
//!   service-time model derived from the operation and payload sizes.
//!
//! The [`EtcWorkload`] reproduces the published ETC characteristics
//! (Atikoglu et al., SIGMETRICS '12): GEV key sizes, generalized-Pareto
//! value sizes, ~30:1 GET:SET ratio, Zipf-like key popularity. Key sizes
//! are drawn, so every stream stays where the full model puts it, but
//! consumed rather than transformed: no part of the timing model reads
//! them. A descriptor carries its popularity uniform raw, and the key is
//! resolved only when the sampled store touch reads it.

use tpv_hw::{MachineConfig, RunEnvironment};
use tpv_net::StackCosts;
use tpv_sim::dist::{GeneralizedPareto, Normal, Sampler, Zipf};
use tpv_sim::{SimDuration, SimRng, SimTime};

use crate::fasthash::FxHashMap;
use crate::interference::InterferenceProfile;
use crate::request::{KvOp, RequestDescriptor, ServiceCompletion};
use crate::worker_pool::WorkerPool;

/// A stored value: size + version (payload bytes are represented, not
/// materialized, to keep memory bounded).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoredValue {
    /// Value size in bytes.
    pub size: u32,
    /// Monotonically increasing version (bumped by each SET).
    pub version: u32,
}

/// ETC value sizes: GP(θ = 0, σ = 214.476, k = 0.348238).
fn etc_value_size() -> GeneralizedPareto {
    GeneralizedPareto::new(0.0, 214.476, 0.348238)
}

/// A drawn value size as stored bytes: clamped to 1 B – 1 MB.
fn value_bytes(size: f64) -> u32 {
    size.clamp(1.0, 1_000_000.0) as u32
}

/// Preloaded uniforms per block: 64 KiB, below the C allocator's
/// default 128 KiB mmap threshold. One 800 KB block per store would be
/// mmapped, and freeing it raises glibc's dynamic mmap and trim
/// thresholds; each thread arena may then keep up to twice that much
/// freed memory, so peak RSS would swing by megabytes with thread
/// timing.
const PRELOAD_BLOCK: usize = 8192;

/// A sharded hash-table store — the functional core of the service.
///
/// Keys `0..preload_keys` start resident with ETC value sizes (the
/// cache-fill-then-read pattern). The preload is kept as the raw
/// uniforms its values were drawn from, and a value's size is computed
/// only when a read or write reaches it, so building a store costs one
/// bulk uniform draw per key rather than a GPD transform and a hash
/// insert. Writes go to the sharded hash maps, which shadow the preload.
///
/// # Example
///
/// ```
/// use tpv_services::kv::KvStore;
/// let mut store = KvStore::new(16);
/// store.set(42, 100);
/// assert_eq!(store.get(42).unwrap().size, 100);
/// assert!(store.get(7).is_none());
/// ```
#[derive(Debug)]
pub struct KvStore {
    /// Raw `[0, 1)` uniforms behind the preloaded keys' value sizes,
    /// key `k` at `preload[k / PRELOAD_BLOCK][k % PRELOAD_BLOCK]`.
    preload: Vec<Box<[f64]>>,
    value_size: GeneralizedPareto,
    shards: Vec<FxHashMap<u64, StoredValue>>,
    /// Written keys outside the preload range.
    extra_keys: usize,
    hits: u64,
    misses: u64,
}

impl KvStore {
    /// An empty store with `shards` hash-table shards.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "store needs at least one shard");
        KvStore {
            preload: Vec::new(),
            value_size: etc_value_size(),
            shards: (0..shards).map(|_| FxHashMap::default()).collect(),
            extra_keys: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// A store whose keys `0..keys` are resident at version 0, key `k`
    /// holding the ETC value size of the `k`-th uniform `rng` draws —
    /// the same size the `k`-th of `keys` [`GeneralizedPareto::sample`]
    /// calls on `rng` gives. Draws exactly `keys` uniforms.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn preloaded(shards: usize, keys: usize, rng: &mut SimRng) -> Self {
        let mut store = Self::new(shards);
        store.preload = (0..keys)
            .step_by(PRELOAD_BLOCK)
            .map(|first| {
                let mut block = vec![0.0; PRELOAD_BLOCK.min(keys - first)].into_boxed_slice();
                rng.fill_f64(&mut block);
                block
            })
            .collect();
        store
    }

    fn shard_of(&self, key: u64) -> usize {
        (key.wrapping_mul(0x9e3779b97f4a7c15) >> 33) as usize % self.shards.len()
    }

    /// The current value of `key`, without touching the statistics.
    fn lookup(&self, key: u64) -> Option<StoredValue> {
        if let Some(v) = self.shards[self.shard_of(key)].get(&key) {
            return Some(*v);
        }
        let key = usize::try_from(key).ok()?;
        let unit = *self.preload.get(key / PRELOAD_BLOCK)?.get(key % PRELOAD_BLOCK)?;
        Some(StoredValue { size: value_bytes(self.value_size.from_unit(unit)), version: 0 })
    }

    /// Reads a key, recording hit/miss statistics.
    pub fn get(&mut self, key: u64) -> Option<StoredValue> {
        let found = self.lookup(key);
        if found.is_some() {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        found
    }

    /// Writes a key, returning the previous value if any.
    pub fn set(&mut self, key: u64, size: u32) -> Option<StoredValue> {
        let previous = self.lookup(key);
        if previous.is_none() {
            self.extra_keys += 1;
        }
        let version = previous.map_or(0, |v| v.version + 1);
        let shard = self.shard_of(key);
        self.shards[shard].insert(key, StoredValue { size, version });
        previous
    }

    /// Number of resident keys.
    pub fn len(&self) -> usize {
        self.preload.iter().map(|block| block.len()).sum::<usize>() + self.extra_keys
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hit ratio so far (1.0 before any GET).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The Facebook ETC workload model (Atikoglu et al., SIGMETRICS '12).
#[derive(Debug, Clone)]
pub struct EtcWorkload {
    value_size: GeneralizedPareto,
    popularity: Zipf,
    keys: u64,
    get_ratio: f64,
}

impl EtcWorkload {
    /// The published ETC parameters over a keyspace of `keys` keys:
    /// key sizes GEV(30.7984, 8.20449, 0.078688), value sizes
    /// GP(0, 214.476, 0.348238), GET:SET ≈ 30:1, Zipf(0.99) popularity.
    ///
    /// # Panics
    ///
    /// Panics if `keys == 0`.
    pub fn new(keys: u64) -> Self {
        assert!(keys > 0, "ETC needs a non-empty keyspace");
        EtcWorkload {
            value_size: etc_value_size(),
            popularity: Zipf::new(keys.min(1_000_000) as usize, 0.99),
            keys,
            get_ratio: 30.0 / 31.0,
        }
    }

    /// Draws the next request's descriptor: four uniforms, in the order
    /// op, popularity, key size, value size. The popularity uniform is
    /// kept raw (resolve it with [`key_of`](Self::key_of)); the key-size
    /// uniform is consumed, not transformed, since nothing reads a key
    /// size.
    pub fn next_descriptor(&self, rng: &mut SimRng) -> RequestDescriptor {
        let op = if rng.next_bool(self.get_ratio) { KvOp::Get } else { KvOp::Set };
        let key_unit = rng.next_f64();
        rng.next_u64(); // the GEV key size's one uniform
        let value_size = value_bytes(self.value_size.sample(rng));
        RequestDescriptor::Kv { op, key_unit, value_size }
    }

    /// The key a descriptor's raw popularity uniform names: its Zipf rank
    /// folded onto the keyspace.
    pub fn key_of(&self, unit: f64) -> u64 {
        self.popularity.rank_from_unit(unit) as u64 % self.keys
    }
}

/// Configuration of the KV service.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KvConfig {
    /// Worker threads (the paper pins 10 on one socket).
    pub workers: usize,
    /// Keys preloaded into the store.
    pub preload_keys: u64,
    /// Mean pure service time of a GET at nominal frequency (~10 µs
    /// server-side processing for memcached, §I).
    pub mean_get_service: SimDuration,
    /// Execute the functional store operation for one in `fidelity`
    /// requests (1 = every request; higher = sampled, cheaper).
    pub fidelity: u32,
}

impl Default for KvConfig {
    fn default() -> Self {
        KvConfig {
            workers: 10,
            preload_keys: 100_000,
            mean_get_service: SimDuration::from_us(8),
            fidelity: 16,
        }
    }
}

impl KvConfig {
    /// The first field [`KvService::new`] cannot build from (see
    /// [`crate::ServiceKind::invalid_field`]): the pool needs a worker
    /// and the ETC workload a non-empty keyspace.
    pub fn invalid_field(&self) -> Option<(&'static str, u64, u64)> {
        crate::service::first_invalid([
            ("workers", self.workers as u64, u64::MAX),
            ("preload_keys", self.preload_keys, u64::MAX),
        ])
    }
}

/// The memcached-like service instance for one run.
#[derive(Debug)]
pub struct KvService {
    store: KvStore,
    workload: EtcWorkload,
    pool: WorkerPool,
    config: KvConfig,
    stack: StackCosts,
    service_jitter: Normal,
    requests: u64,
}

impl KvService {
    /// Builds the service on `server` for a run of length `horizon`,
    /// preloading the store.
    pub fn new(
        config: KvConfig,
        server: &MachineConfig,
        env: &RunEnvironment,
        interference: &InterferenceProfile,
        horizon: SimDuration,
        rng: &mut SimRng,
    ) -> Self {
        let workload = EtcWorkload::new(config.preload_keys);
        // Preload so GETs mostly hit (ETC is a cache-fill-then-read
        // pattern; the paper fills before measuring). One uniform per
        // key from a child stream; the store transforms them on read.
        let store =
            KvStore::preloaded(config.workers.max(1) * 4, config.preload_keys as usize, &mut rng.split());
        let mut pool = WorkerPool::new(server, env, config.workers, interference, horizon, rng);
        pool.set_contention_coef(0.35); // hash-table walks are memory-bound
        KvService {
            store,
            workload,
            pool,
            config,
            stack: StackCosts::tcp_small_rpc(),
            service_jitter: Normal::new(1.0, 0.22),
            requests: 0,
        }
    }

    /// Draws the next request descriptor from the ETC workload.
    pub fn next_descriptor(&self, rng: &mut SimRng) -> RequestDescriptor {
        self.workload.next_descriptor(rng)
    }

    /// Handles one request arriving at the server NIC at `arrival`.
    pub fn handle(
        &mut self,
        conn: usize,
        desc: &RequestDescriptor,
        arrival: SimTime,
        rng: &mut SimRng,
    ) -> ServiceCompletion {
        let (op, key_unit, value_size) = match *desc {
            RequestDescriptor::Kv { op, key_unit, value_size } => (op, key_unit, value_size),
            other => panic!("KvService got a non-KV request: {other:?}"),
        };

        self.requests += 1;
        // Functional layer (sampled): really touch the hash table. The
        // default fidelity (16) takes the mask path instead of a div.
        let fidelity = self.config.fidelity as u64;
        let sampled = if fidelity.is_power_of_two() {
            self.requests & (fidelity - 1) == 0
        } else {
            self.requests.is_multiple_of(fidelity)
        };
        let stored_size = if sampled {
            let key = self.workload.key_of(key_unit);
            match op {
                KvOp::Get => self.store.get(key).map(|v| v.size).unwrap_or(0),
                KvOp::Set => {
                    self.store.set(key, value_size);
                    value_size
                }
            }
        } else {
            value_size
        };

        // Timing layer: base cost + size-dependent serialization
        // (~0.5 µs per KiB moved) + multiplicative jitter.
        let moved = match op {
            KvOp::Get => stored_size.max(1),
            KvOp::Set => value_size,
        };
        let size_cost = SimDuration::from_us_f64(moved as f64 / 1024.0 * 0.5);
        let op_factor = match op {
            KvOp::Get => 1.0,
            KvOp::Set => 1.25, // writes invalidate + copy
        };
        let jitter = self.service_jitter.sample(rng).max(0.5);
        let service = (self.config.mean_get_service + size_cost).scale(op_factor * jitter);

        let worker = self.pool.worker_for_connection(conn);
        let grant = self.pool.execute(worker, arrival, service, self.stack.server_softirq, rng);
        ServiceCompletion { response_wire: grant.end, server_time: grant.busy }
    }

    /// The functional store (inspection / tests).
    pub fn store(&self) -> &KvStore {
        &self.store
    }

    /// The worker pool (inspection / tests).
    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpv_sim::dist::Gev;

    fn service(server: &MachineConfig, seed: u64) -> (KvService, SimRng) {
        let mut rng = SimRng::seed_from_u64(seed);
        let env = RunEnvironment::neutral();
        let cfg = KvConfig { preload_keys: 1_000, fidelity: 1, ..KvConfig::default() };
        let svc = KvService::new(
            cfg,
            server,
            &env,
            &InterferenceProfile::none(),
            SimDuration::from_secs(1),
            &mut rng,
        );
        (svc, rng)
    }

    #[test]
    fn store_get_set_roundtrip() {
        let mut s = KvStore::new(4);
        assert!(s.is_empty());
        assert!(s.set(1, 10).is_none());
        let prev = s.set(1, 20).unwrap();
        assert_eq!(prev.size, 10);
        assert_eq!(prev.version, 0);
        let cur = s.get(1).unwrap();
        assert_eq!(cur.size, 20);
        assert_eq!(cur.version, 1);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn store_tracks_hit_ratio() {
        let mut s = KvStore::new(2);
        s.set(1, 10);
        s.get(1);
        s.get(2);
        assert!((s.hit_ratio() - 0.5).abs() < 1e-12);
        assert_eq!(KvStore::new(1).hit_ratio(), 1.0);
    }

    /// The store as it was before the on-read preload: every preloaded
    /// key's value drawn with `GeneralizedPareto::sample` and inserted up
    /// front, in key order.
    struct EagerStore {
        map: std::collections::HashMap<u64, StoredValue>,
        hits: u64,
        misses: u64,
    }

    impl EagerStore {
        fn filled(keys: u64, rng: &mut SimRng) -> Self {
            let mut store = EagerStore { map: Default::default(), hits: 0, misses: 0 };
            for key in 0..keys {
                store.set(key, value_bytes(etc_value_size().sample(rng)));
            }
            store
        }

        fn get(&mut self, key: u64) -> Option<StoredValue> {
            let found = self.map.get(&key).copied();
            if found.is_some() {
                self.hits += 1;
            } else {
                self.misses += 1;
            }
            found
        }

        fn set(&mut self, key: u64, size: u32) -> Option<StoredValue> {
            let version = self.map.get(&key).map_or(0, |v| v.version + 1);
            self.map.insert(key, StoredValue { size, version })
        }

        fn hit_ratio(&self) -> f64 {
            let total = self.hits + self.misses;
            if total == 0 {
                1.0
            } else {
                self.hits as f64 / total as f64
            }
        }
    }

    #[test]
    fn lazy_preload_matches_an_eager_fill() {
        // Block-sized preloads and ones spanning several blocks check the
        // block boundaries.
        let block = PRELOAD_BLOCK as u64;
        for (seed, keys) in [(1u64, 0u64), (2, 1), (3, 257), (4, 2_000), (5, block), (6, 2 * block + 3)] {
            let mut eager_rng = SimRng::seed_from_u64(seed);
            let mut lazy_rng = eager_rng.clone();
            let mut eager = EagerStore::filled(keys, &mut eager_rng);
            let mut lazy = KvStore::preloaded(3, keys as usize, &mut lazy_rng);
            assert_eq!(eager_rng.next_u64(), lazy_rng.next_u64(), "preload draw counts differ");
            assert_eq!(lazy.len(), eager.map.len());

            // A small keyspace reaching past the preload makes repeated
            // SETs, first SETs of preloaded keys and fresh keys common.
            let mut ops = SimRng::seed_from_u64(seed ^ 0xabcd);
            for step in 0..20_000 {
                let key = ops.next_below(keys + 64);
                if ops.next_bool(0.6) {
                    assert_eq!(lazy.get(key), eager.get(key), "seed {seed} step {step}: get({key})");
                } else {
                    let size = 1 + ops.next_below(5_000) as u32;
                    assert_eq!(
                        lazy.set(key, size),
                        eager.set(key, size),
                        "seed {seed} step {step}: set({key})"
                    );
                }
                assert_eq!(lazy.len(), eager.map.len(), "seed {seed} step {step}: len");
                assert_eq!(
                    lazy.hit_ratio().to_bits(),
                    eager.hit_ratio().to_bits(),
                    "seed {seed} step {step}"
                );
            }
            for key in 0..keys + 64 {
                assert_eq!(lazy.get(key), eager.get(key), "seed {seed}: final get({key})");
            }
        }
    }

    #[test]
    fn preloaded_key_reads_at_version_zero_and_first_set_bumps_it() {
        let mut rng = SimRng::seed_from_u64(9);
        let mut s = KvStore::preloaded(2, 2, &mut rng.clone());
        let units = [rng.next_f64(), rng.next_f64()];
        let v = s.get(1).expect("preloaded key is resident");
        assert_eq!(v.version, 0);
        assert_eq!(v.size, value_bytes(etc_value_size().from_unit(units[1])));
        assert_eq!(s.set(1, 77), Some(v));
        assert_eq!(s.get(1), Some(StoredValue { size: 77, version: 1 }));
        assert!(s.get(2).is_none());
        assert_eq!(s.len(), 2);
        assert!((s.hit_ratio() - 2.0 / 3.0).abs() < 1e-12);
    }

    /// `next_descriptor` as it was before descriptors went lazy: the
    /// Zipf key searched and the GEV key size transformed on every draw.
    fn eager_descriptor(w: &EtcWorkload, rng: &mut SimRng) -> (KvOp, u64, u32) {
        let op = if rng.next_bool(w.get_ratio) { KvOp::Get } else { KvOp::Set };
        let key = w.popularity.sample_rank(rng) as u64 % w.keys;
        let _key_size = Gev::new(30.7984, 8.20449, 0.078688).sample(rng).clamp(1.0, 250.0) as u32;
        let value_size = value_bytes(etc_value_size().sample(rng));
        (op, key, value_size)
    }

    #[test]
    fn lazy_descriptors_match_eager_draws() {
        // Keyspaces from a single key to past the Zipf table's 1M-rank
        // cap, which spans all three tiers of the rank search.
        for (seed, keys) in [(1u64, 1u64), (2, 1_000), (3, 100_000), (4, 1_500_000)] {
            let w = EtcWorkload::new(keys);
            let mut eager_rng = SimRng::seed_from_u64(seed);
            let mut lazy_rng = eager_rng.clone();
            for step in 0..5_000 {
                let (op, key, value_size) = eager_descriptor(&w, &mut eager_rng);
                match w.next_descriptor(&mut lazy_rng) {
                    RequestDescriptor::Kv { op: lazy_op, key_unit, value_size: lazy_size } => {
                        assert_eq!(lazy_op, op, "seed {seed} step {step}: op");
                        assert_eq!(w.key_of(key_unit), key, "seed {seed} step {step}: key");
                        assert_eq!(lazy_size, value_size, "seed {seed} step {step}: value size");
                    }
                    other => panic!("unexpected descriptor {other:?}"),
                }
            }
            assert_eq!(lazy_rng.next_u64(), eager_rng.next_u64(), "seed {seed}: draw counts differ");
        }
    }

    #[test]
    fn etc_descriptors_have_published_shape() {
        let w = EtcWorkload::new(10_000);
        let mut rng = SimRng::seed_from_u64(1);
        let n = 20_000;
        let mut gets = 0u32;
        let mut value_sizes = Vec::new();
        for _ in 0..n {
            match w.next_descriptor(&mut rng) {
                RequestDescriptor::Kv { op, key_unit, value_size } => {
                    assert!(w.key_of(key_unit) < 10_000);
                    assert!(value_size >= 1);
                    if op == KvOp::Get {
                        gets += 1;
                    }
                    value_sizes.push(value_size as f64);
                }
                other => panic!("unexpected descriptor {other:?}"),
            }
        }
        // GET ratio ≈ 30/31 ≈ 0.968.
        let ratio = gets as f64 / n as f64;
        assert!((ratio - 0.968).abs() < 0.01, "GET ratio {ratio}");
        // ETC values: a median of a few hundred B. (Key sizes are
        // consumed, not transformed; `tpv_sim::dist` checks the GEV
        // key-size shape.)
        let vm = tpv_stats_median(&value_sizes);
        assert!((100.0..400.0).contains(&vm), "median value size {vm}");
    }

    // Minimal local median to avoid a dev-dependency on tpv-stats.
    fn tpv_stats_median(xs: &[f64]) -> f64 {
        let mut v = xs.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v[v.len() / 2]
    }

    #[test]
    fn zipf_popularity_concentrates_traffic() {
        let w = EtcWorkload::new(1_000);
        let mut rng = SimRng::seed_from_u64(2);
        let mut counts = vec![0u32; 1_000];
        for _ in 0..50_000 {
            if let RequestDescriptor::Kv { key_unit, .. } = w.next_descriptor(&mut rng) {
                counts[w.key_of(key_unit) as usize] += 1;
            }
        }
        let top10: u32 = {
            let mut c = counts.clone();
            c.sort_unstable_by(|a, b| b.cmp(a));
            c[..10].iter().sum()
        };
        // Zipf(0.99) over 1000 keys: top-10 keys carry >20 % of traffic.
        assert!(top10 as f64 / 50_000.0 > 0.20, "top10 share {}", top10 as f64 / 50_000.0);
    }

    #[test]
    fn handle_returns_plausible_service_time() {
        let (mut svc, mut rng) = service(&MachineConfig::server_baseline(), 3);
        let desc = svc.next_descriptor(&mut rng);
        let arrival = SimTime::from_ms(1);
        let done = svc.handle(7, &desc, arrival, &mut rng);
        let span = done.response_wire.since(arrival);
        // One request on an idle server: wake + ~10 µs service.
        assert!(span >= SimDuration::from_us(5), "span {span}");
        assert!(span <= SimDuration::from_us(120), "span {span}");
        assert!(done.server_time > SimDuration::ZERO);
    }

    #[test]
    fn sets_cost_more_than_gets() {
        let (mut svc, mut rng) = service(&MachineConfig::server_baseline(), 4);
        let mk = |op| RequestDescriptor::Kv { op, key_unit: 0.5, value_size: 300 };
        // Use well-separated arrivals on the same conn so no queueing.
        let mut get_total = SimDuration::ZERO;
        let mut set_total = SimDuration::ZERO;
        for i in 0..50u64 {
            let t_get = SimTime::from_ms(10 + 2 * i);
            get_total += svc.handle(1, &mk(KvOp::Get), t_get, &mut rng).server_time;
            let t_set = SimTime::from_ms(11 + 2 * i);
            set_total += svc.handle(1, &mk(KvOp::Set), t_set, &mut rng).server_time;
        }
        assert!(set_total > get_total);
    }

    #[test]
    fn queueing_emerges_under_load() {
        let (mut svc, mut rng) = service(&MachineConfig::server_baseline(), 5);
        // Same connection → same worker; arrivals every 2 µs with ~10 µs
        // service must queue.
        let mut last = SimTime::ZERO;
        for i in 0..100u64 {
            let desc = svc.next_descriptor(&mut rng);
            let done = svc.handle(3, &desc, SimTime::from_us(2 * i), &mut rng);
            assert!(done.response_wire >= last);
            last = done.response_wire;
        }
        assert!(last > SimTime::from_us(500), "no queueing visible: {last}");
    }

    #[test]
    fn preload_makes_gets_hit() {
        let (mut svc, mut rng) = service(&MachineConfig::server_baseline(), 6);
        for i in 0..2_000u64 {
            let desc = svc.next_descriptor(&mut rng);
            svc.handle((i % 16) as usize, &desc, SimTime::from_us(100 * i), &mut rng);
        }
        assert!(svc.store().hit_ratio() > 0.95, "hit ratio {}", svc.store().hit_ratio());
        assert!(svc.pool().items() > 0);
    }

    #[test]
    #[should_panic(expected = "non-KV request")]
    fn wrong_descriptor_panics() {
        let (mut svc, mut rng) = service(&MachineConfig::server_baseline(), 7);
        svc.handle(0, &RequestDescriptor::Synthetic, SimTime::ZERO, &mut rng);
    }
}
