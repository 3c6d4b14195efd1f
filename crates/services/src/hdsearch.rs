//! HDSearch: image-similarity search via locality-sensitive hashing.
//!
//! §IV-B: *"HDSearch is an image similarity search service … It returns
//! images from a large dataset whose feature vectors are near to the
//! query's feature vector. It uses Locality-Sensitive Hash (LSH) tables to
//! traverse the search space … structured as a three-tier service"*
//! (client → midtier → bucket servers).
//!
//! The index here is real: random-hyperplane LSH over a synthetic
//! clustered feature-vector dataset, with actual buckets, candidate
//! retrieval and distance ranking ([`LshIndex`]). Per-request *timing* is
//! driven by the index's true per-query candidate counts, sampled from a
//! profile measured against the index at startup — so the service-time
//! distribution is grounded in the real data structure while the
//! simulation stays cheap per request.
//!
//! Every run draws its own dataset and builds its own index, so
//! construction is kept cheap without moving a bit of it: the dataset
//! and hyperplanes are drawn in blocks of standard normals
//! ([`Normal::fill_standard`]), all tables' hyperplanes sit in one plane
//! bank that hashes a vector against every table in one pass over its
//! components, and a query's per-shard candidate counts are popcounts of
//! its candidate bitmap under at most 64 per-shard masks, built once per
//! index and rotated per bitmap word. No run holds the dataset
//! ([`StreamedIndex`]): an exact jump over the dataset's draws reaches
//! the hyperplanes first, so each point is hashed into the buckets as it
//! is drawn, and only the points the profile queries start from are
//! kept.

use tpv_hw::{MachineConfig, RunEnvironment};
use tpv_net::StackCosts;
use tpv_sim::dist::{Normal, Sampler};
use tpv_sim::{SimDuration, SimRng, SimTime};

use crate::interference::InterferenceProfile;
use crate::request::{RequestDescriptor, ServiceCompletion, StageCtx, StageOutcome};
use crate::worker_pool::WorkerPool;

/// A feature vector.
pub type Vector = Vec<f32>;

/// Hyperplanes per accumulator group: a fixed-size array the compiler
/// keeps in registers.
const LANES: usize = 8;

/// Groups whose sums one pass of [`PlaneBank::signatures`] keeps live.
const PASS: usize = 4;

/// Most hyperplanes one table can have: a signature is one `u64` bit
/// per plane.
pub const MAX_PLANES: usize = 63;

/// Clusters in the dataset [`HdSearchService::new`] draws.
pub const CLUSTERS: usize = 8;

/// Every LSH table's random hyperplanes in one bank, so one pass over a
/// vector's components hashes it against every table at once.
#[derive(Debug)]
struct PlaneBank {
    /// Vector dimensionality.
    dim: usize,
    /// Hyperplanes per table.
    planes: usize,
    /// Tables.
    tables: usize,
    /// The hyperplanes in groups of [`LANES`]: table `t`'s planes fill
    /// groups `t * per_table ..`, where `per_table = planes.div_ceil(LANES)`,
    /// in plane order, zero past the table's last plane. Groups come
    /// [`PASS`] at a time, each pass transposed: entry `p * dim + d`
    /// holds component `d` of pass `p`'s groups, group after group,
    /// zero past the last group.
    passes: Vec<[f32; LANES * PASS]>,
}

impl PlaneBank {
    /// Draws `tables × planes` random unit hyperplanes of dimension
    /// `dim`, table by table, plane by plane.
    fn draw(tables: usize, planes: usize, dim: usize, rng: &mut SimRng) -> Self {
        let per_table = planes.div_ceil(LANES);
        let mut passes = vec![[0.0; LANES * PASS]; (tables * per_table).div_ceil(PASS) * dim];
        let mut normals = vec![0.0; dim];
        for table in 0..tables {
            for plane in 0..planes {
                let group = table * per_table + plane / LANES;
                let pass = &mut passes[group / PASS * dim..][..dim];
                for (column, x) in pass.iter_mut().zip(random_unit_vector(&mut normals, rng)) {
                    column[group % PASS * LANES + plane % LANES] = x;
                }
            }
        }
        PlaneBank { dim, planes, tables, passes }
    }

    /// Writes every table's signature of `v` into `signatures` (one per
    /// table): bit `p` is set when `v` lies on the non-negative side of
    /// plane `p`. Each plane's dot product adds its terms in component
    /// order from `Iterator::sum`'s start value, so it has the bits of
    /// `plane.iter().zip(v).map(|(a, b)| a * b).sum::<f32>()`. A pass's
    /// [`PASS`] × [`LANES`] sums stay in registers ([`pass_sums`]);
    /// summing into a runtime-length slice instead kept them on the
    /// stack, a store-to-load chain per component that made hashing ~2x
    /// slower (EXPERIMENTS.md, round 7).
    fn signatures(&self, v: &[f32], signatures: &mut [u64]) {
        let per_table = self.planes.div_ceil(LANES);
        signatures.fill(0);
        let groups = self.tables * per_table;
        for pass in 0..groups.div_ceil(PASS) {
            let bits = pass_sums(&self.passes[pass * self.dim..][..self.dim], v)
                .iter()
                .enumerate()
                .fold(0u64, |bits, (lane, &dot)| if dot >= 0.0 { bits | 1 << lane } else { bits });
            for (k, g) in (pass * PASS..groups).take(PASS).enumerate() {
                signatures[g / per_table] |= (bits >> (k * LANES) & 0xff) << (g % per_table * LANES);
            }
        }
        let planes = (1 << self.planes) - 1;
        signatures.iter_mut().for_each(|signature| *signature &= planes);
    }
}

/// The sums of one pass of a [`PlaneBank`]: for each of its
/// `LANES * PASS` planes, the dot product with `v`, terms added in
/// component order from `Iterator::sum`'s start value. Out of line, its
/// 32 sums are 8 SSE registers of packed multiply-adds; inlined into
/// [`PlaneBank::signatures`], the vectorizer split them to feed the
/// sign tests lane by lane and shuffled inside the loop.
#[inline(never)]
fn pass_sums(columns: &[[f32; LANES * PASS]], v: &[f32]) -> [f32; LANES * PASS] {
    let mut sums = [std::iter::empty::<f32>().sum::<f32>(); LANES * PASS];
    for (column, &x) in columns.iter().zip(v) {
        for (sum, &a) in sums.iter_mut().zip(column) {
            *sum += a * x;
        }
    }
    sums
}

/// A multi-table random-hyperplane LSH index over a vector dataset. It
/// keeps each vector's id in its buckets, not the vector: [`query`]
/// and [`brute_force`] take the indexed data as an argument.
///
/// [`query`]: Self::query
/// [`brute_force`]: Self::brute_force
#[derive(Debug)]
pub struct LshIndex {
    bank: PlaneBank,
    /// Per table: signature → ids, ascending.
    buckets: Vec<crate::fasthash::FxHashMap<u64, Vec<u32>>>,
    /// Indexed vectors; the next one inserted gets this id.
    len: usize,
    shards: usize,
    /// Per-shard masks within a candidate bitmap word, one per offset
    /// `k < min(shards, 64)`: bit `i` is set when `i % shards == k`.
    /// In word `r`, offset `k`'s bits are the ids on shard
    /// `(64 r + k) % shards`.
    shard_masks: Vec<u64>,
    /// Scratch for [`insert`](Self::insert): one signature per table.
    signatures: Vec<u64>,
}

fn squared_distance(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// A random direction: one block of standard normals drawn into
/// `normals` (its length is the dimension), normalized.
fn random_unit_vector(normals: &mut [f64], rng: &mut SimRng) -> Vector {
    Normal::fill_standard(rng, normals);
    let mut v: Vector = normals.iter().map(|&g| g as f32).collect();
    let norm = v.iter().map(|x| x * x).sum::<f32>().sqrt().max(1e-12);
    v.iter_mut().for_each(|x| *x /= norm);
    v
}

/// A cluster centre's components: one block of standard normals drawn
/// into `normals`, scaled by 4.
fn cluster_center<'a>(normals: &'a mut [f64], rng: &mut SimRng) -> impl Iterator<Item = f32> + 'a {
    Normal::fill_standard(rng, normals);
    normals.iter().map(|&g| g as f32 * 4.0)
}

/// The components of a point near `center`: one block of standard
/// normals drawn into `normals`, scaled by 0.6 and added to the centre.
fn cluster_point<'a>(
    center: &'a [f32],
    normals: &'a mut [f64],
    rng: &mut SimRng,
) -> impl Iterator<Item = f32> + 'a {
    Normal::fill_standard(rng, normals);
    center.iter().zip(normals.iter()).map(|(&x, &g)| x + g as f32 * 0.6)
}

/// A clustered synthetic dataset drawn one point at a time (images of
/// similar scenes have nearby feature vectors; clusters model that
/// structure): the cluster centres first, then point `i` near centre
/// `i % clusters`. Each centre and each point takes `2 · dim` uniforms.
struct ClusteredPoints {
    dim: usize,
    clusters: usize,
    /// The centres' components, centre after centre.
    centers: Vec<f32>,
    normals: Vec<f64>,
    /// The next point's id.
    next: usize,
}

impl ClusteredPoints {
    /// Draws the `clusters` centres.
    fn new(dim: usize, clusters: usize, rng: &mut SimRng) -> Self {
        assert!(clusters > 0, "need at least one cluster");
        let mut normals = vec![0.0; dim];
        let mut centers = Vec::with_capacity(clusters * dim);
        for _ in 0..clusters {
            centers.extend(cluster_center(&mut normals, rng));
        }
        ClusteredPoints { dim, clusters, centers, normals, next: 0 }
    }

    /// The next point's components.
    fn draw(&mut self, rng: &mut SimRng) -> impl Iterator<Item = f32> + '_ {
        let center = &self.centers[self.next % self.clusters * self.dim..][..self.dim];
        self.next += 1;
        cluster_point(center, &mut self.normals, rng)
    }
}

/// Generates a clustered synthetic dataset: `clusters` centres, then
/// `n` points, point `i` near centre `i % clusters`, drawn one at a time
/// as [`HdSearchService::new`] streams them through its index.
pub fn clustered_dataset(n: usize, dim: usize, clusters: usize, rng: &mut SimRng) -> Vec<Vector> {
    let mut points = ClusteredPoints::new(dim, clusters, rng);
    (0..n).map(|_| points.draw(rng).collect()).collect()
}

impl LshIndex {
    /// Builds an index over `data` with `tables` tables of `planes`
    /// hyperplanes each, logically sharded across `shards` bucket
    /// servers: draws the hyperplanes, then inserts each vector.
    ///
    /// # Panics
    ///
    /// Panics on an empty dataset, zero tables/planes/shards, or more
    /// than [`MAX_PLANES`] planes.
    pub fn build(data: &[Vector], tables: usize, planes: usize, shards: usize, rng: &mut SimRng) -> Self {
        assert!(!data.is_empty(), "LSH needs data");
        let mut index = LshIndex::empty(tables, planes, data[0].len(), shards, rng);
        for v in data {
            index.insert(v);
        }
        index
    }

    /// An index with no vectors yet, its hyperplanes drawn.
    fn empty(tables: usize, planes: usize, dim: usize, shards: usize, rng: &mut SimRng) -> Self {
        assert!(tables > 0 && planes > 0 && planes <= MAX_PLANES, "bad LSH shape");
        assert!(shards > 0, "need at least one shard");
        // Every hyperplane is drawn before any hashing, which draws
        // nothing, so the stream is that of a table-by-table build.
        let bank = PlaneBank::draw(tables, planes, dim, rng);
        let mut shard_masks = vec![0u64; shards.min(64)];
        for bit in 0..64 {
            shard_masks[bit % shards] |= 1 << bit;
        }
        LshIndex {
            bank,
            buckets: (0..tables).map(|_| Default::default()).collect(),
            len: 0,
            shards,
            shard_masks,
            signatures: vec![0; tables],
        }
    }

    /// Hashes `v` into every table's buckets under the next id.
    fn insert(&mut self, v: &[f32]) {
        assert_eq!(v.len(), self.bank.dim, "inconsistent vector dimensionality");
        self.bank.signatures(v, &mut self.signatures);
        for (table, &signature) in self.buckets.iter_mut().zip(&self.signatures) {
            table.entry(signature).or_default().push(self.len as u32);
        }
        self.len += 1;
    }

    /// Number of indexed vectors.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the index is empty (never true after `build`).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Vector dimensionality.
    pub fn dim(&self) -> usize {
        self.bank.dim
    }

    /// The shard an indexed vector lives on.
    pub fn shard_of(&self, id: u32) -> usize {
        id as usize % self.shards
    }

    /// Marks every id in the query's buckets, one bit per indexed vector.
    fn candidate_bitmap(&self, query: &[f32]) -> Vec<u64> {
        let mut signatures = vec![0; self.buckets.len()];
        self.bank.signatures(query, &mut signatures);
        let mut seen = vec![0u64; self.len.div_ceil(64)];
        for (table, signature) in self.buckets.iter().zip(&signatures) {
            if let Some(bucket) = table.get(signature) {
                for &id in bucket {
                    seen[id as usize / 64] |= 1 << (id % 64);
                }
            }
        }
        seen
    }

    /// Retrieves the deduplicated candidate set for a query, in
    /// ascending id order.
    pub fn candidates(&self, query: &[f32]) -> Vec<u32> {
        let mut ids = Vec::new();
        for_each_set_bit(&self.candidate_bitmap(query), |id| ids.push(id));
        ids
    }

    /// Full LSH query over the indexed `data`: candidates, exact
    /// distances, top-`k` nearest.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not as long as the index.
    pub fn query(&self, data: &[Vector], query: &[f32], k: usize) -> Vec<(u32, f32)> {
        assert_eq!(data.len(), self.len, "data is not the indexed dataset");
        let mut scored: Vec<(u32, f32)> = self
            .candidates(query)
            .into_iter()
            .map(|id| (id, squared_distance(&data[id as usize], query)))
            .collect();
        scored.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
        scored.truncate(k);
        scored
    }

    /// Exact brute-force top-`k` over the indexed `data` (ground truth
    /// for recall tests).
    ///
    /// # Panics
    ///
    /// Panics if `data` is not as long as the index.
    pub fn brute_force(&self, data: &[Vector], query: &[f32], k: usize) -> Vec<(u32, f32)> {
        assert_eq!(data.len(), self.len, "data is not the indexed dataset");
        let mut scored: Vec<(u32, f32)> =
            data.iter().enumerate().map(|(id, v)| (id as u32, squared_distance(v, query))).collect();
        scored.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
        scored.truncate(k);
        scored
    }

    /// Per-shard candidate counts for a query (drives bucket-leg
    /// timing): each bitmap word's set bits under each shard's mask,
    /// the masks rotated to the shard of the word's first id. The cost
    /// is at most 64 popcounts per non-empty word, whatever the shard
    /// count.
    pub fn shard_candidate_counts(&self, query: &[f32]) -> Vec<u32> {
        let mut counts = vec![0u32; self.shards];
        // The shard of the current word's first id, `64 r % shards`.
        let mut first = 0;
        for word in self.candidate_bitmap(query) {
            if word != 0 {
                let (before, from) = counts.split_at_mut(first);
                for (count, &mask) in from.iter_mut().chain(before).zip(&self.shard_masks) {
                    *count += (word & mask).count_ones();
                }
            }
            first = (first + 64) % self.shards;
        }
        counts
    }
}

/// Calls `f` with the index of every set bit of `words`, ascending.
fn for_each_set_bit(words: &[u64], mut f: impl FnMut(u32)) {
    for (w, &word) in words.iter().enumerate() {
        let mut rest = word;
        while rest != 0 {
            f(w as u32 * 64 + rest.trailing_zeros());
            rest &= rest - 1;
        }
    }
}

/// Configuration of the HDSearch service.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HdSearchConfig {
    /// Indexed vectors.
    pub dataset_size: usize,
    /// Feature dimensionality.
    pub dim: usize,
    /// LSH tables.
    pub tables: usize,
    /// Hyperplanes per table.
    pub planes: usize,
    /// Bucket servers (dataset shards).
    pub shards: usize,
    /// Midtier worker threads.
    pub midtier_workers: usize,
    /// Bucket worker threads (total across shards).
    pub bucket_workers: usize,
    /// Pre-sampled query profiles.
    pub profile_queries: usize,
    /// Internal midtier↔bucket RPC one-way delay.
    pub tier_hop: SimDuration,
}

impl Default for HdSearchConfig {
    fn default() -> Self {
        HdSearchConfig {
            dataset_size: 4096,
            dim: 64,
            tables: 4,
            planes: 8,
            shards: 4,
            midtier_workers: 2,
            bucket_workers: 8,
            profile_queries: 256,
            tier_hop: SimDuration::from_us(12),
        }
    }
}

impl HdSearchConfig {
    /// The first field [`HdSearchService::new`] cannot build from (see
    /// [`crate::ServiceKind::invalid_field`]): the index needs data,
    /// dimensions, tables, shards and 1 to [`MAX_PLANES`] planes, and
    /// each worker pool a worker. Vector ids and query ids are `u32`s,
    /// so the dataset and the profile queries (0 runs one) hold at most
    /// `u32::MAX`.
    pub fn invalid_field(&self) -> Option<(&'static str, u64, u64)> {
        let count = |field, value: usize| (field, value as u64, u64::MAX);
        let id_count = |field, value: usize| (field, value as u64, u32::MAX as u64);
        crate::service::first_invalid([
            id_count("dataset_size", self.dataset_size),
            id_count("profile_queries", self.profile_queries.max(1)),
            count("dim", self.dim),
            count("tables", self.tables),
            ("planes", self.planes as u64, MAX_PLANES as u64),
            count("shards", self.shards),
            count("midtier_workers", self.midtier_workers),
            count("bucket_workers", self.bucket_workers),
        ])
    }
}

/// The LSH index [`HdSearchService::new`] measures its query profiles
/// against, built without holding the dataset: each point is hashed as
/// it is drawn, and only the points the profile queries start from,
/// their anchors, are kept.
#[derive(Debug)]
pub struct StreamedIndex {
    index: LshIndex,
    /// Profile queries: `profile_queries`, at least one.
    queries: usize,
    /// The anchors' ids, ascending and distinct: query `i` starts from
    /// point `17 i % dataset_size`.
    anchor_ids: Vec<usize>,
    /// The anchors' components, anchor after anchor in `anchor_ids`
    /// order.
    anchors: Vec<f32>,
}

impl StreamedIndex {
    /// Builds `config`'s index over the dataset [`clustered_dataset`]
    /// would draw from `rng` with [`CLUSTERS`] clusters, with the
    /// hyperplanes [`LshIndex::build`] would draw after it, and leaves
    /// `rng` where that build leaves it. The dataset takes exactly
    /// `2 · dim · (CLUSTERS + dataset_size)` uniforms, so the
    /// hyperplanes are drawn first from `rng` jumped that far
    /// ([`SimRng::advance`]), and the points after them from a copy of
    /// the unjumped stream, each hashed as it is drawn.
    ///
    /// # Panics
    ///
    /// Panics on an empty dataset or an LSH shape [`LshIndex::build`]
    /// rejects.
    pub fn build(config: &HdSearchConfig, rng: &mut SimRng) -> Self {
        let (n, dim) = (config.dataset_size, config.dim);
        assert!(n > 0, "LSH needs data");
        let mut point_rng = rng.clone();
        rng.advance(2 * dim as u64 * (CLUSTERS + n) as u64);
        let mut index = LshIndex::empty(config.tables, config.planes, dim, config.shards, rng);
        let queries = config.profile_queries.max(1);
        // Query `i + n` starts from query `i`'s anchor.
        let mut anchor_ids: Vec<usize> = (0..queries.min(n)).map(|i| i * 17 % n).collect();
        anchor_ids.sort_unstable();
        anchor_ids.dedup();
        let mut anchors = Vec::with_capacity(anchor_ids.len() * dim);
        let mut next_anchor = anchor_ids.iter().peekable();
        let mut points = ClusteredPoints::new(dim, CLUSTERS, &mut point_rng);
        let mut point = Vec::with_capacity(dim);
        for id in 0..n {
            point.clear();
            point.extend(points.draw(&mut point_rng));
            index.insert(&point);
            if next_anchor.next_if_eq(&&id).is_some() {
                anchors.extend_from_slice(&point);
            }
        }
        StreamedIndex { index, queries, anchor_ids, anchors }
    }

    /// Each profile query's candidate count per shard. Query `i` is its
    /// anchor plus 0.15 times a base, a one-point cluster around a
    /// fresh centre drawn from `rng` as `clustered_dataset(1, dim, 1,
    /// …)` would draw it; the anchor makes it hit populated buckets.
    pub fn profiles(&self, rng: &mut SimRng) -> Vec<Vec<u32>> {
        let dim = self.index.dim();
        let mut normals = vec![0.0; dim];
        let mut center = Vec::with_capacity(dim);
        let mut q = Vec::with_capacity(dim);
        (0..self.queries)
            .map(|i| {
                center.clear();
                center.extend(cluster_center(&mut normals, rng));
                let base = cluster_point(&center, &mut normals, rng);
                let slot =
                    self.anchor_ids.binary_search(&(i * 17 % self.index.len())).expect("anchors are kept");
                q.clear();
                q.extend(self.anchors[slot * dim..][..dim].iter().zip(base).map(|(a, b)| a + 0.15 * b));
                self.index.shard_candidate_counts(&q)
            })
            .collect()
    }
}

/// The HDSearch service instance for one run.
#[derive(Debug)]
pub struct HdSearchService {
    /// Per pre-measured query: its candidate count per shard.
    profiles: Vec<Vec<u32>>,
    midtier: WorkerPool,
    buckets: WorkerPool,
    config: HdSearchConfig,
    stack: StackCosts,
    jitter: Normal,
}

impl HdSearchService {
    /// Builds the query profiles and the worker pools for one run.
    /// Requests read only the profiles, so the index they are measured
    /// against ([`StreamedIndex`]) is dropped once profiling is done
    /// rather than held for the whole run.
    pub fn new(
        config: HdSearchConfig,
        server: &MachineConfig,
        env: &RunEnvironment,
        interference: &InterferenceProfile,
        horizon: SimDuration,
        rng: &mut SimRng,
    ) -> Self {
        // A fork of the per-run service stream: the dataset changes with
        // the run seed, like every other draw the service makes.
        let mut data_rng = rng.fork(0x4453);
        let profiles = StreamedIndex::build(&config, &mut data_rng).profiles(&mut data_rng);
        let midtier = WorkerPool::new(server, env, config.midtier_workers, interference, horizon, rng);
        let buckets = WorkerPool::new(server, env, config.bucket_workers, interference, horizon, rng);
        HdSearchService {
            profiles,
            midtier,
            buckets,
            config,
            stack: StackCosts::tcp_small_rpc(),
            jitter: Normal::new(1.0, 0.05),
        }
    }

    /// Draws the next request descriptor (a query id into the profile set).
    pub fn next_descriptor(&self, rng: &mut SimRng) -> RequestDescriptor {
        RequestDescriptor::Search { query_id: rng.next_index(self.profiles.len()) as u32 }
    }

    /// Admits a query arriving at the midtier NIC at `arrival` (stage 0:
    /// parse + LSH hashing).
    ///
    /// Path: midtier parse+hash → fan-out to every shard's bucket worker →
    /// join on the slowest leg → midtier merge → response on the wire.
    /// Stages are returned as [`StageOutcome::Continue`] so the simulation
    /// feeds each tier's queues in chronological order.
    pub fn admit(
        &mut self,
        conn: usize,
        desc: &RequestDescriptor,
        arrival: SimTime,
        rng: &mut SimRng,
    ) -> StageOutcome {
        debug_assert!(
            matches!(desc, RequestDescriptor::Search { .. }),
            "HdSearchService got a non-search request: {desc:?}"
        );
        // Midtier: parse + LSH hashing (tables × planes × dim mults).
        let hash_cost = SimDuration::from_us_f64(
            30.0 + (self.config.tables * self.config.planes * self.config.dim) as f64 * 0.004,
        );
        let mw = self.midtier.worker_for_connection(conn);
        let jitter = self.jitter.sample(rng).max(0.5);
        let mid = self.midtier.execute(mw, arrival, hash_cost.scale(jitter), self.stack.server_softirq, rng);
        StageOutcome::Continue {
            at: mid.end + self.config.tier_hop,
            stage: 1,
            ctx: StageCtx { busy_ns: mid.busy.as_ns(), aux: 0, aux2: 0 },
        }
    }

    /// Resumes a query at a later stage (1 = bucket fan-out, 2 = merge).
    ///
    /// # Panics
    ///
    /// Panics on an unknown stage index or a non-search descriptor.
    pub fn resume(
        &mut self,
        conn: usize,
        desc: &RequestDescriptor,
        stage: u8,
        ctx: StageCtx,
        now: SimTime,
        rng: &mut SimRng,
    ) -> StageOutcome {
        let query_id = match desc {
            RequestDescriptor::Search { query_id } => *query_id as usize % self.profiles.len(),
            other => panic!("HdSearchService got a non-search request: {other:?}"),
        };
        match stage {
            1 => {
                // Fan-out: one leg per shard, in parallel on the bucket pool.
                let mut busy = SimDuration::from_ns(ctx.busy_ns);
                let mut join = now;
                for (shard, &cands) in self.profiles[query_id].iter().enumerate() {
                    // Distance computations dominate: ~1.1 µs per candidate
                    // (64-dim float distance + ranking).
                    let leg_work = SimDuration::from_us_f64(35.0 + cands as f64 * 1.1)
                        .scale(self.jitter.sample(rng).max(0.5));
                    // Shard legs spread over the bucket workers, offset per
                    // connection so different requests' legs interleave.
                    let bw = (shard + conn) % self.buckets.len();
                    let leg = self.buckets.execute(bw, now, leg_work, self.stack.server_softirq, rng);
                    busy += leg.busy;
                    join = join.max(leg.end);
                }
                StageOutcome::Continue {
                    at: join + self.config.tier_hop,
                    stage: 2,
                    ctx: StageCtx { busy_ns: busy.as_ns(), aux: 0, aux2: 0 },
                }
            }
            2 => {
                // Midtier merge of per-shard top-k lists.
                let mw = self.midtier.worker_for_connection(conn);
                let merge_cost = SimDuration::from_us_f64(25.0).scale(self.jitter.sample(rng).max(0.5));
                let merge = self.midtier.execute(mw, now, merge_cost, self.stack.server_softirq, rng);
                StageOutcome::Done(ServiceCompletion {
                    response_wire: merge.end,
                    server_time: SimDuration::from_ns(ctx.busy_ns) + merge.busy,
                })
            }
            other => panic!("HdSearchService has no stage {other}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_index(seed: u64) -> (Vec<Vector>, LshIndex, SimRng) {
        let mut rng = SimRng::seed_from_u64(seed);
        let data = clustered_dataset(1024, 32, 8, &mut rng);
        let index = LshIndex::build(&data, 4, 8, 4, &mut rng);
        (data, index, rng)
    }

    #[test]
    fn index_build_and_shape() {
        let (_, index, _) = small_index(1);
        assert_eq!(index.len(), 1024);
        assert_eq!(index.dim(), 32);
        assert!(!index.is_empty());
        assert!(index.shard_of(7) < 4);
    }

    #[test]
    fn identical_vector_is_always_its_own_candidate() {
        let (data, index, _) = small_index(2);
        for id in [0usize, 100, 500, 1023] {
            let q = &data[id];
            let cands = index.candidates(q);
            assert!(cands.contains(&(id as u32)), "vector {id} not in its own bucket");
            // And it is the top-ranked result with distance 0.
            let top = index.query(&data, q, 1);
            assert_eq!(top[0].0, id as u32);
            assert!(top[0].1 < 1e-9);
        }
    }

    #[test]
    fn lsh_recall_beats_random_selection() {
        let (data, index, mut rng) = small_index(3);
        let mut recall_sum = 0.0;
        let trials = 30;
        for t in 0..trials {
            // Perturb a dataset point slightly: a realistic near-duplicate query.
            let anchor = (t * 31) % index.len();
            let q: Vector =
                data[anchor].iter().map(|&x| x + Normal::standard_sample(&mut rng) as f32 * 0.1).collect();
            let truth: std::collections::HashSet<u32> =
                index.brute_force(&data, &q, 10).into_iter().map(|(id, _)| id).collect();
            let got: std::collections::HashSet<u32> =
                index.query(&data, &q, 10).into_iter().map(|(id, _)| id).collect();
            recall_sum += truth.intersection(&got).count() as f64 / truth.len() as f64;
        }
        let recall = recall_sum / trials as f64;
        assert!(recall > 0.5, "recall@10 = {recall}");
    }

    #[test]
    fn candidates_are_a_small_fraction_of_the_dataset() {
        let (data, index, mut rng) = small_index(4);
        let mut total = 0usize;
        for t in 0..20 {
            let anchor = (t * 53) % index.len();
            let q: Vector =
                data[anchor].iter().map(|&x| x + Normal::standard_sample(&mut rng) as f32 * 0.1).collect();
            total += index.candidates(&q).len();
        }
        let avg = total as f64 / 20.0;
        assert!(avg < 800.0, "LSH is not pruning: avg candidates {avg}");
        assert!(avg > 10.0, "LSH buckets suspiciously empty: {avg}");
    }

    #[test]
    fn shard_counts_sum_to_candidate_count() {
        let (data, index, _) = small_index(5);
        let counts = index.shard_candidate_counts(&data[10]);
        let total: u32 = counts.iter().sum();
        assert_eq!(total as usize, index.candidates(&data[10]).len());
        assert_eq!(counts.len(), 4);
    }

    /// Candidates as they were deduplicated before the bitmap: a
    /// `HashSet` over every table's bucket, sorted.
    fn reference_candidates(index: &LshIndex, q: &[f32]) -> Vec<u32> {
        let mut signatures = vec![0; index.buckets.len()];
        index.bank.signatures(q, &mut signatures);
        let mut seen = std::collections::HashSet::new();
        for (table, signature) in index.buckets.iter().zip(&signatures) {
            if let Some(bucket) = table.get(signature) {
                seen.extend(bucket.iter().copied());
            }
        }
        let mut ids: Vec<u32> = seen.into_iter().collect();
        ids.sort_unstable();
        ids
    }

    /// A plane's dot product with `q` as a per-plane `Iterator::sum`.
    fn reference_dot(plane: &[f32], q: &[f32]) -> f32 {
        plane.iter().zip(q).map(|(a, b)| a * b).sum()
    }

    /// A table's signature of `q` from per-plane `Iterator::sum` dot
    /// products, the scalar hash the bank replaced.
    fn reference_signature(planes: &[Vector], q: &[f32]) -> u64 {
        (0..planes.len()).filter(|&p| reference_dot(&planes[p], q) >= 0.0).fold(0, |sig, p| sig | 1 << p)
    }

    /// Every plane's dot product with `q` as the bank's passes sum it,
    /// per table, plane by plane.
    fn bank_dots(bank: &PlaneBank, q: &[f32]) -> Vec<Vec<f32>> {
        let per_table = bank.planes.div_ceil(LANES);
        let sums: Vec<_> = bank.passes.chunks_exact(bank.dim).map(|pass| pass_sums(pass, q)).collect();
        (0..bank.tables)
            .map(|table| {
                (0..bank.planes)
                    .map(|plane| {
                        let group = table * per_table + plane / LANES;
                        sums[group / PASS][group % PASS * LANES + plane % LANES]
                    })
                    .collect()
            })
            .collect()
    }

    /// Asserts that the bank's dot products of `q` have the bits of
    /// per-plane sums over `hyperplanes` (per table) and that its
    /// signatures equal theirs.
    fn assert_bank_matches(bank: &PlaneBank, hyperplanes: &[Vec<Vector>], q: &[f32], what: &str) {
        let mut signatures = vec![0; bank.tables];
        bank.signatures(q, &mut signatures);
        let dots = bank_dots(bank, q);
        for (table, planes) in hyperplanes.iter().enumerate() {
            for (p, plane) in planes.iter().enumerate() {
                let want = reference_dot(plane, q);
                assert_eq!(dots[table][p].to_bits(), want.to_bits(), "{what}: table {table}, plane {p}");
            }
            assert_eq!(signatures[table], reference_signature(planes, q), "{what}: table {table}");
        }
    }

    /// An index's bank sums every plane's dot product with the bits of a
    /// per-plane sum, and hashes to the same signatures, over
    /// hyperplanes drawn table by table from where the build started
    /// drawing: the dataset, the zero vector and a negated hyperplane,
    /// at plane counts below, at and above one group.
    #[test]
    fn transposed_dots_match_per_plane_sums() {
        for planes in [5usize, 8, 13] {
            let mut rng = SimRng::seed_from_u64(10 + planes as u64);
            let data = clustered_dataset(200, 48, 4, &mut rng);
            let mut reference_rng = rng.clone();
            let index = LshIndex::build(&data, 3, planes, 2, &mut rng);
            let mut normals = vec![0.0; 48];
            let hyperplanes: Vec<Vec<Vector>> = (0..3)
                .map(|_| (0..planes).map(|_| random_unit_vector(&mut normals, &mut reference_rng)).collect())
                .collect();
            let mut queries = data;
            queries.push(vec![0.0; 48]);
            queries.push(hyperplanes[0][0].iter().map(|x| -x).collect());
            for (i, q) in queries.iter().enumerate() {
                assert_bank_matches(&index.bank, &hyperplanes, q, &format!("{planes} planes, query {i}"));
            }
        }
    }

    /// The bank's dot products have the bits of per-plane
    /// `Iterator::sum` dot products, and its signatures their signs,
    /// for banks whose group count is and is not a multiple of the pass
    /// width, with the hyperplanes drawn separately in table-by-table
    /// order. Queries include the zero
    /// vector, a negated hyperplane and points projected onto each
    /// table's first plane, whose dot products sit at rounding level
    /// and so differ in sign under any other summation order.
    #[test]
    fn bank_signatures_match_per_plane_sums() {
        for tables in [1usize, 3, 4, 5, 9] {
            for planes in [1usize, 3, 8, 13, 63] {
                for dim in [1usize, 37, 64] {
                    let seed = (tables * 1000 + planes * 10 + dim) as u64;
                    let mut rng = SimRng::seed_from_u64(seed);
                    let bank = PlaneBank::draw(tables, planes, dim, &mut rng.clone());
                    let mut normals = vec![0.0; dim];
                    let hyperplanes: Vec<Vec<Vector>> = (0..tables)
                        .map(|_| (0..planes).map(|_| random_unit_vector(&mut normals, &mut rng)).collect())
                        .collect();
                    let mut queries = clustered_dataset(12, dim, 3, &mut rng);
                    queries.push(vec![0.0; dim]);
                    queries.push(hyperplanes[tables - 1][planes - 1].iter().map(|x| -x).collect());
                    for (table, p) in hyperplanes.iter().map(|t| &t[0]).enumerate() {
                        let v = &queries[table % 12];
                        let along: f32 = p.iter().zip(v).map(|(a, b)| a * b).sum();
                        queries.push(v.iter().zip(p).map(|(x, a)| x - along * a).collect());
                    }
                    for (i, q) in queries.iter().enumerate() {
                        let what = format!("{tables}×{planes} planes, dim {dim}, query {i}");
                        assert_bank_matches(&bank, &hyperplanes, q, &what);
                    }
                }
            }
        }
    }

    #[test]
    fn bitmap_candidates_match_a_hash_set() {
        for planes in [5usize, 8, 13] {
            let mut rng = SimRng::seed_from_u64(planes as u64);
            let data = clustered_dataset(1000, 32, 8, &mut rng);
            let index = LshIndex::build(&data, 4, planes, 3, &mut rng);
            for t in 0..40 {
                let q: Vector = data[(t * 37) % index.len()]
                    .iter()
                    .map(|&x| x + Normal::standard_sample(&mut rng) as f32 * 0.3)
                    .collect();
                let expected = reference_candidates(&index, &q);
                assert_eq!(index.candidates(&q), expected, "{planes} planes, query {t}");
                let mut counts = vec![0u32; 3];
                for &id in &expected {
                    counts[index.shard_of(id)] += 1;
                }
                assert_eq!(index.shard_candidate_counts(&q), counts, "{planes} planes, query {t}");
            }
        }
    }

    /// The popcount shard counts equal a walk over the set bits, for
    /// shard counts that divide 64 (1, 4, 64), do not (3, 5, 7), exceed
    /// one word (100, 255, 1001) or exceed the dataset (5003), and
    /// datasets that end inside a word. One plane per table makes the
    /// candidate sets large.
    #[test]
    fn popcount_shard_counts_match_the_set_bit_walk() {
        for shards in [1usize, 3, 4, 5, 7, 64, 100, 255, 1001, 5003] {
            for n in [333usize, 1000, 4100] {
                let mut rng = SimRng::seed_from_u64((shards * 10_000 + n) as u64);
                let index = LshIndex::build(&clustered_dataset(n, 8, 4, &mut rng), 2, 1, shards, &mut rng);
                let mut queries = clustered_dataset(10, 8, 2, &mut rng);
                queries.push(vec![0.0; 8]);
                for (i, q) in queries.iter().enumerate() {
                    let mut counts = vec![0u32; shards];
                    for_each_set_bit(&index.candidate_bitmap(q), |id| counts[index.shard_of(id)] += 1);
                    assert_eq!(
                        index.shard_candidate_counts(q),
                        counts,
                        "{shards} shards, {n} vectors, query {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn hash_then_bucket_keeps_bucket_contents_and_order() {
        for planes in [3usize, 8, 13] {
            let (mut rng, dim) = (SimRng::seed_from_u64(40 + planes as u64), 24);
            let data = clustered_dataset(900, dim, 6, &mut rng);
            let index = LshIndex::build(&data, 3, planes, 2, &mut rng);
            let mut signatures = vec![0; 3];
            for (table, buckets) in index.buckets.iter().enumerate() {
                let mut interleaved = crate::fasthash::FxHashMap::<u64, Vec<u32>>::default();
                for (id, v) in data.iter().enumerate() {
                    index.bank.signatures(v, &mut signatures);
                    interleaved.entry(signatures[table]).or_default().push(id as u32);
                }
                assert_eq!(*buckets, interleaved, "{planes} planes, table {table}");
            }
        }
    }

    /// Profiles as a build that holds the dataset measures them:
    /// [`clustered_dataset`], then [`LshIndex::build`], then each query
    /// with its anchor read out of the dataset.
    fn held_dataset_profiles(config: &HdSearchConfig, rng: &mut SimRng) -> Vec<Vec<u32>> {
        let data = clustered_dataset(config.dataset_size, config.dim, CLUSTERS, rng);
        let index = LshIndex::build(&data, config.tables, config.planes, config.shards, rng);
        let mut normals = vec![0.0; config.dim];
        (0..config.profile_queries.max(1))
            .map(|i| {
                let center: Vector = cluster_center(&mut normals, rng).collect();
                let base = cluster_point(&center, &mut normals, rng);
                let q: Vector =
                    data[i * 17 % data.len()].iter().zip(base).map(|(a, b)| a + 0.15 * b).collect();
                index.shard_candidate_counts(&q)
            })
            .collect()
    }

    /// The streamed index measures every profile's shard counts as the
    /// build that holds the dataset does, leaves the data stream at the
    /// same position, and keeps at most one anchor per distinct anchor
    /// id. Shapes cover dimensions at, below and above a block of
    /// normals, one and many planes and tables, shard counts that do
    /// and do not divide 64 or exceed one word, datasets that end inside
    /// a bitmap word, and profile counts of 0, 1 and past the dataset;
    /// datasets of 17 and 34 points make anchors repeat.
    #[test]
    fn streamed_profiles_match_the_held_dataset_build() {
        let shapes = [
            // (dim, dataset_size, planes, tables, shards, profile_queries)
            (1usize, 1usize, 1usize, 1usize, 1usize, 0usize),
            (37, 17, 8, 4, 3, 256),
            (64, 34, 13, 5, 64, 1),
            (65, 333, 63, 1, 100, 1000),
            (64, 4100, 8, 4, 3, 256),
            (37, 4100, 13, 5, 100, 5000),
            (1, 333, 8, 4, 64, 0),
            (65, 17, 1, 5, 1, 1),
            (64, 1, 63, 4, 100, 256),
            (37, 34, 63, 1, 3, 100),
            (1, 4100, 1, 1, 64, 1),
            (65, 4100, 63, 5, 1, 256),
        ];
        for (seed, (dim, dataset_size, planes, tables, shards, profile_queries)) in
            shapes.into_iter().enumerate()
        {
            let config = HdSearchConfig {
                dim,
                dataset_size,
                planes,
                tables,
                shards,
                profile_queries,
                ..Default::default()
            };
            let mut streamed_rng = SimRng::seed_from_u64(seed as u64);
            let mut held_rng = streamed_rng.clone();
            let index = StreamedIndex::build(&config, &mut streamed_rng);
            let queries = profile_queries.max(1);
            assert!(index.anchor_ids.len() <= queries.min(dataset_size), "{config:?}");
            assert_eq!(index.anchors.len(), index.anchor_ids.len() * dim, "{config:?}");
            let profiles = index.profiles(&mut streamed_rng);
            assert_eq!(profiles.len(), queries, "{config:?}");
            assert_eq!(profiles, held_dataset_profiles(&config, &mut held_rng), "{config:?}");
            assert_eq!(streamed_rng.next_u64(), held_rng.next_u64(), "{config:?}: stream positions diverged");
        }
    }

    fn drive(
        svc: &mut HdSearchService,
        conn: usize,
        desc: &RequestDescriptor,
        arrival: SimTime,
        rng: &mut SimRng,
    ) -> ServiceCompletion {
        let mut out = svc.admit(conn, desc, arrival, rng);
        loop {
            match out {
                StageOutcome::Done(done) => return done,
                StageOutcome::Continue { at, stage, ctx } => {
                    out = svc.resume(conn, desc, stage, ctx, at, rng)
                }
            }
        }
    }

    fn service(seed: u64) -> (HdSearchService, SimRng) {
        let mut rng = SimRng::seed_from_u64(seed);
        let env = RunEnvironment::neutral();
        let cfg = HdSearchConfig { dataset_size: 1024, profile_queries: 64, ..HdSearchConfig::default() };
        let svc = HdSearchService::new(
            cfg,
            &MachineConfig::server_baseline(),
            &env,
            &InterferenceProfile::none(),
            SimDuration::from_secs(1),
            &mut rng,
        );
        (svc, rng)
    }

    #[test]
    fn service_latency_is_submillisecond_scale() {
        // The paper's framing: HDSearch has ~10× memcached's latency
        // (hundreds of µs server-side).
        let (mut svc, mut rng) = service(6);
        let mut total = SimDuration::ZERO;
        let n = 50u64;
        for i in 0..n {
            let desc = svc.next_descriptor(&mut rng);
            let arrival = SimTime::from_ms(10 * (i + 1));
            let done = drive(&mut svc, 0, &desc, arrival, &mut rng);
            total += done.response_wire.since(arrival);
        }
        let avg_us = total.as_us() / n as f64;
        assert!((150.0..1500.0).contains(&avg_us), "avg service span {avg_us} µs");
    }

    #[test]
    fn queries_with_more_candidates_take_longer() {
        let (mut svc, mut rng) = service(7);
        // Find the cheapest and dearest profiles.
        let sums: Vec<u32> = svc.profiles.iter().map(|p| p.iter().sum()).collect();
        let (min_id, _) = sums.iter().enumerate().min_by_key(|(_, &s)| s).unwrap();
        let (max_id, max_sum) = sums.iter().enumerate().max_by_key(|(_, &s)| s).unwrap();
        if *max_sum == 0 {
            return; // degenerate draw; nothing to compare
        }
        let cheap = RequestDescriptor::Search { query_id: min_id as u32 };
        let dear = RequestDescriptor::Search { query_id: max_id as u32 };
        let mut cheap_total = SimDuration::ZERO;
        let mut dear_total = SimDuration::ZERO;
        for i in 0..20u64 {
            let t1 = SimTime::from_ms(20 * i + 10);
            cheap_total += drive(&mut svc, 0, &cheap, t1, &mut rng).server_time;
            let t2 = SimTime::from_ms(20 * i + 20);
            dear_total += drive(&mut svc, 0, &dear, t2, &mut rng).server_time;
        }
        assert!(dear_total >= cheap_total, "{dear_total} < {cheap_total}");
    }

    #[test]
    fn fan_out_joins_on_slowest_leg() {
        let (mut svc, mut rng) = service(8);
        let desc = svc.next_descriptor(&mut rng);
        let arrival = SimTime::from_ms(5);
        let done = drive(&mut svc, 0, &desc, arrival, &mut rng);
        // Completion must include at least midtier + hop + leg + hop + merge.
        let floor = SimDuration::from_us(30 + 12 + 35 + 12 + 25);
        assert!(done.response_wire.since(arrival) >= floor);
        // server_time accumulates every leg, so it exceeds the span of a
        // single leg.
        assert!(done.server_time >= SimDuration::from_us(100));
    }

    #[test]
    #[should_panic(expected = "non-search request")]
    fn wrong_descriptor_panics() {
        let (mut svc, mut rng) = service(9);
        svc.resume(0, &RequestDescriptor::Synthetic, 1, StageCtx::default(), SimTime::ZERO, &mut rng);
    }
}
