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

use tpv_hw::{MachineConfig, RunEnvironment};
use tpv_net::StackCosts;
use tpv_sim::dist::{Normal, Sampler};
use tpv_sim::{SimDuration, SimRng, SimTime};

use crate::interference::InterferenceProfile;
use crate::request::{RequestDescriptor, ServiceCompletion, StageCtx, StageOutcome};
use crate::worker_pool::WorkerPool;

/// A feature vector.
pub type Vector = Vec<f32>;

/// Hyperplanes per accumulator group in [`LshTable::dots`]: a
/// fixed-size array the compiler keeps in registers.
const LANES: usize = 8;

/// Most hyperplanes one table can have: a signature is one `u64` bit
/// per plane.
pub const MAX_PLANES: usize = 63;

/// One LSH table: random hyperplanes + hash buckets.
#[derive(Debug)]
struct LshTable {
    /// Hyperplane count.
    planes: usize,
    /// Vector dimensionality.
    dim: usize,
    /// The hyperplanes in groups of [`LANES`], each group transposed:
    /// entry `g * dim + d` holds component `d` of planes
    /// `g * LANES .. (g + 1) * LANES`, zero past the last plane.
    groups: Vec<[f32; LANES]>,
    buckets: crate::fasthash::FxHashMap<u64, Vec<u32>>,
}

impl LshTable {
    fn new(hyperplanes: &[Vector]) -> Self {
        let planes = hyperplanes.len();
        let dim = hyperplanes.first().map_or(0, Vec::len);
        let groups = hyperplanes
            .chunks(LANES)
            .flat_map(|group| {
                (0..dim).map(move |d| {
                    let mut column = [0.0; LANES];
                    for (slot, plane) in column.iter_mut().zip(group) {
                        *slot = plane[d];
                    }
                    column
                })
            })
            .collect();
        LshTable { planes, dim, groups, buckets: crate::fasthash::FxHashMap::default() }
    }

    /// Every plane's dot product with `v`, in the first `planes` slots,
    /// from one pass over `v` per group of [`LANES`] planes. Each plane
    /// adds its terms in component order from `Iterator::sum`'s start
    /// value, so its slot has the bits of
    /// `plane.iter().zip(v).map(|(a, b)| a * b).sum::<f32>()`. A group's
    /// sums stay in registers; summing into a runtime-length slice
    /// instead kept them on the stack, a store-to-load chain per
    /// component that made hashing ~2x slower (EXPERIMENTS.md, round 7).
    fn dots(&self, v: &[f32]) -> [f32; 64] {
        let start = std::iter::empty::<f32>().sum::<f32>();
        let mut dots = [start; 64];
        // `chunks_exact` rejects 0; a 0-dimensional table has no groups.
        for (out, group) in dots.chunks_exact_mut(LANES).zip(self.groups.chunks_exact(self.dim.max(1))) {
            let mut sums = [start; LANES];
            for (column, &x) in group.iter().zip(v) {
                for (sum, &a) in sums.iter_mut().zip(column) {
                    *sum += a * x;
                }
            }
            out.copy_from_slice(&sums);
        }
        dots
    }

    /// The signature of `v`: bit `p` set when `v` lies on the
    /// non-negative side of plane `p`.
    fn hash(&self, v: &[f32]) -> u64 {
        let dots = self.dots(v);
        dots[..self.planes]
            .iter()
            .enumerate()
            .fold(0, |sig, (i, &dot)| if dot >= 0.0 { sig | 1 << i } else { sig })
    }
}

/// A multi-table random-hyperplane LSH index over a vector dataset.
#[derive(Debug)]
pub struct LshIndex {
    dim: usize,
    tables: Vec<LshTable>,
    data: Vec<Vector>,
    shards: usize,
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

/// Generates a clustered synthetic dataset (images of similar scenes have
/// nearby feature vectors; clusters model that structure).
pub fn clustered_dataset(n: usize, dim: usize, clusters: usize, rng: &mut SimRng) -> Vec<Vector> {
    assert!(clusters > 0, "need at least one cluster");
    let mut normals = vec![0.0; dim];
    let centers: Vec<Vector> = (0..clusters).map(|_| cluster_center(&mut normals, rng).collect()).collect();
    (0..n).map(|i| cluster_point(&centers[i % clusters], &mut normals, rng).collect()).collect()
}

impl LshIndex {
    /// Builds an index over `data` with `tables` tables of `planes`
    /// hyperplanes each, logically sharded across `shards` bucket servers.
    ///
    /// # Panics
    ///
    /// Panics on an empty dataset, zero tables/planes/shards, or more
    /// than [`MAX_PLANES`] planes.
    pub fn build(data: Vec<Vector>, tables: usize, planes: usize, shards: usize, rng: &mut SimRng) -> Self {
        assert!(!data.is_empty(), "LSH needs data");
        assert!(tables > 0 && planes > 0 && planes <= MAX_PLANES, "bad LSH shape");
        assert!(shards > 0, "need at least one shard");
        let dim = data[0].len();
        assert!(data.iter().all(|v| v.len() == dim), "inconsistent vector dimensionality");
        let mut normals = vec![0.0; dim];
        let mut signatures = Vec::with_capacity(data.len());
        let mut built = Vec::with_capacity(tables);
        for _ in 0..tables {
            let hyperplanes: Vec<Vector> =
                (0..planes).map(|_| random_unit_vector(&mut normals, rng)).collect();
            let mut table = LshTable::new(&hyperplanes);
            // Hash every vector, then fill the buckets in id order: the
            // buckets of one interleaved loop, with the hashing in a
            // tight loop of its own.
            signatures.clear();
            signatures.extend(data.iter().map(|v| table.hash(v)));
            for (id, &h) in signatures.iter().enumerate() {
                table.buckets.entry(h).or_default().push(id as u32);
            }
            built.push(table);
        }
        LshIndex { dim, tables: built, data, shards }
    }

    /// Number of indexed vectors.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the index is empty (never true after `build`).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Vector dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The shard an indexed vector lives on.
    pub fn shard_of(&self, id: u32) -> usize {
        id as usize % self.shards
    }

    /// Marks every id in the query's buckets, one bit per indexed vector.
    fn candidate_bitmap(&self, query: &[f32]) -> Vec<u64> {
        let mut seen = vec![0u64; self.data.len().div_ceil(64)];
        for table in &self.tables {
            if let Some(bucket) = table.buckets.get(&table.hash(query)) {
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

    /// Full LSH query: candidates, exact distances, top-`k` nearest.
    pub fn query(&self, query: &[f32], k: usize) -> Vec<(u32, f32)> {
        let mut scored: Vec<(u32, f32)> = self
            .candidates(query)
            .into_iter()
            .map(|id| (id, squared_distance(&self.data[id as usize], query)))
            .collect();
        scored.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
        scored.truncate(k);
        scored
    }

    /// Exact brute-force top-`k` (ground truth for recall tests).
    pub fn brute_force(&self, query: &[f32], k: usize) -> Vec<(u32, f32)> {
        let mut scored: Vec<(u32, f32)> =
            self.data.iter().enumerate().map(|(id, v)| (id as u32, squared_distance(v, query))).collect();
        scored.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
        scored.truncate(k);
        scored
    }

    /// Per-shard candidate counts for a query (drives bucket-leg timing).
    pub fn shard_candidate_counts(&self, query: &[f32]) -> Vec<u32> {
        let mut counts = vec![0u32; self.shards];
        for_each_set_bit(&self.candidate_bitmap(query), |id| counts[self.shard_of(id)] += 1);
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
    /// each worker pool a worker.
    pub fn invalid_field(&self) -> Option<(&'static str, u64, u64)> {
        let count = |field, value: usize| (field, value as u64, u64::MAX);
        crate::service::first_invalid([
            count("dataset_size", self.dataset_size),
            count("dim", self.dim),
            count("tables", self.tables),
            ("planes", self.planes as u64, MAX_PLANES as u64),
            count("shards", self.shards),
            count("midtier_workers", self.midtier_workers),
            count("bucket_workers", self.bucket_workers),
        ])
    }
}

/// A pre-measured query cost profile.
#[derive(Debug, Clone)]
struct QueryProfile {
    shard_candidates: Vec<u32>,
}

/// The HDSearch service instance for one run.
#[derive(Debug)]
pub struct HdSearchService {
    profiles: Vec<QueryProfile>,
    midtier: WorkerPool,
    buckets: WorkerPool,
    config: HdSearchConfig,
    stack: StackCosts,
    jitter: Normal,
}

impl HdSearchService {
    /// Builds the dataset, the LSH index, the query profiles and the
    /// worker pools for one run. Requests read only the profiles, so
    /// the dataset and index are dropped once profiling is done rather
    /// than held for the whole run.
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
        let data = clustered_dataset(config.dataset_size, config.dim, 8, &mut data_rng);
        let index = LshIndex::build(data, config.tables, config.planes, config.shards, &mut data_rng);
        // Measure real per-query candidate counts once. Each query base
        // is a one-point cluster around a fresh centre, drawn as
        // `clustered_dataset(1, dim, 1, …)` would draw it.
        let mut normals = vec![0.0; config.dim];
        let mut center = Vec::with_capacity(config.dim);
        let mut q = Vec::with_capacity(config.dim);
        let profiles = (0..config.profile_queries.max(1))
            .map(|i| {
                center.clear();
                center.extend(cluster_center(&mut normals, &mut data_rng));
                let base = cluster_point(&center, &mut normals, &mut data_rng);
                // Mix a real dataset point in so queries hit populated buckets.
                let anchor = (i * 17) % index.len();
                q.clear();
                q.extend(index.data[anchor].iter().zip(base).map(|(a, b)| a + 0.15 * b));
                QueryProfile { shard_candidates: index.shard_candidate_counts(&q) }
            })
            .collect();
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
                for (shard, &cands) in self.profiles[query_id].shard_candidates.iter().enumerate() {
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

    fn small_index(seed: u64) -> (LshIndex, SimRng) {
        let mut rng = SimRng::seed_from_u64(seed);
        let data = clustered_dataset(1024, 32, 8, &mut rng);
        let index = LshIndex::build(data, 4, 8, 4, &mut rng);
        (index, rng)
    }

    #[test]
    fn index_build_and_shape() {
        let (index, _) = small_index(1);
        assert_eq!(index.len(), 1024);
        assert_eq!(index.dim(), 32);
        assert!(!index.is_empty());
        assert!(index.shard_of(7) < 4);
    }

    #[test]
    fn identical_vector_is_always_its_own_candidate() {
        let (index, _) = small_index(2);
        for id in [0usize, 100, 500, 1023] {
            let q = index.data[id].clone();
            let cands = index.candidates(&q);
            assert!(cands.contains(&(id as u32)), "vector {id} not in its own bucket");
            // And it is the top-ranked result with distance 0.
            let top = index.query(&q, 1);
            assert_eq!(top[0].0, id as u32);
            assert!(top[0].1 < 1e-9);
        }
    }

    #[test]
    fn lsh_recall_beats_random_selection() {
        let (index, mut rng) = small_index(3);
        let mut recall_sum = 0.0;
        let trials = 30;
        for t in 0..trials {
            // Perturb a dataset point slightly: a realistic near-duplicate query.
            let anchor = (t * 31) % index.len();
            let q: Vector = index.data[anchor]
                .iter()
                .map(|&x| x + Normal::standard_sample(&mut rng) as f32 * 0.1)
                .collect();
            let truth: std::collections::HashSet<u32> =
                index.brute_force(&q, 10).into_iter().map(|(id, _)| id).collect();
            let got: std::collections::HashSet<u32> =
                index.query(&q, 10).into_iter().map(|(id, _)| id).collect();
            recall_sum += truth.intersection(&got).count() as f64 / truth.len() as f64;
        }
        let recall = recall_sum / trials as f64;
        assert!(recall > 0.5, "recall@10 = {recall}");
    }

    #[test]
    fn candidates_are_a_small_fraction_of_the_dataset() {
        let (index, mut rng) = small_index(4);
        let mut total = 0usize;
        for t in 0..20 {
            let anchor = (t * 53) % index.len();
            let q: Vector = index.data[anchor]
                .iter()
                .map(|&x| x + Normal::standard_sample(&mut rng) as f32 * 0.1)
                .collect();
            total += index.candidates(&q).len();
        }
        let avg = total as f64 / 20.0;
        assert!(avg < 800.0, "LSH is not pruning: avg candidates {avg}");
        assert!(avg > 10.0, "LSH buckets suspiciously empty: {avg}");
    }

    #[test]
    fn shard_counts_sum_to_candidate_count() {
        let (index, _) = small_index(5);
        let q = index.data[10].clone();
        let counts = index.shard_candidate_counts(&q);
        let total: u32 = counts.iter().sum();
        assert_eq!(total as usize, index.candidates(&q).len());
        assert_eq!(counts.len(), 4);
    }

    /// Candidates as they were deduplicated before the bitmap: a
    /// `HashSet` over every table's bucket, sorted.
    fn reference_candidates(index: &LshIndex, q: &[f32]) -> Vec<u32> {
        let mut seen = std::collections::HashSet::new();
        for table in &index.tables {
            if let Some(bucket) = table.buckets.get(&table.hash(q)) {
                seen.extend(bucket.iter().copied());
            }
        }
        let mut ids: Vec<u32> = seen.into_iter().collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn transposed_dots_match_per_plane_sums() {
        let mut rng = SimRng::seed_from_u64(10);
        for planes in [5usize, 8, 13] {
            let mut normals = vec![0.0; 48];
            let hyperplanes: Vec<Vector> =
                (0..planes).map(|_| random_unit_vector(&mut normals, &mut rng)).collect();
            let table = LshTable::new(&hyperplanes);
            let mut queries = clustered_dataset(200, 48, 4, &mut rng);
            queries.push(vec![0.0; 48]);
            queries.push(hyperplanes[0].iter().map(|x| -x).collect());
            for q in &queries {
                let dots = table.dots(q);
                let mut sig = 0u64;
                for (p, plane) in hyperplanes.iter().enumerate() {
                    let dot: f32 = plane.iter().zip(q).map(|(a, b)| a * b).sum();
                    assert_eq!(dots[p].to_bits(), dot.to_bits(), "{planes} planes, plane {p}");
                    if dot >= 0.0 {
                        sig |= 1 << p;
                    }
                }
                assert_eq!(table.hash(q), sig, "{planes} planes");
            }
        }
    }

    #[test]
    fn bitmap_candidates_match_a_hash_set() {
        for planes in [5usize, 8, 13] {
            let mut rng = SimRng::seed_from_u64(planes as u64);
            let data = clustered_dataset(1000, 32, 8, &mut rng);
            let index = LshIndex::build(data, 4, planes, 3, &mut rng);
            for t in 0..40 {
                let q: Vector = index.data[(t * 37) % index.len()]
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

    #[test]
    fn hash_then_bucket_keeps_bucket_contents_and_order() {
        for planes in [3usize, 8, 13] {
            let (mut rng, dim) = (SimRng::seed_from_u64(40 + planes as u64), 24);
            let index = LshIndex::build(clustered_dataset(900, dim, 6, &mut rng), 3, planes, 2, &mut rng);
            for table in &index.tables {
                let mut interleaved = crate::fasthash::FxHashMap::<u64, Vec<u32>>::default();
                for (id, v) in index.data.iter().enumerate() {
                    interleaved.entry(table.hash(v)).or_default().push(id as u32);
                }
                assert_eq!(table.buckets, interleaved, "{planes} planes");
            }
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
        let sums: Vec<u32> = svc.profiles.iter().map(|p| p.shard_candidates.iter().sum()).collect();
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
