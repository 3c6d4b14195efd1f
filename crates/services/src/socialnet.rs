//! Social Network: the multi-service application of §IV-B.
//!
//! Mirrors the DeathStarBench deployment the paper uses: the social graph
//! is initialized from a Reed98-sized dataset (962 users, ~18.8 K edges),
//! the database is filled with posts before each run (`compose-post`), and
//! the measured workload is **read-user-timeline** only.
//!
//! The application is a DAG of services, each with its own worker pool on
//! the server machine: `nginx` frontend → `user-timeline` service →
//! `cache` (memcached-backed timeline cache) with `storage` (MongoDB-like)
//! on a miss, plus per-post assembly work. End-to-end latency lands in the
//! 2–3 ms range of the paper's Fig. 6, with a storage-tail-driven p99.

use tpv_hw::{MachineConfig, RunEnvironment};
use tpv_net::StackCosts;
use tpv_sim::dist::{LogNormal, Normal, Sampler, Zipf};
use tpv_sim::{SimDuration, SimRng, SimTime};

use crate::interference::InterferenceProfile;
use crate::request::{RequestDescriptor, ServiceCompletion, StageCtx, StageOutcome};
use crate::worker_pool::WorkerPool;

/// A directed social graph (follower → followee edges).
#[derive(Debug)]
pub struct SocialGraph {
    followees: Vec<Vec<u32>>,
}

impl SocialGraph {
    /// Generates a Reed98-like graph: `users` nodes and roughly
    /// `mean_degree` followees each, with Zipf-distributed popularity
    /// (a few celebrities, many leaves).
    ///
    /// # Panics
    ///
    /// Panics if `users == 0`.
    pub fn generate(users: u32, mean_degree: f64, rng: &mut SimRng) -> Self {
        assert!(users > 0, "graph needs users");
        let popularity = Zipf::new(users as usize, 1.0);
        let mut followees = vec![Vec::new(); users as usize];
        let edges = (users as f64 * mean_degree) as usize;
        for _ in 0..edges {
            let follower = rng.next_index(users as usize);
            let followee = popularity.sample_rank(rng);
            if follower != followee && !followees[follower].contains(&(followee as u32)) {
                followees[follower].push(followee as u32);
            }
        }
        SocialGraph { followees }
    }

    /// Number of users.
    pub fn users(&self) -> u32 {
        self.followees.len() as u32
    }

    /// Total number of edges.
    pub fn edges(&self) -> usize {
        self.followees.iter().map(Vec::len).sum()
    }

    /// The accounts `user` follows.
    pub fn followees(&self, user: u32) -> &[u32] {
        &self.followees[user as usize]
    }
}

/// A stored post.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Post {
    /// Author.
    pub user: u32,
    /// Body length in bytes.
    pub len: u32,
    /// Sequence number (acts as the timestamp).
    pub seq: u64,
}

/// The post database, filled with `compose-post` before each run
/// (the paper: "before each run we fill the database of the application
/// with posts using compose-post queries").
#[derive(Debug, Default)]
pub struct PostStore {
    by_user: Vec<Vec<Post>>,
    total: u64,
}

impl PostStore {
    /// An empty store for `users` users.
    pub fn new(users: u32) -> Self {
        PostStore { by_user: vec![Vec::new(); users as usize], total: 0 }
    }

    /// Composes (stores) a post.
    pub fn compose(&mut self, user: u32, len: u32) {
        let seq = self.total;
        self.total += 1;
        self.by_user[user as usize].push(Post { user, len, seq });
    }

    /// The latest `k` posts of a user, newest first.
    pub fn latest(&self, user: u32, k: usize) -> Vec<Post> {
        let posts = &self.by_user[user as usize];
        posts.iter().rev().take(k).copied().collect()
    }

    /// Total stored posts.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// Whether no posts are stored.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }
}

/// Configuration of the Social Network service.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SocialConfig {
    /// Users in the social graph (Reed98: 962).
    pub users: u32,
    /// Mean followees per user (Reed98: ~19.6 each way; the generator
    /// uses followees only).
    pub mean_degree: f64,
    /// Posts composed per user before the run.
    pub posts_per_user: u32,
    /// Timeline length assembled per request.
    pub timeline_len: usize,
    /// Timeline-cache hit probability.
    pub cache_hit: f64,
    /// Execute the functional graph/store reads for one in `fidelity`
    /// requests.
    pub fidelity: u32,
}

impl Default for SocialConfig {
    fn default() -> Self {
        SocialConfig {
            users: 962,
            mean_degree: 19.6,
            posts_per_user: 8,
            timeline_len: 10,
            cache_hit: 0.62,
            fidelity: 8,
        }
    }
}

impl SocialConfig {
    /// The first field [`SocialNetworkService::new`] cannot build from
    /// (see [`crate::ServiceKind::invalid_field`]): the graph needs a
    /// user.
    pub fn invalid_field(&self) -> Option<(&'static str, u64, u64)> {
        crate::service::first_invalid([("users", u64::from(self.users), u64::MAX)])
    }
}

/// The Social Network application instance for one run.
#[derive(Debug)]
pub struct SocialNetworkService {
    graph: SocialGraph,
    posts: PostStore,
    frontend: WorkerPool,
    timeline: WorkerPool,
    cache: WorkerPool,
    storage: WorkerPool,
    config: SocialConfig,
    stack: StackCosts,
    user_pick: Zipf,
    jitter: Normal,
    storage_latency: LogNormal,
    requests: u64,
}

impl SocialNetworkService {
    /// Builds the graph, fills the post store, and creates the per-service
    /// worker pools.
    pub fn new(
        config: SocialConfig,
        server: &MachineConfig,
        env: &RunEnvironment,
        interference: &InterferenceProfile,
        horizon: SimDuration,
        rng: &mut SimRng,
    ) -> Self {
        // A fork of the per-run service stream: the graph and posts
        // change with the run seed, like every other draw the service makes.
        let mut data_rng = rng.fork(0x534e);
        let graph = SocialGraph::generate(config.users, config.mean_degree, &mut data_rng);
        let mut posts = PostStore::new(config.users);
        for user in 0..config.users {
            for _ in 0..config.posts_per_user {
                let len = 40 + data_rng.next_below(200) as u32;
                posts.compose(user, len);
            }
        }
        SocialNetworkService {
            graph,
            posts,
            frontend: WorkerPool::new(server, env, 2, interference, horizon, rng),
            timeline: WorkerPool::new(server, env, 4, interference, horizon, rng),
            cache: WorkerPool::new(server, env, 2, interference, horizon, rng),
            storage: WorkerPool::new(server, env, 2, interference, horizon, rng),
            config,
            stack: StackCosts::tcp_small_rpc(),
            user_pick: Zipf::new(config.users as usize, 0.8),
            jitter: Normal::new(1.0, 0.08),
            storage_latency: LogNormal::with_mean(2600.0, 0.85), // µs
            requests: 0,
        }
    }

    /// Draws the next request: a read-user-timeline for a Zipf-popular user.
    pub fn next_descriptor(&self, rng: &mut SimRng) -> RequestDescriptor {
        RequestDescriptor::Timeline { user: self.user_pick.sample_rank(rng) as u32 }
    }

    /// Intra-node RPC hop between services (Docker bridge).
    fn hop() -> SimDuration {
        SimDuration::from_us(10)
    }

    fn jitter_factor(&self, rng: &mut SimRng) -> f64 {
        self.jitter.sample(rng).max(0.5)
    }

    /// Admits a read-user-timeline request (stage 0: the nginx frontend).
    ///
    /// The DAG continues through [`resume`](Self::resume): user-timeline →
    /// cache/storage → timeline assembly → response via nginx. Each stage
    /// is a [`StageOutcome::Continue`] so the simulation feeds every
    /// service's queue in chronological order.
    pub fn admit(
        &mut self,
        conn: usize,
        desc: &RequestDescriptor,
        arrival: SimTime,
        rng: &mut SimRng,
    ) -> StageOutcome {
        debug_assert!(
            matches!(desc, RequestDescriptor::Timeline { .. }),
            "SocialNetworkService got a non-timeline request: {desc:?}"
        );
        self.requests += 1;
        let fw = self.frontend.worker_for_connection(conn);
        let f = self.jitter_factor(rng);
        let fe_work = SimDuration::from_us_f64(220.0).scale(f);
        let fe = self.frontend.execute(fw, arrival, fe_work, self.stack.server_softirq, rng);
        StageOutcome::Continue {
            at: fe.end + Self::hop(),
            stage: 1,
            ctx: StageCtx { busy_ns: fe.busy.as_ns(), aux: 0, aux2: 0 },
        }
    }

    /// Resumes a request at a later DAG stage (1 = user-timeline,
    /// 2 = cache/storage, 3 = assembly, 4 = response via nginx).
    ///
    /// # Panics
    ///
    /// Panics on an unknown stage index or a non-timeline descriptor.
    pub fn resume(
        &mut self,
        conn: usize,
        desc: &RequestDescriptor,
        stage: u8,
        ctx: StageCtx,
        now: SimTime,
        rng: &mut SimRng,
    ) -> StageOutcome {
        let user = match desc {
            RequestDescriptor::Timeline { user } => *user % self.config.users,
            other => panic!("SocialNetworkService got a non-timeline request: {other:?}"),
        };
        let mut busy = SimDuration::from_ns(ctx.busy_ns);
        match stage {
            1 => {
                // user-timeline service.
                let tw = self.timeline.worker_for_connection(conn);
                let f = self.jitter_factor(rng);
                let tl_work = SimDuration::from_us_f64(380.0).scale(f);
                let tl = self.timeline.execute(tw, now, tl_work, self.stack.server_softirq, rng);
                busy += tl.busy;
                StageOutcome::Continue {
                    at: tl.end + Self::hop(),
                    stage: 2,
                    ctx: StageCtx { busy_ns: busy.as_ns(), aux: 0, aux2: 0 },
                }
            }
            2 => {
                // Timeline cache, storage on a miss.
                let hit = rng.next_bool(self.config.cache_hit);
                let end = if hit {
                    let cw = self.cache.worker_for_connection(conn);
                    let f = self.jitter_factor(rng);
                    let c_work = SimDuration::from_us_f64(130.0).scale(f);
                    let c = self.cache.execute(cw, now, c_work, self.stack.server_softirq, rng);
                    busy += c.busy;
                    c.end
                } else {
                    let sw = self.storage.worker_for_connection(conn);
                    let s_work = self.storage_latency.sample_us(rng);
                    let s = self.storage.execute(sw, now, s_work, self.stack.server_softirq, rng);
                    busy += s.busy;
                    s.end
                };
                // Functional layer (sampled): walk the real graph and post
                // store to assemble the timeline that stage 3 serializes.
                let mut timeline_posts = self.config.timeline_len as u32;
                if self.requests.is_multiple_of(self.config.fidelity as u64) {
                    let mut collected: Vec<Post> = Vec::new();
                    for &fo in self.graph.followees(user).iter().take(32) {
                        collected.extend(self.posts.latest(fo, 3));
                    }
                    collected.sort_by_key(|p| std::cmp::Reverse(p.seq));
                    collected.truncate(self.config.timeline_len);
                    timeline_posts = collected.len() as u32;
                }
                StageOutcome::Continue {
                    at: end + Self::hop(),
                    stage: 3,
                    ctx: StageCtx { busy_ns: busy.as_ns(), aux: timeline_posts, aux2: 0 },
                }
            }
            3 => {
                // Assemble the timeline (per-post serialization on the
                // timeline service).
                let tw = self.timeline.worker_for_connection(conn);
                let f = self.jitter_factor(rng);
                let asm_work = SimDuration::from_us_f64(12.0 * ctx.aux.max(1) as f64).scale(f);
                let asm = self.timeline.execute(tw, now, asm_work, self.stack.server_softirq, rng);
                busy += asm.busy;
                StageOutcome::Continue {
                    at: asm.end + Self::hop(),
                    stage: 4,
                    ctx: StageCtx { busy_ns: busy.as_ns(), aux: 0, aux2: 0 },
                }
            }
            4 => {
                // Response back through nginx.
                let fw = self.frontend.worker_for_connection(conn);
                let f = self.jitter_factor(rng);
                let out_work = SimDuration::from_us_f64(90.0).scale(f);
                let out = self.frontend.execute(fw, now, out_work, self.stack.server_softirq, rng);
                busy += out.busy;
                StageOutcome::Done(ServiceCompletion { response_wire: out.end, server_time: busy })
            }
            other => panic!("SocialNetworkService has no stage {other}"),
        }
    }

    /// The social graph (inspection / tests).
    pub fn graph(&self) -> &SocialGraph {
        &self.graph
    }

    /// The post store (inspection / tests).
    pub fn posts(&self) -> &PostStore {
        &self.posts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph_has_reed98_scale() {
        let mut rng = SimRng::seed_from_u64(1);
        let g = SocialGraph::generate(962, 19.6, &mut rng);
        assert_eq!(g.users(), 962);
        // Dedup/self-loop removal loses a few edges; expect the right
        // order of magnitude (Reed98: ~18.8K directed followee edges).
        let e = g.edges();
        assert!((10_000..19_000).contains(&e), "edges {e}");
    }

    #[test]
    fn graph_popularity_is_skewed() {
        let mut rng = SimRng::seed_from_u64(2);
        let g = SocialGraph::generate(500, 20.0, &mut rng);
        // Count in-degree (how often each user is followed).
        let mut indeg = vec![0u32; 500];
        for u in 0..500 {
            for &f in g.followees(u) {
                indeg[f as usize] += 1;
            }
        }
        indeg.sort_unstable_by(|a, b| b.cmp(a));
        let top = indeg[..10].iter().sum::<u32>() as f64;
        let total = indeg.iter().sum::<u32>() as f64;
        assert!(top / total > 0.10, "celebrity share {}", top / total);
    }

    #[test]
    fn post_store_orders_newest_first() {
        let mut s = PostStore::new(3);
        assert!(s.is_empty());
        s.compose(1, 100);
        s.compose(1, 200);
        s.compose(2, 300);
        let latest = s.latest(1, 5);
        assert_eq!(latest.len(), 2);
        assert!(latest[0].seq > latest[1].seq);
        assert_eq!(latest[0].len, 200);
        assert_eq!(s.len(), 3);
        assert!(s.latest(0, 5).is_empty());
    }

    fn drive(
        svc: &mut SocialNetworkService,
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

    fn service(seed: u64) -> (SocialNetworkService, SimRng) {
        let mut rng = SimRng::seed_from_u64(seed);
        let env = RunEnvironment::neutral();
        let cfg = SocialConfig { users: 200, fidelity: 1, ..SocialConfig::default() };
        let svc = SocialNetworkService::new(
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
    fn timeline_latency_is_millisecond_scale() {
        let (mut svc, mut rng) = service(3);
        let n = 100u64;
        let mut total = SimDuration::ZERO;
        for i in 0..n {
            let desc = svc.next_descriptor(&mut rng);
            let arrival = SimTime::from_ms(20 * (i + 1));
            let done = drive(&mut svc, (i % 20) as usize, &desc, arrival, &mut rng);
            total += done.response_wire.since(arrival);
        }
        let avg_ms = total.as_ms() / n as f64;
        // The paper's Fig. 6: ~2-3 ms average end-to-end.
        assert!((1.0..4.5).contains(&avg_ms), "avg {avg_ms} ms");
    }

    #[test]
    fn cache_misses_are_slower_than_hits() {
        let (mut svc, mut rng) = service(4);
        // Force hit/miss by setting the probability.
        svc.config.cache_hit = 1.0;
        let desc = RequestDescriptor::Timeline { user: 1 };
        let t1 = SimTime::from_ms(100);
        let hit_span = drive(&mut svc, 0, &desc, t1, &mut rng).response_wire.since(t1);
        svc.config.cache_hit = 0.0;
        let t2 = SimTime::from_ms(300);
        let miss_span = drive(&mut svc, 0, &desc, t2, &mut rng).response_wire.since(t2);
        assert!(miss_span > hit_span, "miss {miss_span} !> hit {hit_span}");
    }

    #[test]
    fn functional_path_reads_real_posts() {
        let (mut svc, mut rng) = service(5);
        // fidelity=1 ⇒ every request walks the graph; just ensure the
        // store was populated and requests complete.
        assert!(!svc.posts().is_empty());
        let desc = svc.next_descriptor(&mut rng);
        let done = drive(&mut svc, 0, &desc, SimTime::from_ms(1), &mut rng);
        assert!(done.server_time > SimDuration::from_us(500));
    }

    #[test]
    #[should_panic(expected = "non-timeline request")]
    fn wrong_descriptor_panics() {
        let (mut svc, mut rng) = service(6);
        svc.resume(0, &RequestDescriptor::Synthetic, 1, StageCtx::default(), SimTime::ZERO, &mut rng);
    }
}
