//! Substrate unit costs: fixed-iteration replays of a workload's own
//! configurations through the substrate crates' public functions. The
//! iteration counts are constants, never scaled to a time budget — scaled
//! counts make the estimate's own variance depend on machine speed.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::hint::black_box;
use std::time::{Duration, Instant};

use tpv_loadgen::{ArrivalProcess, ClientSide, GapBuffer};
use tpv_net::Link;
use tpv_services::request::StageOutcome;
use tpv_services::ServiceInstance;
use tpv_sim::{EventQueue, HotColdSlab, LatencyHistogram, SimDuration, SimRng, SimTime};

use crate::workload::Group;

const ENV_DRAWS: u32 = 2_000;
const SERVICE_INSTANCES: u32 = 6;
const ADMITS: u32 = 20_000;
const SENDS: u32 = 20_000;
const ONE_WAYS: u32 = 50_000;
const QUEUE_EVENTS: u32 = 200_000;
const SLAB_PAIRS: u32 = 200_000;
const HIST_RECORDS: u32 = 200_000;
const DRAWS: u32 = 200_000;

/// Host cost of one operation of each substrate layer, for one group.
#[derive(Debug, Clone, Copy, Default)]
pub struct UnitCosts {
    /// `MachineConfig::draw_environment`, µs.
    pub env_draw_us: f64,
    /// `ServiceInstance::new`, µs.
    pub new_us: f64,
    /// `ServiceInstance::admit`, ns.
    pub admit_ns: f64,
    /// `ServiceInstance::resume`, ns (0 for single-stage services).
    pub resume_ns: f64,
    /// `ClientSide::plan_send` + `receive` + `GapBuffer::next_gap`, ns.
    pub send_ns: f64,
    /// `Link::one_way`, ns.
    pub one_way_ns: f64,
    /// One `EventQueue` event: its `schedule` plus its share of `pop_batch`, ns.
    pub queue_op_ns: f64,
    /// One `HotColdSlab` insert + remove, ns.
    pub slab_op_ns: f64,
    /// One `LatencyHistogram::record`, ns.
    pub hist_record_ns: f64,
    /// One scalar arrival-gap draw (`ArrivalProcess::next_gap`), ns.
    pub draw_ns: f64,
}

fn per_op(total: Duration, ops: u32) -> f64 {
    total.as_secs_f64() * 1e9 / ops as f64
}

/// Mean cost of one back-to-back `Instant::now()` pair, subtracted from
/// per-call timings.
fn clock_overhead() -> Duration {
    const PAIRS: u32 = 10_000;
    let mut total = Duration::ZERO;
    for _ in 0..PAIRS {
        let t = Instant::now();
        total += black_box(Instant::now()) - t;
    }
    total / PAIRS
}

/// Admits `ADMITS` requests at the group's server rate, resuming staged
/// requests in time order as the kernel would, and returns the mean
/// `(admit, resume)` costs in ns.
fn service_calls(group: &Group, rng: &mut SimRng) -> (f64, f64) {
    let env = group.server.draw_environment(rng);
    let mut service = ServiceInstance::new(&group.service, &group.server, &env, group.duration, rng);
    let nodes = (group.server_qps / group.node_qps).round().max(1.0);
    let conns = (group.generator.connections as f64 * nodes) as u64;
    let gaps =
        ArrivalProcess::new(group.generator.arrival, SimDuration::from_secs_f64(1.0 / group.server_qps));
    let overhead = clock_overhead();
    // Continuations wait in a time-ordered heap of indices into `parked`.
    let mut parked = Vec::new();
    let mut pending: BinaryHeap<Reverse<(SimTime, usize)>> = BinaryHeap::new();
    let mut next_arrival = SimTime::ZERO;
    let (mut admitted, mut resumed) = (0u32, 0u32);
    let (mut admit_time, mut resume_time) = (Duration::ZERO, Duration::ZERO);
    while admitted < ADMITS || !pending.is_empty() {
        let due = pending.peek().map(|Reverse((at, _))| *at);
        let (outcome, conn, desc) = match due {
            Some(at) if admitted >= ADMITS || at <= next_arrival => {
                let Reverse((_, slot)) = pending.pop().expect("peeked");
                let (conn, desc, stage, ctx) = parked[slot];
                let t = Instant::now();
                let out = service.resume(conn, &desc, stage, ctx, at, rng);
                resume_time += t.elapsed().saturating_sub(overhead);
                resumed += 1;
                (out, conn, desc)
            }
            _ => {
                let conn = (admitted as u64 % conns) as usize;
                let desc = service.next_descriptor(rng);
                let t = Instant::now();
                let out = service.admit(conn, &desc, next_arrival, rng);
                admit_time += t.elapsed().saturating_sub(overhead);
                admitted += 1;
                next_arrival += gaps.next_gap(rng);
                (out, conn, desc)
            }
        };
        if let StageOutcome::Continue { at, stage, ctx } = outcome {
            pending.push(Reverse((at, parked.len())));
            parked.push((conn, desc, stage, ctx));
        }
    }
    let resume_ns = if resumed == 0 { 0.0 } else { per_op(resume_time, resumed) };
    (per_op(admit_time, admitted), resume_ns)
}

/// Measures every unit cost of `group`.
pub fn measure(group: &Group) -> UnitCosts {
    let mut rng = SimRng::seed_from_u64(0xC057);
    let mut costs = UnitCosts::default();

    let machines: Vec<_> = group.clients.iter().chain(std::iter::once(&group.server)).collect();
    let t = Instant::now();
    for machine in &machines {
        for _ in 0..ENV_DRAWS {
            black_box(machine.draw_environment(&mut rng));
        }
    }
    costs.env_draw_us = per_op(t.elapsed(), ENV_DRAWS * machines.len() as u32) / 1e3;

    let env = group.server.draw_environment(&mut rng);
    let t = Instant::now();
    for _ in 0..SERVICE_INSTANCES {
        black_box(ServiceInstance::new(&group.service, &group.server, &env, group.duration, &mut rng));
    }
    costs.new_us = per_op(t.elapsed(), SERVICE_INSTANCES) / 1e3;

    (costs.admit_ns, costs.resume_ns) = service_calls(group, &mut rng);

    let conns = group.generator.connections.max(1) as usize;
    let conn_gap = SimDuration::from_secs_f64(conns as f64 / group.node_qps);
    let gaps = ArrivalProcess::new(group.generator.arrival, conn_gap);
    let mut send_time = Duration::ZERO;
    for client in &group.clients {
        let env = client.draw_environment(&mut rng);
        let mut side = ClientSide::new(group.generator, client, &env);
        let mut buffer = GapBuffer::new();
        let mut due = SimTime::ZERO;
        let t = Instant::now();
        for i in 0..SENDS {
            let conn = i as usize % conns;
            let plan = side.plan_send(conn, due, &mut rng);
            black_box(side.receive(conn, plan.wire + SimDuration::from_us(60), &mut rng));
            due += buffer.next_gap(&gaps, &mut rng) / conns as u64;
        }
        send_time += t.elapsed();
    }
    costs.send_ns = per_op(send_time, SENDS * group.clients.len() as u32);

    let link = Link::new(&group.link, &mut rng);
    let t = Instant::now();
    for _ in 0..ONE_WAYS {
        black_box(link.one_way(&mut rng));
    }
    costs.one_way_ns = per_op(t.elapsed(), ONE_WAYS);

    let nodes = (group.server_qps / group.node_qps).round().max(1.0) as usize;
    let depth = 2 * conns * nodes;
    let spacing = SimDuration::from_secs_f64(1.0 / group.server_qps);
    let mut queue: EventQueue<u32> = EventQueue::with_spacing(4 * conns * nodes, spacing);
    for i in 0..depth {
        queue.schedule(SimTime::ZERO + spacing * i as u64, i as u32);
    }
    let hold = ArrivalProcess::new(tpv_loadgen::ArrivalKind::Exponential, spacing * depth as u64);
    let mut batch = Vec::with_capacity(64);
    let mut popped = 0u32;
    let t = Instant::now();
    while popped < QUEUE_EVENTS {
        queue.pop_batch(&mut batch);
        for &(now, ev) in &batch {
            queue.schedule(now + hold.next_gap(&mut rng), ev);
        }
        popped += batch.len() as u32;
    }
    let queue_time = t.elapsed();
    // Subtract the hold-time draws the replay needed to keep the queue
    // at its depth; they belong to the samplers, not the queue.
    let t = Instant::now();
    for _ in 0..popped {
        black_box(hold.next_gap(&mut rng));
    }
    costs.queue_op_ns = per_op(queue_time.saturating_sub(t.elapsed()), popped);

    let mut slab: HotColdSlab<(u64, u64), [u64; 4]> = HotColdSlab::with_capacity(2 * conns * nodes);
    let mut live: VecDeque<u32> = (0..conns * nodes).map(|i| slab.insert((i as u64, 0), [0; 4])).collect();
    let t = Instant::now();
    for i in 0..SLAB_PAIRS {
        let oldest = live.pop_front().expect("slab replay keeps its occupancy");
        black_box(slab.remove(oldest));
        live.push_back(slab.insert((i as u64, 1), [i as u64; 4]));
    }
    costs.slab_op_ns = per_op(t.elapsed(), SLAB_PAIRS);

    let latencies: Vec<SimDuration> =
        (0..HIST_RECORDS).map(|_| SimDuration::from_ns(20_000 + rng.next_below(400_000))).collect();
    let mut hist = LatencyHistogram::new();
    let t = Instant::now();
    for &d in &latencies {
        hist.record(d);
    }
    costs.hist_record_ns = per_op(t.elapsed(), HIST_RECORDS);
    black_box(hist.count());

    let t = Instant::now();
    for _ in 0..DRAWS {
        black_box(gaps.next_gap(&mut rng));
    }
    costs.draw_ns = per_op(t.elapsed(), DRAWS);
    costs
}
