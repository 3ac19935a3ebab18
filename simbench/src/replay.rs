//! Layer replays: each drives one crate's public functions over inputs
//! taken from the workload (its profiles, seed, topology, link and
//! measured traffic), times the calls, and checks its own output so a
//! replay that does less work fails instead of looking fast.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

use heterowire_frontend::FetchEngine;
use heterowire_interconnect::{
    FaultModel, MessageKind, NetConfig, Network, Node, Topology, Transfer, TransferId,
};
use heterowire_isa::{MicroOp, OpClass};
use heterowire_memory::{LoadStatus, LoadStoreQueue, MemConfig, MemoryHierarchy};
use heterowire_rng::SmallRng;
use heterowire_trace::{BenchmarkProfile, TraceGenerator};
use heterowire_wires::{LinkComposition, WireClass};

/// Dispatch and commit width of the modelled front end and ROB.
const WIDTH: usize = 8;

/// One timed replay: how many operations it performed, and when.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    /// Operations replayed (the unit of the layer's `ns_per_*` metric).
    pub ops: u64,
    pub start: Instant,
    pub end: Instant,
}

impl Timed {
    /// Host nanoseconds the replay took.
    pub fn ns(&self) -> f64 {
        self.end.duration_since(self.start).as_nanos() as f64
    }
}

/// `trace`: iterates `TraceGenerator` for `n` micro-ops.
pub fn trace(profile: BenchmarkProfile, seed: u64, n: u64) -> Result<Timed, String> {
    let start = Instant::now();
    let mut ops = 0u64;
    let mut last = None;
    for op in TraceGenerator::new(profile, seed).take(n as usize) {
        last = Some(black_box(op).seq());
        ops += 1;
    }
    let end = Instant::now();
    if ops != n || last != n.checked_sub(1) {
        return Err(format!(
            "trace replay of {}: {ops} ops (last seq {last:?}), expected {n}",
            profile.name
        ));
    }
    Ok(Timed { ops, start, end })
}

/// `frontend`: ticks a Table-1 `FetchEngine` over the trace, popping up to
/// the dispatch width per cycle and redirecting one cycle after each
/// mispredicted branch, until `n` ops came out in program order.
pub fn frontend(profile: BenchmarkProfile, seed: u64, n: u64) -> Result<Timed, String> {
    let start = Instant::now();
    let mut fetch = FetchEngine::new(TraceGenerator::new(profile, seed));
    let (mut popped, mut cycle) = (0u64, 0u64);
    while popped < n {
        cycle += 1;
        if cycle > 64 * n + 1_000 {
            return Err(format!(
                "frontend replay of {}: stuck after {popped} of {n} ops",
                profile.name
            ));
        }
        fetch.tick(cycle);
        for _ in 0..WIDTH {
            let Some(f) = fetch.pop() else { break };
            if f.op.seq() != popped {
                return Err(format!(
                    "frontend replay of {}: op {} out of order (expected {popped})",
                    profile.name,
                    f.op.seq()
                ));
            }
            popped += 1;
            if f.mispredicted {
                fetch.redirect(cycle + 1);
            }
            if popped == n {
                break;
            }
        }
    }
    let end = Instant::now();
    Ok(Timed {
        ops: popped,
        start,
        end,
    })
}

/// `memory` (LSQ): inserts the trace's loads and stores in program order
/// with a ROB-sized window in flight, delivers partial then full
/// addresses a few cycles later (stores' full addresses straggle, so
/// younger loads must wait or match partially), polls every waiting load
/// each cycle, and retires in order. Every load must fully disambiguate.
pub fn lsq(ops: &[MicroOp], ls_bits: u32, rob_size: usize) -> Result<Timed, String> {
    let start = Instant::now();
    let mut q = LoadStoreQueue::new(ls_bits);
    // (seq, cycle the op may retire; u64::MAX = load not yet disambiguated)
    let mut rob: VecDeque<(u64, u64)> = VecDeque::with_capacity(rob_size);
    let mut waiting = Vec::new();
    let (mut next, mut retired, mut cycle) = (0usize, 0usize, 0u64);
    let (mut mem_ops, mut loads, mut resolved) = (0u64, 0u64, 0u64);
    while retired < ops.len() {
        cycle += 1;
        if cycle > 1_000 * ops.len() as u64 + 1_000 {
            return Err(format!(
                "lsq replay stuck: {resolved} of {loads} loads disambiguated"
            ));
        }
        for _ in 0..WIDTH {
            if next == ops.len() || rob.len() == rob_size {
                break;
            }
            let op = &ops[next];
            next += 1;
            let seq = op.seq();
            let retire_at = match op.op() {
                class @ (OpClass::Load | OpClass::Store) => {
                    let is_store = class == OpClass::Store;
                    let r = q.insert(seq, is_store);
                    let addr = op.addr().ok_or("memory op without an address")?;
                    let full_at = cycle + 2 + seq % 4;
                    q.arrive_partial_ref(r, addr, cycle + 1);
                    q.arrive_full_ref(r, addr, full_at);
                    mem_ops += 1;
                    if is_store {
                        full_at
                    } else {
                        loads += 1;
                        waiting.push((r, seq));
                        u64::MAX
                    }
                }
                _ => cycle,
            };
            rob.push_back((seq, retire_at));
        }
        waiting.retain(|&(r, seq)| match q.load_status_ref(r, cycle, true) {
            LoadStatus::FullReady { .. } => {
                let head = rob[0].0;
                rob[(seq - head) as usize].1 = cycle;
                resolved += 1;
                false
            }
            _ => true,
        });
        let mut last = None;
        for _ in 0..WIDTH {
            match rob.front() {
                Some(&(seq, at)) if at <= cycle => {
                    rob.pop_front();
                    last = Some(seq);
                    retired += 1;
                }
                _ => break,
            }
        }
        if let Some(seq) = last {
            q.retire_through(seq);
        }
    }
    let end = Instant::now();
    let stats = q.stats();
    if resolved != loads || stats.loads + stats.stores != mem_ops || !q.is_empty() {
        return Err(format!(
            "lsq replay: {resolved} of {loads} loads got a status, LSQ saw {} of {mem_ops} \
             memory ops, {} left in the queue",
            stats.loads + stats.stores,
            q.len()
        ));
    }
    Ok(Timed {
        ops: mem_ops,
        start,
        end,
    })
}

/// `memory` (caches): runs `MemoryHierarchy::load`/`store` over the
/// trace's addresses, one dispatch group per cycle.
pub fn cache(ops: &[MicroOp], config: MemConfig) -> Result<Timed, String> {
    let start = Instant::now();
    let mut mem = MemoryHierarchy::new(config);
    let (mut accesses, mut latest) = (0u64, 0u64);
    for (i, op) in ops.iter().enumerate() {
        let t = (i / WIDTH) as u64;
        match (op.op(), op.addr()) {
            (OpClass::Load, Some(addr)) => latest = latest.max(mem.load(addr, t, t + 1, true)),
            (OpClass::Store, Some(addr)) => latest = latest.max(mem.store(addr, t)),
            _ => continue,
        }
        accesses += 1;
    }
    black_box(latest);
    let end = Instant::now();
    let stats = mem.stats();
    if stats.loads + stats.stores != accesses {
        return Err(format!(
            "cache replay: hierarchy counted {} of {accesses} accesses",
            stats.loads + stats.stores
        ));
    }
    Ok(Timed {
        ops: accesses,
        start,
        end,
    })
}

/// Traffic for [`network`]: a topology and link, the class mix and rate
/// measured in the traced run, and how many transfers to send.
#[derive(Debug, Clone)]
pub struct Traffic {
    pub topology: Topology,
    pub link: LinkComposition,
    /// Transfers per class, in `WireClass::ALL` order.
    pub mix: [u64; 4],
    /// Transfers injected per simulated cycle.
    pub per_cycle: f64,
    /// Transfers to send (and expect delivered).
    pub total: u64,
}

/// `interconnect`: sends the traffic at its measured rate and class mix
/// between random nodes, ticking and draining every cycle the way the
/// core's kernel does, until every transfer is delivered. The transfer
/// list is drawn from `seed` before timing starts.
pub fn network<F: FaultModel>(traffic: &Traffic, faults: F, seed: u64) -> Result<Timed, String> {
    let transfers = draw_transfers(traffic, seed)?;
    let total = transfers.len();
    let start = Instant::now();
    let mut net = Network::with_faults(
        NetConfig::new(traffic.topology, traffic.link.clone()),
        faults,
    );
    let mut out: Vec<(TransferId, Transfer)> = Vec::new();
    let (mut sent, mut delivered, mut cycle) = (0usize, 0usize, 0u64);
    while delivered < total {
        let due = (((cycle + 1) as f64 * traffic.per_cycle).ceil() as usize).min(total);
        while sent < due {
            net.send(transfers[sent], cycle);
            sent += 1;
        }
        cycle += 1;
        if net.pending_len() > 0 {
            net.tick(cycle);
        }
        net.take_delivered_into(cycle, &mut out);
        delivered += out.len();
        if cycle > 1_000 * total as u64 + 100_000 {
            break;
        }
    }
    let end = Instant::now();
    let stats = net.stats();
    if delivered != total || stats.delivered != total as u64 {
        return Err(format!(
            "network replay: {delivered} of {total} transfers delivered \
             ({} by the network's count)",
            stats.delivered
        ));
    }
    Ok(Timed {
        ops: total as u64,
        start,
        end,
    })
}

fn draw_transfers(traffic: &Traffic, seed: u64) -> Result<Vec<Transfer>, String> {
    let weight: u64 = traffic.mix.iter().sum();
    if weight == 0 || traffic.total == 0 || traffic.per_cycle <= 0.0 {
        return Err("network replay: the traced run measured no traffic".to_string());
    }
    let clusters = traffic.topology.clusters();
    let mut rng = SmallRng::seed_from_u64(seed);
    let node = |rng: &mut SmallRng| match rng.gen_range(0..clusters + 1) {
        c if c == clusters => Node::Cache,
        c => Node::Cluster(c),
    };
    let mut transfers = Vec::with_capacity(traffic.total as usize);
    for _ in 0..traffic.total {
        let mut pick = rng.gen_range(0..weight);
        let mut class = WireClass::ALL[0];
        for (&c, &w) in WireClass::ALL.iter().zip(&traffic.mix) {
            if pick < w {
                class = c;
                break;
            }
            pick -= w;
        }
        let kind = if class == WireClass::L {
            MessageKind::PartialAddress
        } else {
            MessageKind::RegisterValue
        };
        let src = node(&mut rng);
        let mut dst = node(&mut rng);
        while dst == src {
            dst = node(&mut rng);
        }
        transfers.push(Transfer {
            src,
            dst,
            class,
            kind,
        });
    }
    Ok(transfers)
}
