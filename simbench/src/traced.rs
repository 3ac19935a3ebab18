//! The traced run: a serial pass over the grid that runs each job twice
//! (untraced, then with the counting probe), plus the layer replays. It
//! yields the per-layer counts and costs; end-to-end figures never come
//! from here.

use std::time::Instant;

use heterowire_bench::PolicyKind;
use heterowire_core::{NullFaultModel, SimResults};
use heterowire_memory::MemConfig;
use heterowire_trace::{BenchmarkProfile, TraceGenerator};

use crate::grid::{build, construct, Job, Workload, WARMUP, WINDOW};
use crate::measure::{run_job, JobRecord};
use crate::probe::CountingProbe;
use crate::replay::{self, Timed, Traffic};
use crate::spans::SpanLog;
use crate::stats::median;

/// Layer replays per run; each layer's cost is their median.
const REPLAY_REPS: usize = 3;

/// What the serial traced pass measured.
#[derive(Debug, Default)]
pub struct TracedPass {
    /// Probe counts summed over every successful traced job.
    pub counts: CountingProbe,
    /// Simulated cycles of those jobs, warm-up included.
    pub sim_cycles: u64,
    /// Host time of `Processor::run` with and without the probe.
    pub traced_run_ns: f64,
    pub untraced_run_ns: f64,
    /// Jobs that passed every check.
    pub ok_jobs: u64,
    /// Traced results by job index (`None` for a failed job).
    pub results: Vec<Option<SimResults>>,
    /// Failed jobs, by index, with the reason.
    pub failures: Vec<(usize, String)>,
}

/// Runs every job serially, untraced then traced, recording spans around
/// the traced job's set-up, constructor and run. A job fails unless the
/// traced results are bit-identical to both untraced runs (this serial
/// one and the executor sweep's `reference`).
pub fn traced_pass(
    workload: &Workload,
    jobs: &[Job],
    seed: u64,
    reference: &[JobRecord],
    spans: &mut SpanLog,
) -> TracedPass {
    let mut pass = TracedPass::default();
    for (i, job) in jobs.iter().enumerate() {
        let untraced = run_job(workload, job, seed);

        let id = spans.job(workload.job_key(job, seed));
        let start = Instant::now();
        let out = match build(workload, job, seed) {
            Ok(built) => construct(built, job.policy, CountingProbe::default(), true),
            Err(e) => {
                pass.failures.push((i, e));
                pass.results.push(None);
                continue;
            }
        };
        let end = Instant::now();
        let root = spans.record("job", id, None, start, end);
        let setup = spans.record("setup", id, Some(root), start, out.ctor_end);
        spans.record("constructor", id, Some(setup), out.ctor_start, out.ctor_end);
        spans.record("run", id, Some(root), out.ctor_end, out.run_end);

        let traced = out.result.expect("construct ran the job");
        match check_job(&traced, out.probe.commit, &untraced, &reference[i]) {
            Ok(r) => {
                pass.ok_jobs += 1;
                pass.counts.absorb(&out.probe);
                pass.sim_cycles += out.probe.last_cycle + 1;
                pass.traced_run_ns += out.run_end.duration_since(out.ctor_end).as_nanos() as f64;
                pass.untraced_run_ns += untraced.run_ns;
                pass.results.push(Some(r));
            }
            Err(e) => {
                pass.failures.push((i, e));
                pass.results.push(None);
            }
        }
    }
    pass
}

fn check_job(
    traced: &Result<SimResults, String>,
    probed_commits: u64,
    untraced: &JobRecord,
    reference: &JobRecord,
) -> Result<SimResults, String> {
    let traced = traced.as_ref().map_err(|e| format!("traced run: {e}"))?;
    if traced.instructions != WINDOW || probed_commits != WINDOW + WARMUP {
        return Err(format!(
            "traced run committed {} measured instructions and the probe saw {probed_commits} \
             commits; expected {WINDOW} and {}",
            traced.instructions,
            WINDOW + WARMUP
        ));
    }
    let json = traced.to_json();
    for (what, other) in [("serial", untraced), ("executor", reference)] {
        match &other.result {
            Ok(r) if r.to_json() == json => {}
            Ok(_) => {
                return Err(format!(
                    "traced results differ from the {what} untraced run"
                ))
            }
            Err(e) => return Err(format!("{what} untraced run: {e}")),
        }
    }
    Ok(*traced)
}

/// Host cost of each replayed layer, per operation.
#[derive(Debug, Clone, Copy)]
pub struct LayerCosts {
    pub trace_ns_per_op: f64,
    pub frontend_ns_per_op: f64,
    pub lsq_ns_per_memop: f64,
    pub cache_ns_per_access: f64,
    pub net_ns_per_transfer: f64,
    /// Loads and stores per trace op (warm-up included).
    pub memops_per_op: f64,
    /// Replays run (each is one attempted operation of the benchmark).
    pub replays: u64,
}

#[derive(Debug, Default, Clone, Copy)]
struct Totals {
    ns: f64,
    ops: u64,
}

impl Totals {
    fn add(&mut self, t: &Timed) {
        self.ns += t.ns();
        self.ops += t.ops;
    }

    fn per_op(&self) -> f64 {
        self.ns / self.ops.max(1) as f64
    }
}

/// Replays the `trace`, `frontend`, `memory` and `interconnect` layers on
/// the workload's own inputs, [`REPLAY_REPS`] times, recording a span per
/// call. Fails on the first replay whose self-check fails.
pub fn replays(
    workload: &Workload,
    jobs: &[Job],
    seed: u64,
    pass: &TracedPass,
    spans: &mut SpanLog,
) -> Result<LayerCosts, String> {
    let n = WINDOW + WARMUP;
    let first = jobs.first().ok_or("no jobs to replay")?;
    let built = build(workload, first, seed)?;
    let (ls_bits, rob_size) = (built.config().ls_bits, built.config().rob_size);
    let faults = built.faults().cloned();

    let mut profiles: Vec<BenchmarkProfile> = Vec::new();
    for job in jobs {
        if !profiles.iter().any(|p| p.name == job.profile.name) {
            profiles.push(job.profile);
        }
    }
    let traffic = traffic_groups(workload, jobs, seed, pass)?;

    let mut per_rep: Vec<[f64; 5]> = Vec::new();
    let (mut memops, mut ops, mut replays) = (0u64, 0u64, 0u64);
    for _ in 0..REPLAY_REPS {
        let [mut tr, mut fe, mut lsq, mut cache, mut net] = [Totals::default(); 5];
        for &profile in &profiles {
            let key = |layer: &str| {
                format!(
                    "{}/replay.{layer}/{}/{}/{}/{seed}",
                    workload.name,
                    workload.topology,
                    workload.faults.unwrap_or("none"),
                    profile.name
                )
            };
            let t = replay::trace(profile, seed, n)?;
            let id = spans.job(key("trace"));
            spans.record("replay.trace", id, None, t.start, t.end);
            tr.add(&t);

            let f = replay::frontend(profile, seed, n)?;
            let id = spans.job(key("frontend"));
            spans.record("replay.frontend", id, None, f.start, f.end);
            fe.add(&f);

            let stream: Vec<_> = TraceGenerator::new(profile, seed)
                .take(n as usize)
                .collect();
            let l = replay::lsq(&stream, ls_bits, rob_size)?;
            let id = spans.job(key("lsq"));
            spans.record("replay.lsq", id, None, l.start, l.end);
            lsq.add(&l);

            let c = replay::cache(&stream, MemConfig::default())?;
            let id = spans.job(key("cache"));
            spans.record("replay.cache", id, None, c.start, c.end);
            cache.add(&c);

            memops += l.ops;
            ops += n;
            replays += 4;
        }
        for (key, t) in &traffic {
            let timed = match &faults {
                Some(spec) if spec.has_transient() => replay::network(t, spec.injector(), seed)?,
                _ => replay::network(t, NullFaultModel, seed)?,
            };
            let id = spans.job(key.clone());
            spans.record("replay.network", id, None, timed.start, timed.end);
            net.add(&timed);
            replays += 1;
        }
        let fe_ns = (fe.ns - tr.ns) / fe.ops.max(1) as f64;
        per_rep.push([
            tr.per_op(),
            fe_ns,
            lsq.per_op(),
            cache.per_op(),
            net.per_op(),
        ]);
    }
    let m = |k: usize| median(&per_rep.iter().map(|r| r[k]).collect::<Vec<_>>());
    Ok(LayerCosts {
        trace_ns_per_op: m(0),
        frontend_ns_per_op: m(1),
        lsq_ns_per_memop: m(2),
        cache_ns_per_access: m(3),
        net_ns_per_transfer: m(4),
        memops_per_op: memops as f64 / ops.max(1) as f64,
        replays,
    })
}

/// One network replay per (model, policy) group of the grid, on the
/// group's topology and (possibly degraded) link, at the class mix,
/// transfer count and transfers-per-cycle its traced jobs measured.
fn traffic_groups(
    workload: &Workload,
    jobs: &[Job],
    seed: u64,
    pass: &TracedPass,
) -> Result<Vec<(String, Traffic)>, String> {
    // (model, policy, traffic, simulated cycles of the group's jobs)
    let mut groups: Vec<(usize, PolicyKind, Traffic, u64)> = Vec::new();
    for (job, result) in jobs.iter().zip(&pass.results) {
        let Some(r) = result else { continue };
        let at = groups
            .iter()
            .position(|(m, p, _, _)| *m == job.model && *p == job.policy);
        let i = match at {
            Some(i) => i,
            None => {
                let built = build(workload, job, seed)?;
                let traffic = Traffic {
                    topology: built.config().topology,
                    link: built.config().link.clone(),
                    mix: [0; 4],
                    per_cycle: 0.0,
                    total: 0,
                };
                groups.push((job.model, job.policy, traffic, 0));
                groups.len() - 1
            }
        };
        let (_, _, t, cycles) = &mut groups[i];
        for (sum, x) in t.mix.iter_mut().zip(r.net.transfers) {
            *sum += x;
        }
        t.total += r.net.total_transfers();
        *cycles += r.cycles;
    }
    Ok(groups
        .into_iter()
        .map(|(m, p, mut t, cycles)| {
            t.per_cycle = t.total as f64 / cycles as f64;
            let key = format!(
                "{}/{}/{}/{}/{}/replay.network/{seed}",
                workload.name,
                workload.models[m].name(),
                p.name(),
                workload.topology,
                workload.faults.unwrap_or("none"),
            );
            (key, t)
        })
        .collect())
}
