//! The untraced measurement: repeated set-up passes, then repeated sweeps
//! of the whole grid on `bench::executor`, each job timed on its worker.

use std::thread::ThreadId;
use std::time::{Duration, Instant};

use heterowire_bench::executor;
use heterowire_core::{NullProbe, SimResults};

use crate::grid::{build, construct, Job, Workload, WARMUP, WINDOW};
use crate::host::minor_faults;
use crate::stats::{median, percentile};

/// Set-up passes repeat until both bounds are met; `setup_s` is their
/// median.
const SETUP_MIN_REPS: usize = 7;
const SETUP_MIN_SECONDS: f64 = 0.5;

/// One untraced job: its result and host timings.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// The run's results; `Err` for a stall, a set-up error or a panic.
    pub result: Result<SimResults, String>,
    /// `Processor::try_run` alone.
    pub run_ns: f64,
    /// Set-up plus run (plus dropping the processor).
    pub total_ns: f64,
    /// When the job finished, and on which worker (`None` if it panicked).
    pub end: Option<(Instant, ThreadId)>,
}

/// Builds, constructs and runs one job without a probe.
pub fn run_job(workload: &Workload, job: &Job, seed: u64) -> JobRecord {
    let start = Instant::now();
    let built = match build(workload, job, seed) {
        Ok(b) => b,
        Err(e) => return failed(e),
    };
    let out = construct(built, job.policy, NullProbe, true);
    let end = Instant::now();
    let ns = |a: Instant, b: Instant| b.duration_since(a).as_nanos() as f64;
    JobRecord {
        result: out.result.expect("construct ran the job"),
        run_ns: ns(out.ctor_end, out.run_end),
        total_ns: ns(start, end),
        end: Some((end, std::thread::current().id())),
    }
}

fn failed(why: String) -> JobRecord {
    JobRecord {
        result: Err(why),
        run_ns: 0.0,
        total_ns: 0.0,
        end: None,
    }
}

/// Set-up cost of the whole grid: the median over repeated serial passes
/// of (total set-up seconds, constructor microseconds per job). Jobs
/// whose set-up fails are returned by index.
pub fn setup_pass(workload: &Workload, jobs: &[Job], seed: u64) -> (f64, f64, Vec<usize>) {
    let mut totals = Vec::new();
    let mut ctors = Vec::new();
    let mut bad = Vec::new();
    let start = Instant::now();
    while totals.len() < SETUP_MIN_REPS || start.elapsed().as_secs_f64() < SETUP_MIN_SECONDS {
        let (mut total, mut ctor) = (Duration::ZERO, Duration::ZERO);
        bad.clear();
        for (i, job) in jobs.iter().enumerate() {
            let start = Instant::now();
            match build(workload, job, seed) {
                Ok(built) => {
                    let out = construct(built, job.policy, NullProbe, false);
                    total += out.ctor_end - start;
                    ctor += out.ctor_end - out.ctor_start;
                }
                Err(_) => bad.push(i),
            }
        }
        totals.push(total.as_secs_f64());
        ctors.push(ctor.as_secs_f64() * 1e6 / jobs.len() as f64);
    }
    (median(&totals), median(&ctors), bad)
}

/// One sweep of the whole grid on the executor.
#[derive(Debug)]
pub struct Sweep {
    pub records: Vec<JobRecord>,
    pub wall_ns: f64,
    pub workers: usize,
    /// Minor page faults the process took during the sweep (`None`
    /// without `/proc`).
    pub minor_faults: Option<u64>,
    end: Instant,
}

/// Runs every job once on `workers` executor threads.
pub fn sweep(workload: &Workload, jobs: &[Job], seed: u64, workers: usize) -> Sweep {
    let faults_before = minor_faults();
    let start = Instant::now();
    let records = executor::run_indexed_catching(jobs.iter().collect(), workers, |job| {
        run_job(workload, job, seed)
    })
    .into_iter()
    .map(|r| r.unwrap_or_else(|panic| failed(panic.to_string())))
    .collect();
    let end = Instant::now();
    Sweep {
        records,
        wall_ns: end.duration_since(start).as_nanos() as f64,
        workers: workers.clamp(1, jobs.len().max(1)),
        minor_faults: faults_before.zip(minor_faults()).map(|(a, b)| b - a),
        end,
    }
}

/// Host-time figures of the sweeps of one run.
#[derive(Debug, Clone, Copy)]
pub struct SweepFigures {
    /// Instructions (warm-up included) per second of `Processor::run`,
    /// in thousands, from each job's median run time.
    pub sim_kips: f64,
    /// Median wall-clock time of a sweep.
    pub sweep_s: f64,
    /// Percentiles over jobs of each job's median set-up plus run time.
    pub job_p50_ms: f64,
    pub job_p90_ms: f64,
    /// Median over sweeps of summed job time ÷ sweep wall time.
    pub executor_speedup: f64,
    /// Median over sweeps of the share of worker time spent idle after
    /// the worker's last job.
    pub worker_idle_frac: f64,
}

impl Sweep {
    /// (summed job time ÷ wall time, idle share of worker time).
    fn occupancy(&self) -> (f64, f64) {
        let busy_ns: f64 = self.records.iter().map(|r| r.total_ns).sum();
        let mut last_end: Vec<(ThreadId, Instant)> = Vec::new();
        for (t, id) in self.records.iter().filter_map(|r| r.end) {
            match last_end.iter_mut().find(|(w, _)| *w == id) {
                Some((_, e)) => *e = (*e).max(t),
                None => last_end.push((id, t)),
            }
        }
        let never_ran = self.workers.saturating_sub(last_end.len()) as f64 * self.wall_ns;
        let idle_ns: f64 = last_end
            .iter()
            .map(|&(_, e)| self.end.duration_since(e).as_nanos() as f64)
            .sum::<f64>()
            + never_ran;
        (
            busy_ns / self.wall_ns,
            idle_ns / (self.workers as f64 * self.wall_ns),
        )
    }
}

/// Sweeps the grid repeatedly until another sweep would overrun
/// `seconds` (always at least one sweep).
pub fn sweeps(
    workload: &Workload,
    jobs: &[Job],
    seed: u64,
    workers: usize,
    seconds: f64,
) -> Vec<Sweep> {
    let start = Instant::now();
    let mut out = Vec::new();
    loop {
        let s = sweep(workload, jobs, seed, workers);
        eprintln!(
            "{}: sweep {} took {:.3} s",
            workload.name,
            out.len() + 1,
            s.wall_ns / 1e9
        );
        out.push(s);
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed + elapsed / out.len() as f64 > seconds {
            return out;
        }
    }
}

/// The run's figures over the jobs `ok` (jobs that succeeded in every
/// sweep): per-job medians across sweeps first, so one disturbed sweep
/// moves no figure. `None` when no job succeeded.
pub fn figures(sweeps: &[Sweep], ok: &[usize]) -> Option<SweepFigures> {
    if ok.is_empty() {
        return None;
    }
    let per_job = |f: fn(&JobRecord) -> f64| -> Vec<f64> {
        ok.iter()
            .map(|&i| median(&sweeps.iter().map(|s| f(&s.records[i])).collect::<Vec<_>>()))
            .collect()
    };
    let run_ns: f64 = per_job(|r| r.run_ns).iter().sum();
    let job_ns = per_job(|r| r.total_ns);
    let over_sweeps = |f: fn(&Sweep) -> f64| median(&sweeps.iter().map(f).collect::<Vec<_>>());
    Some(SweepFigures {
        sim_kips: ok.len() as f64 * (WINDOW + WARMUP) as f64 * 1e6 / run_ns,
        sweep_s: over_sweeps(|s| s.wall_ns / 1e9),
        job_p50_ms: percentile(&job_ns, 50.0) / 1e6,
        job_p90_ms: percentile(&job_ns, 90.0) / 1e6,
        executor_speedup: over_sweeps(|s| s.occupancy().0),
        worker_idle_frac: over_sweeps(|s| s.occupancy().1),
    })
}
