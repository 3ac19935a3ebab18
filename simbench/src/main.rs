//! Benchmark of the heterowire simulator: host speed end to end and per
//! layer, plus the simulated results' fidelity, on three fabric
//! workloads. See `README.md` beside this package.
//!
//! ```text
//! cargo run --release --manifest-path simbench/Cargo.toml -- \
//!     --workload paper_xbar4 --seed 1 --seconds 30 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the exit code is non-zero when any
//! output check fails.

use std::path::PathBuf;
use std::time::Instant;

use heterowire_bench::executor;
use heterowire_core::SimResults;
use heterowire_simbench::grid::{Job, Workload, DEFAULT_SEED, NAMES, WARMUP, WINDOW};
use heterowire_simbench::spans::SpanLog;
use heterowire_simbench::traced::{self, LayerCosts, TracedPass};
use heterowire_simbench::{host, measure, stats};
use heterowire_telemetry::json::JsonWriter;

const USAGE: &str = "usage: heterowire-simbench [--workload <name>|all] [--seed <n>] \
[--seconds <s>] [--trace <0|1>] [--spans <file>] [--digests <file>] \
[--record-digests <file>] [--limit-jobs <n>]
workloads: paper_xbar4, policy_hier16, wide_faults_ring64 (default: all)";

/// Digests of every workload's results for the default seed, one
/// `<workload> <seed> <jobs> <digest>` line each.
const STORED_DIGESTS: &str = include_str!("../digests.txt");

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<PathBuf>,
    digests: Option<PathBuf>,
    record_digests: Option<PathBuf>,
    limit_jobs: Option<usize>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: "all".to_string(),
        seed: DEFAULT_SEED,
        seconds: 30.0,
        trace: false,
        spans: None,
        digests: None,
        record_digests: None,
        limit_jobs: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let number = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: {v:?} is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => a.workload = value()?.clone(),
            "--seed" => a.seed = number(value()?)?,
            "--seconds" => {
                let v = value()?;
                a.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or(format!("--seconds: {v:?} is not a positive number"))?;
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace: expected 0 or 1, got {v:?}")),
                }
            }
            "--spans" => a.spans = Some(value()?.into()),
            "--digests" => a.digests = Some(value()?.into()),
            "--record-digests" => a.record_digests = Some(value()?.into()),
            "--limit-jobs" => {
                let n = number(value()?)?;
                a.limit_jobs = Some(
                    usize::try_from(n)
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or("--limit-jobs: expected a positive number of jobs".to_string())?,
                );
            }
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if a.workload != "all" && Workload::by_name(&a.workload).is_none() {
        return Err(format!("unknown workload {:?}", a.workload));
    }
    Ok(a)
}

/// One reported metric; `None` means unavailable on this host.
#[derive(Debug, Clone)]
struct Metric {
    name: &'static str,
    value: Option<f64>,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value: Some(value),
        unit,
    }
}

/// Everything one workload run produced.
#[derive(Debug)]
struct Report {
    workload: &'static str,
    attempted: u64,
    failed: u64,
    /// Why checks failed (empty when every check passed).
    problems: Vec<String>,
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
}

impl Report {
    fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }
}

/// Looks up the stored digest of a (workload, seed, job count).
fn stored_digest(text: &str, workload: &str, seed: u64, jobs: usize) -> Option<String> {
    let key = [workload.to_string(), seed.to_string(), jobs.to_string()];
    text.lines()
        .map(|l| l.split_whitespace().collect::<Vec<_>>())
        .find(|f| f.len() == 4 && f[..3] == key)
        .map(|f| f[3].to_string())
}

fn select_jobs(workload: &Workload, limit: Option<usize>) -> Vec<Job> {
    let jobs = workload.jobs();
    match limit {
        // Spread a limited grid over models, policies and profiles.
        Some(n) if n < jobs.len() => {
            let step = jobs.len() / n;
            jobs.into_iter().step_by(step).take(n).collect()
        }
        _ => jobs,
    }
}

fn run_workload(workload: &Workload, args: &Args, digests: &str) -> Report {
    let origin = Instant::now();
    let seed = args.seed;
    let jobs = select_jobs(workload, args.limit_jobs);
    let workers = executor::default_workers();
    let mut failures: Vec<Option<String>> = vec![None; jobs.len()];
    let mut problems = Vec::new();

    let (setup_s, ctor_us_per_job, bad_setup) = measure::setup_pass(workload, &jobs, seed);
    for i in bad_setup {
        failures[i] = Some("set-up failed".to_string());
    }
    let sweeps = measure::sweeps(workload, &jobs, seed, workers, args.seconds);
    let peak_rss_mb = host::peak_rss_mb();

    // Output checks: every job commits exactly the window without a
    // stall, and every sweep reproduces the first bit for bit.
    let first = &sweeps[0].records;
    for (i, rec) in first.iter().enumerate() {
        let why = match &rec.result {
            Err(e) => Some(e.clone()),
            Ok(r) if r.instructions != WINDOW => Some(format!(
                "committed {} instructions, expected {WINDOW}",
                r.instructions
            )),
            Ok(r) => {
                let json = r.to_json();
                sweeps[1..]
                    .iter()
                    .any(|s| {
                        s.records[i].result.as_ref().map(SimResults::to_json) != Ok(json.clone())
                    })
                    .then(|| "results differ between sweeps".to_string())
            }
        };
        if let Some(why) = why {
            failures[i].get_or_insert(why);
        }
    }
    let ok: Vec<usize> = (0..jobs.len()).filter(|&i| failures[i].is_none()).collect();
    let ok_jobs: Vec<Job> = ok.iter().map(|&i| jobs[i].clone()).collect();
    let ok_results: Vec<SimResults> = ok
        .iter()
        .filter_map(|&i| first[i].result.as_ref().ok().copied())
        .collect();
    let figs = measure::figures(&sweeps, &ok);

    if ok.len() == jobs.len() {
        let digest = stats::digest(&ok_results);
        if let Some(path) = &args.record_digests {
            let line = format!("{} {seed} {} {digest}\n", workload.name, jobs.len());
            if let Err(e) = append(path, &line) {
                problems.push(format!("cannot record digest in {}: {e}", path.display()));
            }
        }
        if let Some(stored) = stored_digest(digests, workload.name, seed, jobs.len()) {
            if stored != digest {
                problems.push(format!(
                    "digest {digest} differs from the stored {stored} for seed {seed}"
                ));
                for f in failures.iter_mut() {
                    f.get_or_insert_with(|| "workload digest mismatch".to_string());
                }
            }
        }
    }

    let mut end_to_end = Vec::new();
    if let Some(f) = figs {
        let instructions: u64 = ok_results.iter().map(|r| r.instructions).sum();
        let energy: f64 = ok_results.iter().map(SimResults::ic_dynamic_energy).sum();
        end_to_end = vec![
            metric("sim_kips", f.sim_kips, "kinst/s"),
            metric("sweep_s", f.sweep_s, "s"),
            metric("job_p50_ms", f.job_p50_ms, "ms"),
            metric("job_p90_ms", f.job_p90_ms, "ms"),
            metric("setup_s", setup_s, "s"),
            Metric {
                name: "peak_rss_mb",
                value: peak_rss_mb,
                unit: "MB",
            },
            metric(
                "ipc_mean",
                heterowire_core::mean_ipc(&ok_results),
                "inst/cycle",
            ),
            metric(
                "ic_dyn_energy_per_inst",
                energy / instructions.max(1) as f64,
                "energy/inst",
            ),
            Metric {
                name: "paper_ipc_err_pct",
                value: workload.paper_ipc_err_pct(&ok_jobs, &ok_results),
                unit: "%",
            },
        ];
    }
    eprintln!(
        "{}: {} jobs x {} sweeps on {workers} workers, seed {seed}",
        workload.name,
        jobs.len(),
        sweeps.len()
    );

    let mut attempted = jobs.len() as u64;
    let mut failed_replays = 0;
    let mut per_layer = Vec::new();
    if args.trace {
        let mut spans = SpanLog::new(origin);
        let pass = traced::traced_pass(workload, &jobs, seed, first, &mut spans);
        for (i, why) in &pass.failures {
            failures[*i].get_or_insert_with(|| why.clone());
        }
        match traced::replays(workload, &jobs, seed, &pass, &mut spans) {
            Ok(costs) => {
                attempted += costs.replays;
                let faults_per_job = sweeps[0].minor_faults.map(|f| f as f64 / jobs.len() as f64);
                per_layer = layer_metrics(&pass, &costs, ctor_us_per_job, faults_per_job, figs);
            }
            Err(e) => {
                attempted += 1;
                failed_replays += 1;
                problems.push(e);
            }
        }
        let path = args.spans.clone().unwrap_or_else(|| {
            PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
                .join(format!("spans-{}-seed{seed}.json", workload.name))
        });
        match write_file(&path, &spans.to_json(&pass.counts.named())) {
            Ok(()) => eprintln!(
                "{}: {} spans -> {}",
                workload.name,
                spans.count(),
                path.display()
            ),
            Err(e) => problems.push(format!("cannot write spans to {}: {e}", path.display())),
        }
    }

    let failed_jobs: Vec<String> = failures
        .iter()
        .enumerate()
        .filter_map(|(i, f)| {
            f.as_ref()
                .map(|why| format!("{}: {why}", workload.job_key(&jobs[i], seed)))
        })
        .collect();
    for f in failed_jobs.iter().take(5) {
        eprintln!("FAILED {f}");
    }
    Report {
        workload: workload.name,
        attempted,
        failed: failed_jobs.len() as u64 + failed_replays,
        problems,
        end_to_end,
        per_layer,
    }
}

fn layer_metrics(
    pass: &TracedPass,
    costs: &LayerCosts,
    ctor_us_per_job: f64,
    faults_per_job: Option<f64>,
    figs: Option<measure::SweepFigures>,
) -> Vec<Metric> {
    let c = &pass.counts;
    let results: Vec<&SimResults> = pass.results.iter().flatten().collect();
    let sum = |f: fn(&SimResults) -> u64| results.iter().map(|r| f(r)).sum::<u64>() as f64;
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    let all_insts = pass.ok_jobs as f64 * (WINDOW + WARMUP) as f64;
    let ns_per_inst = ratio(pass.untraced_run_ns, all_insts);
    let replayed_per_inst = costs.trace_ns_per_op
        + costs.frontend_ns_per_op
        + costs.memops_per_op * (costs.lsq_ns_per_memop + costs.cache_ns_per_access)
        + ratio(c.enqueue as f64, all_insts) * costs.net_ns_per_transfer;
    let (speedup, idle) = figs.map_or((None, None), |f| {
        (Some(f.executor_speedup), Some(f.worker_idle_frac))
    });
    vec![
        metric("trace.ns_per_op", costs.trace_ns_per_op, "ns"),
        metric("frontend.ns_per_op", costs.frontend_ns_per_op, "ns"),
        metric(
            "frontend.mispredict_rate",
            ratio(sum(|r| r.fetch.mispredicts), sum(|r| r.fetch.branches)),
            "ratio",
        ),
        metric("memory.lsq_ns_per_memop", costs.lsq_ns_per_memop, "ns"),
        metric(
            "memory.cache_ns_per_access",
            costs.cache_ns_per_access,
            "ns",
        ),
        metric(
            "memory.partial_ready_frac",
            ratio(c.lsq_partial_ready as f64, c.lsq_full_ready as f64),
            "ratio",
        ),
        metric(
            "memory.false_dep_rate",
            ratio(sum(|r| r.lsq.false_dependences), sum(|r| r.lsq.loads)),
            "ratio",
        ),
        metric(
            "interconnect.ns_per_transfer",
            costs.net_ns_per_transfer,
            "ns",
        ),
        metric(
            "interconnect.transfers_per_inst",
            ratio(sum(|r| r.net.total_transfers()), sum(|r| r.instructions)),
            "xfer/inst",
        ),
        metric(
            "interconnect.queue_cycles_per_transfer",
            ratio(c.queued_cycles as f64, c.depart as f64),
            "cycles/xfer",
        ),
        metric(
            "interconnect.retransmit_frac",
            ratio(c.retransmit as f64, c.enqueue as f64),
            "ratio",
        ),
        metric(
            "interconnect.overflow_frac",
            ratio(c.steer_overflow as f64, c.enqueue as f64),
            "ratio",
        ),
        metric("core.ns_per_inst", ns_per_inst, "ns"),
        metric(
            "core.residual_ns_per_inst",
            ns_per_inst - replayed_per_inst,
            "ns",
        ),
        metric(
            "core.executed_cycle_frac",
            ratio(c.occupancy as f64, pass.sim_cycles as f64),
            "ratio",
        ),
        metric(
            "core.steer_stall_frac",
            ratio(c.steer_stall as f64, c.steer as f64),
            "ratio",
        ),
        metric("core.setup_us_per_job", ctor_us_per_job, "us"),
        Metric {
            name: "core.page_faults_per_job",
            value: faults_per_job,
            unit: "faults/job",
        },
        Metric {
            name: "bench.executor_speedup",
            value: speedup,
            unit: "x",
        },
        Metric {
            name: "bench.worker_idle_frac",
            value: idle,
            unit: "ratio",
        },
        metric(
            "telemetry.overhead",
            ratio(pass.traced_run_ns, pass.untraced_run_ns),
            "x",
        ),
    ]
}

fn append(path: &std::path::Path, text: &str) -> std::io::Result<()> {
    use std::io::Write;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    f.write_all(text.as_bytes())?;
    f.flush()
}

fn write_file(path: &std::path::Path, text: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text)
}

/// The result line: `metrics` maps each name to its value and unit.
fn result_json<'a>(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: impl Iterator<Item = (String, &'a Metric)>,
) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("correct").bool(correct);
    w.key("attempted").u64(attempted);
    w.key("failed").u64(failed);
    w.key("metrics").begin_object();
    for (name, m) in metrics {
        w.key(&name).begin_object();
        match m.value {
            Some(v) => w.key("value").f64(v),
            None => w.key("value").raw("null"),
        };
        w.key("unit").string(m.unit);
        w.end_object();
    }
    w.end_object();
    w.end_object();
    w.finish()
}

fn print_metrics(r: &Report) {
    for m in r.end_to_end.iter().chain(&r.per_layer) {
        match m.value {
            Some(v) => println!("{:<20} {:<40} {v:>14.6} {}", r.workload, m.name, m.unit),
            None => println!(
                "{:<20} {:<40} {:>14} {}",
                r.workload, m.name, "unavailable", m.unit
            ),
        }
    }
    for p in &r.problems {
        println!("{:<20} CHECK FAILED: {p}", r.workload);
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) if e.is_empty() => {
            println!("{USAGE}");
            return;
        }
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let digests = match &args.digests {
        None => STORED_DIGESTS.to_string(),
        Some(path) => match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("cannot read digests {}: {e}", path.display());
                std::process::exit(2);
            }
        },
    };
    let names: Vec<&str> = if args.workload == "all" {
        NAMES.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let reports: Vec<Report> = names
        .iter()
        .map(|name| {
            let w = Workload::by_name(name).expect("workload names were validated");
            let r = run_workload(&w, &args, &digests);
            print_metrics(&r);
            r
        })
        .collect();

    let correct = reports.iter().all(Report::correct);
    let attempted = reports.iter().map(|r| r.attempted).sum();
    let failed = reports.iter().map(|r| r.failed).sum();
    // A single workload reports bare metric names: end-to-end untraced,
    // per-layer traced. `all` prefixes each name with its workload and
    // reports both sets.
    let line = if let [r] = reports.as_slice() {
        let set = if args.trace {
            &r.per_layer
        } else {
            &r.end_to_end
        };
        result_json(
            correct,
            attempted,
            failed,
            set.iter().map(|m| (m.name.to_string(), m)),
        )
    } else {
        result_json(
            correct,
            attempted,
            failed,
            reports.iter().flat_map(|r| {
                r.end_to_end
                    .iter()
                    .chain(&r.per_layer)
                    .map(move |m| (format!("{}/{}", r.workload, m.name), m))
            }),
        )
    };
    println!("{line}");
    if !correct {
        std::process::exit(1);
    }
}
