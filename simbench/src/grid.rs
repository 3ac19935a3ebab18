//! The three workloads, their job grids, and the per-job set-up and run
//! calls into the simulator's public API.
//!
//! One job is one (model, policy, topology, fault spec, SPEC2000 profile)
//! run. The benchmark builds each job's `ProcessorConfig`, `TraceGenerator`
//! and `Processor` itself rather than going through `bench::run_one*`,
//! because those hard-code the experiment seed and time nothing.

use std::sync::Arc;
use std::time::Instant;

use heterowire_bench::{degraded_config, parse_topology_token, PolicyKind};
use heterowire_core::{
    CriticalityPolicy, FaultModel, FaultSpec, ModelSpec, NullFaultModel, OraclePolicy, PaperPolicy,
    Probe, Processor, ProcessorConfig, PwFirstPolicy, SimResults, SprayPolicy, TransferPolicy,
};
use heterowire_trace::{spec2000, BenchmarkProfile, TraceGenerator};

/// Measured instructions per job (the repository's quick scale).
pub const WINDOW: u64 = 10_000;
/// Warm-up instructions per job, simulated but excluded from `SimResults`.
pub const WARMUP: u64 = 3_000;
/// Seed whose per-workload digests are stored in `digests.txt`.
pub const DEFAULT_SEED: u64 = 1;

/// Workload names, in the order `--workload all` runs them.
pub const NAMES: [&str; 3] = ["paper_xbar4", "policy_hier16", "wide_faults_ring64"];

/// Published Table-3 IPC of Models I–X on the paper's 4-cluster machine.
const TABLE3_IPC: [f64; 10] = [0.95, 0.92, 0.96, 0.98, 0.97, 0.97, 0.99, 0.99, 1.01, 1.00];
/// Published Table-4 IPC of Model X on the paper's 16-cluster machine.
const TABLE4_X_IPC: f64 = 1.19;

/// One workload: a grid of models × policies over one topology and fault
/// spec, every job running all 23 SPEC2000 profiles.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Workload name as given to `--workload`.
    pub name: &'static str,
    /// Topology token, parsed once per job as part of its set-up.
    pub topology: &'static str,
    /// Fault spec without its `seed:` item (the workload seed is appended).
    pub faults: Option<&'static str>,
    /// Models, in grid order.
    pub models: Vec<ModelSpec>,
    /// Policies, in grid order.
    pub policies: Vec<PolicyKind>,
}

/// One simulation job of a workload grid.
#[derive(Debug, Clone)]
pub struct Job {
    /// Index of the model in [`Workload::models`].
    pub model: usize,
    /// Steering policy.
    pub policy: PolicyKind,
    /// SPEC2000 profile driving the trace.
    pub profile: BenchmarkProfile,
}

impl Workload {
    /// The named workload, or `None` for an unknown name.
    pub fn by_name(name: &str) -> Option<Self> {
        let model_x = || vec![ModelSpec::parse("X").expect("Model X is a preset")];
        let (name, topology, faults, models, policies) = match name {
            "paper_xbar4" => (
                "paper_xbar4",
                "crossbar4",
                None,
                ModelSpec::paper_presets(),
                vec![PolicyKind::Paper],
            ),
            "policy_hier16" => (
                "policy_hier16",
                "hier16",
                None,
                model_x(),
                PolicyKind::ALL.to_vec(),
            ),
            "wide_faults_ring64" => (
                "wide_faults_ring64",
                "ring:16x4",
                Some("l@1e-3+b@1e-5+lane:L1@stuck"),
                model_x(),
                PolicyKind::ALL.to_vec(),
            ),
            _ => return None,
        };
        Some(Workload {
            name,
            topology,
            faults,
            models,
            policies,
        })
    }

    /// Every job of the grid, model-major, then policy, then profile.
    pub fn jobs(&self) -> Vec<Job> {
        let profiles = spec2000();
        let mut jobs = Vec::new();
        for model in 0..self.models.len() {
            for &policy in &self.policies {
                for &profile in &profiles {
                    jobs.push(Job {
                        model,
                        policy,
                        profile,
                    });
                }
            }
        }
        jobs
    }

    /// The fault spec token for `seed`, if the workload injects faults.
    pub fn fault_token(&self, seed: u64) -> Option<String> {
        self.faults.map(|f| format!("{f}+seed:{seed}"))
    }

    /// The span/job identifier of one job: (workload, model, policy,
    /// topology, faults, profile, seed).
    pub fn job_key(&self, job: &Job, seed: u64) -> String {
        format!(
            "{}/{}/{}/{}/{}/{}/{}",
            self.name,
            self.models[job.model].name(),
            job.policy.name(),
            self.topology,
            self.faults.unwrap_or("none"),
            job.profile.name,
            seed
        )
    }

    /// Mean |measured − published| / published IPC, in percent, over the
    /// paper-policy jobs. `paper_xbar4` compares each model's arithmetic
    /// mean IPC with the Table-3 column; the other workloads compare Model
    /// X with the single Table-4 value (the paper's largest machine).
    /// `None` when `jobs` holds no paper-policy job.
    pub fn paper_ipc_err_pct(&self, jobs: &[Job], results: &[SimResults]) -> Option<f64> {
        let mut errs = Vec::new();
        for (m, spec) in self.models.iter().enumerate() {
            let ipcs: Vec<f64> = jobs
                .iter()
                .zip(results)
                .filter(|(j, _)| j.model == m && j.policy == PolicyKind::Paper)
                .map(|(_, r)| r.ipc())
                .collect();
            if ipcs.is_empty() {
                continue;
            }
            let published = if self.name == "paper_xbar4" {
                TABLE3_IPC[m]
            } else {
                debug_assert_eq!(spec.name(), "X");
                TABLE4_X_IPC
            };
            let mean = ipcs.iter().sum::<f64>() / ipcs.len() as f64;
            errs.push((mean - published).abs() / published * 100.0);
        }
        (!errs.is_empty()).then(|| errs.iter().sum::<f64>() / errs.len() as f64)
    }
}

/// A job's configuration, trace and fault spec, built from tokens.
pub struct Built {
    config: Arc<ProcessorConfig>,
    trace: TraceGenerator,
    faults: Option<FaultSpec>,
}

impl Built {
    /// The job's processor configuration.
    pub fn config(&self) -> &ProcessorConfig {
        &self.config
    }

    /// The job's fault spec, if the workload injects faults.
    pub fn faults(&self) -> Option<&FaultSpec> {
        self.faults.as_ref()
    }
}

/// The set-up calls before the constructor: topology token parse, fault
/// spec parse, `degraded_config` and `TraceGenerator::new`.
pub fn build(workload: &Workload, job: &Job, seed: u64) -> Result<Built, String> {
    let topology = parse_topology_token(workload.topology)?.topology();
    let faults = match workload.fault_token(seed) {
        Some(token) => Some(FaultSpec::parse(&token).map_err(|e| format!("{token:?}: {e}"))?),
        None => None,
    };
    let config = degraded_config(&workload.models[job.model], topology, faults.as_ref())?;
    Ok(Built {
        config: Arc::new(config),
        trace: TraceGenerator::new(job.profile, seed),
        faults,
    })
}

/// What constructing (and optionally running) one processor produced.
#[derive(Debug)]
pub struct Outcome<P> {
    /// `None` when only the constructor ran; a watchdog stall is `Err`.
    pub result: Option<Result<SimResults, String>>,
    /// When the policy and `Processor` constructors started.
    pub ctor_start: Instant,
    /// When the constructors returned.
    pub ctor_end: Instant,
    /// When `Processor::try_run` returned (`ctor_end` if it did not run).
    pub run_end: Instant,
    /// The probe, taken back out of the processor.
    pub probe: P,
}

/// Constructs the job's processor through `Processor::with_faults_shared`
/// with the job's policy and fault model, and runs it when `run` is set.
pub fn construct<P: Probe + Default>(
    built: Built,
    policy: PolicyKind,
    probe: P,
    run: bool,
) -> Outcome<P> {
    let Built {
        config,
        trace,
        faults,
    } = built;
    // Transient-free specs take the fault-free construction path, exactly
    // as `bench::run_one_policy_faults` does.
    match faults.filter(FaultSpec::has_transient) {
        Some(spec) => by_policy(config, trace, probe, policy, spec.injector(), run),
        None => by_policy(config, trace, probe, policy, NullFaultModel, run),
    }
}

fn by_policy<P: Probe + Default, F: FaultModel>(
    config: Arc<ProcessorConfig>,
    trace: TraceGenerator,
    probe: P,
    policy: PolicyKind,
    faults: F,
    run: bool,
) -> Outcome<P> {
    match policy {
        PolicyKind::Paper => drive(config, trace, probe, PaperPolicy::new, faults, run),
        PolicyKind::Spray => drive(
            config,
            trace,
            probe,
            |c| SprayPolicy::new(&c.link),
            faults,
            run,
        ),
        PolicyKind::Criticality => drive(config, trace, probe, CriticalityPolicy::new, faults, run),
        PolicyKind::PwFirst => drive(config, trace, probe, PwFirstPolicy::new, faults, run),
        PolicyKind::Oracle => drive(config, trace, probe, OraclePolicy::new, faults, run),
    }
}

fn drive<P: Probe + Default, T: TransferPolicy, F: FaultModel>(
    config: Arc<ProcessorConfig>,
    trace: TraceGenerator,
    probe: P,
    make_policy: impl FnOnce(&ProcessorConfig) -> T,
    faults: F,
    run: bool,
) -> Outcome<P> {
    let ctor_start = Instant::now();
    let policy = make_policy(&config);
    let mut cpu = Processor::with_faults_shared(config, trace, probe, policy, faults);
    let ctor_end = Instant::now();
    let result = run.then(|| {
        cpu.try_run(WINDOW, WARMUP)
            .map_err(|stall| stall.to_string())
    });
    let run_end = Instant::now();
    Outcome {
        result,
        ctor_start,
        ctor_end,
        run_end,
        probe: std::mem::take(cpu.probe_mut()),
    }
}
