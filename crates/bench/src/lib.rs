//! # heterowire-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! HPCA-11 2005 wire-management paper from the `heterowire` simulator:
//!
//! | Binary         | Regenerates |
//! |----------------|-------------|
//! | `table2`       | Table 2 (wire parameters, derived from physics) |
//! | `fig3`         | Figure 3 (per-benchmark IPC, baseline vs +L-Wires) |
//! | `table3`       | Table 3 (Models I–X on 4 clusters) |
//! | `table4`       | Table 4 (Models I–X on 16 clusters) |
//! | `sensitivity`  | §1/§5.3 scalar claims (2x latency, 4→16 clusters, predictor and LSQ rates) |
//! | `ablation`     | design-choice sweeps (LS bits, balancer, narrow threshold, per-optimization) |
//! | `policy_ab`    | the five steering policies raced per model and topology (IPC, traffic mix, ED²) |
//! | `fault_sweep`  | each policy's IPC / ED² degradation across a wire-fault grid |
//! | `sweep_timing` | wall-clock of the quick model sweep, serial loop vs executor (`sweep_timing.csv`, `bench.json`) |
//! | `telemetry`    | one recorded run as a Perfetto `trace.json` plus `utilization.csv` |
//!
//! The library is the one code path the binaries, the integration tests
//! and the timing benches share, in three layers:
//!
//! * **one run function**, [`run_one_policy_faults`]: one benchmark on one
//!   configuration under a steering policy and an optional fault scenario;
//! * **one sweep**, [`sweep`]: a list of [`Cell`]s (configuration × policy
//!   × fault scenario), each over the 23-benchmark suite, as one flat job
//!   list on the work-queue [`executor`] — [`sweep_serial`] is its plain-loop
//!   reference;
//! * **one argv parser**, [`Grammar::parse`]: each binary declares its
//!   flags and their defaults as a [`Grammar`], and every argv or
//!   `HETEROWIRE_SCALE` error exits 2 with usage before anything runs.
//!
//! Wall-clock measurement lives in [`timing`].

pub mod executor;
pub mod timing;

use std::path::Path;
use std::sync::Arc;

use heterowire_core::{
    mean_report, relative_report, CriticalityPolicy, EnergyParams, FaultSpec, InjectedFaults,
    ModelSpec, NullFaultModel, NullProbe, Optimizations, OraclePolicy, PaperPolicy, Processor,
    ProcessorConfig, PwFirstPolicy, RelativeReport, SimResults, SprayPolicy, StallReport,
    TransferPolicy,
};
use heterowire_interconnect::{Topology, TopologySpec};
use heterowire_telemetry::json::JsonWriter;
use heterowire_trace::{by_name, spec2000, BenchmarkProfile, TraceGenerator};
use heterowire_wires::classes::Table2Row;
use heterowire_wires::WireClass;

/// Default committed-instruction window per benchmark.
pub const DEFAULT_WINDOW: u64 = 100_000;
/// Default warmup (excluded from statistics).
pub const DEFAULT_WARMUP: u64 = 30_000;
/// Experiment seed (fixed for reproducibility).
pub const SEED: u64 = 0x5EED_2005;

/// The paper's Models I–X in table order: the default `--model` set of the
/// model sweeps (Model I, first, is the normalisation baseline).
pub const PAPER_MODELS: &[&str] = &["I", "II", "III", "IV", "V", "VI", "VII", "VIII", "IX", "X"];

/// Every steering policy, in race order: the default `--policy` list.
pub const ALL_POLICIES: &[&str] = &["paper", "spray", "criticality", "pwfirst", "oracle"];

/// Which workload scale to run at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunScale {
    /// Measured instructions per benchmark.
    pub window: u64,
    /// Warmup instructions per benchmark.
    pub warmup: u64,
}

impl RunScale {
    /// The full scale used for reported numbers.
    pub fn full() -> Self {
        RunScale {
            window: DEFAULT_WINDOW,
            warmup: DEFAULT_WARMUP,
        }
    }

    /// A fast scale for smoke tests and Criterion timing.
    pub fn quick() -> Self {
        RunScale {
            window: 10_000,
            warmup: 3_000,
        }
    }

    /// Maps a `HETEROWIRE_SCALE` value to a scale: `"quick"` and `"full"`
    /// select the matching preset, unset/empty defaults to full, and
    /// anything else is an error (a typo must not silently run the
    /// hour-long full scale).
    pub fn from_env_value(value: Option<&str>) -> Result<Self, String> {
        match value {
            None | Some("") | Some("full") => Ok(Self::full()),
            Some("quick") => Ok(Self::quick()),
            Some(other) => Err(format!(
                "unknown HETEROWIRE_SCALE value {other:?}; expected \"quick\" or \"full\""
            )),
        }
    }
}

/// A named steering policy the harness can race. Each kind maps to one
/// [`TransferPolicy`] implementation; [`run_one_policy_faults`] does the
/// monomorphized dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// The paper's wire management
    /// ([`PaperPolicy`]) — the default the
    /// whole repo runs, and the harness's usual baseline.
    Paper,
    /// Round-robin full-width spraying ([`SprayPolicy`]).
    Spray,
    /// Criticality-first L-Wire steering with wide-value splitting
    /// ([`CriticalityPolicy`]).
    Criticality,
    /// Bandwidth-aware PW-default inversion ([`PwFirstPolicy`]).
    PwFirst,
    /// Width + consumer-distance oracle upper bound ([`OraclePolicy`]).
    Oracle,
}

impl PolicyKind {
    /// Every racer, in the order the harness runs them by default.
    pub const ALL: [PolicyKind; 5] = [
        PolicyKind::Paper,
        PolicyKind::Spray,
        PolicyKind::Criticality,
        PolicyKind::PwFirst,
        PolicyKind::Oracle,
    ];

    /// The command-line token naming this policy.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Paper => "paper",
            PolicyKind::Spray => "spray",
            PolicyKind::Criticality => "criticality",
            PolicyKind::PwFirst => "pwfirst",
            PolicyKind::Oracle => "oracle",
        }
    }

    /// Parses one `--policy` token.
    pub fn parse(token: &str) -> Result<Self, String> {
        Self::ALL
            .into_iter()
            .find(|p| p.name() == token)
            .ok_or_else(|| {
                let known: Vec<_> = Self::ALL.iter().map(|p| p.name()).collect();
                format!(
                    "unknown policy {token:?}; expected one of {}",
                    known.join(", ")
                )
            })
    }

    /// The wire class without which this policy is meaningless (not merely
    /// degraded): criticality steering is *about* L-Wires, the PW-first
    /// inversion is *about* PW-Wires. `None` means the policy runs on any
    /// link (clamping to available planes where needed).
    pub fn required_class(self) -> Option<WireClass> {
        match self {
            PolicyKind::Criticality => Some(WireClass::L),
            PolicyKind::PwFirst => Some(WireClass::Pw),
            PolicyKind::Paper | PolicyKind::Spray | PolicyKind::Oracle => None,
        }
    }

    /// Refuses models that lack this policy's [`required_class`] entirely
    /// (the lane-starved `custom:` spec guard: the policies themselves
    /// degrade gracefully, but racing e.g. `pwfirst` on a B-only link
    /// measures nothing).
    ///
    /// [`required_class`]: PolicyKind::required_class
    pub fn check_supported(self, spec: &ModelSpec) -> Result<(), String> {
        if let Some(class) = self.required_class() {
            if spec.link().lanes(class) == 0 {
                return Err(format!(
                    "policy {:?} needs a {class} plane, which model {} lacks entirely",
                    self.name(),
                    spec.label(),
                ));
            }
        }
        Ok(())
    }
}

/// Resolves one `--topology` token: a preset name (`crossbar4`, `hier16`),
/// a compact spec (`xbar:8`, `ring:6x4[@hop<n>][@xbar<n>]`), or the path
/// of a key=value spec file. Tokens containing `:` are always treated as
/// specs; anything else that names an existing file is read as a spec
/// file.
pub fn parse_topology_token(token: &str) -> Result<TopologySpec, String> {
    let is_preset = heterowire_interconnect::TopologyPreset::ALL
        .iter()
        .any(|p| p.name() == token);
    let spec = if is_preset || token.contains(':') {
        TopologySpec::parse(token).map_err(|e| format!("--topology {token:?}: {e}"))?
    } else {
        let path = std::path::Path::new(token);
        if !path.is_file() {
            return Err(format!(
                "unknown topology {token:?}: not a preset (crossbar4, hier16), a spec \
                 (xbar:8, ring:6x4[@hop<n>][@xbar<n>]) or an existing spec file"
            ));
        }
        let contents = std::fs::read_to_string(path)
            .map_err(|e| format!("--topology: cannot read spec file {token:?}: {e}"))?;
        TopologySpec::parse_file(&contents)
            .map_err(|e| format!("--topology spec file {token:?}: {e}"))?
    };
    // Capacity (cluster cap, ring-quad bound) is the spec parser's job:
    // it runs the shared checker, whose message names the cap and the
    // offending count, so sweeps exit 2 with the same wording every
    // other layer uses.
    debug_assert!(spec.topology().clusters() <= heterowire_core::MAX_CLUSTERS);
    Ok(spec)
}

/// Builds the processor configuration for a model on a topology with a
/// fault scenario's stuck lanes already retired from the link — the
/// optimization set is recomputed for the surviving planes, so steering
/// policies and the load balancer see the degraded fabric, not the
/// nominal one. `None` (or a spec with no stuck lanes) reproduces
/// [`ProcessorConfig::for_model_spec`] exactly.
pub fn degraded_config(
    model: &ModelSpec,
    topology: Topology,
    faults: Option<&FaultSpec>,
) -> Result<ProcessorConfig, String> {
    let mut config = ProcessorConfig::for_model_spec(model, topology);
    if let Some(spec) = faults.filter(|s| !s.stuck_lanes().is_empty()) {
        let link = spec
            .apply_to_link(&config.link)
            .map_err(|e| e.to_string())?;
        config.opts = Optimizations::for_link(&link);
        config.link = link;
    }
    Ok(config)
}

/// The harness's one run function: runs one benchmark profile (trace seed
/// [`SEED`]) under a configuration with the named steering policy and an
/// optional fault scenario. Transient rates drive the seeded injector
/// inside the network; the watchdog's stall report comes back as a
/// structured error instead of a panic (a saturated rate can livelock the
/// fabric legitimately — that is a failed row, not a dead sweep).
/// `config` must already carry the scenario's degraded link (see
/// [`degraded_config`]). With `faults` absent or transient-free the run
/// is built over [`NullFaultModel`], which compiles the fault path out.
pub fn run_one_policy_faults(
    config: Arc<ProcessorConfig>,
    profile: BenchmarkProfile,
    scale: RunScale,
    policy: PolicyKind,
    faults: Option<&FaultSpec>,
) -> Result<SimResults, Box<StallReport>> {
    let injector = faults
        .filter(|s| s.has_transient())
        .map(FaultSpec::injector);
    match policy {
        PolicyKind::Paper => drive(PaperPolicy::new(&config), config, profile, scale, injector),
        PolicyKind::Spray => drive(
            SprayPolicy::new(&config.link),
            config,
            profile,
            scale,
            injector,
        ),
        PolicyKind::Criticality => drive(
            CriticalityPolicy::new(&config),
            config,
            profile,
            scale,
            injector,
        ),
        PolicyKind::PwFirst => drive(
            PwFirstPolicy::new(&config),
            config,
            profile,
            scale,
            injector,
        ),
        PolicyKind::Oracle => drive(OraclePolicy::new(&config), config, profile, scale, injector),
    }
}

/// [`run_one_policy_faults`] once the policy type is known: monomorphizes
/// the processor over it and over the fault model.
fn drive<T: TransferPolicy>(
    policy: T,
    config: Arc<ProcessorConfig>,
    profile: BenchmarkProfile,
    scale: RunScale,
    injector: Option<InjectedFaults>,
) -> Result<SimResults, Box<StallReport>> {
    let trace = TraceGenerator::new(profile, SEED);
    match injector {
        None => Processor::with_faults_shared(config, trace, NullProbe, policy, NullFaultModel)
            .try_run(scale.window, scale.warmup),
        Some(inj) => Processor::with_faults_shared(config, trace, NullProbe, policy, inj)
            .try_run(scale.window, scale.warmup),
    }
}

/// One design point of a sweep: a shared machine configuration, the
/// steering policy driving its wires and an optional fault scenario.
/// `config` must already carry the scenario's degraded link (see
/// [`degraded_config`]).
#[derive(Debug, Clone)]
pub struct Cell {
    /// The machine, shared by every benchmark job of the cell.
    pub config: Arc<ProcessorConfig>,
    /// The steering policy.
    pub policy: PolicyKind,
    /// The fault scenario, if any.
    pub faults: Option<FaultSpec>,
}

impl Cell {
    /// The paper's policy on a fault-free `config` — the machine every
    /// table and figure runs.
    pub fn new(config: ProcessorConfig) -> Self {
        Cell {
            config: Arc::new(config),
            policy: PolicyKind::Paper,
            faults: None,
        }
    }

    /// Runs one benchmark of this cell through [`run_one_policy_faults`].
    pub fn run(
        &self,
        profile: BenchmarkProfile,
        scale: RunScale,
    ) -> Result<SimResults, Box<StallReport>> {
        run_one_policy_faults(
            self.config.clone(),
            profile,
            scale,
            self.policy,
            self.faults.as_ref(),
        )
    }
}

/// One cell per policy, all sharing one configuration and fault scenario:
/// one model's row of a policy race.
pub fn policy_cells(
    config: ProcessorConfig,
    policies: &[PolicyKind],
    faults: Option<&FaultSpec>,
) -> Vec<Cell> {
    let config = Arc::new(config);
    policies
        .iter()
        .map(|&policy| Cell {
            config: config.clone(),
            policy,
            faults: faults.cloned(),
        })
        .collect()
}

/// One paper-policy, fault-free cell per model on `topology`: the grid of
/// a Table-3/4 model sweep.
pub fn model_cells(models: &[ModelSpec], topology: Topology) -> Vec<Cell> {
    models
        .iter()
        .map(|spec| Cell::new(ProcessorConfig::for_model_spec(spec, topology)))
        .collect()
}

/// Runs every cell over the 23-benchmark suite as one flattened
/// (cell × benchmark) job list on the shared executor and returns one
/// suite per cell, in cell order. A cell with a stalled or panicking
/// benchmark is an `Err` naming the first such benchmark; every other
/// cell still completes. Runs are independent and deterministic, so the
/// worker count changes nothing but wall-clock time: the result equals
/// [`sweep_serial`] bit for bit.
pub fn sweep(cells: &[Cell], scale: RunScale, workers: usize) -> Vec<Result<SuiteResults, String>> {
    let profiles = spec2000();
    let jobs: Vec<(&Cell, BenchmarkProfile)> = cells
        .iter()
        .flat_map(|cell| profiles.iter().map(move |&p| (cell, p)))
        .collect();
    let outcomes: Vec<Result<SimResults, String>> =
        executor::run_indexed_catching(jobs, workers, |(cell, profile)| cell.run(profile, scale))
            .into_iter()
            .map(|outcome| match outcome {
                Ok(Ok(r)) => Ok(r),
                Ok(Err(stall)) => Err(stall.to_string()),
                Err(panic) => Err(panic.to_string()),
            })
            .collect();
    outcomes
        .chunks(profiles.len())
        .map(|chunk| collect_suite(&profiles, chunk.iter().cloned()))
        .collect()
}

/// The plain-loop reference for [`sweep`]: every cell's benchmarks in
/// order on the calling thread. The determinism test and `sweep_timing`
/// assert that the executor reproduces it bit for bit.
pub fn sweep_serial(cells: &[Cell], scale: RunScale) -> Vec<Result<SuiteResults, String>> {
    let profiles = spec2000();
    cells
        .iter()
        .map(|cell| {
            let runs = profiles
                .iter()
                .map(|&p| cell.run(p, scale).map_err(|e| e.to_string()));
            collect_suite(&profiles, runs)
        })
        .collect()
}

/// Folds one cell's per-benchmark outcomes into a suite; the first failure
/// fails the cell.
fn collect_suite(
    profiles: &[BenchmarkProfile],
    outcomes: impl Iterator<Item = Result<SimResults, String>>,
) -> Result<SuiteResults, String> {
    let runs = profiles
        .iter()
        .zip(outcomes)
        .map(|(p, outcome)| outcome.map_err(|e| format!("{}: {e}", p.name)))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(SuiteResults {
        names: profiles.iter().map(|p| p.name).collect(),
        runs,
    })
}

/// Unwraps runs that must all complete (every fault-free harness
/// binary): a failure is a simulator defect, not a result, so it is
/// reported on stderr and the process exits 1.
pub fn completed<T, E: std::fmt::Display>(
    results: impl IntoIterator<Item = Result<T, E>>,
) -> Vec<T> {
    results
        .into_iter()
        .map(|r| {
            r.unwrap_or_else(|e| {
                eprintln!("run failed: {e}");
                std::process::exit(1)
            })
        })
        .collect()
}

/// Fraction (in percent) of a suite's transfers carried on `class`.
pub fn suite_class_share(suite: &SuiteResults, class: WireClass) -> f64 {
    let idx = WireClass::ALL
        .iter()
        .position(|&c| c == class)
        .expect("class in ALL");
    let total: u64 = suite.runs.iter().map(|r| r.net.total_transfers()).sum();
    if total == 0 {
        return 0.0;
    }
    let on_class: u64 = suite.runs.iter().map(|r| r.net.transfers[idx]).sum();
    100.0 * on_class as f64 / total as f64
}

/// Builds the per-policy [`MetricRow`] comparison for one model of a
/// policy race: IPC, traffic mix per wire class, interconnect energy and
/// ED² (relative to the race's *first* policy, mirroring the model-sweep
/// convention that the first entry is the baseline). `section` is the
/// model name, `label` the policy name.
pub fn policy_metric_rows(
    model: &ModelSpec,
    policies: &[PolicyKind],
    suites: &[SuiteResults],
) -> Vec<MetricRow> {
    assert_eq!(suites.len(), policies.len());
    let section = model.name();
    let baseline = &suites[0];
    let mut rows = Vec::new();
    for (&pk, suite) in policies.iter().zip(suites) {
        let at_10 = suite.relative_to(baseline, EnergyParams::ten_percent());
        let at_20 = suite.relative_to(baseline, EnergyParams::twenty_percent());
        let ic_dyn: f64 = suite.runs.iter().map(|r| r.net.dynamic_energy).sum();
        let label = pk.name();
        rows.push(MetricRow::new(&section, label, "am_ipc", suite.mean_ipc()));
        for (metric, class) in [
            ("traffic_b_pct", WireClass::B),
            ("traffic_pw_pct", WireClass::Pw),
            ("traffic_l_pct", WireClass::L),
        ] {
            rows.push(MetricRow::new(
                &section,
                label,
                metric,
                suite_class_share(suite, class),
            ));
        }
        rows.push(MetricRow::new(&section, label, "ic_dyn_energy", ic_dyn));
        rows.push(MetricRow::new(&section, label, "ed2_10_pct", at_10.rel_ed2));
        rows.push(MetricRow::new(&section, label, "ed2_20_pct", at_20.rel_ed2));
    }
    rows
}

/// Formats one model's policy race as an aligned text table.
pub fn format_policy_table(
    model: &ModelSpec,
    policies: &[PolicyKind],
    suites: &[SuiteResults],
) -> String {
    assert_eq!(suites.len(), policies.len());
    let baseline = &suites[0];
    let mut out = format!(
        "model {} ({}), ED2 relative to policy {:?}\n{:<12} {:>6} {:>6} {:>6} {:>6} {:>10} {:>9} {:>9}\n",
        model.label(),
        model.description(),
        policies[0].name(),
        "Policy",
        "IPC",
        "B%",
        "PW%",
        "L%",
        "IC-dyn",
        "ED2(10%)",
        "ED2(20%)"
    );
    for (&pk, suite) in policies.iter().zip(suites) {
        out.push_str(&format!(
            "{:<12} {:>6.3} {:>6.1} {:>6.1} {:>6.1} {:>10.0} {:>9.1} {:>9.1}\n",
            pk.name(),
            suite.mean_ipc(),
            suite_class_share(suite, WireClass::B),
            suite_class_share(suite, WireClass::Pw),
            suite_class_share(suite, WireClass::L),
            suite.runs.iter().map(|r| r.net.dynamic_energy).sum::<f64>(),
            suite
                .relative_to(baseline, EnergyParams::ten_percent())
                .rel_ed2,
            suite
                .relative_to(baseline, EnergyParams::twenty_percent())
                .rel_ed2,
        ));
    }
    out
}

/// Per-benchmark results of one cell over the whole suite.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteResults {
    /// Benchmark names, in suite order.
    pub names: Vec<&'static str>,
    /// One result per benchmark.
    pub runs: Vec<SimResults>,
}

impl SuiteResults {
    /// Arithmetic-mean IPC (the paper's aggregate).
    pub fn mean_ipc(&self) -> f64 {
        heterowire_core::mean_ipc(&self.runs)
    }

    /// This suite relative to `baseline`, run for run: the mean of the
    /// per-benchmark [`relative_report`]s at the given energy fraction.
    pub fn relative_to(&self, baseline: &SuiteResults, params: EnergyParams) -> RelativeReport {
        let reports: Vec<_> = self
            .runs
            .iter()
            .zip(&baseline.runs)
            .map(|(m, b)| relative_report(m, b, params))
            .collect();
        mean_report(&reports)
    }
}

/// One row of the regenerated Table 3/4.
#[derive(Debug, Clone)]
pub struct ModelRow {
    /// Which interconnect model (a preset or a custom spec).
    pub model: ModelSpec,
    /// Link description string.
    pub description: String,
    /// Relative metal area.
    pub metal_area: f64,
    /// Suite mean report at 10% interconnect fraction.
    pub at_10: RelativeReport,
    /// Suite mean report at 20% interconnect fraction.
    pub at_20: RelativeReport,
}

/// Builds Table-3/4-style rows from per-model suites; `suites[0]` (the
/// first model's) is the baseline every row is normalised against.
pub fn model_rows(models: &[ModelSpec], suites: &[SuiteResults]) -> Vec<ModelRow> {
    assert_eq!(suites.len(), models.len());
    let baseline = &suites[0];
    models
        .iter()
        .zip(suites)
        .map(|(model, suite)| ModelRow {
            model: model.clone(),
            description: model.description(),
            metal_area: model.relative_metal_area(),
            at_10: suite.relative_to(baseline, EnergyParams::ten_percent()),
            at_20: suite.relative_to(baseline, EnergyParams::twenty_percent()),
        })
        .collect()
}

/// Formats a model sweep as an aligned text table (Table-3 layout).
pub fn format_model_table(rows: &[ModelRow], include_10: bool) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<10} {:<40} {:>5} {:>6} {:>7} {:>7} {:>7} {:>9} {:>9}\n",
        "Model",
        "Link composition",
        "Area",
        "IPC",
        "IC-dyn",
        "IC-lkg",
        "Energy",
        "ED2(10%)",
        "ED2(20%)"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<10} {:<40} {:>5.1} {:>6.3} {:>7.1} {:>7.1} {:>7.1} {:>9.1} {:>9.1}\n",
            r.model.label(),
            r.description,
            r.metal_area,
            r.at_10.ipc,
            r.at_10.rel_ic_dynamic,
            r.at_10.rel_ic_leakage,
            if include_10 {
                r.at_10.rel_processor_energy
            } else {
                r.at_20.rel_processor_energy
            },
            r.at_10.rel_ed2,
            r.at_20.rel_ed2,
        ));
    }
    out
}

/// Quotes a CSV field per RFC 4180: fields containing a comma, quote or
/// newline are wrapped in double quotes with internal quotes doubled;
/// plain fields pass through unchanged.
pub fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Formats a model sweep as CSV (machine-readable companion to
/// [`format_model_table`]); pass the path via `--csv <file>` on the
/// `table3`/`table4` binaries.
pub fn format_model_csv(rows: &[ModelRow]) -> String {
    let mut out = String::from(
        "model,link,metal_area,ipc,ic_dynamic_pct,ic_leakage_pct,\
         energy10_pct,ed2_10_pct,energy20_pct,ed2_20_pct\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{},{},{},{:.4},{:.2},{:.2},{:.2},{:.2},{:.2},{:.2}\n",
            r.model.name(),
            csv_field(&r.description),
            r.metal_area,
            r.at_10.ipc,
            r.at_10.rel_ic_dynamic,
            r.at_10.rel_ic_leakage,
            r.at_10.rel_processor_energy,
            r.at_10.rel_ed2,
            r.at_20.rel_processor_energy,
            r.at_20.rel_ed2,
        ));
    }
    out
}

/// Formats labelled per-benchmark suites as CSV: one block per suite (a
/// header, then one row per benchmark), blank-line separated.
pub fn format_suite_csv(suites: &[(&str, &SuiteResults)]) -> String {
    let blocks: Vec<String> = suites.iter().map(|(_, s)| suite_csv_block(s)).collect();
    blocks.join("\n")
}

fn suite_csv_block(suite: &SuiteResults) -> String {
    let mut out = String::from(
        "benchmark,instructions,cycles,ipc,transfers_per_inst,\
         ic_dynamic_energy,l1_misses,l2_misses,mispredict_rate,\
         false_dep_rate,narrow_coverage\n",
    );
    for (name, r) in suite.names.iter().zip(&suite.runs) {
        out.push_str(&format!(
            "{},{},{},{:.4},{:.3},{:.1},{},{},{:.4},{:.4},{:.4}\n",
            name,
            r.instructions,
            r.cycles,
            r.ipc(),
            r.transfers_per_inst(),
            r.net.dynamic_energy,
            r.mem.l1_misses,
            r.mem.l2_misses,
            r.fetch.mispredict_rate(),
            r.lsq.false_dependence_rate(),
            r.narrow_coverage,
        ));
    }
    out
}

/// Formats a model sweep as one JSON document (the `--json` companion to
/// [`format_model_csv`]), hand-rolled through the telemetry writer so the
/// offline container needs no serde.
pub fn format_model_json(rows: &[ModelRow]) -> String {
    fn report(w: &mut JsonWriter, r: &RelativeReport) {
        w.begin_object();
        w.key("ipc").f64(r.ipc);
        w.key("ic_dynamic_pct").f64(r.rel_ic_dynamic);
        w.key("ic_leakage_pct").f64(r.rel_ic_leakage);
        w.key("energy_pct").f64(r.rel_processor_energy);
        w.key("ed2_pct").f64(r.rel_ed2);
        w.end_object();
    }
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("rows").begin_array();
    for r in rows {
        w.begin_object();
        w.key("model").string(&r.model.name());
        w.key("link").string(&r.description);
        w.key("metal_area").f64(r.metal_area);
        w.key("at_10");
        report(&mut w, &r.at_10);
        w.key("at_20");
        report(&mut w, &r.at_20);
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.finish()
}

/// Formats labelled per-benchmark suites as one JSON document: every run
/// embeds the full [`SimResults::to_json`] record.
pub fn format_suite_json(suites: &[(&str, &SuiteResults)]) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("suites").begin_array();
    for (label, suite) in suites {
        w.begin_object();
        w.key("label").string(label);
        w.key("mean_ipc").f64(suite.mean_ipc());
        w.key("runs").begin_array();
        for (name, r) in suite.names.iter().zip(&suite.runs) {
            w.begin_object();
            w.key("benchmark").string(name);
            w.key("results").raw(&r.to_json());
            w.end_object();
        }
        w.end_array();
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.finish()
}

/// Formats the Table-2 wire-parameter rows as CSV.
pub fn format_table2_csv(rows: &[Table2Row]) -> String {
    let mut out = String::from(
        "class,relative_delay,derived_delay,relative_dynamic,\
         derived_dynamic,relative_leakage,crossbar_latency,ring_hop_latency\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{},{},{:.3},{},{:.3},{},{},{}\n",
            r.class.label(),
            r.relative_delay,
            r.derived_delay,
            r.relative_dynamic,
            r.derived_dynamic,
            r.relative_leakage,
            r.crossbar_latency,
            r.ring_hop_latency,
        ));
    }
    out
}

/// Formats the Table-2 wire-parameter rows as JSON.
pub fn format_table2_json(rows: &[Table2Row]) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("rows").begin_array();
    for r in rows {
        w.begin_object();
        w.key("class").string(r.class.label());
        w.key("relative_delay").f64(r.relative_delay);
        w.key("derived_delay").f64(r.derived_delay);
        w.key("relative_dynamic").f64(r.relative_dynamic);
        w.key("derived_dynamic").f64(r.derived_dynamic);
        w.key("relative_leakage").f64(r.relative_leakage);
        w.key("crossbar_latency").u64(r.crossbar_latency as u64);
        w.key("ring_hop_latency").u64(r.ring_hop_latency as u64);
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.finish()
}

/// Writes one artifact file, logging the destination (the binaries' shared
/// write-and-announce convention). A filesystem refusal (missing
/// permission, read-only mount, bad path) exits with status 2 naming the
/// path, matching the binaries' malformed-flag convention — results are
/// the whole point of a sweep, so a silent or cryptic loss is not
/// acceptable.
pub fn write_artifact(path: &Path, contents: &str) {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        if let Err(e) = std::fs::create_dir_all(parent) {
            eprintln!("cannot create artifact directory {}: {e}", parent.display());
            std::process::exit(2);
        }
    }
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("cannot write artifact {}: {e}", path.display());
        std::process::exit(2);
    }
    eprintln!("wrote {}", path.display());
}

/// One labelled scalar from an ablation or sensitivity study: the
/// machine-readable shape behind those binaries' `--csv` / `--json`
/// output. `section` names the study (e.g. `ls-bits`), `label` the swept
/// point (e.g. `8`), `metric` the measured quantity (e.g. `am_ipc`).
#[derive(Debug, Clone, PartialEq)]
pub struct MetricRow {
    /// Which study produced the value.
    pub section: String,
    /// Which swept point within the study.
    pub label: String,
    /// Which quantity was measured.
    pub metric: String,
    /// The measured value.
    pub value: f64,
}

impl MetricRow {
    /// Builds one row (stringifying the borrowed name parts).
    pub fn new(section: &str, label: &str, metric: &str, value: f64) -> Self {
        MetricRow {
            section: section.to_string(),
            label: label.to_string(),
            metric: metric.to_string(),
            value,
        }
    }
}

/// Formats study metrics as CSV (one row per scalar).
pub fn format_metric_csv(rows: &[MetricRow]) -> String {
    let mut out = String::from("section,label,metric,value\n");
    for r in rows {
        out.push_str(&format!(
            "{},{},{},{}\n",
            csv_field(&r.section),
            csv_field(&r.label),
            csv_field(&r.metric),
            r.value,
        ));
    }
    out
}

/// Formats study metrics as one JSON document.
pub fn format_metric_json(rows: &[MetricRow]) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("metrics").begin_array();
    for r in rows {
        w.begin_object();
        w.key("section").string(&r.section);
        w.key("label").string(&r.label);
        w.key("metric").string(&r.metric);
        w.key("value").f64(r.value);
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.finish()
}

/// The kind of value a flag takes, which decides how the parser checks it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Value {
    /// A model token: a preset (`VII`) or `custom:<spec>` (see
    /// [`ModelSpec::parse`]).
    Model,
    /// A topology token (see [`parse_topology_token`]).
    Topology,
    /// Comma-separated steering-policy names (see [`PolicyKind::parse`]);
    /// a name may appear only once across all occurrences.
    Policies,
    /// A fault-scenario token (see [`FaultSpec::parse`]); exact
    /// duplicates are refused.
    Faults,
    /// A SPEC2000 benchmark name.
    Benchmark,
    /// A positive integer.
    Count,
    /// Free text (a path or a label); the string is its usage placeholder.
    Text(&'static str),
    /// Takes no value: prints usage and exits 0.
    Help,
}

impl Value {
    fn placeholder(self) -> &'static str {
        match self {
            Value::Model => "MODEL",
            Value::Topology => "TOPOLOGY",
            Value::Policies => "POLICY[,POLICY...]",
            Value::Faults => "FAULTS",
            Value::Benchmark => "BENCH",
            Value::Count => "N",
            Value::Text(placeholder) => placeholder,
            Value::Help => "",
        }
    }
}

/// One flag a harness binary accepts.
#[derive(Debug, Clone, Copy)]
pub struct Flag {
    /// The flag itself, e.g. `--model`.
    pub name: &'static str,
    /// What its value is.
    pub value: Value,
    /// Whether it may repeat; repeated values accumulate in command-line
    /// order. A non-repeatable flag given twice is an error.
    pub repeat: bool,
    /// The values used when the flag is absent, checked like typed ones.
    pub default: &'static [&'static str],
}

impl Flag {
    /// A flag given at most once.
    pub const fn one(name: &'static str, value: Value, default: &'static [&'static str]) -> Flag {
        Flag {
            name,
            value,
            repeat: false,
            default,
        }
    }

    /// A repeatable flag.
    pub const fn many(name: &'static str, value: Value, default: &'static [&'static str]) -> Flag {
        Flag {
            name,
            value,
            repeat: true,
            default,
        }
    }
}

/// `--csv PATH`: the CSV artifact destination.
pub const CSV: Flag = Flag::one("--csv", Value::Text("PATH"), &[]);
/// `--json PATH`: the JSON artifact destination.
pub const JSON: Flag = Flag::one("--json", Value::Text("PATH"), &[]);
/// `--help` / `-h`: print usage and exit 0.
pub const HELP: Flag = Flag::one("--help", Value::Help, &[]);

/// The command-line grammar of one harness binary: the flags it accepts
/// (with their defaults) and its optional positional argument. Each
/// binary declares its grammar as a constant, so its defaults live in one
/// table at the top of its source.
#[derive(Debug, Clone, Copy)]
pub struct Grammar {
    /// The binary's name, for the usage line.
    pub name: &'static str,
    /// One line on what the binary does, printed under the usage line.
    pub about: &'static str,
    /// Every flag the binary accepts; any other flag is an error.
    pub flags: &'static [Flag],
    /// The values the optional positional argument may take; empty when
    /// the binary takes none.
    pub positional: &'static [&'static str],
}

impl Grammar {
    /// The usage text: one synopsis line plus [`Grammar::about`].
    pub fn usage(&self) -> String {
        let mut out = format!("usage: {}", self.name);
        for f in self.flags {
            match f.value {
                Value::Help => out.push_str(&format!(" [{}]", f.name)),
                v => out.push_str(&format!(
                    " [{} {}]{}",
                    f.name,
                    v.placeholder(),
                    if f.repeat { "..." } else { "" }
                )),
            }
        }
        if !self.positional.is_empty() {
            out.push_str(&format!(" [{}]", self.positional.join("|")));
        }
        format!("{out}\n{}", self.about)
    }

    /// Reads `std::env::args` and `HETEROWIRE_SCALE` once into [`Args`].
    /// Any error exits 2 with the message and usage on stderr, before
    /// anything runs; `--help` (when declared) prints usage and exits 0.
    pub fn parse(&self) -> Args {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let scale = std::env::var("HETEROWIRE_SCALE").ok();
        match self.parse_from(&argv, scale.as_deref()) {
            Ok(Some(args)) => args,
            Ok(None) => {
                println!("{}", self.usage());
                std::process::exit(0)
            }
            Err(e) => {
                eprintln!("{e}\n{}", self.usage());
                std::process::exit(2)
            }
        }
    }

    /// [`Grammar::parse`] over explicit inputs: `argv` without the program
    /// name and the `HETEROWIRE_SCALE` value. `Ok(None)` means `--help`.
    pub fn parse_from(&self, argv: &[String], scale: Option<&str>) -> Result<Option<Args>, String> {
        let mut args = Args {
            scale: RunScale::from_env_value(scale)?,
            models: Vec::new(),
            topologies: Vec::new(),
            policies: Vec::new(),
            faults: Vec::new(),
            positional: None,
            text: Vec::new(),
        };
        let mut given: Vec<(&Flag, &str)> = Vec::new();
        let mut argv = argv.iter();
        while let Some(arg) = argv.next() {
            let name = if arg == "-h" { "--help" } else { arg.as_str() };
            if let Some(flag) = self.flags.iter().find(|f| f.name == name) {
                if flag.value == Value::Help {
                    return Ok(None);
                }
                if !flag.repeat && given.iter().any(|(f, _)| f.name == flag.name) {
                    return Err(format!("{} given more than once", flag.name));
                }
                let value = argv
                    .next()
                    .ok_or_else(|| format!("{} requires a value", flag.name))?;
                given.push((flag, value.as_str()));
            } else if arg.starts_with('-') {
                return Err(format!("unknown flag {arg:?}"));
            } else if self.positional.is_empty() || args.positional.is_some() {
                return Err(format!("unexpected argument {arg:?}"));
            } else if !self.positional.contains(&arg.as_str()) {
                return Err(format!(
                    "unknown argument {arg:?}; expected one of {}",
                    self.positional.join(", ")
                ));
            } else {
                args.positional = Some(arg.clone());
            }
        }
        for flag in self.flags {
            let mut values: Vec<&str> = given
                .iter()
                .filter(|(f, _)| f.name == flag.name)
                .map(|&(_, v)| v)
                .collect();
            if values.is_empty() {
                values = flag.default.to_vec();
            }
            for value in values {
                args.push(flag, value)?;
            }
        }
        // Combinations no single token reveals: a policy raced on a model
        // lacking its defining plane, and a stuck-lane scenario that
        // leaves a model no full-width plane.
        for model in &args.models {
            for policy in &args.policies {
                policy.check_supported(model)?;
            }
            for topology in &args.topologies {
                for spec in &args.faults {
                    degraded_config(model, topology.topology(), Some(spec))
                        .map_err(|e| format!("--faults {spec}: {e}"))?;
                }
            }
        }
        Ok(Some(args))
    }
}

/// A harness binary's parsed command line: the shared typed flags, the
/// run scale and the binary's own values, defaults already applied.
#[derive(Debug, Clone)]
pub struct Args {
    /// The `HETEROWIRE_SCALE` run scale.
    pub scale: RunScale,
    /// `--model` values in command-line order; the first is the
    /// normalisation baseline.
    pub models: Vec<ModelSpec>,
    /// `--topology` values in command-line order.
    pub topologies: Vec<TopologySpec>,
    /// `--policy` names in command-line order; the first is the ED²
    /// baseline.
    pub policies: Vec<PolicyKind>,
    /// `--faults` scenarios in command-line order.
    pub faults: Vec<FaultSpec>,
    /// The positional argument, when given.
    pub positional: Option<String>,
    /// Every other flag's value, by flag name.
    text: Vec<(&'static str, String)>,
}

impl Args {
    /// Checks one flag value and files it under its kind.
    fn push(&mut self, flag: &Flag, value: &str) -> Result<(), String> {
        let name = flag.name;
        match flag.value {
            Value::Model => self
                .models
                .push(ModelSpec::parse(value).map_err(|e| format!("{name} {value:?}: {e}"))?),
            Value::Topology => self.topologies.push(parse_topology_token(value)?),
            Value::Policies => {
                for token in value.split(',') {
                    let policy =
                        PolicyKind::parse(token).map_err(|e| format!("{name} {value:?}: {e}"))?;
                    if self.policies.contains(&policy) {
                        return Err(format!("policy {token:?} given more than once"));
                    }
                    self.policies.push(policy);
                }
            }
            Value::Faults => {
                let spec = FaultSpec::parse(value).map_err(|e| format!("{name} {value:?}: {e}"))?;
                if self.faults.iter().any(|s| s.name() == spec.name()) {
                    return Err(format!("duplicate {name} {value:?}"));
                }
                self.faults.push(spec);
            }
            Value::Benchmark if by_name(value).is_none() => {
                return Err(format!("{name} {value:?}: unknown benchmark"));
            }
            Value::Count if !value.parse::<u64>().is_ok_and(|n| n >= 1) => {
                return Err(format!("{name} {value:?}: expected a positive integer"));
            }
            Value::Benchmark | Value::Count | Value::Text(_) => {
                self.text.push((name, value.to_string()));
            }
            Value::Help => {}
        }
        Ok(())
    }

    /// The first `--model` — the study machine of a single-model binary.
    pub fn model(&self) -> &ModelSpec {
        &self.models[0]
    }

    /// The first `--topology` — the fabric of a single-topology binary.
    pub fn topology(&self) -> &TopologySpec {
        &self.topologies[0]
    }

    /// The value of one of the binary's own flags (its default when
    /// absent); `None` when neither was given.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.text
            .iter()
            .find(|(f, _)| *f == flag)
            .map(|(_, v)| v.as_str())
    }

    /// Writes whichever of the `--csv` / `--json` artifacts was asked
    /// for, rendering only those.
    pub fn write_artifacts(&self, csv: impl FnOnce() -> String, json: impl FnOnce() -> String) {
        if let Some(path) = self.value("--csv") {
            write_artifact(Path::new(path), &csv());
        }
        if let Some(path) = self.value("--json") {
            write_artifact(Path::new(path), &json());
        }
    }
}

/// The whole spine of the `table3`/`table4` binaries: sweep every
/// `--model` (the first is the normalisation baseline) on the
/// `--topology`, and write any `--csv` / `--json` artifacts requested.
pub fn model_sweep_main(args: &Args) -> Vec<ModelRow> {
    let spec = args.topology();
    let names: Vec<String> = args.models.iter().map(|s| s.name()).collect();
    eprintln!(
        "sweeping {} on {} ({} clusters) x 23 benchmarks ...",
        names.join(", "),
        spec.name(),
        spec.topology().clusters()
    );
    let cells = model_cells(&args.models, spec.topology());
    let suites = completed(sweep(&cells, args.scale, executor::default_workers()));
    let rows = model_rows(&args.models, &suites);
    args.write_artifacts(|| format_model_csv(&rows), || format_model_json(&rows));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use heterowire_core::InterconnectModel;
    use heterowire_wires::classes::table2;

    /// Splits one CSV line into fields, honouring RFC-4180 quoting.
    fn parse_csv_line(line: &str) -> Vec<String> {
        let mut fields = Vec::new();
        let mut field = String::new();
        let mut in_quotes = false;
        let mut chars = line.chars().peekable();
        while let Some(c) = chars.next() {
            match c {
                '"' if in_quotes && chars.peek() == Some(&'"') => {
                    chars.next();
                    field.push('"');
                }
                '"' => in_quotes = !in_quotes,
                ',' if !in_quotes => fields.push(std::mem::take(&mut field)),
                _ => field.push(c),
            }
        }
        fields.push(field);
        fields
    }

    fn tiny() -> RunScale {
        RunScale {
            window: 1_000,
            warmup: 200,
        }
    }

    /// Every cell of a sweep that must complete.
    fn ok(results: Vec<Result<SuiteResults, String>>) -> Vec<SuiteResults> {
        results.into_iter().map(Result::unwrap).collect()
    }

    /// The paper-policy suite of one configuration.
    fn suite_of(config: ProcessorConfig, scale: RunScale, workers: usize) -> SuiteResults {
        ok(sweep(&[Cell::new(config)], scale, workers)).remove(0)
    }

    /// Models I–X on the 4-cluster crossbar, as Table-3 rows.
    fn paper_rows(scale: RunScale) -> Vec<ModelRow> {
        let models = ModelSpec::paper_presets();
        let suites = ok(sweep(
            &model_cells(&models, Topology::crossbar4()),
            scale,
            4,
        ));
        model_rows(&models, &suites)
    }

    #[test]
    fn csv_has_one_row_per_model_and_consistent_fields() {
        let rows = paper_rows(tiny());
        let csv = format_model_csv(&rows);
        assert_eq!(csv.lines().count(), 11, "header + 10 models");
        assert!(csv.starts_with("model,"));
        assert!(csv.contains("\nI,"));
        assert!(csv.contains("\nX,"));
        let header = parse_csv_line(csv.lines().next().unwrap());
        for (line, row) in csv.lines().skip(1).zip(&rows) {
            let fields = parse_csv_line(line);
            assert_eq!(
                fields.len(),
                header.len(),
                "row has as many fields as the header: {line}"
            );
            assert_eq!(fields[0], row.model.name());
            // The description round-trips through quoting even though it
            // contains commas (e.g. "72 B-Wires, 144 L-Wires").
            assert_eq!(fields[1], row.description);
        }
    }

    #[test]
    fn csv_field_escapes_specials() {
        assert_eq!(csv_field("plain"), "plain");
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
        assert_eq!(csv_field("two\nlines"), "\"two\nlines\"");
    }

    #[test]
    fn suite_csv_has_one_row_per_benchmark() {
        let cfg = ProcessorConfig::for_model(InterconnectModel::I, Topology::crossbar4());
        let csv = format_suite_csv(&[("base", &suite_of(cfg, tiny(), 4))]);
        assert_eq!(csv.lines().count(), 24, "header + 23 benchmarks");
        assert!(csv.contains("gzip,"));
        assert!(csv.contains("mcf,"));
    }

    #[test]
    fn quick_suite_runs() {
        let cfg = ProcessorConfig::for_model(InterconnectModel::I, Topology::crossbar4());
        let scale = RunScale {
            window: 2_000,
            warmup: 500,
        };
        let suite = suite_of(cfg, scale, executor::default_workers());
        assert_eq!(suite.runs.len(), 23);
        assert!(suite.mean_ipc() > 0.0);
    }

    #[test]
    fn scale_from_env_value() {
        // Value-based so the test is immune to whatever HETEROWIRE_SCALE
        // the ambient environment carries (e.g. quick-scale CI).
        assert_eq!(RunScale::from_env_value(None), Ok(RunScale::full()));
        assert_eq!(RunScale::from_env_value(Some("")), Ok(RunScale::full()));
        assert_eq!(RunScale::from_env_value(Some("full")), Ok(RunScale::full()));
        assert_eq!(
            RunScale::from_env_value(Some("quick")),
            Ok(RunScale::quick())
        );
        assert!(RunScale::from_env_value(Some("fast")).is_err());
        assert!(RunScale::from_env_value(Some("QUICK")).is_err());
        // The parser reads the scale with the flags and refuses a bad one.
        let args = ALL_FLAGS.parse_from(&[], Some("quick")).unwrap().unwrap();
        assert_eq!(args.scale, RunScale::quick());
        let err = ALL_FLAGS.parse_from(&[], Some("bogus")).unwrap_err();
        assert!(
            err.contains("\"bogus\"") && err.contains("\"quick\""),
            "{err}"
        );
    }

    #[test]
    fn model_json_round_trips() {
        let rows = paper_rows(tiny());
        let doc = heterowire_telemetry::json::parse(&format_model_json(&rows))
            .expect("model JSON parses");
        let out = doc.get("rows").unwrap().as_arr().unwrap();
        assert_eq!(out.len(), 10);
        for (obj, row) in out.iter().zip(&rows) {
            // Descriptions contain commas and survive JSON escaping.
            assert_eq!(obj.get("link").unwrap().as_str(), Some(&*row.description));
            assert_eq!(
                obj.get("at_10").unwrap().get("ipc").unwrap().as_num(),
                Some(row.at_10.ipc)
            );
        }
    }

    #[test]
    fn suite_json_embeds_full_results() {
        let cfg = ProcessorConfig::for_model(InterconnectModel::I, Topology::crossbar4());
        let suite = suite_of(cfg, tiny(), 4);
        let doc = heterowire_telemetry::json::parse(&format_suite_json(&[("base", &suite)]))
            .expect("suite JSON parses");
        let suites = doc.get("suites").unwrap().as_arr().unwrap();
        assert_eq!(suites.len(), 1);
        let runs = suites[0].get("runs").unwrap().as_arr().unwrap();
        assert_eq!(runs.len(), 23);
        let first = &runs[0];
        assert_eq!(
            first.get("benchmark").unwrap().as_str(),
            Some(suite.names[0])
        );
        assert_eq!(
            first
                .get("results")
                .unwrap()
                .get("instructions")
                .unwrap()
                .as_num(),
            Some(suite.runs[0].instructions as f64)
        );
    }

    #[test]
    fn table2_json_and_csv_agree() {
        let rows = table2();
        let csv = format_table2_csv(&rows);
        assert_eq!(csv.lines().count(), rows.len() + 1);
        let doc = heterowire_telemetry::json::parse(&format_table2_json(&rows)).expect("parses");
        assert_eq!(doc.get("rows").unwrap().as_arr().unwrap().len(), rows.len());
    }

    /// Every shared flag, repeatable and without defaults, so each test
    /// sees exactly what it passes.
    const ALL_FLAGS: Grammar = Grammar {
        name: "t",
        about: "",
        flags: &[
            Flag::many("--model", Value::Model, &[]),
            Flag::many("--topology", Value::Topology, &[]),
            Flag::many("--policy", Value::Policies, &[]),
            Flag::many("--faults", Value::Faults, &[]),
            CSV,
            JSON,
        ],
        positional: &[],
    };

    /// A single-model, single-topology binary with defaults.
    const ONE_EACH: Grammar = Grammar {
        name: "one",
        about: "",
        flags: &[
            Flag::one("--model", Value::Model, &["VII"]),
            Flag::one("--topology", Value::Topology, &["crossbar4"]),
            Flag::one("--bench", Value::Benchmark, &["gzip"]),
            Flag::one("--window", Value::Count, &["64"]),
        ],
        positional: &["ls-bits", "balance"],
    };

    fn parse(grammar: &Grammar, argv: &[&str]) -> Result<Args, String> {
        let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        grammar
            .parse_from(&argv, Some("quick"))
            .map(|args| args.expect("no --help"))
    }

    #[test]
    fn artifact_paths_parsing() {
        let none = parse(&ALL_FLAGS, &[]).unwrap();
        assert_eq!((none.value("--csv"), none.value("--json")), (None, None));
        let both = parse(&ALL_FLAGS, &["--csv", "a.csv", "--json", "a.json"]).unwrap();
        assert_eq!(both.value("--csv"), Some("a.csv"));
        assert_eq!(both.value("--json"), Some("a.json"));
        assert!(parse(&ALL_FLAGS, &["--json"]).is_err());
    }

    #[test]
    fn csv_path_parsing() {
        assert_eq!(parse(&ALL_FLAGS, &[]).unwrap().value("--csv"), None);
        let args = parse(&ALL_FLAGS, &["--csv", "out.csv"]).unwrap();
        assert_eq!(args.value("--csv"), Some("out.csv"));
        // `--csv` as the last argument is an error, not a silent None.
        let err = parse(&ALL_FLAGS, &["--csv"]).unwrap_err();
        assert!(err.contains("--csv requires a value"), "{err}");
        let err = parse(&ALL_FLAGS, &["--csv", "a", "--csv", "b"]).unwrap_err();
        assert!(err.contains("--csv given more than once"), "{err}");
    }

    #[test]
    fn model_set_from_args() {
        assert!(parse(&ALL_FLAGS, &[]).unwrap().models.is_empty());
        let args = parse(
            &ALL_FLAGS,
            &["--model", "X", "--model", "custom:b144+pw288+l36"],
        )
        .unwrap();
        assert_eq!(args.models.len(), 2);
        assert_eq!(args.models[0].name(), "X");
        assert_eq!(args.models[1].name(), "custom:b144+pw288+l36");
        // Both tokens name the same link.
        assert_eq!(args.models[0].link(), args.models[1].link());
        // Malformed flags are errors, not silent defaults.
        assert!(parse(&ALL_FLAGS, &["--model"]).is_err());
        assert!(parse(&ALL_FLAGS, &["--model", "XI"]).is_err());
        assert!(parse(&ALL_FLAGS, &["--model", "custom:l36"]).is_err());
        // A single-model binary takes its default when the flag is absent
        // and refuses a second --model instead of silently using the first.
        assert_eq!(parse(&ONE_EACH, &[]).unwrap().model().name(), "VII");
        assert_eq!(
            parse(&ONE_EACH, &["--model", "X"]).unwrap().model().name(),
            "X"
        );
        let err = parse(&ONE_EACH, &["--model", "VII", "--model", "X"]).unwrap_err();
        assert!(err.contains("--model given more than once"), "{err}");
        // The paper default parses to the presets, in table order.
        let paper: Vec<_> = PAPER_MODELS
            .iter()
            .map(|t| ModelSpec::parse(t).unwrap())
            .collect();
        assert_eq!(paper, ModelSpec::paper_presets());
    }

    #[test]
    fn topology_from_args_parsing() {
        assert_eq!(
            parse(&ONE_EACH, &[]).unwrap().topology().name(),
            "crossbar4"
        );
        // Presets and their equivalent compact specs resolve identically.
        let resolve = |token: &str| *parse(&ONE_EACH, &["--topology", token]).unwrap().topology();
        assert_eq!(resolve("hier16").topology(), Topology::hier16());
        assert_eq!(resolve("crossbar4").topology(), Topology::crossbar4());
        assert_eq!(resolve("ring:4x4").topology(), Topology::hier16());
        assert_eq!(resolve("xbar:8").topology().clusters(), 8);
        // The preset form keeps its preset identity; the spec form does not.
        assert_eq!(resolve("hier16").name(), "hier16");
        assert_eq!(resolve("ring:4x4").name(), "ring:4x4");
        // Malformed tokens fail loudly with the shared parser's message.
        assert!(parse(&ONE_EACH, &["--topology", "mesh"])
            .unwrap_err()
            .contains("unknown topology"));
        assert!(parse(&ONE_EACH, &["--topology", "ring:2x4"])
            .unwrap_err()
            .contains("quads"));
        assert!(parse(&ONE_EACH, &["--topology"]).is_err());
        assert!(parse(&ONE_EACH, &["--topology", "hier16", "--topology", "hier16"]).is_err());
    }

    #[test]
    fn topology_set_collects_repeated_flags() {
        assert!(parse(&ALL_FLAGS, &[]).unwrap().topologies.is_empty());
        let args = parse(
            &ALL_FLAGS,
            &["--topology", "crossbar4", "--topology", "ring:6x2"],
        )
        .unwrap();
        assert_eq!(args.topologies.len(), 2);
        assert_eq!(args.topologies[0].name(), "crossbar4");
        assert_eq!(args.topologies[1].name(), "ring:6x2");
        assert_eq!(args.topologies[1].topology().clusters(), 12);
        // Shapes past the processor's old inline capacity parse (the
        // per-value structures spill); the simulator-wide cap still
        // refuses at parse time, not by a panic mid-sweep, with the
        // shared checker's message (cap + offending count).
        let wide = parse(&ALL_FLAGS, &["--topology", "ring:6x4"]).unwrap();
        assert_eq!(wide.topologies[0].topology().clusters(), 24);
        let err = parse(&ALL_FLAGS, &["--topology", "xbar:65"]).unwrap_err();
        assert!(err.contains("65 clusters"), "{err}");
        assert!(err.contains("at most 64"), "{err}");
    }

    #[test]
    fn topology_token_resolves_spec_files() {
        let dir = std::env::temp_dir().join(format!("hw-topo-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ring.topo");
        std::fs::write(
            &path,
            "# asymmetric ring\nshape = ring\nquads = 6\nper_quad = 2\nhop_len = 3\n",
        )
        .unwrap();
        let spec = parse_topology_token(path.to_str().unwrap()).unwrap();
        assert_eq!(spec, TopologySpec::parse("ring:6x2@hop3").unwrap());
        // A malformed file reports the file-level error, prefixed with the path.
        std::fs::write(&path, "shape = torus\n").unwrap();
        let err = parse_topology_token(path.to_str().unwrap()).unwrap_err();
        assert!(err.contains("spec file") && err.contains("torus"), "{err}");
        // A missing file that is not a preset or spec names all three forms.
        let err = parse_topology_token("no-such-file.topo").unwrap_err();
        assert!(err.contains("spec file"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn policies_from_args_parsing() {
        assert!(parse(&ALL_FLAGS, &[]).unwrap().policies.is_empty());
        let got = parse(&ALL_FLAGS, &["--policy", "paper,oracle"]).unwrap();
        assert_eq!(got.policies, vec![PolicyKind::Paper, PolicyKind::Oracle]);
        // Repeated flags accumulate.
        let got = parse(&ALL_FLAGS, &["--policy", "spray", "--policy", "pwfirst"]).unwrap();
        assert_eq!(got.policies, vec![PolicyKind::Spray, PolicyKind::PwFirst]);
        // Malformed forms are errors, not silent defaults.
        assert!(parse(&ALL_FLAGS, &["--policy"]).is_err());
        assert!(parse(&ALL_FLAGS, &["--policy", "greedy"]).is_err());
        assert!(parse(&ALL_FLAGS, &["--policy", "paper,paper"]).is_err());
        assert!(parse(&ALL_FLAGS, &["--policy", "paper", "--policy", "paper"]).is_err());
        // The default list is every racer, in race order.
        const ALL: Grammar = Grammar {
            flags: &[Flag::many("--policy", Value::Policies, ALL_POLICIES)],
            ..ALL_FLAGS
        };
        assert_eq!(parse(&ALL, &[]).unwrap().policies, PolicyKind::ALL);
    }

    #[test]
    fn unknown_flags_and_malformed_values_are_refused() {
        for (argv, needle) in [
            (&["--modle", "X"][..], "unknown flag \"--modle\""),
            (
                &["stray"],
                "unknown argument \"stray\"; expected one of ls-bits, balance",
            ),
            (&["ls-bits", "balance"], "unexpected argument \"balance\""),
            (&["--window", "abc"], "--window \"abc\""),
            (&["--window", "0"], "expected a positive integer"),
            (&["--bench", "nope"], "--bench \"nope\": unknown benchmark"),
            (&["-h"], "unknown flag \"-h\""),
        ] {
            let err = parse(&ONE_EACH, argv).unwrap_err();
            assert!(err.contains(needle), "{argv:?}: {err}");
        }
        assert!(parse(&ALL_FLAGS, &["ls-bits"])
            .unwrap_err()
            .contains("unexpected argument"));
        let args = parse(&ONE_EACH, &["balance", "--window", "8"]).unwrap();
        assert_eq!(args.positional.as_deref(), Some("balance"));
        assert_eq!(args.value("--window"), Some("8"));
        assert_eq!(args.value("--bench"), Some("gzip"));
        // `--help` is an answer, not an error, where it is declared.
        const HELP_ONLY: Grammar = Grammar {
            flags: &[HELP],
            ..ALL_FLAGS
        };
        let argv = ["-h".to_string()];
        assert!(HELP_ONLY.parse_from(&argv, None).unwrap().is_none());
        assert!(HELP_ONLY.usage().starts_with("usage: t [--help]"));
    }

    #[test]
    fn flag_combinations_are_checked_up_front() {
        let err = parse(
            &ALL_FLAGS,
            &["--model", "custom:b144", "--policy", "pwfirst"],
        )
        .unwrap_err();
        assert!(err.contains("pwfirst") && err.contains("PW-Wires"), "{err}");
        let argv = [
            "--model",
            "I",
            "--topology",
            "crossbar4",
            "--faults",
            "lane:B0@stuck+lane:B1@stuck",
        ];
        let err = parse(&ALL_FLAGS, &argv).unwrap_err();
        assert!(
            err.contains("--faults") && err.contains("full-width"),
            "{err}"
        );
        assert!(parse(&ALL_FLAGS, &["--faults", "l@1e-3", "--faults", "l@1e-3"]).is_err());
    }

    #[test]
    fn custom_spec_sweep_matches_preset() {
        // `custom:b144` is the same machine as Model I; a two-model sweep
        // of the pair must produce identical runs.
        let models = vec![
            ModelSpec::parse("I").unwrap(),
            ModelSpec::parse("custom:b144").unwrap(),
        ];
        let scale = RunScale {
            window: 800,
            warmup: 200,
        };
        let suites = ok(sweep(
            &model_cells(&models, Topology::crossbar4()),
            scale,
            4,
        ));
        assert_eq!(suites.len(), 2);
        assert_eq!(suites[0].runs, suites[1].runs, "bit-identical results");
        let rows = model_rows(&models, &suites);
        assert_eq!(rows[0].at_10.ipc, rows[1].at_10.ipc);
        assert_eq!(rows[1].model.name(), "custom:b144");
    }

    #[test]
    fn metric_rows_round_trip_csv_and_json() {
        let rows = vec![
            MetricRow::new("ls-bits", "8", "false_dep_pct", 7.25),
            MetricRow::new("balance", "paper (both)", "am_ipc", 2.5),
        ];
        let csv = format_metric_csv(&rows);
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.contains("ls-bits,8,false_dep_pct,7.25"));
        let doc = heterowire_telemetry::json::parse(&format_metric_json(&rows)).expect("parses");
        let arr = doc.get("metrics").unwrap().as_arr().unwrap();
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[1].get("label").unwrap().as_str(), Some("paper (both)"));
        assert_eq!(arr[0].get("value").unwrap().as_num(), Some(7.25));
    }

    #[test]
    fn policy_support_check_names_the_missing_plane() {
        let b_only = ModelSpec::parse("custom:b144").unwrap();
        let x = ModelSpec::parse("X").unwrap();
        for pk in PolicyKind::ALL {
            assert!(pk.check_supported(&x).is_ok(), "{} on X", pk.name());
        }
        assert!(PolicyKind::Paper.check_supported(&b_only).is_ok());
        assert!(PolicyKind::Oracle.check_supported(&b_only).is_ok());
        let err = PolicyKind::Criticality
            .check_supported(&b_only)
            .unwrap_err();
        assert!(
            err.contains("criticality") && err.contains("L-Wires"),
            "{err}"
        );
        let err = PolicyKind::PwFirst.check_supported(&b_only).unwrap_err();
        assert!(err.contains("pwfirst") && err.contains("PW-Wires"), "{err}");
    }

    #[test]
    fn policy_race_rows_cover_the_grid() {
        let model = ModelSpec::parse("X").unwrap();
        let policies = [PolicyKind::Paper, PolicyKind::Oracle];
        let scale = RunScale {
            window: 800,
            warmup: 200,
        };
        let config = ProcessorConfig::for_model_spec(&model, Topology::crossbar4());
        let suites = ok(sweep(
            &policy_cells(config.clone(), &policies, None),
            scale,
            4,
        ));
        assert_eq!(suites.len(), 2);
        assert_eq!(suites[0].runs.len(), 23);
        // The paper lane is the exact default path.
        let direct = suite_of(config, scale, 4);
        assert_eq!(suites[0].runs, direct.runs, "bit-identical paper row");
        let rows = policy_metric_rows(&model, &policies, &suites);
        assert_eq!(rows.len(), 2 * 7, "7 metrics per policy");
        assert!(rows
            .iter()
            .all(|r| r.section == "X" && (r.label == "paper" || r.label == "oracle")));
        // Traffic shares per policy sum to ~100% (W is never used by the
        // default processor; every transfer lands on B/PW/L).
        for label in ["paper", "oracle"] {
            let share: f64 = rows
                .iter()
                .filter(|r| r.label == label && r.metric.starts_with("traffic_"))
                .map(|r| r.value)
                .sum();
            assert!((share - 100.0).abs() < 1e-6, "{label}: {share}");
        }
        // The baseline policy's ED2 is 100% of itself by construction.
        let base_ed2 = rows
            .iter()
            .find(|r| r.label == "paper" && r.metric == "ed2_10_pct")
            .unwrap();
        assert!((base_ed2.value - 100.0).abs() < 1e-9);
        let table = format_policy_table(&model, &policies, &suites);
        assert!(table.contains("paper") && table.contains("oracle"));
    }

    #[test]
    fn suite_executor_matches_serial() {
        let cfg = ProcessorConfig::for_model(InterconnectModel::IV, Topology::crossbar4());
        let scale = RunScale {
            window: 800,
            warmup: 200,
        };
        let cells = [Cell::new(cfg)];
        let serial = ok(sweep_serial(&cells, scale));
        let parallel = ok(sweep(&cells, scale, 4));
        assert_eq!(serial[0].names, parallel[0].names);
        assert_eq!(serial[0].runs, parallel[0].runs, "bit-identical results");
    }

    #[test]
    fn a_stalled_cell_fails_alone() {
        // `b@1` corrupts every B transfer on every attempt and Model I has
        // only B-Wires, so every run of the first cell stalls; the second
        // cell must still come back whole and in place.
        let cfg = ProcessorConfig::for_model(InterconnectModel::I, Topology::crossbar4());
        let storm = Cell {
            faults: Some(FaultSpec::parse("b@1").unwrap()),
            ..Cell::new(cfg.clone())
        };
        let scale = RunScale {
            window: 500,
            warmup: 100,
        };
        let results = sweep(&[storm, Cell::new(cfg.clone())], scale, 4);
        let err = results[0].as_ref().unwrap_err();
        assert!(err.starts_with(spec2000()[0].name), "{err}");
        assert!(err.contains("deadlock"), "{err}");
        assert_eq!(results[1], Ok(suite_of(cfg, scale, 1)));
    }

    #[test]
    fn a_failed_benchmark_fails_its_cell_by_name() {
        let profiles = spec2000();
        let cfg = ProcessorConfig::for_model(InterconnectModel::I, Topology::crossbar4());
        let run = Cell::new(cfg).run(profiles[0], tiny()).unwrap();
        let outcomes = (0..profiles.len()).map(|i| match i {
            2 => Err("stalled".to_string()),
            _ => Ok(run),
        });
        let err = collect_suite(&profiles, outcomes).unwrap_err();
        assert_eq!(err, format!("{}: stalled", profiles[2].name));
    }
}
