//! Wire-fault sweep: races steering policies across a fault-rate grid and
//! records IPC / ED² degradation curves against the fault-free baseline.
//!
//! ```text
//! cargo run --release -p heterowire-bench --bin fault_sweep -- \
//!     --model X --topology crossbar4 --policy paper,spray \
//!     --faults l@1e-4 --faults l@1e-3 --faults lane:L1@stuck \
//!     --csv fault_sweep.csv --json fault_sweep.json
//! ```
//!
//! Defaults: Model X on the 4-cluster crossbar, all five policies, and a
//! transient L-Wire error-rate ladder (`l@1e-4` … `l@3e-2`). Every sweep
//! starts with a fault-free `none` scenario — the baseline all degradation
//! percentages are measured against. Scenarios with stuck lanes run on the
//! degraded link (the lanes are retired before construction, so policies
//! steer against the surviving capacity); a scenario that strands
//! full-size transfers without a legal plane is refused up front with
//! exit status 2. A run that stops committing (a retry storm on a
//! saturated rate) becomes a `failed` row carrying the watchdog's stall
//! diagnostics on stderr, and the sweep exits 1 after writing artifacts.
//! Same grid + same seed ⇒ bit-identical artifacts (CI diffs two runs).

use heterowire_bench::{
    degraded_config, executor, format_metric_csv, format_metric_json, policy_cells, sweep, Cell,
    Flag, Grammar, MetricRow, Value, ALL_POLICIES, CSV, JSON,
};
use heterowire_core::EnergyParams;

const GRAMMAR: Grammar = Grammar {
    name: "fault_sweep",
    about: "races steering policies across wire-fault scenarios against a fault-free baseline",
    flags: &[
        Flag::one("--model", Value::Model, &["X"]),
        Flag::one("--topology", Value::Topology, &["crossbar4"]),
        Flag::many("--policy", Value::Policies, ALL_POLICIES),
        // The transient L-Wire error-rate ladder (per-bit, per-hop rates).
        Flag::many(
            "--faults",
            Value::Faults,
            &["l@1e-4", "l@1e-3", "l@1e-2", "l@3e-2"],
        ),
        CSV,
        JSON,
    ],
    positional: &[],
};

fn main() {
    let args = GRAMMAR.parse();
    let (model, topo, policies) = (args.model(), args.topology(), &args.policies);

    // Scenario 0 is always the fault-free baseline. One cell per
    // (scenario, policy), scenarios outermost.
    let scenarios: Vec<_> = std::iter::once(None)
        .chain(args.faults.iter().cloned().map(Some))
        .collect();
    let cells: Vec<Cell> = scenarios
        .iter()
        .flat_map(|faults| {
            let config = degraded_config(model, topo.topology(), faults.as_ref())
                .expect("the parser checked every scenario against the model");
            policy_cells(config, policies, faults.as_ref())
        })
        .collect();
    eprintln!(
        "sweeping {} fault scenario(s) x {} policies x 23 benchmarks on {} / {} ...",
        scenarios.len(),
        policies.len(),
        model.name(),
        topo.name(),
    );
    let suites = sweep(&cells, args.scale, executor::default_workers());

    let mut rows: Vec<MetricRow> = Vec::new();
    let mut failed = 0usize;
    println!(
        "Fault sweep, model {} on {} ({} clusters)",
        model.label(),
        topo.name(),
        topo.topology().clusters()
    );
    println!("(drops are % vs the fault-free `none` scenario, per policy)\n");
    println!(
        "{:<26} {:<12} {:>7} {:>8} {:>9} {:>8} {:>8} {:>9}",
        "Scenario", "Policy", "IPC", "dIPC%", "ED2(10%)", "faults", "retx", "escal"
    );
    for (ci, (cell, result)) in cells.iter().zip(&suites).enumerate() {
        let scenario = match &cell.faults {
            Some(spec) => spec.to_string(),
            None => "none".to_string(),
        };
        let section = scenario.as_str();
        let label = cell.policy.name();
        let suite = match result {
            Ok(suite) => suite,
            Err(msg) => {
                failed += 1;
                eprintln!("FAILED {scenario} / {label}: {msg}");
                rows.push(MetricRow::new(section, label, "failed", 1.0));
                println!(
                    "{:<26} {:<12} {:>7} {:>8} {:>9} {:>8} {:>8} {:>9}",
                    scenario, label, "FAILED", "-", "-", "-", "-", "-"
                );
                continue;
            }
        };
        let ipc = suite.mean_ipc();
        let total = |counter: fn(&heterowire_core::SimResults) -> u64| -> u64 {
            suite.runs.iter().map(counter).sum()
        };
        let faults_detected = total(|r| r.net.faults_detected);
        let retransmits = total(|r| r.net.retransmits);
        let escalations = total(|r| r.net.escalations);
        for (metric, value) in [
            ("am_ipc", ipc),
            ("faults_detected", faults_detected as f64),
            ("retransmits", retransmits as f64),
            ("escalations", escalations as f64),
            ("retry_cycles", total(|r| r.net.retry_cycles) as f64),
        ] {
            rows.push(MetricRow::new(section, label, metric, value));
        }
        // Degradation curves vs the fault-free baseline of the same policy
        // (only meaningful when it completed); the baseline cells come
        // first, in policy order.
        let (mut dipc, mut ed2_10) = (f64::NAN, f64::NAN);
        if let Ok(base) = &suites[ci % policies.len()] {
            dipc = 100.0 * (1.0 - ipc / base.mean_ipc());
            ed2_10 = suite.relative_to(base, EnergyParams::ten_percent()).rel_ed2;
            let ed2_20 = suite
                .relative_to(base, EnergyParams::twenty_percent())
                .rel_ed2;
            rows.push(MetricRow::new(section, label, "ipc_drop_pct", dipc));
            rows.push(MetricRow::new(section, label, "ed2_10_pct", ed2_10));
            rows.push(MetricRow::new(section, label, "ed2_20_pct", ed2_20));
        }
        rows.push(MetricRow::new(section, label, "failed", 0.0));
        println!(
            "{:<26} {:<12} {:>7.4} {:>8.3} {:>9.2} {:>8} {:>8} {:>9}",
            scenario, label, ipc, dipc, ed2_10, faults_detected, retransmits, escalations
        );
    }
    println!();
    args.write_artifacts(|| format_metric_csv(&rows), || format_metric_json(&rows));
    if failed > 0 {
        eprintln!("{failed} sweep cell(s) failed");
        std::process::exit(1);
    }
}
