//! Multi-policy A/B harness: races named steering policies over the same
//! (model × benchmark) grid and reports a per-policy comparison — IPC,
//! traffic mix per wire class, interconnect dynamic energy, and ED²
//! relative to the first policy in the race.
//!
//! ```text
//! cargo run --release -p heterowire-bench --bin policy_ab -- \
//!     --model X --policy paper,spray,criticality,pwfirst,oracle \
//!     --topology hier16 --csv policy_ab.csv --json policy_ab.json
//! ```
//!
//! Defaults: Model X (the paper's full heterogeneous link), all five
//! policies, the 4-cluster crossbar. Repeated `--topology` flags (each a
//! preset, compact spec like `ring:6x4`, or spec file) race the grid on
//! every listed topology; repeated `--model` flags sweep more models (the
//! first policy listed is the ED² baseline within each model);
//! `HETEROWIRE_SCALE=quick` downscales the runs. A policy whose defining
//! wire class is entirely absent from a requested model (e.g. `pwfirst`
//! on `custom:b144`) is refused up front with exit status 2.

use heterowire_bench::{
    completed, executor, format_metric_csv, format_metric_json, format_policy_table, policy_cells,
    policy_metric_rows, sweep, Cell, Flag, Grammar, Value, ALL_POLICIES, CSV, JSON,
};
use heterowire_core::ProcessorConfig;

const GRAMMAR: Grammar = Grammar {
    name: "policy_ab",
    about: "races steering policies (the first is the ED2 baseline) per model and topology",
    flags: &[
        Flag::many("--model", Value::Model, &["X"]),
        Flag::many("--topology", Value::Topology, &["crossbar4"]),
        Flag::many("--policy", Value::Policies, ALL_POLICIES),
        CSV,
        JSON,
    ],
    positional: &[],
};

fn main() {
    let args = GRAMMAR.parse();
    let policies = &args.policies;
    let names: Vec<&str> = policies.iter().map(|p| p.name()).collect();
    let models: Vec<String> = args.models.iter().map(|s| s.name()).collect();
    let mut rows = Vec::new();
    for topo_spec in &args.topologies {
        eprintln!(
            "racing {} on {} / {} x 23 benchmarks ...",
            names.join(", "),
            topo_spec.name(),
            models.join(", ")
        );
        // One cell per (model, policy), models outermost.
        let cells: Vec<Cell> = args
            .models
            .iter()
            .flat_map(|spec| {
                let config = ProcessorConfig::for_model_spec(spec, topo_spec.topology());
                policy_cells(config, policies, None)
            })
            .collect();
        let suites = completed(sweep(&cells, args.scale, executor::default_workers()));

        println!(
            "Steering-policy A/B comparison, {} ({} clusters)",
            topo_spec.name(),
            topo_spec.topology().clusters()
        );
        println!("(ED2 is % of the first listed policy, at 10%/20% interconnect fractions)\n");
        for (spec, model_suites) in args.models.iter().zip(suites.chunks(policies.len())) {
            println!("{}", format_policy_table(spec, policies, model_suites));
            let mut model_rows = policy_metric_rows(spec, policies, model_suites);
            // In a multi-topology race the section key carries the
            // topology so rows stay distinguishable in the artifacts.
            if args.topologies.len() > 1 {
                for r in &mut model_rows {
                    r.section = format!("{}/{}", topo_spec.name(), r.section);
                }
            }
            rows.extend(model_rows);
        }
    }
    args.write_artifacts(|| format_metric_csv(&rows), || format_metric_json(&rows));
}
