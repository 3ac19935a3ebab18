//! Regenerates **Table 4** of the paper: the ten interconnect models on the
//! 16-cluster hierarchical (crossbar + ring) topology, with interconnect
//! energy at 20% of Model-I chip energy — the configuration in which the
//! paper reports up to 11% ED² reduction.

use heterowire_bench::{model_sweep_main, Flag, Grammar, Value, CSV, JSON, PAPER_MODELS};

const GRAMMAR: Grammar = Grammar {
    name: "table4",
    about: "sweeps the models (the first is the baseline) on one topology, Table-4 layout",
    flags: &[
        Flag::many("--model", Value::Model, PAPER_MODELS),
        Flag::one("--topology", Value::Topology, &["hier16"]),
        CSV,
        JSON,
    ],
    positional: &[],
};

fn main() {
    let args = GRAMMAR.parse();
    let rows = model_sweep_main(&args);
    let topo = args.topology();

    println!(
        "Table 4: heterogeneous interconnect energy and performance, {} ({} clusters)",
        topo.name(),
        topo.topology().clusters()
    );
    println!("(interconnect = 20% of Model-I chip energy; values are % of Model I)\n");
    println!(
        "{:<10} {:<40} {:>6} {:>8} {:>9}",
        "Model", "Link composition", "IPC", "Energy", "ED2(20%)"
    );
    for r in &rows {
        println!(
            "{:<10} {:<40} {:>6.3} {:>8.1} {:>9.1}",
            r.model.label(),
            r.description,
            r.at_20.ipc,
            r.at_20.rel_processor_energy,
            r.at_20.rel_ed2,
        );
    }
    let best = rows
        .iter()
        .min_by(|a, b| a.at_20.rel_ed2.total_cmp(&b.at_20.rel_ed2))
        .expect("ten rows");
    println!(
        "\nbest ED2: {} at {:.1}% (paper: Models VII/IX at 88.7% — an 11.3% reduction)",
        best.model.label(),
        best.at_20.rel_ed2
    );
}
