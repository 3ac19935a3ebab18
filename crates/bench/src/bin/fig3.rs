//! Regenerates **Figure 3** of the paper: per-benchmark IPC for the
//! baseline 4-cluster processor (one metal layer: 72 B-Wires per cluster
//! link, 144 to the cache) versus the same processor with an added L-Wire
//! layer (18 L-Wires per cluster link) running all three L-Wire
//! optimizations — partial-address cache pipeline, narrow operands and
//! branch-mispredict signals (paper §5.3).
//!
//! `--model <token>` swaps the enhanced machine for any other model (a
//! preset or `custom:<spec>`); the baseline stays the figure's 72 B-Wire
//! single layer.

use heterowire_bench::{
    completed, executor, format_suite_csv, format_suite_json, sweep, Cell, Flag, Grammar, Value,
    CSV, JSON,
};
use heterowire_core::{ModelSpec, Optimizations, ProcessorConfig};

const GRAMMAR: Grammar = Grammar {
    name: "fig3",
    about: "per-benchmark IPC of the 72 B-Wire baseline vs the --model machine",
    flags: &[
        Flag::one("--model", Value::Model, &["custom:b72+l18"]),
        Flag::one("--topology", Value::Topology, &["crossbar4"]),
        CSV,
        JSON,
    ],
    positional: &[],
};

fn main() {
    let args = GRAMMAR.parse();
    // Figure 3 uses a single metal layer: 72 B-Wires per cluster link (the
    // cache link has twice that), versus the same plus an L-Wire layer of
    // 18 wires per cluster link (paper §5.3). Both machines share one
    // topology so the comparison isolates the wire mix.
    let base_spec = ModelSpec::parse("custom:b72").expect("valid spec");
    let enhanced = args.model();
    let topology = args.topology().topology();

    let mut base_cfg = ProcessorConfig::for_model_spec(&base_spec, topology);
    base_cfg.opts = Optimizations::none();
    let l_cfg = ProcessorConfig::for_model_spec(enhanced, topology);

    eprintln!(
        "running baseline (72 B-Wires) and enhanced ({}) suites ...",
        enhanced.description()
    );
    let cells = [Cell::new(base_cfg), Cell::new(l_cfg)];
    let suites = completed(sweep(&cells, args.scale, executor::default_workers()));
    let (base, lwire) = (&suites[0], &suites[1]);
    let labelled = [("baseline", base), ("lwire", lwire)];
    args.write_artifacts(
        || format_suite_csv(&labelled),
        || format_suite_json(&labelled),
    );

    println!("Figure 3: IPC, 4-cluster partitioned architecture");
    println!(
        "{:<10} {:>10} {:>14} {:>8}",
        "benchmark", "baseline", "enhanced", "delta"
    );
    for i in 0..base.names.len() {
        let b = base.runs[i].ipc();
        let l = lwire.runs[i].ipc();
        println!(
            "{:<10} {:>10.3} {:>14.3} {:>+7.1}%",
            base.names[i],
            b,
            l,
            (l / b - 1.0) * 100.0
        );
    }
    let bam = base.mean_ipc();
    let lam = lwire.mean_ipc();
    println!(
        "{:<10} {:>10.3} {:>14.3} {:>+7.1}%",
        "AM",
        bam,
        lam,
        (lam / bam - 1.0) * 100.0
    );
    println!(
        "\npaper: +4.2% AM IPC from the three L-Wire optimizations \
         (cache pipeline, narrow operands, branch signal contributing equally)"
    );
}
