//! Ablation studies for the design choices the paper calls out:
//!
//! * `ls-bits`  — LS-bit count vs false-dependence rate (paper picks 8);
//! * `balance`  — load-balancer window/threshold sweep (paper picks N=5, T=10);
//! * `narrow`   — narrow-width threshold (paper picks 10 bits);
//! * `opts`     — each L-Wire optimization enabled alone;
//! * `ext`      — the paper's discussed-but-unevaluated extensions
//!   (frequent-value compaction, L2 critical-word-first, transmission-line
//!   L-Wires).
//!
//! Run `cargo run -p heterowire-bench --bin ablation -- <which>`; with no
//! study name, all five run, and any other name exits 2. `--model <token>` (a preset or
//! `custom:<spec>`) swaps the default Model VII study machine;
//! `--topology <token>` (a preset, compact spec or spec file) swaps the
//! default 4-cluster crossbar; `--csv` / `--json` write every printed
//! scalar as machine-readable [`MetricRow`] artifacts.

use heterowire_bench::{
    completed, executor, format_metric_csv, format_metric_json, sweep, Args, Cell, Flag, Grammar,
    MetricRow, SuiteResults, Value, CSV, JSON, SEED,
};
use heterowire_core::{Extensions, InterconnectModel, Optimizations, ProcessorConfig, SimResults};
use heterowire_trace::{by_name, spec2000, TraceGenerator};

const GRAMMAR: Grammar = Grammar {
    name: "ablation",
    about: "design-choice ablations of the study model; no study name runs all five",
    flags: &[
        Flag::one("--model", Value::Model, &["VII"]),
        Flag::one("--topology", Value::Topology, &["crossbar4"]),
        CSV,
        JSON,
    ],
    positional: &["ls-bits", "balance", "narrow", "opts", "ext"],
};

/// The study machine: the `--model` on the `--topology`.
fn study(args: &Args) -> ProcessorConfig {
    ProcessorConfig::for_model_spec(args.model(), args.topology().topology())
}

/// The paper-policy suite of every configuration, swept at once.
fn suites(args: &Args, configs: impl Iterator<Item = ProcessorConfig>) -> Vec<SuiteResults> {
    let cells: Vec<Cell> = configs.map(Cell::new).collect();
    completed(sweep(&cells, args.scale, executor::default_workers()))
}

/// One configuration's runs over a named benchmark subset, in order.
fn subset(args: &Args, cfg: ProcessorConfig, benches: &[&str]) -> Vec<SimResults> {
    let cell = Cell::new(cfg);
    completed(
        benches
            .iter()
            .map(|b| cell.run(by_name(b).expect("known benchmark"), args.scale)),
    )
}

fn ls_bits(args: &Args, out: &mut Vec<MetricRow>) {
    println!("\n== LS-bit sweep: false partial-address dependences ==");
    println!("{:>8} {:>12} {:>10}", "LS bits", "false deps", "AM IPC");
    let bits = [4, 6, 8, 12, 16];
    let configs = bits.iter().map(|&ls_bits| ProcessorConfig {
        ls_bits,
        ..study(args)
    });
    for (bits, suite) in bits.iter().zip(suites(args, configs)) {
        let (fd, loads) = suite.runs.iter().fold((0, 0), |(fd, ld), r| {
            (fd + r.lsq.false_dependences, ld + r.lsq.loads)
        });
        let fd_pct = fd as f64 / loads as f64 * 100.0;
        println!("{:>8} {:>11.2}% {:>10.3}", bits, fd_pct, suite.mean_ipc());
        let label = bits.to_string();
        out.push(MetricRow::new("ls-bits", &label, "false_dep_pct", fd_pct));
        out.push(MetricRow::new(
            "ls-bits",
            &label,
            "am_ipc",
            suite.mean_ipc(),
        ));
    }
    println!("(paper: <9% of loads at 8 LS bits)");
}

fn balance(args: &Args, out: &mut Vec<MetricRow>) {
    // The balancer needs both full-width planes; fall back to Model V
    // (144 B + 288 PW) when the study model lacks one.
    let link = args.model().link();
    let model = if link.lanes(heterowire_wires::WireClass::B) > 0
        && link.lanes(heterowire_wires::WireClass::Pw) > 0
    {
        args.model().clone()
    } else {
        InterconnectModel::V.spec()
    };
    println!(
        "\n== Load-balancer sweep ({}: {}) ==",
        model.label(),
        model.description()
    );
    println!("(the balancer diverts overflow traffic to the less congested plane)");
    println!(
        "{:>10} {:>10} {:>10} {:>10}",
        "window", "threshold", "AM IPC", "PW share"
    );
    // The balancer lives in the policy; window/threshold are fixed at the
    // paper's values in the public API, so this sweep exercises on/off and
    // the PW-steering criteria combinations instead.
    let variants = [
        (false, false, "off/off"),
        (true, false, "criteria only"),
        (false, true, "balance only"),
        (true, true, "paper (both)"),
    ];
    let configs = variants.iter().map(|&(pw, lb, _)| {
        let mut cfg = ProcessorConfig::for_model_spec(&model, args.topology().topology());
        cfg.opts.pw_steering = pw;
        cfg.opts.load_balance = lb;
        cfg
    });
    for ((_, _, label), suite) in variants.iter().zip(suites(args, configs)) {
        let (pw_t, total) = suite.runs.iter().fold((0u64, 0u64), |(p, t), r| {
            (p + r.net.transfers[1], t + r.net.total_transfers())
        });
        let pw_share = pw_t as f64 / total as f64 * 100.0;
        println!(
            "{:>21} {:>10.3} {:>9.1}%",
            label,
            suite.mean_ipc(),
            pw_share
        );
        out.push(MetricRow::new("balance", label, "am_ipc", suite.mean_ipc()));
        out.push(MetricRow::new("balance", label, "pw_share_pct", pw_share));
    }
}

fn narrow(_: &Args, out: &mut Vec<MetricRow>) {
    println!("\n== Narrow-operand availability (trace property) ==");
    println!("{:>10} {:>16}", "threshold", "narrow results");
    for bits in [8u32, 10, 12, 16] {
        let mut narrow = 0u64;
        let mut total = 0u64;
        for p in spec2000() {
            for op in TraceGenerator::new(p, SEED).take(20_000) {
                if let Some(d) = op.dest() {
                    if d.class() == heterowire_isa::RegClass::Int {
                        total += 1;
                        if heterowire_isa::value::fits_in(op.result(), bits) {
                            narrow += 1;
                        }
                    }
                }
            }
        }
        let pct = narrow as f64 / total as f64 * 100.0;
        println!("{:>7} bit {:>15.1}%", bits, pct);
        out.push(MetricRow::new(
            "narrow",
            &bits.to_string(),
            "narrow_result_pct",
            pct,
        ));
    }
    println!("(paper uses 10 bits: 8-bit tag + 10-bit payload on 18 L-Wires)");
}

type OptVariant = (&'static str, fn(&mut Optimizations));

fn opts(args: &Args, out: &mut Vec<MetricRow>) {
    println!(
        "\n== Individual L-Wire optimization contributions ({}) ==",
        args.model().label()
    );
    let bench_set = ["gzip", "gcc", "twolf", "swim", "mcf", "applu"];
    let variants: [OptVariant; 5] = [
        ("none (baseline wires)", |o| {
            o.cache_pipeline = false;
            o.narrow_operands = false;
            o.branch_signal = false;
        }),
        ("cache pipeline only", |o| {
            o.narrow_operands = false;
            o.branch_signal = false;
        }),
        ("narrow operands only", |o| {
            o.cache_pipeline = false;
            o.branch_signal = false;
        }),
        ("branch signal only", |o| {
            o.cache_pipeline = false;
            o.narrow_operands = false;
        }),
        ("all three (paper)", |_| {}),
    ];
    println!("{:<24} {:>10}", "variant", "AM IPC");
    for (label, tweak) in variants {
        let mut cfg = study(args);
        tweak(&mut cfg.opts);
        let sum: f64 = subset(args, cfg, &bench_set).iter().map(|r| r.ipc()).sum();
        let am = sum / bench_set.len() as f64;
        println!("{:<24} {:>10.3}", label, am);
        out.push(MetricRow::new("opts", label, "am_ipc", am));
    }
    println!("(paper: the three optimizations contributed equally)");
}

fn extensions(args: &Args, out: &mut Vec<MetricRow>) {
    println!(
        "\n== Paper-discussed extensions ({}, 2x wire-constrained latency) ==",
        args.model().label()
    );
    let bench_set = ["gzip", "gcc", "mcf", "swim", "applu", "twolf"];
    let variants: [(&str, Extensions); 5] = [
        ("paper (no extensions)", Extensions::default()),
        (
            "frequent-value compaction",
            Extensions {
                frequent_value: true,
                ..Default::default()
            },
        ),
        (
            "L2 critical-word-first",
            Extensions {
                l2_critical_word: true,
                ..Default::default()
            },
        ),
        (
            "transmission-line L-wires",
            Extensions {
                transmission_lines: true,
                ..Default::default()
            },
        ),
        (
            "all extensions",
            Extensions {
                frequent_value: true,
                l2_critical_word: true,
                transmission_lines: true,
            },
        ),
    ];
    println!("{:<28} {:>8} {:>12}", "variant", "AM IPC", "IC dyn (rel)");
    let mut base_energy = 0.0;
    for (i, (label, ext)) in variants.iter().enumerate() {
        let cfg = ProcessorConfig {
            latency_scale: 2.0,
            extensions: *ext,
            ..study(args)
        };
        let runs = subset(args, cfg, &bench_set);
        let ipc: f64 = runs.iter().map(|r| r.ipc()).sum();
        let energy: f64 = runs.iter().map(|r| r.net.dynamic_energy).sum();
        if i == 0 {
            base_energy = energy;
        }
        let am = ipc / bench_set.len() as f64;
        let rel = energy / base_energy * 100.0;
        println!("{:<28} {:>8.3} {:>11.1}%", label, am, rel);
        out.push(MetricRow::new("ext", label, "am_ipc", am));
        out.push(MetricRow::new("ext", label, "ic_dynamic_pct", rel));
    }
}

type Study = fn(&Args, &mut Vec<MetricRow>);

fn main() {
    let args = GRAMMAR.parse();
    let studies: [(&str, Study); 5] = [
        ("ls-bits", ls_bits),
        ("balance", balance),
        ("narrow", narrow),
        ("opts", opts),
        ("ext", extensions),
    ];
    let mut metrics = Vec::new();
    for (name, run) in studies {
        if args.positional.as_deref().is_none_or(|p| p == name) {
            run(&args, &mut metrics);
        }
    }
    args.write_artifacts(
        || format_metric_csv(&metrics),
        || format_metric_json(&metrics),
    );
}
