//! Times the quick-scale Table-3 model sweep two ways — the seed's serial
//! reference loop and the flattened work-queue executor — verifies the two
//! produce bit-identical results, and appends one CSV row per invocation
//! to `results/sweep_timing.csv` (pass `--label` to tag the row, `--out`
//! to redirect it). This is the reproducible before/after number behind
//! EXPERIMENTS.md's executor section.

use heterowire_bench::timing::{git_revision, time_once, BenchReport, Measurement};
use heterowire_bench::{
    completed, executor, model_cells, sweep, sweep_serial, write_artifact, Flag, Grammar, RunScale,
    Value, HELP, PAPER_MODELS,
};

const GRAMMAR: Grammar = Grammar {
    name: "sweep_timing",
    about: "times the quick-scale model sweep (serial vs. executor) and appends a\n\
    CSV row to --out plus a schema-checked bench.json report to --json-out;\n\
    repeated --model flags (presets or custom:<spec>) replace the default\n\
    Models I-X; --topology (a preset, compact spec or spec file) replaces the\n\
    default 4-cluster crossbar",
    flags: &[
        Flag::one("--label", Value::Text("NAME"), &["run"]),
        Flag::one(
            "--out",
            Value::Text("CSV_PATH"),
            &["results/sweep_timing.csv"],
        ),
        Flag::one(
            "--json-out",
            Value::Text("JSON_PATH"),
            &["results/bench.json"],
        ),
        Flag::many("--model", Value::Model, PAPER_MODELS),
        Flag::one("--topology", Value::Topology, &["crossbar4"]),
        HELP,
    ],
    positional: &[],
};

fn main() {
    let args = GRAMMAR.parse();
    let label = args.value("--label").expect("defaulted");
    let out = args.value("--out").expect("defaulted");
    let json_out = args.value("--json-out").expect("defaulted");
    // Always the quick scale: the timing trail compares like with like.
    let scale = RunScale::quick();
    let workers = executor::default_workers();
    let cells = model_cells(&args.models, args.topology().topology());

    eprintln!(
        "quick-scale model sweep ({} models), serial reference ...",
        cells.len()
    );
    let (serial, t_serial) = time_once(|| completed(sweep_serial(&cells, scale)));
    eprintln!("quick-scale model sweep, executor ({workers} workers) ...");
    let (parallel, t_parallel) = time_once(|| completed(sweep(&cells, scale, workers)));
    assert!(
        serial == parallel,
        "executor must be bit-identical to serial"
    );

    let speedup = t_serial.as_secs_f64() / t_parallel.as_secs_f64();
    println!(
        "label={label} host_threads={workers} serial={:.3}s executor={:.3}s speedup={speedup:.2}x",
        t_serial.as_secs_f64(),
        t_parallel.as_secs_f64(),
    );

    let path = std::path::Path::new(out);
    let header = "label,host_threads,window,warmup,serial_s,executor_s,speedup\n";
    let mut body = std::fs::read_to_string(path).unwrap_or_else(|_| String::from(header));
    body.push_str(&format!(
        "{},{},{},{},{:.3},{:.3},{:.2}\n",
        label,
        workers,
        scale.window,
        scale.warmup,
        t_serial.as_secs_f64(),
        t_parallel.as_secs_f64(),
        speedup
    ));
    write_artifact(path, &body);

    // Machine-readable perf-trajectory artifact, schema-validated on write
    // and after re-reading from disk (the CI gate fails on schema errors
    // only; the timing values themselves are warn-only on shared runners).
    let report = BenchReport {
        suite: "sweep_timing".to_string(),
        label: label.to_string(),
        host_threads: workers as u64,
        git_rev: git_revision(),
        measurements: vec![
            Measurement {
                name: "serial".to_string(),
                seconds: t_serial.as_secs_f64(),
            },
            Measurement {
                name: "executor".to_string(),
                seconds: t_parallel.as_secs_f64(),
            },
        ],
    };
    if let Err(e) = report.write(std::path::Path::new(json_out)) {
        eprintln!("bench.json schema violation: {e}");
        std::process::exit(1);
    }
    println!("wrote {json_out}");
}
