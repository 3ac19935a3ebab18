//! The benchmark's own checks, run against the built binary on small
//! slices of each grid: the printed metric names match `BENCHMARK.json`,
//! the result line parses, a second seed changes the digests but passes
//! every invariant, and a corrupted digest fails the run.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use heterowire_telemetry::json::{parse, Json};

const BIN: &str = env!("CARGO_BIN_EXE_heterowire-simbench");

fn tmp_file(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("simbench-tests");
    std::fs::create_dir_all(&dir).expect("create the test temp dir");
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    path
}

/// Runs a small slice of `workload` and returns the process output.
fn run(workload: &str, seed: u64, trace: bool, extra: &[&str]) -> Output {
    let spans = tmp_file(&format!("spans-{workload}-{seed}-{trace}.json"));
    Command::new(BIN)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0.1", "--trace", if trace { "1" } else { "0" }])
        .args(["--limit-jobs", "3", "--spans"])
        .arg(&spans)
        .args(extra)
        .output()
        .expect("benchmark binary runs")
}

/// The last stdout line, parsed.
fn result_line(out: &Output) -> Json {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("some output");
    parse(last).unwrap_or_else(|e| panic!("result line {last:?} does not parse: {e}"))
}

fn metric_names(doc: &Json) -> Vec<String> {
    match doc.get("metrics") {
        Some(Json::Obj(m)) => m.keys().cloned().collect(),
        other => panic!("metrics is not an object: {other:?}"),
    }
}

/// (name, unit) of every metric in one `BENCHMARK.json` list, sorted.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
    let doc = parse(&text).expect("BENCHMARK.json parses");
    let mut out: Vec<(String, String)> = doc
        .get(list)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("{list} is a list"))
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect();
    out.sort();
    out
}

fn printed(doc: &Json) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = metric_names(doc)
        .into_iter()
        .map(|name| {
            let m = doc
                .get("metrics")
                .and_then(|m| m.get(&name))
                .expect("metric");
            assert!(m.get("value").is_some(), "{name} has a value");
            let unit = m.get("unit").and_then(Json::as_str).expect("unit");
            (name, unit.to_string())
        })
        .collect();
    out.sort();
    out
}

fn digest_of(path: &Path) -> String {
    let text = std::fs::read_to_string(path).expect("recorded digest");
    text.split_whitespace()
        .last()
        .expect("digest field")
        .to_string()
}

#[test]
fn printed_metrics_match_benchmark_json() {
    for (trace, list) in [(false, "end_to_end"), (true, "per_layer")] {
        let out = run("policy_hier16", 1, trace, &[]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let doc = result_line(&out);
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("failed").and_then(Json::as_num), Some(0.0));
        assert!(doc.get("attempted").and_then(Json::as_num).unwrap() >= 3.0);
        assert_eq!(printed(&doc), declared(list), "--trace {trace}");
    }
}

#[test]
fn second_seed_changes_digests_and_passes_every_check() {
    let mut digests = Vec::new();
    for seed in [1, 2] {
        let record = tmp_file(&format!("digest-seed{seed}.txt"));
        let out = run(
            "wide_faults_ring64",
            seed,
            true,
            &["--record-digests", record.to_str().unwrap()],
        );
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(result_line(&out).get("correct"), Some(&Json::Bool(true)));
        digests.push(digest_of(&record));
    }
    assert_ne!(
        digests[0], digests[1],
        "the seed reaches the simulated inputs"
    );
}

#[test]
fn corrupted_digest_fails_the_run() {
    let record = tmp_file("digest-good.txt");
    let out = run(
        "paper_xbar4",
        1,
        false,
        &["--record-digests", record.to_str().unwrap()],
    );
    assert!(out.status.success());
    let good = std::fs::read_to_string(&record).unwrap();

    let out = run(
        "paper_xbar4",
        1,
        false,
        &["--digests", record.to_str().unwrap()],
    );
    assert!(out.status.success(), "the recorded digest matches");

    let digest = digest_of(&record);
    let flipped: String = digest
        .chars()
        .map(|c| if c == '0' { '1' } else { '0' })
        .collect();
    let bad = tmp_file("digest-bad.txt");
    std::fs::write(&bad, good.replace(&digest, &flipped)).unwrap();
    let out = run(
        "paper_xbar4",
        1,
        false,
        &["--digests", bad.to_str().unwrap()],
    );
    assert!(
        !out.status.success(),
        "a corrupted digest must fail the run"
    );
    let doc = result_line(&out);
    assert_eq!(doc.get("correct"), Some(&Json::Bool(false)));
    assert_eq!(doc.get("failed").and_then(Json::as_num), Some(3.0));
}

#[test]
fn stored_digests_cover_every_full_workload_at_the_default_seed() {
    let text = include_str!("../digests.txt");
    for (workload, jobs) in [
        ("paper_xbar4", 230),
        ("policy_hier16", 115),
        ("wide_faults_ring64", 115),
    ] {
        let prefix = format!("{workload} 1 {jobs} ");
        assert!(
            text.lines().any(|l| l.starts_with(&prefix)),
            "no stored digest for {prefix}"
        );
    }
}

#[test]
fn bad_arguments_exit_2() {
    for args in [
        &["--workload", "bogus"][..],
        &["--trace", "2"],
        &["--seed", "x"],
        &["--seconds", "0"],
        &["--frobnicate"],
    ] {
        let out = Command::new(BIN).args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}

/// At the repository's experiment seed, the benchmark's own set-up and
/// construction path reproduces the sweep harness's results exactly, for
/// every policy, with and without faults.
#[test]
fn construction_matches_the_harness_path() {
    use std::sync::Arc;

    use heterowire_bench::{run_one_policy_faults, RunScale, SEED};
    use heterowire_core::NullProbe;
    use heterowire_simbench::grid::{build, construct, Workload, WARMUP, WINDOW};

    let scale = RunScale {
        window: WINDOW,
        warmup: WARMUP,
    };
    for name in ["policy_hier16", "wide_faults_ring64"] {
        let w = Workload::by_name(name).unwrap();
        // One job per policy, on the first profile.
        for job in w.jobs().into_iter().step_by(23) {
            let built = build(&w, &job, SEED).unwrap();
            let config = Arc::new(built.config().clone());
            let faults = built.faults().cloned();
            let ours = construct(built, job.policy, NullProbe, true)
                .result
                .unwrap();
            let theirs =
                run_one_policy_faults(config, job.profile, scale, job.policy, faults.as_ref());
            assert_eq!(
                ours.map(|r| r.to_json()),
                theirs.map(|r| r.to_json()).map_err(|e| e.to_string()),
                "{}",
                w.job_key(&job, SEED)
            );
        }
    }
}
