//! The harness binaries' shared command-line grammar, driven end to end:
//! every malformed invocation — an unknown flag, a flag without its value,
//! a malformed model / topology / policy / fault / window / benchmark
//! token, a repeated single-valued flag, an unknown ablation study or a
//! bad `HETEROWIRE_SCALE` — must exit 2 with usage, never panic (101),
//! and stop before anything runs: nothing on stdout, no artifact written.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Every harness binary with the flags that point its artifacts at `dir`.
fn binaries(dir: &Path) -> Vec<(&'static str, &'static str, Vec<String>)> {
    let file = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let csv_json = || {
        vec![
            "--csv".to_string(),
            file("out.csv"),
            "--json".to_string(),
            file("out.json"),
        ]
    };
    vec![
        ("table2", env!("CARGO_BIN_EXE_table2"), csv_json()),
        ("table3", env!("CARGO_BIN_EXE_table3"), csv_json()),
        ("table4", env!("CARGO_BIN_EXE_table4"), csv_json()),
        ("fig3", env!("CARGO_BIN_EXE_fig3"), csv_json()),
        ("sensitivity", env!("CARGO_BIN_EXE_sensitivity"), csv_json()),
        ("ablation", env!("CARGO_BIN_EXE_ablation"), csv_json()),
        ("policy_ab", env!("CARGO_BIN_EXE_policy_ab"), csv_json()),
        ("fault_sweep", env!("CARGO_BIN_EXE_fault_sweep"), csv_json()),
        (
            "sweep_timing",
            env!("CARGO_BIN_EXE_sweep_timing"),
            vec![
                "--out".to_string(),
                file("timing.csv"),
                "--json-out".to_string(),
                file("bench.json"),
            ],
        ),
        (
            "telemetry",
            env!("CARGO_BIN_EXE_telemetry"),
            vec!["--out-dir".to_string(), file("telemetry")],
        ),
    ]
}

/// The malformed invocations `bin` must refuse, each with a fragment the
/// diagnostic must contain.
fn cases(bin: &str) -> Vec<(Vec<&'static str>, &'static str)> {
    let mut cases = vec![
        (vec!["--bogus", "1"], "unknown flag \"--bogus\""),
        (vec!["--model"], "--model requires a value"),
        (vec!["--model", "XI"], "\"XI\""),
    ];
    if bin != "table2" {
        cases.push((vec!["--topology", "mesh"], "unknown topology \"mesh\""));
    }
    if bin != "ablation" {
        cases.push((vec!["stray"], "unexpected argument \"stray\""));
    }
    if [
        "fig3",
        "sensitivity",
        "ablation",
        "fault_sweep",
        "telemetry",
    ]
    .contains(&bin)
    {
        cases.push((
            vec!["--model", "VII", "--model", "X"],
            "--model given more than once",
        ));
    }
    match bin {
        "table3" => cases.push((vec!["--modle", "X"], "unknown flag \"--modle\"")),
        "ablation" => cases.push((
            vec!["ls_bits"],
            "expected one of ls-bits, balance, narrow, opts, ext",
        )),
        "policy_ab" => {
            cases.push((vec!["--policy", "greedy"], "unknown policy \"greedy\""));
            cases.push((vec!["--policy", "paper,paper"], "given more than once"));
        }
        "fault_sweep" => {
            cases.push((vec!["--policy", "greedy"], "unknown policy \"greedy\""));
            cases.push((vec!["--faults", "bogus"], "--faults \"bogus\""));
            cases.push((vec!["--faults"], "--faults requires a value"));
        }
        "telemetry" => {
            cases.push((vec!["--window", "abc"], "--window \"abc\""));
            cases.push((vec!["--window", "0"], "--window \"0\""));
            cases.push((vec!["--bench", "nope"], "--bench \"nope\""));
        }
        _ => {}
    }
    cases
}

/// Runs one invocation and checks the exit-2 contract.
fn expect_exit_2(name: &str, exe: &str, argv: &[String], scale: &str, needle: &str, dir: &Path) {
    let out = Command::new(exe)
        .args(argv)
        .env("HETEROWIRE_SCALE", scale)
        .output()
        .expect("spawn harness binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{name} {argv:?} (scale {scale:?}): expected exit 2\n{stderr}"
    );
    assert!(
        stderr.contains(needle),
        "{name} {argv:?}: stderr lacks {needle:?}\n{stderr}"
    );
    assert!(
        stderr.contains(&format!("usage: {name}")),
        "{name} {argv:?}: no usage\n{stderr}"
    );
    assert!(
        out.stdout.is_empty(),
        "{name} {argv:?}: ran before refusing:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(
        !dir.exists(),
        "{name} {argv:?}: wrote an artifact under {}",
        dir.display()
    );
}

fn scratch_dir(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hw-cli-grammar-{}-{name}", std::process::id()))
}

#[test]
fn every_binary_refuses_malformed_input_with_exit_2() {
    let dir = scratch_dir("argv");
    for (name, exe, artifacts) in binaries(&dir) {
        for (case, needle) in cases(name) {
            // Artifact flags first, so a dangling flag really is last.
            let mut argv = artifacts.clone();
            argv.extend(case.iter().map(|s| s.to_string()));
            expect_exit_2(name, exe, &argv, "quick", needle, &dir);
        }
    }
}

#[test]
fn every_binary_refuses_a_bad_scale_with_exit_2() {
    let dir = scratch_dir("scale");
    for (name, exe, artifacts) in binaries(&dir) {
        let needle = "unknown HETEROWIRE_SCALE value \"bogus\"";
        expect_exit_2(name, exe, &artifacts, "bogus", needle, &dir);
    }
}

#[test]
fn sweep_timing_help_prints_usage_and_runs_nothing() {
    let dir = scratch_dir("help");
    let (_, exe, artifacts) = binaries(&dir)
        .into_iter()
        .find(|(name, _, _)| *name == "sweep_timing")
        .expect("sweep_timing is a harness binary");
    for flag in ["--help", "-h"] {
        let out = Command::new(exe)
            .args(&artifacts)
            .arg(flag)
            .output()
            .expect("spawn sweep_timing");
        assert_eq!(out.status.code(), Some(0), "{flag}");
        assert!(String::from_utf8_lossy(&out.stdout).starts_with("usage: sweep_timing"));
        assert!(!dir.exists(), "{flag} wrote an artifact");
    }
}
