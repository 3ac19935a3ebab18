//! Contract tests for the steering-policy contenders and the `policy_ab`
//! A/B harness:
//!
//! * each new policy is deterministic and kernel-agnostic — the
//!   event-driven kernel matches the cycle-driven reference bit for bit,
//!   and two identical runs agree, on both topologies;
//! * the harness's `paper` lane is the exact default-processor path, so
//!   its rows are bit-identical to the existing Model-X baseline sweep;
//! * the oracle's grid IPC bounds the paper policy from above (it cheats;
//!   losing to a realizable policy would mean the bound is broken).

use heterowire_bench::{
    executor, policy_cells, run_one_policy_faults, sweep, PolicyKind, RunScale, SuiteResults, SEED,
};
use heterowire_core::{
    CriticalityPolicy, InterconnectModel, NullProbe, OraclePolicy, Processor, ProcessorConfig,
    PwFirstPolicy, SimResults,
};
use heterowire_interconnect::Topology;
use heterowire_trace::{spec2000, BenchmarkProfile, TraceGenerator};
use std::sync::Arc;

/// A debug-build-friendly scale: big enough to exercise replays, splits
/// and balancer overflows, small enough to run 3 policies x 2 kernels x 2
/// topologies without dominating the suite.
fn small() -> RunScale {
    RunScale {
        window: 2_000,
        warmup: 500,
    }
}

fn run_policy_both_kernels(
    policy: PolicyKind,
    topology: Topology,
    profile: BenchmarkProfile,
    scale: RunScale,
) -> (SimResults, SimResults) {
    let cfg = Arc::new(ProcessorConfig::for_model(InterconnectModel::X, topology));
    let trace = || TraceGenerator::new(profile, SEED);
    macro_rules! both {
        ($ctor:expr) => {{
            let event = Processor::with_policy_shared(cfg.clone(), trace(), NullProbe, $ctor)
                .run(scale.window, scale.warmup);
            let reference = Processor::with_policy_shared(cfg.clone(), trace(), NullProbe, $ctor)
                .run_reference(scale.window, scale.warmup);
            (event, reference)
        }};
    }
    match policy {
        PolicyKind::Criticality => both!(CriticalityPolicy::new(&cfg)),
        PolicyKind::PwFirst => both!(PwFirstPolicy::new(&cfg)),
        PolicyKind::Oracle => both!(OraclePolicy::new(&cfg)),
        _ => unreachable!("only the new contenders need the identity sweep"),
    }
}

#[test]
fn new_policies_are_kernel_agnostic_and_deterministic() {
    let profiles = spec2000();
    let contenders = [
        PolicyKind::Criticality,
        PolicyKind::PwFirst,
        PolicyKind::Oracle,
    ];
    for (i, &policy) in contenders.iter().enumerate() {
        for (j, topology) in [Topology::crossbar4(), Topology::hier16()]
            .into_iter()
            .enumerate()
        {
            // Rotate benchmarks so the contenders see varied traffic.
            let profile = profiles[(i * 7 + j * 11) % profiles.len()];
            let (event, reference) = run_policy_both_kernels(policy, topology, profile, small());
            assert_eq!(
                event,
                reference,
                "{} kernels diverge on {topology:?} ({})",
                policy.name(),
                profile.name
            );
            let (again, _) = run_policy_both_kernels(policy, topology, profile, small());
            assert_eq!(
                event,
                again,
                "{} is not run-to-run deterministic on {topology:?} ({})",
                policy.name(),
                profile.name
            );
        }
    }
}

#[test]
fn harness_paper_row_is_bit_identical_to_the_model_x_baseline() {
    let scale = RunScale::quick();
    let cfg = ProcessorConfig::for_model(InterconnectModel::X, Topology::crossbar4());
    let cells = policy_cells(cfg.clone(), &[PolicyKind::Paper, PolicyKind::Oracle], None);
    let suites: Vec<SuiteResults> = sweep(&cells, scale, 4)
        .into_iter()
        .map(|s| s.expect("every benchmark completes"))
        .collect();
    let baseline = executor::run_indexed(spec2000(), 4, |profile| {
        Processor::new(cfg.clone(), TraceGenerator::new(profile, SEED))
            .run(scale.window, scale.warmup)
    });
    assert_eq!(
        suites[0].runs, baseline,
        "the harness's paper lane must be the exact default-processor path"
    );

    // The oracle cheats (actual widths, known consumer distance, no
    // replays); the realizable paper policy must not beat it on the grid.
    let paper_ipc = suites[0].mean_ipc();
    let oracle_ipc = suites[1].mean_ipc();
    assert!(
        oracle_ipc >= paper_ipc,
        "oracle IPC {oracle_ipc} fell below paper IPC {paper_ipc}"
    );
}

#[test]
fn paper_lane_matches_the_default_processor() {
    let profile = spec2000()[3];
    let cfg = ProcessorConfig::for_model(InterconnectModel::X, Topology::crossbar4());
    let via_harness = run_one_policy_faults(
        Arc::new(cfg.clone()),
        profile,
        small(),
        PolicyKind::Paper,
        None,
    )
    .expect("completes");
    let direct =
        Processor::new(cfg, TraceGenerator::new(profile, SEED)).run(small().window, small().warmup);
    assert_eq!(via_harness, direct);
}
