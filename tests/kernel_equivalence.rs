//! The event-driven kernel (completion wheel, wakeup-driven issue,
//! idle-cycle skipping) must be **bit-identical** to the seed's
//! cycle-driven reference loop: same cycle counts, same network statistics
//! down to the last bit-hop and queue cycle, same predictor and LSQ rates.
//!
//! Every interconnect model runs on both the 4-cluster crossbar and the
//! 16-cluster crossbar-of-rings at quick scale; benchmarks rotate across
//! models so the suite's workload variety (FP-heavy, memory-bound,
//! branchy) is covered without running the full 230-run sweep twice in a
//! debug build. The same holds with wire faults injected, for every
//! steering policy, on the 64-cluster ring.

use std::sync::Arc;

use heterowire_bench::{degraded_config, RunScale, SEED};
use heterowire_core::{
    CriticalityPolicy, FaultSpec, InterconnectModel, ModelSpec, NullProbe, OraclePolicy,
    PaperPolicy, Processor, ProcessorConfig, PwFirstPolicy, RecordingConfig, RecordingProbe,
    SprayPolicy, TransferPolicy,
};
use heterowire_interconnect::Topology;
use heterowire_trace::{spec2000, BenchmarkProfile, TraceGenerator};

fn assert_kernels_match(topology: Topology, scale: RunScale) {
    let profiles = spec2000();
    for (i, &model) in InterconnectModel::ALL.iter().enumerate() {
        let profile = profiles[(i * 7) % profiles.len()];
        let cfg = ProcessorConfig::for_model(model, topology);
        let event = Processor::new(cfg.clone(), TraceGenerator::new(profile, SEED))
            .run(scale.window, scale.warmup);
        let reference = Processor::new(cfg, TraceGenerator::new(profile, SEED))
            .run_reference(scale.window, scale.warmup);
        assert_eq!(
            event, reference,
            "kernels diverge for model {:?} on {topology:?} ({})",
            model, profile.name
        );
    }
}

#[test]
fn event_kernel_matches_reference_on_crossbar4() {
    assert_kernels_match(Topology::crossbar4(), RunScale::quick());
}

#[test]
fn event_kernel_matches_reference_on_hier16_ring() {
    assert_kernels_match(Topology::hier16(), RunScale::quick());
}

/// The widened (spill-path) per-value structures must not change the
/// kernels' agreement: past the 16-cluster inline capacity, every model
/// still runs bit-identically on both kernels. `ring:16x4` is the
/// 64-cluster headline shape, exercising the full `ClusterMask` width and
/// the longest inline routes.
#[test]
fn event_kernel_matches_reference_on_wide_ring16x4() {
    assert_kernels_match(Topology::hier_ring(16, 4), RunScale::quick());
}

/// Runs one profile under `spec`'s injector on both kernels with a fresh
/// `policy()` each, and requires identical results (neither may stall).
fn assert_fault_kernels_match<T: TransferPolicy>(
    config: &Arc<ProcessorConfig>,
    spec: &FaultSpec,
    profile: BenchmarkProfile,
    policy: impl Fn() -> T,
) {
    let (window, warmup) = (8_000, 500);
    let build = || {
        Processor::with_faults_shared(
            Arc::clone(config),
            TraceGenerator::new(profile, SEED),
            NullProbe,
            policy(),
            spec.injector(),
        )
    };
    let event = build()
        .try_run(window, warmup)
        .expect("event kernel stalled");
    let reference = build()
        .try_run_reference(window, warmup)
        .expect("reference kernel stalled");
    assert!(
        event.net.retransmits > 0,
        "no fault fired ({})",
        profile.name
    );
    assert_eq!(
        event,
        reference,
        "kernels diverge under faults for {} ({})",
        std::any::type_name::<T>(),
        profile.name
    );
}

/// The fault path (corruption draws, NACKs, retransmits, B escalation and
/// a stuck L lane) must not split the kernels either: the 64-cluster ring
/// under the fault benchmark's spec, all five steering policies, each on
/// a different profile.
#[test]
fn event_kernel_matches_reference_under_faults_on_ring16x4() {
    let spec = FaultSpec::parse("l@1e-3+b@1e-5+lane:L1@stuck+seed:1").expect("valid spec");
    let model = ModelSpec::parse("X").expect("Model X is a preset");
    let config = Arc::new(
        degraded_config(&model, Topology::hier_ring(16, 4), Some(&spec)).expect("degradable"),
    );
    let profiles = spec2000();
    let profile = |i: usize| profiles[(i * 5 + 3) % profiles.len()];
    assert_fault_kernels_match(&config, &spec, profile(0), || PaperPolicy::new(&config));
    assert_fault_kernels_match(&config, &spec, profile(1), || {
        SprayPolicy::new(&config.link)
    });
    assert_fault_kernels_match(&config, &spec, profile(2), || {
        CriticalityPolicy::new(&config)
    });
    assert_fault_kernels_match(&config, &spec, profile(3), || PwFirstPolicy::new(&config));
    assert_fault_kernels_match(&config, &spec, profile(4), || OraclePolicy::new(&config));
}

/// Recording must be pure observation: a run with a live [`RecordingProbe`]
/// produces `SimResults` bit-identical to the probe-disabled run.
#[test]
fn recording_probe_does_not_perturb_results() {
    let scale = RunScale::quick();
    let profiles = spec2000();
    for (i, topology) in [Topology::crossbar4(), Topology::hier16()]
        .into_iter()
        .enumerate()
    {
        // Model X exercises all three wire planes, so every probe site
        // (L-Wire steering, PW criteria, overflow balancing) fires.
        let profile = profiles[(i * 11) % profiles.len()];
        let cfg = ProcessorConfig::for_model(InterconnectModel::X, topology);
        let disabled = Processor::new(cfg.clone(), TraceGenerator::new(profile, SEED))
            .run(scale.window, scale.warmup);
        let labels = Processor::new(cfg.clone(), TraceGenerator::new(profile, SEED))
            .network()
            .link_labels();
        let probe = RecordingProbe::new(RecordingConfig::new(64, labels, topology.clusters()));
        let mut recorded = Processor::with_probe(cfg, TraceGenerator::new(profile, SEED), probe);
        let results = recorded.run(scale.window, scale.warmup);
        assert_eq!(
            results, disabled,
            "RecordingProbe perturbed the simulation on {topology:?} ({})",
            profile.name
        );
        recorded.probe_mut().finish();
        assert!(
            recorded.probe().counts.commits > 0,
            "the probe actually recorded something"
        );
    }
}
