//! Integration test for the `insight` diagnosis layer over the corpus
//! replay: the textbook roofline shapes must receive their textbook
//! verdicts, every launch must be classified exactly once, and the
//! Eq. 2 model drift must stay inside the calibrated band end-to-end.

use mc_bench::experiment::IterBudgets;
use mc_bench::insight;
use mc_obs::{Bottleneck, DEFAULT_DRIFT_BAND};
use mc_sim::DeviceRegistry;

/// The corpus always ends with the canonical roofline pair on each
/// device, in launch order: a large square SGEMM (arithmetic intensity
/// high enough to saturate the Matrix Cores) followed by the same
/// problem with K truncated to 64 (DRAM traffic dominates).
#[test]
fn canonical_shapes_diagnose_to_their_roofline_regimes() {
    let devices = DeviceRegistry::builtin();
    let (report, _events) = insight::run(&devices, &IterBudgets::smoke());

    let gcd = report
        .devices
        .iter()
        .find(|d| d.device == "mi250x-gcd")
        .expect("mi250x-gcd swept");
    assert!(gcd.verdicts.len() >= 2, "corpus replay launched kernels");

    let compute = &gcd.verdicts[gcd.verdicts.len() - 2];
    assert_eq!(
        compute.bottleneck,
        Bottleneck::ComputeBound,
        "large-square SGEMM must be compute-bound: {compute:#?}"
    );

    let dram = &gcd.verdicts[gcd.verdicts.len() - 1];
    assert_eq!(
        dram.bottleneck,
        Bottleneck::DramBound,
        "small-K SGEMM must be DRAM-bound: {dram:#?}"
    );

    // Both carry machine-checkable evidence consistent with the call.
    assert!(dram.evidence.memory_stall_fraction > compute.evidence.memory_stall_fraction);
    assert!(!compute.explanation.is_empty() && !dram.explanation.is_empty());
}

#[test]
fn every_corpus_launch_is_classified_once_and_drift_stays_in_band() {
    let devices = DeviceRegistry::builtin();
    let (report, _events) = insight::run(&devices, &IterBudgets::smoke());

    assert_eq!(report.devices.len(), 4, "all built-in devices swept");
    assert!(report.total_kernels > 0);
    assert_eq!(report.unclassified, 0, "every launch gets a verdict");
    assert_eq!(
        report.regime_inconsistent, 0,
        "verdicts agree with the engine's roofline regime"
    );
    let counted: usize = report.verdict_counts.iter().map(|c| c.kernels).sum();
    assert_eq!(counted, report.total_kernels, "exactly one verdict each");

    assert_eq!(report.drift_band, DEFAULT_DRIFT_BAND);
    assert_eq!(
        report.drift_out_of_band, 0,
        "worst |drift| {:.3} exceeds the calibrated band",
        report.drift_max_abs
    );
    assert!(
        report.drift_observations > 0,
        "plan spans carried predictions"
    );
}
