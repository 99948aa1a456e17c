//! Golden lint corpus: deliberately broken kernels that must each fire
//! an exact set of rules, plus the converse — every kernel the repo
//! actually ships (device audits, `mc-wmma` loop and tile kernels, and
//! `mc-blas` planner output) must lint clean. Together they pin down
//! both directions of the static verifier: no false negatives on known
//! defects, no false positives on the shipped corpus.

use amd_matrix_cores::isa::specs::{self, DieSpec};
use amd_matrix_cores::isa::{
    ampere_catalog, cdna2_catalog, KernelDesc, MatrixInstruction, SlotOp, ValuOp, ValuOpKind,
    WaveProgram,
};
use amd_matrix_cores::lint::{
    audit_die, audit_package, lint_kernel, required_snop_gap, LintReport, RuleId, Section,
    Severity, Span,
};
use amd_matrix_cores::types::DType;

fn die() -> DieSpec {
    specs::mi250x().die
}

fn mixed() -> MatrixInstruction {
    *cdna2_catalog()
        .find(DType::F32, DType::F16, 16, 16, 16)
        .unwrap()
}

/// A well-formed kernel every broken variant starts from: staged loads,
/// an MFMA chain, a correctly padded accumulator store.
fn baseline() -> KernelDesc {
    let i = mixed();
    let gap = u8::try_from(required_snop_gap(&i)).unwrap();
    KernelDesc {
        arch_vgprs: i.a_vgprs_per_lane() + i.b_vgprs_per_lane() + 16,
        acc_vgprs: i.cd_agprs_per_lane(),
        ..KernelDesc::new(
            "corpus_baseline",
            WaveProgram {
                prologue: vec![
                    SlotOp::global_load(16),
                    SlotOp::Waitcnt(mc_isa::WaitSpec::vm(0)),
                ]
                .into(),
                body: vec![SlotOp::Mfma(i)].into(),
                body_iterations: 64,
                epilogue: vec![SlotOp::SNop(gap), SlotOp::global_store(16)].into(),
            },
        )
    }
}

/// Asserts a report fired exactly the expected rule set (no more, no
/// fewer), with the expected worst severity.
fn assert_fires(report: &LintReport, expected: &[RuleId], worst: Severity) {
    for rule in expected {
        assert!(
            report.fired(*rule),
            "expected {rule} to fire:\n{}",
            report.render()
        );
    }
    for d in &report.diagnostics {
        assert!(
            expected.contains(&d.rule_id),
            "unexpected {} finding:\n{}",
            d.rule_id,
            report.render()
        );
    }
    match worst {
        Severity::Error => assert!(report.has_errors(), "{}", report.render()),
        Severity::Warning => assert!(!report.has_errors(), "{}", report.render()),
    }
}

#[test]
fn baseline_is_clean() {
    let report = lint_kernel(&die(), &baseline());
    assert!(report.is_clean(), "{}", report.render());
}

#[test]
fn broken_empty_program() {
    let k = KernelDesc::new("no_program", WaveProgram::default());
    assert_fires(
        &lint_kernel(&die(), &k),
        &[RuleId::EmptyKernel],
        Severity::Error,
    );
}

#[test]
fn broken_zero_wave_launch() {
    let mut k = baseline();
    k.workgroups = 0;
    assert_fires(
        &lint_kernel(&die(), &k),
        &[RuleId::EmptyKernel],
        Severity::Error,
    );
}

#[test]
fn broken_foreign_arch_instruction() {
    let ampere = *ampere_catalog()
        .find(DType::F64, DType::F64, 8, 8, 4)
        .unwrap();
    let mut k = baseline();
    k.program.body = vec![SlotOp::Mfma(ampere)].into();
    let report = lint_kernel(&die(), &k);
    assert!(report.fired(RuleId::MfmaWrongArch), "{}", report.render());
    assert!(report.has_errors());
}

#[test]
fn broken_fabricated_shape() {
    // A 13×13×13 MFMA exists on no hardware (paper Table I).
    let mut bogus = mixed();
    bogus.shape = amd_matrix_cores::isa::MfmaShape::new(13, 13, 13);
    let mut k = baseline();
    k.program.body = vec![SlotOp::Mfma(bogus)].into();
    let report = lint_kernel(&die(), &k);
    assert!(
        report.fired(RuleId::MfmaUnknownInstruction),
        "{}",
        report.render()
    );
    assert!(report.has_errors());
}

#[test]
fn broken_tampered_latency() {
    // Faking a 4-cycle latency would claim an 8× throughput win.
    let mut tampered = mixed();
    tampered.latency_cycles = 4;
    let mut k = baseline();
    k.program.body = vec![SlotOp::Mfma(tampered)].into();
    let report = lint_kernel(&die(), &k);
    assert!(
        report.fired(RuleId::MfmaLatencyMismatch),
        "{}",
        report.render()
    );
    assert!(report.has_errors());
}

/// Spans of one rule's findings, in report order.
fn spans_of(report: &LintReport, rule: RuleId) -> Vec<Span> {
    report
        .diagnostics
        .iter()
        .filter(|d| d.rule_id == rule)
        .map(|d| d.span.expect("MFMA findings point at a slot"))
        .collect()
}

fn at(section: Section, slot: usize) -> Span {
    Span { section, slot }
}

#[test]
fn repeated_tampered_instruction_is_reported_at_every_slot() {
    // Legality is resolved once per distinct instruction, but each slot
    // issuing the tampered one still gets its own finding, in program
    // order across sections.
    let mut tampered = mixed();
    tampered.latency_cycles = 4;
    let mut k = baseline();
    k.program.prologue.push(SlotOp::Mfma(tampered));
    k.program.body = vec![SlotOp::Mfma(tampered), SlotOp::Mfma(tampered)].into();
    let report = lint_kernel(&die(), &k);
    assert_eq!(
        spans_of(&report, RuleId::MfmaLatencyMismatch),
        [
            at(Section::Prologue, 2),
            at(Section::Body, 0),
            at(Section::Body, 1)
        ],
        "{}",
        report.render()
    );
    let messages: Vec<&str> = report
        .diagnostics
        .iter()
        .filter(|d| d.rule_id == RuleId::MfmaLatencyMismatch)
        .map(|d| d.message.as_str())
        .collect();
    assert!(messages.iter().all(|m| *m == messages[0]), "{messages:?}");
}

#[test]
fn legal_and_tampered_copies_of_one_mnemonic_are_told_apart() {
    // Both share `v_mfma_f32_16x16x16f16`; only the tampered slots are
    // flagged, whichever copy the program issues first.
    let legal = mixed();
    let mut tampered = legal;
    tampered.latency_cycles = 4;
    for (body, flagged) in [
        (vec![legal, tampered, legal, tampered], vec![1, 3]),
        (vec![tampered, legal, legal, tampered], vec![0, 3]),
    ] {
        let mut k = baseline();
        k.program.body = body.into_iter().map(SlotOp::Mfma).collect();
        let report = lint_kernel(&die(), &k);
        let expected: Vec<Span> = flagged.iter().map(|&s| at(Section::Body, s)).collect();
        assert_eq!(
            spans_of(&report, RuleId::MfmaLatencyMismatch),
            expected,
            "{}",
            report.render()
        );
    }
}

#[test]
fn waw_hazard_compares_mnemonics_not_descriptor_values() {
    // Back-to-back issues of one mnemonic chain through the pipeline,
    // even when the descriptors differ (here in latency): no WAW.
    let legal = mixed();
    let mut tampered = legal;
    tampered.latency_cycles = 4;
    assert_eq!(legal.mnemonic(), tampered.mnemonic());
    assert_ne!(legal, tampered);
    let mut k = baseline();
    k.program.body = vec![SlotOp::Mfma(legal), SlotOp::Mfma(tampered)].into();
    let report = lint_kernel(&die(), &k);
    assert!(
        !report.fired(RuleId::HazardWawOverlap),
        "{}",
        report.render()
    );
    // A different mnemonic in the same window still overlaps, in both
    // directions once the scan wraps around the loop's back edge.
    let f64i = *cdna2_catalog()
        .find(DType::F64, DType::F64, 16, 16, 4)
        .unwrap();
    k.program.body = vec![SlotOp::Mfma(legal), SlotOp::Mfma(f64i)].into();
    let report = lint_kernel(&die(), &k);
    assert_eq!(
        spans_of(&report, RuleId::HazardWawOverlap),
        [at(Section::Body, 1), at(Section::Body, 0)],
        "{}",
        report.render()
    );
}

#[test]
fn broken_unpadded_accumulator_store() {
    let mut k = baseline();
    k.program.epilogue = vec![SlotOp::global_store(16)].into();
    assert_fires(
        &lint_kernel(&die(), &k),
        &[RuleId::HazardMissingSnop],
        Severity::Error,
    );
}

#[test]
fn broken_consumer_across_loop_back_edge() {
    // The VALU consumer sits at the TOP of the loop; only a scan that
    // models the back-edge sees the hazard from the bottom MFMA.
    let i = mixed();
    let mut k = baseline();
    k.program.body = vec![
        SlotOp::Valu(ValuOp::new(ValuOpKind::Fma, DType::F32)),
        SlotOp::Mfma(i),
    ]
    .into();
    let report = lint_kernel(&die(), &k);
    let hazard = report
        .diagnostics
        .iter()
        .find(|d| d.rule_id == RuleId::HazardMissingSnop)
        .unwrap_or_else(|| panic!("back-edge hazard not found:\n{}", report.render()));
    assert_eq!(
        hazard.span.unwrap().section,
        amd_matrix_cores::lint::Section::Body
    );
}

#[test]
fn broken_gratuitous_snop() {
    let mut k = baseline();
    k.program.prologue.insert(0, SlotOp::SNop(4));
    assert_fires(
        &lint_kernel(&die(), &k),
        &[RuleId::HazardExcessSnop],
        Severity::Warning,
    );
}

#[test]
fn broken_waw_accumulator_overlap() {
    let f64i = *cdna2_catalog()
        .find(DType::F64, DType::F64, 16, 16, 4)
        .unwrap();
    let mut k = baseline();
    k.program.body = vec![SlotOp::Mfma(mixed()), SlotOp::Mfma(f64i)].into();
    k.arch_vgprs = 32;
    k.acc_vgprs = 8;
    let report = lint_kernel(&die(), &k);
    assert!(
        report.fired(RuleId::HazardWawOverlap),
        "{}",
        report.render()
    );
    assert!(!report.has_errors(), "{}", report.render());
}

#[test]
fn broken_register_file_overflow() {
    let mut k = baseline();
    k.arch_vgprs = 1024; // file holds 512 per SIMD
    assert_fires(
        &lint_kernel(&die(), &k),
        &[RuleId::VgprOverflow],
        Severity::Error,
    );
}

#[test]
fn broken_underdeclared_accumulator() {
    let mut k = baseline();
    k.acc_vgprs = 0;
    assert_fires(
        &lint_kernel(&die(), &k),
        &[RuleId::VgprUnderdeclared],
        Severity::Warning,
    );
}

#[test]
fn broken_lds_overflow() {
    let mut k = baseline();
    k.lds_bytes_per_workgroup = 1 << 20; // CU has 64 KiB
    assert_fires(
        &lint_kernel(&die(), &k),
        &[RuleId::LdsOverflow],
        Severity::Error,
    );
}

#[test]
fn broken_undeclared_lds_traffic() {
    let mut k = baseline();
    k.program
        .prologue
        .push(SlotOp::lds_write(8, mc_isa::LdsAccess::fixed(0)));
    k.program
        .prologue
        .push(SlotOp::lds_read(8, mc_isa::LdsAccess::fixed(0)));
    assert_fires(
        &lint_kernel(&die(), &k),
        &[RuleId::LdsUndeclared],
        Severity::Warning,
    );
}

#[test]
fn broken_register_starved_occupancy() {
    let mut k = baseline();
    k.arch_vgprs = 500; // 512/500 → 1 wave/SIMD → 12.5% of the ceiling
    assert_fires(
        &lint_kernel(&die(), &k),
        &[RuleId::LowOccupancy],
        Severity::Warning,
    );
}

#[test]
fn broken_unschedulable_workgroup() {
    let mut k = baseline();
    k.waves_per_workgroup = 64; // a CU holds 32 waves
    assert_fires(
        &lint_kernel(&die(), &k),
        &[RuleId::LowOccupancy],
        Severity::Error,
    );
}

#[test]
fn broken_device_specs_fail_the_audit() {
    // Eq. 2 identity: halving the matrix-unit count must be caught.
    let mut tampered = die();
    tampered.matrix_units_per_cu = 2;
    let report = audit_die(&tampered);
    assert!(
        report.fired(RuleId::ModelPipelineMismatch),
        "{}",
        report.render()
    );
    assert!(report.has_errors());

    // Wavefront width contradicting the architecture.
    let mut wide = specs::a100().die;
    wide.wavefront_size = 64;
    assert!(audit_die(&wide).fired(RuleId::SpecWavefrontSize));
}

/// The lint occupancy mirror must agree with the simulator's own
/// occupancy model: a zero-residency kernel is an error, anything the
/// simulator places at ≥ 25% of the wave-slot ceiling carries no
/// low-occupancy finding.
#[test]
fn occupancy_rule_matches_simulator_model() {
    use amd_matrix_cores::sim::occupancy;
    let d = die();
    for arch_vgprs in [16u32, 64, 128, 256, 500] {
        for waves_per_workgroup in [1u32, 4, 32, 64] {
            let mut k = baseline();
            k.arch_vgprs = arch_vgprs.max(k.arch_vgprs);
            k.waves_per_workgroup = waves_per_workgroup;
            let occ = occupancy(&d, &k);
            let report = lint_kernel(&d, &k);
            let fired = report.fired(RuleId::LowOccupancy);
            if occ.waves_per_cu == 0 {
                assert!(
                    fired && report.has_errors(),
                    "vgprs={arch_vgprs} wg={waves_per_workgroup}: {}",
                    report.render()
                );
            } else if occ.fraction >= 0.25 {
                assert!(
                    !fired,
                    "vgprs={arch_vgprs} wg={waves_per_workgroup} occ={}: {}",
                    occ.fraction,
                    report.render()
                );
            } else {
                assert!(
                    fired,
                    "vgprs={arch_vgprs} wg={waves_per_workgroup} occ={}: {}",
                    occ.fraction,
                    report.render()
                );
            }
        }
    }
}

/// Every rule the golden corpus is meant to prove actually appears in
/// the registry of documented rules.
#[test]
fn corpus_covers_the_documented_rule_set() {
    let proven = [
        RuleId::EmptyKernel,
        RuleId::MfmaWrongArch,
        RuleId::MfmaUnknownInstruction,
        RuleId::MfmaLatencyMismatch,
        RuleId::HazardMissingSnop,
        RuleId::HazardExcessSnop,
        RuleId::HazardWawOverlap,
        RuleId::VgprOverflow,
        RuleId::VgprUnderdeclared,
        RuleId::LdsOverflow,
        RuleId::LdsUndeclared,
        RuleId::LowOccupancy,
        RuleId::ModelPipelineMismatch,
        RuleId::SpecWavefrontSize,
    ];
    assert!(proven.len() >= 8, "acceptance floor is eight rules");
    for rule in proven {
        assert!(
            RuleId::ALL.contains(&rule),
            "{rule} missing from RuleId::ALL"
        );
    }
}

/// The converse direction: the whole shipped corpus — device audits,
/// per-instruction loop kernels, WMMA tile kernels, and planner output
/// for every routine — is lint clean on every registered device.
#[test]
fn shipped_experiment_corpus_is_lint_clean() {
    let sweep = mc_bench::lint::run(&amd_matrix_cores::sim::DeviceRegistry::builtin());
    assert!(
        sweep.build_failures.is_empty(),
        "{:?}",
        sweep.build_failures
    );
    assert_eq!(sweep.total_errors, 0, "{}", mc_bench::lint::render(&sweep));
    assert_eq!(
        sweep.total_warnings,
        0,
        "{}",
        mc_bench::lint::render(&sweep)
    );
    for pkg in [specs::mi100(), specs::mi250x(), specs::a100()] {
        assert!(audit_package(&pkg).is_clean(), "{}", pkg.name);
    }
}
