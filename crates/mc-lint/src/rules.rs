//! The kernel-level lint rules: MFMA legality, hazard gaps, resources.

use std::collections::{HashMap, HashSet};

use mc_isa::encoding::{self, MfmaEncoding, Reg};
use mc_isa::specs::DieSpec;
use mc_isa::{IsaCatalog, KernelDesc, MatrixArch, MatrixInstruction, SlotOp, SlotRuns};

use crate::flow::{collect_events, Event};
use crate::{catalog_for, required_snop_gap, Diagnostic, LintReport, RuleId, Section, Span};

/// Statically analyses one kernel against a target die.
///
/// Runs every rule family in order — kernel shape, MFMA legality, hazard
/// scan (skipped on Ampere, whose tensor pipes interlock in hardware),
/// resource budgets and occupancy — and returns the findings in program
/// order as a [`LintReport`].
pub fn lint_kernel(die: &DieSpec, k: &KernelDesc) -> LintReport {
    lint_events(die, k, &collect_events(k))
}

/// [`lint_kernel`] over the event stream already collected for `k`.
/// Only the hazard scan reads the stream: legality and resources check
/// the static slots, so they still see a body that never executes.
pub(crate) fn lint_events(die: &DieSpec, k: &KernelDesc, events: &[Event<'_>]) -> LintReport {
    let mut diags = Vec::new();
    check_shape(k, &mut diags);
    check_legality(die, k, &mut diags);
    if die.arch != MatrixArch::Ampere {
        check_hazards(events, &mut diags);
    }
    check_resources(die, k, &mut diags);
    LintReport::new(k.name.clone(), diags)
}

/// Iterates `(span, op)` over the static program text, in section order.
fn slots(k: &KernelDesc) -> impl Iterator<Item = (Span, &SlotOp)> {
    fn sec(section: Section, ops: &SlotRuns) -> impl Iterator<Item = (Span, &SlotOp)> {
        ops.iter()
            .enumerate()
            .map(move |(slot, op)| (Span { section, slot }, op))
    }
    sec(Section::Prologue, &k.program.prologue)
        .chain(sec(Section::Body, &k.program.body))
        .chain(sec(Section::Epilogue, &k.program.epilogue))
}

fn check_shape(k: &KernelDesc, diags: &mut Vec<Diagnostic>) {
    // Saturating, as is each run's count × iterations: a long loop over
    // a large body must not overflow (or, in release, wrap to a false
    // "0 dynamic instructions").
    let dynamic = k
        .program
        .dynamic_slots()
        .fold(0u64, |sum, (_, n)| sum.saturating_add(n));
    if k.total_waves() == 0 || dynamic == 0 {
        diags.push(
            Diagnostic::error(
                RuleId::EmptyKernel,
                None,
                format!(
                    "kernel launches {} wave(s) over {} dynamic instruction(s)",
                    k.total_waves(),
                    dynamic
                ),
            )
            .with_help("a kernel needs at least one wave and one executed instruction"),
        );
    }
}

/// MFMA legality: each distinct instruction of the program is resolved
/// against the catalog once, and every slot issuing it reports the
/// shared verdict at its own span, in program order.
fn check_legality(die: &DieSpec, k: &KernelDesc, diags: &mut Vec<Diagnostic>) {
    let catalog = catalog_for(die.arch);
    let mut verdicts: Vec<Option<Diagnostic>> = Vec::new();
    let mut index: HashMap<MatrixInstruction, usize> = HashMap::new();
    let mut last: Option<(MatrixInstruction, usize)> = None;
    for (span, op) in slots(k) {
        let SlotOp::Mfma(instr) = op else { continue };
        // MFMA chains repeat one instruction, so most slots skip the hash.
        let v = match last {
            Some((prev, v)) if prev == *instr => v,
            _ => *index.entry(*instr).or_insert_with(|| {
                verdicts.push(legality(die, catalog, instr));
                verdicts.len() - 1
            }),
        };
        last = Some((*instr, v));
        if let Some(d) = &verdicts[v] {
            diags.push(Diagnostic {
                span: Some(span),
                ..d.clone()
            });
        }
    }
}

/// The span-less legality finding for one MFMA, or `None` when it is
/// legal on `die`.
fn legality(die: &DieSpec, catalog: &IsaCatalog, instr: &MatrixInstruction) -> Option<Diagnostic> {
    if instr.arch != die.arch {
        return Some(
            Diagnostic::error(
                RuleId::MfmaWrongArch,
                None,
                format!(
                    "`{}` is a {} instruction but the target die is {}",
                    instr.mnemonic(),
                    instr.arch,
                    die.arch
                ),
            )
            .with_help(format!(
                "select the instruction from the {} catalog instead",
                die.arch
            )),
        );
    }
    match catalog.by_mnemonic(&instr.mnemonic()) {
        None => Some(
            Diagnostic::error(
                RuleId::MfmaUnknownInstruction,
                None,
                format!(
                    "`{}` does not resolve in the {} instruction catalog",
                    instr.mnemonic(),
                    die.arch
                ),
            )
            .with_help(
                "only the shapes of the paper's Table I exist in hardware; \
                 pick the instruction via the catalog, not by hand",
            ),
        ),
        Some(entry) if entry != instr => Some(
            Diagnostic::error(
                RuleId::MfmaLatencyMismatch,
                None,
                format!(
                    "`{}` disagrees with its catalog entry \
                     (declared {} cycles / {} block(s), catalog says {} / {})",
                    instr.mnemonic(),
                    instr.latency_cycles,
                    instr.shape.blocks,
                    entry.latency_cycles,
                    entry.shape.blocks
                ),
            )
            .with_help(
                "a tampered descriptor silently skews every throughput model \
                 (paper Table II); copy the catalog entry verbatim",
            ),
        ),
        Some(entry) => check_roundtrip(die, entry),
    }
}

/// On CDNA2, every catalogued MFMA must survive the VOP3P-MAI
/// encode/decode round-trip of `mc_isa::encoding`.
fn check_roundtrip(die: &DieSpec, entry: &MatrixInstruction) -> Option<Diagnostic> {
    if die.arch != MatrixArch::Cdna2 {
        return None;
    }
    let src1 = u8::try_from(entry.a_vgprs_per_lane().min(255)).unwrap_or(0);
    let round = encoding::encode_instance(entry, Reg::A(0), Reg::V(0), Reg::V(src1), Reg::A(0))
        .and_then(|enc| MfmaEncoding::from_u64(enc.to_u64()).map(|back| (enc, back)));
    let ok = match &round {
        Ok((enc, back)) => back == enc && back.mnemonic() == entry.mnemonic(),
        Err(_) => false,
    };
    if ok {
        return None;
    }
    let detail = match round {
        Ok(_) => "decoded word differs from the encoded instance".to_owned(),
        Err(e) => e.to_string(),
    };
    Some(
        Diagnostic::error(
            RuleId::MfmaEncodingRoundtrip,
            None,
            format!(
                "`{}` failed the VOP3P-MAI encode/decode round-trip: {detail}",
                entry.mnemonic()
            ),
        )
        .with_help("the opcode table in mc_isa::encoding is out of sync with the catalog"),
    )
}

/// One in-flight MFMA hazard window.
struct PendingHazard {
    instr: MatrixInstruction,
    remaining: u32,
}

/// Body passes the hazard scan reads. Hazard windows are
/// iteration-independent, so two passes reach the steady state: any
/// window crossing the back edge once is seen (`mc_isa::walk`).
const HAZARD_UNROLL: u64 = 2;

/// Linear hazard scan over prologue / body / body (back-edge) / epilogue.
///
/// Tracks the issue distance since the last MFMA: a `Valu` or
/// `GlobalStore` reading the accumulator inside the window is an error,
/// `S_NOP` outside any window is waste, and a *different* MFMA touching
/// overlapping AccVGPRs inside the window is a write-after-write hazard.
/// The scan reads the dataflow verifier's [`crate::flow::FLOW_UNROLL`]
/// event stream and skips body events from iteration [`HAZARD_UNROLL`]
/// on. The two-pass walk is not a prefix of the three-pass one (the
/// epilogue comes last), but it is that walk without its third body
/// pass, because every body pass replays the same static slots. So a
/// window opened at the bottom of the loop is checked against the top
/// (diagnostics dedup by `(rule, span)` so the second pass adds nothing
/// already seen).
fn check_hazards(events: &[Event<'_>], diags: &mut Vec<Diagnostic>) {
    let mut pending: Option<PendingHazard> = None;
    let mut seen: HashSet<(RuleId, Span)> = HashSet::new();

    for ev in events {
        let span = ev.span;
        if span.section == Section::Body && ev.iteration >= HAZARD_UNROLL {
            continue;
        }
        let mut emit = |d: Diagnostic, seen: &mut HashSet<_>| {
            if seen.insert((d.rule_id, span)) {
                diags.push(d);
            }
        };
        match ev.op {
            SlotOp::Mfma(instr) => {
                if let Some(p) = &pending {
                    if p.remaining > 0 && !p.instr.same_mnemonic(instr) {
                        let overlap = p.instr.cd_agprs_per_lane().min(instr.cd_agprs_per_lane());
                        emit(
                            Diagnostic::warning(
                                RuleId::HazardWawOverlap,
                                Some(span),
                                format!(
                                    "`{}` overwrites AccVGPRs a[0..{overlap}] while `{}` is \
                                     still writing them ({} slot(s) left in its window)",
                                    instr.mnemonic(),
                                    p.instr.mnemonic(),
                                    p.remaining
                                ),
                            )
                            .with_help(
                                "separate the two instructions or accumulate into \
                                 disjoint AccVGPR ranges",
                            ),
                            &mut seen,
                        );
                    }
                }
                // Back-to-back issues of the same instruction chain
                // through the matrix pipeline without software padding.
                pending = Some(PendingHazard {
                    instr: *instr,
                    remaining: required_snop_gap(instr),
                });
            }
            SlotOp::Valu(_) | SlotOp::GlobalStore { .. } => {
                if let Some(p) = &pending {
                    if p.remaining > 0 {
                        emit(
                            Diagnostic::error(
                                RuleId::HazardMissingSnop,
                                Some(span),
                                format!(
                                    "accumulator of `{}` is read {} issue slot(s) too early",
                                    p.instr.mnemonic(),
                                    p.remaining
                                ),
                            )
                            .with_help(format!(
                                "insert `s_nop {}` (or independent instructions) before \
                                 this slot — paper §III",
                                p.remaining
                            )),
                            &mut seen,
                        );
                    }
                }
                pending = None;
            }
            SlotOp::SNop(n) => match &mut pending {
                Some(p) if p.remaining > 0 => {
                    p.remaining = p.remaining.saturating_sub(u32::from(*n));
                }
                _ => emit(
                    Diagnostic::warning(
                        RuleId::HazardExcessSnop,
                        Some(span),
                        format!("`s_nop {n}` pads an already-satisfied (or absent) hazard window"),
                    )
                    .with_help("remove the redundant s_nop; issue slots cost throughput"),
                    &mut seen,
                ),
            },
            SlotOp::GlobalLoad { .. }
            | SlotOp::LdsRead { .. }
            | SlotOp::LdsWrite { .. }
            | SlotOp::Scalar
            | SlotOp::Waitcnt(_)
            | SlotOp::Barrier => {
                if let Some(p) = &mut pending {
                    p.remaining = p.remaining.saturating_sub(1);
                }
            }
        }
    }
}

fn check_resources(die: &DieSpec, k: &KernelDesc, diags: &mut Vec<Diagnostic>) {
    // Instruction-derived per-lane register minima, from the regmap
    // element→register packing.
    let mut req_arch = 0u32;
    let mut req_acc = 0u32;
    let mut lds_touch: Option<Span> = None;
    for (span, op) in slots(k) {
        match op {
            SlotOp::Mfma(i) => {
                req_arch = req_arch.max(i.a_vgprs_per_lane() + i.b_vgprs_per_lane());
                req_acc = req_acc.max(i.cd_agprs_per_lane());
            }
            SlotOp::LdsRead { .. } | SlotOp::LdsWrite { .. } => {
                lds_touch.get_or_insert(span);
            }
            _ => {}
        }
    }

    let mut fatal = false;
    for (label, declared) in [
        ("architectural", k.arch_vgprs),
        ("accumulation", k.acc_vgprs),
    ] {
        if declared > die.vgprs_per_simd {
            fatal = true;
            diags.push(
                Diagnostic::error(
                    RuleId::VgprOverflow,
                    None,
                    format!(
                        "kernel declares {declared} {label} VGPRs per lane; \
                         the register file holds {} per SIMD",
                        die.vgprs_per_simd
                    ),
                )
                .with_help("not even one wavefront can become resident at this footprint"),
            );
        }
    }
    if k.arch_vgprs < req_arch {
        diags.push(
            Diagnostic::warning(
                RuleId::VgprUnderdeclared,
                None,
                format!(
                    "kernel declares {} architectural VGPRs but its MFMA operands \
                     need at least {req_arch} per lane",
                    k.arch_vgprs
                ),
            )
            .with_help("occupancy estimates will be optimistic; declare the real footprint"),
        );
    }
    if k.acc_vgprs < req_acc {
        diags.push(
            Diagnostic::warning(
                RuleId::VgprUnderdeclared,
                None,
                format!(
                    "kernel declares {} accumulation VGPRs but its MFMA accumulator \
                     needs at least {req_acc} per lane",
                    k.acc_vgprs
                ),
            )
            .with_help("occupancy estimates will be optimistic; declare the real footprint"),
        );
    }

    if k.lds_bytes_per_workgroup > die.lds_bytes_per_cu {
        fatal = true;
        diags.push(
            Diagnostic::error(
                RuleId::LdsOverflow,
                None,
                format!(
                    "kernel declares {} LDS bytes per workgroup; the CU has {}",
                    k.lds_bytes_per_workgroup, die.lds_bytes_per_cu
                ),
            )
            .with_help("shrink the staging tiles or split the workgroup"),
        );
    }
    if k.lds_bytes_per_workgroup == 0 {
        if let Some(span) = lds_touch {
            diags.push(
                Diagnostic::warning(
                    RuleId::LdsUndeclared,
                    Some(span),
                    "program reads or writes LDS but the kernel declares no LDS allocation"
                        .to_owned(),
                )
                .with_help("set `lds_bytes_per_workgroup` so occupancy accounts for it"),
            );
        }
    }

    if !fatal {
        check_occupancy(die, k, diags);
    }
}

/// Mirrors `mc-sim`'s occupancy model (cross-checked by the repo's
/// integration tests) to flag kernels that cannot become resident or
/// leave more than three quarters of the wave slots idle.
fn check_occupancy(die: &DieSpec, k: &KernelDesc, diags: &mut Vec<Diagnostic>) {
    let slots = die.max_waves_per_simd;
    let by_vgpr = die
        .vgprs_per_simd
        .checked_div(k.arch_vgprs)
        .unwrap_or(slots);
    let by_agpr = die.vgprs_per_simd.checked_div(k.acc_vgprs).unwrap_or(slots);
    let by_lds_wg = die
        .lds_bytes_per_cu
        .checked_div(k.lds_bytes_per_workgroup)
        .unwrap_or(u32::MAX);
    let waves_per_simd_regs = slots.min(by_vgpr).min(by_agpr);
    let waves_per_cu_regs = waves_per_simd_regs * die.simd_units_per_cu;
    let wg_by_waves = waves_per_cu_regs
        .checked_div(k.waves_per_workgroup)
        .unwrap_or(0);
    let workgroups_per_cu = wg_by_waves.min(by_lds_wg);
    let waves_per_cu = workgroups_per_cu * k.waves_per_workgroup;
    let fraction = f64::from(waves_per_cu) / f64::from(slots * die.simd_units_per_cu);

    let limiter = if workgroups_per_cu == by_lds_wg && by_lds_wg < wg_by_waves {
        "LDS capacity"
    } else if waves_per_simd_regs == by_agpr && by_agpr < slots && by_agpr <= by_vgpr {
        "accumulation-VGPR pressure"
    } else if waves_per_simd_regs == by_vgpr && by_vgpr < slots {
        "architectural-VGPR pressure"
    } else {
        "workgroup shape"
    };

    if waves_per_cu == 0 {
        diags.push(
            Diagnostic::error(
                RuleId::LowOccupancy,
                None,
                format!("no wavefront can become resident on a CU (limited by {limiter})"),
            )
            .with_help("the launch would deadlock; reduce the per-workgroup footprint"),
        );
    } else if fraction < 0.25 {
        diags.push(
            Diagnostic::warning(
                RuleId::LowOccupancy,
                None,
                format!(
                    "occupancy is {:.0}% of the wave-slot ceiling ({waves_per_cu} wave(s) \
                     per CU, limited by {limiter})",
                    fraction * 100.0
                ),
            )
            .with_help(
                "few resident waves cannot hide MFMA latency (paper Eq. 2's \
                 min(N_WF, ...) term); cross-check with mc_sim::occupancy",
            ),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{required_snop_gap, Severity};
    use mc_isa::{cdna2_catalog, KernelDesc, SlotOp, WaveProgram};
    use mc_types::DType;
    use proptest::prelude::*;

    fn die() -> DieSpec {
        mc_isa::specs::mi250x().die
    }

    fn mixed() -> MatrixInstruction {
        *cdna2_catalog()
            .find(DType::F32, DType::F16, 16, 16, 16)
            .unwrap()
    }

    /// A well-formed MFMA loop kernel: loads, a padded chain, a store.
    fn clean_kernel() -> KernelDesc {
        let i = mixed();
        let gap = u8::try_from(required_snop_gap(&i)).unwrap();
        KernelDesc {
            arch_vgprs: i.a_vgprs_per_lane() + i.b_vgprs_per_lane() + 16,
            acc_vgprs: i.cd_agprs_per_lane(),
            ..KernelDesc::new(
                "clean",
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

    #[test]
    fn clean_kernel_is_clean() {
        let report = lint_kernel(&die(), &clean_kernel());
        assert!(report.is_clean(), "{}", report.render());
    }

    #[test]
    fn missing_snop_in_epilogue_is_an_error() {
        let mut k = clean_kernel();
        k.program.epilogue = vec![SlotOp::global_store(16)].into();
        let report = lint_kernel(&die(), &k);
        assert!(report.has_errors());
        assert!(
            report.fired(RuleId::HazardMissingSnop),
            "{}",
            report.render()
        );
    }

    #[test]
    fn loop_back_edge_consumer_is_caught() {
        // The consumer sits at the TOP of the loop, before the MFMA: only
        // the back-edge pass can see the hazard.
        let i = mixed();
        let mut k = clean_kernel();
        k.program.body = vec![SlotOp::Valu(mc_isa::ValuOp::new(
            mc_isa::ValuOpKind::Fma,
            DType::F32,
        ))]
        .into();
        k.program.body.push(SlotOp::Mfma(i));
        k.program.epilogue = vec![
            SlotOp::SNop(u8::try_from(required_snop_gap(&i)).unwrap()),
            SlotOp::global_store(16),
        ]
        .into();
        let report = lint_kernel(&die(), &k);
        assert!(
            report.fired(RuleId::HazardMissingSnop),
            "{}",
            report.render()
        );
        // And the diagnostic points into the body, not the epilogue.
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.rule_id == RuleId::HazardMissingSnop)
            .unwrap();
        assert_eq!(d.span.unwrap().section, Section::Body);
    }

    #[test]
    fn excess_snop_is_a_warning() {
        let mut k = clean_kernel();
        k.program.prologue.insert(0, SlotOp::SNop(4));
        let report = lint_kernel(&die(), &k);
        assert!(!report.has_errors());
        assert!(
            report.fired(RuleId::HazardExcessSnop),
            "{}",
            report.render()
        );
    }

    #[test]
    fn waw_overlap_between_different_mfmas() {
        let c = cdna2_catalog();
        let f64i = *c.find(DType::F64, DType::F64, 16, 16, 4).unwrap();
        let mut k = clean_kernel();
        k.program.body = vec![SlotOp::Mfma(mixed()), SlotOp::Mfma(f64i)].into();
        k.arch_vgprs = 32;
        k.acc_vgprs = 8;
        let report = lint_kernel(&die(), &k);
        assert!(
            report.fired(RuleId::HazardWawOverlap),
            "{}",
            report.render()
        );
        assert_eq!(
            report
                .diagnostics
                .iter()
                .find(|d| d.rule_id == RuleId::HazardWawOverlap)
                .unwrap()
                .severity,
            Severity::Warning
        );
    }

    #[test]
    fn wrong_arch_and_unknown_instruction() {
        let ampere = *mc_isa::ampere_catalog()
            .find(DType::F64, DType::F64, 8, 8, 4)
            .unwrap();
        let mut k = clean_kernel();
        k.program.body = vec![SlotOp::Mfma(ampere)].into();
        let report = lint_kernel(&die(), &k);
        assert!(report.fired(RuleId::MfmaWrongArch));

        // A hand-built shape that no hardware provides.
        let mut bogus = mixed();
        bogus.shape = mc_isa::MfmaShape::new(13, 13, 13);
        k.program.body = vec![SlotOp::Mfma(bogus)].into();
        let report = lint_kernel(&die(), &k);
        assert!(
            report.fired(RuleId::MfmaUnknownInstruction),
            "{}",
            report.render()
        );
    }

    #[test]
    fn tampered_latency_is_caught() {
        let mut tampered = mixed();
        tampered.latency_cycles = 4; // would fake an 8x throughput win
        let mut k = clean_kernel();
        k.program.body = vec![SlotOp::Mfma(tampered)].into();
        let report = lint_kernel(&die(), &k);
        assert!(
            report.fired(RuleId::MfmaLatencyMismatch),
            "{}",
            report.render()
        );
    }

    #[test]
    fn resource_rules_fire() {
        let mut k = clean_kernel();
        k.arch_vgprs = 1024;
        assert!(lint_kernel(&die(), &k).fired(RuleId::VgprOverflow));

        let mut k = clean_kernel();
        k.acc_vgprs = 0;
        let r = lint_kernel(&die(), &k);
        assert!(r.fired(RuleId::VgprUnderdeclared) && !r.has_errors());

        let mut k = clean_kernel();
        k.lds_bytes_per_workgroup = 1 << 20;
        assert!(lint_kernel(&die(), &k).fired(RuleId::LdsOverflow));

        let mut k = clean_kernel();
        k.program
            .prologue
            .push(SlotOp::lds_write(8, mc_isa::LdsAccess::fixed(0)));
        k.program
            .prologue
            .push(SlotOp::lds_read(8, mc_isa::LdsAccess::fixed(0)));
        let r = lint_kernel(&die(), &k);
        assert!(r.fired(RuleId::LdsUndeclared) && !r.has_errors());
    }

    #[test]
    fn occupancy_rules_fire() {
        let mut k = clean_kernel();
        k.arch_vgprs = 500; // 512/500 = 1 wave/SIMD -> 12.5%
        let r = lint_kernel(&die(), &k);
        assert!(
            r.fired(RuleId::LowOccupancy) && !r.has_errors(),
            "{}",
            r.render()
        );

        // 64-wave workgroups cannot fit a 32-wave CU at all.
        let mut k = clean_kernel();
        k.waves_per_workgroup = 64;
        let r = lint_kernel(&die(), &k);
        assert!(
            r.fired(RuleId::LowOccupancy) && r.has_errors(),
            "{}",
            r.render()
        );
    }

    #[test]
    fn empty_kernel_is_an_error() {
        let k = KernelDesc::new("nothing", WaveProgram::default());
        assert!(lint_kernel(&die(), &k).fired(RuleId::EmptyKernel));
        let mut k = clean_kernel();
        k.workgroups = 0;
        assert!(lint_kernel(&die(), &k).fired(RuleId::EmptyKernel));
    }

    #[test]
    fn ampere_kernels_skip_hazard_rules() {
        let a100 = mc_isa::specs::a100().die;
        let i = *mc_isa::ampere_catalog()
            .find(DType::F32, DType::F16, 16, 8, 16)
            .unwrap();
        let k = KernelDesc {
            arch_vgprs: i.a_vgprs_per_lane() + i.b_vgprs_per_lane() + 16,
            acc_vgprs: i.cd_agprs_per_lane(),
            ..KernelDesc::new(
                "ampere",
                WaveProgram {
                    prologue: vec![].into(),
                    body: vec![SlotOp::Mfma(i)].into(),
                    body_iterations: 8,
                    // No S_NOP before the store: fine on Ampere.
                    epilogue: vec![SlotOp::global_store(16)].into(),
                },
            )
        };
        let report = lint_kernel(&a100, &k);
        assert!(report.is_clean(), "{}", report.render());
    }

    #[test]
    fn renderer_mentions_rule_and_span() {
        let mut k = clean_kernel();
        k.program.epilogue = vec![SlotOp::global_store(16)].into();
        let text = lint_kernel(&die(), &k).render();
        assert!(text.contains("error[hazard-missing-snop]"), "{text}");
        assert!(text.contains("epilogue[0]"), "{text}");
        assert!(text.contains("= help:"), "{text}");
    }

    /// Biases a random word toward the top of `0..=max`, where sums and
    /// products of the declaration fields overflow.
    fn extreme(word: u64, max: u64) -> u64 {
        match word % 4 {
            0 => max,
            1 => max - (word >> 2) % 16,
            2 => max / 2 + 1,
            _ => (word >> 2) & max,
        }
    }

    proptest! {
        /// Extreme launch and declaration fields panic neither verifier,
        /// and a kernel that launches waves is never called empty (its
        /// prologue and epilogue always execute).
        #[test]
        fn extreme_fields_never_panic(
            iterations in any::<u64>(),
            workgroups in any::<u64>(),
            waves in any::<u64>(),
            arch in any::<u64>(),
            acc in any::<u64>(),
            lds in any::<u64>(),
        ) {
            let mut k = clean_kernel();
            k.program.body.push(SlotOp::Mfma(mixed()));
            k.program.body_iterations = extreme(iterations, u64::MAX);
            k.workgroups = extreme(workgroups, u64::MAX);
            let field = |word| u32::try_from(extreme(word, u32::MAX.into())).unwrap();
            k.waves_per_workgroup = field(waves);
            k.arch_vgprs = field(arch);
            k.acc_vgprs = field(acc);
            k.lds_bytes_per_workgroup = field(lds);
            let launches = k.waves_per_workgroup > 0 && k.workgroups > 0;
            for spec in [mc_isa::specs::mi250x(), mc_isa::specs::mi100(), mc_isa::specs::a100()] {
                let report = lint_kernel(&spec.die, &k);
                crate::flow::analyze_kernel(&spec.die, &k);
                prop_assert_eq!(report.fired(RuleId::EmptyKernel), !launches);
            }
        }
    }

    #[test]
    fn empty_kernel_counts_saturate() {
        // 2 body slots × 2^63 iterations overflow the dynamic count
        // (wrapping to a false "0 dynamic instructions" in release).
        let mut k = clean_kernel();
        k.program.prologue.clear();
        k.program.epilogue.clear();
        k.program.body.push(SlotOp::Mfma(mixed()));
        k.program.body_iterations = 1 << 63;
        assert!(!lint_kernel(&die(), &k).fired(RuleId::EmptyKernel));
        k.workgroups = u64::MAX;
        k.waves_per_workgroup = u32::MAX;
        assert_eq!(k.total_waves(), u64::MAX);
        assert!(!lint_kernel(&die(), &k).fired(RuleId::EmptyKernel));
    }

    #[test]
    fn a_full_run_looped_half_of_u64_is_not_empty() {
        // One u32::MAX-slot run looped u64::MAX / 2 times: the run's
        // count × iterations product overflows, so it saturates. No
        // per-slot body this long could be allocated; the walkers would
        // unroll it, so only the shape rule runs here.
        let mut k = clean_kernel();
        k.program.prologue.clear();
        k.program.epilogue.clear();
        k.program.body = SlotRuns::new();
        k.program
            .body
            .push_n(SlotOp::Mfma(mixed()), u32::MAX as usize);
        k.program.body_iterations = u64::MAX / 2;
        let mut diags = Vec::new();
        check_shape(&k, &mut diags);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn required_gap_tracks_latency() {
        let c = cdna2_catalog();
        let g16 = required_snop_gap(c.find(DType::F32, DType::F16, 16, 16, 16).unwrap());
        let g32 = required_snop_gap(c.find(DType::F32, DType::F16, 32, 32, 8).unwrap());
        assert_eq!(g16, 4);
        assert_eq!(g32, 8);
        let mut short = mixed();
        short.latency_cycles = 2;
        assert_eq!(required_snop_gap(&short), 1);
    }
}
