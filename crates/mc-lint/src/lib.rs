//! `mc-lint`: static and dataflow verification of simulator kernels
//! before launch.
//!
//! The paper (§III) stresses that Matrix-Core programming is error-prone
//! exactly where a `KernelDesc` is unchecked: operand shapes and dtypes
//! must match one of the fixed `V_MFMA_*` variants, dependent MFMA
//! results need hardware-mandated `S_NOP` hazard gaps before AccVGPR
//! reads, and the per-lane register layout silently determines VGPR
//! budgets and occupancy. A malformed kernel fed straight into the
//! simulator produces a plausible-but-wrong throughput number instead of
//! an error — the worst failure mode for a reproduction repo.
//!
//! This crate implements a linear static analysis over
//! [`mc_isa::KernelDesc`] with four rule families:
//!
//! * **MFMA legality** — every [`mc_isa::SlotOp::Mfma`] must resolve in
//!   the target architecture's instruction catalog (shape, dtype pair,
//!   latency) and, on CDNA2, survive an encode/decode round-trip through
//!   [`mc_isa::encoding`].
//! * **Hazard analysis** — a linear scan over prologue/body/epilogue
//!   (modeling the loop back-edge) tracks the issue distance between an
//!   MFMA and the next AccVGPR consumer, flagging missing or excess
//!   `S_NOP` padding and write-after-write accumulator overlaps.
//! * **Resource checks** — per-wavefront VGPR budgets, LDS capacity, and
//!   occupancy-impact warnings mirroring `mc-sim`'s occupancy model.
//! * **Model-consistency audit** — each device spec must satisfy the
//!   paper's Eq. 2 pipeline identity (peak FLOPs = units × FLOPs/instr ÷
//!   initiation interval), so spec-table typos are caught at lint time
//!   rather than as mysterious curve deviations.
//!
//! Every finding is a structured [`Diagnostic`] with a stable
//! [`RuleId`], a [`Span`] into the program, and a rustc-style rendering.
//! See `docs/LINTS.md` for the rule reference.
//!
//! The [`flow`] module is the second verifier: LDS races, `s_waitcnt`
//! sufficiency, dead stores and register working sets over the unrolled
//! pipeline (`docs/DATAFLOW.md`). Both read one event stream per kernel,
//! and [`verify_kernel`] is the one entry compile paths call. A
//! [`VerifyMemo`] replays that entry's verdict for kernels of one shape.

#![deny(missing_docs)]

use core::fmt;

use mc_isa::specs::{self, DieSpec};
use mc_isa::{ampere_catalog, cdna1_catalog, cdna2_catalog, IsaCatalog, MatrixArch};
use serde::{Deserialize, Serialize};

mod audit;
pub mod flow;
mod memo;
mod rules;

pub use audit::{audit_die, audit_package};
use flow::{FlowDiagnostic, FlowReport};
pub use memo::{MemoStats, VerifyMemo};
pub use rules::lint_kernel;

/// How severe a diagnostic is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Severity {
    /// The kernel would corrupt results or fail to launch on hardware;
    /// compile paths must refuse it.
    Error,
    /// The kernel is legal but wasteful or suspicious; compile paths log
    /// it (or deny it in strict mode).
    Warning,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
        })
    }
}

/// Which part of the wave program a diagnostic points into.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Section {
    /// Straight-line code before the loop.
    Prologue,
    /// The loop body (executed `body_iterations` times).
    Body,
    /// Straight-line code after the loop.
    Epilogue,
}

impl fmt::Display for Section {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Section::Prologue => "prologue",
            Section::Body => "body",
            Section::Epilogue => "epilogue",
        })
    }
}

/// A location in a wave program: section plus slot index within it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Span {
    /// The program section.
    pub section: Section,
    /// Zero-based slot index within the section.
    pub slot: usize,
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.section, self.slot)
    }
}

/// Stable identifiers for every lint rule. Documented in `docs/LINTS.md`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RuleId {
    /// `SlotOp::Mfma` does not resolve in the device catalog.
    MfmaUnknownInstruction,
    /// The MFMA targets a different architecture than the device.
    MfmaWrongArch,
    /// The MFMA's descriptor disagrees with the catalog entry of the
    /// same mnemonic (typically a tampered latency or block count).
    MfmaLatencyMismatch,
    /// The CDNA2 MFMA failed the VOP3P encode/decode round-trip.
    MfmaEncodingRoundtrip,
    /// An AccVGPR consumer issues inside an MFMA hazard window.
    HazardMissingSnop,
    /// An `S_NOP` pads an already-satisfied (or absent) hazard window.
    HazardExcessSnop,
    /// Two different MFMA instructions overwrite overlapping AccVGPRs
    /// without enough separation.
    HazardWawOverlap,
    /// Declared VGPR footprint exceeds the register file.
    VgprOverflow,
    /// Declared VGPR footprint is below the instruction-derived minimum.
    VgprUnderdeclared,
    /// Declared LDS exceeds the CU's capacity.
    LdsOverflow,
    /// The program touches LDS but declares no LDS allocation.
    LdsUndeclared,
    /// Occupancy is zero (error) or severely limited (warning).
    LowOccupancy,
    /// The kernel launches no waves or has an empty program.
    EmptyKernel,
    /// A device spec violates the paper's Eq. 2 pipeline identity.
    ModelPipelineMismatch,
    /// A device spec's wavefront size does not match its architecture.
    SpecWavefrontSize,
}

impl RuleId {
    /// All rules, in documentation order.
    pub const ALL: &'static [RuleId] = &[
        RuleId::MfmaUnknownInstruction,
        RuleId::MfmaWrongArch,
        RuleId::MfmaLatencyMismatch,
        RuleId::MfmaEncodingRoundtrip,
        RuleId::HazardMissingSnop,
        RuleId::HazardExcessSnop,
        RuleId::HazardWawOverlap,
        RuleId::VgprOverflow,
        RuleId::VgprUnderdeclared,
        RuleId::LdsOverflow,
        RuleId::LdsUndeclared,
        RuleId::LowOccupancy,
        RuleId::EmptyKernel,
        RuleId::ModelPipelineMismatch,
        RuleId::SpecWavefrontSize,
    ];

    /// The stable kebab-case name used in reports and `docs/LINTS.md`.
    pub fn as_str(self) -> &'static str {
        match self {
            RuleId::MfmaUnknownInstruction => "mfma-unknown-instruction",
            RuleId::MfmaWrongArch => "mfma-wrong-arch",
            RuleId::MfmaLatencyMismatch => "mfma-latency-mismatch",
            RuleId::MfmaEncodingRoundtrip => "mfma-encoding-roundtrip",
            RuleId::HazardMissingSnop => "hazard-missing-snop",
            RuleId::HazardExcessSnop => "hazard-excess-snop",
            RuleId::HazardWawOverlap => "hazard-waw-overlap",
            RuleId::VgprOverflow => "vgpr-overflow",
            RuleId::VgprUnderdeclared => "vgpr-underdeclared",
            RuleId::LdsOverflow => "lds-overflow",
            RuleId::LdsUndeclared => "lds-undeclared",
            RuleId::LowOccupancy => "low-occupancy",
            RuleId::EmptyKernel => "empty-kernel",
            RuleId::ModelPipelineMismatch => "model-pipeline-mismatch",
            RuleId::SpecWavefrontSize => "spec-wavefront-size",
        }
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One lint finding.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Diagnostic {
    /// Error or warning.
    pub severity: Severity,
    /// The rule that fired.
    pub rule_id: RuleId,
    /// Program location, when the finding points at one slot; `None`
    /// for kernel-level and device-level findings.
    pub span: Option<Span>,
    /// Human-readable description of the defect.
    pub message: String,
    /// Suggested fix, when one exists.
    pub help: Option<String>,
}

impl Diagnostic {
    /// Builds an error diagnostic.
    pub fn error(rule_id: RuleId, span: Option<Span>, message: impl Into<String>) -> Self {
        Diagnostic {
            severity: Severity::Error,
            rule_id,
            span,
            message: message.into(),
            help: None,
        }
    }

    /// Builds a warning diagnostic.
    pub fn warning(rule_id: RuleId, span: Option<Span>, message: impl Into<String>) -> Self {
        Diagnostic {
            severity: Severity::Warning,
            rule_id,
            span,
            message: message.into(),
            help: None,
        }
    }

    /// Attaches a help line.
    pub fn with_help(mut self, help: impl Into<String>) -> Self {
        self.help = Some(help.into());
        self
    }

    /// Renders this diagnostic rustc-style, labelled with the subject
    /// (kernel or device) it was produced for.
    pub fn render(&self, subject: &str) -> String {
        render_finding(
            self.severity,
            self.rule_id.as_str(),
            self.span,
            &self.message,
            self.help.as_deref(),
            subject,
        )
    }
}

/// Renders one finding of either verifier rustc-style, labelled with
/// its subject.
pub(crate) fn render_finding(
    severity: Severity,
    rule: &str,
    span: Option<Span>,
    message: &str,
    help: Option<&str>,
    subject: &str,
) -> String {
    let mut out = format!("{severity}[{rule}]: {message}\n");
    match span {
        Some(span) => out.push_str(&format!("  --> `{subject}`, {span}\n")),
        None => out.push_str(&format!("  --> `{subject}`\n")),
    }
    if let Some(help) = help {
        out.push_str(&format!("  = help: {help}\n"));
    }
    out
}

/// What the shared [`Report`] needs of a verifier's diagnostic type.
pub trait Finding {
    /// The verifier's stable rule identifier.
    type Rule: PartialEq;
    /// The verifier's name, as a clean report prints it (`lint clean`).
    const VERIFIER: &'static str;
    /// Error or warning.
    fn severity(&self) -> Severity;
    /// The rule that fired.
    fn rule(&self) -> Self::Rule;
    /// Renders the finding rustc-style, labelled with its subject.
    fn render(&self, subject: &str) -> String;
}

impl Finding for Diagnostic {
    type Rule = RuleId;
    const VERIFIER: &'static str = "lint";

    fn severity(&self) -> Severity {
        self.severity
    }

    fn rule(&self) -> RuleId {
        self.rule_id
    }

    fn render(&self, subject: &str) -> String {
        Diagnostic::render(self, subject)
    }
}

/// The result of verifying one kernel (or auditing one device): the
/// report type both verifiers share.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Report<D> {
    /// The kernel name (or device name for audits).
    pub subject: String,
    /// Findings in program (lint) or walk (flow) order.
    pub diagnostics: Vec<D>,
}

/// The result of linting one kernel (or auditing one device).
pub type LintReport = Report<Diagnostic>;

impl<D> Report<D> {
    /// Builds a report for a subject from raw diagnostics.
    pub fn new(subject: impl Into<String>, diagnostics: Vec<D>) -> Self {
        Report {
            subject: subject.into(),
            diagnostics,
        }
    }

    /// `true` when there are no findings at all.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

impl<D: Finding> Report<D> {
    /// Number of error-severity findings.
    pub fn error_count(&self) -> usize {
        self.of_severity(Severity::Error).count()
    }

    /// Number of warning-severity findings.
    pub fn warning_count(&self) -> usize {
        self.of_severity(Severity::Warning).count()
    }

    /// `true` when any error-severity finding is present.
    pub fn has_errors(&self) -> bool {
        self.of_severity(Severity::Error).next().is_some()
    }

    /// Error-severity findings only.
    pub fn errors(&self) -> Vec<&D> {
        self.of_severity(Severity::Error).collect()
    }

    /// Warning-severity findings only.
    pub fn warnings(&self) -> Vec<&D> {
        self.of_severity(Severity::Warning).collect()
    }

    fn of_severity(&self, severity: Severity) -> impl Iterator<Item = &D> {
        self.diagnostics
            .iter()
            .filter(move |d| d.severity() == severity)
    }

    /// `true` when the given rule fired at least once.
    pub fn fired(&self, rule: D::Rule) -> bool {
        self.diagnostics.iter().any(|d| d.rule() == rule)
    }

    /// Renders every finding rustc-style, followed by a summary line.
    pub fn render(&self) -> String {
        if self.is_clean() {
            return format!("`{}`: {} clean\n", self.subject, D::VERIFIER);
        }
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.render(&self.subject));
        }
        out.push_str(&format!(
            "`{}`: {} error(s), {} warning(s)\n",
            self.subject,
            self.error_count(),
            self.warning_count()
        ));
        out
    }
}

impl<D: Finding> fmt::Display for Report<D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

impl<D: Serialize> Serialize for Report<D> {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("subject".to_owned(), self.subject.to_value()),
            ("diagnostics".to_owned(), self.diagnostics.to_value()),
        ])
    }
}

/// The instruction catalog a device architecture validates against.
pub fn catalog_for(arch: MatrixArch) -> &'static IsaCatalog {
    match arch {
        MatrixArch::Cdna1 => cdna1_catalog(),
        MatrixArch::Cdna2 => cdna2_catalog(),
        MatrixArch::Ampere => ampere_catalog(),
    }
}

/// The reference die specification for an architecture, used by compile
/// paths (such as `mc-wmma`'s builder) that know the target architecture
/// but not the concrete device.
pub fn default_die_for(arch: MatrixArch) -> DieSpec {
    match arch {
        MatrixArch::Cdna1 => specs::mi100().die,
        MatrixArch::Cdna2 => specs::mi250x().die,
        MatrixArch::Ampere => specs::a100().die,
    }
}

/// Independent issue slots hardware requires between an MFMA and the
/// first non-MFMA read of its accumulator (paper §III: "several no-op
/// instructions might be required"). Modeled as one slot per pipeline
/// quarter-pass: `latency / 8`, at least 1 — e.g. 4 for the 32-cycle
/// 16×16 instructions, 8 for the 64-cycle 32×32 instructions.
pub fn required_snop_gap(instr: &mc_isa::MatrixInstruction) -> u32 {
    (instr.latency_cycles / 8).max(1)
}

/// The warnings a kernel that passed both verifiers carries.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Verified {
    /// Warning-severity lint findings.
    pub lint: Vec<Diagnostic>,
    /// Warning-severity dataflow findings.
    pub flow: Vec<FlowDiagnostic>,
}

/// The report of the verifier that refused a kernel.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Rejection {
    /// Lint found an error; the dataflow analyses did not run.
    Lint(LintReport),
    /// Lint passed and the dataflow analyses found an error.
    Flow(FlowReport),
}

/// Verifies one kernel with both verifiers over a single event stream:
/// lint first, then the dataflow analyses only when lint found no
/// error. Returns the warnings of both, or the report that rejected the
/// kernel. The reports equal [`lint_kernel`] and
/// [`flow::analyze_kernel`] run separately.
///
/// This is [`VerifyMemo::verify`] on a memo of its own; a sweep that
/// verifies many kernels shares one memo instead.
pub fn verify_kernel(die: &DieSpec, k: &mc_isa::KernelDesc) -> Result<Verified, Rejection> {
    VerifyMemo::new().verify(die, k)
}

/// The walk behind [`verify_kernel`], run once per memoized shape.
fn verify_walk(die: &DieSpec, k: &mc_isa::KernelDesc) -> Result<Verified, Rejection> {
    let events = flow::collect_events(k);
    let lint = rules::lint_events(die, k, &events);
    if lint.has_errors() {
        return Err(Rejection::Lint(lint));
    }
    let flow = flow::analyze_events(die, k, &events);
    if flow.has_errors() {
        return Err(Rejection::Flow(flow));
    }
    Ok(Verified {
        lint: lint.diagnostics,
        flow: flow.diagnostics,
    })
}
