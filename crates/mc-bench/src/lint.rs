//! Lint sweep: static verification of every shipped kernel and device
//! spec (the `mc-lint` artifact).
//!
//! It audits every registered device spec against the paper's Eq. 2
//! pipeline identity, then runs the static verifier over the shipped
//! kernel corpus ([`crate::corpus`]).

use mc_isa::specs::{DieSpec, PackageSpec};
use mc_isa::KernelDesc;
use mc_lint::{audit_package, lint_kernel, Diagnostic, LintReport, Rejection};

use crate::corpus::{self, Gate, Subject, Sweep};

/// One linted subject (a kernel or a device spec).
pub type LintSubject = Subject<Diagnostic>;

/// The full lint sweep result.
pub type LintSweep = Sweep<Diagnostic>;

/// The lint sweep as a registered experiment.
pub struct LintExperiment;

impl Gate for LintExperiment {
    type Diag = Diagnostic;
    const ID: &'static str = "lint";
    const TITLE: &'static str = "mc-lint — static verification sweep over the shipped kernels";
    const HEADER: &'static str = "mc-lint sweep: static verification of the shipped kernel corpus";
    const KINDS: &'static [&'static str] = &["device-audit", "wmma-loop", "wmma-tile", "gemm-plan"];
    const CHECKS: [&'static str; 2] = ["lint/error diagnostics", "lint/warning diagnostics"];
    const FLIPPED_PLANS: bool = false;

    fn verify(die: &DieSpec, k: &KernelDesc) -> LintReport {
        lint_kernel(die, k)
    }

    fn own(r: Rejection) -> Option<LintReport> {
        match r {
            Rejection::Lint(report) => Some(report),
            Rejection::Flow(_) => None,
        }
    }

    fn audit(package: &PackageSpec) -> Option<LintReport> {
        Some(audit_package(package))
    }
}

/// Runs the lint sweep over every registered device.
pub fn run(devices: &mc_sim::DeviceRegistry) -> LintSweep {
    corpus::run::<LintExperiment>(devices)
}

/// Renders the lint sweep as text.
pub fn render(sweep: &LintSweep) -> String {
    corpus::render::<LintExperiment>(sweep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_blas::GemmOp;
    use mc_sim::DeviceId;
    use mc_sim::DeviceRegistry;

    #[test]
    fn shipped_corpus_is_lint_clean() {
        let sweep = run(&DeviceRegistry::builtin());
        assert!(
            sweep.build_failures.is_empty(),
            "{:?}",
            sweep.build_failures
        );
        assert_eq!(sweep.total_errors, 0, "{}", render(&sweep));
        assert_eq!(sweep.total_warnings, 0, "{}", render(&sweep));
    }

    #[test]
    fn sweep_covers_every_device_and_corpus_class() {
        let sweep = run(&DeviceRegistry::builtin());
        for id in DeviceId::ALL {
            assert!(
                sweep
                    .subjects
                    .iter()
                    .any(|s| s.device == id.as_str() && s.kind == "device-audit"),
                "missing audit for {id}"
            );
            assert!(
                sweep
                    .subjects
                    .iter()
                    .any(|s| s.device == id.as_str() && s.kind == "wmma-loop"),
                "missing loop kernels for {id}"
            );
        }
        // Planner and tile corpora ride on the CDNA2 devices.
        assert!(sweep
            .subjects
            .iter()
            .any(|s| s.device == "mi250x" && s.kind == "gemm-plan"));
        assert!(sweep
            .subjects
            .iter()
            .any(|s| s.device == "mi250x" && s.kind == "wmma-tile"));
        // Every GemmOp routine appears in the plans.
        for op in GemmOp::ALL {
            assert!(
                sweep.subjects.iter().any(|s| s.kind == "gemm-plan"
                    && s.subject.contains(&format!("_{op}_"))
                    || s.subject.contains(&format!("gemm_{op}"))),
                "no plan for {op}"
            );
        }
    }

    #[test]
    fn rendering_reports_a_clean_corpus() {
        let sweep = run(&DeviceRegistry::builtin());
        let text = render(&sweep);
        assert!(text.contains("corpus is lint clean"), "{text}");
        assert!(text.contains("mi250x"));
        assert!(text.contains("gemm-plan"));
    }
}
