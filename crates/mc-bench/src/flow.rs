//! Flow sweep: dataflow verification of every shipped kernel (the
//! `mc-flow` artifact).
//!
//! The lint sweep proves every shipped kernel is *instruction-legal*;
//! this gate proves every shipped kernel is *pipeline-correct*: no LDS
//! race between wavefronts, no consumer of an unretired load, no
//! barrier with LDS traffic still outstanding, and a register working
//! set inside the declared budget. It walks the lint sweep's corpus
//! ([`crate::corpus`]) and also verifies the opposite buffering mode of
//! each Matrix Core plan: the gate's whole point is proving the stage
//! rotation of *both* pipeline variants, not just the strategy the
//! planner happens to prefer.

use mc_isa::specs::{DieSpec, PackageSpec};
use mc_isa::KernelDesc;
use mc_lint::flow::{analyze_kernel, FlowDiagnostic, FlowReport};
use mc_lint::Rejection;

use crate::corpus::{self, Gate, Subject, Sweep};

/// One flow-verified subject.
pub type FlowSubject = Subject<FlowDiagnostic>;

/// The full flow sweep result.
pub type FlowSweep = Sweep<FlowDiagnostic>;

/// The flow sweep as a registered experiment.
pub struct FlowExperiment;

impl Gate for FlowExperiment {
    type Diag = FlowDiagnostic;
    const ID: &'static str = "flow";
    const TITLE: &'static str =
        "mc-flow — dataflow race & synchronization sweep over the shipped kernels";
    const HEADER: &'static str =
        "mc-flow sweep: dataflow verification of the shipped kernel corpus";
    const KINDS: &'static [&'static str] = &["wmma-loop", "wmma-tile", "gemm-plan"];
    const CHECKS: [&'static str; 2] = ["flow/error diagnostics", "flow/warning diagnostics"];
    const FLIPPED_PLANS: bool = true;

    fn verify(die: &DieSpec, k: &KernelDesc) -> FlowReport {
        analyze_kernel(die, k)
    }

    fn own(r: Rejection) -> Option<FlowReport> {
        match r {
            Rejection::Flow(report) => Some(report),
            Rejection::Lint(_) => None,
        }
    }

    fn audit(_: &PackageSpec) -> Option<FlowReport> {
        None
    }
}

/// Runs the flow sweep over every registered device.
pub fn run(devices: &mc_sim::DeviceRegistry) -> FlowSweep {
    corpus::run::<FlowExperiment>(devices)
}

/// Renders the flow sweep as text.
pub fn render(sweep: &FlowSweep) -> String {
    corpus::render::<FlowExperiment>(sweep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_blas::GemmOp;
    use mc_sim::DeviceId;
    use mc_sim::DeviceRegistry;

    #[test]
    fn shipped_corpus_is_flow_clean() {
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
    fn sweep_covers_every_device_and_both_bufferings() {
        let sweep = run(&DeviceRegistry::builtin());
        for id in DeviceId::ALL {
            assert!(
                sweep
                    .subjects
                    .iter()
                    .any(|s| s.device == id.as_str() && s.kind == "wmma-loop"),
                "missing loop kernels for {id}"
            );
        }
        // Both pipeline variants of each Matrix Core routine appear:
        // the flipped-buffering plan doubles the matrix-core rows.
        let plans = sweep
            .subjects
            .iter()
            .filter(|s| s.device == "mi250x" && s.kind == "gemm-plan")
            .count();
        assert!(plans > GemmOp::ALL.len() * 3, "{plans}");
        assert!(sweep
            .subjects
            .iter()
            .any(|s| s.device == "mi250x" && s.kind == "wmma-tile"));
    }

    #[test]
    fn rendering_reports_a_clean_corpus() {
        let sweep = run(&DeviceRegistry::builtin());
        let text = render(&sweep);
        assert!(text.contains("corpus is flow clean"), "{text}");
        assert!(text.contains("mi250x"));
        assert!(text.contains("gemm-plan"));
    }
}
