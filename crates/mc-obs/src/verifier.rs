//! Verifier diagnostic counts as metrics.
//!
//! The lint and flow gates (`mc-lint` and its `mc_lint::flow` module)
//! each sweep the shipped kernel corpus and produce per-subject diagnostic counts.
//! This module aggregates those counts into a
//! [`mc_trace::MetricsRegistry`] under `verifier.<gate>.*`, from where
//! [`mc_trace::openmetrics`] renders the text exposition — so a
//! scraping dashboard sees the same zero-diagnostic invariant the CI
//! gates enforce, and a regression shows up as a counter stepping away
//! from zero rather than only as a failed build.
//!
//! The API deliberately takes plain counts rather than the two gates'
//! report types: it only needs the aggregate numbers.

use mc_trace::{MetricsRegistry, Unit};

/// Aggregate diagnostic counts from one verifier sweep.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VerifierCounts {
    /// Gate name, used as the metric-family infix: `lint`, `flow`, ….
    /// Must be a bare lowercase identifier (it lands in metric names).
    pub verifier: String,
    /// Kernels the sweep verified.
    pub subjects: usize,
    /// Error-severity findings (any non-zero value fails the gate).
    pub errors: usize,
    /// Warning-severity findings.
    pub warnings: usize,
}

impl VerifierCounts {
    /// Builds a counts record for one gate.
    pub fn new(verifier: &str, subjects: usize, errors: usize, warnings: usize) -> Self {
        VerifierCounts {
            verifier: verifier.to_owned(),
            subjects,
            errors,
            warnings,
        }
    }
}

/// Registers one verifier sweep's counts as
/// `verifier.<gate>.{subjects,errors,warnings}` count metrics.
pub fn register_verifier_metrics(counts: &VerifierCounts, reg: &mut MetricsRegistry) {
    let gate = &counts.verifier;
    reg.set(
        &format!("verifier.{gate}.subjects"),
        Unit::Count,
        counts.subjects as f64,
    );
    reg.set(
        &format!("verifier.{gate}.errors"),
        Unit::Count,
        counts.errors as f64,
    );
    reg.set(
        &format!("verifier.{gate}.warnings"),
        Unit::Count,
        counts.warnings as f64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_land_under_the_gate_name() {
        let mut reg = MetricsRegistry::new();
        register_verifier_metrics(&VerifierCounts::new("flow", 193, 0, 2), &mut reg);
        let text = mc_trace::openmetrics(&reg);
        assert!(text.contains("verifier_flow_subjects"), "{text}");
        assert!(text.contains("verifier_flow_errors 0"), "{text}");
        assert!(text.contains("verifier_flow_warnings 2"), "{text}");
    }

    #[test]
    fn gates_do_not_collide() {
        let mut reg = MetricsRegistry::new();
        register_verifier_metrics(&VerifierCounts::new("lint", 10, 0, 0), &mut reg);
        register_verifier_metrics(&VerifierCounts::new("flow", 20, 1, 0), &mut reg);
        let text = mc_trace::openmetrics(&reg);
        assert!(text.contains("verifier_lint_subjects 10"), "{text}");
        assert!(text.contains("verifier_flow_subjects 20"), "{text}");
        assert!(text.contains("verifier_flow_errors 1"), "{text}");
    }
}
