//! Steady-state unrolled traversal of a [`WaveProgram`].
//!
//! Both the `mc-lint` S_NOP hazard scan and its dataflow verifier
//! (`mc_lint::flow`) need to see the loop body more than once: a hazard
//! or race opened at the *bottom* of the loop is only visible when the
//! walk wraps around the back edge to the top. This module is the
//! single owner of that back-edge logic — it linearizes a program into
//! prologue / `unroll` body passes / epilogue, carrying the concrete
//! iteration index each body pass represents so iteration-dependent
//! resources (the [`crate::kernel::StageTag`] rotation of a
//! double-buffered pipeline) resolve exactly.
//!
//! Two passes reach the steady state for iteration-independent analyses
//! (the hazard scan: any window crossing the back edge once is seen).
//! Iteration-dependent analyses need one more: with a period-2 stage
//! rotation the `0→1` and `1→2` adjacencies touch *different* stage
//! pairings, so the dataflow verifier walks `min(iterations, 3)`
//! passes. `mc-lint` walks each kernel once, at that unroll: the
//! two-pass walk is not a prefix of the three-pass one (the epilogue
//! comes last), but it is the three-pass walk without its third body
//! pass, so the hazard scan skips body passes from iteration 2 on.

use crate::kernel::{SlotRuns, WaveProgram};

/// Which program section a [`Pass`] walks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PassKind {
    /// The straight-line prologue (once).
    Prologue,
    /// One iteration of the loop body.
    Body,
    /// The straight-line epilogue (once).
    Epilogue,
}

/// One linear pass over a program section in the unrolled walk.
#[derive(Clone, Copy, Debug)]
pub struct Pass<'a> {
    /// Section this pass walks.
    pub kind: PassKind,
    /// Concrete loop iteration this pass represents (0 for
    /// prologue/epilogue). Body passes count from 0, so rotating stage
    /// tags resolve exactly as they would on the first iterations of
    /// the real loop.
    pub iteration: u64,
    /// The section's static instruction slots.
    pub ops: &'a SlotRuns,
}

/// Linearizes `program` into prologue, `min(body_iterations, unroll)`
/// body passes (iterations `0..n`), and epilogue.
///
/// The prologue→body adjacency is exact (the walk starts at iteration
/// 0). The epilogue follows the *last unrolled* iteration rather than
/// iteration `body_iterations - 1`; analyses that depend on the
/// epilogue's stage parity must account for that approximation (the
/// shipped emitters end every body in a barrier, so no LDS state leaks
/// across it).
pub fn steady_passes(program: &WaveProgram, unroll: u64) -> Vec<Pass<'_>> {
    let mut passes = vec![Pass {
        kind: PassKind::Prologue,
        iteration: 0,
        ops: &program.prologue,
    }];
    for iteration in 0..program.body_iterations.min(unroll) {
        passes.push(Pass {
            kind: PassKind::Body,
            iteration,
            ops: &program.body,
        });
    }
    passes.push(Pass {
        kind: PassKind::Epilogue,
        iteration: 0,
        ops: &program.epilogue,
    });
    passes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::SlotOp;

    fn program(iters: u64) -> WaveProgram {
        WaveProgram {
            prologue: [SlotOp::Scalar].into(),
            body: [SlotOp::Barrier].into(),
            body_iterations: iters,
            epilogue: [SlotOp::global_store(16)].into(),
        }
    }

    #[test]
    fn unroll_is_clamped_by_iteration_count() {
        let p = program(1);
        let passes = steady_passes(&p, 3);
        let kinds: Vec<PassKind> = passes.iter().map(|p| p.kind).collect();
        assert_eq!(
            kinds,
            [PassKind::Prologue, PassKind::Body, PassKind::Epilogue]
        );
    }

    #[test]
    fn body_passes_carry_iteration_indices() {
        let p = program(100);
        let passes = steady_passes(&p, 3);
        let body: Vec<u64> = passes
            .iter()
            .filter(|p| p.kind == PassKind::Body)
            .map(|p| p.iteration)
            .collect();
        assert_eq!(body, [0, 1, 2]);
        assert_eq!(passes.first().unwrap().kind, PassKind::Prologue);
        assert_eq!(passes.last().unwrap().kind, PassKind::Epilogue);
    }

    #[test]
    fn zero_iterations_skip_the_body() {
        let p = program(0);
        let passes = steady_passes(&p, 2);
        assert!(passes.iter().all(|p| p.kind != PassKind::Body));
    }
}
