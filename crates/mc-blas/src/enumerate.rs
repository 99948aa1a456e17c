//! Candidate enumeration for the scored plan search.
//!
//! The static planner commits to one tiling per datatype
//! ([`crate::planner::select_strategy`]); the search instead spans the
//! whole space rocBLAS's kernel library covers — every catalogued
//! 16×16 MFMA for the routine's type pair, macro-tile edges from 64 to
//! 256, wave tiles from 16×16 to 64×64, and both global-load buffering
//! modes — and lets the scorer ([`crate::score`]) decide. The SIMD-only
//! strategy is always a candidate too: that is what lets the paper's
//! §VII policy rules (HGEMM → SIMD, tiny mixed problems → SIMD) fall
//! out of the ranking instead of being hard-coded.
//!
//! Enumeration is pure and deterministic: the same descriptor always
//! yields the same candidate list in the same order, which (with the
//! scorer's stable ranking) makes the whole search reproducible.

use mc_isa::{cdna2_catalog, Buffering, MatrixInstruction};

use crate::planner::{round_up, select_strategy, SimdReason, Strategy};
use crate::types::GemmDesc;

/// Macro-tile edges the search considers.
const MACRO_TILES: [usize; 3] = [64, 128, 256];

/// Wave-tile edges the search considers (wavefronts own up to 64×64).
const WAVE_TILES: [usize; 3] = [16, 32, 64];

/// The widest wave tile edge: a wavefront owns at most 64×64 outputs.
const MAX_WAVE_TILE: usize = 64;

/// Workgroups beyond this many wavefronts cannot schedule on a CDNA2
/// CU's four SIMDs without starving occupancy; candidates past it are
/// pruned before they are built.
const MAX_WAVES_PER_WORKGROUP: usize = 16;

/// Whether an MFMA can feed the rocBLAS tiling for `desc`: a current
/// (non-legacy) single-block 16×16 instruction of the routine's MFMA
/// type pair.
fn feeds_tiling(desc: &GemmDesc, instr: &MatrixInstruction) -> bool {
    !instr.legacy
        && (instr.cd, instr.ab) == desc.op.mfma_pair()
        && instr.shape.m == 16
        && instr.shape.n == 16
        && instr.shape.blocks == 1
}

/// Whether a strategy compiles to a well-formed kernel for `desc`. For a
/// Matrix Core strategy: the instruction is a current single-block
/// 16×16 MFMA of the routine's type pair; each wave
/// tile edge is a non-zero multiple of 16 up to `MAX_WAVE_TILE` and
/// divides its non-zero macro tile edge; the workgroup holds at most
/// `MAX_WAVES_PER_WORKGROUP` waves; and `k_step` is the K one MFMA
/// consumes. The search enumerates only such strategies; a plan-DB
/// entry that is not one is stale.
pub fn tileable(desc: &GemmDesc, strategy: &Strategy) -> bool {
    let Strategy::MatrixCore {
        instr,
        macro_tile: (mt_m, mt_n),
        wave_tile: (wt_m, wt_n),
        k_step,
        ..
    } = *strategy
    else {
        return true;
    };
    let edge = |mt: usize, wt: usize| {
        (16..=MAX_WAVE_TILE).contains(&wt)
            && wt.is_multiple_of(16)
            && mt > 0
            && mt.is_multiple_of(wt)
    };
    feeds_tiling(desc, &instr)
        && edge(mt_m, wt_m)
        && edge(mt_n, wt_n)
        && (mt_m / wt_m)
            .checked_mul(mt_n / wt_n)
            .is_some_and(|waves| waves <= MAX_WAVES_PER_WORKGROUP)
        && k_step > 0
        && k_step == instr.shape.k as usize
}

/// Enumerates every strategy the search will score for a problem.
///
/// The list always contains (1) the static planner's pick — so the
/// search can never do worse than the fallback it replaces — and
/// (2) the SIMD-only strategy. Matrix Core candidates are emitted for
/// each catalogued non-legacy single-block 16×16 instruction matching
/// the routine's MFMA type pair, crossed with `MACRO_TILES`,
/// `WAVE_TILES` (clamped to the problem exactly as the static
/// planner clamps), and both [`Buffering`] modes. Duplicates from
/// clamping are removed; order is deterministic.
pub fn enumerate_candidates(desc: &GemmDesc) -> Vec<Strategy> {
    let mut out = vec![
        select_strategy(desc),
        Strategy::SimdOnly {
            reason: SimdReason::Scored,
        },
    ];

    let instrs: Vec<_> = cdna2_catalog()
        .instructions()
        .iter()
        .filter(|i| feeds_tiling(desc, i))
        .collect();

    for &instr in &instrs {
        for buffering in [Buffering::Double, Buffering::Single] {
            for mt in MACRO_TILES {
                for wt_m in WAVE_TILES {
                    for wt_n in WAVE_TILES {
                        if wt_m > mt || wt_n > mt {
                            continue;
                        }
                        // Clamp to the problem like the static planner:
                        // no tile larger than the (16-padded) problem.
                        let wt_m = wt_m.min(round_up(desc.m, 16));
                        let wt_n = wt_n.min(round_up(desc.n, 16));
                        let mt_m = mt.min(round_up(desc.m, wt_m));
                        let mt_n = mt.min(round_up(desc.n, wt_n));
                        let candidate = Strategy::MatrixCore {
                            instr: *instr,
                            macro_tile: (mt_m, mt_n),
                            wave_tile: (wt_m, wt_n),
                            k_step: instr.shape.k as usize,
                            buffering,
                        };
                        if tileable(desc, &candidate) && !out.contains(&candidate) {
                            out.push(candidate);
                        }
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::GemmOp;

    #[test]
    fn static_pick_and_simd_always_enumerate_first() {
        let desc = GemmDesc::square(GemmOp::Sgemm, 1024);
        let c = enumerate_candidates(&desc);
        assert_eq!(c[0], select_strategy(&desc));
        assert_eq!(
            c[1],
            Strategy::SimdOnly {
                reason: SimdReason::Scored
            }
        );
    }

    #[test]
    fn hgemm_has_no_matrix_core_candidates() {
        // No FP16←FP16 MFMA exists, so the search space is SIMD-only —
        // the §VII rule is structural, not a scored coincidence.
        let c = enumerate_candidates(&GemmDesc::square(GemmOp::Hgemm, 4096));
        assert!(c.iter().all(|s| !s.uses_matrix_cores()), "{c:?}");
    }

    #[test]
    fn large_problems_span_tiles_and_buffering() {
        let c = enumerate_candidates(&GemmDesc::square(GemmOp::Sgemm, 4096));
        let mc: Vec<_> = c.iter().filter(|s| s.uses_matrix_cores()).collect();
        assert!(mc.len() > 10, "{}", mc.len());
        let has = |want: Buffering| {
            mc.iter()
                .any(|s| matches!(s, Strategy::MatrixCore { buffering, .. } if *buffering == want))
        };
        assert!(has(Buffering::Double) && has(Buffering::Single));
        for mt in MACRO_TILES {
            assert!(
                mc.iter().any(
                    |s| matches!(s, Strategy::MatrixCore { macro_tile, .. } if macro_tile.0 == mt)
                ),
                "macro tile {mt} missing"
            );
        }
    }

    #[test]
    fn enumeration_is_deterministic_and_deduplicated() {
        let desc = GemmDesc::square(GemmOp::Hhs, 2048);
        let a = enumerate_candidates(&desc);
        let b = enumerate_candidates(&desc);
        assert_eq!(a, b);
        for (i, s) in a.iter().enumerate() {
            assert!(!a[i + 1..].contains(s), "duplicate candidate {s:?}");
        }
    }

    #[test]
    fn every_candidate_is_tileable() {
        for op in GemmOp::ALL {
            for n in (1..=300).chain([1000, 4096, 65000]) {
                let desc = GemmDesc::new(op, n, 300 - n.min(299), n, 1.0, 0.0);
                for s in enumerate_candidates(&desc) {
                    assert!(tileable(&desc, &s), "{op} {n}: {s:?}");
                }
            }
        }
    }

    #[test]
    fn untileable_strategies_are_refused_before_building() {
        let desc = GemmDesc::square(GemmOp::Sgemm, 256);
        let Strategy::MatrixCore {
            instr,
            macro_tile,
            wave_tile,
            k_step,
            buffering,
        } = select_strategy(&desc)
        else {
            panic!("SGEMM N=256 maps to Matrix Cores");
        };
        let die = mc_isa::specs::mi250x().die;
        let bad = [
            ((0, macro_tile.1), wave_tile, k_step),
            (macro_tile, (0, wave_tile.1), k_step),
            (macro_tile, wave_tile, 0),
            (macro_tile, (wave_tile.0, macro_tile.1 * 2), k_step),
            (macro_tile, (48, wave_tile.1), k_step),
            ((1024, 1024), (64, 64), k_step),
            ((usize::MAX, usize::MAX), (16, 16), k_step),
            (macro_tile, wave_tile, k_step * 2),
        ];
        for (macro_tile, wave_tile, k_step) in bad {
            let s = Strategy::MatrixCore {
                instr,
                macro_tile,
                wave_tile,
                k_step,
                buffering,
            };
            assert!(!tileable(&desc, &s), "{s:?}");
            let err = crate::planner::build_plan(&die, &desc, s).unwrap_err();
            assert!(matches!(err, crate::BlasError::Untileable(_)), "{err}");
        }
    }

    #[test]
    fn tiny_problems_clamp_every_tile() {
        let c = enumerate_candidates(&GemmDesc::square(GemmOp::Sgemm, 16));
        for s in &c {
            if let Strategy::MatrixCore {
                macro_tile,
                wave_tile,
                ..
            } = s
            {
                assert_eq!(*macro_tile, (16, 16));
                assert_eq!(*wave_tile, (16, 16));
            }
        }
    }
}
