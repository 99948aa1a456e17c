//! The packed GEMM driver shared by every packed tier.
//!
//! One BLIS-style loop nest, generic over a [`Microkernel`]: the
//! [`crate::Blocked`] tier runs it with the scalar rounding chain, the
//! [`crate::Simd`] tier with the widest vector tile the host supports.
//!
//! **Parallel structure.** Each call enters *one* rayon region: the
//! output rows are split into one contiguous chunk per worker (whole
//! `MR`-row groups), and each task walks `KC`-deep k blocks ascending,
//! packing its own A rows and, per `NC`-wide column block, its own B
//! panel into `NR`-wide strips, then sweeping `MR`×`NR` tiles over
//! `MC`-row sub-panels that keep the A walk L2-resident.
//!
//! **Rounding is preserved, not approximated.** Every output element
//! accumulates through the kernel's rounding chain in ascending `k`:
//! k blocks ascend and the per-element accumulator carries across
//! them. Partitioning splits the *output*, never a chain, so results
//! equal [`crate::Naive`] bit for bit at every worker count. Packing
//! converts each input once, exactly, into the kernel's packed scalar.
//!
//! Panels and the accumulator come from the packing pool
//! ([`crate::acquire`]), so steady-state repeated GEMMs perform no
//! allocator round-trips.

use mc_types::Real;
use rayon::prelude::*;

use crate::microkernel::Microkernel;
use crate::params::{ComputeError, Epilogue, GemmParams, Trans};
use crate::pool;
use crate::prof::{self, HostPhase, Lane};

/// Row sub-panel height: the A rows one tile sweep keeps L2-resident.
pub const MC: usize = 64;
/// Column-block width: the B panel packed per k block.
pub const NC: usize = 128;
/// k-block depth: packed-panel depth sized to keep a B strip in L1.
pub const KC: usize = 256;

/// Packs `op(A)[row0..row0+mc_len][pc..pc+kc_len]` row-major into `out`.
fn pack_a<AB: Real, P: Real>(
    params: &GemmParams,
    a: &[AB],
    row0: usize,
    mc_len: usize,
    pc: usize,
    kc_len: usize,
    out: &mut Vec<P>,
) {
    out.clear();
    for i in row0..row0 + mc_len {
        if params.trans_a == Trans::None {
            // Contiguous rows: a slice walk the compiler vectorizes.
            let row = &a[i * params.k + pc..i * params.k + pc + kc_len];
            out.extend(row.iter().map(|x| P::from_f64(x.to_f64())));
        } else {
            out.extend((pc..pc + kc_len).map(|p| P::from_f64(a[params.a_index(i, p)].to_f64())));
        }
    }
}

/// Packs `op(B)[pc..pc+kc_len][jc..jc+nc_len]` into `nr`-wide strips
/// (`out[strip][p][lane]`), zero-padding lanes past `nc_len` so every
/// vector load is full width. Padded lanes accumulate exact zeros and
/// are never stored back.
#[allow(clippy::too_many_arguments)]
fn pack_b<AB: Real, P: Real>(
    params: &GemmParams,
    b: &[AB],
    pc: usize,
    kc_len: usize,
    jc: usize,
    nc_len: usize,
    nr: usize,
    out: &mut Vec<P>,
) {
    out.clear();
    for j0 in (jc..jc + nc_len).step_by(nr) {
        let lanes = nr.min(jc + nc_len - j0);
        for p in pc..pc + kc_len {
            out.extend((j0..j0 + lanes).map(|j| P::from_f64(b[params.b_index(p, j)].to_f64())));
            out.extend((lanes..nr).map(|_| P::zero()));
        }
    }
}

/// Sweeps the kernel's tiles over one `(jc, pc)` block of a task's
/// accumulator rows: per `MC`-row sub-panel, each B strip stays hot
/// across the `MR`-row tiles. Full-width tiles accumulate in place; a
/// strip's ragged edge goes through a zero-padded stack tile.
#[allow(clippy::too_many_arguments)]
fn tiles<K: Microkernel>(
    kernel: K,
    acc_rows: &mut [K::Acc],
    n: usize,
    jc: usize,
    nc_len: usize,
    kc_len: usize,
    a_panel: &[K::Pack],
    b_panel: &[K::Pack],
) {
    let (mr, nr) = (K::MR, K::NR);
    let mc_len = acc_rows.len() / n;
    let strip_len = kc_len * nr;
    let mut edge = K::zero_tile();
    let edge = edge.as_mut();
    for ic in (0..mc_len).step_by(MC) {
        let ic_len = MC.min(mc_len - ic);
        for (strip, jl) in (0..nc_len).step_by(nr).enumerate() {
            let nr_len = nr.min(nc_len - jl);
            let b_strip = &b_panel[strip * strip_len..(strip + 1) * strip_len];
            for row in (ic..ic + ic_len).step_by(mr) {
                let mr_len = mr.min(ic + ic_len - row);
                let a_rows = &a_panel[row * kc_len..(row + mr_len) * kc_len];
                let base = row * n + jc + jl;
                if nr_len == nr {
                    let c = &mut acc_rows[base..base + (mr_len - 1) * n + nr];
                    // SAFETY: `1 ≤ mr_len ≤ MR`; `a_rows` holds `mr_len`
                    // rows of `kc_len`, the strip `kc_len·NR` (the packed
                    // width), and `c` spans `mr_len` rows of stride `n`
                    // ending at a full `NR`-wide row.
                    unsafe { kernel.tile(a_rows, b_strip, c, n, kc_len, mr_len) };
                    continue;
                }
                for r in 0..mr_len {
                    let t = &mut edge[r * nr..(r + 1) * nr];
                    t[..nr_len].copy_from_slice(&acc_rows[base + r * n..base + r * n + nr_len]);
                    t[nr_len..].fill(K::Acc::zero());
                }
                // SAFETY: as above, with `edge` the kernel's own
                // `MR·NR` tile at stride `NR`.
                unsafe { kernel.tile(a_rows, b_strip, edge, nr, kc_len, mr_len) };
                for r in 0..mr_len {
                    acc_rows[base + r * n..base + r * n + nr_len]
                        .copy_from_slice(&edge[r * nr..r * nr + nr_len]);
                }
            }
        }
    }
}

/// Runs `D ← α·op(A)·op(B) + β·C` through `kernel`'s rounding chain.
pub(crate) fn gemm_packed<AB: Real, CD: Real, K: Microkernel>(
    kernel: K,
    params: &GemmParams,
    a: &[AB],
    b: &[AB],
    c: &[CD],
    d: &mut [CD],
) -> Result<(), ComputeError> {
    params.check_buffers(a.len(), b.len(), c.len(), d.len())?;
    let (m, n) = (params.m, params.n);
    if m == 0 || n == 0 {
        return Ok(());
    }
    let mut acc = pool::acquire::<K::Acc>(m * n);
    acc.resize(m * n, K::Acc::zero());
    sweep(
        kernel,
        params.k,
        n,
        &mut acc,
        &|row0, rows, pc, kc_len, out| pack_a(params, a, row0, rows, pc, kc_len, out),
        &|pc, kc_len, jc, nc_len, out| pack_b(params, b, pc, kc_len, jc, nc_len, K::NR, out),
    );
    epilogue(params, &acc, c, d);
    Ok(())
}

/// A packing routine `(i0, i_len, j0, j_len, out)` over one operand.
type PackFn<'a, P> = &'a (dyn Fn(usize, usize, usize, usize, &mut Vec<P>) + Sync);

/// Records `phase` from `t0` (`None` when profiling is off) on the
/// caller's lane (fan-out, epilogue) or the running worker's. Lanes are
/// resolved only here: claiming one registers it with the session.
fn record(region: u32, phase: HostPhase, t0: Option<f64>) {
    if let Some(t0) = t0 {
        let lane = match phase {
            HostPhase::Fanout | HostPhase::Epilogue => Lane::Call(prof::call_lane()),
            _ => Lane::Worker(prof::worker_lane()),
        };
        prof::phase(region, phase, lane, t0);
    }
}

/// The parallel packed sweep `acc += op(A)·op(B)`: one rayon region
/// over contiguous row chunks, one per worker. Generic over the kernel
/// only (the operands' dtypes reach it through the packing routines),
/// so each kernel compiles one copy of the region.
fn sweep<K: Microkernel>(
    kernel: K,
    k: usize,
    n: usize,
    acc: &mut [K::Acc],
    pack_a: PackFn<K::Pack>,
    pack_b: PackFn<K::Pack>,
) {
    // Host profiling: one caller-lane fan-out phase around the region,
    // worker-lane pack/microkernel phases inside it; `region == 0` (no
    // session, or a call outside any region) records nothing.
    let region = prof::current_region();
    let on = prof::enabled() && region != 0;
    let m = acc.len() / n;
    let workers = rayon::current_num_threads().max(1);
    let chunk_rows = m.div_ceil(workers).next_multiple_of(K::MR);
    let kc_max = KC.min(k.max(1));
    let bp_cap = kc_max * NC.min(n).next_multiple_of(K::NR);
    let t_fan = on.then(prof::now_s);
    acc.par_chunks_mut(chunk_rows * n)
        .enumerate()
        .for_each(|(chunk_idx, acc_rows)| {
            let row0 = chunk_idx * chunk_rows;
            let mc_len = acc_rows.len() / n;
            let mut a_panel = pool::acquire::<K::Pack>(mc_len * kc_max);
            let mut b_panel = pool::acquire::<K::Pack>(bp_cap);
            for pc in (0..k).step_by(KC) {
                let kc_len = KC.min(k - pc);
                let t0 = on.then(prof::now_s);
                pack_a(row0, mc_len, pc, kc_len, &mut a_panel);
                record(region, HostPhase::PackA, t0);
                for jc in (0..n).step_by(NC) {
                    let nc_len = NC.min(n - jc);
                    let t0 = on.then(prof::now_s);
                    pack_b(pc, kc_len, jc, nc_len, &mut b_panel);
                    record(region, HostPhase::PackB, t0);
                    let t0 = on.then(prof::now_s);
                    tiles(kernel, acc_rows, n, jc, nc_len, kc_len, &a_panel, &b_panel);
                    record(region, HostPhase::Microkernel, t0);
                }
            }
        });
    record(region, HostPhase::Fanout, t_fan);
}

/// The α/β epilogue: `d ← epi(α·acc, β·c)` over full rows in parallel,
/// with both products rounded in the compute type.
fn epilogue<CT: Real, CD: Real>(params: &GemmParams, acc: &[CT], c: &[CD], d: &mut [CD]) {
    let n = params.n;
    let region = prof::current_region();
    let t0 = (prof::enabled() && region != 0).then(prof::now_s);
    d[..params.m * n]
        .par_chunks_mut(n)
        .enumerate()
        .for_each(|(i, drow)| {
            for (j, out) in drow.iter_mut().enumerate() {
                let ab = CT::from_f64(params.alpha * acc[i * n + j].to_f64());
                let bc = CT::from_f64(params.beta * c[i * n + j].to_f64());
                let sum = ab.to_f64() + bc.to_f64();
                *out = match params.epilogue {
                    Epilogue::Direct => CD::from_f64(sum),
                    Epilogue::ComputeRounded => CD::from_f64(CT::from_f64(sum).to_f64()),
                };
            }
        });
    record(region, HostPhase::Epilogue, t0);
}
