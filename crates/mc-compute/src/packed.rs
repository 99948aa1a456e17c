//! The packed GEMM driver shared by every packed tier.
//!
//! One BLIS-style loop nest, generic over a [`Microkernel`]: the
//! [`crate::Blocked`] tier runs it with the scalar rounding chain, the
//! [`crate::Simd`] tier with the widest vector tile the host supports.
//!
//! **Parallel structure.** Each call enters *one* rayon region: the
//! output rows are split into one contiguous chunk per thread that
//! could run now ([`rayon::current_free_threads`]: the whole pool at top
//! level, one inside a region that already holds every worker, so a
//! GEMM nested in such a region runs whole on its caller and packs B
//! once), in whole `MR`-row groups, and each task owns its chunk end to
//! end. A call of at most `SERIAL_WORK` (32³) multiply-adds is one
//! chunk on its caller whatever the pool: waking a parked worker costs
//! more than it saves there. This is the one place that decides a
//! call's parallelism; [`crate::Auto`] only picks the kernel. The
//! free-thread count is a hint: if another region leases the workers
//! first, the chunks run inline, in order. Within its chunk a
//! task packs its own A rows and, per `NC`-wide column block, its own B
//! panel into `NR`-wide strips, and sweeps `MR`×`NR` tiles over
//! `MC`-row sub-panels that keep the A walk L2-resident. How it
//! accumulates depends on the depth:
//!
//! * **One k block** (`0 < k ≤ KC`, every solver GEMM): each `MC`×`NC`
//!   block accumulates in one pooled, cache-resident block buffer and
//!   goes through the α/β epilogue straight away, under one lock of the
//!   task's output chunk per block. No `m×n` accumulator is zeroed or
//!   streamed through L2.
//! * **Several k blocks**: the task takes accumulator rows for its
//!   whole chunk from the packing pool and zeroes only those, walks the
//!   `KC`-deep k blocks ascending, and runs the epilogue on the same
//!   rows after the last one. (Running every k block innermost per
//!   block measured slower at 1024³.)
//!
//! **Strided and in-place views.** Packing reads A and B through their
//! leading dimensions, and the epilogue writes `D` (and reads `C`) row
//! by row at `ldc`, so a block of a larger matrix needs no gather. When
//! `C` is `None`, the epilogue reads each element of `D` just before
//! overwriting it: every element's accumulation is complete by then,
//! so updating in place is bit-identical to a separate output.
//!
//! **Rounding is preserved, not approximated.** Every output element
//! accumulates through the kernel's rounding chain in ascending `k`:
//! k blocks ascend and the per-element accumulator carries across
//! them. Partitioning splits the *output*, never a chain, so results
//! equal [`crate::Naive`] bit for bit at every worker count. Packing
//! converts each input once, exactly, into the kernel's packed scalar.
//!
//! Panels and the accumulator rows come from the packing pool
//! ([`crate::acquire`]), so steady-state repeated GEMMs perform no
//! allocator round-trips.

use std::sync::{Mutex, PoisonError};

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

/// Work (`m·n·k` multiply-adds) at or below which a call runs as one
/// chunk on its caller: 32³, the volume below which the retired naive
/// route kept pooled calls serial.
const SERIAL_WORK: u128 = 32 * 32 * 32;

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
    let lda = params.lda();
    for i in row0..row0 + mc_len {
        if params.trans_a == Trans::None {
            // Contiguous rows: a slice walk the compiler vectorizes.
            let row = &a[i * lda + pc..i * lda + pc + kc_len];
            out.extend(row.iter().map(|x| P::from_f64(x.to_f64())));
        } else {
            out.extend((pc..pc + kc_len).map(|p| P::from_f64(a[p * lda + i].to_f64())));
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
    let ldb = params.ldb();
    for j0 in (jc..jc + nc_len).step_by(nr) {
        let lanes = nr.min(jc + nc_len - j0);
        for p in pc..pc + kc_len {
            if params.trans_b == Trans::None {
                let row = &b[p * ldb + j0..p * ldb + j0 + lanes];
                out.extend(row.iter().map(|x| P::from_f64(x.to_f64())));
            } else {
                out.extend((j0..j0 + lanes).map(|j| P::from_f64(b[j * ldb + p].to_f64())));
            }
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

/// Rows per worker chunk: `m` split over `workers`, rounded up to
/// whole `mr`-row tile groups. The chunks `[i·rows, (i+1)·rows) ∩ [0, m)`
/// partition the output rows; when `m` is small some workers get none.
fn chunk_rows(m: usize, workers: usize, mr: usize) -> usize {
    m.div_ceil(workers.max(1)).next_multiple_of(mr)
}

/// Runs `D ← α·op(A)·op(B) + β·C` through `kernel`'s rounding chain,
/// with `C` read from `d` itself when `c` is `None`.
pub(crate) fn gemm_packed<AB: Real, CD: Real, K: Microkernel>(
    kernel: K,
    params: &GemmParams,
    a: &[AB],
    b: &[AB],
    c: Option<&[CD]>,
    d: &mut [CD],
) -> Result<(), ComputeError> {
    params.check_buffers(a.len(), b.len(), c.map(<[CD]>::len), d.len())?;
    let (m, n, ldc) = (params.m, params.n, params.ldc());
    if m == 0 || n == 0 {
        return Ok(());
    }
    // One chunk per thread that can run now (every pool thread at top
    // level, one inside a region that already holds every worker), or
    // a single chunk when the call is too small to repay a wake-up.
    let work = m as u128 * n as u128 * params.k as u128;
    let workers = if work <= SERIAL_WORK {
        1
    } else {
        rayon::current_free_threads()
    };
    let rows = chunk_rows(m, workers, K::MR);
    // One output chunk per task (its rows at stride `ldc`, the last one
    // ending at its last element); each is locked only by its own task.
    let d_chunks: Vec<Mutex<&mut [CD]>> = d[..(m - 1) * ldc + n]
        .chunks_mut(rows * ldc)
        .map(Mutex::new)
        .collect();
    sweep(
        kernel,
        Shape {
            m,
            n,
            k: params.k,
            rows,
        },
        &|row0, rows, pc, kc_len, out| pack_a(params, a, row0, rows, pc, kc_len, out),
        &|pc, kc_len, jc, nc_len, out| pack_b(params, b, pc, kc_len, jc, nc_len, K::NR, out),
        &|(i0, j0, width), acc| {
            let (chunk, local) = (i0 / rows, i0 % rows);
            let mut d_rows = d_chunks[chunk]
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            epilogue(
                params,
                acc,
                width,
                c.map(|c| &c[i0 * ldc + j0..]),
                &mut d_rows[local * ldc + j0..],
            );
        },
    );
    Ok(())
}

/// A packing routine `(i0, i_len, j0, j_len, out)` over one operand.
type PackFn<'a, P> = &'a (dyn Fn(usize, usize, usize, usize, &mut Vec<P>) + Sync);

/// The epilogue for one finished accumulator block: `((i0, j0, width),
/// acc)` with `acc` dense rows of `width` elements holding output rows
/// from `i0`, columns `j0..j0 + width`.
type EpilogueFn<'a, T> = &'a (dyn Fn((usize, usize, usize), &[T]) + Sync);

/// The problem and its row chunking: `rows` output rows per task.
#[derive(Clone, Copy)]
struct Shape {
    m: usize,
    n: usize,
    k: usize,
    rows: usize,
}

/// Records `phase` from `t0` (`None` when profiling is off) on the
/// caller's lane (fan-out) or the running worker's. Lanes are resolved
/// only here: claiming one registers it with the session.
fn record(region: u32, phase: HostPhase, t0: Option<f64>) {
    if let Some(t0) = t0 {
        let lane = match phase {
            HostPhase::Fanout => Lane::Call(prof::call_lane()),
            _ => Lane::Worker(prof::worker_lane()),
        };
        prof::phase(region, phase, lane, t0);
    }
}

/// The parallel packed GEMM: one rayon region over contiguous row
/// chunks, each task accumulating its rows of `op(A)·op(B)` and handing
/// them to `epilogue`. Generic over the kernel only (the operands'
/// dtypes reach it through the packing and epilogue routines), so each
/// kernel compiles one copy of the region.
///
/// With one k block (`0 < k ≤ KC`) a task packs its A rows once and, per
/// `NC`-wide B panel, accumulates each `MC`×`NC` block in one pooled
/// cache-resident buffer and finishes it at once. With more, it keeps
/// all its rows' accumulators across the k blocks (zeroed and never
/// swept when `k = 0`) and finishes them after the last.
fn sweep<K: Microkernel>(
    kernel: K,
    shape: Shape,
    pack_a: PackFn<K::Pack>,
    pack_b: PackFn<K::Pack>,
    epilogue: EpilogueFn<K::Acc>,
) {
    // Host profiling: one caller-lane fan-out phase around the region,
    // worker-lane pack/microkernel/epilogue phases inside it;
    // `region == 0` (no session, or a call outside any region) records
    // nothing.
    let region = prof::current_region();
    let on = prof::enabled() && region != 0;
    let timed = |phase: HostPhase, f: &mut dyn FnMut()| {
        let t0 = on.then(prof::now_s);
        f();
        record(region, phase, t0);
    };
    let Shape { m, n, k, rows } = shape;
    let kc_max = KC.min(k.max(1));
    let bp_cap = kc_max * NC.min(n).next_multiple_of(K::NR);
    let t_fan = on.then(prof::now_s);
    (0..m.div_ceil(rows)).into_par_iter().for_each(|chunk| {
        let row0 = chunk * rows;
        let mc_len = rows.min(m - row0);
        let mut a_panel = pool::acquire::<K::Pack>(mc_len * kc_max);
        let mut b_panel = pool::acquire::<K::Pack>(bp_cap);
        if (1..=KC).contains(&k) {
            // One k block: the block buffer is the whole accumulator of
            // its `MC`×`NC` outputs, so each is final after one sweep.
            timed(HostPhase::PackA, &mut || {
                pack_a(row0, mc_len, 0, k, &mut a_panel)
            });
            let mut block = pool::acquire::<K::Acc>(MC.min(mc_len) * NC.min(n));
            for jc in (0..n).step_by(NC) {
                let nc_len = NC.min(n - jc);
                timed(HostPhase::PackB, &mut || {
                    pack_b(0, k, jc, nc_len, &mut b_panel)
                });
                for ic in (0..mc_len).step_by(MC) {
                    let ic_len = MC.min(mc_len - ic);
                    let a_rows = &a_panel[ic * k..(ic + ic_len) * k];
                    timed(HostPhase::Microkernel, &mut || {
                        block.clear();
                        block.resize(ic_len * nc_len, K::Acc::zero());
                        tiles(kernel, &mut block, nc_len, 0, nc_len, k, a_rows, &b_panel);
                    });
                    timed(HostPhase::Epilogue, &mut || {
                        epilogue((row0 + ic, jc, nc_len), &block)
                    });
                }
            }
        } else {
            let mut acc = pool::acquire::<K::Acc>(mc_len * n);
            acc.resize(mc_len * n, K::Acc::zero());
            for pc in (0..k).step_by(KC) {
                let kc_len = KC.min(k - pc);
                timed(HostPhase::PackA, &mut || {
                    pack_a(row0, mc_len, pc, kc_len, &mut a_panel)
                });
                for jc in (0..n).step_by(NC) {
                    let nc_len = NC.min(n - jc);
                    timed(HostPhase::PackB, &mut || {
                        pack_b(pc, kc_len, jc, nc_len, &mut b_panel)
                    });
                    timed(HostPhase::Microkernel, &mut || {
                        tiles(kernel, &mut acc, n, jc, nc_len, kc_len, &a_panel, &b_panel)
                    });
                }
            }
            timed(HostPhase::Epilogue, &mut || epilogue((row0, 0, n), &acc));
        }
        if on {
            // Pool workers outlive the region: hand this task's events
            // to the collector now, before the caller can finish the
            // session.
            prof::flush();
        }
    });
    record(region, HostPhase::Fanout, t_fan);
}

/// The α/β epilogue over one accumulator block: `d ← epi(α·acc, β·c)`
/// element by element, with both products rounded in the compute type.
/// `acc` is dense (`width` per row); `c` and `d` start at the block's
/// first element and step by `ldc`, and `c` is `None` when `d` holds
/// `C`.
fn epilogue<CT: Real, CD: Real>(
    params: &GemmParams,
    acc: &[CT],
    width: usize,
    c: Option<&[CD]>,
    d: &mut [CD],
) {
    let ldc = params.ldc();
    let epi = |x: CT, y: CD| {
        let ab = CT::from_f64(params.alpha * x.to_f64());
        let bc = CT::from_f64(params.beta * y.to_f64());
        let sum = ab.to_f64() + bc.to_f64();
        match params.epilogue {
            Epilogue::Direct => CD::from_f64(sum),
            Epilogue::ComputeRounded => CD::from_f64(CT::from_f64(sum).to_f64()),
        }
    };
    for (r, acc_row) in acc.chunks_exact(width).enumerate() {
        let d_row = &mut d[r * ldc..r * ldc + width];
        match c {
            Some(c) => {
                for ((out, &x), &y) in d_row.iter_mut().zip(acc_row).zip(&c[r * ldc..]) {
                    *out = epi(x, y);
                }
            }
            None => {
                for (out, &x) in d_row.iter_mut().zip(acc_row) {
                    *out = epi(x, *out);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Blocked, MatMul, Naive, Simd, SimdMode};

    /// Inexact pseudo-random fill in [-1, 1): products and sums round,
    /// so any change to a chain shows in the output bits.
    fn fill<T: Real>(len: usize, seed: u64) -> Vec<T> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                T::from_f64((state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0)
            })
            .collect()
    }

    #[test]
    fn chunks_cover_every_row_exactly_once() {
        for mr in [4, 8] {
            for workers in 1..=4 {
                for m in 1..=3 * mr * workers + 1 {
                    let rows = chunk_rows(m, workers, mr);
                    assert_eq!(rows % mr, 0);
                    let chunks = m.div_ceil(rows);
                    assert!(chunks <= workers, "m={m} workers={workers}");
                    let mut written = vec![0u32; m];
                    for chunk in 0..chunks {
                        for w in &mut written[chunk * rows..((chunk + 1) * rows).min(m)] {
                            *w += 1;
                        }
                    }
                    assert!(written.iter().all(|&w| w == 1), "m={m} workers={workers}");
                }
            }
        }
    }

    /// Runs one problem on `backend` into a NaN-filled `D` and checks
    /// every element against `Naive` bit for bit: a row no task wrote
    /// stays NaN, and one written from the wrong accumulator differs.
    fn assert_single_region_parity<T: Real>(
        backend: &impl MatMul,
        params: &GemmParams,
        what: &str,
    ) {
        let (m, n, k) = (params.m, params.n, params.k);
        let a: Vec<T> = fill(m * k, 0xA5);
        let b: Vec<T> = fill(k * n, 0xB6);
        let c: Vec<T> = fill(m * n, 0xC7);
        let mut want = vec![T::zero(); m * n];
        Naive
            .gemm::<T, T, T>(params, &a, &b, &c, &mut want)
            .unwrap();
        let mut got = vec![T::from_f64(f64::NAN); m * n];
        backend
            .gemm::<T, T, T>(params, &a, &b, &c, &mut got)
            .unwrap();
        for (i, (x, y)) in want.iter().zip(&got).enumerate() {
            assert!(
                x.to_f64().to_bits() == y.to_f64().to_bits(),
                "{what} row {} col {}: {x:?} vs {y:?} ({params:?})",
                i / n,
                i % n
            );
        }
    }

    /// `D` of a strided problem on `backend`, into a NaN-filled `D`
    /// (`C` read from its own buffer) or in place over `C`'s values.
    fn strided_run<T: Real>(
        backend: &impl MatMul,
        params: &GemmParams,
        in_place: bool,
    ) -> Vec<u64> {
        let stored = |rows: usize, width: usize, ld: usize| (rows.max(1) - 1) * ld + width;
        let (m, n, k) = (params.m, params.n, params.k);
        let (a_rows, a_width) = match params.trans_a {
            Trans::None => (m, k),
            Trans::Trans => (k, m),
        };
        let (b_rows, b_width) = match params.trans_b {
            Trans::None => (k, n),
            Trans::Trans => (n, k),
        };
        let a: Vec<T> = fill(stored(a_rows, a_width, params.lda()), 0xA5);
        let b: Vec<T> = fill(stored(b_rows, b_width, params.ldb()), 0xB6);
        let c: Vec<T> = fill(stored(m, n, params.ldc()), 0xC7);
        let d = if in_place {
            let mut cd = c;
            backend
                .gemm_in_place::<T, T, T>(params, &a, &b, &mut cd)
                .unwrap();
            cd
        } else {
            let mut d = vec![T::from_f64(f64::NAN); c.len()];
            backend.gemm::<T, T, T>(params, &a, &b, &c, &mut d).unwrap();
            d
        };
        d.iter().map(|x| x.to_f64().to_bits()).collect()
    }

    /// Packed GEMMs issued from inside a region that holds every pool
    /// worker: each finds one free thread, so it runs as one chunk on
    /// the thread that called it. They equal `Naive` bit for bit at
    /// depths of zero, one, exactly one k block and just past it, over
    /// more than one `MC`-row and `NC`-column block, on dense and on
    /// strided transposed views, into a separate `D` and in place.
    /// Concurrent tests may hold workers or resize the pool; the
    /// results are invariant to both.
    #[test]
    fn nested_calls_in_a_saturated_region_match_naive() {
        (0..rayon::current_num_threads())
            .into_par_iter()
            .for_each(|item| {
                let (m, n) = (MC + 9 + item, NC + 9);
                for k in [0, 1, KC, KC + 1] {
                    for strided in [false, true] {
                        let mut params = GemmParams::new(m, n, k)
                            .with_scaling(0.7, -1.3)
                            .with_epilogue(Epilogue::ComputeRounded);
                        if strided {
                            params = params
                                .with_transposes(Trans::Trans, Trans::Trans)
                                .with_leading_dims(m + 3, k + 5, n + 7);
                        }
                        for in_place in [false, true] {
                            let what = format!("k={k} strided={strided} in_place={in_place}");
                            let want64 = strided_run::<f64>(&Naive, &params, in_place);
                            let want32 = strided_run::<f32>(&Naive, &params, in_place);
                            let got = strided_run::<f64>(&Blocked, &params, in_place);
                            assert!(got == want64, "blocked f64 {what}");
                            for mode in SimdMode::available() {
                                let simd = Simd::with_mode(mode);
                                let got = strided_run::<f64>(&simd, &params, in_place);
                                assert!(got == want64, "{} f64 {what}", mode.name());
                                let got = strided_run::<f32>(&simd, &params, in_place);
                                assert!(got == want32, "{} f32 {what}", mode.name());
                            }
                        }
                    }
                }
            });
    }

    /// The single region at pool sizes 1–3: ragged row counts around
    /// the tile height and the per-worker chunk (so some workers get no
    /// rows), widths off the `NR` grid, and depths of zero, one, one k
    /// block and just past it, so shapes fall on both sides of
    /// `SERIAL_WORK` on both accumulation paths. Other tests may resize
    /// the global pool concurrently; results are thread-count
    /// invariant, so the assertions hold whatever the pool size in
    /// force.
    #[test]
    fn single_region_matches_naive_at_every_pool_size() {
        for workers in [1, 2, 3] {
            rayon::ThreadPoolBuilder::new()
                .num_threads(workers)
                .build_global()
                .unwrap();
            let mut ms: Vec<usize> = [4, 8]
                .iter()
                .flat_map(|&mr| [1, mr - 1, mr * workers - 1, mr * workers + 1])
                .collect();
            ms.sort_unstable();
            ms.dedup();
            for &m in &ms {
                for n in [5, 37] {
                    for k in [0, 1, 64, KC + 1] {
                        let params = GemmParams::new(m, n, k)
                            .with_scaling(0.7, -1.3)
                            .with_epilogue(Epilogue::ComputeRounded);
                        assert_single_region_parity::<f32>(&Blocked, &params, "blocked f32");
                        for mode in SimdMode::available() {
                            let simd = Simd::with_mode(mode);
                            assert_single_region_parity::<f32>(&simd, &params, mode.name());
                            assert_single_region_parity::<f64>(&simd, &params, mode.name());
                        }
                    }
                }
            }
        }
        rayon::ThreadPoolBuilder::new()
            .num_threads(0)
            .build_global()
            .unwrap();
    }
}
