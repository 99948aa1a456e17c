//! A caller that factors, holds both factors and drops them together
//! maps no fresh pages once warm: the factors' storage comes from the
//! `mc-compute` buffer pool and goes back to it on drop, so every cycle
//! after the first reuses the same buffers, whatever the allocator would
//! have done with a freed 4.7 MB block.
//!
//! This is the `solver` benchmark workload's loop: `potrf` then `getrf`
//! of one 768 × 768 SPD matrix. Without the recycling, each cycle takes
//! about 2 270 minor faults, twice the 1 152 pages of one factor.
//!
//! Run it with `cargo test -p mc-solver --test steady_state`.

use mc_compute::pool_stats;
use mc_solver::potrf::DEFAULT_BLOCK;
use mc_solver::{getrf, potrf, Matrix};

/// The benchmark's order.
const N: usize = 768;

/// Consecutive cycles without a pool miss that make the window.
const CYCLES: u64 = 4;

/// Cycles the window must be found in.
///
/// The first cycles fill the pool. Each rayon worker acquires its own
/// packing buffers, and a worker that steals a second GEMM while it
/// waits inside a first one holds two sets at once. On an
/// oversubscribed pool (three workers on two cores) such a new
/// high-water mark was seen as late as the seventh cycle: a one-off
/// miss, not a fresh factor every cycle.
const MAX_CYCLES: usize = 16;

/// Minor faults a warm cycle may take: far below one factor's 1 152
/// pages, with room for the allocator's small-block traffic.
const MAX_FAULTS_PER_CYCLE: u64 = 64;

/// The process's minor page faults, field 10 of `/proc/self/stat`.
#[cfg(target_os = "linux")]
fn minor_faults() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Field 2, the command name, is parenthesised and may hold spaces;
    // field 3 starts two bytes after its closing parenthesis.
    let rest = stat.get(stat.rfind(')')? + 2..)?;
    rest.split_whitespace().nth(10 - 3)?.parse().ok()
}

#[cfg(not(target_os = "linux"))]
fn minor_faults() -> Option<u64> {
    None
}

/// Symmetric entries in `[-1, 1)` plus `n·I`.
fn spd(n: usize) -> Matrix<f64> {
    let mut a = Matrix::zeros(n, n);
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..n {
        for j in 0..=i {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let v = (state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0;
            a.set(i, j, v);
            a.set(j, i, v);
        }
        a.set(i, i, a.get(i, i) + n as f64);
    }
    a
}

/// One op of the `solver` workload: both factors are held, then
/// dropped together.
fn cycle(a: &Matrix<f64>) {
    let l = potrf(a, DEFAULT_BLOCK).expect("SPD input factors");
    let lu = getrf(a, DEFAULT_BLOCK).expect("SPD input is nonsingular");
    drop((l, lu));
}

/// Runs on the main thread (`harness = false`), as the benchmark's ops
/// do: glibc serves it from the main arena, whose top is trimmed back
/// to the OS when both freed factors coalesce into it. A libtest thread
/// allocates from a per-thread arena, where the same loop happens not
/// to trim, so a harnessed test would pass without the recycling.
fn main() {
    let a = spd(N);
    let (mut quiet, mut faults0) = (0, minor_faults());
    for done in 1..=MAX_CYCLES {
        let misses = pool_stats().misses;
        cycle(&a);
        if pool_stats().misses > misses {
            (quiet, faults0) = (0, minor_faults());
            continue;
        }
        quiet += 1;
        if quiet < CYCLES {
            continue;
        }
        if let (Some(f0), Some(f1)) = (faults0, minor_faults()) {
            let per_cycle = (f1 - f0) / CYCLES;
            println!(
                "steady state: 0 pool misses, {per_cycle} minor faults per cycle \
                 over cycles {}..={done}",
                done as u64 - CYCLES + 1
            );
            assert!(
                per_cycle < MAX_FAULTS_PER_CYCLE,
                "{per_cycle} minor faults per warm cycle (bound {MAX_FAULTS_PER_CYCLE})"
            );
        }
        return;
    }
    panic!("no {CYCLES} consecutive cycles without a pool miss in {MAX_CYCLES}");
}
