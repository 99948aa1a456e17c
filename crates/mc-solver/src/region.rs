//! The one parallel-region shape both blocked factorizations use for
//! their trailing updates.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use mc_compute::prof;
use rayon::prelude::*;

use crate::SolverError;

/// Runs jobs `0..jobs` in one rayon region. Each of the pool's threads
/// pulls the lowest index left from a shared counter and runs `job` on
/// it, until none is left: job 0 starts first, and a thread that
/// finishes a long job joins the rest of the queue. A profiled caller's
/// GEMMs stay in its profile whichever thread runs them. The first
/// error any job meets is returned after the region; the other jobs
/// still run.
///
/// Inside the region the pool has no worker left to lease, so a GEMM a
/// job runs packs its operands once, on the thread that pulled it,
/// instead of opening a region of its own. A job's work is the same
/// whichever thread runs it, so the results are bit for bit the same
/// at every pool size.
pub(crate) fn queue_region<F>(jobs: usize, job: F) -> Result<(), SolverError>
where
    F: Fn(usize) -> Result<(), SolverError> + Sync,
{
    let taken = AtomicUsize::new(0);
    let first_error = Mutex::new(None);
    let attachment = prof::attachment();
    (0..rayon::current_num_threads().min(jobs))
        .into_par_iter()
        .for_each(|_| {
            attachment.run(|| loop {
                // The counter only hands out indices (each job's data
                // sits behind its own lock), so it publishes no data.
                let i = taken.fetch_add(1, Ordering::Relaxed);
                if i >= jobs {
                    break;
                }
                if let Err(e) = job(i) {
                    lock(&first_error).get_or_insert(e);
                }
            })
        });
    let first = first_error
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    first.map_or(Ok(()), Err)
}

/// Locks `m`, ignoring poison: a job that panics takes the whole
/// factorization down with it, so no caller sees a half-written value.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}
