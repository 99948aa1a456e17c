//! Pool-size invariance of the simulated plane: every experiment that
//! reads no host clock and no other run's files produces the same
//! payload and rendered text at rayon pool sizes 1, 2 and 3. Their
//! sweeps claim points in whatever order the pool's threads get to
//! them, so a sweep that assembled its results in completion order, or
//! shared device state between points, fails here by experiment id.
//!
//! The pool is process-global, so this file holds a single test.

use mc_bench::experiment::{registry, RunContext};
use serde::Value;

/// Experiments left out: `perf` and `hostprof` time the host and resize
/// the pool, `regress` and `report` read the files of other runs.
const HOST_DEPENDENT: [&str; 4] = ["perf", "hostprof", "regress", "report"];

fn set_pool(threads: usize) {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build_global()
        .expect("the vendored pool is resizable");
}

/// `(id, payload, rendered)` of every pool-independent experiment, in
/// registry order, at `threads` pool threads.
fn suite(threads: usize) -> Vec<(&'static str, Value, String)> {
    set_pool(threads);
    let ctx = RunContext::reduced();
    registry()
        .into_iter()
        .filter(|e| !HOST_DEPENDENT.contains(&e.id()))
        .map(|e| {
            let record = e.run(&ctx);
            (e.id(), record.payload, record.rendered)
        })
        .collect()
}

#[test]
fn payloads_match_at_pool_sizes_one_to_three() {
    let serial = suite(1);
    assert_eq!(serial.len(), 20, "the pool-independent set changed size");
    // Each parallel size twice: which thread claims which point varies
    // from run to run.
    for threads in [2, 3, 2, 3] {
        let parallel = suite(threads);
        let differ: Vec<String> = serial
            .iter()
            .zip(&parallel)
            .filter(|(a, b)| a != b)
            .map(|(a, _)| a.0.to_owned())
            .collect();
        assert!(
            differ.is_empty(),
            "differ from the pool-size-1 run at {threads} threads: {}",
            differ.join(", ")
        );
    }
    set_pool(0);
}
