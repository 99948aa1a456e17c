//! The closed loop: one caller issues the next op only after the last
//! one returned and was checked. Only the op itself is timed; output
//! resets and checks run between timings.

use std::time::Instant;

use crate::trace::Tracer;
use crate::workloads::Workload;

/// Ops attempted and ops whose call errored or whose check failed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that returned an error or failed their check.
    pub failed: u64,
}

impl Tally {
    /// `failed / attempted` (0 before any op).
    pub fn failed_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Runs one op inside an `op` span, checks it, and returns its wall time
/// in milliseconds. `tamper` sees the outputs before the check (the
/// self-test's defect injection; a no-op otherwise).
pub fn timed_op<W: Workload + ?Sized>(
    w: &mut W,
    t: &mut Tracer,
    tally: &mut Tally,
    tamper: impl FnOnce(&mut W),
) -> f64 {
    w.reset_outputs();
    let t0 = Instant::now();
    let span = t.begin("op");
    let result = w.op(t);
    t.end(span);
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    tamper(w);
    tally.attempted += 1;
    if result.is_err() || !w.check() {
        tally.failed += 1;
        if let Err(e) = result {
            eprintln!("op failed: {e}");
        }
    }
    ms
}

/// One set-up: rebuild the library state and run the first op on it.
/// Returns the wall time of both, in seconds.
pub fn cold_start<W: Workload + ?Sized>(w: &mut W, t: &mut Tracer, tally: &mut Tally) -> f64 {
    w.reset_outputs();
    let t0 = Instant::now();
    let span = t.begin("setup");
    w.build();
    let result = w.op(t);
    t.end(span);
    let s = t0.elapsed().as_secs_f64();
    tally.attempted += 1;
    if result.is_err() || !w.check() {
        tally.failed += 1;
    }
    s
}

/// Wall times from one closed loop.
#[derive(Debug, Default)]
pub struct Samples {
    /// Untraced op times (ms).
    pub untraced: Vec<f64>,
    /// Traced op times (ms).
    pub traced: Vec<f64>,
    /// Set-up times (s).
    pub setup: Vec<f64>,
}

/// How a closed loop mixes its ops.
#[derive(Clone, Copy, Debug)]
pub enum Mode {
    /// Untraced ops, with a set-up first and then every `setup_every_s`
    /// seconds, so set-ups sample the same stretch of time as the ops.
    EndToEnd {
        /// Seconds between set-ups.
        setup_every_s: f64,
    },
    /// Untraced and traced ops alternate (the workload must be built).
    Alternating,
}

/// Runs the closed loop for at least `seconds`.
pub fn closed_loop<W: Workload + ?Sized>(
    w: &mut W,
    t: &mut Tracer,
    tally: &mut Tally,
    seconds: f64,
    mode: Mode,
) -> Samples {
    let mut samples = Samples::default();
    let start = Instant::now();
    let mut last_setup: Option<Instant> = None;
    let mut op = 0u64;
    while start.elapsed().as_secs_f64() < seconds {
        op += 1;
        t.set_op(op);
        match mode {
            Mode::EndToEnd { setup_every_s } => {
                if last_setup.is_none_or(|at| at.elapsed().as_secs_f64() >= setup_every_s) {
                    last_setup = Some(Instant::now());
                    samples.setup.push(cold_start(w, t, tally));
                } else {
                    samples.untraced.push(timed_op(w, t, tally, |_| {}));
                }
            }
            Mode::Alternating => {
                let traced = op.is_multiple_of(2);
                t.set_enabled(traced);
                let ms = timed_op(w, t, tally, |_| {});
                if traced {
                    samples.traced.push(ms);
                } else {
                    samples.untraced.push(ms);
                }
            }
        }
    }
    t.set_op(0);
    samples
}
