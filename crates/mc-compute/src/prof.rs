//! Host-plane profiling hooks: low-overhead phase/region events for
//! the GEMM tiers.
//!
//! The simulated-GPU plane is traced through `mc-trace` sinks, but the
//! host hot path — tier dispatch, panel packing, the microkernel sweep,
//! the epilogue, and the rayon fan-out — was a black box. This module
//! is the host-side producer: the [`Auto`] dispatcher opens a *region*
//! per GEMM call, and the blocked/SIMD tiers mark named *phases* inside
//! it, each tagged with the *lane* (caller thread or rayon worker) that
//! executed it. `mc-hostprof` converts the collected [`HostEvent`]s
//! into `mc-trace` span/counter events and attribution records.
//!
//! ## Overhead contract
//!
//! Profiling is off by default and the untraced hot path must stay
//! untraced: every instrumentation site checks [`enabled`] — a single
//! relaxed atomic load — before doing *anything* (no clock reads, no
//! allocation, no formatting). Sites fire per phase boundary (a few
//! thousand per large GEMM), never per FLOP. When enabled, events are
//! fixed-size [`Copy`] values batched into bounded thread-local buffers
//! and drained into a global collector when full, when a parallel task
//! ends ([`flush`]: the pooled rayon workers outlive every region),
//! when a thread exits, and at [`Session::finish`] — the `hostprof`
//! gate experiment bounds the enabled-path overhead at 3% on a 1024³
//! GEMM.
//!
//! ## Sessions
//!
//! Collection is process-global (the rayon workers executing a GEMM
//! have no other channel to a caller-scoped sink), so profiling runs as
//! an exclusive [`Session`]: [`session`] takes a global lock, bumps the
//! session generation (stale buffers from a previous session flush to
//! the void, not into the new profile), and enables the hooks;
//! [`Session::finish`] disables them and returns the [`HostProfile`].
//! Regions only open on threads *attached* to the live session (the
//! session's creator, plus any thread that calls [`attach`], or runs a
//! task under an attached caller's [`Attachment`]), and phases only
//! record inside an open region — so GEMMs issued by unrelated threads
//! (parallel tests) never leak into a profile.
//!
//! [`Auto`]: crate::Auto

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use crate::pool::{self, PoolStats};

/// Capacity of each thread-local event buffer (events); the buffer
/// drains to the global collector when full.
const EVENT_BUF_CAP: usize = 4096;

/// Capacity of the global event collector; events past it are counted
/// as dropped, never silently lost.
const COLLECTOR_CAP: usize = 1 << 20;

/// A named phase of host GEMM execution (the host-plane taxonomy).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum HostPhase {
    /// Packing an A row panel into the compute-scalar layout.
    PackA,
    /// Packing a B column panel / strip.
    PackB,
    /// The register/microkernel accumulation sweep over packed panels.
    Microkernel,
    /// The α/β epilogue (`d ← epi(α·acc, β·c)`).
    Epilogue,
    /// A rayon fan-out: the caller-side window of one parallel region.
    Fanout,
}

impl HostPhase {
    /// Stable lowercase name (trace span names, attribution keys).
    pub fn as_str(self) -> &'static str {
        match self {
            HostPhase::PackA => "pack-a",
            HostPhase::PackB => "pack-b",
            HostPhase::Microkernel => "microkernel",
            HostPhase::Epilogue => "epilogue",
            HostPhase::Fanout => "fanout",
        }
    }

    /// Every phase, for table-driven consumers.
    pub const ALL: [HostPhase; 5] = [
        HostPhase::PackA,
        HostPhase::PackB,
        HostPhase::Microkernel,
        HostPhase::Epilogue,
        HostPhase::Fanout,
    ];
}

/// The thread lane a phase executed on: the caller thread that issued
/// the GEMM (and times the fan-out around its region), or one rayon
/// worker executing chunk work (packing, tiles, epilogue). The caller
/// claims a worker lane too when it executes a chunk inline, so every
/// chunk's work is worker-lane time.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Lane {
    /// A caller thread, numbered per session.
    Call(u32),
    /// A rayon worker (or the caller's inline chunk share), numbered
    /// per session.
    Worker(u32),
}

/// One host profiling event. Fixed-size and [`Copy`] so recording is a
/// buffer push, never an allocation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum HostEvent {
    /// The tier-dispatch decision at the top of a region: which packed
    /// tier runs the call and the inputs that decided it.
    Dispatch {
        /// Region this decision opened.
        region: u32,
        /// Routed backend (`"blocked"`, `"simd"`).
        backend: &'static str,
        /// Problem rows.
        m: u32,
        /// Problem columns.
        n: u32,
        /// Problem depth.
        k: u32,
        /// Whether the SIMD tier was the dispatcher's first choice.
        simd: bool,
        /// Configured rayon pool size at dispatch.
        threads: u32,
        /// Decision timestamp, seconds since the profiling epoch.
        t_s: f64,
    },
    /// One GEMM call region (the span the dispatch covers).
    Region {
        /// Region id (unique per process).
        region: u32,
        /// Routed backend.
        backend: &'static str,
        /// Problem rows.
        m: u32,
        /// Problem columns.
        n: u32,
        /// Problem depth.
        k: u32,
        /// Caller lane that issued the call.
        lane: u32,
        /// Start, seconds since the profiling epoch.
        t0_s: f64,
        /// Wall duration in seconds.
        dur_s: f64,
        /// Packing-pool traffic over the region: the global counters'
        /// delta ([`PoolStats::since`]), so it also counts other
        /// threads' acquisitions inside the region's span.
        pool: PoolStats,
    },
    /// One named phase inside a region.
    Phase {
        /// Enclosing region id (0 = outside any region; dropped by the
        /// attributor).
        region: u32,
        /// Which phase.
        phase: HostPhase,
        /// Executing lane.
        lane: Lane,
        /// Start, seconds since the profiling epoch.
        t0_s: f64,
        /// Duration in seconds.
        dur_s: f64,
    },
}

/// A finished profiling session's events.
#[derive(Clone, Debug, Default)]
pub struct HostProfile {
    /// Collected events in drain order (per-thread batches; sort by
    /// time for timeline use).
    pub events: Vec<HostEvent>,
    /// Events lost to collector overflow.
    pub dropped: u64,
    /// Session start, seconds since the profiling epoch (rebase spans
    /// against this for a zero-based timeline).
    pub t0_s: f64,
    /// Configured rayon pool size when the session opened.
    pub threads: usize,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static GENERATION: AtomicU64 = AtomicU64::new(0);
static REGION_IDS: AtomicU32 = AtomicU32::new(1);
static CALL_LANES: AtomicU32 = AtomicU32::new(0);
static WORKER_LANES: AtomicU32 = AtomicU32::new(0);
static DROPPED: AtomicU64 = AtomicU64::new(0);
static SESSION_LOCK: Mutex<()> = Mutex::new(());
static COLLECTOR: Mutex<Vec<HostEvent>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Whether a profiling session is live. Instrumentation sites check
/// this (one relaxed load) before touching the clock or the buffers.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Whether the calling thread should open regions: a session is live
/// *and* this thread is attached to it. The dispatcher checks this at
/// region boundaries; it is the only additional cost an untraced run
/// pays (one relaxed load, then nothing).
#[inline]
pub fn active() -> bool {
    enabled() && ATTACHED.with(Cell::get) == GENERATION.load(Ordering::Relaxed)
}

/// Attaches the calling thread to the live session so its GEMM calls
/// open regions. The session's creator is attached automatically.
pub fn attach() {
    ATTACHED.with(|c| c.set(GENERATION.load(Ordering::Acquire)));
}

/// The calling thread's attachment to the live session, to hand to
/// the parallel tasks it starts: a GEMM a task issues on a pool worker
/// then opens its region as if the caller had issued it.
#[derive(Clone, Copy, Debug)]
pub struct Attachment(u64);

/// The calling thread's attachment (see [`Attachment::run`]).
pub fn attachment() -> Attachment {
    Attachment(ATTACHED.with(Cell::get))
}

impl Attachment {
    /// Runs `f` on the calling thread under this attachment, then
    /// restores the thread's own and, while a session is live, drains
    /// its events: pool workers outlive the task.
    pub fn run<R>(self, f: impl FnOnce() -> R) -> R {
        let own = ATTACHED.with(|c| c.replace(self.0));
        let out = f();
        ATTACHED.with(|c| c.set(own));
        if enabled() {
            flush();
        }
        out
    }
}

/// Seconds since the process profiling epoch (monotonic, shared by all
/// threads).
#[inline]
pub fn now_s() -> f64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_secs_f64()
}

struct LocalBuf {
    generation: u64,
    events: Vec<HostEvent>,
}

impl LocalBuf {
    fn flush(&mut self) {
        if self.events.is_empty() {
            return;
        }
        // A stale batch (session already over) flushes to the void —
        // it must not leak into the next session's profile.
        if self.generation != GENERATION.load(Ordering::Acquire) {
            self.events.clear();
            return;
        }
        let mut collector = COLLECTOR.lock().unwrap_or_else(|e| e.into_inner());
        let room = COLLECTOR_CAP.saturating_sub(collector.len());
        let take = room.min(self.events.len());
        collector.extend(self.events.drain(..take));
        let lost = self.events.len() as u64;
        if lost > 0 {
            DROPPED.fetch_add(lost, Ordering::Relaxed);
            self.events.clear();
        }
    }
}

impl Drop for LocalBuf {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static BUF: RefCell<LocalBuf> = const {
        RefCell::new(LocalBuf {
            generation: 0,
            events: Vec::new(),
        })
    };
    static CURRENT_REGION: Cell<u32> = const { Cell::new(0) };
    // Generation of the session this thread is attached to.
    static ATTACHED: Cell<u64> = const { Cell::new(0) };
    // (generation, lane) pairs; a lane claimed in an older session is
    // re-claimed fresh so lane numbering restarts per session.
    static CALL_LANE: Cell<(u64, u32)> = const { Cell::new((0, 0)) };
    static WORKER_LANE: Cell<(u64, u32)> = const { Cell::new((0, 0)) };
}

/// Drains the calling thread's event buffer into the collector. A
/// parallel task calls this before it ends, so its events are
/// collected before the caller can finish the session.
pub fn flush() {
    BUF.with(|b| b.borrow_mut().flush());
}

/// Records one event into the calling thread's buffer.
pub fn record(event: HostEvent) {
    let generation = GENERATION.load(Ordering::Acquire);
    BUF.with(|b| {
        let mut buf = b.borrow_mut();
        if buf.generation != generation {
            buf.events.clear();
            buf.generation = generation;
            buf.events.reserve(EVENT_BUF_CAP);
        }
        buf.events.push(event);
        if buf.events.len() >= EVENT_BUF_CAP {
            buf.flush();
        }
    });
}

fn session_lane(slot: &'static std::thread::LocalKey<Cell<(u64, u32)>>, ids: &AtomicU32) -> u32 {
    let generation = GENERATION.load(Ordering::Acquire);
    slot.with(|cell| {
        let (gen, lane) = cell.get();
        if gen == generation {
            lane
        } else {
            let lane = ids.fetch_add(1, Ordering::Relaxed);
            cell.set((generation, lane));
            lane
        }
    })
}

/// The calling thread's caller-lane id for this session (claimed on
/// first use).
pub fn call_lane() -> u32 {
    session_lane(&CALL_LANE, &CALL_LANES)
}

/// The calling thread's worker-lane id for this session (claimed on
/// first use; the caller thread claims one too when it runs chunk work
/// inline).
pub fn worker_lane() -> u32 {
    session_lane(&WORKER_LANE, &WORKER_LANES)
}

/// The region id the calling thread is currently inside (0 = none).
/// Tier code reads this *before* a fan-out and captures the value into
/// the parallel closure, since workers have their own thread-locals.
#[inline]
pub fn current_region() -> u32 {
    CURRENT_REGION.with(Cell::get)
}

/// Records a phase that started at `t0_s` and ends now.
#[inline]
pub fn phase(region: u32, phase: HostPhase, lane: Lane, t0_s: f64) {
    let t1 = now_s();
    record(HostEvent::Phase {
        region,
        phase,
        lane,
        t0_s,
        dur_s: (t1 - t0_s).max(0.0),
    });
}

/// Open-region state returned by [`region_start`]; pass to
/// [`region_end`] when the dispatched call returns.
#[derive(Debug)]
pub struct RegionToken {
    region: u32,
    prev_region: u32,
    backend: &'static str,
    m: u32,
    n: u32,
    k: u32,
    lane: u32,
    t0_s: f64,
    pool0: PoolStats,
}

/// Opens a region around one dispatched GEMM call and records the
/// dispatch decision. Call only when [`enabled`].
pub fn region_start(
    backend: &'static str,
    m: usize,
    n: usize,
    k: usize,
    simd: bool,
) -> RegionToken {
    let region = REGION_IDS.fetch_add(1, Ordering::Relaxed);
    let prev_region = CURRENT_REGION.with(|c| c.replace(region));
    let lane = call_lane();
    let t0_s = now_s();
    record(HostEvent::Dispatch {
        region,
        backend,
        m: m as u32,
        n: n as u32,
        k: k as u32,
        simd,
        threads: rayon::current_num_threads() as u32,
        t_s: t0_s,
    });
    RegionToken {
        region,
        prev_region,
        backend,
        m: m as u32,
        n: n as u32,
        k: k as u32,
        lane,
        t0_s,
        pool0: pool::pool_stats(),
    }
}

/// Closes a region: records the region span with its pool deltas and
/// restores the thread's previous region.
pub fn region_end(token: RegionToken) {
    let t1 = now_s();
    CURRENT_REGION.with(|c| c.set(token.prev_region));
    record(HostEvent::Region {
        region: token.region,
        backend: token.backend,
        m: token.m,
        n: token.n,
        k: token.k,
        lane: token.lane,
        t0_s: token.t0_s,
        dur_s: (t1 - token.t0_s).max(0.0),
        pool: pool::pool_stats().since(&token.pool0),
    });
}

/// An exclusive profiling session. Created by [`session`]; collection
/// stops when [`Session::finish`] returns the profile (or at drop if
/// the session escapes without finishing).
#[derive(Debug)]
pub struct Session {
    lock: Option<MutexGuard<'static, ()>>,
    t0_s: f64,
    threads: usize,
}

/// Starts an exclusive profiling session: takes the global session
/// lock (serializing concurrent profiled tests), clears the collector,
/// restarts lane numbering, and enables the instrumentation hooks.
pub fn session() -> Session {
    let lock = SESSION_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    GENERATION.fetch_add(1, Ordering::Release);
    COLLECTOR.lock().unwrap_or_else(|e| e.into_inner()).clear();
    DROPPED.store(0, Ordering::Relaxed);
    CALL_LANES.store(0, Ordering::Relaxed);
    WORKER_LANES.store(0, Ordering::Relaxed);
    let t0_s = now_s();
    let threads = rayon::current_num_threads();
    attach();
    ENABLED.store(true, Ordering::SeqCst);
    Session {
        lock: Some(lock),
        t0_s,
        threads,
    }
}

impl Session {
    /// Stops collection and returns everything recorded since the
    /// session opened.
    pub fn finish(mut self) -> HostProfile {
        ENABLED.store(false, Ordering::SeqCst);
        // The caller's own buffer holds the tail batch; rayon workers
        // flushed theirs at the end of each parallel task.
        flush();
        let events = std::mem::take(&mut *COLLECTOR.lock().unwrap_or_else(|e| e.into_inner()));
        let profile = HostProfile {
            events,
            dropped: DROPPED.load(Ordering::Relaxed),
            t0_s: self.t0_s,
            threads: self.threads,
        };
        self.lock.take();
        profile
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        if self.lock.is_some() {
            ENABLED.store(false, Ordering::SeqCst);
            COLLECTOR.lock().unwrap_or_else(|e| e.into_inner()).clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Auto, Epilogue, GemmParams, MatMul};

    fn run_gemm(n: usize) {
        let params = GemmParams::new(n, n, n).with_epilogue(Epilogue::ComputeRounded);
        let a = vec![1.0f32; n * n];
        let b = vec![0.5f32; n * n];
        let c = vec![0.0f32; n * n];
        let mut d = vec![0.0f32; n * n];
        Auto::from_env()
            .gemm::<f32, f32, f32>(&params, &a, &b, &c, &mut d)
            .unwrap();
    }

    #[test]
    fn disabled_by_default_records_nothing() {
        // Cannot assert the global flag (parallel tests may hold a
        // session), but a session-free run through the instrumented
        // tiers must work and a fresh session must start empty.
        run_gemm(16);
        let s = session();
        let profile = s.finish();
        assert_eq!(profile.dropped, 0);
        assert!(profile.events.is_empty(), "{:?}", profile.events);
    }

    #[test]
    fn session_captures_regions_phases_and_dispatch() {
        let s = session();
        run_gemm(96); // above the serial rule: may fan out
        run_gemm(16); // at or below it: one chunk on the caller
        let profile = s.finish();
        assert_eq!(profile.dropped, 0);
        let regions: Vec<_> = profile
            .events
            .iter()
            .filter(|e| matches!(e, HostEvent::Region { .. }))
            .collect();
        assert_eq!(regions.len(), 2, "{regions:?}");
        let dispatches = profile
            .events
            .iter()
            .filter(|e| matches!(e, HostEvent::Dispatch { .. }))
            .count();
        assert_eq!(dispatches, 2);
        // Both regions carry phases; all phases reference a live region
        // and have sane times.
        let region_ids: Vec<u32> = profile
            .events
            .iter()
            .filter_map(|e| match e {
                HostEvent::Region { region, .. } => Some(*region),
                _ => None,
            })
            .collect();
        for region_id in &region_ids {
            assert!(
                profile
                    .events
                    .iter()
                    .any(|e| matches!(e, HostEvent::Phase { region, .. } if region == region_id)),
                "region {region_id} has no phase"
            );
        }
        for e in &profile.events {
            if let HostEvent::Phase {
                region,
                t0_s,
                dur_s,
                ..
            } = e
            {
                assert!(region_ids.contains(region), "{e:?}");
                assert!(t0_s.is_finite() && *dur_s >= 0.0, "{e:?}");
            }
        }
        // The epilogue runs inside the packed region, on the lane that
        // swept the rows; only the fan-out is on the caller's lane.
        for e in &profile.events {
            if let HostEvent::Phase { phase, lane, .. } = e {
                match phase {
                    HostPhase::Epilogue => assert!(matches!(lane, Lane::Worker(_)), "{e:?}"),
                    HostPhase::Fanout => assert!(matches!(lane, Lane::Call(_)), "{e:?}"),
                    _ => {}
                }
            }
        }
        assert!(profile.events.iter().any(|e| matches!(
            e,
            HostEvent::Phase {
                phase: HostPhase::Epilogue,
                ..
            }
        )));
    }

    #[test]
    fn one_k_block_gemm_records_every_worker_phase_and_the_fanout() {
        // k = 64 is a single k block, the case every solver GEMM takes:
        // its blocks are accumulated and finished one by one, and each
        // step still shows as its phase on a worker lane.
        let (m, n, k) = (200, 300, 64);
        let params = GemmParams::new(m, n, k).with_epilogue(Epilogue::ComputeRounded);
        let (a, b) = (vec![1.0f32; m * k], vec![0.5f32; k * n]);
        let (c, mut d) = (vec![0.0f32; m * n], vec![0.0f32; m * n]);
        let s = session();
        Auto::from_env()
            .gemm::<f32, f32, f32>(&params, &a, &b, &c, &mut d)
            .unwrap();
        let profile = s.finish();
        assert_eq!(profile.dropped, 0);
        assert!(d.iter().all(|&x| x == 32.0));
        let count = |want: HostPhase, on_worker: bool| {
            profile
                .events
                .iter()
                .filter(|e| match e {
                    HostEvent::Phase { phase, lane, .. } => {
                        *phase == want && matches!(lane, Lane::Worker(_)) == on_worker
                    }
                    _ => false,
                })
                .count()
        };
        for phase in [
            HostPhase::PackA,
            HostPhase::PackB,
            HostPhase::Microkernel,
            HostPhase::Epilogue,
        ] {
            assert!(count(phase, true) > 0, "no {phase:?} on a worker lane");
            assert_eq!(count(phase, false), 0, "{phase:?} on the caller lane");
        }
        assert_eq!(count(HostPhase::Fanout, false), 1);
        assert_eq!(count(HostPhase::Fanout, true), 0);
    }

    #[test]
    fn sessions_are_exclusive_and_reset_lanes() {
        let s = session();
        run_gemm(96);
        let first = s.finish();
        let s = session();
        run_gemm(96);
        let second = s.finish();
        // Lane numbering restarts per session.
        let min_call = |p: &HostProfile| {
            p.events
                .iter()
                .filter_map(|e| match e {
                    HostEvent::Region { lane, .. } => Some(*lane),
                    _ => None,
                })
                .min()
        };
        assert_eq!(min_call(&first), Some(0));
        assert_eq!(min_call(&second), Some(0));
    }

    #[test]
    fn phase_names_are_stable() {
        assert_eq!(HostPhase::PackA.as_str(), "pack-a");
        assert_eq!(HostPhase::Fanout.as_str(), "fanout");
        assert_eq!(HostPhase::ALL.len(), 5);
    }
}
