//! Host-plane observability: turns `mc_compute::prof` sessions into
//! the same artifacts the simulated-GPU plane already has.
//!
//! The producer side lives in `mc-compute` ([`prof`]): the `Auto`
//! dispatcher opens a *region* per GEMM call and the packed tiers mark
//! named *phases* (pack-A, pack-B, microkernel, epilogue, fan-out)
//! tagged with the caller/worker *lane* that ran them. This crate is
//! the consumer:
//!
//! * [`to_trace_events`] — converts a [`HostProfile`] into `mc-trace`
//!   events on the [`HOST_DEVICE`] plane: region spans and dispatch
//!   markers on caller tracks, phase spans on per-worker tracks, and
//!   cumulative `compute.pool.*` counter samples at region boundaries.
//!   Concatenating the result with a simulated-die trace yields one
//!   Perfetto timeline with host workers beside CU pipelines, and the
//!   same events feed the folded-stack flamegraph exporter.
//! * [`attribute`] — joins phases into schema-versioned
//!   [`HostAttributionRecord`]s: per-region GFLOP/s, pack-vs-compute
//!   ratio, parallel efficiency, and a wall-time reconciliation error.
//! * [`register_hostprof_metrics`] — aggregates a ledger into
//!   `hostprof.*` OpenMetrics gauges plus an HDR latency histogram of
//!   per-tile microkernel sweeps.
//!
//! The `hostprof` gate experiment (`mc-bench`) holds this pipeline to
//! its contract: traced-run overhead ≤ 3%, converted traces pass
//! `mc_trace::check_invariants`, and caller-lane phase times reconcile
//! to region wall time within tolerance.
//!
//! [`prof`]: mc_compute::prof
//! [`HOST_DEVICE`]: mc_trace::HOST_DEVICE

#![deny(missing_docs)]

use std::collections::BTreeMap;

use mc_compute::prof::{HostEvent, HostPhase, HostProfile, Lane};
use mc_compute::PoolStats;
use mc_trace::{
    ArgValue, Category, Histogram, MetricsRegistry, SpanEvent, TraceEvent, Track, Unit, Versioned,
    HOST_DEVICE,
};
use serde::{Deserialize, Serialize};

/// Schema version stamped into every [`HostAttributionRecord`]; bump on
/// any field change so downstream diffs fail loudly instead of
/// misreading. Version 2 dropped the naive route's `crossover_n`,
/// `geomean_n` and `compute_s`.
pub const HOSTPROF_SCHEMA_VERSION: u32 = 2;

/// Pool counter-track names emitted by [`to_trace_events`], in emission
/// order. They mirror the `compute.pool.*` gauges `mc-obs` registers
/// under `--metrics`, so the Perfetto counter tracks and the
/// OpenMetrics snapshot read off the same taxonomy.
const POOL_COUNTER_NAMES: [&str; 5] = [
    "compute.pool.hits",
    "compute.pool.misses",
    "compute.pool.recycled",
    "compute.pool.discarded",
    "compute.pool.allocated_bytes",
];

const S_TO_US: f64 = 1e6;

fn lane_track(lane: Lane) -> Track {
    match lane {
        Lane::Call(l) => Track::HostCall(l),
        Lane::Worker(w) => Track::HostWorker(w),
    }
}

/// Converts a profiling session into `mc-trace` events on the
/// [`HOST_DEVICE`] plane, rebased so the session opens at t = 0 µs.
///
/// Per [`HostEvent`] kind:
///
/// * `Region` → a [`Category::HostRegion`] span named
///   `gemm <backend> <m>x<n>x<k>` on the issuing caller's
///   [`Track::HostCall`] lane, carrying the region's pool deltas as
///   span args.
/// * `Dispatch` → a [`Category::HostRegion`] instant on the same caller
///   lane recording the routing decision and its inputs (pool size,
///   SIMD availability).
/// * `Phase` → a [`Category::HostPhase`] span on the executing lane's
///   track (caller or worker).
/// * Pool deltas additionally emit cumulative [`TraceEvent::Counter`]
///   samples (the five `compute.pool.*` counters) at each region boundary, so
///   the Perfetto timeline shows pool pressure evolving alongside the
///   spans.
///
/// The output satisfies `mc_trace::check_invariants` (host-span-nesting
/// and host-lane-overlap included) whenever the profile came from one
/// attached caller thread — the gate experiment asserts exactly that.
pub fn to_trace_events(profile: &HostProfile) -> Vec<TraceEvent> {
    let base = profile.t0_s;
    let rebase = |t_s: f64| ((t_s - base) * S_TO_US).max(0.0);

    // Dispatch events predate their Region event in drain order, but
    // the caller lane is only carried by the Region — map region → lane
    // first so markers land on the right track.
    let mut region_lane: BTreeMap<u32, u32> = BTreeMap::new();
    for e in &profile.events {
        if let HostEvent::Region { region, lane, .. } = e {
            region_lane.insert(*region, *lane);
        }
    }

    let mut out = Vec::with_capacity(profile.events.len() + 5 * region_lane.len());
    // (end_us, pool delta) per region, for the cumulative counter pass.
    let mut pool_points: Vec<(f64, PoolStats)> = Vec::new();

    for e in &profile.events {
        match *e {
            HostEvent::Region {
                region,
                backend,
                m,
                n,
                k,
                lane,
                t0_s,
                dur_s,
                pool,
            } => {
                let span = SpanEvent {
                    name: format!("gemm {backend} {m}x{n}x{k}"),
                    category: Category::HostRegion,
                    device: HOST_DEVICE,
                    track: Track::HostCall(lane),
                    t0_us: rebase(t0_s),
                    dur_us: dur_s * S_TO_US,
                    args: vec![
                        ("region".into(), ArgValue::U64(region as u64)),
                        ("backend".into(), ArgValue::from(backend)),
                        ("m".into(), ArgValue::U64(m as u64)),
                        ("n".into(), ArgValue::U64(n as u64)),
                        ("k".into(), ArgValue::U64(k as u64)),
                        ("pool.hits".into(), ArgValue::U64(pool.hits)),
                        ("pool.misses".into(), ArgValue::U64(pool.misses)),
                        ("pool.recycled".into(), ArgValue::U64(pool.recycled)),
                        ("pool.discarded".into(), ArgValue::U64(pool.discarded)),
                        (
                            "pool.allocated_bytes".into(),
                            ArgValue::U64(pool.allocated_bytes),
                        ),
                    ],
                };
                pool_points.push((span.end_us(), pool));
                out.push(TraceEvent::Span(span));
            }
            HostEvent::Dispatch {
                region,
                backend,
                m,
                n,
                k,
                simd,
                threads,
                t_s,
            } => {
                let lane = region_lane.get(&region).copied().unwrap_or(0);
                out.push(TraceEvent::Instant {
                    name: format!("dispatch → {backend}"),
                    category: Category::HostRegion,
                    device: HOST_DEVICE,
                    track: Track::HostCall(lane),
                    t_us: rebase(t_s),
                    args: vec![
                        ("region".into(), ArgValue::U64(region as u64)),
                        ("backend".into(), ArgValue::from(backend)),
                        ("m".into(), ArgValue::U64(m as u64)),
                        ("n".into(), ArgValue::U64(n as u64)),
                        ("k".into(), ArgValue::U64(k as u64)),
                        ("simd_tier".into(), ArgValue::U64(simd as u64)),
                        ("threads".into(), ArgValue::U64(threads as u64)),
                    ],
                });
            }
            HostEvent::Phase {
                region,
                phase,
                lane,
                t0_s,
                dur_s,
            } => {
                out.push(TraceEvent::Span(SpanEvent {
                    name: phase.as_str().to_owned(),
                    category: Category::HostPhase,
                    device: HOST_DEVICE,
                    track: lane_track(lane),
                    t0_us: rebase(t0_s),
                    dur_us: dur_s * S_TO_US,
                    args: vec![("region".into(), ArgValue::U64(region as u64))],
                }));
            }
        }
    }

    // Cumulative pool counters sampled at each region boundary, in time
    // order (regions may drain out of order across worker batches).
    pool_points.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut totals = [0u64; 5];
    for (t_us, d) in pool_points {
        let delta = [d.hits, d.misses, d.recycled, d.discarded, d.allocated_bytes];
        for ((name, total), value) in POOL_COUNTER_NAMES.iter().zip(&mut totals).zip(delta) {
            *total += value;
            out.push(TraceEvent::Counter {
                name: (*name).to_owned(),
                device: HOST_DEVICE,
                t_us,
                value: *total as f64,
            });
        }
    }
    out
}

/// Per-region host attribution: one GEMM call's wall time decomposed
/// into named phase seconds, with the throughput and balance figures
/// derived from them.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HostAttributionRecord {
    /// [`HOSTPROF_SCHEMA_VERSION`] at write time.
    pub schema_version: u32,
    /// Region id from the profile (unique per process run).
    pub region: u32,
    /// Routed backend (`blocked`, `simd`).
    pub backend: String,
    /// Problem rows.
    pub m: u64,
    /// Problem columns.
    pub n: u64,
    /// Problem depth.
    pub k: u64,
    /// Configured rayon pool size at dispatch.
    pub threads: u64,
    /// Distinct worker lanes observed in this region. The packed tiers
    /// open one rayon region per call and chunk the rows per worker,
    /// so small problems can observe fewer lanes than the pool size;
    /// efficiency therefore normalizes by `threads`, not `workers`.
    pub workers: u64,
    /// Region wall time in seconds.
    pub wall_s: f64,
    /// Whether the SIMD tier was the dispatcher's first choice.
    pub simd: bool,
    /// Seconds packing A row panels (worker lanes).
    pub pack_a_s: f64,
    /// Seconds packing B panels/strips.
    pub pack_b_s: f64,
    /// Seconds in the microkernel accumulation sweep (worker lanes).
    pub microkernel_s: f64,
    /// Seconds in the α/β epilogue (worker lanes, inside the fan-out).
    pub epilogue_s: f64,
    /// Seconds the caller spent inside rayon fan-out windows.
    pub fanout_s: f64,
    /// Total caller-lane phase seconds — the portion of the wall the
    /// phase taxonomy explains (reconciliation numerator).
    pub caller_s: f64,
    /// Total worker-lane phase seconds (busy time across all workers).
    pub worker_busy_s: f64,
    /// Achieved throughput, `2·m·n·k / wall_s / 1e9`.
    pub gflops: f64,
    /// Packing share of packed-tier work:
    /// `(pack_a + pack_b) / (pack_a + pack_b + microkernel)`.
    pub pack_ratio: f64,
    /// Worker busy time over the pool's capacity inside fan-out
    /// windows: `worker_busy_s / (threads · fanout_s)`, clamped to
    /// `[0, 1]`; 1.0 when the region never fanned out.
    pub parallel_efficiency: f64,
    /// `|wall_s − caller_s| / wall_s`: how much of the region the
    /// caller-lane phases fail to explain (alloc, loop bookkeeping).
    pub reconcile_rel_err: f64,
    /// Packing-pool freelist hits over the region.
    pub pool_hits: u64,
    /// Packing-pool allocating misses over the region.
    pub pool_misses: u64,
    /// Buffers recycled to the pool at drop.
    pub pool_recycled: u64,
    /// Buffers discarded (over-capacity) at drop.
    pub pool_discarded: u64,
    /// Bytes freshly allocated by pool misses.
    pub pool_allocated_bytes: u64,
}

#[derive(Default)]
struct PhaseAccum {
    by_phase: BTreeMap<&'static str, f64>,
    caller_s: f64,
    worker_busy_s: f64,
    worker_lanes: Vec<u32>,
    tile_latencies: Vec<f64>,
}

/// Joins a profile's phases into per-region attribution records,
/// ordered by region start time. Phases recorded outside any region
/// (`region == 0`, or a region whose span was dropped) are discarded.
pub fn attribute(profile: &HostProfile) -> Vec<HostAttributionRecord> {
    let mut accum: BTreeMap<u32, PhaseAccum> = BTreeMap::new();
    for e in &profile.events {
        if let HostEvent::Phase {
            region,
            phase,
            lane,
            dur_s,
            ..
        } = *e
        {
            let a = accum.entry(region).or_default();
            *a.by_phase.entry(phase.as_str()).or_default() += dur_s;
            match lane {
                Lane::Call(_) => a.caller_s += dur_s,
                Lane::Worker(w) => {
                    a.worker_busy_s += dur_s;
                    if !a.worker_lanes.contains(&w) {
                        a.worker_lanes.push(w);
                    }
                }
            }
            if phase == HostPhase::Microkernel {
                a.tile_latencies.push(dur_s);
            }
        }
    }

    let mut dispatch: BTreeMap<u32, bool> = BTreeMap::new();
    for e in &profile.events {
        if let HostEvent::Dispatch { region, simd, .. } = *e {
            dispatch.insert(region, simd);
        }
    }

    let mut records: Vec<(f64, HostAttributionRecord)> = Vec::new();
    for e in &profile.events {
        let HostEvent::Region {
            region,
            backend,
            m,
            n,
            k,
            t0_s,
            dur_s,
            pool,
            ..
        } = *e
        else {
            continue;
        };
        let a = accum.remove(&region).unwrap_or_default();
        let get = |p: HostPhase| a.by_phase.get(p.as_str()).copied().unwrap_or(0.0);
        let (pack_a_s, pack_b_s, microkernel_s, epilogue_s, fanout_s) = (
            get(HostPhase::PackA),
            get(HostPhase::PackB),
            get(HostPhase::Microkernel),
            get(HostPhase::Epilogue),
            get(HostPhase::Fanout),
        );
        let simd = dispatch.get(&region).copied().unwrap_or(false);
        let threads = profile.threads.max(1) as u64;
        let wall_s = dur_s;
        let pack = pack_a_s + pack_b_s;
        let packed_work = pack + microkernel_s;
        let parallel_efficiency = if fanout_s > 0.0 {
            (a.worker_busy_s / (threads as f64 * fanout_s)).clamp(0.0, 1.0)
        } else {
            1.0
        };
        records.push((
            t0_s,
            HostAttributionRecord {
                schema_version: HOSTPROF_SCHEMA_VERSION,
                region,
                backend: backend.to_owned(),
                m: m as u64,
                n: n as u64,
                k: k as u64,
                threads,
                workers: a.worker_lanes.len() as u64,
                wall_s,
                simd,
                pack_a_s,
                pack_b_s,
                microkernel_s,
                epilogue_s,
                fanout_s,
                caller_s: a.caller_s,
                worker_busy_s: a.worker_busy_s,
                gflops: if wall_s > 0.0 {
                    2.0 * m as f64 * n as f64 * k as f64 / wall_s / 1e9
                } else {
                    0.0
                },
                pack_ratio: if packed_work > 0.0 {
                    pack / packed_work
                } else {
                    0.0
                },
                parallel_efficiency,
                reconcile_rel_err: if wall_s > 0.0 {
                    (wall_s - a.caller_s).abs() / wall_s
                } else {
                    0.0
                },
                pool_hits: pool.hits,
                pool_misses: pool.misses,
                pool_recycled: pool.recycled,
                pool_discarded: pool.discarded,
                pool_allocated_bytes: pool.allocated_bytes,
            },
        ));
    }
    records.sort_by(|a, b| a.0.total_cmp(&b.0));
    records.into_iter().map(|(_, r)| r).collect()
}

impl Versioned for HostAttributionRecord {
    const SCHEMA_VERSION: u32 = HOSTPROF_SCHEMA_VERSION;

    fn schema_version(&self) -> u32 {
        self.schema_version
    }
}

/// Aggregates a ledger into `hostprof.*` gauges plus a per-tile
/// microkernel latency histogram
/// (`hostprof.microkernel_latency_seconds`). Ratios are work-weighted
/// (time-summed numerators/denominators), not per-region means, so one
/// tiny call cannot swamp the figure. No-op for an empty ledger.
pub fn register_hostprof_metrics(
    records: &[HostAttributionRecord],
    profile: &HostProfile,
    reg: &mut MetricsRegistry,
) {
    if records.is_empty() {
        return;
    }
    let wall: f64 = records.iter().map(|r| r.wall_s).sum();
    let flops: f64 = records
        .iter()
        .map(|r| 2.0 * r.m as f64 * r.n as f64 * r.k as f64)
        .sum();
    let pack: f64 = records.iter().map(|r| r.pack_a_s + r.pack_b_s).sum();
    let micro: f64 = records.iter().map(|r| r.microkernel_s).sum();
    let busy: f64 = records.iter().map(|r| r.worker_busy_s).sum();
    let fanout: f64 = records.iter().map(|r| r.threads as f64 * r.fanout_s).sum();
    let reconcile_max = records
        .iter()
        .map(|r| r.reconcile_rel_err)
        .fold(0.0, f64::max);
    reg.set("hostprof.regions", Unit::Count, records.len() as f64);
    reg.set("hostprof.wall_s", Unit::Seconds, wall);
    if wall > 0.0 {
        reg.set("hostprof.flops_per_s", Unit::FlopsPerSecond, flops / wall);
    }
    if pack + micro > 0.0 {
        reg.set("hostprof.pack_ratio", Unit::Ratio, pack / (pack + micro));
    }
    if fanout > 0.0 {
        reg.set(
            "hostprof.parallel_efficiency",
            Unit::Ratio,
            (busy / fanout).clamp(0.0, 1.0),
        );
    }
    reg.set("hostprof.reconcile_rel_err_max", Unit::Ratio, reconcile_max);
    reg.set(
        "hostprof.dropped_events",
        Unit::Count,
        profile.dropped as f64,
    );
    reg.set(
        "hostprof.pool.allocated_bytes",
        Unit::Bytes,
        records.iter().map(|r| r.pool_allocated_bytes as f64).sum(),
    );
    let mut hist = Histogram::latency_seconds();
    for e in &profile.events {
        if let HostEvent::Phase {
            phase: HostPhase::Microkernel,
            dur_s,
            ..
        } = *e
        {
            hist.record(dur_s.max(0.0));
        }
    }
    reg.register_histogram("hostprof.microkernel_latency_seconds", hist);
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_compute::prof;
    use mc_compute::{Auto, Epilogue, GemmParams, MatMul};
    use mc_trace::check_invariants;

    fn run_gemm(n: usize) {
        let params = GemmParams::new(n, n, n).with_epilogue(Epilogue::ComputeRounded);
        let a = vec![1.0f32; n * n];
        let b = vec![0.5f32; n * n];
        let c = vec![0.25f32; n * n];
        let mut d = vec![0.0f32; n * n];
        Auto::from_env()
            .gemm::<f32, f32, f32>(&params, &a, &b, &c, &mut d)
            .unwrap();
    }

    /// One region above the packed driver's 32³ serial rule and one
    /// at or below it.
    fn profile_two_regions() -> HostProfile {
        let s = prof::session();
        run_gemm(96);
        run_gemm(24);
        s.finish()
    }

    #[test]
    fn converted_trace_passes_invariants_and_unifies_lanes() {
        let profile = profile_two_regions();
        let events = to_trace_events(&profile);
        let violations = check_invariants(&events);
        assert!(violations.is_empty(), "{violations:?}");
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::Span(s) if s.category == Category::HostRegion)));
        assert!(events.iter().any(
            |e| matches!(e, TraceEvent::Span(s) if s.category == Category::HostPhase
                && matches!(s.track, Track::HostWorker(_)))
        ));
        assert!(events.iter().any(
            |e| matches!(e, TraceEvent::Instant { name, .. } if name.starts_with("dispatch"))
        ));
        // All events live on the host plane, rebased to t >= 0.
        for e in &events {
            assert_eq!(e.device(), HOST_DEVICE);
            if let TraceEvent::Span(s) = e {
                assert!(s.t0_us >= 0.0, "{s:?}");
            }
        }
    }

    #[test]
    fn pool_counters_are_cumulative_and_cover_all_names() {
        let profile = profile_two_regions();
        let events = to_trace_events(&profile);
        for name in POOL_COUNTER_NAMES {
            let samples: Vec<(f64, f64)> = events
                .iter()
                .filter_map(|e| match e {
                    TraceEvent::Counter {
                        name: n,
                        t_us,
                        value,
                        ..
                    } if n == name => Some((*t_us, *value)),
                    _ => None,
                })
                .collect();
            assert_eq!(samples.len(), 2, "{name}: {samples:?}");
            // Cumulative: samples are time-ordered and non-decreasing.
            assert!(samples[0].0 <= samples[1].0, "{name}: {samples:?}");
            assert!(samples[0].1 <= samples[1].1, "{name}: {samples:?}");
        }
        // The packed region allocated or reused packing buffers.
        let hits_or_misses = events.iter().any(|e| {
            matches!(e, TraceEvent::Counter { name, value, .. }
                if (name == "compute.pool.hits" || name == "compute.pool.misses") && *value > 0.0)
        });
        assert!(hits_or_misses);
    }

    #[test]
    fn attribution_decomposes_both_regions() {
        let profile = profile_two_regions();
        let records = attribute(&profile);
        assert_eq!(records.len(), 2, "{records:?}");
        // Region start order: the 96³ call first, then the 24³ one.
        let packed = &records[0];
        let small = &records[1];
        assert_eq!((small.m, small.n, small.k), (24, 24, 24));
        for r in &records {
            assert!(["simd", "blocked"].contains(&r.backend.as_str()), "{r:?}");
            assert!(r.microkernel_s > 0.0 && r.fanout_s > 0.0, "{r:?}");
        }
        assert!(
            packed.pack_ratio > 0.0 && packed.pack_ratio < 1.0,
            "{packed:?}"
        );
        assert!(packed.fanout_s > 0.0 && packed.worker_busy_s > 0.0);
        assert!(packed.parallel_efficiency > 0.0 && packed.parallel_efficiency <= 1.0);
        assert!(packed.gflops > 0.0);
        for r in &records {
            assert_eq!(r.schema_version, HOSTPROF_SCHEMA_VERSION);
            assert!(r.wall_s > 0.0 && r.caller_s >= 0.0);
        }
    }

    #[test]
    fn metrics_registry_gains_hostprof_gauges_and_histogram() {
        let profile = profile_two_regions();
        let records = attribute(&profile);
        let mut reg = MetricsRegistry::new();
        register_hostprof_metrics(&records, &profile, &mut reg);
        assert_eq!(reg.get("hostprof.regions").map(|m| m.value), Some(2.0));
        assert!(reg.get("hostprof.wall_s").map(|m| m.value).unwrap() > 0.0);
        assert!(reg.get("hostprof.flops_per_s").is_some());
        assert!(reg.get("hostprof.pack_ratio").is_some());
        let hist = reg
            .histogram("hostprof.microkernel_latency_seconds")
            .unwrap();
        assert!(hist.count() > 0);
        // Empty ledger: registry untouched.
        let mut empty = MetricsRegistry::new();
        register_hostprof_metrics(&[], &profile, &mut empty);
        assert!(empty.get("hostprof.regions").is_none());
    }

    /// The packed driver's serial rule, seen through attribution at a
    /// two-worker pool: a 24³ call (at most 32³ multiply-adds) runs as
    /// one chunk on its caller, a packed-tier region with at most one
    /// worker lane, while a 48³ call still splits over both workers.
    #[test]
    fn small_calls_stay_on_one_worker_lane_and_larger_ones_fan_out() {
        let s = prof::session();
        // GEMMs in this binary run inside a session, so none leases a
        // worker while this one holds the session lock.
        rayon::ThreadPoolBuilder::new()
            .num_threads(2)
            .build_global()
            .unwrap();
        run_gemm(24);
        run_gemm(48);
        rayon::ThreadPoolBuilder::new()
            .num_threads(0)
            .build_global()
            .unwrap();
        let records = attribute(&s.finish());
        let [small, large] = records.as_slice() else {
            panic!("two regions expected: {records:?}");
        };
        assert_eq!(small.m, 24);
        assert!(
            ["simd", "blocked"].contains(&small.backend.as_str()),
            "{small:?}"
        );
        assert!(small.microkernel_s > 0.0, "{small:?}");
        assert!(small.workers <= 1, "{small:?}");
        assert_eq!(large.m, 48);
        assert_eq!(large.workers, 2, "{large:?}");
    }
}
