//! The simulated GPU package: dies, launches, power, and the governor.
//!
//! Power is *physics-first* (DESIGN.md decision 2): every retired
//! operation is charged its datatype's dynamic energy from the
//! [`mc_isa::specs::EnergyTable`], DRAM traffic is charged per byte, and
//! static power (package idle + per-die active baseline) accrues with
//! time. The package governor then enforces the 560 W cap by scaling the
//! clock: dynamic power scales with throughput, so the sustained
//! operating point is the fixed point where package power meets the
//! governor target — the mechanism behind the paper's FP64 two-GCD
//! anomaly (72 % of peak vs 85 % on one GCD, §V-C).

use std::sync::Arc;

use mc_isa::specs::PackageSpec;
use mc_isa::KernelDesc;
use mc_trace::{ArgValue, Category, TraceEvent, TraceSink, Track, PACKAGE_DEVICE};
use serde::{Deserialize, Serialize};

use crate::config::SimConfig;
use crate::counters::HwCounters;
use crate::engine::{self, KernelExec, LaunchError, TracePlacement};

/// A piecewise-constant power trace over a launch's lifetime.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct PowerProfile {
    /// `(start_s, end_s, watts)` segments, contiguous and ordered.
    pub segments: Vec<(f64, f64, f64)>,
}

impl PowerProfile {
    /// Total duration covered by the profile.
    pub fn duration_s(&self) -> f64 {
        self.segments.last().map_or(0.0, |s| s.1)
    }

    /// Instantaneous power at time `t` (clamped to the profile range).
    pub fn power_at(&self, t: f64) -> f64 {
        for &(a, b, w) in &self.segments {
            if t >= a && t < b {
                return w;
            }
        }
        self.segments.last().map_or(0.0, |s| s.2)
    }

    /// Time-weighted average power.
    fn average_w(&self) -> f64 {
        let d = self.duration_s();
        if d == 0.0 {
            return 0.0;
        }
        self.segments
            .iter()
            .map(|&(a, b, w)| (b - a) * w)
            .sum::<f64>()
            / d
    }

    /// Total energy in joules.
    pub fn energy_j(&self) -> f64 {
        self.segments.iter().map(|&(a, b, w)| (b - a) * w).sum()
    }
}

/// Result of one kernel launch on one die.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct KernelResult {
    /// Kernel name.
    pub name: String,
    /// Die the kernel ran on.
    pub die: usize,
    /// Wall-clock kernel time in seconds (after any governor action).
    pub time_s: f64,
    /// Effective clock in Hz (residency × governor).
    pub effective_clock_hz: f64,
    /// Total operations performed.
    pub flops: u64,
    /// Operations delivered by matrix units.
    pub mfma_flops: u64,
    /// Achieved throughput in TFLOPS.
    pub tflops: f64,
    /// Counter increments from this launch.
    pub counters: HwCounters,
    /// Dynamic energy charged to this kernel in joules (excludes static).
    pub dynamic_energy_j: f64,
    /// The engine-level execution detail (pre-governor timing).
    pub exec: KernelExec,
}

/// Result of a (possibly multi-die) package launch.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PackageResult {
    /// Per-launch results.
    pub kernels: Vec<KernelResult>,
    /// Package makespan in seconds.
    pub time_s: f64,
    /// Package power trace over the makespan.
    pub profile: PowerProfile,
    /// Time-averaged package power in watts.
    pub avg_power_w: f64,
    /// Peak instantaneous package power in watts.
    pub peak_power_w: f64,
    /// Total package energy in joules.
    pub energy_j: f64,
    /// Clock scale the governor applied (1.0 = no throttling).
    pub governor_scale: f64,
}

impl PackageResult {
    /// Aggregate throughput across all kernels in TFLOPS.
    pub fn tflops(&self) -> f64 {
        let flops: u64 = self.kernels.iter().map(|k| k.flops).sum();
        flops as f64 / self.time_s / 1e12
    }

    /// Power efficiency in GFLOPS per watt (the paper's §VI metric).
    pub fn gflops_per_watt(&self) -> f64 {
        let flops: u64 = self.kernels.iter().map(|k| k.flops).sum();
        (flops as f64 / self.time_s / 1e9) / self.avg_power_w
    }

    /// Registers this launch's telemetry in a metrics registry: `sim.*`
    /// timing/throughput, `power.*` package power, and the aggregated
    /// `counters.*` bank across all kernels of the launch.
    pub fn register_metrics(&self, registry: &mut mc_trace::MetricsRegistry) {
        use mc_trace::Unit;
        let flops: u64 = self.kernels.iter().map(|k| k.flops).sum();
        let mfma: u64 = self.kernels.iter().map(|k| k.mfma_flops).sum();
        let hbm: u64 = self.kernels.iter().map(|k| k.exec.hbm_bytes).sum();
        registry.set("sim.time_s", Unit::Seconds, self.time_s);
        registry.set("sim.flops", Unit::Flops, flops as f64);
        registry.set("sim.mfma_flops", Unit::Flops, mfma as f64);
        registry.set("sim.hbm_bytes", Unit::Bytes, hbm as f64);
        registry.set(
            "sim.flops_per_s",
            Unit::FlopsPerSecond,
            flops as f64 / self.time_s.max(f64::MIN_POSITIVE),
        );
        registry.set("power.avg_w", Unit::Watts, self.avg_power_w);
        registry.set("power.peak_w", Unit::Watts, self.peak_power_w);
        registry.set("power.energy_j", Unit::Joules, self.energy_j);
        registry.set("power.governor_scale", Unit::Ratio, self.governor_scale);
        let mut counters = HwCounters::default();
        for k in &self.kernels {
            counters.merge(&k.counters);
        }
        counters.register_metrics(registry);
    }
}

/// The simulated GPU package.
#[derive(Clone, Debug)]
pub struct Gpu {
    cfg: SimConfig,
    die_counters: Vec<HwCounters>,
    sink: Arc<dyn TraceSink>,
    trace_clock_s: f64,
}

impl Gpu {
    /// Creates a package from a configuration.
    pub fn new(cfg: SimConfig) -> Self {
        let dies = cfg.package.dies as usize;
        Gpu {
            cfg,
            die_counters: vec![HwCounters::default(); dies],
            sink: Arc::new(mc_trace::NullSink),
            trace_clock_s: 0.0,
        }
    }

    /// Attaches a trace sink: subsequent launches emit their execution
    /// timelines into it. The default is the no-op [`mc_trace::NullSink`],
    /// which costs one `enabled()` check per launch.
    pub fn set_trace_sink(&mut self, sink: Arc<dyn TraceSink>) {
        self.sink = sink;
    }

    /// The attached trace sink.
    pub fn trace_sink(&self) -> &Arc<dyn TraceSink> {
        &self.sink
    }

    /// Position of the next launch on this device's trace timeline, in
    /// seconds. Advances by the package makespan after every launch, so
    /// sequential launches never overlap in the trace.
    pub fn trace_time_s(&self) -> f64 {
        self.trace_clock_s
    }

    /// An MI250X with default calibration.
    pub fn mi250x() -> Self {
        Gpu::new(SimConfig::mi250x())
    }

    /// An A100 with default calibration.
    pub fn a100() -> Self {
        Gpu::new(SimConfig::a100())
    }

    /// The package specification.
    pub fn spec(&self) -> &PackageSpec {
        &self.cfg.package
    }

    /// The simulator configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Cumulative counters of one die (rocprof reads these as deltas).
    pub fn counters(&self, die: usize) -> Result<HwCounters, LaunchError> {
        self.die_counters
            .get(die)
            .copied()
            .ok_or(LaunchError::InvalidDie {
                die,
                dies: self.die_counters.len(),
            })
    }

    /// Launches one kernel on one die (the other dies idle).
    ///
    /// ```
    /// use mc_sim::Gpu;
    /// use mc_isa::{cdna2_catalog, KernelDesc, SlotOp, WaveProgram};
    /// use mc_types::DType;
    ///
    /// let mut gpu = Gpu::mi250x();
    /// let mfma = *cdna2_catalog().find(DType::F32, DType::F16, 16, 16, 16).unwrap();
    /// let kernel = KernelDesc {
    ///     workgroups: 440, // one wavefront per Matrix Core
    ///     waves_per_workgroup: 1,
    ///     ..KernelDesc::new("saturate", WaveProgram::looped(vec![SlotOp::Mfma(mfma)], 100_000))
    /// };
    /// let result = gpu.launch(0, &kernel).unwrap();
    /// let tflops = result.tflops();
    /// assert!((tflops - 175.0).abs() < 4.0); // the paper's one-GCD mixed plateau
    /// ```
    pub fn launch(
        &mut self,
        die: usize,
        kernel: &KernelDesc,
    ) -> Result<PackageResult, LaunchError> {
        self.launch_parallel(&[(die, kernel.clone())])
    }

    /// Launches kernels concurrently, at most one per die — the paper's
    /// "one process per GCD" methodology (§VI).
    pub fn launch_parallel(
        &mut self,
        launches: &[(usize, KernelDesc)],
    ) -> Result<PackageResult, LaunchError> {
        let dies = self.die_counters.len();
        for &(die, _) in launches {
            if die >= dies {
                return Err(LaunchError::InvalidDie { die, dies });
            }
        }
        if launches.is_empty() {
            return Err(LaunchError::EmptyLaunch);
        }

        // Phase 1: engine estimates at residency clock.
        let mut execs = Vec::with_capacity(launches.len());
        for (die, k) in launches {
            let e = engine::execute(&self.cfg.package.die, &self.cfg, k)?;
            execs.push((*die, k, e));
        }

        // Phase 2: governor — find the largest clock scale x ≤ 1 with
        // peak package power ≤ target. Dynamic power is monotone in x.
        let target = self.cfg.governor_target_fraction * self.cfg.package.power_cap_w;
        let mut scale = 1.0;
        if self.cfg.governor_enabled && self.peak_power(&execs, 1.0) > target {
            let (mut lo, mut hi) = (0.05, 1.0);
            for _ in 0..60 {
                let mid = 0.5 * (lo + hi);
                if self.peak_power(&execs, mid) > target {
                    hi = mid;
                } else {
                    lo = mid;
                }
            }
            scale = lo;
        }

        // Phase 3: assemble results and power profile.
        let mut kernels = Vec::with_capacity(execs.len());
        let mut events: Vec<(f64, f64)> = Vec::new(); // (end time, dyn+base watts while running)
        let mut makespan = 0.0_f64;
        for (die, k, e) in &execs {
            let time = Self::scaled_time(e, scale, self.cfg.launch_overhead_s);
            let dyn_e = self.dynamic_energy_j(e);
            let power_while_running = self.cfg.package.active_baseline_w_per_die + dyn_e / time;
            events.push((time, power_while_running));
            makespan = makespan.max(time);
            engine::emit_kernel_events(
                self.sink.as_ref(),
                &TracePlacement {
                    die: *die as u32,
                    t0_s: self.trace_clock_s,
                    clock_scale: scale,
                    wall_time_s: time,
                    spec: &self.cfg.package.name,
                    dynamic_energy_j: dyn_e,
                },
                k,
                e,
            );
            let counters = e.counters;
            self.die_counters[*die].merge(&counters);
            kernels.push(KernelResult {
                name: k.name.clone(),
                die: *die,
                time_s: time,
                effective_clock_hz: e.effective_clock_hz * scale,
                flops: e.flops,
                mfma_flops: e.mfma_flops,
                tflops: e.flops as f64 / time / 1e12,
                counters,
                dynamic_energy_j: dyn_e,
                exec: e.clone(),
            });
        }

        // Build a piecewise-constant package power profile: at each
        // moment, idle + the contributions of still-running kernels.
        let mut cut_points: Vec<f64> = events.iter().map(|e| e.0).collect();
        cut_points.sort_by(f64::total_cmp);
        cut_points.dedup();
        let mut segments = Vec::new();
        let mut t0 = 0.0;
        for &t1 in &cut_points {
            let watts = self.cfg.package.idle_power_w
                + events
                    .iter()
                    .filter(|(end, _)| *end > t0)
                    .map(|(_, w)| w)
                    .sum::<f64>();
            segments.push((t0, t1, watts));
            t0 = t1;
        }
        let profile = PowerProfile { segments };
        let avg_power_w = profile.average_w();
        let peak_power_w = profile.segments.iter().map(|s| s.2).fold(0.0_f64, f64::max);

        self.emit_package_events(&profile, scale, target);
        self.trace_clock_s += makespan;

        Ok(PackageResult {
            kernels,
            time_s: makespan,
            energy_j: profile.energy_j(),
            avg_power_w,
            peak_power_w,
            profile,
            governor_scale: scale,
        })
    }

    /// Package-level telemetry events for one launch: a `package_w`
    /// counter track following the power profile, the governor's clock
    /// scale, and a DVFS-transition instant when the governor clamped.
    fn emit_package_events(&self, profile: &PowerProfile, scale: f64, target_w: f64) {
        if !self.sink.enabled() {
            return;
        }
        let t0 = self.trace_clock_s * 1e6;
        for &(a, _, watts) in &profile.segments {
            self.sink.record(TraceEvent::Counter {
                name: "package_w".to_owned(),
                device: PACKAGE_DEVICE,
                t_us: t0 + a * 1e6,
                value: watts,
            });
        }
        if let Some(&(_, end, _)) = profile.segments.last() {
            self.sink.record(TraceEvent::Counter {
                name: "package_w".to_owned(),
                device: PACKAGE_DEVICE,
                t_us: t0 + end * 1e6,
                value: self.cfg.package.idle_power_w,
            });
        }
        self.sink.record(TraceEvent::Counter {
            name: "governor_scale".to_owned(),
            device: PACKAGE_DEVICE,
            t_us: t0,
            value: scale,
        });
        if scale < 1.0 - 1e-9 {
            self.sink.record(TraceEvent::Instant {
                name: "governor clamp".to_owned(),
                category: Category::Power,
                device: PACKAGE_DEVICE,
                track: Track::Power,
                t_us: t0,
                args: vec![
                    ("clock_scale".to_owned(), ArgValue::F64(scale)),
                    ("target_w".to_owned(), ArgValue::F64(target_w)),
                ],
            });
        }
    }

    /// Launches kernels back to back on one die, concatenating their
    /// power profiles into a single application-level timeline — how
    /// the paper's tooling would observe a multi-kernel workload (e.g.
    /// a blocked factorization) through SMI.
    pub fn launch_sequence(
        &mut self,
        die: usize,
        kernels: &[KernelDesc],
    ) -> Result<PackageResult, LaunchError> {
        if kernels.is_empty() {
            return Err(LaunchError::EmptyLaunch);
        }
        let mut all = Vec::with_capacity(kernels.len());
        let mut segments: Vec<(f64, f64, f64)> = Vec::new();
        let mut t = 0.0_f64;
        let mut scale_min = 1.0_f64;
        for k in kernels {
            let r = self.launch(die, k)?;
            scale_min = scale_min.min(r.governor_scale);
            for &(a, b, w) in &r.profile.segments {
                segments.push((t + a, t + b, w));
            }
            t += r.time_s;
            all.extend(r.kernels);
        }
        let profile = PowerProfile { segments };
        let avg_power_w = profile.average_w();
        let peak_power_w = profile.segments.iter().map(|s| s.2).fold(0.0_f64, f64::max);
        Ok(PackageResult {
            kernels: all,
            time_s: t,
            energy_j: profile.energy_j(),
            avg_power_w,
            peak_power_w,
            profile,
            governor_scale: scale_min,
        })
    }

    fn scaled_time(e: &KernelExec, scale: f64, launch_overhead_s: f64) -> f64 {
        let compute = e.compute_cycles / (e.effective_clock_hz * scale);
        compute.max(e.dram_time_s) + launch_overhead_s
    }

    /// Dynamic energy of one execution in joules.
    pub fn dynamic_energy_j(&self, e: &KernelExec) -> f64 {
        engine::dynamic_energy_j(&self.cfg.package, e)
    }

    fn peak_power(&self, execs: &[(usize, &KernelDesc, KernelExec)], scale: f64) -> f64 {
        let mut p = self.cfg.package.idle_power_w;
        for (_, _, e) in execs {
            let time = Self::scaled_time(e, scale, self.cfg.launch_overhead_s);
            p += self.cfg.package.active_baseline_w_per_die + self.dynamic_energy_j(e) / time;
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_isa::{cdna2_catalog, KernelDesc, SlotOp, WaveProgram};
    use mc_types::DType;

    fn loop_kernel(ab: DType, m: u32, n: u32, k: u32, waves: u64, iters: u64) -> KernelDesc {
        let cd = if ab == DType::F64 {
            DType::F64
        } else {
            DType::F32
        };
        let i = *cdna2_catalog().find(cd, ab, m, n, k).unwrap();
        let program = WaveProgram::looped(vec![SlotOp::Mfma(i)], iters);
        KernelDesc {
            workgroups: waves,
            waves_per_workgroup: 1,
            ..KernelDesc::new(format!("{}_loop", ab), program)
        }
    }

    #[test]
    fn two_gcd_mixed_reaches_350_tflops() {
        let mut gpu = Gpu::mi250x();
        let k = loop_kernel(DType::F16, 16, 16, 16, 440, 200_000);
        let r = gpu.launch_parallel(&[(0, k.clone()), (1, k)]).unwrap();
        let t = r.tflops();
        assert!((t - 350.0).abs() < 6.0, "got {t}");
        assert!(
            (r.governor_scale - 1.0).abs() < 1e-9,
            "mixed must not throttle"
        );
    }

    #[test]
    fn two_gcd_fp64_throttles_to_about_70_tflops() {
        let mut gpu = Gpu::mi250x();
        let k = loop_kernel(DType::F64, 16, 16, 4, 440, 200_000);
        let r = gpu.launch_parallel(&[(0, k.clone()), (1, k)]).unwrap();
        let t = r.tflops();
        // Paper: 69 TFLOPS (72% of 95.7) at 541 W, vs 2×41=82 unthrottled.
        assert!(t < 75.0 && t > 65.0, "got {t}");
        assert!(r.governor_scale < 0.95);
        assert!(
            (r.peak_power_w - 541.0).abs() < 3.0,
            "power {}",
            r.peak_power_w
        );
    }

    #[test]
    fn one_gcd_fp64_does_not_throttle() {
        let mut gpu = Gpu::mi250x();
        let k = loop_kernel(DType::F64, 16, 16, 4, 440, 200_000);
        let r = gpu.launch(0, &k).unwrap();
        assert!((r.governor_scale - 1.0).abs() < 1e-9);
        let t = r.tflops();
        assert!((t - 41.0).abs() < 1.0, "got {t}");
    }

    #[test]
    fn governor_disabled_removes_the_anomaly() {
        let mut gpu = Gpu::new(SimConfig::mi250x().without_governor());
        let k = loop_kernel(DType::F64, 16, 16, 4, 440, 200_000);
        let r = gpu.launch_parallel(&[(0, k.clone()), (1, k)]).unwrap();
        let t = r.tflops();
        assert!((t - 82.0).abs() < 2.0, "got {t}");
        assert!(
            r.peak_power_w > 560.0,
            "would exceed the cap: {}",
            r.peak_power_w
        );
    }

    #[test]
    fn power_matches_eq3_model() {
        // Eq. 3 (double): PC = 5.88·Th + 130 at 2 GCDs. Our intercept is
        // idle+2·baseline = 123; slope is the FP64 energy (5.88 pJ/FLOP).
        let mut gpu = Gpu::new(SimConfig::mi250x().without_governor());
        for waves in [55u64, 110, 220, 440] {
            let k = loop_kernel(DType::F64, 16, 16, 4, waves, 200_000);
            let r = gpu.launch_parallel(&[(0, k.clone()), (1, k)]).unwrap();
            let th = r.tflops();
            let expected = 5.88 * th + 123.0;
            assert!(
                (r.peak_power_w - expected).abs() < 2.0,
                "waves {waves}: {} vs {expected}",
                r.peak_power_w
            );
        }
    }

    #[test]
    fn idle_power_with_no_kernel_is_88w() {
        let gpu = Gpu::mi250x();
        assert_eq!(gpu.spec().idle_power_w, 88.0);
    }

    #[test]
    fn counters_accumulate_across_launches() {
        let mut gpu = Gpu::mi250x();
        let k = loop_kernel(DType::F16, 16, 16, 16, 4, 100);
        gpu.launch(0, &k).unwrap();
        gpu.launch(0, &k).unwrap();
        gpu.launch(1, &k).unwrap();
        let c0 = gpu.counters(0).unwrap();
        let c1 = gpu.counters(1).unwrap();
        assert_eq!(c0.mfma_mops_f16, 2 * 4 * 100 * 8192 / 512);
        assert_eq!(c1.mfma_mops_f16, 4 * 100 * 8192 / 512);
        assert!(gpu.counters(5).is_err());
    }

    #[test]
    fn profile_average_and_energy_consistent() {
        let mut gpu = Gpu::mi250x();
        let k = loop_kernel(DType::F32, 16, 16, 4, 440, 100_000);
        let r = gpu.launch(0, &k).unwrap();
        let p = &r.profile;
        assert!((p.energy_j() - r.energy_j).abs() < 1e-9);
        assert!((p.average_w() - r.avg_power_w).abs() < 1e-9);
        assert!(p.duration_s() > 0.0);
        assert!(p.power_at(0.0) > gpu.spec().idle_power_w);
    }

    #[test]
    fn invalid_die_rejected() {
        let mut gpu = Gpu::mi250x();
        let k = loop_kernel(DType::F32, 16, 16, 4, 4, 10);
        assert!(matches!(
            gpu.launch(7, &k),
            Err(LaunchError::InvalidDie { die: 7, dies: 2 })
        ));
    }

    #[test]
    fn sequence_concatenates_profiles_and_times() {
        let mut gpu = Gpu::mi250x();
        let k1 = loop_kernel(DType::F16, 16, 16, 16, 440, 100_000);
        let k2 = loop_kernel(DType::F64, 16, 16, 4, 440, 100_000);
        let r1 = gpu.launch(0, &k1).unwrap();
        let r2 = gpu.launch(0, &k2).unwrap();
        let seq = gpu.launch_sequence(0, &[k1, k2]).unwrap();
        assert_eq!(seq.kernels.len(), 2);
        assert!((seq.time_s - (r1.time_s + r2.time_s)).abs() < 1e-12);
        assert!((seq.energy_j - (r1.energy_j + r2.energy_j)).abs() < 1e-9);
        // The profile timeline covers both phases: power at a point in
        // the second kernel's window equals that kernel's level.
        let mid2 = r1.time_s + 0.5 * r2.time_s;
        assert!((seq.profile.power_at(mid2) - r2.profile.power_at(0.5 * r2.time_s)).abs() < 1e-9);
        assert!(gpu.launch_sequence(0, &[]).is_err());
    }

    #[test]
    fn traced_launches_emit_package_telemetry_and_advance_the_clock() {
        let sink = Arc::new(mc_trace::RingSink::new());
        let mut gpu = Gpu::mi250x();
        gpu.set_trace_sink(sink.clone());
        let k = loop_kernel(DType::F64, 16, 16, 4, 440, 50_000);
        let r = gpu
            .launch_parallel(&[(0, k.clone()), (1, k.clone())])
            .unwrap();
        assert!((gpu.trace_time_s() - r.time_s).abs() < 1e-12);

        let events = sink.events();
        let violations = mc_trace::check_invariants(&events);
        assert!(violations.is_empty(), "{violations:?}");

        // Two kernel spans, one per die, both starting at t=0.
        let kernels: Vec<_> = events
            .iter()
            .filter_map(|e| e.as_span())
            .filter(|s| s.category == mc_trace::Category::Kernel)
            .collect();
        assert_eq!(kernels.len(), 2);
        assert!(kernels.iter().any(|s| s.device == 0));
        assert!(kernels.iter().any(|s| s.device == 1));

        // Package power counter follows the profile; the FP64 two-GCD
        // launch throttles, so a governor-clamp instant is present.
        assert!(events.iter().any(|e| matches!(
            e,
            mc_trace::TraceEvent::Counter { name, device, .. }
                if name == "package_w" && *device == mc_trace::PACKAGE_DEVICE
        )));
        assert!(r.governor_scale < 1.0);
        assert!(events.iter().any(|e| matches!(
            e,
            mc_trace::TraceEvent::Instant { name, .. } if name == "governor clamp"
        )));

        // A second launch lands after the first on the trace timeline.
        gpu.launch(0, &k).unwrap();
        let kernels2: Vec<_> = sink
            .events()
            .iter()
            .filter_map(|e| e.as_span().cloned())
            .filter(|s| s.category == mc_trace::Category::Kernel)
            .collect();
        assert_eq!(kernels2.len(), 3);
        let second_start = kernels2.last().unwrap().t0_us;
        assert!((second_start - r.time_s * 1e6).abs() < 1e-6);
    }

    #[test]
    fn untraced_launches_are_bitwise_identical_to_traced_results() {
        let mut plain = Gpu::mi250x();
        let mut traced = Gpu::mi250x();
        traced.set_trace_sink(Arc::new(mc_trace::RingSink::new()));
        let k = loop_kernel(DType::F16, 16, 16, 16, 440, 10_000);
        let a = plain.launch(0, &k).unwrap();
        let b = traced.launch(0, &k).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn launch_metrics_register_all_three_surfaces() {
        let mut gpu = Gpu::mi250x();
        let k = loop_kernel(DType::F32, 16, 16, 4, 440, 10_000);
        let r = gpu.launch(0, &k).unwrap();
        let mut reg = mc_trace::MetricsRegistry::new();
        r.register_metrics(&mut reg);
        assert_eq!(reg.value("sim.time_s"), Some(r.time_s));
        assert_eq!(reg.value("power.peak_w"), Some(r.peak_power_w));
        assert_eq!(
            reg.value("counters.SQ_WAVES"),
            Some(r.kernels[0].counters.waves_launched as f64)
        );
        assert!(reg.value("sim.flops_per_s").unwrap() > 0.0);
    }

    #[test]
    fn a100_mixed_reaches_290_tflops() {
        let mut gpu = Gpu::a100();
        let i = *mc_isa::ampere_catalog()
            .find(DType::F32, DType::F16, 16, 8, 16)
            .unwrap();
        let program = WaveProgram::looped(vec![SlotOp::Mfma(i)], 200_000);
        let k = KernelDesc {
            workgroups: 432, // 108 SMs × 4 tensor cores
            waves_per_workgroup: 1,
            ..KernelDesc::new("a100_mixed", program)
        };
        let r = gpu.launch(0, &k).unwrap();
        let t = r.tflops();
        // Paper: 290 TFLOPS (93% of 312).
        assert!((t - 290.0).abs() < 4.0, "got {t}");
    }

    #[test]
    fn a100_fp64_reaches_19_4_tflops() {
        let mut gpu = Gpu::a100();
        let i = *mc_isa::ampere_catalog()
            .find(DType::F64, DType::F64, 8, 8, 4)
            .unwrap();
        let program = WaveProgram::looped(vec![SlotOp::Mfma(i)], 200_000);
        let k = KernelDesc {
            workgroups: 432,
            waves_per_workgroup: 1,
            ..KernelDesc::new("a100_dmma", program)
        };
        let r = gpu.launch(0, &k).unwrap();
        let t = r.tflops();
        // Paper: 19.4 TFLOPS (99% of 19.5).
        assert!((t - 19.4).abs() < 0.3, "got {t}");
    }
}
