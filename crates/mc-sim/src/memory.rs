//! DRAM/L2 memory-system model.
//!
//! The simulator does not model individual cache lines; the GEMM planner
//! (which owns the blocking structure) estimates post-L2 DRAM traffic and
//! passes it via [`mc_isa::MemHints`]. This module turns that traffic into
//! time: effective bandwidth is peak pin bandwidth derated by a streaming
//! efficiency, with an additional penalty when large power-of-two strides
//! cause channel/bank camping on an L2-exceeding working set — the
//! mechanism behind the paper's Fig. 6/7 throughput dips at N = 2^k
//! (8192/16384/32768) that vanish again at the non-power-of-two N = 65000.

use mc_isa::specs::DieSpec;
use mc_isa::MemHints;

use crate::config::SimConfig;

/// Effective DRAM bandwidth in bytes/second for a kernel on one die.
fn effective_bandwidth(die: &DieSpec, cfg: &SimConfig, hints: &MemHints) -> f64 {
    let peak = die.hbm_bandwidth_gbs * 1e9;
    let mut eff = cfg.dram_streaming_efficiency;
    if hints.pow2_stride && exceeds_l2(die, hints) {
        eff *= cfg.dram_pow2_penalty;
    }
    // Working sets approaching HBM capacity pay growing TLB/page-walk
    // and row-buffer-locality costs: a mild linear decay, up to 15 % at
    // a full device — why the paper's largest problems sit slightly
    // below, not at, the mid-size throughput peaks.
    let resident = hints.working_set_bytes as f64 / ((u64::from(die.hbm_gib) << 30) as f64);
    eff *= 1.0 - 0.15 * resident.min(1.0);
    peak * eff
}

/// Time in seconds to move the kernel's DRAM traffic.
pub fn dram_time_s(die: &DieSpec, cfg: &SimConfig, hints: &MemHints) -> f64 {
    if hints.hbm_bytes == 0 {
        return 0.0;
    }
    hints.hbm_bytes as f64 / effective_bandwidth(die, cfg, hints)
}

/// Whether the kernel's working set exceeds the die's L2 capacity.
fn exceeds_l2(die: &DieSpec, hints: &MemHints) -> bool {
    hints.working_set_bytes > u64::from(die.l2_kib) * 1024
}

#[cfg(test)]
mod tests {
    use super::*;

    fn die() -> DieSpec {
        mc_isa::specs::mi250x().die
    }

    fn cfg() -> SimConfig {
        SimConfig::mi250x()
    }

    #[test]
    fn streaming_bandwidth_derated_from_peak() {
        let hints = MemHints {
            hbm_bytes: 1_000_000_000,
            working_set_bytes: 1 << 20,
            ..MemHints::default()
        };
        let bw = effective_bandwidth(&die(), &cfg(), &hints);
        // Tiny working set: capacity decay is negligible (<0.01%).
        assert!((bw - 1638.0e9 * 0.88).abs() / bw < 1e-4, "{bw}");
    }

    #[test]
    fn pow2_penalty_requires_l2_overflow() {
        // pow2 stride but tiny working set: no penalty (fits in L2).
        let small = MemHints {
            hbm_bytes: 1,
            working_set_bytes: 1 << 20,
            pow2_stride: true,
            ..MemHints::default()
        };
        let big = MemHints {
            working_set_bytes: 1 << 30,
            ..small
        };
        let c = cfg();
        let d = die();
        assert!(effective_bandwidth(&d, &c, &small) > effective_bandwidth(&d, &c, &big));
        let ratio = effective_bandwidth(&d, &c, &big) / effective_bandwidth(&d, &c, &small);
        // The penalty, modulo the (sub-percent) capacity-decay difference.
        assert!((ratio - c.dram_pow2_penalty).abs() < 0.01, "{ratio}");
    }

    #[test]
    fn capacity_decay_reduces_bandwidth_near_full_device() {
        let small = MemHints {
            hbm_bytes: 1,
            working_set_bytes: 1 << 20,
            ..MemHints::default()
        };
        let full = MemHints {
            working_set_bytes: 64 << 30,
            ..small
        };
        let d = die();
        let c = cfg();
        let ratio = effective_bandwidth(&d, &c, &full) / effective_bandwidth(&d, &c, &small);
        assert!((ratio - 0.85).abs() < 0.001, "{ratio}");
    }

    #[test]
    fn zero_traffic_takes_zero_time() {
        let hints = MemHints::default();
        assert_eq!(dram_time_s(&die(), &cfg(), &hints), 0.0);
    }

    #[test]
    fn dram_time_scales_linearly() {
        let mk = |bytes| MemHints {
            hbm_bytes: bytes,
            working_set_bytes: 1 << 33,
            ..MemHints::default()
        };
        let t1 = dram_time_s(&die(), &cfg(), &mk(1 << 30));
        let t2 = dram_time_s(&die(), &cfg(), &mk(1 << 31));
        assert!((t2 / t1 - 2.0).abs() < 1e-9);
    }
}
