//! Dataflow race & synchronization verification of pipelined kernel
//! plans.
//!
//! The lint rules answer "is every instruction individually legal?";
//! this module answers the question the paper's §III programming model
//! makes hard in practice: *is the pipeline between those instructions
//! correct?* Hand-scheduled Matrix-Core kernels overlap global loads,
//! LDS staging, and MFMA issue across loop iterations, and the three
//! classic failure modes — an LDS race across wavefronts, an
//! insufficient `s_waitcnt` before a consumer, and a register working
//! set that outgrows the declared budget — all produce *plausible but
//! wrong* simulated numbers rather than crashes.
//!
//! The engine abstractly interprets a [`mc_isa::KernelDesc`] over the
//! steady-state walk ([`mc_isa::walk::steady_passes`]) with
//! [`FLOW_UNROLL`] loop iterations, so double-buffer stage rotation
//! ([`mc_isa::StageTag::Rotating`]) is proven across adjacent iterations
//! rather than assumed. That walk is the only one per kernel: the lint
//! hazard scan reads the same event stream (see [`crate::verify_kernel`]).
//! Four analyses run per kernel:
//!
//! * **LDS race detection** — events are partitioned into *barrier
//!   intervals* (the count of `Barrier` ops preceding them); two
//!   accesses to the same `(buffer, resolved stage)` in the same
//!   interval with at least one write race across wavefronts, because
//!   nothing orders one wave's slot against another's between barriers.
//! * **Waitcnt sufficiency** — saturating per-class counters (`vmcnt`,
//!   `lgkmcnt`) are tracked symbolically; a consumer whose producing
//!   load has not retired under the waits seen so far is flagged, as is
//!   a `Barrier` with LDS traffic still outstanding (CDNA's `s_barrier`
//!   synchronizes *execution*, not *memory*).
//! * **Dead-store analysis** — an LDS write whose `(buffer, stage set)`
//!   intersects no read is wasted staging bandwidth.
//! * **Max-live estimation** — a def-use pass over load→consumer
//!   intervals tightens the declared-VGPR check into an estimate of the
//!   actual peak register working set.
//!
//! Verdicts surface as [`FlowDiagnostic`]s in a [`FlowReport`] mirroring
//! the lint report API (and reusing its [`Severity`]/[`Span`]
//! vocabulary), so compile paths can treat both gates uniformly. See
//! `docs/DATAFLOW.md` for the lattice and the waitcnt model.

use core::fmt;
use std::collections::{HashMap, HashSet, VecDeque};

use crate::{render_finding, Finding};
pub use crate::{Section, Severity, Span};
use mc_isa::specs::DieSpec;
use mc_isa::walk::{steady_passes, PassKind};
use mc_isa::{CounterClass, KernelDesc, MatrixArch, SlotOp};
use serde::{Deserialize, Serialize};

/// Loop iterations the steady-state walk models. Three is the smallest
/// count that exhibits every adjacency a period-2 stage rotation can
/// produce (iteration 0→1 *and* 1→2 differ when `Fixed` and `Rotating`
/// tags mix), so it proves double-buffered plans rather than sampling
/// them.
pub const FLOW_UNROLL: u64 = 3;

/// Baseline per-wave scratch (address arithmetic, loop counters, scalars
/// spilled to VGPRs) assumed by the max-live estimate.
const SCRATCH_VGPRS: u32 = 8;

/// Cap on the VGPRs a single streaming load can hold live: real kernels
/// stage wider transfers through a bounded register window (waitcnt
/// batching), so one interval never accounts for more than this.
const STREAM_WINDOW_VGPRS: u32 = 16;

/// Stable identifiers for every dataflow rule. Documented in
/// `docs/DATAFLOW.md`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FlowRule {
    /// A wave may read an LDS location another wave is still writing in
    /// the same barrier interval (read-after-write race).
    LdsRaceRaw,
    /// A wave may overwrite an LDS location another wave is still
    /// reading in the same barrier interval (write-after-read race).
    LdsRaceWar,
    /// Two waves may write the same LDS location in the same barrier
    /// interval (write-after-write race).
    LdsRaceWaw,
    /// A `Barrier` executes with LDS traffic still outstanding on
    /// `lgkmcnt`; `s_barrier` does not wait memory, so other waves can
    /// observe stale LDS after the barrier.
    BarrierLgkmPending,
    /// A consumer reads data whose producing load has not retired under
    /// the `s_waitcnt` bounds seen so far.
    InsufficientWaitcnt,
    /// An LDS write whose `(buffer, stage set)` no read ever overlaps.
    DeadLdsStore,
    /// The estimated peak register working set exceeds the physical
    /// register file.
    MaxLiveOverflow,
    /// The estimated peak register working set exceeds the kernel's
    /// declared `arch_vgprs` budget.
    MaxLiveUnderdeclared,
}

impl FlowRule {
    /// All rules, in documentation order.
    pub const ALL: &'static [FlowRule] = &[
        FlowRule::LdsRaceRaw,
        FlowRule::LdsRaceWar,
        FlowRule::LdsRaceWaw,
        FlowRule::BarrierLgkmPending,
        FlowRule::InsufficientWaitcnt,
        FlowRule::DeadLdsStore,
        FlowRule::MaxLiveOverflow,
        FlowRule::MaxLiveUnderdeclared,
    ];

    /// The stable kebab-case name used in reports and `docs/DATAFLOW.md`.
    pub fn as_str(self) -> &'static str {
        match self {
            FlowRule::LdsRaceRaw => "lds-race-raw",
            FlowRule::LdsRaceWar => "lds-race-war",
            FlowRule::LdsRaceWaw => "lds-race-waw",
            FlowRule::BarrierLgkmPending => "barrier-lgkm-pending",
            FlowRule::InsufficientWaitcnt => "insufficient-waitcnt",
            FlowRule::DeadLdsStore => "dead-lds-store",
            FlowRule::MaxLiveOverflow => "max-live-overflow",
            FlowRule::MaxLiveUnderdeclared => "max-live-underdeclared",
        }
    }

    /// The severity this rule always fires at.
    pub fn severity(self) -> Severity {
        match self {
            FlowRule::DeadLdsStore | FlowRule::MaxLiveUnderdeclared => Severity::Warning,
            _ => Severity::Error,
        }
    }
}

impl fmt::Display for FlowRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One dataflow finding.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FlowDiagnostic {
    /// Error or warning (always [`FlowRule::severity`] of the rule).
    pub severity: Severity,
    /// The rule that fired.
    pub rule: FlowRule,
    /// Program location of the offending op, when the finding points at
    /// one slot.
    pub span: Option<Span>,
    /// Human-readable description of the defect.
    pub message: String,
    /// Suggested fix, when one exists.
    pub help: Option<String>,
}

impl FlowDiagnostic {
    /// Builds a diagnostic at the rule's intrinsic severity.
    pub fn new(rule: FlowRule, span: Option<Span>, message: impl Into<String>) -> Self {
        FlowDiagnostic {
            severity: rule.severity(),
            rule,
            span,
            message: message.into(),
            help: None,
        }
    }

    /// Attaches a help line.
    pub fn with_help(mut self, help: impl Into<String>) -> Self {
        self.help = Some(help.into());
        self
    }

    /// Renders this diagnostic rustc-style, labelled with the kernel it
    /// was produced for.
    pub fn render(&self, subject: &str) -> String {
        render_finding(
            self.severity,
            self.rule.as_str(),
            self.span,
            &self.message,
            self.help.as_deref(),
            subject,
        )
    }
}

impl Finding for FlowDiagnostic {
    type Rule = FlowRule;
    const VERIFIER: &'static str = "flow";

    fn severity(&self) -> Severity {
        self.severity
    }

    fn rule(&self) -> FlowRule {
        self.rule
    }

    fn render(&self, subject: &str) -> String {
        FlowDiagnostic::render(self, subject)
    }
}

/// The result of dataflow-verifying one kernel: findings in walk order.
pub type FlowReport = crate::Report<FlowDiagnostic>;

/// One op occurrence in the unrolled steady-state walk.
pub(crate) struct Event<'a> {
    /// Location of the static op this occurrence came from.
    pub(crate) span: Span,
    /// The op itself.
    pub(crate) op: &'a SlotOp,
    /// Loop iteration of the pass (0 for prologue/epilogue walk passes).
    pub(crate) iteration: u64,
    /// Number of `Barrier` ops preceding this event in the walk — its
    /// barrier interval.
    phase: u32,
}

/// Flattens the steady-state walk into one event stream with barrier
/// intervals assigned. Both verifiers read this stream.
pub(crate) fn collect_events(k: &KernelDesc) -> Vec<Event<'_>> {
    let passes = steady_passes(&k.program, FLOW_UNROLL);
    let mut events = Vec::with_capacity(passes.iter().map(|p| p.ops.len()).sum());
    let mut phase = 0u32;
    for pass in passes {
        let section = match pass.kind {
            PassKind::Prologue => Section::Prologue,
            PassKind::Body => Section::Body,
            PassKind::Epilogue => Section::Epilogue,
        };
        for (slot, op) in pass.ops.iter().enumerate() {
            events.push(Event {
                span: Span { section, slot },
                op,
                iteration: pass.iteration,
                phase,
            });
            if matches!(op, SlotOp::Barrier) {
                phase += 1;
            }
        }
    }
    events
}

/// Runs all dataflow analyses over one kernel for one target die and
/// returns the combined report.
///
/// Race and dead-store analyses run for every architecture. The waitcnt
/// and max-live analyses model GCN/CDNA semantics (`s_waitcnt` counter
/// classes, explicit VGPR streaming windows) and are skipped on Ampere,
/// whose `mma.sync` pipeline interlocks in hardware and whose register
/// allocation the PTX toolchain owns.
pub fn analyze_kernel(die: &DieSpec, k: &KernelDesc) -> FlowReport {
    analyze_events(die, k, &collect_events(k))
}

/// [`analyze_kernel`] over the event stream already collected for `k`.
pub(crate) fn analyze_events(die: &DieSpec, k: &KernelDesc, events: &[Event<'_>]) -> FlowReport {
    let mut diags = Vec::new();
    if k.waves_per_workgroup > 1 {
        check_races(events, &mut diags);
    }
    if die.arch != MatrixArch::Ampere {
        check_waitcnt(events, &mut diags);
        check_max_live(die, k, events, &mut diags);
    }
    check_dead_stores(events, &mut diags);
    FlowReport::new(k.name.clone(), diags)
}

/// An LDS access in the event stream, with its stage resolved for the
/// concrete iteration it executed in.
struct LdsEvent {
    span: Span,
    iteration: u64,
    phase: u32,
    buffer: u8,
    stage: u8,
    write: bool,
}

/// Every LDS access of the stream, in stream order.
fn lds_accesses(events: &[Event<'_>]) -> Vec<LdsEvent> {
    events
        .iter()
        .filter_map(|ev| {
            let (access, write) = match ev.op {
                SlotOp::LdsRead { access, .. } => (access, false),
                SlotOp::LdsWrite { access, .. } => (access, true),
                _ => return None,
            };
            Some(LdsEvent {
                span: ev.span,
                iteration: ev.iteration,
                phase: ev.phase,
                buffer: access.buffer,
                stage: access.stage.resolve(ev.iteration),
                write,
            })
        })
        .collect()
}

/// The accesses of one `(phase, buffer, stage)`, by index into the
/// stream's accesses: all of them, and the writes alone.
#[derive(Default)]
struct RaceGroup {
    all: Vec<usize>,
    writes: Vec<usize>,
}

/// Flags every pair of accesses `i < j` to one `(phase, buffer, stage)`
/// of which at least one writes, in `(i, j)` order, each `(rule, span,
/// span)` once. Only accesses of one group can race, so each access
/// visits the later accesses of its own group — all of them for a write,
/// the writes for a read — and the scan is linear in the accesses plus
/// the racing pairs.
fn check_races(events: &[Event<'_>], diags: &mut Vec<FlowDiagnostic>) {
    let accesses = lds_accesses(events);
    let mut index: HashMap<(u32, u8, u8), usize> = HashMap::new();
    let mut groups: Vec<RaceGroup> = Vec::new();
    // Per access: its group, and where the later accesses and the later
    // writes of that group start.
    let mut later = Vec::with_capacity(accesses.len());
    for (i, a) in accesses.iter().enumerate() {
        let g = *index
            .entry((a.phase, a.buffer, a.stage))
            .or_insert_with(|| {
                groups.push(RaceGroup::default());
                groups.len() - 1
            });
        let group = &mut groups[g];
        group.all.push(i);
        if a.write {
            group.writes.push(i);
        }
        later.push((g, group.all.len(), group.writes.len()));
    }
    let mut seen: HashSet<(FlowRule, Span, Span)> = HashSet::new();
    for (a, &(g, all_from, writes_from)) in accesses.iter().zip(&later) {
        let partners = match a.write {
            true => &groups[g].all[all_from..],
            false => &groups[g].writes[writes_from..],
        };
        for b in partners.iter().map(|&j| &accesses[j]) {
            let rule = race_rule(a.write, b.write).expect("a partner pair holds a write");
            if seen.insert((rule, a.span, b.span)) {
                diags.push(race(a, b, rule));
            }
        }
    }
}

/// The race two accesses in stream order form, `None` for two reads.
fn race_rule(first_writes: bool, second_writes: bool) -> Option<FlowRule> {
    match (first_writes, second_writes) {
        (true, true) => Some(FlowRule::LdsRaceWaw),
        (true, false) => Some(FlowRule::LdsRaceRaw),
        (false, true) => Some(FlowRule::LdsRaceWar),
        (false, false) => None,
    }
}

/// The finding for accesses `a` then `b` racing under `rule`.
fn race(a: &LdsEvent, b: &LdsEvent, rule: FlowRule) -> FlowDiagnostic {
    let kinds = |w: bool| if w { "write" } else { "read" };
    FlowDiagnostic::new(
        rule,
        Some(b.span),
        format!(
            "lds {} at {} (iteration {}) and lds {} at {} (iteration {}) touch \
             buffer {} stage {} inside the same barrier interval; nothing orders \
             one wave's access against another's",
            kinds(a.write),
            a.span,
            a.iteration,
            kinds(b.write),
            b.span,
            b.iteration,
            a.buffer,
            a.stage,
        ),
    )
    .with_help(
        "insert a Barrier between the conflicting accesses, or stage them \
         through different buffers/stages (double-buffering)",
    )
}

/// Index of a counter class's queue in `check_waitcnt`.
fn counter_slot(class: CounterClass) -> usize {
    match class {
        CounterClass::Vm => 0,
        CounterClass::Lgkm => 1,
    }
}

fn check_waitcnt(events: &[Event<'_>], diags: &mut Vec<FlowDiagnostic>) {
    // Outstanding op event indices per counter class, in issue order.
    // Both counters retire strictly in order on GCN, so a wait pops from
    // the front and each queue holds a suffix of its class's issues: an
    // op is still pending exactly when the queue's oldest entry is not
    // newer than it.
    let mut outstanding: [VecDeque<usize>; 2] = [VecDeque::new(), VecDeque::new()];
    let lgkm = counter_slot(CounterClass::Lgkm);
    // Producers as `(event index, counter queue)`.
    let mut last_load: Option<(usize, usize)> = None;
    let mut last_producer: Option<(usize, usize)> = None;
    let mut seen: HashSet<(FlowRule, Span)> = HashSet::new();
    let pending = |outstanding: &[VecDeque<usize>; 2], (idx, queue): (usize, usize)| {
        outstanding[queue]
            .front()
            .is_some_and(|&oldest| oldest <= idx)
    };
    for (idx, ev) in events.iter().enumerate() {
        match ev.op {
            SlotOp::GlobalLoad { counter, .. } => {
                let queue = counter_slot(*counter);
                outstanding[queue].push_back(idx);
                last_load = Some((idx, queue));
                last_producer = Some((idx, queue));
            }
            SlotOp::GlobalStore { counter, .. } => {
                outstanding[counter_slot(*counter)].push_back(idx);
            }
            SlotOp::LdsRead { .. } => {
                outstanding[lgkm].push_back(idx);
                last_producer = Some((idx, lgkm));
            }
            SlotOp::LdsWrite { .. } => {
                if let Some(load) = last_load {
                    if pending(&outstanding, load)
                        && seen.insert((FlowRule::InsufficientWaitcnt, ev.span))
                    {
                        diags.push(
                            FlowDiagnostic::new(
                                FlowRule::InsufficientWaitcnt,
                                Some(ev.span),
                                format!(
                                    "lds write stages data from the global load at {} before \
                                     any s_waitcnt retires it",
                                    events[load.0].span
                                ),
                            )
                            .with_help("insert `Waitcnt(WaitSpec::vm(0))` before the lds write"),
                        );
                    }
                }
                outstanding[lgkm].push_back(idx);
            }
            SlotOp::Waitcnt(spec) => {
                for class in [CounterClass::Vm, CounterClass::Lgkm] {
                    if spec.bounds(class) {
                        let bound = usize::from(spec.bound(class));
                        let queue = &mut outstanding[counter_slot(class)];
                        let retired = queue.len().saturating_sub(bound);
                        queue.drain(..retired);
                    }
                }
            }
            SlotOp::Barrier => {
                let lgkm = &outstanding[lgkm];
                if !lgkm.is_empty() && seen.insert((FlowRule::BarrierLgkmPending, ev.span)) {
                    diags.push(
                        FlowDiagnostic::new(
                            FlowRule::BarrierLgkmPending,
                            Some(ev.span),
                            format!(
                                "barrier executes with {} lds/scalar op(s) still outstanding \
                                 on lgkmcnt (first: {}); s_barrier synchronizes execution, \
                                 not memory",
                                lgkm.len(),
                                events[lgkm[0]].span
                            ),
                        )
                        .with_help("insert `Waitcnt(WaitSpec::lgkm(0))` before the Barrier"),
                    );
                }
            }
            SlotOp::Mfma(_) | SlotOp::Valu(_) => {
                if let Some(producer) = last_producer {
                    if pending(&outstanding, producer)
                        && seen.insert((FlowRule::InsufficientWaitcnt, ev.span))
                    {
                        let p = producer.0;
                        let (class, mnem) = match events[p].op {
                            SlotOp::LdsRead { .. } => ("lgkmcnt", "lds read"),
                            _ => ("vmcnt", "global load"),
                        };
                        diags.push(
                            FlowDiagnostic::new(
                                FlowRule::InsufficientWaitcnt,
                                Some(ev.span),
                                format!(
                                    "consumer reads data from the {mnem} at {} before any \
                                     s_waitcnt retires it on {class}",
                                    events[p].span
                                ),
                            )
                            .with_help(format!(
                                "insert a `Waitcnt` bounding {class} between the {mnem} and \
                                 this consumer"
                            )),
                        );
                    }
                }
            }
            _ => {}
        }
    }
}

fn check_dead_stores(events: &[Event<'_>], diags: &mut Vec<FlowDiagnostic>) {
    let mut read_stages: HashMap<u8, HashSet<u8>> = HashMap::new();
    for ev in events {
        if let SlotOp::LdsRead { access, .. } = ev.op {
            read_stages
                .entry(access.buffer)
                .or_default()
                .extend(access.stage.stage_set());
        }
    }
    let mut seen: HashSet<Span> = HashSet::new();
    for ev in events {
        if let SlotOp::LdsWrite { access, .. } = ev.op {
            if !seen.insert(ev.span) {
                continue;
            }
            let reads = read_stages.get(&access.buffer);
            let live = access
                .stage
                .stage_set()
                .any(|s| reads.is_some_and(|r| r.contains(&s)));
            if !live {
                diags.push(
                    FlowDiagnostic::new(
                        FlowRule::DeadLdsStore,
                        Some(ev.span),
                        format!(
                            "lds write to buffer {} stage(s) {:?} is never read by any lds \
                             read in the program",
                            access.buffer,
                            access.stage.stage_set().collect::<Vec<_>>(),
                        ),
                    )
                    .with_help(
                        "drop the store, or fix the stage tag so a consumer's stage set \
                         overlaps it",
                    ),
                );
            }
        }
    }
}

/// VGPRs one streaming interval holds live: a quarter-VGPR per byte per
/// lane, capped by the streaming window.
fn stream_vgprs(bytes_per_lane: u32) -> u32 {
    bytes_per_lane.div_ceil(4).min(STREAM_WINDOW_VGPRS)
}

/// A producer→consumer def-use interval over the event stream.
struct Interval {
    start: usize,
    end: usize,
    vgprs: u32,
    /// Whether the interval occupies architectural VGPRs. Loads consumed
    /// by MFMA land in fragment registers (already counted via the
    /// instruction's operand footprint) and stores drain accumulators,
    /// so only `LdsWrite`/`Valu`-consumed streams count.
    counted: bool,
}

/// The largest total `vgprs` the counted intervals hold live at any
/// event index `t < len`, an interval being live over `start <= t < end`
/// (every interval has `start <= end <= len`). One difference-array
/// sweep: each interval adds its registers at `start` and releases them
/// at `end`.
fn peak_live(intervals: &[Interval], len: usize) -> u32 {
    let mut delta = vec![0i64; len + 1];
    for iv in intervals.iter().filter(|iv| iv.counted) {
        delta[iv.start] += i64::from(iv.vgprs);
        delta[iv.end] -= i64::from(iv.vgprs);
    }
    let mut live = 0i64;
    let mut peak = 0i64;
    for d in &delta[..len] {
        live += d;
        peak = peak.max(live);
    }
    u32::try_from(peak).unwrap_or(u32::MAX)
}

fn check_max_live(
    die: &DieSpec,
    k: &KernelDesc,
    events: &[Event<'_>],
    diags: &mut Vec<FlowDiagnostic>,
) {
    // Match each load to its nearest later consumer (newest-open-first,
    // mirroring how hand-scheduled kernels chain registers).
    let mut open: Vec<(usize, u32, bool)> = Vec::new(); // (event, vgprs, is_lds_read)
    let mut intervals: Vec<Interval> = Vec::new();
    let close = |open: &mut Vec<(usize, u32, bool)>,
                 intervals: &mut Vec<Interval>,
                 end: usize,
                 counted: bool,
                 loads_only: bool| {
        let pos = open
            .iter()
            .rposition(|&(_, _, is_lds)| !loads_only || !is_lds);
        if let Some(pos) = pos {
            let (start, vgprs, _) = open.remove(pos);
            intervals.push(Interval {
                start,
                end,
                vgprs,
                counted,
            });
        }
    };
    for (idx, ev) in events.iter().enumerate() {
        match ev.op {
            SlotOp::GlobalLoad { bytes_per_lane, .. } => {
                open.push((idx, stream_vgprs(*bytes_per_lane), false));
            }
            SlotOp::LdsRead { bytes_per_lane, .. } => {
                open.push((idx, stream_vgprs(*bytes_per_lane), true));
            }
            SlotOp::LdsWrite { .. } => close(&mut open, &mut intervals, idx, true, true),
            SlotOp::Valu(_) => close(&mut open, &mut intervals, idx, true, false),
            SlotOp::Mfma(_) => close(&mut open, &mut intervals, idx, false, false),
            SlotOp::GlobalStore { .. } => close(&mut open, &mut intervals, idx, false, false),
            _ => {}
        }
    }
    // A load nothing ever consumes still holds its destination registers
    // to the end of the program: count it conservatively.
    for (start, vgprs, _) in open {
        intervals.push(Interval {
            start,
            end: events.len(),
            vgprs,
            counted: true,
        });
    }
    let peak = peak_live(&intervals, events.len());
    let req_arch = events
        .iter()
        .filter_map(|ev| match ev.op {
            SlotOp::Mfma(i) => Some(i.a_vgprs_per_lane() + i.b_vgprs_per_lane()),
            _ => None,
        })
        .max()
        .unwrap_or(0);
    let est = SCRATCH_VGPRS + req_arch + peak;
    if est > die.vgprs_per_simd {
        diags.push(
            FlowDiagnostic::new(
                FlowRule::MaxLiveOverflow,
                None,
                format!(
                    "estimated peak register working set ({est} VGPRs = {SCRATCH_VGPRS} \
                     scratch + {req_arch} operand + {peak} streaming) exceeds the register \
                     file ({} per SIMD)",
                    die.vgprs_per_simd
                ),
            )
            .with_help("retire loads sooner (waitcnt batching) or shrink the tile"),
        );
    } else if est > k.arch_vgprs {
        diags.push(
            FlowDiagnostic::new(
                FlowRule::MaxLiveUnderdeclared,
                None,
                format!(
                    "estimated peak register working set ({est} VGPRs = {SCRATCH_VGPRS} \
                     scratch + {req_arch} operand + {peak} streaming) exceeds the declared \
                     arch_vgprs budget ({})",
                    k.arch_vgprs
                ),
            )
            .with_help("raise arch_vgprs so the occupancy model sees the real footprint"),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_isa::specs;
    use mc_isa::{LdsAccess, WaitSpec, WaveProgram};
    use mc_types::DType;
    use proptest::prelude::*;

    fn die() -> DieSpec {
        specs::mi250x().die
    }

    fn kernel(program: WaveProgram) -> KernelDesc {
        KernelDesc {
            waves_per_workgroup: 4,
            workgroups: 8,
            lds_bytes_per_workgroup: 16 * 1024,
            arch_vgprs: 64,
            acc_vgprs: 16,
            ..KernelDesc::new("flow-test", program)
        }
    }

    fn mfma() -> SlotOp {
        SlotOp::Mfma(
            *mc_isa::cdna2_catalog()
                .find(DType::F32, DType::F16, 16, 16, 16)
                .unwrap(),
        )
    }

    #[test]
    fn single_buffered_handwritten_pipeline_is_clean() {
        let stage = LdsAccess::fixed(0);
        let program = WaveProgram {
            prologue: vec![SlotOp::Scalar].into(),
            body: vec![
                SlotOp::global_load(16),
                SlotOp::Waitcnt(WaitSpec::vm(0)),
                SlotOp::lds_write(16, stage),
                SlotOp::Waitcnt(WaitSpec::lgkm(0)),
                SlotOp::Barrier,
                SlotOp::lds_read(16, stage),
                SlotOp::Waitcnt(WaitSpec::lgkm(0)),
                mfma(),
                SlotOp::Scalar,
                SlotOp::Barrier,
            ]
            .into(),
            body_iterations: 8,
            epilogue: vec![SlotOp::global_store(16)].into(),
        };
        let report = analyze_kernel(&die(), &kernel(program));
        assert!(report.is_clean(), "{}", report.render());
    }

    #[test]
    fn double_buffered_rotation_is_proven_race_free() {
        let program = WaveProgram {
            prologue: vec![
                SlotOp::global_load(16),
                SlotOp::Waitcnt(WaitSpec::vm(0)),
                SlotOp::lds_write(16, LdsAccess::fixed(0)),
                SlotOp::Waitcnt(WaitSpec::lgkm(0)),
                SlotOp::Barrier,
            ]
            .into(),
            body: vec![
                SlotOp::global_load(16),
                SlotOp::lds_read(16, LdsAccess::rotating(0, 0, 2)),
                SlotOp::Waitcnt(WaitSpec::lgkm(0)),
                mfma(),
                SlotOp::Waitcnt(WaitSpec::vm(0)),
                SlotOp::lds_write(16, LdsAccess::rotating(0, 1, 2)),
                SlotOp::Waitcnt(WaitSpec::lgkm(0)),
                SlotOp::Barrier,
            ]
            .into(),
            body_iterations: 8,
            epilogue: vec![SlotOp::global_store(16)].into(),
        };
        let report = analyze_kernel(&die(), &kernel(program));
        assert!(report.is_clean(), "{}", report.render());
    }

    #[test]
    fn missing_barrier_races_raw_and_war() {
        let stage = LdsAccess::fixed(0);
        let program = WaveProgram {
            prologue: vec![].into(),
            body: vec![
                SlotOp::global_load(16),
                SlotOp::Waitcnt(WaitSpec::vm(0)),
                SlotOp::lds_write(16, stage),
                SlotOp::Waitcnt(WaitSpec::lgkm(0)),
                SlotOp::lds_read(16, stage),
                SlotOp::Waitcnt(WaitSpec::lgkm(0)),
                mfma(),
            ]
            .into(),
            body_iterations: 4,
            epilogue: vec![SlotOp::global_store(16)].into(),
        };
        let report = analyze_kernel(&die(), &kernel(program));
        assert!(report.fired(FlowRule::LdsRaceRaw), "{}", report.render());
        assert!(report.fired(FlowRule::LdsRaceWaw), "{}", report.render());
        assert!(report.has_errors());
    }

    #[test]
    fn single_wave_workgroups_cannot_race() {
        let stage = LdsAccess::fixed(0);
        let program = WaveProgram {
            prologue: vec![].into(),
            body: vec![
                SlotOp::global_load(16),
                SlotOp::Waitcnt(WaitSpec::vm(0)),
                SlotOp::lds_write(16, stage),
                SlotOp::Waitcnt(WaitSpec::lgkm(0)),
                SlotOp::lds_read(16, stage),
                SlotOp::Waitcnt(WaitSpec::lgkm(0)),
                mfma(),
            ]
            .into(),
            body_iterations: 4,
            epilogue: vec![SlotOp::global_store(16)].into(),
        };
        let mut k = kernel(program);
        k.waves_per_workgroup = 1;
        let report = analyze_kernel(&die(), &k);
        assert!(!report.fired(FlowRule::LdsRaceRaw), "{}", report.render());
        assert!(!report.fired(FlowRule::LdsRaceWaw), "{}", report.render());
    }

    #[test]
    fn stale_stage_tag_is_a_cross_iteration_race() {
        // Both the read and the write resolve to stage i%2: the write
        // clobbers the stage the *other* waves are still reading.
        let program = WaveProgram {
            prologue: vec![].into(),
            body: vec![
                SlotOp::global_load(16),
                SlotOp::lds_read(16, LdsAccess::rotating(0, 0, 2)),
                SlotOp::Waitcnt(WaitSpec::lgkm(0)),
                mfma(),
                SlotOp::Waitcnt(WaitSpec::vm(0)),
                SlotOp::lds_write(16, LdsAccess::rotating(0, 0, 2)),
                SlotOp::Waitcnt(WaitSpec::lgkm(0)),
                SlotOp::Barrier,
            ]
            .into(),
            body_iterations: 8,
            epilogue: vec![].into(),
        };
        let report = analyze_kernel(&die(), &kernel(program));
        assert!(report.fired(FlowRule::LdsRaceWar), "{}", report.render());
    }

    #[test]
    fn unretired_load_consumers_are_flagged() {
        let program = WaveProgram {
            prologue: vec![].into(),
            body: vec![
                SlotOp::global_load(16),
                SlotOp::Valu(mc_isa::ValuOp::new(mc_isa::ValuOpKind::Fma, DType::F32)),
            ]
            .into(),
            body_iterations: 4,
            epilogue: vec![].into(),
        };
        let report = analyze_kernel(&die(), &kernel(program));
        assert!(
            report.fired(FlowRule::InsufficientWaitcnt),
            "{}",
            report.render()
        );
    }

    #[test]
    fn barrier_with_pending_lds_writes_is_flagged() {
        let stage = LdsAccess::fixed(0);
        let program = WaveProgram {
            prologue: vec![].into(),
            body: vec![
                SlotOp::global_load(16),
                SlotOp::Waitcnt(WaitSpec::vm(0)),
                SlotOp::lds_write(16, stage),
                // Missing Waitcnt(lgkm(0)) here.
                SlotOp::Barrier,
                SlotOp::lds_read(16, stage),
                SlotOp::Waitcnt(WaitSpec::lgkm(0)),
                mfma(),
                SlotOp::Scalar,
                SlotOp::Barrier,
            ]
            .into(),
            body_iterations: 4,
            epilogue: vec![].into(),
        };
        let report = analyze_kernel(&die(), &kernel(program));
        assert!(
            report.fired(FlowRule::BarrierLgkmPending),
            "{}",
            report.render()
        );
    }

    #[test]
    fn unread_stage_is_a_dead_store() {
        let program = WaveProgram {
            prologue: vec![].into(),
            body: vec![
                SlotOp::global_load(16),
                SlotOp::Waitcnt(WaitSpec::vm(0)),
                SlotOp::lds_write(16, LdsAccess::fixed(1)),
                SlotOp::Waitcnt(WaitSpec::lgkm(0)),
                SlotOp::Barrier,
                SlotOp::lds_read(16, LdsAccess::fixed(0)),
                SlotOp::Waitcnt(WaitSpec::lgkm(0)),
                mfma(),
                SlotOp::Scalar,
                SlotOp::Barrier,
            ]
            .into(),
            body_iterations: 4,
            epilogue: vec![].into(),
        };
        let report = analyze_kernel(&die(), &kernel(program));
        assert!(report.fired(FlowRule::DeadLdsStore), "{}", report.render());
        // Dead store is a warning, not an error.
        assert_eq!(report.error_count(), 0, "{}", report.render());
    }

    #[test]
    fn trailing_double_buffer_prefetch_is_not_a_dead_store() {
        // The rotating write's stage set {0,1} overlaps the rotating
        // read's {0,1} even though the final iteration's write is never
        // consumed — the stage-set semantics deliberately accept it.
        let program = WaveProgram {
            prologue: vec![].into(),
            body: vec![
                SlotOp::lds_read(16, LdsAccess::rotating(0, 0, 2)),
                SlotOp::Waitcnt(WaitSpec::lgkm(0)),
                mfma(),
                SlotOp::global_load(16),
                SlotOp::Waitcnt(WaitSpec::vm(0)),
                SlotOp::lds_write(16, LdsAccess::rotating(0, 1, 2)),
                SlotOp::Waitcnt(WaitSpec::lgkm(0)),
                SlotOp::Barrier,
            ]
            .into(),
            body_iterations: 8,
            epilogue: vec![].into(),
        };
        let report = analyze_kernel(&die(), &kernel(program));
        assert!(!report.fired(FlowRule::DeadLdsStore), "{}", report.render());
    }

    #[test]
    fn hoarded_loads_blow_the_register_file() {
        // 40 unconsumed 64-byte loads hold 40 × 16 = 640 VGPRs live —
        // more than the 512-register file.
        let program = WaveProgram {
            prologue: vec![SlotOp::global_load(64); 40].into(),
            body: vec![SlotOp::Scalar].into(),
            body_iterations: 1,
            epilogue: vec![].into(),
        };
        let report = analyze_kernel(&die(), &kernel(program));
        assert!(
            report.fired(FlowRule::MaxLiveOverflow),
            "{}",
            report.render()
        );
    }

    #[test]
    fn undeclared_streaming_footprint_warns() {
        let program = WaveProgram {
            prologue: vec![].into(),
            body: vec![
                SlotOp::global_load(64),
                SlotOp::Waitcnt(WaitSpec::vm(0)),
                SlotOp::Valu(mc_isa::ValuOp::new(mc_isa::ValuOpKind::Fma, DType::F32)),
            ]
            .into(),
            body_iterations: 4,
            epilogue: vec![].into(),
        };
        let mut k = kernel(program);
        k.arch_vgprs = 16; // est = 8 scratch + 16 streaming = 24 > 16.
        let report = analyze_kernel(&die(), &k);
        assert!(
            report.fired(FlowRule::MaxLiveUnderdeclared),
            "{}",
            report.render()
        );
        assert!(!report.has_errors(), "{}", report.render());
    }

    #[test]
    fn ampere_skips_gcn_specific_analyses_but_not_races() {
        let a100 = specs::a100().die;
        let stage = LdsAccess::fixed(0);
        let program = WaveProgram {
            prologue: vec![].into(),
            body: vec![
                SlotOp::global_load(16),
                SlotOp::lds_write(16, stage),
                SlotOp::lds_read(16, stage),
            ]
            .into(),
            body_iterations: 4,
            epilogue: vec![].into(),
        };
        let report = analyze_kernel(&a100, &kernel(program));
        assert!(!report.fired(FlowRule::InsufficientWaitcnt));
        assert!(report.fired(FlowRule::LdsRaceRaw), "{}", report.render());
    }

    #[test]
    fn rule_names_are_stable_and_unique() {
        let names: HashSet<&str> = FlowRule::ALL.iter().map(|r| r.as_str()).collect();
        assert_eq!(names.len(), FlowRule::ALL.len());
        assert!(names.contains("lds-race-raw"));
        assert!(names.contains("insufficient-waitcnt"));
        assert!(names.contains("max-live-overflow"));
    }

    #[test]
    fn report_renders_like_lint() {
        let d =
            FlowDiagnostic::new(FlowRule::DeadLdsStore, None, "unused stage").with_help("drop it");
        let report = FlowReport::new("k", vec![d]);
        let text = report.render();
        assert!(text.contains("warning[dead-lds-store]"), "{text}");
        assert!(text.contains("= help: drop it"), "{text}");
        assert!(FlowReport::new("k", vec![]).render().contains("flow clean"));
        let json = serde_json::to_string(&report);
        assert!(json.is_ok());
    }

    /// The per-event rescan `peak_live` replaced: for every event index,
    /// sum the counted intervals covering it, and take the maximum.
    fn peak_live_quadratic(intervals: &[Interval], len: usize) -> u32 {
        (0..len)
            .map(|t| {
                intervals
                    .iter()
                    .filter(|iv| iv.counted && iv.start <= t && t < iv.end)
                    .map(|iv| iv.vgprs)
                    .sum::<u32>()
            })
            .max()
            .unwrap_or(0)
    }

    /// Decodes one random word into an interval over `0..=len`, with
    /// `start <= end`: about a quarter are zero-length and a third
    /// uncounted.
    fn interval(word: u64, len: usize) -> Interval {
        let span = len as u64 + 1;
        let a = (word % span) as usize;
        let b = ((word >> 16) % span) as usize;
        let (start, end) = if (word >> 32).is_multiple_of(4) {
            (a, a)
        } else {
            (a.min(b), a.max(b))
        };
        Interval {
            start,
            end,
            vgprs: stream_vgprs(((word >> 40) % 80) as u32),
            counted: !(word >> 56).is_multiple_of(3),
        }
    }

    #[test]
    fn peak_live_edge_cases() {
        assert_eq!(peak_live(&[], 0), 0);
        assert_eq!(peak_live(&[], 5), 0);
        let iv = |start, end, vgprs, counted| Interval {
            start,
            end,
            vgprs,
            counted,
        };
        // Zero-length and uncounted intervals hold nothing.
        assert_eq!(peak_live(&[iv(2, 2, 9, true), iv(0, 4, 7, false)], 4), 0);
        // Half-open: one interval ends where the next starts.
        assert_eq!(peak_live(&[iv(0, 2, 3, true), iv(2, 4, 5, true)], 4), 5);
        assert_eq!(peak_live(&[iv(0, 3, 3, true), iv(2, 4, 5, true)], 4), 8);
        // An unconsumed load runs to the end of the stream.
        assert_eq!(peak_live(&[iv(1, 4, 16, true), iv(3, 4, 16, true)], 4), 32);
    }

    /// The pairwise scan `check_races` replaced: every pair of accesses
    /// in stream order, filtered to one `(phase, buffer, stage)`.
    fn check_races_pairwise(events: &[Event<'_>], diags: &mut Vec<FlowDiagnostic>) {
        let accesses = lds_accesses(events);
        let mut seen: HashSet<(FlowRule, Span, Span)> = HashSet::new();
        for (i, a) in accesses.iter().enumerate() {
            for b in accesses.iter().skip(i + 1) {
                if a.phase != b.phase || a.buffer != b.buffer || a.stage != b.stage {
                    continue;
                }
                let Some(rule) = race_rule(a.write, b.write) else {
                    continue;
                };
                if !seen.insert((rule, a.span, b.span)) {
                    continue;
                }
                diags.push(race(a, b, rule));
            }
        }
    }

    /// Decodes one random byte into a slot of an LDS event stream: reads
    /// and writes of two buffers, fixed or rotating, and barriers.
    fn lds_slot(byte: u8) -> SlotOp {
        let buffer = byte & 1;
        let access = match (byte >> 1) % 3 {
            0 => LdsAccess::fixed(buffer),
            1 => LdsAccess::fixed(buffer + 1),
            _ => LdsAccess::rotating(buffer, (byte >> 3) & 1, 2),
        };
        match (byte >> 4) % 5 {
            0 | 1 => SlotOp::lds_read(16, access),
            2 | 3 => SlotOp::lds_write(16, access),
            _ => SlotOp::Barrier,
        }
    }

    proptest! {
        /// The grouped scan emits the pairwise scan's findings, in its
        /// order, on random LDS event streams.
        #[test]
        fn check_races_matches_the_pairwise_scan(
            prologue in prop::collection::vec(any::<u8>(), 0..8),
            body in prop::collection::vec(any::<u8>(), 0..16),
            epilogue in prop::collection::vec(any::<u8>(), 0..8),
            iterations in 0u64..5,
        ) {
            let slots = |bytes: &[u8]| bytes.iter().map(|&b| lds_slot(b)).collect();
            let k = kernel(WaveProgram {
                prologue: slots(&prologue),
                body: slots(&body),
                body_iterations: iterations,
                epilogue: slots(&epilogue),
            });
            let events = collect_events(&k);
            let (mut grouped, mut pairwise) = (Vec::new(), Vec::new());
            check_races(&events, &mut grouped);
            check_races_pairwise(&events, &mut pairwise);
            prop_assert_eq!(grouped, pairwise);
        }
    }

    proptest! {
        /// The difference-array sweep gives the rescan's exact peak on
        /// random streams, including empty ones.
        #[test]
        fn peak_live_matches_the_quadratic_scan(
            len in 0usize..48,
            words in prop::collection::vec(any::<u64>(), 0..24),
        ) {
            let intervals: Vec<Interval> = words.iter().map(|&w| interval(w, len)).collect();
            prop_assert_eq!(
                peak_live(&intervals, len),
                peak_live_quadratic(&intervals, len)
            );
        }
    }
}
