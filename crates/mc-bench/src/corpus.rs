//! The shipped kernel corpus and the sweep both verifier gates run over
//! it.
//!
//! The paper's §IV-A methodology compiles every benchmark with `-S` and
//! inspects the assembly to prove the intended `V_MFMA_*` instructions
//! are emitted. The [`crate::lint`] and [`crate::flow`] gates turn that
//! idea into a check over every kernel the repo ships: one `mc-wmma`
//! loop kernel per catalog instruction per device, the LDS-staged WMMA
//! GEMM tile kernels, and the `mc-blas` planner output for every
//! routine × size on the CDNA2 devices. Any error-severity finding fails
//! the artifact (the `experiments` driver exits non-zero), so a broken
//! kernel generator can never silently ship plausible-but-wrong curves.
//!
//! This module owns the corpus walk, the subject and sweep records, the
//! rendering and the [`crate::experiment::Experiment`] implementation.
//! A [`Gate`] supplies only what differs between the two gates: the
//! verifier it calls, lint's device audits, and flow's flipped-buffering
//! plans.

use std::fmt::Write as _;

use mc_blas::{
    build_plan_with, plan_gemm_with, select_strategy, BlasError, GemmDesc, GemmOp, Strategy,
};
use mc_isa::specs::{DieSpec, PackageSpec};
use mc_isa::{Buffering, KernelDesc, MatrixArch};
use mc_lint::{Finding, Rejection, Report, VerifyMemo};
use mc_sim::{DeviceId, DeviceRegistry};
use mc_wmma::{mma_loop_kernel, wmma_gemm_tile_kernel, LoopKernelParams, WmmaError};
use serde::{Serialize, Value};

use crate::experiment::{Check, Experiment, RunContext};

/// What one verifier gate contributes to the shared corpus sweep.
pub trait Gate: Send + Sync {
    /// The verifier's diagnostic type.
    type Diag: Finding + Clone + Serialize + Send;
    /// Experiment id, metric-family infix and check-name prefix.
    const ID: &'static str;
    /// Experiment title.
    const TITLE: &'static str;
    /// First line of the rendered sweep.
    const HEADER: &'static str;
    /// Corpus classes, in render order.
    const KINDS: &'static [&'static str];
    /// Check names for the error and warning totals.
    const CHECKS: [&'static str; 2];
    /// Whether each Matrix Core plan is also verified with the opposite
    /// buffering mode.
    const FLIPPED_PLANS: bool;

    /// Verifies one kernel against a die.
    fn verify(die: &DieSpec, k: &KernelDesc) -> Report<Self::Diag>;
    /// This gate's report out of a compile path's rejection, or `None`
    /// when the other verifier rejected the kernel.
    fn own(r: Rejection) -> Option<Report<Self::Diag>>;
    /// The device-spec audit, run first for each device.
    fn audit(package: &PackageSpec) -> Option<Report<Self::Diag>>;
}

/// One verified subject (a kernel or a device spec).
#[derive(Clone, Debug, PartialEq)]
pub struct Subject<D> {
    /// Registry name of the device the subject was verified against.
    pub device: String,
    /// Corpus class: `device-audit`, `wmma-loop`, `wmma-tile`, or
    /// `gemm-plan`.
    pub kind: String,
    /// Kernel name or audit subject.
    pub subject: String,
    /// Error-severity findings.
    pub errors: usize,
    /// Warning-severity findings.
    pub warnings: usize,
    /// The findings themselves (empty for clean subjects).
    pub diagnostics: Vec<D>,
}

impl<D: Finding> Subject<D> {
    fn new(device: &str, kind: &str, report: Report<D>) -> Self {
        Subject {
            device: device.to_owned(),
            kind: kind.to_owned(),
            errors: report.error_count(),
            warnings: report.warning_count(),
            subject: report.subject,
            diagnostics: report.diagnostics,
        }
    }
}

impl<D: Serialize> Serialize for Subject<D> {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("device".to_owned(), self.device.to_value()),
            ("kind".to_owned(), self.kind.to_value()),
            ("subject".to_owned(), self.subject.to_value()),
            ("errors".to_owned(), self.errors.to_value()),
            ("warnings".to_owned(), self.warnings.to_value()),
            ("diagnostics".to_owned(), self.diagnostics.to_value()),
        ])
    }
}

/// The full sweep result.
#[derive(Clone, Debug, PartialEq)]
pub struct Sweep<D> {
    /// Every verified subject, in sweep order.
    pub subjects: Vec<Subject<D>>,
    /// Compile-path failures that prevented building a corpus kernel
    /// (always empty for a healthy tree; counted as errors).
    pub build_failures: Vec<String>,
    /// Total error-severity findings across all subjects and failures.
    pub total_errors: usize,
    /// Total warning-severity findings.
    pub total_warnings: usize,
}

impl<D: Serialize> Serialize for Sweep<D> {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("subjects".to_owned(), self.subjects.to_value()),
            ("build_failures".to_owned(), self.build_failures.to_value()),
            ("total_errors".to_owned(), self.total_errors.to_value()),
            ("total_warnings".to_owned(), self.total_warnings.to_value()),
        ])
    }
}

/// GEMM problem edges the planner corpus covers: the tiny strategy
/// boundary, a mid-size tile-exact point, and a padded off-grid size.
const GEMM_SIZES: [usize; 3] = [16, 1024, 4000];

/// Why a corpus kernel was not built: the message, and the verifier
/// rejection behind it, if a verifier refused the kernel.
struct Failure {
    rejection: Option<Rejection>,
    message: String,
}

impl From<WmmaError> for Failure {
    fn from(e: WmmaError) -> Self {
        let message = e.to_string();
        let rejection = match e {
            WmmaError::Lint(r) => Some(Rejection::Lint(r)),
            WmmaError::Flow(r) => Some(Rejection::Flow(r)),
            _ => None,
        };
        Failure { rejection, message }
    }
}

impl From<BlasError> for Failure {
    fn from(e: BlasError) -> Self {
        let message = e.to_string();
        let rejection = match e {
            BlasError::Lint(r) => Some(Rejection::Lint(r)),
            BlasError::Flow(r) => Some(Rejection::Flow(r)),
            _ => None,
        };
        Failure { rejection, message }
    }
}

/// How one corpus subject is built.
enum Build {
    /// The device-spec audit (lint only).
    Audit,
    /// A throughput loop kernel.
    Loop(LoopKernelParams),
    /// The LDS-staged cooperative tile kernel of one shape.
    Tile((u32, u32, u32)),
    /// The planner's kernel for a problem, or for a given strategy.
    Plan(GemmDesc, Option<Strategy>),
}

/// One corpus subject, before it is built and verified.
struct Item {
    device: DeviceId,
    kind: &'static str,
    label: String,
    build: Build,
}

/// What verifying one item gave: a subject, a build failure, or
/// nothing (a device the gate has no audit for).
enum Outcome<D> {
    Subject(Subject<D>),
    Failure(String),
    Skipped,
}

/// The corpus of every registered device, in sweep order.
fn items<G: Gate>(devices: &DeviceRegistry) -> Vec<Item> {
    let mut items = Vec::new();
    for id in DeviceId::ALL {
        let device = id.as_str();
        let die = &devices.config(id).package.die;
        let mut add = |kind, label, build| {
            items.push(Item {
                device: id,
                kind,
                label,
                build,
            })
        };
        add("device-audit", String::new(), Build::Audit);

        // One throughput loop kernel per catalog instruction.
        let waves = match die.arch {
            MatrixArch::Cdna1 | MatrixArch::Cdna2 => 440,
            MatrixArch::Ampere => 432,
        };
        let mut seen = Vec::new();
        for instr in mc_lint::catalog_for(die.arch).instructions() {
            if seen.contains(&instr.mnemonic()) {
                continue;
            }
            seen.push(instr.mnemonic());
            let params = LoopKernelParams {
                arch: die.arch,
                cd: instr.cd,
                ab: instr.ab,
                shape: (instr.shape.m, instr.shape.n, instr.shape.k),
                wavefronts: waves,
                iterations: 64,
            };
            let label = format!("{device}: {}", instr.mnemonic());
            add("wmma-loop", label, Build::Loop(params));
        }

        if die.arch != MatrixArch::Cdna2 {
            continue;
        }
        // The LDS-staged cooperative tile kernel, both CDNA2 shapes.
        for shape in [(16, 16, 16), (32, 32, 8)] {
            add(
                "wmma-tile",
                format!("{device}: tile {shape:?}"),
                Build::Tile(shape),
            );
        }
        // Planner output for every routine × size. The planner targets
        // the CDNA2 catalog, so only CDNA2 devices host it.
        for op in GemmOp::ALL {
            for n in GEMM_SIZES {
                let desc = GemmDesc::square(op, n);
                add(
                    "gemm-plan",
                    format!("{device}: {op} N={n}"),
                    Build::Plan(desc, None),
                );
                if !G::FLIPPED_PLANS {
                    continue;
                }
                if let Strategy::MatrixCore {
                    instr,
                    macro_tile,
                    wave_tile,
                    k_step,
                    buffering,
                } = select_strategy(&desc)
                {
                    let flipped = Strategy::MatrixCore {
                        instr,
                        macro_tile,
                        wave_tile,
                        k_step,
                        buffering: match buffering {
                            Buffering::Single => Buffering::Double,
                            Buffering::Double => Buffering::Single,
                        },
                    };
                    let label = format!("{device}: {op} N={n} flipped");
                    add("gemm-plan", label, Build::Plan(desc, Some(flipped)));
                }
            }
        }
    }
    items
}

/// Builds and verifies one item. A built kernel is verified; a kernel
/// its compile path refused is reported from this gate's rejection, or
/// is a build failure.
fn verify<G: Gate>(devices: &DeviceRegistry, memo: &VerifyMemo, item: Item) -> Outcome<G::Diag> {
    let package = &devices.config(item.device).package;
    let die = &package.die;
    let built: Result<KernelDesc, Failure> = match item.build {
        Build::Audit => {
            return match G::audit(package) {
                Some(report) => {
                    Outcome::Subject(Subject::new(item.device.as_str(), item.kind, report))
                }
                None => Outcome::Skipped,
            }
        }
        Build::Loop(params) => mma_loop_kernel(params).map_err(Failure::from),
        Build::Tile(shape) => wmma_gemm_tile_kernel(
            die.arch,
            mc_types::DType::F32,
            mc_types::DType::F16,
            shape,
            64,
        )
        .map_err(Failure::from),
        Build::Plan(desc, None) => plan_gemm_with(memo, die, &desc)
            .map(|p| p.kernel)
            .map_err(Failure::from),
        Build::Plan(desc, Some(strategy)) => build_plan_with(memo, die, &desc, strategy)
            .map(|p| p.kernel)
            .map_err(Failure::from),
    };
    let report = match built {
        Ok(kernel) => G::verify(die, &kernel),
        Err(f) => match f.rejection.and_then(G::own) {
            Some(report) => report,
            None => return Outcome::Failure(format!("{}: {}", item.label, f.message)),
        },
    };
    Outcome::Subject(Subject::new(item.device.as_str(), item.kind, report))
}

/// Runs gate `G` over the corpus of every registered device: the
/// subjects are listed, built and verified in parallel, then assembled
/// in sweep order.
pub fn run<G: Gate>(devices: &DeviceRegistry) -> Sweep<G::Diag> {
    // The corpus plans are built verifying each kernel shape once; the
    // gate's report on every built kernel still comes from `G::verify`.
    let memo = VerifyMemo::new();
    let outcomes = crate::experiment::par_map(
        devices.trace_sink().is_none(),
        items::<G>(devices),
        |item| verify::<G>(devices, &memo, item),
    );
    let mut subjects = Vec::new();
    let mut build_failures = Vec::new();
    for outcome in outcomes {
        match outcome {
            Outcome::Subject(subject) => subjects.push(subject),
            Outcome::Failure(failure) => build_failures.push(failure),
            Outcome::Skipped => {}
        }
    }

    let total_errors = subjects.iter().map(|s| s.errors).sum::<usize>() + build_failures.len();
    let total_warnings = subjects.iter().map(|s| s.warnings).sum();
    Sweep {
        subjects,
        build_failures,
        total_errors,
        total_warnings,
    }
}

/// Renders a sweep of gate `G` as text.
pub fn render<G: Gate>(sweep: &Sweep<G::Diag>) -> String {
    let mut s = format!("{}\n", G::HEADER);
    let _ = writeln!(
        s,
        "{:<12} {:<14} {:>8} {:>7} {:>9}",
        "device", "class", "subjects", "errors", "warnings"
    );
    for id in DeviceId::ALL {
        for kind in G::KINDS {
            let rows: Vec<&Subject<G::Diag>> = sweep
                .subjects
                .iter()
                .filter(|r| r.device == id.as_str() && r.kind == *kind)
                .collect();
            if rows.is_empty() {
                continue;
            }
            let _ = writeln!(
                s,
                "{:<12} {:<14} {:>8} {:>7} {:>9}",
                id.as_str(),
                kind,
                rows.len(),
                rows.iter().map(|r| r.errors).sum::<usize>(),
                rows.iter().map(|r| r.warnings).sum::<usize>(),
            );
        }
    }
    for failure in &sweep.build_failures {
        let _ = writeln!(s, "build failure: {failure}");
    }
    for subject in &sweep.subjects {
        for d in &subject.diagnostics {
            s.push_str(&d.render(&subject.subject));
        }
    }
    let _ = writeln!(
        s,
        "total: {} subject(s), {} error(s), {} warning(s){}",
        sweep.subjects.len(),
        sweep.total_errors,
        sweep.total_warnings,
        if sweep.total_errors == 0 {
            format!(" — corpus is {} clean", G::ID)
        } else {
            " — FAILING".to_owned()
        }
    );
    s
}

impl<G: Gate> Experiment for G {
    fn id(&self) -> &'static str {
        G::ID
    }

    fn title(&self) -> &'static str {
        G::TITLE
    }

    fn device(&self) -> &'static str {
        "all"
    }

    fn checks(&self) -> Vec<Check> {
        let [errors, warnings] = G::CHECKS;
        vec![
            Check::new(errors, 0.0, 0.0, "/total_errors"),
            Check::new(warnings, 0.0, 0.0, "/total_warnings"),
        ]
    }

    fn execute(&self, ctx: &RunContext) -> (Value, String) {
        let sweep = run::<G>(&ctx.devices);
        let counts = mc_obs::VerifierCounts::new(
            G::ID,
            sweep.subjects.len(),
            sweep.total_errors,
            sweep.total_warnings,
        );
        if let Err(e) = ctx.persist_verifier_metrics(G::ID, &counts) {
            eprintln!("error: could not write {} verifier metrics: {e}", G::ID);
        }
        (serde_json::to_value(&sweep), render::<G>(&sweep))
    }
}
