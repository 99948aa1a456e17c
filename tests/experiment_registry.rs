//! Integration test for the experiment registry: every registered
//! experiment runs end-to-end at reduced budgets, produces a
//! schema-versioned envelope, and round-trips through JSON.

use mc_bench::experiment::{registry, ExperimentRecord, IterBudgets, RunContext, SCHEMA_VERSION};

/// The stable ids the CLI, EXPERIMENTS.md, and recorded envelopes rely
/// on. Renaming one is a breaking change to the results schema; adding a
/// new experiment means extending this list.
const EXPECTED_IDS: [&str; 24] = [
    "table1",
    "table2",
    "table3",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "solver",
    "mldtypes",
    "generations",
    "saturation",
    "lint",
    "flow",
    "trace",
    "perf",
    "autotune",
    "regress",
    "insight",
    "hostprof",
    "report",
];

#[test]
fn registry_ids_are_stable_and_unique() {
    let experiments = registry();
    let ids: Vec<&str> = experiments.iter().map(|e| e.id()).collect();
    assert_eq!(ids, EXPECTED_IDS);

    let mut sorted = ids.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), ids.len(), "duplicate experiment ids");

    for e in &experiments {
        assert!(!e.title().is_empty(), "{} has no title", e.id());
        assert!(!e.device().is_empty(), "{} names no device", e.id());
    }
}

#[test]
fn every_experiment_runs_and_round_trips_through_json() {
    // Smoke budgets keep the full-registry sweep fast; the simulator is
    // iteration-exact, so the envelopes are structurally identical to
    // paper-budget runs.
    let ctx = RunContext::new(IterBudgets::smoke());
    for exp in registry() {
        if exp.id() == "report" {
            // The report aggregates recorded envelopes; its round-trip
            // is covered separately below.
            continue;
        }
        let record = exp.run(&ctx);
        assert_eq!(record.schema_version, SCHEMA_VERSION, "{}", exp.id());
        assert_eq!(record.experiment, exp.id());
        assert_eq!(record.config, IterBudgets::smoke());
        assert!(!record.rendered.is_empty(), "{} rendered nothing", exp.id());
        assert!(record.wall_time_s >= 0.0);
        assert_eq!(record.checks.len(), exp.checks().len(), "{}", exp.id());

        let json = serde_json::to_string(&record).expect("serializes");
        assert!(json.contains("\"schema_version\""));
        let back: ExperimentRecord = serde_json::from_str(&json).expect("parses back");
        assert_eq!(back, record, "{} does not round-trip", exp.id());
    }
}

#[test]
fn checked_experiments_expose_pass_bands_over_their_payload() {
    // The declarative checks must address real payload fields: at full
    // reduced budgets every pointer resolves (a NaN measurement would
    // mean a dangling JSON pointer).
    let ctx = RunContext::reduced();
    for exp in registry() {
        let checks = exp.checks();
        if checks.is_empty() {
            continue;
        }
        let record = exp.run(&ctx);
        for cmp in &record.checks {
            assert!(
                cmp.measured.is_finite(),
                "{}: check `{}` points at nothing",
                exp.id(),
                cmp.metric
            );
        }
    }
}

#[test]
fn trace_dir_captures_a_perfetto_loadable_timeline() {
    let dir = std::env::temp_dir().join(format!("mc-bench-trace-int-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let ctx = RunContext::new(IterBudgets::smoke()).with_trace(&dir);

    // fig3 drives its device through the context registry, so the traced
    // clone captures its launches without the experiment knowing.
    let fig3 = registry().into_iter().find(|e| e.id() == "fig3").unwrap();
    fig3.run(&ctx);

    let path = dir.join("fig3.trace.json");
    let text = std::fs::read_to_string(&path).expect("trace file written");
    assert!(text.contains("\"traceEvents\""), "not a Chrome trace");
    assert!(text.contains("\"process_name\""));
    assert!(text.contains("\"ph\":\"X\""), "no spans captured");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn metrics_dir_exports_attribution_ledger_and_openmetrics() {
    let base = std::env::temp_dir().join(format!("mc-bench-metrics-int-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let sink = base.join("results");
    let metrics = base.join("metrics");
    let ctx = RunContext::new(IterBudgets::smoke())
        .with_sink(&sink)
        .with_metrics(&metrics);

    let fig3 = registry().into_iter().find(|e| e.id() == "fig3").unwrap();
    fig3.run(&ctx);

    // The ledger lands next to the envelopes, parses back, and carries
    // real kernel records.
    let jsonl = std::fs::read_to_string(sink.join("fig3.attribution.jsonl"))
        .expect("attribution ledger written");
    let records = mc_trace::from_jsonl::<mc_obs::AttributionRecord>(&jsonl).expect("ledger parses");
    assert!(!records.is_empty(), "fig3 launches kernels");
    assert!(records.iter().all(|r| r.eq1_flops > 0));

    // The OpenMetrics snapshot is a well-formed text exposition of the
    // aggregates.
    let om = std::fs::read_to_string(metrics.join("fig3.om")).expect("snapshot written");
    assert!(om.ends_with("# EOF\n"), "missing EOF terminator");
    assert!(om.contains("# TYPE attribution_kernels gauge"));
    assert!(om.contains("# UNIT attribution_eq1_flops flops"));
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn report_experiment_consumes_recorded_envelopes() {
    use mc_bench::experiment::Experiment as _;

    let dir = std::env::temp_dir().join(format!("mc-bench-registry-int-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let ctx = RunContext::reduced().with_sink(&dir);

    // Record the cheapest checked experiment (table2), then let the
    // report experiment pick the envelope up from the sink.
    let table2 = registry().into_iter().find(|e| e.id() == "table2").unwrap();
    let record = table2.run(&ctx);
    ctx.persist(&record).expect("persist").expect("path");

    let report = mc_bench::report::ReportExperiment;
    let envelope = report.run(&ctx);
    assert!(
        envelope.rendered.contains("from 1 recorded envelopes"),
        "report should consume the recorded envelope, not re-run: {}",
        envelope.rendered.lines().last().unwrap_or_default()
    );
    for check in record.checks {
        assert!(
            envelope.rendered.contains(&check.metric),
            "report lost metric {}",
            check.metric
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
