//! The machine and build a run measured on. Runs compare only when
//! every field but `commit` agrees: the commit is what a comparison
//! varies, everything else would confound it.

use serde::Value;

/// Variables that re-route the host GEMM ladder or the plan search.
/// The benchmark clears them so every run takes the default routes.
pub const ROUTING_ENV: [&str; 5] = [
    "MC_GEMM_SIMD",
    "MC_GEMM_CROSSOVER",
    "MC_PLAN_SEARCH",
    "MC_PLAN_DB",
    "MC_PERF_N",
];

/// Fields that identify the code rather than the machine.
const CODE_FIELDS: [&str; 1] = ["commit"];

/// Clears [`ROUTING_ENV`]. Call before any thread starts.
pub fn clear_routing_env() {
    for var in ROUTING_ENV {
        std::env::remove_var(var);
    }
}

#[cfg(target_arch = "x86_64")]
fn cpu_features() -> [(&'static str, bool); 3] {
    [
        ("avx2", std::arch::is_x86_feature_detected!("avx2")),
        ("fma", std::arch::is_x86_feature_detected!("fma")),
        ("avx512f", std::arch::is_x86_feature_detected!("avx512f")),
    ]
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_features() -> [(&'static str, bool); 3] {
    [("avx2", false), ("fma", false), ("avx512f", false)]
}

/// The fingerprint of this process, as a JSON object.
pub fn fingerprint() -> Value {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut fields = vec![
        ("nproc".to_owned(), Value::U64(nproc as u64)),
        (
            "rayon_threads".to_owned(),
            Value::U64(rayon::current_num_threads() as u64),
        ),
    ];
    for (name, on) in cpu_features() {
        fields.push((name.to_owned(), Value::Bool(on)));
    }
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    fields.push(("profile".to_owned(), Value::Str(profile.to_owned())));
    fields.push((
        "rustc".to_owned(),
        Value::Str(env!("LAYERBENCH_RUSTC").to_owned()),
    ));
    fields.push((
        "commit".to_owned(),
        Value::Str(format!("src-{}", env!("LAYERBENCH_SOURCE"))),
    ));
    Value::Object(fields)
}

/// The fields on which two fingerprints disagree, ignoring the commit.
pub fn mismatches(a: &Value, b: &Value) -> Vec<String> {
    let keys = |v: &Value| -> Vec<String> {
        v.as_object()
            .unwrap_or_default()
            .iter()
            .map(|(k, _)| k.clone())
            .collect()
    };
    let mut all = keys(a);
    all.extend(keys(b));
    all.sort();
    all.dedup();
    all.into_iter()
        .filter(|k| !CODE_FIELDS.contains(&k.as_str()) && a.get(k) != b.get(k))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commit_alone_does_not_block_a_comparison() {
        let a = fingerprint();
        let mut b = a.clone();
        if let Value::Object(fields) = &mut b {
            for (k, v) in fields.iter_mut() {
                if k == "commit" {
                    *v = Value::Str("src-other".into());
                }
            }
        }
        assert!(mismatches(&a, &b).is_empty());
        if let Value::Object(fields) = &mut b {
            fields.retain(|(k, _)| k != "nproc");
        }
        assert_eq!(mismatches(&a, &b), vec!["nproc".to_owned()]);
    }
}
