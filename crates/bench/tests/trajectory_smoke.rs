//! Smoke over the committed perf trajectory: the `BENCH_sampling.json` at
//! the repository root must carry every
//! `mesh{256,1024,4096}_{markowitz,amd}_{direct,gmres}` row and every
//! plan-build row (`plan_ua741_{probe,compile,cached}`,
//! `plan_mesh1024_probe`) and interpolation-layer row (`dft_41_forward`,
//! `window_ua741_reduction`) — a snapshot regenerated with an older binary
//! would silently drop them — and its recorded mesh1024 hybrid ratio must
//! show the anchored-GMRES path beating per-point direct
//! refactorization.

/// Extracts the numeric value following `"key": ` in the flat trajectory
/// JSON (the format is machine-written, so plain string scanning is
/// reliable and keeps the test dependency-free).
fn derived_value(json: &str, key: &str) -> f64 {
    let needle = format!("\"{key}\": ");
    let at = json.find(&needle).unwrap_or_else(|| panic!("derived entry {key} missing"));
    let rest = &json[at + needle.len()..];
    let end = rest.find([',', '\n', '}']).expect("value terminated");
    rest[..end].trim().parse().expect("numeric derived value")
}

#[test]
fn committed_trajectory_has_mesh_rows() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sampling.json");
    let json = std::fs::read_to_string(path).expect("committed BENCH_sampling.json readable");
    for nodes in [256, 1024, 4096] {
        for ordering in ["markowitz", "amd"] {
            for eval_path in ["direct", "gmres"] {
                let row = format!("\"mesh{nodes}_{ordering}_{eval_path}\"");
                assert!(json.contains(&row), "trajectory is missing the {row} mesh row");
            }
        }
    }
    for row in [
        "plan_ua741_probe",
        "plan_ua741_compile",
        "plan_ua741_cached",
        "plan_mesh1024_probe",
        "dft_41_forward",
        "window_ua741_reduction",
    ] {
        assert!(json.contains(&format!("\"{row}\"")), "trajectory is missing the {row} row");
    }
    let hybrid = derived_value(&json, "mesh1024_hybrid_speedup_vs_direct");
    assert!(
        hybrid > 1.0,
        "recorded mesh1024 hybrid path does not beat direct refactorization: {hybrid}"
    );
}
