//! Statistics, the JSON result line, and the facts each run records about
//! its inputs and machine.

use std::fmt::Write as _;

/// The `q`-quantile of `values` (nearest rank on the sorted samples).
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// One named metric of the result line.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// The last line of a run's standard output.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // Non-finite values are not JSON; a metric that cannot be measured
        // reads as 0.
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        write!(out, "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}", m.name, m.unit)
            .expect("writing to a String cannot fail");
    }
    out.push_str("}}");
    out
}

/// FNV-1a over byte strings: the input fingerprint two commits compare.
#[derive(Clone, Copy, Debug)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    pub fn add(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        // Separator, so that ("ab", "c") and ("a", "bc") differ.
        self.0 ^= 0xff;
        self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
    }

    pub fn add_f64s(&mut self, values: &[f64]) {
        let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_bits().to_le_bytes()).collect();
        self.add(&bytes);
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The CPU features the sparse lane kernel dispatches on (`avx`), plus the
/// neighbouring ones that change its code generation.
pub fn cpu_flags() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        let flags = [
            ("avx", std::arch::is_x86_feature_detected!("avx")),
            ("avx2", std::arch::is_x86_feature_detected!("avx2")),
            ("fma", std::arch::is_x86_feature_detected!("fma")),
        ];
        let on: Vec<&str> = flags.iter().filter(|f| f.1).map(|f| f.0).collect();
        if on.is_empty() {
            "none".to_string()
        } else {
            on.join(",")
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        "none".to_string()
    }
}

/// The commit the checkout was made from, when it is a git work tree, and
/// an FNV-1a digest of the library sources either way, so two runs can be
/// matched to the program they measured even outside git.
pub fn program_identity() -> (String, String) {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let commit = std::fs::read_to_string(root.join(".git/HEAD"))
        .ok()
        .and_then(|head| match head.trim().strip_prefix("ref: ") {
            Some(r) => std::fs::read_to_string(root.join(".git").join(r)).ok(),
            None => Some(head),
        })
        .map_or_else(|| "unknown".to_string(), |c| c.trim().to_string());
    let mut files = Vec::new();
    collect_sources(&root.join("crates"), &mut files);
    files.sort();
    let mut digest = Fingerprint::default();
    for path in &files {
        if let Ok(bytes) = std::fs::read(path) {
            digest.add(path.strip_prefix(&root).unwrap_or(path).to_string_lossy().as_bytes());
            digest.add(&bytes);
        }
    }
    (commit, format!("{:016x}", digest.value()))
}

fn collect_sources(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
            out.push(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.0);
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn result_line_is_flat_json() {
        let line = result_json(true, 3, 0, &[Metric::new("a", 1.5, "ms")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
    }
}
