//! Whole-solve benchmark runner.
//!
//! ```text
//! cargo run --release --offline --manifest-path solvebench/Cargo.toml -- \
//!     --workload <ua741_refgen|ua741_fleet|mesh_ac|all> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! One process runs one workload as a closed loop with one client: the
//! next operation starts when the previous one has finished and its
//! output has been checked. `--trace 0` prints the end-to-end metrics,
//! `--trace 1` the per-layer ones; the last line of standard output is the
//! JSON result. `--workload all` runs every workload in its own child
//! process and prints each metric with its unit, sample count and seed.

use refgen_solvebench::calibrate::Normaliser;
use refgen_solvebench::report::{self, median, quantile, result_json, Metric};
use refgen_solvebench::trace;
use refgen_solvebench::workload::{Kind, Workload};
use std::process::ExitCode;
use std::time::Instant;

const DEFAULT_SEED: u64 = 20_261_017;
const DEFAULT_SECONDS: f64 = 20.0;
/// Shares of the timed part after which the workload is set up again.
const SETUP_AT: [f64; 3] = [0.25, 0.5, 0.75];
/// Sample count below which the 90th percentile has fewer than ten
/// samples beyond it.
const P90_MIN_SAMPLES: usize = 100;
/// Environment hooks that change library defaults. The benchmark measures
/// the defaults, so it refuses to run while any of them is set.
const LIBRARY_ENV_HOOKS: [&str; 6] = [
    "REFGEN_TEST_THREADS",
    "REFGEN_TEST_EXECUTOR",
    "REFGEN_TEST_CONJ",
    "REFGEN_TEST_LANES",
    "REFGEN_TEST_ORDERING",
    "REFGEN_TEST_FAULTS",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => parsed.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if parsed.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    if !(parsed.seconds > 0.0 && parsed.seconds <= 120.0) {
        return Err(format!("--seconds must be in (0, 120], not {}", parsed.seconds));
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("solvebench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(var) = LIBRARY_ENV_HOOKS.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!("solvebench: {var} is set; unset it to measure the library defaults");
        return ExitCode::from(2);
    }
    if args.workload == "all" {
        return run_all(&args);
    }
    let Some(kind) = Kind::from_name(&args.workload) else {
        eprintln!("solvebench: unknown workload {}", args.workload);
        return ExitCode::from(2);
    };
    let nproc = report::nproc();
    let (commit, source_fnv) = report::program_identity();
    let line = if args.trace {
        let workload = Workload::setup(kind, args.seed, nproc);
        print_identity(&workload, nproc, &commit, &source_fnv);
        let traced = trace::run(&workload, args.seconds, nproc);
        println!("# counts {:?}", traced.counts);
        for m in &traced.metrics {
            println!(
                "# {} = {} {} (seed {}, {} ops)",
                m.name, m.value, m.unit, args.seed, traced.ops
            );
        }
        result_json(
            workload.reference_ok && traced.failed == 0,
            traced.attempted,
            traced.failed,
            &traced.metrics,
        )
    } else {
        timed_run(kind, &args, nproc, start, &commit, &source_fnv)
    };
    println!("{line}");
    ExitCode::SUCCESS
}

fn print_identity(workload: &Workload, nproc: usize, commit: &str, source_fnv: &str) {
    println!(
        "# workload {} seed {} threads {} nproc {nproc} cpu {} commit {commit} source_fnv {source_fnv} \
         inputs_fnv {:016x}",
        workload.kind.name(),
        workload.seed,
        workload.threads,
        report::cpu_flags(),
        workload.inputs_fnv,
    );
    println!(
        "# reference check {} (max Bode magnitude error {:e} dB)",
        if workload.reference_ok { "passed" } else { "FAILED" },
        workload.ac_err_db_max
    );
}

/// Set-up, then operations until `seconds` of operation time have been
/// measured. Each operation's output is checked after its timer stops.
///
/// After each operation the calibration kernel is timed a few times, and
/// each operation's wall time is divided by the median kernel time around
/// it. The latency and throughput metrics are these host-speed-normalised
/// costs; the raw wall-clock figures are printed beside them.
///
/// The workload is set up five times and `setup_s` is the median: first
/// from process start, again after a quarter, half and three quarters of
/// the timed part, and once more after it. Spreading the five over the
/// run keeps one slow spell of a shared host from deciding the figure.
fn timed_run(
    kind: Kind,
    args: &Args,
    nproc: usize,
    start: Instant,
    commit: &str,
    source_fnv: &str,
) -> String {
    let (mut setup_s, mut reference_ok) = (Vec::new(), true);
    let mut set_up = |t0: Instant| {
        let workload = Workload::setup(kind, args.seed, nproc);
        setup_s.push(t0.elapsed().as_secs_f64());
        reference_ok &= workload.reference_ok;
        workload
    };
    let mut workload = set_up(start);
    print_identity(&workload, nproc, commit, source_fnv);

    let mut op_ms = Vec::new();
    let mut normaliser = Normaliser::new(workload.threads);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut timed_s = 0.0;
    let mut resetups = SETUP_AT.iter().peekable();
    let wall = Instant::now();
    // A safety stop keeps a run whose checks turn slow inside its time
    // limit.
    while op_ms.is_empty()
        || (timed_s < args.seconds && wall.elapsed().as_secs_f64() < 3.0 * args.seconds)
    {
        if resetups.next_if(|&&at| timed_s >= at * args.seconds).is_some() {
            // Free the previous set-up's state before timing the next one.
            drop(workload);
            workload = set_up(Instant::now());
        }
        let input = workload.input(op_ms.len() as u64);
        let t = Instant::now();
        let output = workload.run(&input);
        let dt = t.elapsed().as_secs_f64();
        op_ms.push(dt * 1e3);
        timed_s += dt;
        attempted += kind.solves_per_op() as u64;
        failed += workload.failures(output) as u64;
        normaliser.record(t, dt * 1e3);
    }

    drop(workload);
    drop(set_up(Instant::now()));
    let n = op_ms.len();
    let completed = attempted - failed;
    let costs = normaliser.costs();
    let metrics = vec![
        Metric::new("solve_cal_p50", median(&costs), "cal"),
        Metric::new("solve_cal_p90", quantile(&costs, 0.9), "cal"),
        Metric::new(
            "solves_per_kcal",
            1e3 * completed as f64 / costs.iter().sum::<f64>(),
            "1/kcal",
        ),
        Metric::new("success_frac", completed as f64 / attempted as f64, "ratio"),
        Metric::new("peak_rss_mb", report::peak_rss_mib().unwrap_or(0.0), "MiB"),
        Metric::new("setup_s", median(&setup_s), "s"),
    ];
    println!(
        "# {n} ops, {attempted} solves attempted, {failed} failed, {timed_s:.3} s timed, \
         {:.3} s wall; set-ups {setup_s:.3?} s",
        wall.elapsed().as_secs_f64()
    );
    let kernel_ms = normaliser.kernel_ms();
    println!(
        "# calibration kernel {:.4} ms median of {} samples (p10 {:.4}, p90 {:.4})",
        median(&kernel_ms),
        kernel_ms.len(),
        quantile(&kernel_ms, 0.1),
        quantile(&kernel_ms, 0.9)
    );
    let wall_clock = [
        Metric::new("solve_ms_p50", median(&op_ms), "ms"),
        Metric::new("solve_ms_p90", quantile(&op_ms, 0.9), "ms"),
        Metric::new("solves_per_s", completed as f64 / timed_s, "1/s"),
    ];
    for m in metrics.iter().chain(&wall_clock) {
        let note = if m.name.contains("p90") && n < P90_MIN_SAMPLES {
            " — fewer than 10 samples beyond the 90th percentile"
        } else {
            ""
        };
        println!("# {} = {} {} (n = {n} ops, seed {}){note}", m.name, m.value, m.unit, args.seed);
    }
    result_json(reference_ok && failed == 0, attempted, failed, &metrics)
}

/// Runs every workload in its own child process (so `setup_s` and
/// `peak_rss_mb` stay per workload) and echoes each report, prefixed with
/// its workload. Fails when a workload fails or reports incorrect output.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("solvebench: cannot locate own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut all_correct = true;
    for kind in Kind::ALL {
        let output = std::process::Command::new(&exe)
            .args(["--workload", kind.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output();
        match output {
            Ok(out) if out.status.success() => {
                let stdout = String::from_utf8_lossy(&out.stdout);
                for line in stdout.lines() {
                    println!("[{}] {line}", kind.name());
                }
                all_correct &=
                    stdout.lines().last().is_some_and(|l| l.contains("\"correct\": true"));
            }
            Ok(out) => {
                eprintln!("solvebench: {} exited with {}", kind.name(), out.status);
                return ExitCode::from(1);
            }
            Err(e) => {
                eprintln!("solvebench: cannot run {}: {e}", kind.name());
                return ExitCode::from(1);
            }
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("solvebench: a workload reported incorrect output");
        ExitCode::from(1)
    }
}
