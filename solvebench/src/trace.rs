//! The traced run: per-layer figures measured from outside the program.
//!
//! Every span here times a call into one layer's public functions —
//! `parse_netlist` (circuit), `MnaSystem::new` and `SweepPlan` builds and
//! evaluations (mna), `SparseLu::factor` / `FactorProgram::compile` and
//! the GMRES hybrid (sparse), `Dft::forward` (numeric), the session
//! observer (core) and `par_map_indexed` (exec) — replayed with the
//! parameters a real solve recorded (window kinds, scales and point
//! counts). Counts are the program's own public counters. The solve path
//! itself is not instrumented; `trace.coverage` says how much of an
//! operation the replayed spans account for.

use crate::report::{median, Metric};
use crate::workload::{ac_grid, parse_text, session_config, spec, Input, Kind, Output, Workload};
use refgen_circuit::Circuit;
use refgen_core::{
    AdaptiveInterpolator, Diagnostic, NetworkFunction, NullObserver, Observer, PolyKind,
    RefgenConfig, SamplingRuntime,
};
use refgen_exec::par_map_indexed;
use refgen_mna::{
    HybridScratch, MnaSystem, PlanCache, Scale, SelectedOrdering, SweepBatchScratch, SweepPlan,
    SweepScratch,
};
use refgen_numeric::dft::{unit_circle_points, Dft};
use refgen_numeric::{Complex, ExtComplex};
use refgen_sparse::{FactorProgram, SparseLu};
use std::time::Instant;

/// Exact counts of one solve of a workload's reference input. Two traced
/// runs with the same seed must agree on every field, and a fleet's must
/// not depend on its thread count.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub pivot_searches: usize,
    pub plan_cache_hits: usize,
    pub programs_compiled: usize,
    pub windows: usize,
    pub points: usize,
    pub refactor_hits: u64,
    pub gmres_iterations: u64,
    pub gmres_anchors: u64,
    pub gmres_fallbacks: u64,
    pub fill_slots: usize,
    pub amd: bool,
}

/// One interpolation window a solve ran: which polynomial, at which
/// scale, over how many unit-circle points.
#[derive(Clone, Copy, Debug)]
struct WindowRun {
    kind: PolyKind,
    scale: Scale,
    points: usize,
}

/// A circuit and the windows its solve ran — what the replay rebuilds.
struct Unit {
    circuit: Circuit,
    windows: Vec<WindowRun>,
}

fn window_runs(nf: &NetworkFunction) -> Vec<WindowRun> {
    let report = &nf.report;
    // The solve recovers the denominator first.
    [(PolyKind::Denominator, &report.denominator), (PolyKind::Numerator, &report.numerator)]
        .into_iter()
        .flat_map(|(kind, poly)| {
            poly.windows.iter().map(move |w| WindowRun { kind, scale: w.scale, points: w.points })
        })
        .collect()
}

/// Solves the reference input once at `threads` and reads the program's
/// counters; returns the counts and the units the layer replay rebuilds.
fn reference_solve(workload: &Workload, threads: usize) -> (Counts, Vec<Unit>) {
    let mut counts = Counts::default();
    let units = match (workload.kind, workload.reference_input()) {
        (Kind::Ua741Refgen, Input::Text(text)) => {
            let circuit = parse_text(&text).expect("reference netlist parses");
            let sys = MnaSystem::new(&circuit).expect("reference circuit compiles");
            let config = session_config(threads);
            let runtime = SamplingRuntime::new(&config);
            let nf = AdaptiveInterpolator::new(config)
                .network_function_runtime(&sys, &spec(), &mut NullObserver, &runtime)
                .expect("reference solve succeeded in set-up");
            counts.pivot_searches = runtime.pivot_searches();
            counts.plan_cache_hits = runtime.shared_plan_hits();
            counts.programs_compiled = runtime.programs_compiled();
            let report = &nf.report;
            counts.points = report.numerator.total_points + report.denominator.total_points;
            counts.refactor_hits =
                report.numerator.refactor_hits + report.denominator.refactor_hits;
            let windows = window_runs(&nf);
            counts.windows = windows.len();
            vec![Unit { circuit, windows }]
        }
        (Kind::Ua741Fleet, _) => {
            let run = match workload.run_with(&Input::Fixed, threads, None) {
                Output::Fleet(Ok(run)) => run,
                _ => panic!("reference fleet solved in set-up"),
            };
            let r = &run.report;
            counts.pivot_searches = r.pivot_searches;
            counts.plan_cache_hits = r.shared_plan_hits;
            counts.programs_compiled = r.programs_compiled;
            counts.points = r.variant_points.iter().sum();
            counts.refactor_hits = r.total_refactor_hits;
            let circuits = crate::workload::fleet_circuits(workload.seed);
            let units: Vec<Unit> = run
                .outcomes
                .iter()
                .zip(circuits)
                .filter_map(|(o, circuit)| {
                    o.solution().map(|s| Unit { circuit, windows: window_runs(&s.network) })
                })
                .collect();
            counts.windows = units.iter().map(|u| u.windows.len()).sum();
            units
        }
        (Kind::MeshAc, _) => {
            let circuit = crate::workload::ac_mesh(workload.seed);
            let sys = MnaSystem::new(&circuit).expect("mesh compiles");
            let cache = PlanCache::new();
            let plan = SweepPlan::new_cached(&sys, Scale::unit(), &spec(), &cache)
                .expect("mesh plan builds");
            counts.pivot_searches = cache.pivot_searches();
            counts.plan_cache_hits = cache.shared_hits();
            counts.programs_compiled = cache.programs_compiled();
            let mut scratch = SweepScratch::adopting();
            for s in jw(&ac_grid()) {
                plan.eval_at(s, &mut scratch).expect("reference sweep succeeded in set-up");
            }
            counts.points = ac_grid().len();
            counts.refactor_hits = scratch.stats().refactor_hits;
            vec![Unit { circuit, windows: Vec::new() }]
        }
        (Kind::Ua741Refgen, Input::Fixed) => unreachable!(),
    };
    (counts, units)
}

fn jw(freqs: &[f64]) -> Vec<Complex> {
    freqs.iter().map(|&f| Complex::new(0.0, 2.0 * std::f64::consts::PI * f)).collect()
}

/// Exact counts of the reference solve at `threads`, including the
/// GMRES hybrid's and the unit-scale plan's.
pub fn counts(workload: &Workload, threads: usize) -> Counts {
    counts_and_units(workload, threads).0
}

fn counts_and_units(workload: &Workload, threads: usize) -> (Counts, Vec<Unit>) {
    let (mut counts, units) = reference_solve(workload, threads);
    let paths = direct_vs_hybrid(&units[0].circuit, 1);
    counts.gmres_iterations = paths.gmres_iterations;
    counts.gmres_anchors = paths.anchors;
    counts.gmres_fallbacks = paths.fallbacks;
    counts.fill_slots = paths.fill_slots;
    counts.amd = paths.amd;
    (counts, units)
}

/// The direct compiled sweep against the anchored-GMRES hybrid on the
/// `mesh_ac` grid, at unit scale, on `circuit`.
struct Paths {
    direct_us_per_point: f64,
    hybrid_us_per_point: f64,
    gmres_iterations: u64,
    anchors: u64,
    fallbacks: u64,
    fill_slots: usize,
    amd: bool,
}

fn direct_vs_hybrid(circuit: &Circuit, reps: usize) -> Paths {
    let sys = MnaSystem::new(circuit).expect("workload circuits compile");
    let plan = SweepPlan::new(&sys, Scale::unit(), &spec()).expect("unit-scale plan builds");
    let points = jw(&ac_grid());
    let per_point = |t: Instant| t.elapsed().as_secs_f64() * 1e6 / points.len() as f64;
    let (mut direct, mut hybrid) = (Vec::new(), Vec::new());
    let mut stats = None;
    for _ in 0..reps {
        let mut scratch = SweepScratch::adopting();
        let t = Instant::now();
        for &s in &points {
            std::hint::black_box(plan.eval_at(s, &mut scratch).map(|r| r.response).ok());
        }
        direct.push(per_point(t));
        let mut scratch = HybridScratch::new();
        let t = Instant::now();
        for &s in &points {
            std::hint::black_box(plan.eval_at_iterative(s, &mut scratch).ok());
        }
        hybrid.push(per_point(t));
        stats = Some(scratch.stats());
    }
    let stats = stats.expect("at least one repetition");
    Paths {
        direct_us_per_point: median(&direct),
        hybrid_us_per_point: median(&hybrid),
        gmres_iterations: stats.gmres_iterations,
        anchors: stats.anchors,
        fallbacks: stats.fallbacks,
        fill_slots: plan.program().map_or(0, FactorProgram::slots),
        amd: plan.ordering_choice().is_some_and(|c| c.selected == SelectedOrdering::Amd),
    }
}

/// Wall time of each replayed layer for one operation.
#[derive(Clone, Copy, Debug, Default)]
struct Layers {
    assemble_ms: f64,
    plan_ms: f64,
    plan_builds: usize,
    sample_ms: f64,
    sampled_points: usize,
    dft_ms: f64,
    recoveries: u64,
}

/// Replays one operation's layers on `units`: systems across
/// `outer` workers (fleet variants fan out), sampling batches across
/// `inner` workers (session points fan out), exactly as the solve
/// distributes them.
fn replay(units: &[Unit], outer: usize, inner: usize, sweep: bool) -> Layers {
    let mut layers = Layers::default();
    let t = Instant::now();
    let systems: Vec<MnaSystem> = par_map_indexed(
        outer,
        units,
        || (),
        |_, u, _| MnaSystem::new(&u.circuit).expect("workload circuits compile"),
    );
    layers.assemble_ms = ms(t);

    if sweep {
        // The AC sweep: one uncached plan, then a sequential adopting
        // sweep — what `ac_sweep_with_config` runs.
        let t = Instant::now();
        let plan = SweepPlan::new(&systems[0], Scale::unit(), &spec()).expect("mesh plan builds");
        layers.plan_ms = ms(t);
        layers.plan_builds = 1;
        let points = jw(&ac_grid());
        let mut scratch = SweepScratch::adopting();
        let t = Instant::now();
        for &s in &points {
            std::hint::black_box(plan.eval_at(s, &mut scratch).ok());
        }
        layers.sample_ms = ms(t);
        layers.sampled_points = points.len();
        let stats = scratch.stats();
        layers.recoveries = stats.recovered_fresh + stats.recovered_reordered;
        return layers;
    }

    // Plan builds through one shared cache; the first unit builds alone
    // first, as a fleet's first variant warms the cache for the rest.
    let cache = PlanCache::new();
    let build = |sys: &MnaSystem, u: &Unit| -> Vec<SweepPlan> {
        u.windows
            .iter()
            .map(|w| match w.kind {
                PolyKind::Denominator => SweepPlan::for_determinant_cached(sys, w.scale, &cache),
                PolyKind::Numerator => SweepPlan::new_cached(sys, w.scale, &spec(), &cache)
                    .expect("the solve built this plan"),
            })
            .collect()
    };
    let t = Instant::now();
    let mut plans = vec![build(&systems[0], &units[0])];
    plans.extend(par_map_indexed(outer, &units[1..], || (), |i, u, _| build(&systems[i + 1], u)));
    layers.plan_ms = ms(t);
    layers.plan_builds = plans.iter().map(Vec::len).sum();

    let lanes = RefgenConfig::default().lane_width.max(1);
    let work: Vec<(&Unit, &Vec<SweepPlan>)> = units.iter().zip(&plans).collect();
    let t = Instant::now();
    let sampled = par_map_indexed(
        outer,
        &work,
        || (),
        |_, (u, plans), _| {
            u.windows
                .iter()
                .zip(plans.iter())
                .map(|(w, plan)| sample_window(plan, w, lanes, inner))
                .collect::<Vec<_>>()
        },
    );
    layers.sample_ms = ms(t);
    layers.sampled_points = units.iter().flat_map(|u| &u.windows).map(|w| w.points).sum();
    layers.recoveries = sampled.iter().flatten().map(|(_, r)| r).sum();

    let t = Instant::now();
    let transformed = par_map_indexed(
        outer,
        &sampled,
        || (),
        |_, windows, _| windows.iter().map(|(values, _)| dft_window(values)).sum::<f64>(),
    );
    layers.dft_ms = ms(t);
    std::hint::black_box(transformed);
    layers
}

/// Samples one window the way the solve's batch sampler does: the closed
/// upper half of the unit-circle points when the plan is
/// conjugate-symmetric (the rest are mirrored), in lane-width batches
/// across `threads` workers. Returns the samples (padded back to the
/// window size for the transform) and the points the recovery ladder
/// rescued.
fn sample_window(
    plan: &SweepPlan,
    w: &WindowRun,
    lanes: usize,
    threads: usize,
) -> (Vec<ExtComplex>, u64) {
    let sigmas = unit_circle_points(w.points);
    let solve: Vec<Complex> = if plan.conjugate_symmetric() {
        sigmas.iter().copied().filter(|s| s.im >= 0.0).collect()
    } else {
        sigmas.clone()
    };
    let chunks: Vec<&[Complex]> = solve.chunks(lanes).collect();
    let kind = w.kind;
    let per_chunk =
        par_map_indexed(threads, &chunks, SweepBatchScratch::new, |_, chunk, scratch| {
            let values: Vec<ExtComplex> = match kind {
                PolyKind::Denominator => plan.eval_det_batch(chunk, scratch),
                PolyKind::Numerator => plan
                    .eval_batch(chunk, scratch)
                    .into_iter()
                    .map(|r| r.map_or(ExtComplex::ZERO, |t| t.numerator))
                    .collect(),
            };
            let stats = scratch.stats();
            (values, stats.recovered_fresh + stats.recovered_reordered)
        });
    let mut values: Vec<ExtComplex> = Vec::with_capacity(w.points);
    let mut recoveries = 0;
    for (v, r) in per_chunk {
        values.extend(v);
        recoveries += r;
    }
    let solved = values.len();
    for k in solved..w.points {
        values.push(values[k - solved].conj());
    }
    (values, recoveries)
}

/// The window's transform: exponent alignment and `Dft::forward`, as the
/// window runs them. Returns a checksum so the work is kept.
fn dft_window(values: &[ExtComplex]) -> f64 {
    let Some(e0) = values.iter().filter(|v| !v.is_zero()).map(|v| v.exponent()).max() else {
        return 0.0;
    };
    let mantissas: Vec<Complex> = values.iter().map(|v| v.mantissa_at_exponent(e0)).collect();
    let spectrum = Dft::new(mantissas.len()).forward(&mantissas);
    spectrum.first().map_or(0.0, |c| c.re)
}

/// `SparseLu::factor` (the plan's probe) and `FactorProgram::compile` on
/// the matrix of each of the first `limit` windows of `unit`, in µs, plus
/// the fill of the first compiled program.
fn probe_and_compile(unit: &Unit, limit: usize) -> (f64, f64) {
    let sys = MnaSystem::new(&unit.circuit).expect("workload circuits compile");
    let scales: Vec<Scale> = if unit.windows.is_empty() {
        vec![Scale::unit()]
    } else {
        unit.windows.iter().take(limit).map(|w| w.scale).collect()
    };
    // The plan builder probes at s = e^{i}.
    let probe = Complex::new(1f64.cos(), 1f64.sin());
    let (mut factor_us, mut compile_us) = (Vec::new(), Vec::new());
    for scale in scales {
        let triplets = sys.assemble(probe, scale);
        let t = Instant::now();
        let Ok(lu) = SparseLu::factor(&triplets) else { continue };
        factor_us.push(us(t));
        let positions: Vec<(usize, usize)> =
            triplets.entries().iter().map(|&(r, c, _)| (r, c)).collect();
        let t = Instant::now();
        std::hint::black_box(FactorProgram::compile(sys.dim(), &positions, lu.order()).ok());
        compile_us.push(us(t));
    }
    let m = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
    (m(&factor_us), m(&compile_us))
}

/// Records the instant of every `WindowOpened` event.
struct WindowClock {
    marks: Vec<Instant>,
}

impl Observer for WindowClock {
    fn on_diagnostic(&mut self, diagnostic: &Diagnostic) {
        if matches!(diagnostic, Diagnostic::WindowOpened { .. }) {
            self.marks.push(Instant::now());
        }
    }
}

/// Span lengths (ms) between consecutive window ends, the first starting
/// at `start`.
fn window_spans(start: Instant, marks: &[Instant]) -> Vec<f64> {
    let mut prev = start;
    marks
        .iter()
        .map(|&m| {
            let span = m.duration_since(prev).as_secs_f64() * 1e3;
            prev = m;
            span
        })
        .collect()
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// One observed operation: its wall time and its window spans.
fn observed_op(workload: &Workload, input: &Input, threads: usize) -> (f64, Vec<f64>, Output) {
    let mut clock = WindowClock { marks: Vec::new() };
    let t = Instant::now();
    let output = match workload.kind {
        // The sweep has no observer hook.
        Kind::MeshAc => workload.run_with(input, threads, None),
        _ => workload.run_with(input, threads, Some(&mut clock)),
    };
    let wall = ms(t);
    (wall, window_spans(t, &clock.marks), output)
}

/// Everything a traced run reports.
pub struct Traced {
    pub attempted: u64,
    pub failed: u64,
    pub counts: Counts,
    pub metrics: Vec<Metric>,
    pub ops: usize,
}

/// The traced run: untraced and observed operations alternate for
/// `seconds` of operation time, then the layer replay, the path
/// comparison and the thread scaling run on the reference input.
pub fn run(workload: &Workload, seconds: f64, nproc: usize) -> Traced {
    let kind = workload.kind;
    let (mut untraced, mut traced, mut spans) = (Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut timed = 0.0;
    let mut i = 0u64;
    let wall = Instant::now();
    while i == 0 || (timed < seconds * 1e3 && wall.elapsed().as_secs_f64() < 3.0 * seconds) {
        let input = workload.input(i);
        let t = Instant::now();
        let plain = workload.run(&input);
        let plain_ms = ms(t);
        let (observed_ms, window_ms, observed) = observed_op(workload, &input, workload.threads);
        for output in [plain, observed] {
            attempted += kind.solves_per_op() as u64;
            failed += workload.failures(output) as u64;
        }
        untraced.push(plain_ms);
        traced.push(observed_ms);
        spans.extend(window_ms);
        timed += plain_ms + observed_ms;
        i += 1;
    }
    let op_ms = median(&untraced);

    let (counts, units) = counts_and_units(workload, workload.threads);
    let reference_text = match workload.reference_input() {
        Input::Text(text) => text,
        Input::Fixed => refgen_circuit::to_spice(&units[0].circuit),
    };

    // The fleet replays diagnostics after its parallel section, so its
    // window spans come from a sequential fleet operation.
    if kind == Kind::Ua741Fleet {
        let (_, window_ms, output) = observed_op(workload, &Input::Fixed, 1);
        spans = window_ms;
        attempted += kind.solves_per_op() as u64;
        failed += workload.failures(output) as u64;
    }

    let reps = match kind {
        Kind::Ua741Refgen => 15,
        _ => 3,
    };
    let parse_ms = median(
        &(0..reps)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(parse_text(&reference_text).ok());
                ms(t)
            })
            .collect::<Vec<_>>(),
    );
    let (outer, inner) = match kind {
        Kind::Ua741Fleet => (workload.threads, 1),
        _ => (1, workload.threads),
    };
    let replays: Vec<Layers> =
        (0..reps).map(|_| replay(&units, outer, inner, kind == Kind::MeshAc)).collect();
    let pick = |f: fn(&Layers) -> f64| median(&replays.iter().map(f).collect::<Vec<_>>());
    let layers = replays[0];
    let assemble_ms = pick(|l| l.assemble_ms);
    let plan_ms = pick(|l| l.plan_ms);
    let sample_ms = pick(|l| l.sample_ms);
    let dft_ms = pick(|l| l.dft_ms);
    let replayed_ms =
        if kind.parses() { parse_ms } else { 0.0 } + assemble_ms + plan_ms + sample_ms + dft_ms;
    let (probe_us, compile_us) = probe_and_compile(&units[0], 8);
    let paths = direct_vs_hybrid(&units[0].circuit, reps);

    // Thread scaling: the same operation at one worker and at `nproc`,
    // alternating, on the reference input.
    let (speedup, scaling_threads) = if kind == Kind::MeshAc {
        // The sweep has no thread knob.
        (1.0, 1)
    } else {
        let input = workload.reference_input();
        let (mut one, mut all) = (Vec::new(), Vec::new());
        for _ in 0..reps {
            for (threads, times) in [(1, &mut one), (nproc, &mut all)] {
                let t = Instant::now();
                let output = workload.run_with(&input, threads, None);
                times.push(ms(t));
                attempted += kind.solves_per_op() as u64;
                failed += workload.failures(output) as u64;
            }
        }
        (median(&one) / median(&all), nproc)
    };

    let windows = counts.windows.max(1) as f64;
    let per_op_windows = if kind == Kind::MeshAc { 0.0 } else { windows };
    let metrics = vec![
        Metric::new("circuit.parse_ms", parse_ms, "ms"),
        Metric::new("mna.assemble_ms", assemble_ms, "ms"),
        Metric::new("mna.plan_ms", plan_ms, "ms"),
        Metric::new("mna.plan_builds", layers.plan_builds as f64, "count"),
        Metric::new("mna.pivot_searches", counts.pivot_searches as f64, "count"),
        Metric::new("mna.plan_cache_hits", counts.plan_cache_hits as f64, "count"),
        Metric::new("sparse.programs_compiled", counts.programs_compiled as f64, "count"),
        Metric::new("sparse.probe_us", probe_us, "us"),
        Metric::new("sparse.compile_us", compile_us, "us"),
        Metric::new("sparse.fill_slots", counts.fill_slots as f64, "count"),
        Metric::new(
            "mna.sample_us_per_point",
            sample_ms * 1e3 / layers.sampled_points.max(1) as f64,
            "us/point",
        ),
        Metric::new(
            "mna.refactor_hit_ratio",
            counts.refactor_hits as f64 / counts.points.max(1) as f64,
            "ratio",
        ),
        Metric::new("mna.recoveries", layers.recoveries as f64, "count"),
        Metric::new("sparse.direct_us_per_point", paths.direct_us_per_point, "us/point"),
        Metric::new("sparse.hybrid_us_per_point", paths.hybrid_us_per_point, "us/point"),
        Metric::new(
            "sparse.gmres_iters_per_point",
            counts.gmres_iterations as f64 / ac_grid().len() as f64,
            "iters/point",
        ),
        Metric::new("sparse.gmres_anchors", counts.gmres_anchors as f64, "count"),
        Metric::new("sparse.gmres_fallbacks", counts.gmres_fallbacks as f64, "count"),
        Metric::new("sparse.ordering", f64::from(u8::from(counts.amd)), "flag"),
        Metric::new("numeric.dft_us", dft_ms * 1e3 / per_op_windows.max(1.0), "us"),
        Metric::new("core.windows", counts.windows as f64, "count"),
        Metric::new("core.points", counts.points as f64, "count"),
        Metric::new(
            "core.window_ms_p50",
            if spans.is_empty() { 0.0 } else { median(&spans) },
            "ms",
        ),
        Metric::new("core.unexplained_ms", op_ms - replayed_ms, "ms"),
        Metric::new("core.ac_err_db_max", workload.ac_err_db_max, "dB"),
        Metric::new("exec.speedup", speedup, "ratio"),
        Metric::new("exec.efficiency", speedup / scaling_threads as f64, "ratio"),
        Metric::new("trace.coverage", replayed_ms / op_ms, "ratio"),
        Metric::new("trace.overhead_frac", median(&traced) / op_ms - 1.0, "ratio"),
    ];
    Traced { attempted, failed, counts, metrics, ops: untraced.len() }
}
