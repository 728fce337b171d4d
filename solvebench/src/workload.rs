//! The three workloads: seeded input generation, the set-up each one pays
//! before timing (reference solves, their independent checks, warm-up),
//! the timed operation, and the correctness check of every operation.
//!
//! Every operation goes through the library's public entry points
//! (`Session`, `BatchSession`, `ac_sweep_with_config`); the only knobs set
//! are `threads` and, for the fleet, `fault_policy`.

use crate::report::Fingerprint;
use refgen_circuit::library::{grid_rc_mesh, ua741};
use refgen_circuit::{parse_netlist, to_spice, Circuit, Perturbation, VariantSet};
use refgen_core::{
    ac_sweep_with_config, validate_against_ac, BatchRun, FaultPolicy, NetworkFunction, Observer,
    RefgenConfig, Session,
};
use refgen_mna::{log_space, AcAnalysis, TransferSpec};
use refgen_numeric::{Complex, ExtPoly};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Variants per fleet operation.
pub const FLEET_SIZE: usize = 64;
/// Side of the `mesh_ac` grid (32 × 32 nodes, MNA dimension 1025).
pub const MESH_AC_SIDE: usize = 32;
/// Frequency points of the `mesh_ac` sweep.
pub const AC_POINTS: usize = 96;
/// Relative spread of the seeded same-topology variants.
pub const VARIANT_SPREAD: f64 = 0.05;

/// Bode tolerances against the independent per-frequency LU path: the
/// µA741 tier of the repository's pipeline tests.
pub const MAG_TOL_DB: f64 = 1e-6;
pub const PHASE_TOL_DEG: f64 = 1e-4;
/// Per-coefficient relative tolerance between a fleet survivor and the
/// same variant solved alone: the `sig_digits = 6` accuracy every accepted
/// coefficient carries (fleet plans replay shared pivot orders, so the
/// two are not bit-identical).
pub const COEFF_REL_TOL: f64 = 1e-6;
/// Pointwise relative tolerance of a mesh sweep against its reference: the
/// bound the mesh tier holds between solution paths.
pub const AC_REL_TOL: f64 = 1e-9;

/// Frequencies every µA741 session is checked at (one per regime: DC,
/// the dominant pole, unity gain, far roll-off).
const UA741_CHECK_HZ: [f64; 4] = [1.0, 1e3, 1e6, 1e9];
/// Mesh sweep points the reference sweep is checked at independently (a
/// fresh Markowitz factorization of the 1025-node mesh costs ~0.3 s, so
/// not every one of the 96).
const AC_CHECK_POINTS: [usize; 3] = [0, AC_POINTS / 2, AC_POINTS - 1];

/// Input streams: operation `i` draws from stream `i`, warm-up and
/// reference inputs from streams no timed operation reaches.
const REFERENCE_STREAM: u64 = u64::MAX;
const WARMUP_STREAM: u64 = 1 << 62;
const FLEET_STREAM: u64 = 0xF1EE7;
const MESH_AC_STREAM: u64 = 0xAC;

/// Timed operations whose inputs enter the input fingerprint.
const FINGERPRINTED_OPS: u64 = 16;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Ua741Refgen,
    Ua741Fleet,
    MeshAc,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Ua741Refgen, Kind::Ua741Fleet, Kind::MeshAc];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Ua741Refgen => "ua741_refgen",
            Kind::Ua741Fleet => "ua741_fleet",
            Kind::MeshAc => "mesh_ac",
        }
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// How many solves one operation attempts: sessions, fleet variants, or
    /// frequency points.
    pub fn solves_per_op(self) -> usize {
        match self {
            Kind::Ua741Refgen => 1,
            Kind::Ua741Fleet => FLEET_SIZE,
            Kind::MeshAc => AC_POINTS,
        }
    }

    /// Worker threads the operation is configured with.
    pub fn threads(self, nproc: usize) -> usize {
        match self {
            Kind::Ua741Refgen => 1,
            // The sweep has no thread knob: it is sequential.
            Kind::MeshAc => 1,
            Kind::Ua741Fleet => nproc,
        }
    }

    /// Untimed operations before timing starts: enough that allocator
    /// growth and first-touch page faults are paid in set-up.
    fn warmup_ops(self) -> u64 {
        match self {
            Kind::Ua741Refgen => 24,
            Kind::Ua741Fleet => 2,
            Kind::MeshAc => 2,
        }
    }

    /// Whether the operation parses a netlist text.
    pub fn parses(self) -> bool {
        self == Kind::Ua741Refgen
    }
}

/// The transfer function every workload solves.
pub fn spec() -> TransferSpec {
    TransferSpec::voltage_gain("VIN", "out")
}

/// The `mesh_ac` frequency grid: 96 log-spaced points, 1 MHz – 30 MHz.
pub fn ac_grid() -> Vec<f64> {
    log_space(1e6, 3e7, AC_POINTS)
}

/// SplitMix64 of `seed` and `stream`: independent generator seeds per
/// input.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The µA741 with every value drawn within ±5 % of nominal.
pub fn ua741_variants(seed: u64, count: usize) -> Vec<Circuit> {
    VariantSet::new(Perturbation::all_relative(VARIANT_SPREAD), count)
        .seed(seed)
        .generate(&ua741())
        .expect("relative tolerances below 100 % keep every value legal")
}

/// The netlist text a session workload parses for input stream `stream`.
pub fn session_text(seed: u64, stream: u64) -> String {
    to_spice(&ua741_variants(mix(seed, stream), 1)[0])
}

/// The fleet one `ua741_fleet` run solves in every operation.
pub fn fleet_circuits(seed: u64) -> Vec<Circuit> {
    ua741_variants(mix(seed, FLEET_STREAM), FLEET_SIZE)
}

/// The mesh one `mesh_ac` run sweeps in every operation.
pub fn ac_mesh(seed: u64) -> Circuit {
    grid_rc_mesh(MESH_AC_SIDE, MESH_AC_SIDE, mix(seed, MESH_AC_STREAM))
}

/// Session configuration of a workload (every other knob at its default).
pub fn session_config(threads: usize) -> RefgenConfig {
    RefgenConfig::builder().threads(threads).build()
}

/// Fleet configuration: `threads` workers, failures contained per variant.
pub fn fleet_config(threads: usize) -> RefgenConfig {
    RefgenConfig::builder().threads(threads).fault_policy(FaultPolicy::Contain).build()
}

/// What one operation needs beyond the workload's fixed state.
pub enum Input {
    Text(String),
    Fixed,
}

/// What one operation produced.
// One output lives at a time, so the size spread between variants costs
// nothing.
#[allow(clippy::large_enum_variant)]
pub enum Output {
    Session(Result<(Circuit, NetworkFunction), String>),
    Fleet(Result<BatchRun, String>),
    Sweep(Result<Vec<Complex>, String>),
    Panicked,
}

/// Parses a netlist text into its flattened circuit.
///
/// # Errors
///
/// The parse error, rendered.
pub fn parse_text(text: &str) -> Result<Circuit, String> {
    parse_netlist(text).map(|n| n.circuit).map_err(|e| e.to_string())
}

/// One parse + `Session::solve`.
///
/// # Errors
///
/// The parse or solve error, rendered.
pub fn solve_text(
    text: &str,
    config: RefgenConfig,
    observer: Option<&mut dyn Observer>,
) -> Result<(Circuit, NetworkFunction), String> {
    let circuit = parse_text(text)?;
    let mut session = Session::for_circuit(&circuit).spec(spec()).config(config);
    if let Some(observer) = observer {
        session = session.observer(observer);
    }
    let solution = session.solve().map_err(|e| e.to_string())?;
    Ok((circuit, solution.network))
}

/// One fleet solve of `variants` against the nominal µA741.
///
/// # Errors
///
/// A fleet-level error, rendered (per-variant failures are contained in
/// the returned run).
pub fn solve_fleet(
    base: &Circuit,
    variants: &[Circuit],
    config: RefgenConfig,
    observer: Option<&mut dyn Observer>,
) -> Result<BatchRun, String> {
    let mut session = Session::for_circuit(base).spec(spec()).config(config);
    if let Some(observer) = observer {
        session = session.observer(observer);
    }
    session.variant_circuits(variants).solve_all().map_err(|e| e.to_string())
}

/// One default-config AC sweep of `circuit` over `grid`.
///
/// # Errors
///
/// The sweep error, rendered.
pub fn sweep(circuit: &Circuit, grid: &[f64]) -> Result<Vec<Complex>, String> {
    ac_sweep_with_config(circuit, &spec(), grid, &RefgenConfig::default())
        .map(|points| points.into_iter().map(|p| p.response).collect())
        .map_err(|e| e.to_string())
}

/// Largest per-coefficient relative difference between two polynomials
/// (infinite when their degrees differ or a difference is NaN).
pub fn poly_rel_diff(a: &ExtPoly, b: &ExtPoly) -> f64 {
    if a.degree() != b.degree() {
        return f64::INFINITY;
    }
    let n = a.degree().map_or(0, |d| d + 1);
    a.coeffs()[..n]
        .iter()
        .zip(&b.coeffs()[..n])
        .map(|(&x, &y)| {
            if y.is_zero() {
                if x.is_zero() {
                    0.0
                } else {
                    f64::INFINITY
                }
            } else {
                let rel = ((x - y).norm() / y.norm()).to_f64();
                if rel.is_nan() {
                    f64::INFINITY
                } else {
                    rel
                }
            }
        })
        .fold(0.0, f64::max)
}

/// `a` within [`AC_REL_TOL`] of `b`, relative to `|b|` (false for NaN).
fn close(a: Complex, b: Complex) -> bool {
    (a - b).abs() <= AC_REL_TOL * b.abs()
}

/// Bode magnitude (dB) and phase (°) errors against the independent AC
/// path; `None` when either side fails or a coefficient is not finite
/// (the comparison itself would read NaN as a match).
fn bode_error_db(nf: &NetworkFunction, circuit: &Circuit, freqs: &[f64]) -> Option<(f64, f64)> {
    if !nf.numerator.coeffs().iter().chain(nf.denominator.coeffs()).all(|c| c.is_finite()) {
        return None;
    }
    let report = validate_against_ac(nf, circuit, &spec(), freqs).ok()?;
    Some((report.max_mag_err_db, report.max_phase_err_deg))
}

fn bode_ok(error: Option<(f64, f64)>) -> bool {
    error.is_some_and(|(mag, phase)| mag <= MAG_TOL_DB && phase <= PHASE_TOL_DEG)
}

enum State {
    Sessions,
    Fleet { base: Circuit, variants: Vec<Circuit>, solo: Vec<NetworkFunction> },
    Sweep { mesh: Circuit, grid: Vec<f64>, reference: Vec<Complex> },
}

/// A set-up workload, ready to run timed operations.
pub struct Workload {
    pub kind: Kind,
    pub seed: u64,
    pub threads: usize,
    /// The reference solve(s) passed the independent check.
    pub reference_ok: bool,
    /// Largest Bode magnitude error of the reference check (dB).
    pub ac_err_db_max: f64,
    /// FNV-1a over the reference inputs, the first timed inputs and the
    /// frequency grids.
    pub inputs_fnv: u64,
    state: State,
}

impl Workload {
    /// Generates the workload's inputs from `seed`, solves and checks its
    /// reference, and runs the warm-up operations.
    pub fn setup(kind: Kind, seed: u64, nproc: usize) -> Workload {
        let threads = kind.threads(nproc);
        let mut fp = Fingerprint::default();
        let (state, reference_ok, ac_err_db_max) = match kind {
            Kind::Ua741Refgen => {
                let text = session_text(seed, REFERENCE_STREAM);
                fp.add(text.as_bytes());
                for i in 0..FINGERPRINTED_OPS {
                    fp.add(session_text(seed, i).as_bytes());
                }
                let band = log_space(1.0, 1e9, 100);
                fp.add_f64s(&band);
                let error = solve_text(&text, session_config(threads), None)
                    .ok()
                    .and_then(|(circuit, nf)| bode_error_db(&nf, &circuit, &band));
                (State::Sessions, bode_ok(error), error.map_or(f64::INFINITY, |e| e.0))
            }
            Kind::Ua741Fleet => {
                let base = ua741();
                let variants = fleet_circuits(seed);
                for v in &variants {
                    fp.add(to_spice(v).as_bytes());
                }
                fp.add_f64s(&UA741_CHECK_HZ);
                let mut ok = true;
                let mut worst = 0.0f64;
                let mut solo = Vec::with_capacity(variants.len());
                for v in &variants {
                    let nf = Session::for_circuit(v)
                        .spec(spec())
                        .config(session_config(1))
                        .solve()
                        .map(|s| s.network);
                    match nf {
                        Ok(nf) => {
                            let error = bode_error_db(&nf, v, &UA741_CHECK_HZ);
                            ok &= bode_ok(error);
                            worst = worst.max(error.map_or(f64::INFINITY, |e| e.0));
                            solo.push(nf);
                        }
                        Err(_) => {
                            ok = false;
                            worst = f64::INFINITY;
                        }
                    }
                }
                ok &= solo.len() == variants.len();
                (State::Fleet { base, variants, solo }, ok, worst)
            }
            Kind::MeshAc => {
                let mesh = ac_mesh(seed);
                let grid = ac_grid();
                fp.add(to_spice(&mesh).as_bytes());
                fp.add_f64s(&grid);
                let reference = sweep(&mesh, &grid).unwrap_or_default();
                let mut ok = reference.len() == grid.len();
                let mut worst = 0.0f64;
                if ok {
                    let ac = AcAnalysis::new(&mesh, spec()).expect("library meshes compile");
                    for &k in &AC_CHECK_POINTS {
                        match ac.at(grid[k]) {
                            Ok(point) => {
                                let r = reference[k];
                                ok &= close(r, point.response);
                                worst = worst.max((20.0 * r.abs().log10() - point.mag_db()).abs());
                            }
                            Err(_) => ok = false,
                        }
                    }
                } else {
                    worst = f64::INFINITY;
                }
                (State::Sweep { mesh, grid, reference }, ok, worst)
            }
        };
        let workload = Workload {
            kind,
            seed,
            threads,
            reference_ok,
            ac_err_db_max,
            inputs_fnv: fp.value(),
            state,
        };
        for k in 0..kind.warmup_ops() {
            let input = workload.input_for_stream(WARMUP_STREAM + k);
            drop(workload.run(&input));
        }
        workload
    }

    /// The input of timed operation `i`.
    pub fn input(&self, i: u64) -> Input {
        self.input_for_stream(i)
    }

    /// The input every traced count is taken on: fixed per seed.
    pub fn reference_input(&self) -> Input {
        self.input_for_stream(REFERENCE_STREAM)
    }

    fn input_for_stream(&self, stream: u64) -> Input {
        match self.state {
            State::Sessions => Input::Text(session_text(self.seed, stream)),
            State::Fleet { .. } | State::Sweep { .. } => Input::Fixed,
        }
    }

    /// The timed operation, at the workload's own thread count.
    pub fn run(&self, input: &Input) -> Output {
        self.run_with(input, self.threads, None)
    }

    /// The operation at `threads` workers, optionally observed.
    pub fn run_with(
        &self,
        input: &Input,
        threads: usize,
        observer: Option<&mut dyn Observer>,
    ) -> Output {
        catch_unwind(AssertUnwindSafe(|| match (&self.state, input) {
            (State::Sessions, Input::Text(text)) => {
                Output::Session(solve_text(text, session_config(threads), observer))
            }
            (State::Fleet { base, variants, .. }, _) => {
                Output::Fleet(solve_fleet(base, variants, fleet_config(threads), observer))
            }
            (State::Sweep { mesh, grid, .. }, _) => Output::Sweep(sweep(mesh, grid)),
            (State::Sessions, Input::Fixed) => unreachable!("session operations take a text"),
        }))
        .unwrap_or(Output::Panicked)
    }

    /// Failed solves of one operation: errors, panics, contained
    /// variants, and results that disagree with the reference.
    pub fn failures(&self, output: Output) -> usize {
        let all = self.kind.solves_per_op();
        match (&self.state, output) {
            (_, Output::Panicked) => all,
            (State::Sessions, Output::Session(result)) => {
                let ok = result.is_ok_and(|(circuit, nf)| {
                    bode_ok(bode_error_db(&nf, &circuit, &UA741_CHECK_HZ))
                });
                usize::from(!ok)
            }
            (State::Fleet { solo, .. }, Output::Fleet(result)) => match result {
                Err(_) => all,
                Ok(run) if run.outcomes.len() != solo.len() => all,
                Ok(run) => run
                    .outcomes
                    .iter()
                    .zip(solo)
                    .filter(|(outcome, solo)| {
                        outcome.solution().is_none_or(|s| {
                            poly_rel_diff(&s.network.numerator, &solo.numerator) > COEFF_REL_TOL
                                || poly_rel_diff(&s.network.denominator, &solo.denominator)
                                    > COEFF_REL_TOL
                        })
                    })
                    .count(),
            },
            (State::Sweep { reference, .. }, Output::Sweep(result)) => match result {
                Err(_) => all,
                Ok(points) if points.len() != reference.len() => all,
                Ok(points) => points.iter().zip(reference).filter(|&(&p, &r)| !close(p, r)).count(),
            },
            _ => unreachable!("an operation's output matches its workload"),
        }
    }
}
