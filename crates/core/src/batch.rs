//! Batched evaluation of one window's unit-circle samples — the execute
//! half of the plan/execute sampling engine.
//!
//! [`interpolate_window`](crate::window::interpolate_window) builds one
//! [`BatchSampler`] per window: a compiled
//! [`SweepPlan`](refgen_mna::SweepPlan) for the window's
//! `(MnaSystem, Scale)` pair, shared read-only across
//! [`refgen_exec::par_map_indexed`] workers that each own a
//! [`SweepScratch`](refgen_mna::SweepScratch). Five properties matter:
//!
//! * **Pivot-order reuse** — the plan records one pivot order at build
//!   time and compiles a `FactorProgram` from it; every sample is a flat
//!   instruction-stream replay into the worker's reused scratch (no pivot
//!   search, no sorting/searching/insertion, no steady-state allocation).
//!   This holds at `threads = 1` too: the sequential path is the same code
//!   with one worker.
//! * **Conjugate-pair halving** — when the plan's pattern and RHS are real
//!   ([`SweepPlan::conjugate_symmetric`]) and the configuration allows it,
//!   only the closed upper half of the window's conjugate-paired σ set is
//!   solved; every lower-half point is the exact complex conjugate of its
//!   partner. IEEE arithmetic is conjugate-equivariant and
//!   `unit_circle_points` generates the pairs bit-exactly, so mirrored
//!   output is **bit-identical** to the full sweep — only wall-clock
//!   changes (`REFGEN_TEST_CONJ=off` forces the full sweep to prove it).
//! * **Lane batching** — with `config.lane_width > 1` the solved points
//!   are chunked into lane-width groups, each group replayed through the
//!   compiled kernel in **one** instruction-stream traversal
//!   ([`SweepPlan::eval_batch`] / [`SweepPlan::eval_det_batch`]); per live
//!   lane the batched replay performs the exact scalar operation sequence
//!   of a one-point evaluation and dead lanes fall back to it verbatim,
//!   so output is bit-identical at every lane width. Batching composes
//!   with, and is orthogonal to, threading: chunks fan out across the
//!   same executor.
//! * **Determinism** — every sample is a pure function of `(plan, σ)`
//!   (scratches never adopt fallback orders here), mirroring depends only
//!   on the σ values, and results are collected in index order, so solver
//!   output is bit-identical at any thread count.
//! * **Honest accounting** — the batch reports how many points reused the
//!   recorded order ([`BatchStats::refactor_hits`]), how many of those ran
//!   the compiled kernel ([`BatchStats::compiled_hits`]), and how many
//!   were mirrored ([`BatchStats::mirrored`]), surfaced as
//!   [`Diagnostic::SamplingBatched`](crate::Diagnostic) through the normal
//!   emit path.

use crate::config::RefgenConfig;
use crate::error::RefgenError;
use crate::runtime::SamplingRuntime;
use crate::window::{PolyKind, Sampler, WindowBasis};
use refgen_mna::{MnaError, Scale, SweepBatchScratch, SweepPlan, SweepScratch};
use refgen_numeric::{Complex, ExtComplex};

/// What one batch cost and how it ran.
#[derive(Clone, Copy, Debug)]
pub(crate) struct BatchStats {
    /// Worker threads actually used (after resolving `threads = 0` and
    /// capping at the solved-point count). Reported per *point*, not per
    /// lane chunk, so the figure — and every diagnostic built from it —
    /// is independent of `lane_width`.
    pub threads: usize,
    /// Solved points that replayed the window plan's recorded pivot order.
    pub refactor_hits: u64,
    /// The subset of `refactor_hits` that ran the compiled symbolic kernel.
    pub compiled_hits: u64,
    /// Points mirrored from a conjugate partner instead of solved.
    pub mirrored: u64,
    /// Points rescued by rung 1 of the singular-recovery ladder (fresh
    /// Markowitz after a dead replay).
    pub recovered_fresh: u64,
    /// Points rescued by rung 2 (alternate-ordering recompile).
    pub recovered_reordered: u64,
}

/// How one requested σ point is obtained: solved directly (index into the
/// solve list) or mirrored from a solved conjugate partner.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Role {
    Direct(usize),
    Mirror(usize),
}

/// The conjugate-pair halving of a σ set: the points to solve and how each
/// requested point is obtained from them.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Halving {
    pub solve: Vec<Complex>,
    pub roles: Vec<Role>,
}

impl Halving {
    /// A fixed function of the σ values alone, so the partition is
    /// identical at any thread count under any executor: every distinct
    /// upper-half point (`im ≥ 0`, bitwise) is solved once, in order of
    /// first appearance; a lower-half point is mirrored from the solved
    /// point that is its exact conjugate, or, without one, solved
    /// directly after the upper half.
    pub fn new(sigmas: &[Complex]) -> Halving {
        let bits = |s: Complex| (s.re.to_bits(), s.im.to_bits());
        let mut solve: Vec<Complex> = Vec::with_capacity(sigmas.len());
        // (bits, solve index) of each distinct upper point, sorted.
        let mut upper: Vec<((u64, u64), usize)> = Vec::with_capacity(sigmas.len());
        for &s in sigmas.iter().filter(|s| s.im >= 0.0) {
            if let Err(at) = upper.binary_search_by_key(&bits(s), |&(b, _)| b) {
                upper.insert(at, (bits(s), solve.len()));
                solve.push(s);
            }
        }
        let find = |s: Complex| {
            upper.binary_search_by_key(&bits(s), |&(b, _)| b).ok().map(|at| upper[at].1)
        };
        let mut roles = Vec::with_capacity(sigmas.len());
        for &s in sigmas {
            let role = if s.im >= 0.0 {
                Role::Direct(find(s).expect("every upper point was recorded"))
            } else if let Some(k) = find(s.conj()) {
                Role::Mirror(k)
            } else {
                solve.push(s);
                Role::Direct(solve.len() - 1)
            };
            roles.push(role);
        }
        Halving { solve, roles }
    }
}

/// A window's sampling plan: evaluates one polynomial of the network
/// function at scaled unit-circle points, in parallel, deterministically.
pub(crate) struct BatchSampler {
    plan: SweepPlan,
    kind: PolyKind,
    /// Conjugate-pair halving is active: the configuration asked for it
    /// and the plan's pattern/RHS are real.
    mirror: bool,
    /// Lane width for variant-major batched replay (`config.lane_width`):
    /// solved points are chunked into groups of this size, each group
    /// driven through one instruction-stream traversal. `1` keeps the
    /// per-point path; results are bit-identical at every width.
    lanes: usize,
}

impl BatchSampler {
    /// Compiles the plan for one window of `sampler` at `scale`, sharing
    /// pivot orders *and compiled symbolic kernels* through the runtime's
    /// plan cache (one probe + one `FactorProgram` per distinct scale
    /// region per topology — verify re-interpolations and batch-session
    /// variants reuse both).
    pub fn new(
        sampler: &Sampler<'_>,
        scale: Scale,
        config: &RefgenConfig,
        runtime: &SamplingRuntime,
    ) -> Result<BatchSampler, RefgenError> {
        let cache = runtime.plan_cache();
        let plan = match sampler.kind {
            // Determinant sampling needs no spec (and must not require
            // one: a denominator-only solve may have no resolvable
            // source at all).
            PolyKind::Denominator => SweepPlan::for_determinant_cached_with_ordering(
                sampler.sys,
                scale,
                cache,
                config.ordering,
            ),
            PolyKind::Numerator => SweepPlan::new_cached_with_ordering(
                sampler.sys,
                scale,
                sampler.spec,
                cache,
                config.ordering,
            )?,
        };
        let mirror = config.conjugate_mirror && plan.conjugate_symmetric();
        let lanes = config.lane_width.max(1);
        Ok(BatchSampler { plan, kind: sampler.kind, mirror, lanes })
    }

    /// The plan's pivot-ordering decision with the system dimension, for
    /// the ordering diagnostic (`None` when the probe was singular and no
    /// order could be recorded).
    pub fn ordering(&self) -> Option<(usize, refgen_mna::OrderingChoice)> {
        self.plan.ordering_choice().map(|c| (self.plan.dim(), c))
    }

    /// Evaluates the polynomial at every `σ` of `basis` on the runtime's
    /// executor (scoped threads or the persistent pool — bit-identical
    /// either way), returning samples in σ order. With mirroring active,
    /// only the basis's [`Halving`] solve list is evaluated; each
    /// lower-half σ whose exact conjugate appears in the set is mirrored
    /// from its partner.
    ///
    /// # Errors
    ///
    /// The lowest-index point's [`MnaError`], if any point fails (only
    /// numerator sampling can fail — a singular determinant sample is a
    /// legitimate zero). A mirrored point inherits its partner's failure.
    pub fn sample_all(
        &self,
        basis: &WindowBasis,
        runtime: &SamplingRuntime,
    ) -> Result<(Vec<ExtComplex>, BatchStats), RefgenError> {
        let (solve, roles) = if self.mirror {
            (&basis.halving.solve[..], Some(&basis.halving.roles[..]))
        } else {
            (&basis.sigmas[..], None)
        };

        let executor = runtime.executor();
        // Reported per point regardless of lane chunking, so diagnostics
        // stay bit-identical across lane widths.
        let threads = refgen_exec::effective_threads(executor.threads(), solve.len());
        let plan = &self.plan;
        let kind = self.kind;
        let (values, counters) = if self.lanes > 1 {
            // Variant-major batched replay: chunk the solve list into
            // lane-width groups, each group one instruction-stream
            // traversal through the compiled kernel. Per live lane the
            // replay performs the exact scalar operation sequence of the
            // per-point path, and dead lanes fall back to it verbatim, so
            // every value (and every counter) below is bit-identical to
            // the `lanes == 1` branch.
            // One lane group's output plus its counter deltas (refactor,
            // compiled, recovered-fresh, recovered-reordered).
            type ChunkOut = (Vec<Result<ExtComplex, MnaError>>, [u64; 4]);
            let chunks: Vec<&[Complex]> = solve.chunks(self.lanes).collect();
            let per_chunk: Vec<ChunkOut> =
                executor.par_map_indexed(&chunks, SweepBatchScratch::new, |_, chunk, scratch| {
                    let before = scratch.stats();
                    let values: Vec<Result<ExtComplex, MnaError>> = match kind {
                        PolyKind::Denominator => {
                            plan.eval_det_batch(chunk, scratch).into_iter().map(Ok).collect()
                        }
                        PolyKind::Numerator => plan
                            .eval_batch(chunk, scratch)
                            .into_iter()
                            .map(|r| r.map(|t| t.numerator))
                            .collect(),
                    };
                    let after = scratch.stats();
                    (
                        values,
                        [
                            after.refactor_hits - before.refactor_hits,
                            after.compiled_hits - before.compiled_hits,
                            after.recovered_fresh - before.recovered_fresh,
                            after.recovered_reordered - before.recovered_reordered,
                        ],
                    )
                });
            let mut values = Vec::with_capacity(solve.len());
            let mut counters = [0u64; 4];
            for (chunk_values, deltas) in per_chunk {
                values.extend(chunk_values);
                for (c, d) in counters.iter_mut().zip(deltas) {
                    *c += d;
                }
            }
            (values, counters)
        } else {
            let results: Vec<(Result<ExtComplex, MnaError>, [u64; 4])> =
                executor.par_map_indexed(solve, SweepScratch::new, |_, &sigma, scratch| {
                    let before = scratch.stats();
                    let value = match kind {
                        PolyKind::Denominator => Ok(plan.eval_det(sigma, scratch)),
                        PolyKind::Numerator => plan.eval_at(sigma, scratch).map(|r| r.numerator),
                    };
                    let after = scratch.stats();
                    (
                        value,
                        [
                            after.refactor_hits - before.refactor_hits,
                            after.compiled_hits - before.compiled_hits,
                            after.recovered_fresh - before.recovered_fresh,
                            after.recovered_reordered - before.recovered_reordered,
                        ],
                    )
                });
            let mut values = Vec::with_capacity(solve.len());
            let mut counters = [0u64; 4];
            for (value, deltas) in results {
                values.push(value);
                for (c, d) in counters.iter_mut().zip(deltas) {
                    *c += d;
                }
            }
            (values, counters)
        };

        let mut mirrored = 0u64;
        let samples = match roles {
            None => values.into_iter().collect::<Result<Vec<_>, _>>()?,
            Some(roles) => {
                let mut samples = Vec::with_capacity(roles.len());
                for role in roles {
                    let value = match *role {
                        Role::Direct(k) => values[k].clone(),
                        Role::Mirror(k) => {
                            mirrored += 1;
                            // Exact: conjugation only negates the
                            // mantissa's imaginary component.
                            values[k].clone().map(|v| v.conj())
                        }
                    };
                    samples.push(value?);
                }
                samples
            }
        };
        let [refactor_hits, compiled_hits, recovered_fresh, recovered_reordered] = counters;
        Ok((
            samples,
            BatchStats {
                threads,
                refactor_hits,
                compiled_hits,
                mirrored,
                recovered_fresh,
                recovered_reordered,
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use refgen_numeric::dft::unit_circle_points;
    use std::collections::HashMap;

    /// The per-window `HashMap` partition `Halving` replaced: the reference
    /// it must reproduce exactly.
    fn hashed_partition(sigmas: &[Complex]) -> Halving {
        let bits = |s: Complex| (s.re.to_bits(), s.im.to_bits());
        let mut solve: Vec<Complex> = Vec::with_capacity(sigmas.len());
        let mut roles: Vec<Role> = Vec::with_capacity(sigmas.len());
        let mut upper: HashMap<(u64, u64), usize> = HashMap::with_capacity(sigmas.len());
        for &s in sigmas {
            if s.im >= 0.0 {
                upper.entry(bits(s)).or_insert_with(|| {
                    solve.push(s);
                    solve.len() - 1
                });
            }
        }
        for &s in sigmas {
            if s.im >= 0.0 {
                roles.push(Role::Direct(upper[&bits(s)]));
            } else if let Some(&k) = upper.get(&bits(s.conj())) {
                roles.push(Role::Mirror(k));
            } else {
                solve.push(s);
                roles.push(Role::Direct(solve.len() - 1));
            }
        }
        Halving { solve, roles }
    }

    #[test]
    fn halving_matches_hashed_partition() {
        for k in 1..=128 {
            let sigmas = unit_circle_points(k);
            assert_eq!(Halving::new(&sigmas), hashed_partition(&sigmas), "K = {k}");
        }
        // Off-grid sets: duplicates, a signed zero, unpaired lower points.
        let odd = [
            Complex::new(1.0, 0.0),
            Complex::new(0.5, -0.25),
            Complex::new(1.0, 0.0),
            Complex::new(-1.0, -0.0),
            Complex::new(0.5, 0.25),
            Complex::new(0.3, -0.7),
        ];
        assert_eq!(Halving::new(&odd), hashed_partition(&odd));
    }
}
