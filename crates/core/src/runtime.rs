//! Shared sampling resources for one solve — or one fleet of solves.
//!
//! Two costs of the plan/execute sampling engine are worth paying **once**
//! rather than per window:
//!
//! * **worker threads** — under
//!   [`ExecutorKind::Pool`](refgen_exec::ExecutorKind::Pool) the runtime
//!   owns a persistent `refgen_exec::WorkerPool`, so the per-window
//!   scoped-thread spawn/join (~100 µs at 4 workers) disappears from the
//!   steady state;
//! * **pivot searches** — the runtime's [`PlanCache`] shares recorded
//!   pivot orders between window plans built at nearby scales, so a
//!   verify re-interpolation (±0.2 decades) and every same-topology
//!   variant of a batch session replay one recorded order instead of
//!   probing their own;
//! * **window bases** — everything a window computes from its point count
//!   `K` alone (σ points, DFT plan, conjugate-pair halving, the power rows
//!   of the eq. (17) reduction; see [`crate::window`]) is built once per
//!   `K` and read by every later window of that size under one lock.
//!
//! A [`SamplingRuntime`] is created per [`Session::solve`](crate::Session)
//! by default, which already amortizes across every window of both
//! polynomials. A [`BatchSession`](crate::BatchSession) creates **one**
//! runtime for its whole fleet — that is the "one pivot search per
//! topology, threads spawned once" configuration the batch engine exists
//! for. Sharing never changes results: executors collect in index order
//! and pivot-order replay is value-exact, so solver output is
//! bit-identical with or without a shared runtime, at any thread count,
//! under either executor kind.

use crate::config::RefgenConfig;
use crate::window::WindowBasis;
use refgen_exec::Executor;
use refgen_mna::PlanCache;
use refgen_numeric::Complex;
use std::sync::{Arc, Mutex, PoisonError};

/// Executor + plan cache shared by every sampling batch of one solve (or
/// one batch session). See the [module docs](self).
///
/// The plan cache and the window bases sit behind [`Arc`]s so a fleet
/// session can hand each variant worker its own
/// [`SamplingRuntime::variant_worker`] runtime — single-threaded inside,
/// but planning through the **same** cache and reading the **same** bases
/// as every other worker.
#[derive(Debug)]
pub struct SamplingRuntime {
    executor: Executor,
    plans: Arc<PlanCache>,
    bases: Arc<Mutex<Vec<Option<BasisRows>>>>,
}

/// The basis of one window size with its power rows, each filled on first
/// request: `powers[i][j] = σ_j.powi(i)`, `shifts[i][j] = σ_j.conj().powi(i)`.
#[derive(Debug)]
struct BasisRows {
    basis: Arc<WindowBasis>,
    powers: Vec<Option<Arc<[Complex]>>>,
    shifts: Vec<Option<Arc<[Complex]>>>,
}

/// What one window reads from its size's basis.
pub(crate) struct BasisView {
    pub basis: Arc<WindowBasis>,
    /// One row per requested power, in request order.
    pub powers: Vec<Arc<[Complex]>>,
    /// The `σ.conj().powi(shift)` row, for a nonzero shift.
    pub shift: Option<Arc<[Complex]>>,
}

/// Row `i` of `rows`, computed by `make` on first request.
fn row(
    rows: &mut Vec<Option<Arc<[Complex]>>>,
    i: usize,
    make: impl FnOnce() -> Arc<[Complex]>,
) -> Arc<[Complex]> {
    if rows.len() <= i {
        rows.resize(i + 1, None);
    }
    Arc::clone(rows[i].get_or_insert_with(make))
}

impl SamplingRuntime {
    /// Builds the runtime a configuration asks for: an
    /// [`Executor`] of `config.executor` kind with `config.threads`
    /// workers (pool threads spawn here, once) and an empty plan cache.
    pub fn new(config: &RefgenConfig) -> SamplingRuntime {
        SamplingRuntime {
            executor: Executor::new(config.executor, config.threads),
            plans: Arc::new(PlanCache::new()),
            bases: Arc::default(),
        }
    }

    /// A per-variant worker runtime: a single-threaded scoped executor
    /// (the variant-major fleet path parallelizes *across* variants, so
    /// each variant's own sampling must not nest threads) sharing **this**
    /// runtime's plan cache. Pivot searches, shared-plan hits, and
    /// compiled programs all accumulate on the parent, and window bases
    /// are built once for the whole fleet.
    pub fn variant_worker(&self) -> SamplingRuntime {
        SamplingRuntime {
            executor: Executor::scoped(1),
            plans: Arc::clone(&self.plans),
            bases: Arc::clone(&self.bases),
        }
    }

    /// The basis of every `k`-point window, with the row `σ.powi(i)` for
    /// each `i` in `powers` and, when `shift > 0`, the row
    /// `σ.conj().powi(shift)` — one lock, whatever the window reads.
    pub(crate) fn window_basis(&self, k: usize, powers: &[usize], shift: usize) -> BasisView {
        // Every update below inserts a finished value, so a window that
        // panicked (a contained fleet fault) cannot leave a torn entry.
        let mut table = self.bases.lock().unwrap_or_else(PoisonError::into_inner);
        if table.len() <= k {
            table.resize_with(k + 1, || None);
        }
        let entry = table[k].get_or_insert_with(|| BasisRows {
            basis: Arc::new(WindowBasis::new(k)),
            powers: Vec::new(),
            shifts: Vec::new(),
        });
        let sigmas = &entry.basis.sigmas;
        let powers = powers
            .iter()
            .map(|&i| {
                row(&mut entry.powers, i, || sigmas.iter().map(|s| s.powi(i as i32)).collect())
            })
            .collect();
        let shift = (shift > 0).then(|| {
            row(&mut entry.shifts, shift, || {
                sigmas.iter().map(|s| s.conj().powi(shift as i32)).collect()
            })
        });
        BasisView { basis: Arc::clone(&entry.basis), powers, shift }
    }

    /// The window bases built so far, by size.
    #[cfg(test)]
    pub(crate) fn window_bases(&self) -> Vec<(usize, Arc<WindowBasis>)> {
        let table = self.bases.lock().unwrap_or_else(PoisonError::into_inner);
        let built = table.iter().enumerate();
        built.filter_map(|(k, e)| e.as_ref().map(|e| (k, Arc::clone(&e.basis)))).collect()
    }

    /// The executor sampling batches fan out on.
    pub fn executor(&self) -> &Executor {
        &self.executor
    }

    /// The shared pivot-order cache window plans build through.
    pub fn plan_cache(&self) -> &PlanCache {
        &self.plans
    }

    /// Probe factorizations (full pivot searches) performed so far — the
    /// quantity plan sharing drives toward one per topology.
    pub fn pivot_searches(&self) -> usize {
        self.plans.pivot_searches()
    }

    /// Plan builds that reused a recorded pivot order instead of probing.
    pub fn shared_plan_hits(&self) -> usize {
        self.plans.shared_hits()
    }

    /// Compiled symbolic kernels (`FactorProgram`s) built through the
    /// plan cache so far — like pivot searches, plan sharing drives this
    /// toward one per topology per scale region: a whole fleet of
    /// same-topology variants compiles once.
    pub fn programs_compiled(&self) -> usize {
        self.plans.programs_compiled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::AdaptiveInterpolator;
    use crate::config::RefgenConfig;
    use crate::diagnostic::NullObserver;
    use refgen_circuit::library;
    use refgen_exec::ExecutorKind;
    use refgen_mna::{MnaSystem, TransferSpec};

    #[test]
    fn runtime_reflects_config() {
        let scoped = SamplingRuntime::new(
            &RefgenConfig::builder().threads(3).executor(ExecutorKind::Scoped).build(),
        );
        assert!(!scoped.executor().is_pool());
        assert_eq!(scoped.executor().threads(), 3);
        assert_eq!(scoped.pivot_searches(), 0);

        let pooled = SamplingRuntime::new(
            &RefgenConfig::builder().threads(2).executor(ExecutorKind::Pool).build(),
        );
        assert!(pooled.executor().is_pool());
        assert_eq!(pooled.executor().threads(), 2);
    }

    #[test]
    fn variant_worker_is_single_threaded_and_shares_plans() {
        let parent = SamplingRuntime::new(
            &RefgenConfig::builder().threads(4).executor(ExecutorKind::Pool).build(),
        );
        let worker = parent.variant_worker();
        assert!(!worker.executor().is_pool());
        assert_eq!(worker.executor().threads(), 1);
        // Same cache object, not a copy.
        assert!(std::ptr::eq(parent.plan_cache() as *const _, worker.plan_cache() as *const _));
    }

    fn ua741_on(runtime: &SamplingRuntime) -> String {
        let sys = MnaSystem::new(&library::ua741()).unwrap();
        let spec = TransferSpec::voltage_gain("VIN", "out");
        let solver = AdaptiveInterpolator::new(RefgenConfig::default());
        let nf = solver.network_function_runtime(&sys, &spec, &mut NullObserver, runtime).unwrap();
        // Debug formatting of f64 round-trips: equal strings are equal bits.
        format!("{nf:?}")
    }

    #[test]
    fn window_bases_are_built_once_and_shared_by_variant_workers() {
        let config = RefgenConfig::default();
        let parent = SamplingRuntime::new(&config);
        let cold = ua741_on(&parent);
        let built = parent.window_bases();
        assert!(built.len() > 1, "a µA741 solve opens windows of several sizes");
        // A warm runtime and its variant workers reuse every basis — none
        // is rebuilt — and solve bit-identically to cold ones.
        assert_eq!(ua741_on(&parent), cold);
        let warm_worker = ua741_on(&parent.variant_worker());
        let after = parent.window_bases();
        assert_eq!(after.len(), built.len());
        for ((k, a), (k2, b)) in built.iter().zip(&after) {
            assert_eq!(k, k2);
            assert!(Arc::ptr_eq(a, b), "the K = {k} basis was rebuilt");
        }
        // A worker builds into its parent's table.
        let fresh = SamplingRuntime::new(&config);
        assert_eq!(ua741_on(&fresh.variant_worker()), warm_worker);
        assert_eq!(fresh.window_bases().len(), built.len());
    }
}
