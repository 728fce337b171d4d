//! The traced run's exact counts are a pure function of the seed: two
//! independent set-ups of the same workload report identical counts, and
//! a fleet's counts do not depend on its thread count (the repository's
//! determinism invariant, seen from outside).
//!
//! Run with `cargo test --release --offline --manifest-path solvebench/Cargo.toml`.

use refgen_solvebench::report::nproc;
use refgen_solvebench::trace::counts;
use refgen_solvebench::workload::{Kind, Workload};

const SEED: u64 = 7;

fn counts_repeat(kind: Kind) {
    let first = Workload::setup(kind, SEED, nproc());
    let second = Workload::setup(kind, SEED, nproc());
    assert!(first.reference_ok, "{} reference check failed", kind.name());
    let a = counts(&first, first.threads);
    let b = counts(&second, second.threads);
    assert_eq!(a, b, "{} counts differ between two runs with one seed", kind.name());
    assert!(a.points > 0 && a.pivot_searches > 0 && a.gmres_iterations > 0, "{a:?}");
}

#[test]
fn ua741_refgen_counts_repeat() {
    counts_repeat(Kind::Ua741Refgen);
}

#[test]
fn ua741_fleet_counts_repeat() {
    counts_repeat(Kind::Ua741Fleet);
}

#[test]
fn mesh_ac_counts_repeat() {
    counts_repeat(Kind::MeshAc);
}

#[test]
fn fleet_counts_do_not_depend_on_threads() {
    let fleet = Workload::setup(Kind::Ua741Fleet, SEED, nproc());
    // At least two workers, so the variant-major fan-out path runs even
    // on a one-CPU machine.
    let many = nproc().max(2);
    assert_eq!(counts(&fleet, 1), counts(&fleet, many));
}

#[test]
fn different_seeds_give_different_inputs() {
    let a = Workload::setup(Kind::Ua741Refgen, 1, 1);
    let b = Workload::setup(Kind::Ua741Refgen, 2, 1);
    assert_ne!(a.inputs_fnv, b.inputs_fnv);
    assert_eq!(a.inputs_fnv, Workload::setup(Kind::Ua741Refgen, 1, 1).inputs_fnv);
}
