//! Property-based tests: sparse LU against the dense oracle on random
//! matrices, the compiled symbolic kernel against both replay paths, and
//! the flat Markowitz factorization and hash-free compile bit for bit
//! against the implementations they replaced (kept below as oracles).

use proptest::prelude::*;
use refgen_circuit::library;
use refgen_mna::{MnaSystem, Scale};
use refgen_numeric::{Complex, ExtComplex};
use refgen_sparse::lu::DEFAULT_PIVOT_THRESHOLD;
use refgen_sparse::{FactorError, FactorProgram, PivotOrder, ProgramScratch, SparseLu, Triplets};

/// Random sparse complex matrix with a guaranteed-nonzero diagonal band
/// (so most cases are regular) plus random off-diagonal fill.
fn random_matrix(dim: usize, seed: u64, density_pct: u64) -> Triplets {
    let mut t = Triplets::new(dim);
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(12345);
    let mut next = || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state
    };
    for i in 0..dim {
        let re = ((next() >> 11) as f64) / ((1u64 << 53) as f64) + 0.5;
        let im = ((next() >> 11) as f64) / ((1u64 << 53) as f64) - 0.5;
        t.add(i, i, Complex::new(re * 4.0, im));
    }
    for r in 0..dim {
        for c in 0..dim {
            if r == c {
                continue;
            }
            if next() % 100 < density_pct {
                let re = ((next() >> 11) as f64) / ((1u64 << 53) as f64) - 0.5;
                let im = ((next() >> 11) as f64) / ((1u64 << 53) as f64) - 0.5;
                t.add(r, c, Complex::new(re, im));
            }
        }
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn determinant_matches_dense(dim in 1usize..12, seed in 0u64..100_000, density in 10u64..70) {
        let t = random_matrix(dim, seed, density);
        let dense = t.to_dense().det();
        match SparseLu::factor(&t) {
            Ok(lu) => {
                let rel = ((lu.det() - dense).norm()
                    / dense.norm().max_abs(lu.det().norm()))
                .to_f64();
                prop_assert!(rel < 1e-9, "rel {rel:.2e} (dim {dim}, seed {seed})");
            }
            Err(_) => {
                // Sparse declared singular: dense determinant must be tiny
                // relative to the matrix scale.
                prop_assert!(dense.norm().to_f64() < 1e-6);
            }
        }
    }

    #[test]
    fn solve_residual_small(dim in 1usize..12, seed in 0u64..100_000) {
        let t = random_matrix(dim, seed, 40);
        let lu = match SparseLu::factor(&t) {
            Ok(lu) => lu,
            Err(_) => return Ok(()),
        };
        let b: Vec<Complex> = (0..dim)
            .map(|i| Complex::new(1.0 + i as f64, (i as f64) - 0.5))
            .collect();
        let x = lu.solve(&b);
        let ax = t.to_dense().mul_vec(&x);
        let resid: f64 = ax.iter().zip(&b).map(|(p, q)| (*p - *q).abs()).sum();
        let scale: f64 = b.iter().map(|v| v.abs()).sum();
        prop_assert!(resid < 1e-9 * scale, "residual {resid:.2e}");
    }

    #[test]
    fn refactor_reproduces_factor(dim in 1usize..10, seed in 0u64..100_000) {
        let t = random_matrix(dim, seed, 35);
        let lu = match SparseLu::factor(&t) {
            Ok(lu) => lu,
            Err(_) => return Ok(()),
        };
        let re = SparseLu::refactor(&t, lu.order()).expect("same matrix refactors");
        let rel = ((lu.det() - re.det()).norm() / lu.det().norm()).to_f64();
        prop_assert!(rel < 1e-12);
        let b = vec![Complex::ONE; dim];
        for (p, q) in lu.solve(&b).iter().zip(re.solve(&b)) {
            prop_assert!((*p - q).abs() < 1e-10);
        }
    }

    /// Tentpole equivalence: `FactorProgram` execution ≡ `SparseLu::refactor`
    /// ≡ a fresh Markowitz factorization on random fill-heavy patterns —
    /// determinants, solve vectors, and fill accounting.
    #[test]
    fn compiled_program_matches_both_replay_paths(
        dim in 1usize..12,
        seed in 0u64..100_000,
        density in 30u64..80,
    ) {
        let t = random_matrix(dim, seed, density);
        let lu = match SparseLu::factor(&t) {
            Ok(lu) => lu,
            Err(_) => return Ok(()),
        };
        let program = FactorProgram::for_triplets(&t, lu.order())
            .expect("order recorded on this pattern compiles");
        prop_assert_eq!(program.fill_in(), lu.fill_in(), "compile-time fill = numeric fill");

        // Same matrix, then a same-pattern matrix with fresh values: the
        // program must track SparseLu::refactor on both.
        let mut t2 = Triplets::new(dim);
        for (i, &(r, c, v)) in t.entries().iter().enumerate() {
            let bump = 1.0 + ((i as f64) + 1.0) / (t.raw_len() as f64 + 2.0);
            t2.add(r, c, v.scale(bump) + Complex::new(0.0, 0.125 * bump));
        }
        let mut scratch = ProgramScratch::new();
        let mut x = Vec::new();
        for m in [&t, &t2] {
            let reference = match SparseLu::refactor(m, lu.order()) {
                Ok(re) => re,
                Err(e) => {
                    // Error parity: the program must die the same way.
                    let got = program.refactor(m, &mut scratch);
                    prop_assert_eq!(got, Err(e));
                    continue;
                }
            };
            program.refactor(m, &mut scratch).expect("refactor succeeded, replay must too");
            let drel = ((scratch.det() - reference.det()).norm()
                / reference.det().norm())
            .to_f64();
            prop_assert!(drel < 1e-10, "det rel {drel:.2e} (dim {dim}, seed {seed})");
            // …and against the fully fresh factorization of the same values.
            if let Ok(fresh) = SparseLu::factor(m) {
                let frel =
                    ((scratch.det() - fresh.det()).norm() / fresh.det().norm()).to_f64();
                prop_assert!(frel < 1e-9, "fresh det rel {frel:.2e}");
            }
            let b: Vec<Complex> =
                (0..dim).map(|i| Complex::new(1.0 + i as f64, 0.5 - i as f64)).collect();
            program.solve_into(&mut scratch, &b, &mut x);
            for (p, q) in x.iter().zip(reference.solve(&b)) {
                prop_assert!((*p - q).abs() < 1e-9, "solve divergence (dim {dim}, seed {seed})");
            }
        }
    }

    /// Error parity under injected zero pivots: when a value replay dies,
    /// the program and the workspace replay report `Singular` at the same
    /// elimination step.
    #[test]
    fn compiled_program_error_parity_on_zeroed_pivots(
        dim in 2usize..10,
        seed in 0u64..100_000,
        victim in 0usize..10,
    ) {
        let t = random_matrix(dim, seed, 40);
        let lu = match SparseLu::factor(&t) {
            Ok(lu) => lu,
            Err(_) => return Ok(()),
        };
        let program = FactorProgram::for_triplets(&t, lu.order()).unwrap();
        // Zero every raw entry at the victim step's pivot position.
        let step = victim % dim;
        let (pr, pc) = (lu.order().rows()[step], lu.order().cols()[step]);
        let mut zeroed = Triplets::new(dim);
        for &(r, c, v) in t.entries() {
            zeroed.add(r, c, if (r, c) == (pr, pc) { Complex::ZERO } else { v });
        }
        let mut scratch = ProgramScratch::new();
        let got = program.refactor(&zeroed, &mut scratch);
        let want = SparseLu::refactor(&zeroed, lu.order()).map(|_| ());
        match (got, want) {
            (Ok(()), Ok(())) => {}
            (
                Err(FactorError::Singular { step: a }),
                Err(FactorError::Singular { step: b }),
            ) => prop_assert_eq!(a, b, "both die, and at the same step"),
            (g, w) => prop_assert!(false, "outcomes diverge: {g:?} vs {w:?}"),
        }
    }

    #[test]
    fn row_scaling_scales_determinant(dim in 1usize..9, seed in 0u64..100_000, k in 1u32..20) {
        // Multiplying one row by 2^k multiplies det by exactly 2^k.
        let t = random_matrix(dim, seed, 40);
        let lu = match SparseLu::factor(&t) {
            Ok(lu) => lu,
            Err(_) => return Ok(()),
        };
        let factor = 2f64.powi(k as i32);
        let mut t2 = Triplets::new(dim);
        for &(r, c, v) in t.entries() {
            t2.add(r, c, if r == 0 { v.scale(factor) } else { v });
        }
        let lu2 = SparseLu::factor(&t2).expect("scaled matrix regular");
        let got = (lu2.det().norm() / lu.det().norm()).log2();
        prop_assert!((got - k as f64).abs() < 1e-9, "got 2^{got}, want 2^{k}");
    }
}

/// A seeded matrix built to stress every tie-break and accumulation rule
/// of the pivot search: values from a small exact set (so magnitude ties,
/// threshold-boundary entries with `|a| = u·max|row|` and exact
/// cancellation during elimination are common), explicit zeros, duplicate
/// triplets, duplicates that cancel to exactly zero, and scaled copies of
/// earlier rows, which elimination cancels to exactly zero.
fn adversarial_matrix(dim: usize, seed: u64) -> Triplets {
    const VALUES: [(f64, f64); 9] = [
        (1.0, 0.0),
        (-1.0, 0.0),
        (2.0, 0.0),
        (0.5, 0.0),
        (0.1, 0.0),
        (0.0, 1.0),
        (1.0, 1.0),
        (0.0, 0.0),
        (0.25, -0.75),
    ];
    let mut state = seed.wrapping_mul(0x2545_f491_4f6c_dd1d).wrapping_add(0x9e37_79b9);
    let mut next = move |bound: usize| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 33) % bound as u64) as usize
    };
    let mut rows: Vec<Vec<(usize, Complex)>> = Vec::with_capacity(dim);
    for r in 0..dim {
        let mut row: Vec<(usize, Complex)> = if r > 0 && next(5) == 0 {
            let k = if next(2) == 0 { 1.0 } else { -2.0 };
            rows[next(r)].iter().map(|&(c, v)| (c, v.scale(k))).collect()
        } else {
            let mut row = Vec::new();
            for _ in 0..1 + next(5) {
                let (re, im) = VALUES[next(VALUES.len())];
                row.push((next(dim), Complex::new(re, im)));
            }
            if next(2) == 0 {
                let (re, im) = VALUES[next(VALUES.len())];
                row.push((r, Complex::new(re, im)));
            }
            row
        };
        if next(3) == 0 {
            let (c, v) = row[next(row.len())];
            row.push((c, -v));
        }
        if next(3) == 0 {
            let (c, _) = row[next(row.len())];
            let (re, im) = VALUES[next(VALUES.len())];
            row.push((c, Complex::new(re, im)));
        }
        rows.push(row);
    }
    let mut t = Triplets::new(dim);
    // Interleave the rows' triplets so duplicates of one position are not
    // adjacent in entry order.
    let longest = rows.iter().map(Vec::len).max().unwrap_or(0);
    for k in 0..longest {
        for (r, row) in rows.iter().enumerate() {
            if let Some(&(c, v)) = row.get(k) {
                t.add(r, c, v);
            }
        }
    }
    t
}

fn ext_bits(d: ExtComplex) -> (u64, u64, i64) {
    (d.mantissa().re.to_bits(), d.mantissa().im.to_bits(), d.exponent())
}

fn vec_bits(v: &[Complex]) -> Vec<(u64, u64)> {
    v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
}

/// `t` with every raw value perturbed deterministically (same positions,
/// same entry order).
fn revalued(t: &Triplets) -> Triplets {
    let mut t2 = Triplets::new(t.dim());
    for (i, &(r, c, v)) in t.entries().iter().enumerate() {
        let bump = 1.0 + ((i % 7) as f64) / 8.0;
        t2.add(r, c, v.scale(bump) + Complex::new(0.0, 0.0625 * (i % 3) as f64));
    }
    t2
}

/// The fresh factorization and the oracle agree bit for bit: outcome,
/// pivot order, determinant, solve and fill.
fn assert_lu_matches(
    got: Result<SparseLu, FactorError>,
    want: Result<oracle::OracleLu, FactorError>,
) {
    match (got, want) {
        (Err(g), Err(w)) => assert_eq!(g, w, "both fail, at the same step"),
        (Ok(lu), Ok(o)) => {
            assert_eq!(lu.order().rows(), &o.rows[..], "pivot rows");
            assert_eq!(lu.order().cols(), &o.cols[..], "pivot cols");
            assert_eq!(ext_bits(lu.det()), ext_bits(o.det), "determinant bits");
            assert_eq!(lu.fill_in(), o.fill_in, "fill-in");
            let b: Vec<Complex> =
                (0..o.n).map(|i| Complex::new(1.0 + i as f64, 0.5 - i as f64)).collect();
            assert_eq!(vec_bits(&lu.solve(&b)), vec_bits(&o.solve(&b)), "solve bits");
        }
        (g, w) => panic!(
            "outcomes diverge: new {:?} vs oracle {:?}",
            g.map(|lu| lu.order().clone()),
            w.map(|o| (o.rows, o.cols))
        ),
    }
}

/// The compiled program and the oracle compile agree on outcome, slot
/// count, fill, op count and multiplier count, and replay `values` to
/// the same determinant bits.
fn assert_program_matches(
    dim: usize,
    positions: &[(usize, usize)],
    order: &PivotOrder,
    values: &[&[Complex]],
) {
    let got = FactorProgram::compile(dim, positions, order);
    let want = oracle::compile(dim, positions, order.rows(), order.cols());
    let (program, o) = match (got, want) {
        (Err(g), Err(w)) => return assert_eq!(g, w, "both compiles fail, at the same step"),
        (Ok(p), Ok(o)) => (p, o),
        (g, w) => panic!("compile outcomes diverge: {:?} vs {:?}", g.err(), w.err()),
    };
    assert_eq!(program.slots(), o.slots, "slots");
    assert_eq!(program.fill_in(), o.fill_in, "compiled fill");
    assert_eq!(program.op_count(), o.ops.len(), "op count");
    assert_eq!(program.multiplier_count(), o.lents.len(), "multiplier count");
    let mut scratch = ProgramScratch::new();
    for vals in values {
        let got =
            program.refactor_values(vals.iter().copied(), &mut scratch).map(|()| scratch.det());
        match (got, o.replay(vals)) {
            (Ok(g), Ok(w)) => assert_eq!(ext_bits(g), ext_bits(w), "replay determinant bits"),
            (g, w) => assert_eq!(g.err(), w.err(), "replay outcomes"),
        }
    }
}

/// Runs the whole bit-identity comparison on one matrix: the Markowitz
/// factorization at threshold `u`, a fixed-order refactor on new values,
/// and the compile + replay of the recorded order (and of an AMD order)
/// over the raw positions.
fn assert_matches_oracle(t: &Triplets, u: f64) {
    let got = SparseLu::factor_with_threshold(t, u);
    let order = got.as_ref().ok().map(|lu| lu.order().clone());
    assert_lu_matches(
        got,
        oracle::factor_impl(t, oracle::PivotStrategy::Markowitz { threshold: u }),
    );
    let positions: Vec<(usize, usize)> = t.entries().iter().map(|&(r, c, _)| (r, c)).collect();
    let t2 = revalued(t);
    let values: Vec<Complex> = t.entries().iter().map(|e| e.2).collect();
    let values2: Vec<Complex> = t2.entries().iter().map(|e| e.2).collect();
    let amd = refgen_sparse::ordering::minimum_degree(t.dim(), &positions);
    assert_program_matches(t.dim(), &positions, &amd, &[&values, &values2]);
    let Some(order) = order else { return };
    for m in [t, &t2] {
        let fixed = oracle::PivotStrategy::Fixed(order.rows().to_vec(), order.cols().to_vec());
        assert_lu_matches(SparseLu::refactor(m, &order), oracle::factor_impl(m, fixed));
    }
    assert_program_matches(t.dim(), &positions, &order, &[&values, &values2]);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// The flat Markowitz and the hash-free compile are bit-identical to
    /// the pre-rewrite implementations on adversarial patterns.
    #[test]
    fn flat_rewrite_is_bit_identical_on_adversarial_matrices(
        dim in 1usize..14,
        seed in 0u64..1_000_000,
        u_pick in 0usize..3,
    ) {
        assert_matches_oracle(&adversarial_matrix(dim, seed), [0.1, 0.5, 1.0][u_pick]);
    }

    /// …and on the generic random matrices of the other properties.
    #[test]
    fn flat_rewrite_is_bit_identical_on_random_matrices(
        dim in 1usize..16,
        seed in 0u64..100_000,
        density in 5u64..70,
    ) {
        assert_matches_oracle(&random_matrix(dim, seed, density), DEFAULT_PIVOT_THRESHOLD);
    }
}

/// The 22 `(f, g)` window scales of an adaptive µA741 session (standard
/// `VIN → out` voltage gain), as exact bit patterns.
const UA741_SESSION_SCALES: [(u64, u64); 22] = [
    (0x421333d7909aebb5, 0x40721f63f8f4556f),
    (0x421e6f15a863752f, 0x4066de83d9c8559b),
    (0x41c6188d7bda6cc1, 0x40bf7fbfca88c726),
    (0x41d1828412b7c718, 0x40b3dfe1bbcc0193),
    (0x4249d86c9540cec2, 0x403aede88c5a4624),
    (0x42547b29ad2eb65f, 0x4030fdc31b12d917),
    (0x427701cf27613ee8, 0x400e4065b0954f2c),
    (0x42823b5bf7b9b1dc, 0x4003166262046d38),
    (0x432cfe66334d67b8, 0x3f5801520b659b4b),
    (0x434c15b55f92354a, 0x3f38c835d0251e0b),
    (0x434c15b55f92354a, 0x3f38c835d0251e0b),
    (0x434c15b55f92354a, 0x3f38c835d0251e0b),
    (0x421333d7909aebb5, 0x40721f63f8f4556f),
    (0x421e6f15a863752f, 0x4066de83d9c8559b),
    (0x424466e0229c86fb, 0x40410ea86fff25c0),
    (0x42502ad99553bf98, 0x403586598dce70a2),
    (0x427324f1e48a8429, 0x40122d7e1dafffac),
    (0x427e577965102a69, 0x4006f04f8b372b22),
    (0x432a71fc5ac4ffae, 0x3f5a51892fa3dee1),
    (0x43475e99477b1654, 0x3f3dc8484793dd0e),
    (0x43475e99477b1654, 0x3f3dc8484793dd0e),
    (0x43475e99477b1654, 0x3f3dc8484793dd0e),
];

/// The plan builder's probe point `s = e^{i}`.
fn probe_point() -> Complex {
    Complex::new(1f64.cos(), 1f64.sin())
}

#[test]
fn flat_rewrite_is_bit_identical_at_ua741_session_scales() {
    let sys = MnaSystem::new(&library::ua741()).expect("µA741 compiles");
    for &(f, g) in &UA741_SESSION_SCALES {
        let scale = Scale::new(f64::from_bits(f), f64::from_bits(g));
        assert_matches_oracle(&sys.assemble(probe_point(), scale), DEFAULT_PIVOT_THRESHOLD);
    }
}

#[test]
fn flat_rewrite_is_bit_identical_on_32x32_rc_mesh() {
    let sys = MnaSystem::new(&library::grid_rc_mesh(32, 32, 9024)).expect("mesh compiles");
    let t = sys.assemble(probe_point(), Scale::unit());
    let got = SparseLu::factor(&t);
    let order = got.as_ref().expect("mesh factors").order().clone();
    assert_lu_matches(
        got,
        oracle::factor_impl(
            &t,
            oracle::PivotStrategy::Markowitz { threshold: DEFAULT_PIVOT_THRESHOLD },
        ),
    );
    let positions: Vec<(usize, usize)> = t.entries().iter().map(|&(r, c, _)| (r, c)).collect();
    let values: Vec<Complex> = t.entries().iter().map(|e| e.2).collect();
    assert_program_matches(t.dim(), &positions, &order, &[&values]);
}

/// The `BTreeMap` Markowitz factorization and `HashMap` symbolic compile
/// the library shipped before its flat rewrite, kept verbatim (modulo the
/// private types they returned) as bit-identity oracles.
mod oracle {
    use refgen_numeric::{Complex, ExtComplex, ExtProduct};
    use refgen_sparse::{FactorError, Triplets};
    use std::collections::{BTreeMap, BTreeSet, HashMap};

    pub struct OracleLu {
        pub n: usize,
        pub rows: Vec<usize>,
        pub cols: Vec<usize>,
        pub lcols: Vec<Vec<(usize, Complex)>>,
        pub urows: Vec<Vec<(usize, Complex)>>,
        pub pivots: Vec<Complex>,
        pub det: ExtComplex,
        pub fill_in: usize,
    }

    pub enum PivotStrategy {
        Markowitz { threshold: f64 },
        Fixed(Vec<usize>, Vec<usize>),
    }

    fn permutation_sign(perm: &[usize]) -> f64 {
        let mut seen = vec![false; perm.len()];
        let mut sign = 1.0;
        for start in 0..perm.len() {
            if seen[start] {
                continue;
            }
            let mut len = 0;
            let mut i = start;
            while !seen[i] {
                seen[i] = true;
                i = perm[i];
                len += 1;
            }
            if len % 2 == 0 {
                sign = -sign;
            }
        }
        sign
    }

    pub fn factor_impl(a: &Triplets, strategy: PivotStrategy) -> Result<OracleLu, FactorError> {
        let n = a.dim();
        let mut rows: Vec<BTreeMap<usize, Complex>> = a.to_rows();
        // col_rows[c]: active rows holding a (possibly zero) entry in column c.
        let mut col_rows: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
        for (r, row) in rows.iter().enumerate() {
            for (&c, _) in row.iter() {
                col_rows[c].insert(r);
            }
        }
        let mut row_active = vec![true; n];

        let mut order_rows = Vec::with_capacity(n);
        let mut order_cols = Vec::with_capacity(n);
        let mut lcols = Vec::with_capacity(n);
        let mut urows = Vec::with_capacity(n);
        let mut pivots = Vec::with_capacity(n);
        let mut det_mag = ExtProduct::ONE;
        let initial_nnz: usize = rows.iter().map(|r| r.len()).sum();

        for step in 0..n {
            let (pr, pc) = match &strategy {
                PivotStrategy::Markowitz { threshold } => {
                    select_markowitz(&rows, &col_rows, &row_active, *threshold)
                        .ok_or(FactorError::Singular { step })?
                }
                PivotStrategy::Fixed(or, oc) => (or[step], oc[step]),
            };
            let pivot = rows[pr].get(&pc).copied().unwrap_or(Complex::ZERO);
            if pivot == Complex::ZERO {
                return Err(FactorError::Singular { step });
            }
            det_mag.mul_complex(pivot);
            order_rows.push(pr);
            order_cols.push(pc);
            pivots.push(pivot);
            row_active[pr] = false;

            // Detach the pivot row; record U (without the pivot entry).
            let prow = std::mem::take(&mut rows[pr]);
            for (&c, _) in prow.iter() {
                col_rows[c].remove(&pr);
            }
            let urow: Vec<(usize, Complex)> =
                prow.iter().filter(|&(&c, _)| c != pc).map(|(&c, &v)| (c, v)).collect();

            // Eliminate column pc from remaining active rows.
            let targets: Vec<usize> =
                col_rows[pc].iter().copied().filter(|&r| row_active[r]).collect();
            let mut lcol = Vec::with_capacity(targets.len());
            for r2 in targets {
                let a_rc = rows[r2].remove(&pc).unwrap_or(Complex::ZERO);
                col_rows[pc].remove(&r2);
                if a_rc == Complex::ZERO {
                    continue;
                }
                let l = a_rc / pivot;
                lcol.push((r2, l));
                for &(c, v) in &urow {
                    let delta = l * v;
                    match rows[r2].entry(c) {
                        std::collections::btree_map::Entry::Occupied(mut e) => {
                            *e.get_mut() -= delta;
                        }
                        std::collections::btree_map::Entry::Vacant(e) => {
                            e.insert(-delta);
                            col_rows[c].insert(r2);
                        }
                    }
                }
            }
            lcols.push(lcol);
            urows.push(urow);
        }

        let sign = permutation_sign(&order_rows) * permutation_sign(&order_cols);
        let det = det_mag.value() * Complex::real(sign);
        let final_nnz: usize = urows.iter().map(|u| u.len() + 1).sum::<usize>()
            + lcols.iter().map(|l| l.len()).sum::<usize>();
        Ok(OracleLu {
            n,
            rows: order_rows,
            cols: order_cols,
            lcols,
            urows,
            pivots,
            det,
            fill_in: final_nnz.saturating_sub(initial_nnz),
        })
    }

    /// Markowitz pivot selection with threshold stability test.
    fn select_markowitz(
        rows: &[BTreeMap<usize, Complex>],
        col_rows: &[BTreeSet<usize>],
        row_active: &[bool],
        threshold: f64,
    ) -> Option<(usize, usize)> {
        let mut best: Option<(usize, usize, usize, f64)> = None; // (r, c, markowitz, |a|)
        for (r, row) in rows.iter().enumerate() {
            if !row_active[r] || row.is_empty() {
                continue;
            }
            let row_max = row.values().map(|v| v.abs()).fold(0.0, f64::max);
            if row_max == 0.0 {
                continue;
            }
            let r_nnz = row.values().filter(|v| **v != Complex::ZERO).count();
            for (&c, &v) in row.iter() {
                let mag = v.abs();
                if mag < threshold * row_max || mag == 0.0 {
                    continue;
                }
                let c_nnz = col_rows[c].iter().filter(|&&rr| row_active[rr]).count();
                let mark = (r_nnz - 1) * (c_nnz.saturating_sub(1));
                let better = match best {
                    None => true,
                    Some((_, _, bm, bmag)) => mark < bm || (mark == bm && mag > bmag),
                };
                if better {
                    best = Some((r, c, mark, mag));
                }
            }
        }
        best.map(|(r, c, _, _)| (r, c))
    }

    impl OracleLu {
        pub fn solve(&self, b: &[Complex]) -> Vec<Complex> {
            assert_eq!(b.len(), self.n, "rhs length mismatch");
            let mut work = b.to_vec();
            // Forward elimination replay: y[k] lives at work[order.rows[k]].
            for k in 0..self.n {
                let t = work[self.rows[k]];
                if t == Complex::ZERO {
                    continue;
                }
                for &(r2, l) in &self.lcols[k] {
                    work[r2] -= l * t;
                }
            }
            // Back substitution in original column coordinates.
            let mut x = vec![Complex::ZERO; self.n];
            for k in (0..self.n).rev() {
                let mut s = work[self.rows[k]];
                for &(c, v) in &self.urows[k] {
                    s -= v * x[c];
                }
                x[self.cols[k]] = s / self.pivots[k];
            }
            x
        }
    }

    /// One multiplier of the compiled elimination.
    pub struct LEntry {
        pub slot: u32,
        pub ops_start: u32,
        pub ops_end: u32,
    }

    /// The pre-rewrite compiled program, reduced to what the comparison
    /// and the replay read.
    pub struct OracleProgram {
        pub n: usize,
        pub slots: usize,
        pub scatter: Vec<u32>,
        pub pivot_slots: Vec<u32>,
        pub lranges: Vec<(u32, u32)>,
        pub lents: Vec<LEntry>,
        pub ops: Vec<(u32, u32)>,
        pub fill_in: usize,
        pub sign: f64,
    }

    pub fn compile(
        dim: usize,
        positions: &[(usize, usize)],
        order_rows: &[usize],
        order_cols: &[usize],
    ) -> Result<OracleProgram, FactorError> {
        // Slot assignment for the raw pattern + per-row sorted column sets.
        let mut slot_of: HashMap<(usize, usize), u32> = HashMap::new();
        let mut rows: Vec<Vec<usize>> = vec![Vec::new(); dim];
        let mut scatter = Vec::with_capacity(positions.len());
        for &(r, c) in positions {
            assert!(r < dim && c < dim, "position ({r},{c}) out of range for dim {dim}");
            let next = u32::try_from(slot_of.len()).expect("pattern exceeds u32 slots");
            let slot = *slot_of.entry((r, c)).or_insert_with(|| {
                rows[r].push(c);
                next
            });
            scatter.push(slot);
        }
        for row in &mut rows {
            row.sort_unstable();
        }
        let mut col_rows: Vec<Vec<usize>> = vec![Vec::new(); dim];
        for (r, row) in rows.iter().enumerate() {
            for &c in row {
                col_rows[c].push(r);
            }
        }
        let initial_nnz = slot_of.len();
        let mut row_active = vec![true; dim];

        let mut pivot_slots = Vec::with_capacity(dim);
        let mut lranges = Vec::with_capacity(dim);
        let mut lents: Vec<LEntry> = Vec::new();
        let mut ops: Vec<(u32, u32)> = Vec::new();

        for step in 0..dim {
            let pr = order_rows[step];
            let pc = order_cols[step];
            if rows[pr].binary_search(&pc).is_err() {
                return Err(FactorError::Singular { step });
            }
            row_active[pr] = false;
            pivot_slots.push(slot_of[&(pr, pc)]);

            let lstart = lents.len() as u32;
            let prow = std::mem::take(&mut rows[pr]);
            let targets = std::mem::take(&mut col_rows[pc]);
            for &r2 in &targets {
                if !row_active[r2] {
                    continue;
                }
                let Ok(pos) = rows[r2].binary_search(&pc) else {
                    continue;
                };
                rows[r2].remove(pos);
                let ops_start = ops.len() as u32;
                for &c in &prow {
                    if c == pc {
                        continue;
                    }
                    let src = slot_of[&(pr, c)];
                    let dest = match rows[r2].binary_search(&c) {
                        Ok(_) => slot_of[&(r2, c)],
                        Err(ins) => {
                            let slot =
                                u32::try_from(slot_of.len()).expect("pattern exceeds u32 slots");
                            slot_of.insert((r2, c), slot);
                            rows[r2].insert(ins, c);
                            col_rows[c].push(r2);
                            slot
                        }
                    };
                    ops.push((dest, src));
                }
                lents.push(LEntry {
                    slot: slot_of[&(r2, pc)],
                    ops_start,
                    ops_end: ops.len() as u32,
                });
            }
            rows[pr] = prow;
            col_rows[pc] = targets;
            lranges.push((lstart, lents.len() as u32));
        }

        Ok(OracleProgram {
            n: dim,
            slots: slot_of.len(),
            scatter,
            pivot_slots,
            lranges,
            lents,
            ops,
            fill_in: slot_of.len() - initial_nnz,
            sign: permutation_sign(order_rows) * permutation_sign(order_cols),
        })
    }

    impl OracleProgram {
        /// Scatter-then-replay, as `FactorProgram::refactor_values` runs it.
        pub fn replay(&self, values: &[Complex]) -> Result<ExtComplex, FactorError> {
            let mut vals = vec![Complex::ZERO; self.slots];
            for (i, &v) in values.iter().enumerate() {
                vals[self.scatter[i] as usize] += v;
            }
            let mut det = ExtProduct::ONE;
            for step in 0..self.n {
                let pivot = vals[self.pivot_slots[step] as usize];
                if pivot == Complex::ZERO {
                    return Err(FactorError::Singular { step });
                }
                det.mul_complex(pivot);
                let (ls, le) = self.lranges[step];
                for ent in &self.lents[ls as usize..le as usize] {
                    let l = vals[ent.slot as usize] / pivot;
                    vals[ent.slot as usize] = l;
                    for &(dest, src) in &self.ops[ent.ops_start as usize..ent.ops_end as usize] {
                        let d = l * vals[src as usize];
                        vals[dest as usize] -= d;
                    }
                }
            }
            Ok(det.value() * Complex::real(self.sign))
        }
    }
}
