//! Sparse LU factorization with Markowitz pivoting.
//!
//! The pivot at each step is chosen to minimize the Markowitz count
//! `(r_nnz − 1)·(c_nnz − 1)` (a classic fill-in heuristic from circuit
//! simulation) among entries passing a threshold stability test
//! `|a| ≥ u·max|row|`. The resulting [`PivotOrder`] can be reused for fast
//! *numeric refactorization*: the interpolation engine factors the same
//! circuit matrix at dozens of frequency points, and only the first
//! factorization pays for pivot search.
//!
//! # The pivot choice and arithmetic contract
//!
//! Every recorded order, and hence every compiled program downstream, is
//! a function of this exact rule, so it is pinned bit for bit:
//!
//! * a candidate `(r, c)` needs `|a| ≥ u·max|row r|` and `|a| > 0`;
//! * the smallest Markowitz count `(r_nnz − 1)·(c_nnz − 1)` wins, where
//!   `r_nnz` counts the row's entries that are not exactly zero and
//!   `c_nnz` counts every active entry of the column, explicit zeros
//!   included;
//! * on a tie the strictly larger `|a|` wins, and on a further tie the
//!   first candidate in ascending `(row, col)` order.
//!
//! Duplicate triplets sum from `Complex::ZERO` in entry order (as
//! [`Triplets::to_rows`] does). Each update of an existing entry is one
//! `a −= l·v`, a fill-in entry is `−(l·v)`, and an entry that cancels to
//! exactly zero stays in the pattern. `U` rows are kept in ascending
//! column order. The elimination runs on flat column-sorted rows with
//! cached row maxima, nonzero counts and per-column entry counts, so a
//! pivot search never recomputes a magnitude or recounts a column.
//!
//! The determinant is accumulated as an
//! [`refgen_numeric::ExtComplex`] — the product of pivots of a
//! scaled MNA matrix reaches `1e±124` and beyond (paper Table 2), which must
//! not overflow.

use crate::triplets::Triplets;
use refgen_numeric::{Complex, ExtComplex, ExtProduct};
use std::fmt;

/// Default threshold-pivoting parameter: candidates must satisfy
/// `|a| ≥ u·max|row|`. `0.1` is the customary compromise between stability
/// and sparsity (a pure-stability choice would be `1.0`).
pub const DEFAULT_PIVOT_THRESHOLD: f64 = 0.1;

/// Errors from LU factorization.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FactorError {
    /// The matrix is structurally or numerically singular; `step` is the
    /// elimination step (0-based) at which no usable pivot remained.
    Singular {
        /// Elimination step at which factorization failed.
        step: usize,
    },
    /// A reused pivot order does not match the matrix dimension.
    OrderMismatch {
        /// Dimension implied by the pivot order.
        expected: usize,
        /// Actual matrix dimension.
        actual: usize,
    },
}

impl fmt::Display for FactorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FactorError::Singular { step } => {
                write!(f, "matrix is singular at elimination step {step}")
            }
            FactorError::OrderMismatch { expected, actual } => {
                write!(f, "pivot order is for dimension {expected}, matrix has {actual}")
            }
        }
    }
}

impl std::error::Error for FactorError {}

/// A recorded pivot sequence: at step `k` the pivot sits at original
/// position `(rows[k], cols[k])`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PivotOrder {
    rows: Vec<usize>,
    cols: Vec<usize>,
}

impl PivotOrder {
    /// A symmetric (diagonal-pivot) order: step `k` pivots on
    /// `(perm[k], perm[k])`. This is the shape fill-reducing symbolic
    /// orderings over the pattern graph produce
    /// ([`minimum_degree`](crate::ordering::minimum_degree)); whether the
    /// prescribed diagonal pivots actually exist in the filled pattern is
    /// checked by [`FactorProgram::compile`](crate::FactorProgram::compile).
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..perm.len()`.
    pub fn diagonal(perm: Vec<usize>) -> PivotOrder {
        let mut seen = vec![false; perm.len()];
        for &p in &perm {
            assert!(
                p < perm.len() && !std::mem::replace(&mut seen[p], true),
                "diagonal order is not a permutation of 0..{}",
                perm.len()
            );
        }
        PivotOrder { rows: perm.clone(), cols: perm }
    }

    /// Pivot row (original index) for each elimination step.
    pub fn rows(&self) -> &[usize] {
        &self.rows
    }

    /// Pivot column (original index) for each elimination step.
    pub fn cols(&self) -> &[usize] {
        &self.cols
    }

    /// The dimension this order was produced for.
    pub fn dim(&self) -> usize {
        self.rows.len()
    }

    /// Sign of the combined row/column permutation (`+1.0` or `-1.0`).
    pub(crate) fn sign(&self) -> f64 {
        permutation_sign(&self.rows) * permutation_sign(&self.cols)
    }
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

/// An LU factorization of a sparse complex matrix.
///
/// See the [crate docs](crate) for an end-to-end example.
#[derive(Clone, Debug)]
pub struct SparseLu {
    n: usize,
    order: PivotOrder,
    /// `lcols[k]` — multipliers eliminating column `cols[k]` from the listed
    /// original rows.
    lcols: Vec<Vec<(usize, Complex)>>,
    /// `urows[k]` — the pivot row at step `k`, original column indices,
    /// *excluding* the pivot entry itself.
    urows: Vec<Vec<(usize, Complex)>>,
    pivots: Vec<Complex>,
    det: ExtComplex,
    fill_in: usize,
}

impl SparseLu {
    /// Factors with Markowitz pivoting at the default stability threshold.
    ///
    /// # Errors
    ///
    /// Returns [`FactorError::Singular`] if no nonzero pivot remains at some
    /// elimination step.
    pub fn factor(a: &Triplets) -> Result<SparseLu, FactorError> {
        Self::factor_with_threshold(a, DEFAULT_PIVOT_THRESHOLD)
    }

    /// Factors with a caller-chosen threshold `u ∈ (0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns [`FactorError::Singular`] if the matrix is singular.
    ///
    /// # Panics
    ///
    /// Panics if `u` is not in `(0, 1]`.
    pub fn factor_with_threshold(a: &Triplets, u: f64) -> Result<SparseLu, FactorError> {
        assert!(u > 0.0 && u <= 1.0, "pivot threshold must be in (0,1], got {u}");
        factor_impl(a, PivotStrategy::Markowitz { threshold: u })
    }

    /// Refactors numerically with a previously recorded pivot order — no
    /// pivot search. Sweeps replay a recorded order through the compiled
    /// [`FactorProgram`](crate::FactorProgram) instead; this is the
    /// straightforward reference its replay is tested against.
    ///
    /// # Errors
    ///
    /// Returns [`FactorError::OrderMismatch`] on dimension mismatch and
    /// [`FactorError::Singular`] if a prescribed pivot is exactly zero (the
    /// caller should fall back to a fresh [`SparseLu::factor`]).
    pub fn refactor(a: &Triplets, order: &PivotOrder) -> Result<SparseLu, FactorError> {
        if order.dim() != a.dim() {
            return Err(FactorError::OrderMismatch { expected: order.dim(), actual: a.dim() });
        }
        factor_impl(a, PivotStrategy::Fixed(order.clone()))
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// The pivot order used, reusable via [`SparseLu::refactor`].
    pub fn order(&self) -> &PivotOrder {
        &self.order
    }

    /// Determinant (sign-corrected for the row/column permutations), in
    /// extended range.
    pub fn det(&self) -> ExtComplex {
        self.det
    }

    /// Number of fill-in entries created during elimination.
    pub fn fill_in(&self) -> usize {
        self.fill_in
    }

    /// Solves `A·x = b`.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` differs from the matrix dimension.
    pub fn solve(&self, b: &[Complex]) -> Vec<Complex> {
        assert_eq!(b.len(), self.n, "rhs length mismatch");
        let mut work = b.to_vec();
        // Forward elimination replay: y[k] lives at work[order.rows[k]].
        for k in 0..self.n {
            let t = work[self.order.rows[k]];
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
            let mut s = work[self.order.rows[k]];
            for &(c, v) in &self.urows[k] {
                s -= v * x[c];
            }
            x[self.order.cols[k]] = s / self.pivots[k];
        }
        x
    }
}

enum PivotStrategy {
    Markowitz { threshold: f64 },
    Fixed(PivotOrder),
}

/// One stored entry of the active submatrix: column, value and the cached
/// magnitude `|value|` the pivot search compares.
#[derive(Clone, Copy, Debug)]
struct Entry {
    col: usize,
    val: Complex,
    mag: f64,
}

impl Entry {
    fn new(col: usize, val: Complex) -> Entry {
        Entry { col, val, mag: val.abs() }
    }
}

/// The active submatrix of an elimination in flat form: column-sorted
/// rows, each with its cached largest magnitude and nonzero count, plus
/// the number of active rows holding an entry in each column.
struct ActiveMatrix {
    rows: Vec<Vec<Entry>>,
    /// `max |a|` over the row (`0.0` when every entry is zero).
    row_max: Vec<f64>,
    /// Entries of the row that are not exactly zero.
    row_nnz: Vec<usize>,
    row_active: Vec<bool>,
    /// Active rows holding a (possibly zero) entry in the column.
    col_count: Vec<usize>,
    /// `count_hist[k]`: columns with `col_count == k`. Its smallest
    /// nonzero `k ≥ 1` bounds every candidate's column count from below.
    count_hist: Vec<usize>,
    /// Rows that gained an entry in the column; rows retired since then
    /// are skipped by the `row_active` test.
    col_rows: Vec<Vec<usize>>,
}

impl ActiveMatrix {
    /// Accumulates the triplets: duplicates sum from zero in entry order,
    /// exactly as [`Triplets::to_rows`] does.
    fn new(a: &Triplets) -> ActiveMatrix {
        let n = a.dim();
        let entries = a.entries();
        // Stable sort by position, so each position's duplicates stay in
        // entry order.
        let mut by_position: Vec<u32> = (0..entries.len())
            .map(|i| u32::try_from(i).expect("entry count exceeds u32"))
            .collect();
        by_position.sort_by_key(|&i| (entries[i as usize].0, entries[i as usize].1));
        let mut row_len = vec![0usize; n];
        for &(r, _, _) in entries {
            row_len[r] += 1;
        }
        let mut m = ActiveMatrix {
            rows: row_len.iter().map(|&len| Vec::with_capacity(len)).collect(),
            row_max: vec![0.0; n],
            row_nnz: vec![0; n],
            row_active: vec![true; n],
            col_count: vec![0; n],
            count_hist: vec![0; n + 1],
            col_rows: vec![Vec::new(); n],
        };
        for &i in &by_position {
            let (r, c, v) = entries[i as usize];
            match m.rows[r].last_mut() {
                Some(last) if last.col == c => last.val += v,
                _ => {
                    let mut sum = Complex::ZERO;
                    sum += v;
                    m.rows[r].push(Entry { col: c, val: sum, mag: 0.0 });
                    m.col_count[c] += 1;
                    m.col_rows[c].push(r);
                }
            }
        }
        for r in 0..n {
            for e in &mut m.rows[r] {
                e.mag = e.val.abs();
            }
            m.refresh(r);
        }
        m.count_hist[0] = n;
        for &k in &m.col_count {
            m.count_hist[0] -= 1;
            m.count_hist[k] += 1;
        }
        m
    }

    /// Moves column `c`'s active-entry count to `count`.
    fn recount(&mut self, c: usize, count: usize) {
        self.count_hist[self.col_count[c]] -= 1;
        self.count_hist[count] += 1;
        self.col_count[c] = count;
    }

    /// Active rows holding an entry in column `c`, ascending, into `rows`.
    fn column_rows(&self, c: usize, rows: &mut Vec<usize>) {
        rows.clear();
        rows.extend(self.col_rows[c].iter().copied().filter(|&r| self.row_active[r]));
        rows.sort_unstable();
    }

    /// Recomputes the cached `(row_max, row_nnz)` of row `r`.
    fn refresh(&mut self, r: usize) {
        let row = &self.rows[r];
        self.row_max[r] = row.iter().map(|e| e.mag).fold(0.0, f64::max);
        self.row_nnz[r] = row.iter().filter(|e| e.val != Complex::ZERO).count();
    }

    fn get(&self, r: usize, c: usize) -> Complex {
        let row = &self.rows[r];
        row.binary_search_by_key(&c, |e| e.col).map_or(Complex::ZERO, |i| row[i].val)
    }

    /// Markowitz pivot selection with the threshold stability test; see
    /// the [module docs](self) for the exact choice rule.
    fn select_markowitz(&self, threshold: f64) -> Option<(usize, usize)> {
        // Every candidate's column count is at least the smallest nonzero
        // one, which bounds each row's Markowitz counts from below.
        let c_cost = self.count_hist.iter().skip(1).position(|&k| k > 0).unwrap_or(0);
        let mut best: Option<(usize, usize, usize, f64)> = None; // (r, c, markowitz, |a|)
        for (r, row) in self.rows.iter().enumerate() {
            let row_max = self.row_max[r];
            if !self.row_active[r] || row_max == 0.0 {
                continue;
            }
            let r_cost = self.row_nnz[r] - 1;
            if let Some((_, _, bm, bmag)) = best {
                // Exact skip: no candidate here has a smaller count, and
                // none at an equal count has a larger magnitude.
                let bound = r_cost * c_cost;
                if bound > bm || (bound == bm && row_max <= bmag) {
                    continue;
                }
            }
            let limit = threshold * row_max;
            for e in row {
                if e.mag < limit || e.mag == 0.0 {
                    continue;
                }
                let mark = r_cost * self.col_count[e.col].saturating_sub(1);
                let better = match best {
                    None => true,
                    Some((_, _, bm, bmag)) => mark < bm || (mark == bm && e.mag > bmag),
                };
                if better {
                    best = Some((r, e.col, mark, e.mag));
                }
            }
        }
        best.map(|(r, c, _, _)| (r, c))
    }
}

fn factor_impl(a: &Triplets, strategy: PivotStrategy) -> Result<SparseLu, FactorError> {
    let n = a.dim();
    let mut m = ActiveMatrix::new(a);
    let initial_nnz: usize = m.rows.iter().map(Vec::len).sum();

    let mut order_rows = Vec::with_capacity(n);
    let mut order_cols = Vec::with_capacity(n);
    let mut lcols = Vec::with_capacity(n);
    let mut urows = Vec::with_capacity(n);
    let mut pivots = Vec::with_capacity(n);
    let mut det_mag = ExtProduct::ONE;
    let mut merged: Vec<Entry> = Vec::new();
    let mut targets: Vec<usize> = Vec::new();

    for step in 0..n {
        let (pr, pc) = match &strategy {
            PivotStrategy::Markowitz { threshold } => {
                m.select_markowitz(*threshold).ok_or(FactorError::Singular { step })?
            }
            PivotStrategy::Fixed(ord) => (ord.rows[step], ord.cols[step]),
        };
        let pivot = m.get(pr, pc);
        if pivot == Complex::ZERO {
            return Err(FactorError::Singular { step });
        }
        det_mag.mul_complex(pivot);
        order_rows.push(pr);
        order_cols.push(pc);
        pivots.push(pivot);
        m.row_active[pr] = false;

        // Detach the pivot row; record U (without the pivot entry).
        let prow = std::mem::take(&mut m.rows[pr]);
        for e in &prow {
            m.recount(e.col, m.col_count[e.col] - 1);
        }
        let urow: Vec<(usize, Complex)> =
            prow.iter().filter(|e| e.col != pc).map(|e| (e.col, e.val)).collect();

        // Eliminate column pc from the remaining active rows, in ascending
        // row order; every one of them holds an entry there.
        m.column_rows(pc, &mut targets);
        m.recount(pc, 0);
        let mut lcol = Vec::with_capacity(targets.len());
        for &r2 in &targets {
            let mut row = std::mem::take(&mut m.rows[r2]);
            let at = row.binary_search_by_key(&pc, |e| e.col).expect("column lists are exact");
            let a_rc = row.remove(at).val;
            if a_rc != Complex::ZERO {
                let l = a_rc / pivot;
                lcol.push((r2, l));
                // Merge the scaled pivot row into this row: `a -= l·v` on
                // shared columns, fill-in `−(l·v)` on the others.
                merged.clear();
                let mut old = row.iter().peekable();
                for &(c, v) in &urow {
                    while let Some(e) = old.next_if(|e| e.col < c) {
                        merged.push(*e);
                    }
                    let delta = l * v;
                    match old.next_if(|e| e.col == c) {
                        Some(e) => {
                            let mut val = e.val;
                            val -= delta;
                            merged.push(Entry::new(c, val));
                        }
                        None => {
                            merged.push(Entry::new(c, -delta));
                            m.recount(c, m.col_count[c] + 1);
                            m.col_rows[c].push(r2);
                        }
                    }
                }
                merged.extend(old);
                std::mem::swap(&mut row, &mut merged);
            }
            m.rows[r2] = row;
            m.refresh(r2);
        }
        lcols.push(lcol);
        urows.push(urow);
    }

    let order = PivotOrder { rows: order_rows, cols: order_cols };
    let det = det_mag.value() * Complex::real(order.sign());
    let final_nnz: usize = urows.iter().map(|u| u.len() + 1).sum::<usize>()
        + lcols.iter().map(|l| l.len()).sum::<usize>();
    Ok(SparseLu {
        n,
        order,
        lcols,
        urows,
        pivots,
        det,
        fill_in: final_nnz.saturating_sub(initial_nnz),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tri(dim: usize, entries: &[(usize, usize, f64)]) -> Triplets {
        let mut t = Triplets::new(dim);
        for &(r, c, v) in entries {
            t.add(r, c, Complex::real(v));
        }
        t
    }

    #[test]
    fn solve_small_system() {
        let a = tri(
            3,
            &[
                (0, 0, 4.0),
                (0, 1, 1.0),
                (1, 0, 1.0),
                (1, 1, 3.0),
                (1, 2, -1.0),
                (2, 1, -1.0),
                (2, 2, 2.0),
            ],
        );
        let lu = SparseLu::factor(&a).unwrap();
        let x_true = vec![Complex::real(1.0), Complex::real(-2.0), Complex::real(0.5)];
        let b = a.to_dense().mul_vec(&x_true);
        let x = lu.solve(&b);
        for (got, want) in x.iter().zip(&x_true) {
            assert!((*got - *want).abs() < 1e-12);
        }
    }

    #[test]
    fn det_matches_dense() {
        let a = tri(
            4,
            &[
                (0, 0, 2.0),
                (0, 3, 1.0),
                (1, 1, -1.0),
                (1, 2, 0.5),
                (2, 0, 3.0),
                (2, 2, 4.0),
                (3, 1, 1.0),
                (3, 3, -2.0),
            ],
        );
        let lu = SparseLu::factor(&a).unwrap();
        let dense = a.to_dense().det();
        let diff = (lu.det() - dense).norm();
        assert!((diff / dense.norm()).to_f64() < 1e-12, "{} vs {}", lu.det(), dense);
    }

    #[test]
    fn det_sign_permutation() {
        // Anti-diagonal identity: det = sign of reversal permutation.
        for n in 2..7 {
            let mut t = Triplets::new(n);
            for i in 0..n {
                t.add(i, n - 1 - i, Complex::ONE);
            }
            let lu = SparseLu::factor(&t).unwrap();
            let expect = if (n * (n - 1) / 2) % 2 == 0 { 1.0 } else { -1.0 };
            assert!(
                (lu.det().to_complex() - Complex::real(expect)).abs() < 1e-12,
                "n={n}: {}",
                lu.det()
            );
        }
    }

    #[test]
    fn singular_detected() {
        let a = tri(2, &[(0, 0, 1.0), (0, 1, 2.0), (1, 0, 2.0), (1, 1, 4.0)]);
        match SparseLu::factor(&a) {
            Err(FactorError::Singular { .. }) => {}
            other => panic!("expected singular, got {other:?}"),
        }
        // Structurally singular: empty row.
        let b = tri(2, &[(0, 0, 1.0)]);
        assert!(matches!(SparseLu::factor(&b), Err(FactorError::Singular { .. })));
    }

    #[test]
    fn complex_entries() {
        let mut t = Triplets::new(2);
        t.add(0, 0, Complex::new(0.0, 1.0));
        t.add(0, 1, Complex::real(1.0));
        t.add(1, 0, Complex::real(1.0));
        t.add(1, 1, Complex::new(0.0, -1.0));
        // det = (j)(-j) - 1 = 1 - 1 = 0 → singular
        assert!(SparseLu::factor(&t).is_err());
        // Perturb to make it regular.
        t.add(1, 1, Complex::real(0.5));
        let lu = SparseLu::factor(&t).unwrap();
        let dense = t.to_dense().det();
        assert!(((lu.det() - dense).norm() / dense.norm()).to_f64() < 1e-12);
    }

    #[test]
    fn refactor_same_values_matches() {
        let a = tri(
            3,
            &[(0, 0, 1.0), (0, 2, 2.0), (1, 1, 3.0), (1, 0, 1.0), (2, 2, 5.0), (2, 1, -1.0)],
        );
        let lu = SparseLu::factor(&a).unwrap();
        let re = SparseLu::refactor(&a, lu.order()).unwrap();
        assert!(((lu.det() - re.det()).norm()).to_f64() < 1e-12);
        let b = vec![Complex::ONE; 3];
        let x1 = lu.solve(&b);
        let x2 = re.solve(&b);
        for (p, q) in x1.iter().zip(&x2) {
            assert!((*p - *q).abs() < 1e-13);
        }
    }

    #[test]
    fn refactor_new_values_same_pattern() {
        let mut a = Triplets::new(2);
        a.add(0, 0, Complex::real(1.0));
        a.add(1, 1, Complex::real(1.0));
        a.add(0, 1, Complex::real(0.25));
        let lu = SparseLu::factor(&a).unwrap();
        // New values, same pattern.
        let mut b = Triplets::new(2);
        b.add(0, 0, Complex::real(3.0));
        b.add(1, 1, Complex::real(-2.0));
        b.add(0, 1, Complex::real(1.0));
        let re = SparseLu::refactor(&b, lu.order()).unwrap();
        assert!((re.det().to_complex() - Complex::real(-6.0)).abs() < 1e-12);
    }

    #[test]
    fn refactor_dimension_mismatch() {
        let a = tri(2, &[(0, 0, 1.0), (1, 1, 1.0)]);
        let lu = SparseLu::factor(&a).unwrap();
        let b = tri(3, &[(0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0)]);
        assert!(matches!(
            SparseLu::refactor(&b, lu.order()),
            Err(FactorError::OrderMismatch { expected: 2, actual: 3 })
        ));
    }

    #[test]
    fn extreme_scale_determinant() {
        // Diagonal with huge spread: det = 1e-100·1e100·1e-200 = 1e-200…
        // then another 1e-200 → product 1e-400, beyond f64.
        let mut t = Triplets::new(4);
        for (i, &v) in [1e-100, 1e100, 1e-200, 1e-200].iter().enumerate() {
            t.add(i, i, Complex::real(v));
        }
        let lu = SparseLu::factor(&t).unwrap();
        assert!((lu.det().norm().log10() + 400.0).abs() < 1e-9);
    }

    #[test]
    fn markowitz_prefers_sparse_pivot() {
        // An arrow matrix: dense first row/col. Markowitz should not pick
        // the (0,0) corner first (that fills everything); after factoring,
        // fill-in must stay small.
        let n = 12;
        let mut t = Triplets::new(n);
        for i in 0..n {
            t.add(i, i, Complex::real(2.0));
        }
        for i in 1..n {
            t.add(0, i, Complex::real(1.0));
            t.add(i, 0, Complex::real(1.0));
        }
        let lu = SparseLu::factor(&t).unwrap();
        assert!(lu.fill_in() <= 2, "fill-in {}", lu.fill_in());
        // Compare determinant with the dense oracle.
        let dense = t.to_dense().det();
        assert!(((lu.det() - dense).norm() / dense.norm()).to_f64() < 1e-12);
    }

    #[test]
    fn permutation_sign_helper() {
        assert_eq!(permutation_sign(&[0, 1, 2]), 1.0);
        assert_eq!(permutation_sign(&[1, 0, 2]), -1.0);
        assert_eq!(permutation_sign(&[1, 2, 0]), 1.0);
        assert_eq!(permutation_sign(&[]), 1.0);
    }

    #[test]
    fn dim_zero_matrix() {
        let t = Triplets::new(0);
        let lu = SparseLu::factor(&t).unwrap();
        assert_eq!(lu.det().to_complex(), Complex::ONE);
        assert!(lu.solve(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "rhs length mismatch")]
    fn solve_wrong_length_panics() {
        let t = tri(2, &[(0, 0, 1.0), (1, 1, 1.0)]);
        SparseLu::factor(&t).unwrap().solve(&[Complex::ONE]);
    }
}
