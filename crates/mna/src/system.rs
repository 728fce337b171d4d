//! MNA system assembly with element scaling.

use crate::error::MnaError;
use crate::sweep::StampTemplate;
use refgen_circuit::{Circuit, Element, ElementKind, NodeId};
use refgen_numeric::{Complex, ExtComplex};
use refgen_sparse::{SparseLu, Triplets};
use std::collections::HashMap;
use std::sync::OnceLock;

/// Frequency and conductance scale factors applied during stamping.
///
/// Realizes the paper's eq. (11): capacitors stamp as `f·C`, resistive
/// admittances (conductances, resistors as `1/R`, transconductances) as
/// `g·G`. With samples taken on the unit circle, the interpolated
/// coefficients become `p'_i = p_i·f^i·g^{M-i}` where `M` is the system's
/// admittance degree.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Scale {
    /// Frequency (capacitance) scale factor `f`.
    pub f: f64,
    /// Conductance scale factor `g`.
    pub g: f64,
}

impl Scale {
    /// No scaling: `f = g = 1`.
    pub fn unit() -> Self {
        Scale { f: 1.0, g: 1.0 }
    }

    /// Creates a scale pair.
    ///
    /// # Panics
    ///
    /// Panics unless both factors are positive and finite.
    pub fn new(f: f64, g: f64) -> Self {
        assert!(f.is_finite() && f > 0.0, "frequency scale must be positive, got {f}");
        assert!(g.is_finite() && g > 0.0, "conductance scale must be positive, got {g}");
        Scale { f, g }
    }
}

impl Default for Scale {
    fn default() -> Self {
        Scale::unit()
    }
}

/// A compiled MNA view of a circuit: node/branch index maps plus assembly
/// and evaluation entry points.
///
/// Unknowns are ordered: non-ground node voltages first (`0..nodes−1`),
/// then one branch current per voltage-defined element (independent V
/// sources, VCVS, CCVS, inductors).
#[derive(Clone, Debug)]
pub struct MnaSystem {
    circuit: Circuit,
    /// Branch index by element name.
    branch_rows: HashMap<String, usize>,
    /// Per element (in circuit order): its own branch row and the branch
    /// row of its controlling source, resolved once so stamping never
    /// looks a name up.
    element_rows: Vec<ElementRows>,
    node_count: usize,
    dim: usize,
    /// The scale-free stamp layout plan builders derive every scale's
    /// affine pattern from, built on first use.
    template: OnceLock<StampTemplate>,
}

/// Branch rows one element stamps into.
#[derive(Clone, Copy, Debug, Default)]
struct ElementRows {
    /// The element's own branch current (voltage-defined elements).
    branch: Option<usize>,
    /// The controlling branch of a current-controlled source.
    control: Option<usize>,
}

impl MnaSystem {
    /// Compiles a circuit into an MNA system.
    ///
    /// # Errors
    ///
    /// Returns [`MnaError::Circuit`] if the circuit fails validation.
    pub fn new(circuit: &Circuit) -> Result<Self, MnaError> {
        circuit.validate()?;
        // Node `k > 0` (ground is node 0) owns matrix row `k − 1`.
        let node_count = circuit.node_count().saturating_sub(1);
        let mut branch_rows = HashMap::new();
        for el in circuit.elements() {
            if el.needs_branch() {
                branch_rows.insert(el.name.clone(), node_count + branch_rows.len());
            }
        }
        let element_rows = circuit
            .elements()
            .iter()
            .map(|el| ElementRows {
                branch: branch_rows.get(&el.name).copied(),
                control: match &el.kind {
                    ElementKind::Cccs { control_branch, .. }
                    | ElementKind::Ccvs { control_branch, .. } => Some(branch_rows[control_branch]),
                    _ => None,
                },
            })
            .collect();
        let dim = node_count + branch_rows.len();
        Ok(MnaSystem {
            circuit: circuit.clone(),
            branch_rows,
            element_rows,
            node_count,
            dim,
            template: OnceLock::new(),
        })
    }

    /// The underlying circuit.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// Total unknown count (node voltages + branch currents).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of node-voltage unknowns.
    pub fn node_unknowns(&self) -> usize {
        self.node_count
    }

    /// Number of branch-current unknowns.
    pub fn branch_unknowns(&self) -> usize {
        self.dim - self.node_count
    }

    /// Matrix row of a node's voltage unknown (`None` for ground).
    pub fn node_row(&self, id: NodeId) -> Option<usize> {
        (!id.is_ground() && id.0 <= self.node_count).then(|| id.0 - 1)
    }

    /// Matrix row of an element's branch current.
    pub fn branch_row(&self, name: &str) -> Option<usize> {
        self.branch_rows.get(name).copied()
    }

    /// `true` if the circuit contains element kinds the *interpolation
    /// engine* cannot scale uniformly (inductors, CCVS). The AC simulator
    /// handles them fine.
    pub fn has_unscalable_elements(&self) -> bool {
        self.circuit
            .elements()
            .iter()
            .any(|e| matches!(e.kind, ElementKind::Inductor { .. } | ElementKind::Ccvs { .. }))
    }

    /// The structural admittance degree `M`: the number of admittance
    /// factors in every nonzero term of `det(Y_MNA)`.
    ///
    /// Every branch row is constant (±1 and dimensionless gains), and every
    /// branch column can only be covered by an incidence constant from a
    /// node row, so each of the `B` branches removes exactly two admittance
    /// factors: `M = dim − 2B = (#nodes − 1) − B`.
    ///
    /// Only meaningful when [`MnaSystem::has_unscalable_elements`] is false;
    /// CCVS branch rows carry a transresistance and break the argument.
    pub fn admittance_degree(&self) -> i64 {
        self.dim as i64 - 2 * (self.branch_unknowns() as i64)
    }

    /// Numerically measures `M` from `det(λ·Y)/det(Y) = λ^M` at a probe
    /// frequency, with `λ = 2` so the ratio is an exact power of two.
    ///
    /// # Errors
    ///
    /// Returns [`MnaError::Singular`] if the probe determinant vanishes.
    pub fn measured_admittance_degree(&self) -> Result<i64, MnaError> {
        // Probe at a frequency where caps matter: ω ≈ geometric centre of
        // the circuit's time constants, or 1 rad/s if capless.
        let caps = self.circuit.capacitor_values();
        let gs = self.circuit.conductance_values();
        let omega = if caps.is_empty() || gs.is_empty() {
            1.0
        } else {
            let gc = refgen_numeric::stats::geometric_mean(&gs).unwrap_or(1.0);
            let cc = refgen_numeric::stats::geometric_mean(&caps).unwrap_or(1.0);
            gc / cc
        };
        let s = Complex::new(0.3 * omega, omega); // off-axis: avoids jω zeros
        let d1 = self.det(s, Scale::unit())?;
        let d2 = self.det(s, Scale::new(2.0, 2.0))?;
        if d1.is_zero() || d2.is_zero() {
            return Err(MnaError::Singular { at: format!("probe s = {s}") });
        }
        let ratio_log2 = (d2.norm() / d1.norm()).log2();
        Ok(ratio_log2.round() as i64)
    }

    /// Assembles the MNA matrix at complex frequency `s` with scaling.
    pub fn assemble(&self, s: Complex, scale: Scale) -> Triplets {
        let mut t = Triplets::new(self.dim);
        self.stamp_all(s, scale, &mut |r, c, v| t.add(r, c, v));
        t
    }

    /// The raw stamp values of [`MnaSystem::assemble`] at `(s, scale)`, in
    /// stamp order, appended to `out` (positions are the template's).
    pub(crate) fn stamp_values(&self, s: Complex, scale: Scale, out: &mut Vec<Complex>) {
        self.stamp_all(s, scale, &mut |_, _, v| out.push(v));
    }

    /// The scale-free stamp layout, built on first use.
    pub(crate) fn stamp_template(&self) -> &StampTemplate {
        self.template.get_or_init(|| StampTemplate::new(self))
    }

    /// Emits every raw stamp `(row, col, value)` in stamp order.
    fn stamp_all(&self, s: Complex, scale: Scale, add: &mut dyn FnMut(usize, usize, Complex)) {
        for (el, rows) in self.circuit.elements().iter().zip(&self.element_rows) {
            self.stamp(add, el, *rows, s, scale);
        }
    }

    /// Builds the excitation vector `E` from the independent sources.
    pub fn rhs(&self) -> Vec<Complex> {
        let mut e = vec![Complex::ZERO; self.dim];
        for el in self.circuit.elements() {
            match &el.kind {
                ElementKind::VSource { ac } => {
                    let row = self.branch_rows[&el.name];
                    e[row] += Complex::real(*ac);
                }
                ElementKind::ISource { ac } => {
                    // Positive current flows p → m through the source.
                    let (p, m) = el.nodes;
                    if let Some(r) = self.node_row(p) {
                        e[r] -= Complex::real(*ac);
                    }
                    if let Some(r) = self.node_row(m) {
                        e[r] += Complex::real(*ac);
                    }
                }
                _ => {}
            }
        }
        e
    }

    /// Factors the system at `s` and returns the LU (for solves and the
    /// determinant).
    ///
    /// # Errors
    ///
    /// Returns [`MnaError::Singular`] if factorization fails.
    pub fn factor(&self, s: Complex, scale: Scale) -> Result<SparseLu, MnaError> {
        let t = self.assemble(s, scale);
        SparseLu::factor(&t).map_err(|e| MnaError::from_factor(e, format!("s = {s}")))
    }

    /// Determinant `D(s)` of the (scaled) MNA matrix — the denominator
    /// polynomial sample of the paper's eq. (9).
    ///
    /// # Errors
    ///
    /// Returns [`MnaError::Singular`] only on dimension-zero pathologies;
    /// a structurally singular matrix yields `ExtComplex::ZERO`.
    pub fn det(&self, s: Complex, scale: Scale) -> Result<ExtComplex, MnaError> {
        match self.factor(s, scale) {
            Ok(lu) => Ok(lu.det()),
            Err(_) => Ok(ExtComplex::ZERO),
        }
    }

    fn stamp(
        &self,
        add: &mut dyn FnMut(usize, usize, Complex),
        el: &Element,
        rows: ElementRows,
        s: Complex,
        scale: Scale,
    ) {
        let (p, m) = el.nodes;
        let rp = self.node_row(p);
        let rm = self.node_row(m);
        match &el.kind {
            ElementKind::Resistor { ohms } => {
                self.stamp_admittance(add, rp, rm, Complex::real(scale.g / ohms));
            }
            ElementKind::Conductance { siemens } => {
                self.stamp_admittance(add, rp, rm, Complex::real(scale.g * siemens));
            }
            ElementKind::Capacitor { farads } => {
                self.stamp_admittance(add, rp, rm, s * (scale.f * farads));
            }
            ElementKind::Vccs { gm, control } => {
                let y = Complex::real(scale.g * gm);
                let (cp, cm) = (self.node_row(control.0), self.node_row(control.1));
                self.stamp_transadmittance(add, rp, rm, cp, cm, y);
            }
            ElementKind::VSource { .. } => {
                let row = rows.branch.expect("voltage-defined elements own a branch row");
                self.stamp_branch_voltage(add, row, rp, rm);
            }
            ElementKind::Vcvs { gain, control } => {
                let row = rows.branch.expect("voltage-defined elements own a branch row");
                self.stamp_branch_voltage(add, row, rp, rm);
                let (cp, cm) = (self.node_row(control.0), self.node_row(control.1));
                if let Some(c) = cp {
                    add(row, c, Complex::real(-gain));
                }
                if let Some(c) = cm {
                    add(row, c, Complex::real(*gain));
                }
            }
            ElementKind::Cccs { gain, .. } => {
                let col = rows.control.expect("controlled sources resolve their branch");
                if let Some(r) = rp {
                    add(r, col, Complex::real(*gain));
                }
                if let Some(r) = rm {
                    add(r, col, Complex::real(-gain));
                }
            }
            ElementKind::Ccvs { ohms, .. } => {
                let row = rows.branch.expect("voltage-defined elements own a branch row");
                self.stamp_branch_voltage(add, row, rp, rm);
                let col = rows.control.expect("controlled sources resolve their branch");
                add(row, col, Complex::real(-ohms));
            }
            ElementKind::Inductor { henries } => {
                let row = rows.branch.expect("voltage-defined elements own a branch row");
                self.stamp_branch_voltage(add, row, rp, rm);
                // The frequency scale applies to every reactive element:
                // s → f·σ substitutes exactly in the branch equation too.
                add(row, row, -(s * (scale.f * *henries)));
            }
            ElementKind::ISource { .. } => {
                // Pure excitation: appears only in the RHS.
            }
        }
    }

    fn stamp_admittance(
        &self,
        add: &mut dyn FnMut(usize, usize, Complex),
        rp: Option<usize>,
        rm: Option<usize>,
        y: Complex,
    ) {
        if let Some(i) = rp {
            add(i, i, y);
            if let Some(j) = rm {
                add(i, j, -y);
            }
        }
        if let Some(j) = rm {
            add(j, j, y);
            if let Some(i) = rp {
                add(j, i, -y);
            }
        }
    }

    fn stamp_transadmittance(
        &self,
        add: &mut dyn FnMut(usize, usize, Complex),
        rp: Option<usize>,
        rm: Option<usize>,
        cp: Option<usize>,
        cm: Option<usize>,
        y: Complex,
    ) {
        for (node, sign_n) in [(rp, 1.0), (rm, -1.0)] {
            let Some(r) = node else { continue };
            for (ctrl, sign_c) in [(cp, 1.0), (cm, -1.0)] {
                let Some(c) = ctrl else { continue };
                add(r, c, y.scale(sign_n * sign_c));
            }
        }
    }

    /// Branch voltage definition row and its incidence column entries.
    fn stamp_branch_voltage(
        &self,
        add: &mut dyn FnMut(usize, usize, Complex),
        row: usize,
        rp: Option<usize>,
        rm: Option<usize>,
    ) {
        if let Some(i) = rp {
            add(row, i, Complex::ONE);
            add(i, row, Complex::ONE);
        }
        if let Some(j) = rm {
            add(row, j, -Complex::ONE);
            add(j, row, -Complex::ONE);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use refgen_circuit::library::{rc_ladder, tow_thomas_biquad, ua741};

    fn voltage_divider() -> Circuit {
        let mut c = Circuit::new();
        c.add_vsource("V1", "a", "0", 2.0).unwrap();
        c.add_resistor("R1", "a", "b", 1e3).unwrap();
        c.add_resistor("R2", "b", "0", 3e3).unwrap();
        c
    }

    #[test]
    fn dimensions() {
        let sys = MnaSystem::new(&voltage_divider()).unwrap();
        assert_eq!(sys.node_unknowns(), 2);
        assert_eq!(sys.branch_unknowns(), 1);
        assert_eq!(sys.dim(), 3);
        assert!(sys.branch_row("V1").is_some());
    }

    #[test]
    fn dc_divider_solution() {
        let c = voltage_divider();
        let sys = MnaSystem::new(&c).unwrap();
        let lu = sys.factor(Complex::ZERO, Scale::unit()).unwrap();
        let x = lu.solve(&sys.rhs());
        let b_row = sys.node_row(c.find_node("b").unwrap()).unwrap();
        // v(b) = 2 V · 3k/4k = 1.5 V.
        assert!((x[b_row] - Complex::real(1.5)).abs() < 1e-12);
        let a_row = sys.node_row(c.find_node("a").unwrap()).unwrap();
        assert!((x[a_row] - Complex::real(2.0)).abs() < 1e-12);
        // Branch current: 2V/4k = 0.5 mA flowing out of the + terminal.
        let i_row = sys.branch_row("V1").unwrap();
        assert!((x[i_row] + Complex::real(0.5e-3)).abs() < 1e-9, "{}", x[i_row]);
    }

    #[test]
    fn isource_rc() {
        let mut c = Circuit::new();
        c.add_isource("I1", "0", "n", 1e-3).unwrap();
        c.add_resistor("R1", "n", "0", 2e3).unwrap();
        c.add_capacitor("C1", "n", "0", 1e-9).unwrap();
        let sys = MnaSystem::new(&c).unwrap();
        let lu = sys.factor(Complex::ZERO, Scale::unit()).unwrap();
        let x = lu.solve(&sys.rhs());
        let n_row = sys.node_row(c.find_node("n").unwrap()).unwrap();
        // 1 mA into 2 kΩ = 2 V.
        assert!((x[n_row] - Complex::real(2.0)).abs() < 1e-12);
    }

    #[test]
    fn capacitor_frequency_dependence() {
        let c = rc_ladder(1, 1e3, 1e-9);
        let sys = MnaSystem::new(&c).unwrap();
        let w0 = 1.0 / (1e3 * 1e-9);
        let lu = sys.factor(Complex::new(0.0, w0), Scale::unit()).unwrap();
        let x = lu.solve(&sys.rhs());
        let out = sys.node_row(c.find_node("out").unwrap()).unwrap();
        // At the pole frequency |H| = 1/√2.
        assert!((x[out].abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-9);
    }

    #[test]
    fn scale_equivalence_frequency_vs_element() {
        // Scaling all caps by f and evaluating at σ must equal evaluating
        // the unscaled system at s = f·σ.
        let c = rc_ladder(4, 1e3, 1e-9);
        let sys = MnaSystem::new(&c).unwrap();
        let sigma = Complex::new(0.2, 0.9);
        let f = 1e9;
        let d_scaled = sys.det(sigma, Scale::new(f, 1.0)).unwrap();
        let d_subst = sys.det(sigma.scale(f), Scale::unit()).unwrap();
        let rel = ((d_scaled - d_subst).norm() / d_subst.norm()).to_f64();
        assert!(rel < 1e-12, "rel = {rel}");
    }

    #[test]
    fn admittance_degree_structural_vs_measured() {
        for (name, circuit) in [
            ("ladder", rc_ladder(5, 1e3, 1e-9)),
            ("ota", refgen_circuit::library::positive_feedback_ota()),
            ("biquad", tow_thomas_biquad(10e3, 2.0, 1e4)),
            ("ua741", ua741()),
        ] {
            let sys = MnaSystem::new(&circuit).unwrap();
            let structural = sys.admittance_degree();
            let measured = sys.measured_admittance_degree().unwrap();
            assert_eq!(structural, measured, "{name}");
        }
    }

    #[test]
    fn conductance_scaling_multiplies_det_uniformly() {
        // With f = g = λ, det scales by exactly λ^M.
        let c = rc_ladder(3, 1e3, 1e-9);
        let sys = MnaSystem::new(&c).unwrap();
        let s = Complex::new(1e5, 3e5);
        let d1 = sys.det(s, Scale::unit()).unwrap();
        let d2 = sys.det(s, Scale::new(4.0, 4.0)).unwrap();
        let m = sys.admittance_degree();
        let expect = d1.scale_ext(refgen_numeric::ExtFloat::from_f64(4.0).powi(m));
        let rel = ((d2 - expect).norm() / expect.norm()).to_f64();
        assert!(rel < 1e-11, "rel = {rel}");
    }

    #[test]
    fn det_of_singular_circuit_is_zero() {
        // Two V sources in parallel on the same node pair: singular MNA.
        let mut c = Circuit::new();
        c.add_vsource("V1", "a", "0", 1.0).unwrap();
        c.add_vsource("V2", "a", "0", 1.0).unwrap();
        c.add_resistor("R1", "a", "0", 1e3).unwrap();
        let sys = MnaSystem::new(&c).unwrap();
        assert!(sys.det(Complex::ONE, Scale::unit()).unwrap().is_zero());
    }

    #[test]
    fn unscalable_detection() {
        let mut c = Circuit::new();
        c.add_vsource("V1", "a", "0", 1.0).unwrap();
        c.add_inductor("L1", "a", "b", 1e-6).unwrap();
        c.add_resistor("R1", "b", "0", 50.0).unwrap();
        let sys = MnaSystem::new(&c).unwrap();
        assert!(sys.has_unscalable_elements());
        let sys2 = MnaSystem::new(&rc_ladder(2, 1.0, 1.0)).unwrap();
        assert!(!sys2.has_unscalable_elements());
    }

    #[test]
    fn inductor_ac_behaviour() {
        // Series RL divider: at ω = R/L, |v(b)/v(a)| = 1/√2 across R.
        let mut c = Circuit::new();
        c.add_vsource("V1", "a", "0", 1.0).unwrap();
        c.add_inductor("L1", "a", "b", 1e-3).unwrap();
        c.add_resistor("R1", "b", "0", 1e3).unwrap();
        let sys = MnaSystem::new(&c).unwrap();
        let w = 1e3 / 1e-3;
        let lu = sys.factor(Complex::new(0.0, w), Scale::unit()).unwrap();
        let x = lu.solve(&sys.rhs());
        let b_row = sys.node_row(c.find_node("b").unwrap()).unwrap();
        assert!((x[b_row].abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-9);
    }

    #[test]
    fn vcvs_ideal_amplifier() {
        let mut c = Circuit::new();
        c.add_vsource("V1", "a", "0", 1.0).unwrap();
        c.add_resistor("R1", "a", "0", 1e3).unwrap();
        c.add_vcvs("E1", "o", "0", "a", "0", -5.0).unwrap();
        c.add_resistor("R2", "o", "0", 1e3).unwrap();
        let sys = MnaSystem::new(&c).unwrap();
        let lu = sys.factor(Complex::ZERO, Scale::unit()).unwrap();
        let x = lu.solve(&sys.rhs());
        let o = sys.node_row(c.find_node("o").unwrap()).unwrap();
        assert!((x[o] - Complex::real(-5.0)).abs() < 1e-12);
    }

    #[test]
    fn cccs_current_mirror() {
        let mut c = Circuit::new();
        c.add_vsource("VS", "a", "0", 1.0).unwrap();
        c.add_resistor("R1", "a", "0", 1e3).unwrap(); // i(VS) = 1 mA
        c.add_cccs("F1", "0", "o", "VS", 2.0).unwrap();
        c.add_resistor("R2", "o", "0", 1e3).unwrap();
        let sys = MnaSystem::new(&c).unwrap();
        let lu = sys.factor(Complex::ZERO, Scale::unit()).unwrap();
        let x = lu.solve(&sys.rhs());
        let o = sys.node_row(c.find_node("o").unwrap()).unwrap();
        // SPICE convention: i(VS) = −1 mA (sources driving loads read
        // negative), so F pushes 2·i = −2 mA from node 0 to node o,
        // giving v(o) = −2 V.
        assert!((x[o] - Complex::real(-2.0)).abs() < 1e-9, "{}", x[o]);
    }

    #[test]
    fn ccvs_transresistance() {
        let mut c = Circuit::new();
        c.add_vsource("VS", "a", "0", 1.0).unwrap();
        c.add_resistor("R1", "a", "0", 1e3).unwrap();
        c.add_ccvs("H1", "o", "0", "VS", 500.0).unwrap();
        c.add_resistor("R2", "o", "0", 1e3).unwrap();
        let sys = MnaSystem::new(&c).unwrap();
        assert!(sys.has_unscalable_elements());
        let lu = sys.factor(Complex::ZERO, Scale::unit()).unwrap();
        let x = lu.solve(&sys.rhs());
        let o = sys.node_row(c.find_node("o").unwrap()).unwrap();
        // v(o) = 500 · i(VS) = 500 · (−1 mA) = −0.5 V.
        assert!((x[o] - Complex::real(-0.5)).abs() < 1e-9, "{}", x[o]);
    }
}
