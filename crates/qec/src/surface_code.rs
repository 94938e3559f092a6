//! Logical error rates and patch geometry of the rotated surface code.

/// Threshold error rate of the surface code under circuit-level
/// depolarizing noise (standard value ~1%).
pub const THRESHOLD: f64 = 1e-2;

/// Prefactor of the exponential-suppression fit.
pub const SUPPRESSION_PREFACTOR: f64 = 0.1;

/// A distance-`d` rotated surface-code patch at physical error rate
/// `p_phys`.
///
/// The logical error model is the standard fit
/// `p_L(d) = A·(p/p_th)^{(d+1)/2}` per d code cycles, with `A = 0.1`,
/// `p_th = 1e-2`. At the paper's EFT operating point (`d = 11`,
/// `p = 1e-3`) this gives `1e-7`, matching the "error rates for memory,
/// measurement, CNOT and single-qubit Clifford gates are all approximately
/// 1e-7" statement of Section 4.4.
///
/// # Examples
///
/// ```
/// use eftq_qec::SurfaceCodeModel;
///
/// let code = SurfaceCodeModel::new(11, 1e-3);
/// assert_eq!(code.physical_qubits_per_patch(), 2 * 11 * 11 - 1);
/// assert_eq!(code.consumption_cycles(), 22); // 2d, the lattice-surgery CNOT time
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SurfaceCodeModel {
    distance: usize,
    p_phys: f64,
}

impl SurfaceCodeModel {
    /// Creates the model.
    ///
    /// # Panics
    ///
    /// Panics if `distance` is zero or even (rotated surface codes use odd
    /// distances), or `p_phys` is outside `(0, 1)`.
    pub fn new(distance: usize, p_phys: f64) -> Self {
        assert!(
            distance >= 1 && distance % 2 == 1,
            "distance must be odd, got {distance}"
        );
        assert!(
            p_phys > 0.0 && p_phys < 1.0,
            "p_phys out of range: {p_phys}"
        );
        SurfaceCodeModel { distance, p_phys }
    }

    /// The EFT-era default: `d = 11` at `p = 1e-3` (Section 4.4).
    pub fn eft_default() -> Self {
        SurfaceCodeModel::new(11, 1e-3)
    }

    /// Code distance.
    pub fn distance(&self) -> usize {
        self.distance
    }

    /// Physical error rate.
    pub fn p_phys(&self) -> f64 {
        self.p_phys
    }

    /// Logical error rate per logical operation (d code cycles):
    /// `A·(p/p_th)^{(d+1)/2}`.
    pub fn logical_error_rate(&self) -> f64 {
        SUPPRESSION_PREFACTOR * (self.p_phys / THRESHOLD).powf((self.distance as f64 + 1.0) / 2.0)
    }

    /// Physical qubits per patch: `d²` data + `d² − 1` ancilla.
    pub fn physical_qubits_per_patch(&self) -> usize {
        2 * self.distance * self.distance - 1
    }

    /// Cycles for a lattice-surgery CNOT / magic-state consumption: `2d`
    /// (Section 9: "the time to perform a CNOT gate with lattice surgery").
    pub fn consumption_cycles(&self) -> usize {
        2 * self.distance
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eft_operating_point_is_1e_minus_7() {
        let code = SurfaceCodeModel::eft_default();
        let rate = code.logical_error_rate();
        // 0.1 · (0.1)^6 = 1e-7 exactly.
        assert!((rate - 1e-7).abs() < 1e-12, "{rate}");
    }

    #[test]
    fn suppression_with_distance() {
        let d3 = SurfaceCodeModel::new(3, 1e-3).logical_error_rate();
        let d5 = SurfaceCodeModel::new(5, 1e-3).logical_error_rate();
        let d7 = SurfaceCodeModel::new(7, 1e-3).logical_error_rate();
        assert!(d3 > d5 && d5 > d7);
        // Each distance step suppresses by (p/p_th) = 0.1.
        assert!((d5 / d3 - 0.1).abs() < 1e-12);
    }

    #[test]
    fn worse_physical_rate_worse_logical_rate() {
        let good = SurfaceCodeModel::new(11, 5e-4).logical_error_rate();
        let bad = SurfaceCodeModel::new(11, 2e-3).logical_error_rate();
        assert!(bad > good);
    }

    #[test]
    fn patch_geometry() {
        let code = SurfaceCodeModel::new(5, 1e-3);
        assert_eq!(code.physical_qubits_per_patch(), 49);
        assert_eq!(code.consumption_cycles(), 10);
    }

    #[test]
    #[should_panic(expected = "distance must be odd")]
    fn even_distance_rejected() {
        let _ = SurfaceCodeModel::new(4, 1e-3);
    }
}
