//! Magic state cultivation (Gidney, Shutty & Jones 2024) — the
//! `qec-cultivation` baseline of Section 3.4.
//!
//! Cultivation grows a high-fidelity T state inside (roughly) a single
//! surface-code patch, at the cost of a high discard rate: a unit retries
//! until a grown state passes its checks, so the *expected* latency per
//! accepted T state is `attempt_cycles / p_accept`. The paper's Figure-6
//! dynamics follow directly: with many leftover qubits you run many units
//! and T states are plentiful; as the program claims more logical qubits,
//! fewer units fit, the per-state latency rises and stalled patches accrue
//! memory errors.
//!
//! Calibration: output error 2e-9 at `p = 1e-3` (the cultivation paper's
//! d=5-grade result), one unit occupies two distance-`d` patches of
//! working area, an attempt costs `d` cycles, and the end-to-end
//! acceptance probability is 20%.

use crate::surface_code::SurfaceCodeModel;

/// Cultivation-unit resource model at a given code distance and physical
/// error rate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CultivationModel {
    code: SurfaceCodeModel,
    /// End-to-end probability an attempt survives all checks.
    p_accept: f64,
    /// Output T-state error at the `p = 1e-3` anchor.
    output_error_at_1e3: f64,
}

impl CultivationModel {
    /// Creates the model with the documented default calibration.
    pub fn new(distance: usize, p_phys: f64) -> Self {
        CultivationModel {
            code: SurfaceCodeModel::new(distance, p_phys),
            p_accept: 0.2,
            output_error_at_1e3: 2e-9,
        }
    }

    /// The EFT default (`d = 11`, `p = 1e-3`).
    pub fn eft_default() -> Self {
        CultivationModel::new(11, 1e-3)
    }

    /// Underlying surface-code model.
    pub fn code(&self) -> &SurfaceCodeModel {
        &self.code
    }

    /// Physical qubits per cultivation unit: two patches of working area
    /// ("space overhead comparable to a single surface code patch", plus
    /// its escape/expansion room).
    pub fn physical_qubits_per_unit(&self) -> usize {
        2 * self.code.physical_qubits_per_patch()
    }

    /// Cycles per cultivation attempt (grow + check): `d`.
    pub fn attempt_cycles(&self) -> usize {
        self.code.distance()
    }

    /// Expected cycles per *accepted* T state for a single unit:
    /// `attempt_cycles / p_accept`.
    pub fn expected_cycles_per_state(&self) -> f64 {
        self.attempt_cycles() as f64 / self.p_accept
    }

    /// Output T-state error rate, rescaled from the 1e-3 anchor with the
    /// same cubic order as distillation (cultivation is also a
    /// third-order-suppressing protocol at this grade).
    pub fn output_error(&self) -> f64 {
        (self.output_error_at_1e3 * (self.code.p_phys() / 1e-3).powi(3)).min(1.0)
    }

    /// Number of cultivation units that fit in `budget` physical qubits.
    pub fn units_in(&self, budget: usize) -> usize {
        budget / self.physical_qubits_per_unit()
    }

    /// Aggregate T-state production rate (states/cycle) for `units` units.
    pub fn production_rate(&self, units: usize) -> f64 {
        units as f64 / self.expected_cycles_per_state()
    }

    /// Expected wait (cycles) between T states available to the program
    /// when `units` units serve it; `f64::INFINITY` when no unit fits.
    pub fn cycles_between_states(&self, units: usize) -> f64 {
        if units == 0 {
            f64::INFINITY
        } else {
            self.expected_cycles_per_state() / units as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_is_much_smaller_than_a_factory() {
        let c = CultivationModel::eft_default();
        // Two d=11 patches: 2·241 = 482 qubits — well under the 810-qubit
        // smallest factory.
        assert_eq!(c.physical_qubits_per_unit(), 482);
        assert!(c.physical_qubits_per_unit() < 810);
    }

    #[test]
    fn output_error_is_far_below_distillation_small_configs() {
        let c = CultivationModel::eft_default();
        assert!(c.output_error() < 1e-8);
        assert!((c.output_error() - 2e-9).abs() < 1e-15);
    }

    #[test]
    fn latency_grows_as_units_shrink() {
        let c = CultivationModel::eft_default();
        let many = c.cycles_between_states(10);
        let few = c.cycles_between_states(2);
        assert!(few > many);
        assert!(c.cycles_between_states(0).is_infinite());
    }

    #[test]
    fn expected_cycles_accounts_for_discards() {
        let c = CultivationModel::eft_default();
        // 11 cycles per attempt / 0.2 acceptance = 55.
        assert!((c.expected_cycles_per_state() - 55.0).abs() < 1e-12);
    }

    #[test]
    fn units_in_budget() {
        let c = CultivationModel::eft_default();
        assert_eq!(c.units_in(10_000), 20);
        assert_eq!(c.units_in(100), 0);
    }

    #[test]
    fn production_rate_linear_in_units() {
        let c = CultivationModel::eft_default();
        let r1 = c.production_rate(1);
        let r4 = c.production_rate(4);
        assert!((r4 - 4.0 * r1).abs() < 1e-15);
    }
}
