//! Magic-state (T-state) distillation factory catalog.
//!
//! Configurations follow Litinski's "Magic state distillation: Not as
//! costly as you think" as quoted by the paper: a `(15-to-1)` factory is
//! parameterized by `(d_x, d_z, d_m)`; bigger parameters cost more qubits
//! and cycles but emit better T states. The paper evaluates the four
//! configurations compatible with a 10 000-qubit device (Section 3.2).

use serde::{Deserialize, Serialize};

/// A distillation factory configuration.
///
/// `output_error_at_1e3` is the T-state error rate at the anchor physical
/// rate `p = 1e-3`; [`FactoryConfig::output_error`] rescales for other
/// rates using the order-3 behaviour of 15-to-1 distillation
/// (`≈ 35·p_in³` plus a Clifford-noise floor set by the code distances).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct FactoryConfig {
    /// Human-readable name, e.g. `"(15-to-1)_{7,3,3}"`.
    pub name: &'static str,
    /// X-distance of the factory patches.
    pub dx: usize,
    /// Z-distance.
    pub dz: usize,
    /// Temporal (measurement) distance.
    pub dm: usize,
    /// Physical qubits occupied.
    pub physical_qubits: usize,
    /// Clock cycles to produce one batch of outputs.
    pub cycles_per_batch: usize,
    /// Distilled T states per batch.
    pub outputs_per_batch: usize,
    /// Output T-state error rate at `p_phys = 1e-3`.
    pub output_error_at_1e3: f64,
}

impl FactoryConfig {
    /// Cycles per single distilled T state.
    pub fn cycles_per_state(&self) -> f64 {
        self.cycles_per_batch as f64 / self.outputs_per_batch as f64
    }

    /// Output error at physical rate `p_phys`, rescaled from the 1e-3
    /// anchor by the cubic suppression of 15-to-1 distillation.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < p_phys < 1`.
    pub fn output_error(&self, p_phys: f64) -> f64 {
        assert!(
            p_phys > 0.0 && p_phys < 1.0,
            "p_phys out of range: {p_phys}"
        );
        (self.output_error_at_1e3 * (p_phys / 1e-3).powi(3)).min(1.0)
    }

    /// Aggregate T-state production rate (states per cycle) of `copies`
    /// factories.
    pub fn production_rate(&self, copies: usize) -> f64 {
        copies as f64 / self.cycles_per_state()
    }
}

/// The four `(15-to-1)` configurations the paper evaluates against pQEC
/// (Figure 4), ordered small to large.
///
/// Numbers: the `(7,3,3)` and `(17,7,7)` rows are quoted directly in the
/// paper (810 qubits / 22 cycles / 5.4e-4 and ≈46% of 10k qubits /
/// 42 cycles / 4.5e-8); the intermediate rows follow Litinski's tables.
pub const FACTORY_CATALOG: [FactoryConfig; 4] = [
    FactoryConfig {
        name: "(15-to-1)_{7,3,3}",
        dx: 7,
        dz: 3,
        dm: 3,
        physical_qubits: 810,
        cycles_per_batch: 22,
        outputs_per_batch: 1,
        output_error_at_1e3: 5.4e-4,
    },
    FactoryConfig {
        name: "(15-to-1)_{9,3,3}",
        dx: 9,
        dz: 3,
        dm: 3,
        physical_qubits: 1150,
        cycles_per_batch: 24,
        outputs_per_batch: 1,
        output_error_at_1e3: 9.3e-5,
    },
    FactoryConfig {
        name: "(15-to-1)_{11,5,5}",
        dx: 11,
        dz: 5,
        dm: 5,
        physical_qubits: 2070,
        cycles_per_batch: 30,
        outputs_per_batch: 1,
        output_error_at_1e3: 1.9e-6,
    },
    FactoryConfig {
        name: "(15-to-1)_{17,7,7}",
        dx: 17,
        dz: 7,
        dm: 7,
        physical_qubits: 4620,
        cycles_per_batch: 42,
        outputs_per_batch: 1,
        output_error_at_1e3: 4.5e-8,
    },
];

/// Looks up a catalog entry by its `(d_x, d_z, d_m)` triple.
pub fn factory_by_distances(dx: usize, dz: usize, dm: usize) -> Option<&'static FactoryConfig> {
    FACTORY_CATALOG
        .iter()
        .find(|f| f.dx == dx && f.dz == dz && f.dm == dm)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_quoted_numbers() {
        let small = factory_by_distances(7, 3, 3).unwrap();
        assert_eq!(small.physical_qubits, 810);
        assert_eq!(small.cycles_per_batch, 22);
        assert!((small.output_error_at_1e3 - 5.4e-4).abs() < 1e-12);
        let big = factory_by_distances(17, 7, 7).unwrap();
        assert_eq!(big.cycles_per_batch, 42);
        assert!((big.output_error_at_1e3 - 4.5e-8).abs() < 1e-20);
        // "up to 46% of physical qubits" of a 10k device.
        assert!((big.physical_qubits as f64 / 10_000.0 - 0.462).abs() < 0.01);
    }

    #[test]
    fn catalog_is_monotone() {
        for w in FACTORY_CATALOG.windows(2) {
            assert!(w[0].physical_qubits < w[1].physical_qubits);
            assert!(w[0].cycles_per_batch <= w[1].cycles_per_batch);
            assert!(w[0].output_error_at_1e3 > w[1].output_error_at_1e3);
        }
    }

    #[test]
    fn output_error_rescaling() {
        let f = &FACTORY_CATALOG[0];
        assert_eq!(f.output_error(1e-3), f.output_error_at_1e3);
        // Half the physical rate → 8× better output (cubic).
        let half = f.output_error(5e-4);
        assert!((half - f.output_error_at_1e3 / 8.0).abs() < 1e-9);
    }

    #[test]
    fn copies_and_production_rate() {
        let f = &FACTORY_CATALOG[0];
        let rate = f.production_rate(2);
        assert!((rate - 2.0 / 22.0).abs() < 1e-12);
    }

    #[test]
    fn lookup_misses_return_none() {
        assert!(factory_by_distances(5, 5, 5).is_none());
    }
}
