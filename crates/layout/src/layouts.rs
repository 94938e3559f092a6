//! Patch-layout models: tile counts, packing efficiency and time
//! multipliers.
//!
//! The proposed layout is the paper's Figure 3: four rows of `k` data
//! patches plus four side patches (`4k + 4` data qubits), interleaved with
//! routing/magic-state ancilla rows — `6(k + 2)` tiles in total, giving the
//! packing efficiency `PE = 4(k+1) / (6(k+2))` → ~67% for large `k`.
//!
//! Baselines follow Litinski's "A Game of Surface Codes" data blocks
//! (Compact `⌈1.5n⌉ + 3`, Intermediate `2n + 4`, Fast `2n + ⌈√(8n)⌉ + 1`)
//! and a Grid layout (every data patch embedded in a routing checkerboard,
//! `4n` tiles).
//!
//! **Calibration note:** the per-layout *time multipliers* are fitted so
//! the Table-1 spacetime-volume ratios land in the published
//! neighbourhood. The paper's own numbers come from their scheduler; what
//! is structural — and what tests assert — is that every baseline's
//! spacetime volume is ≥ the proposed layout's, with the ordering
//! Compact ≤ Intermediate ≤ Fast ≤ Grid, because VQA CNOT ladders
//! serialize and extra routing space buys no parallelism (Section 4.1).

use serde::{Deserialize, Serialize};

/// Which layout family.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LayoutKind {
    /// The paper's Figure-3 layout.
    Proposed,
    /// Litinski's compact data block (one routing row).
    Compact,
    /// Litinski's intermediate data block.
    Intermediate,
    /// Litinski's fast data block.
    Fast,
    /// A full routing-checkerboard grid.
    Grid,
}

impl LayoutKind {
    /// All layouts, proposed first (Table 1 row order).
    pub const ALL: [LayoutKind; 5] = [
        LayoutKind::Proposed,
        LayoutKind::Compact,
        LayoutKind::Intermediate,
        LayoutKind::Fast,
        LayoutKind::Grid,
    ];

    /// Display name matching the paper's Table 1.
    pub fn name(self) -> &'static str {
        match self {
            LayoutKind::Proposed => "proposed",
            LayoutKind::Compact => "Compact",
            LayoutKind::Intermediate => "Intermediate",
            LayoutKind::Fast => "Fast",
            LayoutKind::Grid => "Grid",
        }
    }
}

/// A layout model: tile counts and the calibrated time multiplier.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct LayoutModel {
    kind: LayoutKind,
    time_multiplier: f64,
}

impl LayoutModel {
    /// The paper's layout.
    pub fn proposed() -> Self {
        LayoutModel {
            kind: LayoutKind::Proposed,
            time_multiplier: 1.0,
        }
    }

    /// A baseline layout with its calibrated time multiplier.
    pub fn baseline(kind: LayoutKind) -> Self {
        let time_multiplier = match kind {
            LayoutKind::Proposed => 1.0,
            // Compact trades its smaller footprint for slow, serialized
            // Pauli-product measurements.
            LayoutKind::Compact => 1.06,
            // Intermediate executes a little faster than ours thanks to
            // extra routing rows, but at 2n + 4 tiles.
            LayoutKind::Intermediate => 0.9,
            // Fast/Grid cannot convert their extra space into parallelism
            // on serialized VQA ladders (Section 4.1's argument).
            LayoutKind::Fast => 1.8,
            LayoutKind::Grid => 1.95,
        };
        LayoutModel {
            kind,
            time_multiplier,
        }
    }

    /// The layout family.
    pub fn kind(&self) -> LayoutKind {
        self.kind
    }

    /// Calibrated wall-clock multiplier relative to the proposed layout.
    pub fn time_multiplier(&self) -> f64 {
        self.time_multiplier
    }

    /// The Figure-3 block parameter `k` needed to host `n` logical qubits:
    /// smallest `k ≥ 1` with `4k + 4 ≥ n`.
    pub fn block_parameter_for(n: usize) -> usize {
        if n <= 8 {
            1
        } else {
            n.div_ceil(4).saturating_sub(1)
        }
    }

    /// Total tiles (patches) the layout occupies to host `n` logical
    /// qubits.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn total_tiles(&self, n: usize) -> usize {
        assert!(n > 0, "need at least one logical qubit");
        match self.kind {
            LayoutKind::Proposed => {
                let k = LayoutModel::block_parameter_for(n);
                6 * (k + 2)
            }
            LayoutKind::Compact => (3 * n).div_ceil(2) + 3,
            LayoutKind::Intermediate => 2 * n + 4,
            LayoutKind::Fast => 2 * n + ((8 * n) as f64).sqrt().ceil() as usize + 1,
            LayoutKind::Grid => 4 * n,
        }
    }

    /// Data-qubit capacity of the layout instance hosting `n` qubits (only
    /// the proposed layout rounds up to `4k + 4`).
    pub fn data_capacity(&self, n: usize) -> usize {
        match self.kind {
            LayoutKind::Proposed => 4 * LayoutModel::block_parameter_for(n) + 4,
            _ => n,
        }
    }

    /// Packing efficiency: data patches over total tiles. For the proposed
    /// layout this is the paper's `4(k+1) / (6(k+2))`.
    pub fn packing_efficiency(&self, n: usize) -> f64 {
        self.data_capacity(n) as f64 / self.total_tiles(n) as f64
    }

    /// Number of `Rz` magic states the layout can consume in parallel
    /// (`2⌊k/3⌋` for the proposed layout, Section 4.1; baselines get a
    /// single injection site per routing region, approximated as
    /// `max(1, tiles/12)`).
    pub fn parallel_injection_sites(&self, n: usize) -> usize {
        match self.kind {
            LayoutKind::Proposed => {
                let k = LayoutModel::block_parameter_for(n);
                (2 * (k / 3)).max(1)
            }
            _ => (self.total_tiles(n) / 12).max(1),
        }
    }

    /// Physical qubits at code distance `d`: tiles × (2d² − 1).
    pub fn physical_qubits(&self, n: usize, distance: usize) -> usize {
        self.total_tiles(n) * (2 * distance * distance - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proposed_packing_efficiency_formula() {
        // PE = 4(k+1)/(6(k+2)); at k = 4 (n = 20): 20/36 ≈ 0.5556.
        let ours = LayoutModel::proposed();
        let pe = ours.packing_efficiency(20);
        assert!((pe - 20.0 / 36.0).abs() < 1e-12);
        // Large k → ~2/3 ("approximately 67%", Section 4.1; the abstract's
        // 66% packing figure).
        let pe_big = ours.packing_efficiency(400);
        assert!(pe_big > 0.64 && pe_big < 2.0 / 3.0);
    }

    #[test]
    fn block_parameter_hosts_n() {
        for n in 1..=200 {
            let k = LayoutModel::block_parameter_for(n);
            assert!(4 * k + 4 >= n, "n = {n}, k = {k}");
            assert!(k >= 1);
        }
        assert_eq!(LayoutModel::block_parameter_for(20), 4);
        assert_eq!(LayoutModel::block_parameter_for(21), 5);
    }

    #[test]
    fn baseline_tile_formulas() {
        assert_eq!(
            LayoutModel::baseline(LayoutKind::Compact).total_tiles(10),
            18
        );
        assert_eq!(
            LayoutModel::baseline(LayoutKind::Intermediate).total_tiles(10),
            24
        );
        // Fast: 2·10 + ⌈√80⌉ + 1 = 20 + 9 + 1.
        assert_eq!(LayoutModel::baseline(LayoutKind::Fast).total_tiles(10), 30);
        assert_eq!(LayoutModel::baseline(LayoutKind::Grid).total_tiles(10), 40);
    }

    #[test]
    fn proposed_has_best_packing_among_routable_layouts() {
        let n = 100;
        let ours = LayoutModel::proposed().packing_efficiency(n);
        for kind in [LayoutKind::Intermediate, LayoutKind::Fast, LayoutKind::Grid] {
            let other = LayoutModel::baseline(kind).packing_efficiency(n);
            assert!(ours > other, "{kind:?}: {ours} vs {other}");
        }
    }

    #[test]
    fn parallel_injection_sites_formula() {
        let ours = LayoutModel::proposed();
        // n = 20 → k = 4 → 2⌊4/3⌋ = 2.
        assert_eq!(ours.parallel_injection_sites(20), 2);
        // n = 40 → k = 9 → 6.
        assert_eq!(ours.parallel_injection_sites(40), 6);
    }

    #[test]
    fn physical_qubit_accounting() {
        let ours = LayoutModel::proposed();
        // n = 20 → 36 tiles × 241 (d = 11).
        assert_eq!(ours.physical_qubits(20, 11), 36 * 241);
    }

    #[test]
    fn names_match_table1() {
        assert_eq!(LayoutKind::Proposed.name(), "proposed");
        assert_eq!(LayoutKind::Grid.name(), "Grid");
        assert_eq!(LayoutKind::ALL.len(), 5);
    }
}
