//! A concrete tile map of the paper's Figure-3 layout.
//!
//! [`LayoutModel`] accounts tiles; this module
//! *places* them: a `6 × (k+2)` grid whose rows alternate between data and
//! routing/magic tiles, reproducing the Figure-3 structure — four logical
//! rows of `k+1` data patches (the `4k + 4` data qubits), routing channels
//! between them, and `2⌊k/3⌋` shaded magic-state tiles inside the routing
//! rows. The ASCII rendering is used by examples and documentation.

use crate::layouts::LayoutModel;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Role of one surface-code tile in the layout.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TileRole {
    /// A logical data patch (yellow in Figure 3).
    Data,
    /// Routing ancilla space (blue).
    Routing,
    /// A routing tile reserved for `Rz(θ)` magic-state injection (shaded
    /// blue).
    Magic,
}

impl TileRole {
    /// Single-character glyph for ASCII rendering.
    pub fn glyph(self) -> char {
        match self {
            TileRole::Data => 'D',
            TileRole::Routing => '.',
            TileRole::Magic => 'M',
        }
    }
}

/// The placed Figure-3 layout for block parameter `k`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PatchGrid {
    k: usize,
    /// Row-major roles, `6` rows × `k + 2` columns.
    tiles: Vec<TileRole>,
}

impl PatchGrid {
    /// Number of grid rows (fixed by the Figure-3 structure).
    pub const ROWS: usize = 6;

    /// Builds the layout for block parameter `k ≥ 1`.
    ///
    /// Data rows are rows 0, 2, 3 and 5 (columns `0..k+1`); rows 1 and 4
    /// are routing channels carrying the magic tiles; the last column is
    /// the side routing spine.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn figure3(k: usize) -> Self {
        assert!(k >= 1, "block parameter must be at least 1");
        let cols = k + 2;
        let mut tiles = vec![TileRole::Routing; Self::ROWS * cols];
        // Four data rows of k+1 patches each → 4(k+1) data qubits.
        for &row in &[0usize, 2, 3, 5] {
            for col in 0..k + 1 {
                tiles[row * cols + col] = TileRole::Data;
            }
        }
        // Magic tiles: 2⌊k/3⌋ of them, alternating between the two routing
        // channels, spaced every third column (Figure 3's shaded patches).
        let sites = 2 * (k / 3);
        let mut placed = 0;
        let mut col = 0;
        while placed < sites {
            let row = if placed % 2 == 0 { 1 } else { 4 };
            tiles[row * cols + col] = TileRole::Magic;
            if placed % 2 == 1 {
                col += 3;
            }
            placed += 1;
        }
        PatchGrid { k, tiles }
    }

    /// Builds the layout hosting at least `n` logical qubits.
    pub fn for_qubits(n: usize) -> Self {
        PatchGrid::figure3(LayoutModel::block_parameter_for(n))
    }

    /// The block parameter.
    pub fn block_parameter(&self) -> usize {
        self.k
    }

    /// Grid columns (`k + 2`).
    pub fn cols(&self) -> usize {
        self.k + 2
    }

    /// Role of the tile at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    pub fn role(&self, row: usize, col: usize) -> TileRole {
        assert!(row < Self::ROWS && col < self.cols(), "tile out of bounds");
        self.tiles[row * self.cols() + col]
    }

    /// Count of tiles with a given role.
    pub fn count(&self, role: TileRole) -> usize {
        self.tiles.iter().filter(|&&t| t == role).count()
    }

    /// Total tiles — must equal the accounting model's `6(k+2)`.
    pub fn total_tiles(&self) -> usize {
        self.tiles.len()
    }

    /// Packing efficiency of the placed grid (data / total).
    pub fn packing_efficiency(&self) -> f64 {
        self.count(TileRole::Data) as f64 / self.total_tiles() as f64
    }
}

impl fmt::Display for PatchGrid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for row in 0..Self::ROWS {
            for col in 0..self.cols() {
                write!(f, "{}", self.role(row, col).glyph())?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_match_accounting_model() {
        for k in 1..=20 {
            let grid = PatchGrid::figure3(k);
            let model = LayoutModel::proposed();
            let n = 4 * k + 4;
            assert_eq!(grid.total_tiles(), model.total_tiles(n), "k = {k}");
            assert_eq!(grid.count(TileRole::Data), 4 * (k + 1), "k = {k}");
            assert_eq!(grid.count(TileRole::Magic), 2 * (k / 3), "k = {k}");
        }
    }

    #[test]
    fn packing_efficiency_matches_formula() {
        for k in [1usize, 4, 10, 40] {
            let grid = PatchGrid::figure3(k);
            let want = 4.0 * (k as f64 + 1.0) / (6.0 * (k as f64 + 2.0));
            assert!((grid.packing_efficiency() - want).abs() < 1e-12, "k = {k}");
        }
    }

    #[test]
    fn magic_tiles_live_in_routing_rows() {
        let grid = PatchGrid::figure3(9);
        for row in 0..PatchGrid::ROWS {
            for col in 0..grid.cols() {
                if grid.role(row, col) == TileRole::Magic {
                    assert!(row == 1 || row == 4, "magic tile at row {row}");
                }
            }
        }
        assert_eq!(grid.count(TileRole::Magic), 6); // 2⌊9/3⌋
    }

    #[test]
    fn render_dimensions() {
        let grid = PatchGrid::figure3(3);
        let text = grid.to_string();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 6);
        assert!(lines.iter().all(|l| l.chars().count() == 5));
        assert!(text.contains('D') && text.contains('.') && text.contains('M'));
    }

    #[test]
    fn for_qubits_hosts_requested_size() {
        let grid = PatchGrid::for_qubits(21);
        assert!(4 * grid.block_parameter() + 4 >= 21);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn bounds_checked() {
        let grid = PatchGrid::figure3(2);
        let _ = grid.role(6, 0);
    }
}
