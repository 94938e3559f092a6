//! Multilinear surrogate surfaces over sweep grids.
//!
//! A sweep artifact samples a metric on a regular cartesian grid; a
//! [`Surface`] turns those samples into a continuous function by
//! multilinear interpolation over the numeric axes (the k-dimensional
//! generalization of bilinear: each query point sits in a grid cell and
//! blends the cell's `2^k` corners). Queries outside the sampled range
//! clamp to the boundary — the lookup still answers, but flags itself
//! [`clamped`](Lookup::clamped) so callers can stamp the response
//! `degraded` instead of passing extrapolation off as data.
//!
//! Categorical (string) axes cannot interpolate; [`SurfaceFamily`]
//! splits the grid on them, one [`Surface`] per combination of
//! categorical values.

use eftq_sweep::grid::ArtifactGrid;
use eftq_sweep::spec::AxisValue;

/// One numeric axis of a fitted surface: the sampled coordinates in
/// strictly ascending order.
#[derive(Clone, Debug)]
pub struct SurfaceAxis {
    /// Axis (and query-parameter) name.
    pub name: String,
    /// Sampled coordinates, strictly ascending.
    pub values: Vec<f64>,
}

/// The result of a surface lookup.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Lookup {
    /// Interpolated metric value.
    pub value: f64,
    /// Whether any query coordinate fell outside the sampled range and
    /// was clamped to the boundary (nearest-surface extrapolation).
    pub clamped: bool,
}

/// A multilinear interpolation surface over a regular numeric grid.
#[derive(Clone, Debug)]
pub struct Surface {
    axes: Vec<SurfaceAxis>,
    /// Metric samples in row-major order over `axes` (first axis
    /// slowest), each axis sorted ascending.
    values: Vec<f64>,
}

impl Surface {
    /// Builds a surface from explicit axes and row-major samples.
    ///
    /// # Errors
    ///
    /// Returns an error when an axis is not strictly ascending or the
    /// sample count does not match the grid size.
    pub fn new(axes: Vec<SurfaceAxis>, values: Vec<f64>) -> Result<Self, String> {
        for axis in &axes {
            if axis.values.is_empty() {
                return Err(format!("axis '{}' has no values", axis.name));
            }
            // NaN must also fail the ascending check, so compare via
            // partial_cmp rather than a negated float comparison.
            if axis
                .values
                .windows(2)
                .any(|w| w[0].partial_cmp(&w[1]) != Some(std::cmp::Ordering::Less))
            {
                return Err(format!(
                    "axis '{}' is not strictly ascending: {:?}",
                    axis.name, axis.values
                ));
            }
        }
        let expect: usize = axes.iter().map(|a| a.values.len()).product();
        if values.len() != expect {
            return Err(format!(
                "sample count {} does not match the {expect}-point grid",
                values.len()
            ));
        }
        Ok(Surface { axes, values })
    }

    /// The surface's numeric axes, in query order.
    pub fn axes(&self) -> &[SurfaceAxis] {
        &self.axes
    }

    /// Evaluates the surface at `query` (one coordinate per axis, in
    /// [`Surface::axes`] order), clamping out-of-range coordinates to
    /// the boundary.
    ///
    /// # Panics
    ///
    /// Panics when `query.len()` differs from the axis count — that is
    /// a caller bug, not load-dependent behavior.
    pub fn eval(&self, query: &[f64]) -> Lookup {
        assert_eq!(
            query.len(),
            self.axes.len(),
            "surface query has {} coordinates for {} axes",
            query.len(),
            self.axes.len()
        );
        // Per axis: lower corner index, interpolation fraction in [0,1].
        let mut lo = Vec::with_capacity(self.axes.len());
        let mut frac = Vec::with_capacity(self.axes.len());
        let mut clamped = false;
        for (axis, &q) in self.axes.iter().zip(query) {
            let v = &axis.values;
            if v.len() == 1 {
                clamped |= q != v[0];
                lo.push(0);
                frac.push(0.0);
            } else if q <= v[0] {
                clamped |= q < v[0];
                lo.push(0);
                frac.push(0.0);
            } else if q >= v[v.len() - 1] {
                clamped |= q > v[v.len() - 1];
                lo.push(v.len() - 2);
                frac.push(1.0);
            } else {
                // v[i] <= q < v[i+1]
                let i = match v.binary_search_by(|x| x.partial_cmp(&q).unwrap()) {
                    Ok(i) => i,
                    Err(i) => i - 1,
                };
                let i = i.min(v.len() - 2);
                lo.push(i);
                frac.push((q - v[i]) / (v[i + 1] - v[i]));
            }
        }
        // Row-major strides (first axis slowest).
        let mut strides = vec![1usize; self.axes.len()];
        for i in (0..self.axes.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.axes[i + 1].values.len();
        }
        // Blend the 2^k cell corners. Axes pinned at a grid line
        // (frac == 0) skip their upper corner so NaN samples outside
        // the cell face cannot poison an exact hit.
        let mut value = 0.0;
        let corners = 1usize << self.axes.len();
        for corner in 0..corners {
            let mut weight = 1.0;
            let mut offset = 0;
            for (d, axis) in self.axes.iter().enumerate() {
                let hi = corner & (1 << d) != 0;
                if hi {
                    if frac[d] == 0.0 {
                        weight = 0.0;
                        break;
                    }
                    weight *= frac[d];
                    offset += (lo[d] + 1).min(axis.values.len() - 1) * strides[d];
                } else {
                    if frac[d] == 1.0 {
                        weight = 0.0;
                        break;
                    }
                    weight *= 1.0 - frac[d];
                    offset += lo[d] * strides[d];
                }
            }
            if weight != 0.0 {
                value += weight * self.values[offset];
            }
        }
        Lookup { value, clamped }
    }
}

/// A metric fitted over a sweep grid: one [`Surface`] per combination
/// of categorical (string) axis values.
#[derive(Clone, Debug)]
pub struct SurfaceFamily {
    metric: String,
    /// Names of the categorical axes, in spec order.
    categorical: Vec<String>,
    /// `(categorical values in axis order, surface)` variants.
    variants: Vec<(Vec<String>, Surface)>,
}

impl SurfaceFamily {
    /// Fits `metric` over the grid: numeric axes interpolate, string
    /// axes split into variants.
    ///
    /// # Errors
    ///
    /// Returns an error when the metric is missing from a row or a
    /// numeric axis has duplicate coordinates.
    pub fn fit(grid: &ArtifactGrid, metric: &str) -> Result<Self, String> {
        let spec = grid.spec();
        let samples = grid.metric(metric)?;
        let axes = spec.axes();

        // Split the spec's axes: numeric ones interpolate, string ones
        // key the variants. Each keeps its position for id decoding.
        let mut numeric: Vec<(usize, SurfaceAxis, Vec<usize>)> = Vec::new(); // (axis pos, sorted axis, sweep→sorted)
        let mut categorical: Vec<(usize, Vec<String>)> = Vec::new();
        for (pos, axis) in axes.iter().enumerate() {
            let mut strs = Vec::new();
            let mut nums = Vec::new();
            for v in &axis.values {
                match v {
                    AxisValue::Str(s) => strs.push(s.clone()),
                    other => nums.push(other.as_f64().expect("int/num axis value")),
                }
            }
            if !strs.is_empty() {
                categorical.push((pos, strs));
                continue;
            }
            // Ascending sort permutation of the sweep-order coordinates.
            let mut order: Vec<usize> = (0..nums.len()).collect();
            order.sort_by(|&a, &b| nums[a].partial_cmp(&nums[b]).unwrap());
            let sorted: Vec<f64> = order.iter().map(|&i| nums[i]).collect();
            if sorted
                .windows(2)
                .any(|w| w[0].partial_cmp(&w[1]) != Some(std::cmp::Ordering::Less))
            {
                return Err(format!(
                    "axis '{}' of '{}' has duplicate coordinates — cannot interpolate",
                    axis.name,
                    spec.name()
                ));
            }
            let mut to_sorted = vec![0usize; nums.len()];
            for (rank, &i) in order.iter().enumerate() {
                to_sorted[i] = rank;
            }
            numeric.push((
                pos,
                SurfaceAxis {
                    name: axis.name.clone(),
                    values: sorted,
                },
                to_sorted,
            ));
        }

        // Lay each point's sample into its variant's row-major slot.
        let axis_lens: Vec<usize> = axes.iter().map(|a| a.values.len()).collect();
        let numeric_size: usize = numeric.iter().map(|(_, a, _)| a.values.len()).product();
        let variant_count: usize = categorical.iter().map(|(_, s)| s.len()).product();
        let mut grids: Vec<Vec<f64>> = vec![vec![f64::NAN; numeric_size]; variant_count];
        for (id, &sample) in samples.iter().enumerate() {
            // Mixed-radix decode of the point id (first axis slowest).
            let mut rem = id;
            let mut axis_idx = vec![0usize; axis_lens.len()];
            for (pos, &len) in axis_lens.iter().enumerate().rev() {
                axis_idx[pos] = rem % len;
                rem /= len;
            }
            let mut variant = 0usize;
            for (pos, strs) in &categorical {
                variant = variant * strs.len() + axis_idx[*pos];
            }
            let mut slot = 0usize;
            for (pos, axis, to_sorted) in &numeric {
                slot = slot * axis.values.len() + to_sorted[axis_idx[*pos]];
            }
            grids[variant][slot] = sample;
        }

        let mut variants = Vec::with_capacity(variant_count);
        for (variant, values) in grids.into_iter().enumerate() {
            // Decode the variant index back into categorical values.
            let mut rem = variant;
            let mut key = vec![String::new(); categorical.len()];
            for (slot, (_, strs)) in categorical.iter().enumerate().rev() {
                key[slot] = strs[rem % strs.len()].clone();
                rem /= strs.len();
            }
            let surface =
                Surface::new(numeric.iter().map(|(_, a, _)| a.clone()).collect(), values)?;
            variants.push((key, surface));
        }
        Ok(SurfaceFamily {
            metric: metric.to_string(),
            categorical: categorical
                .iter()
                .map(|(pos, _)| axes[*pos].name.clone())
                .collect(),
            variants,
        })
    }

    /// The fitted metric's name.
    pub fn metric(&self) -> &str {
        &self.metric
    }

    /// Names of the categorical axes selecting a variant.
    pub fn categorical_axes(&self) -> &[String] {
        &self.categorical
    }

    /// The variant for the given categorical values (in
    /// [`SurfaceFamily::categorical_axes`] order); with no categorical
    /// axes, pass `&[]` for the single variant.
    pub fn surface(&self, key: &[&str]) -> Option<&Surface> {
        self.variants
            .iter()
            .find(|(k, _)| k.len() == key.len() && k.iter().zip(key).all(|(a, b)| a == b))
            .map(|(_, s)| s)
    }

    /// Every variant: `(categorical values, surface)`.
    pub fn variants(&self) -> impl Iterator<Item = (&[String], &Surface)> {
        self.variants.iter().map(|(k, s)| (k.as_slice(), s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eftq_sweep::{Row, SweepSpec};

    fn grid_from(spec: &SweepSpec, f: impl Fn(&eftq_sweep::SweepPoint) -> Row) -> ArtifactGrid {
        let rows = spec.points().iter().map(f).collect();
        ArtifactGrid::from_rows(spec, rows).unwrap()
    }

    #[test]
    fn exact_on_grid_and_linear_between() {
        let spec = SweepSpec::new("s")
            .axis_ints("x", [0, 10, 20])
            .axis_nums("y", [1.0, 2.0]);
        let grid = grid_from(&spec, |p| {
            Row::new("s")
                .int("x", p.int("x"))
                .num("y", p.num("y"))
                // A genuinely multilinear function is reproduced exactly.
                .num("m", 3.0 * p.int("x") as f64 + 5.0 * p.num("y") + 0.25)
        });
        let fam = SurfaceFamily::fit(&grid, "m").unwrap();
        let s = fam.surface(&[]).unwrap();
        for (x, y) in [(0.0, 1.0), (10.0, 2.0), (20.0, 1.0)] {
            let hit = s.eval(&[x, y]);
            assert!(!hit.clamped);
            assert!((hit.value - (3.0 * x + 5.0 * y + 0.25)).abs() < 1e-12);
        }
        let mid = s.eval(&[5.0, 1.5]);
        assert!(!mid.clamped);
        assert!((mid.value - (15.0 + 7.5 + 0.25)).abs() < 1e-12);
    }

    #[test]
    fn out_of_range_clamps_and_flags() {
        let spec = SweepSpec::new("s").axis_ints("x", [0, 10]);
        let grid = grid_from(&spec, |p| {
            Row::new("s")
                .int("x", p.int("x"))
                .num("m", p.int("x") as f64)
        });
        let s = SurfaceFamily::fit(&grid, "m").unwrap();
        let s = s.surface(&[]).unwrap();
        let below = s.eval(&[-5.0]);
        assert_eq!((below.value, below.clamped), (0.0, true));
        let above = s.eval(&[25.0]);
        assert_eq!((above.value, above.clamped), (10.0, true));
    }

    #[test]
    fn categorical_axes_split_into_variants() {
        let spec = SweepSpec::new("s")
            .axis_strs("model", ["Ising", "Heisenberg"])
            .axis_ints("n", [2, 4]);
        let grid = grid_from(&spec, |p| {
            let base = if p.str("model") == "Ising" {
                100.0
            } else {
                200.0
            };
            Row::new("s")
                .str("model", p.str("model"))
                .int("n", p.int("n"))
                .num("m", base + p.int("n") as f64)
        });
        let fam = SurfaceFamily::fit(&grid, "m").unwrap();
        assert_eq!(fam.categorical_axes(), ["model"]);
        let ising = fam.surface(&["Ising"]).unwrap();
        assert_eq!(ising.eval(&[3.0]).value, 103.0);
        let heis = fam.surface(&["Heisenberg"]).unwrap();
        assert_eq!(heis.eval(&[4.0]).value, 204.0);
        assert!(fam.surface(&["Unknown"]).is_none());
    }

    #[test]
    fn unsorted_sweep_axes_are_reordered() {
        let spec = SweepSpec::new("s").axis_ints("x", [20, 0, 10]);
        let grid = grid_from(&spec, |p| {
            Row::new("s")
                .int("x", p.int("x"))
                .num("m", p.int("x") as f64 * 2.0)
        });
        let fam = SurfaceFamily::fit(&grid, "m").unwrap();
        let s = fam.surface(&[]).unwrap();
        assert_eq!(s.axes()[0].values, vec![0.0, 10.0, 20.0]);
        assert_eq!(s.eval(&[15.0]).value, 30.0);
    }

    #[test]
    fn zero_dimensional_variants_are_constants() {
        // Only categorical axes: each variant is a single sample.
        let spec = SweepSpec::new("s").axis_strs("regime", ["NISQ", "pQEC"]);
        let grid = grid_from(&spec, |p| {
            let v = if p.str("regime") == "NISQ" { 1.0 } else { 2.0 };
            Row::new("s").str("regime", p.str("regime")).num("m", v)
        });
        let fam = SurfaceFamily::fit(&grid, "m").unwrap();
        let s = fam.surface(&["pQEC"]).unwrap();
        assert_eq!(s.eval(&[]).value, 2.0);
        assert!(!s.eval(&[]).clamped);
    }
}
