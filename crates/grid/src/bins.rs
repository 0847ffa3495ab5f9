//! Variable-width binning of a discrete domain.
//!
//! A [`Binning`] partitions the domain `0..d` into `l ≤ d` contiguous cells.
//! When `l` does not divide `d` the first `d mod l` cells are one value
//! wider, so *any* granularity in `1..=d` is usable. This is the mechanism
//! behind FELIP's claim (§3.2/§5.8) of avoiding TDG/HDG's power-of-two
//! rounding: the optimiser's exact `l` is always realisable.

use felip_common::{Error, Result};

/// A partition of `0..domain` into contiguous cells.
///
/// Serializes as its edges alone (`{"edges": [..]}`); the projection
/// table is derived from them on construction and deserialization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Binning {
    /// Cell boundaries: `edges[i]..edges[i+1]` is cell `i`;
    /// `edges[0] == 0`, `edges[len-1] == domain`, strictly increasing.
    edges: Vec<u32>,
    /// Constant-time projection table: entry `b` is `(c, edges[c + 1])`
    /// for the cell `c` holding value `b << shift`. `2^shift` is at most
    /// the narrowest cell's width, so the values `b << shift ..
    /// (b + 1) << shift` span cells `c` and `c + 1` only, and one compare
    /// against `edges[c + 1]` picks between them. `⌈d / 2^shift⌉ ≤ d`
    /// entries, fewer than `2·d / min_width`.
    lookup: Vec<(u32, u32)>,
    /// `⌊log2(narrowest cell width)⌋`.
    shift: u32,
}

impl serde::Serialize for Binning {
    fn to_content(&self) -> serde::Content {
        serde::Content::Map(vec![(
            serde::Content::Str("edges".to_string()),
            self.edges.to_content(),
        )])
    }
}

impl serde::Deserialize for Binning {
    fn from_content(c: &serde::Content) -> std::result::Result<Self, serde::DeError> {
        let map = c
            .as_map()
            .ok_or_else(|| serde::DeError::expected("map", "Binning"))?;
        let edges = Vec::<u32>::from_content(serde::map_field(map, "edges", "Binning")?)?;
        Binning::from_edges(edges).map_err(|e| serde::DeError::new(e.to_string()))
    }
}

impl Binning {
    /// Near-equal-width binning of `0..domain` into `cells` cells.
    ///
    /// Cell widths differ by at most one: with `w = d / l` and `r = d % l`,
    /// the first `r` cells have width `w + 1` and the rest width `w`.
    pub fn equal(domain: u32, cells: u32) -> Result<Self> {
        if domain == 0 {
            return Err(Error::InvalidParameter("binning over empty domain".into()));
        }
        if cells == 0 || cells > domain {
            return Err(Error::InvalidParameter(format!(
                "cell count {cells} out of range 1..={domain}"
            )));
        }
        let w = domain / cells;
        let r = domain % cells;
        let mut edges = Vec::with_capacity(cells as usize + 1);
        let mut at = 0u32;
        edges.push(0);
        for i in 0..cells {
            at += w + u32::from(i < r);
            edges.push(at);
        }
        debug_assert_eq!(at, domain);
        Ok(Binning::with_edges(edges))
    }

    /// Identity binning: one cell per value (used for categorical axes).
    pub fn identity(domain: u32) -> Result<Self> {
        Self::equal(domain, domain)
    }

    /// A binning from explicit edges. Must start at 0, be strictly
    /// increasing, and end at the domain size.
    pub fn from_edges(edges: Vec<u32>) -> Result<Self> {
        if edges.len() < 2 || edges[0] != 0 {
            return Err(Error::InvalidParameter(
                "binning edges must start at 0".into(),
            ));
        }
        if !edges.windows(2).all(|w| w[0] < w[1]) {
            return Err(Error::InvalidParameter(
                "binning edges must be strictly increasing".into(),
            ));
        }
        Ok(Binning::with_edges(edges))
    }

    /// Builds the projection table for validated `edges` (at least two,
    /// starting at 0, strictly increasing).
    fn with_edges(edges: Vec<u32>) -> Self {
        let min_width = edges
            .windows(2)
            .map(|w| w[1] - w[0])
            .min()
            .expect("validated edges hold at least one cell");
        let shift = min_width.ilog2();
        let domain = *edges.last().expect("validated edges are non-empty");
        let mut lookup = Vec::with_capacity(((domain - 1) >> shift) as usize + 1);
        let mut cell = 0usize;
        for start in (0..domain).step_by(1 << shift) {
            while edges[cell + 1] <= start {
                cell += 1;
            }
            lookup.push((cell as u32, edges[cell + 1]));
        }
        Binning {
            edges,
            lookup,
            shift,
        }
    }

    /// Number of cells `l`.
    pub fn cells(&self) -> u32 {
        (self.edges.len() - 1) as u32
    }

    /// Domain size `d`.
    pub fn domain(&self) -> u32 {
        *self.edges.last().expect("binning always has edges")
    }

    /// The cell containing `value`, in constant time: one table load and
    /// one branch-free compare.
    ///
    /// # Panics
    /// `value` must be below the domain size; callers validate. Debug
    /// builds assert it. Release builds never clamp an out-of-domain value
    /// into the last cell: they return `cells()` or panic on the table
    /// bounds check.
    #[inline]
    pub fn cell_of(&self, value: u32) -> u32 {
        debug_assert!(
            value < self.domain(),
            "value {value} out of domain {}",
            self.domain()
        );
        let (cell, upper) = self.lookup[(value >> self.shift) as usize];
        cell + u32::from(value >= upper)
    }

    /// Inclusive-exclusive value range `[lo, hi)` of cell `i`.
    pub fn cell_range(&self, i: u32) -> (u32, u32) {
        (self.edges[i as usize], self.edges[i as usize + 1])
    }

    /// Width (number of domain values) of cell `i`.
    pub fn width(&self, i: u32) -> u32 {
        self.edges[i as usize + 1] - self.edges[i as usize]
    }

    /// All cell edges.
    pub fn edges(&self) -> &[u32] {
        &self.edges
    }

    /// Equal-*mass* binning: splits `0..weights.len()` into `cells` bins so
    /// that each bin carries roughly the same share of `weights` (the
    /// data-aware extension of DESIGN.md §8: mass-balanced cells avoid the
    /// low-true-count cells whose estimates are pure noise).
    ///
    /// Weights are clamped at zero; an all-zero histogram degenerates to
    /// [`Binning::equal`]. The result always has exactly
    /// `min(cells, domain)` bins with strictly increasing edges.
    pub fn equal_mass(weights: &[f64], cells: u32) -> Result<Self> {
        let d = weights.len() as u32;
        if d == 0 {
            return Err(Error::InvalidParameter("binning over empty domain".into()));
        }
        let cells = cells.clamp(1, d);
        let total: f64 = weights.iter().map(|w| w.max(0.0)).sum();
        if total <= 0.0 {
            return Binning::equal(d, cells);
        }
        let mut edges = Vec::with_capacity(cells as usize + 1);
        edges.push(0u32);
        let mut cum = 0.0;
        for (i, w) in weights.iter().enumerate() {
            cum += w.max(0.0);
            let v = i as u32 + 1; // candidate edge after value i
            let bins_closed = edges.len() as u32 - 1;
            if v >= d || bins_closed + 1 >= cells {
                break; // the final bin absorbs everything left
            }
            // Bins still to fill after closing the current one at v:
            let bins_after = cells - bins_closed - 1;
            let values_after = d - v;
            // Cut when the running mass is as close to the bin's target as
            // it will get — either we already reached it, or adding the
            // next value would overshoot by more than the current
            // undershoot. Also cut when forced: exactly one value must be
            // left for each remaining bin.
            let target = total * (bins_closed + 1) as f64 / cells as f64;
            let next = weights[v as usize].max(0.0);
            let closest_now = cum + 1e-12 >= target || (target - cum) <= (cum + next - target);
            let must_cut = values_after == bins_after;
            if (closest_now && values_after >= bins_after) || must_cut {
                edges.push(v);
            }
        }
        edges.push(d);
        Binning::from_edges(edges)
    }

    /// Cells overlapping the inclusive value range `[lo, hi]`, as
    /// `(cell, overlap_fraction)` where `overlap_fraction` is the share of
    /// the cell's width inside the range — the uniformity assumption used
    /// when a query rectangle partially intersects a cell (§5.2).
    pub fn overlaps(&self, lo: u32, hi: u32) -> Vec<(u32, f64)> {
        debug_assert!(lo <= hi && hi < self.domain());
        let first = self.cell_of(lo);
        let last = self.cell_of(hi);
        let mut out = Vec::with_capacity((last - first + 1) as usize);
        for c in first..=last {
            let (clo, chi) = self.cell_range(c); // [clo, chi)
            let olo = lo.max(clo);
            let ohi = (hi + 1).min(chi);
            let frac = (ohi - olo) as f64 / (chi - clo) as f64;
            out.push((c, frac));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_divisible() {
        let b = Binning::equal(100, 4).unwrap();
        assert_eq!(b.cells(), 4);
        assert_eq!(b.domain(), 100);
        assert_eq!(b.edges(), &[0, 25, 50, 75, 100]);
        assert_eq!(b.width(2), 25);
    }

    #[test]
    fn equal_non_divisible() {
        // 10 values into 3 cells: widths 4, 3, 3.
        let b = Binning::equal(10, 3).unwrap();
        assert_eq!(b.edges(), &[0, 4, 7, 10]);
        assert_eq!(b.width(0), 4);
        assert_eq!(b.width(1), 3);
        // Widths differ by at most one for many (d, l) combos.
        for d in 1..60u32 {
            for l in 1..=d {
                let b = Binning::equal(d, l).unwrap();
                let ws: Vec<u32> = (0..l).map(|i| b.width(i)).collect();
                let min = *ws.iter().min().unwrap();
                let max = *ws.iter().max().unwrap();
                assert!(max - min <= 1, "d={d} l={l} widths {ws:?}");
                assert_eq!(ws.iter().sum::<u32>(), d);
            }
        }
    }

    #[test]
    fn identity_binning() {
        let b = Binning::identity(5).unwrap();
        assert_eq!(b.cells(), 5);
        for v in 0..5 {
            assert_eq!(b.cell_of(v), v);
            assert_eq!(b.width(v), 1);
        }
    }

    /// The binary search `cell_of` ran before its projection table: the
    /// oracle the table must agree with.
    fn cell_by_search(b: &Binning, value: u32) -> u32 {
        (b.edges().partition_point(|&e| e <= value) - 1) as u32
    }

    fn assert_projection_exact(b: &Binning) {
        for v in 0..b.domain() {
            assert_eq!(
                b.cell_of(v),
                cell_by_search(b, v),
                "value {v} of {:?}",
                b.edges()
            );
        }
    }

    #[test]
    fn cell_of_matches_binary_search_on_every_value() {
        for d in 1..300u32 {
            for l in 1..=d {
                assert_projection_exact(&Binning::equal(d, l).unwrap());
            }
        }
        // The paper's §6.2 axes and wide categorical domains.
        for (d, l) in [(256, 31), (256, 16), (256, 64), (1000, 7), (4096, 4096)] {
            assert_projection_exact(&Binning::equal(d, l).unwrap());
        }
        for d in [1u32, 2, 8, 255, 1024] {
            assert_projection_exact(&Binning::identity(d).unwrap());
        }
        // Equal-mass cells of very uneven widths, width-1 cells among
        // wide ones: the table shift drops to 0.
        let mut spiky = vec![0.01f64; 200];
        for i in [3usize, 4, 5, 90, 91, 199] {
            spiky[i] = 10.0;
        }
        for cells in [2u32, 5, 9, 17, 64, 200] {
            let b = Binning::equal_mass(&spiky, cells).unwrap();
            assert_projection_exact(&b);
        }
        let b = Binning::equal_mass(&spiky, 9).unwrap();
        assert!(
            (0..b.cells()).any(|c| b.width(c) == 1) && (0..b.cells()).any(|c| b.width(c) > 8),
            "spiky weights must mix width-1 and wide cells: {:?}",
            b.edges()
        );
        // Explicit edges: power-of-two widths and a lone wide tail.
        for edges in [
            vec![0, 4, 8, 12],
            vec![0, 1, 2, 1000],
            vec![0, 7, 15, 16, 40],
        ] {
            assert_projection_exact(&Binning::from_edges(edges).unwrap());
        }
    }

    #[test]
    fn projection_table_stays_small() {
        // 256 values into 31 cells of width 8 or 9: 32 entries.
        assert_eq!(Binning::equal(256, 31).unwrap().lookup.len(), 32);
        for d in 1..200u32 {
            for l in 1..=d {
                let b = Binning::equal(d, l).unwrap();
                let min_width = (0..l).map(|c| b.width(c)).min().unwrap();
                assert!(b.lookup.len() as u32 <= d);
                assert!(b.lookup.len() as u32 <= 2 * d / min_width);
            }
        }
    }

    #[test]
    fn serializes_as_edges_only() {
        use serde::{Content, Deserialize, Serialize};
        let b = Binning::equal(10, 3).unwrap();
        let edges = |e: &[u64]| {
            Content::Map(vec![(
                Content::Str("edges".into()),
                Content::Seq(e.iter().map(|&x| Content::U64(x)).collect()),
            )])
        };
        assert_eq!(b.to_content(), edges(&[0, 4, 7, 10]));
        let back = Binning::from_content(&b.to_content()).unwrap();
        assert_eq!(back, b);
        assert_eq!(back.cell_of(5), 1);
        assert!(Binning::from_content(&edges(&[0, 4, 4])).is_err());
        assert!(Binning::from_content(&edges(&[])).is_err());
    }

    #[test]
    fn cell_of_round_trips() {
        let b = Binning::equal(103, 7).unwrap();
        for v in 0..103u32 {
            let c = b.cell_of(v);
            let (lo, hi) = b.cell_range(c);
            assert!(lo <= v && v < hi, "value {v} not in cell {c} = [{lo},{hi})");
        }
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(Binning::equal(0, 1).is_err());
        assert!(Binning::equal(10, 0).is_err());
        assert!(Binning::equal(10, 11).is_err());
    }

    #[test]
    fn from_edges_validation() {
        assert!(Binning::from_edges(vec![0, 5, 10]).is_ok());
        assert!(Binning::from_edges(vec![1, 5]).is_err());
        assert!(Binning::from_edges(vec![0]).is_err());
        assert!(Binning::from_edges(vec![0, 5, 5]).is_err());
        assert!(Binning::from_edges(vec![0, 7, 3]).is_err());
    }

    #[test]
    fn overlaps_full_and_partial() {
        let b = Binning::equal(100, 4).unwrap(); // cells of width 25
                                                 // Exact cell: full overlap.
        let o = b.overlaps(25, 49);
        assert_eq!(o, vec![(1, 1.0)]);
        // Range [10, 60] overlaps cells 0 (60%), 1 (100%), 2 (44%).
        let o = b.overlaps(10, 60);
        assert_eq!(o.len(), 3);
        assert_eq!(o[0].0, 0);
        assert!((o[0].1 - 0.6).abs() < 1e-12);
        assert!((o[1].1 - 1.0).abs() < 1e-12);
        assert!((o[2].1 - 11.0 / 25.0).abs() < 1e-12);
    }

    #[test]
    fn overlaps_single_value() {
        let b = Binning::equal(10, 3).unwrap(); // widths 4,3,3
        let o = b.overlaps(5, 5);
        assert_eq!(o.len(), 1);
        assert_eq!(o[0].0, 1);
        assert!((o[0].1 - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn equal_mass_balances_skewed_histogram() {
        // Mass concentrated in the first quarter of a 16-value domain.
        let mut w = vec![0.01f64; 16];
        for slot in &mut w[..4] {
            *slot = 1.0;
        }
        let b = Binning::equal_mass(&w, 4).unwrap();
        assert_eq!(b.cells(), 4);
        // Per-bin mass should be far closer to 25% than equal-width's
        // (which would put ~99% into the first bin).
        let total: f64 = w.iter().sum();
        for c in 0..4 {
            let (lo, hi) = b.cell_range(c);
            let mass: f64 = w[lo as usize..hi as usize].iter().sum::<f64>() / total;
            assert!(mass > 0.05 && mass < 0.6, "bin {c} mass {mass}");
        }
        // The dense region is split finer than the sparse tail.
        assert!(b.width(0) < b.width(3), "widths {:?}", b.edges());
    }

    #[test]
    fn equal_mass_exact_bin_count() {
        for d in [3usize, 7, 16, 50] {
            for cells in 1..=d.min(12) as u32 {
                // All mass at the first value — worst case for cutting.
                let mut w = vec![0.0f64; d];
                w[0] = 1.0;
                let b = Binning::equal_mass(&w, cells).unwrap();
                assert_eq!(b.cells(), cells, "d={d} cells={cells} front-loaded");
                // All mass at the last value.
                let mut w = vec![0.0f64; d];
                w[d - 1] = 1.0;
                let b = Binning::equal_mass(&w, cells).unwrap();
                assert_eq!(b.cells(), cells, "d={d} cells={cells} back-loaded");
            }
        }
    }

    #[test]
    fn equal_mass_uniform_weights_equal_width() {
        let w = vec![1.0f64; 100];
        let b = Binning::equal_mass(&w, 4).unwrap();
        assert_eq!(b.edges(), Binning::equal(100, 4).unwrap().edges());
    }

    #[test]
    fn equal_mass_handles_degenerate_input() {
        // All-zero (or negative) weights fall back to equal width.
        let b = Binning::equal_mass(&[0.0, -1.0, 0.0, 0.0], 2).unwrap();
        assert_eq!(b.edges(), Binning::equal(4, 2).unwrap().edges());
        // Requesting more cells than values clamps.
        let b = Binning::equal_mass(&[1.0, 1.0], 9).unwrap();
        assert_eq!(b.cells(), 2);
        assert!(Binning::equal_mass(&[], 1).is_err());
    }

    #[test]
    fn overlaps_whole_domain_sums_to_cells() {
        let b = Binning::equal(97, 13).unwrap();
        let o = b.overlaps(0, 96);
        assert_eq!(o.len(), 13);
        assert!(o.iter().all(|&(_, f)| (f - 1.0).abs() < 1e-12));
    }
}
