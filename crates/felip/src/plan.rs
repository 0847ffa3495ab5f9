//! Collection planning: grid enumeration, per-grid sizing, AFO choice, and
//! population partitioning.

use felip_common::hash::mix64;
use felip_common::{Result, Schema};
use felip_fo::afo::choose_oracle;
use felip_fo::variance::{grr_variance_factor, olh_variance_factor};
use felip_fo::FoKind;
use felip_grid::optimize::{optimize_grid, AxisInput, SizingInput};
use felip_grid::{Axis, Binning, GridId, GridSpec};

use crate::config::{FelipConfig, Strategy};

/// The aggregator's public collection plan: which grids exist, how each is
/// binned, which protocol each uses, and how users map to groups.
///
/// The plan is sent to clients (it contains no private data) so each user
/// can project and perturb locally.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct CollectionPlan {
    schema: Schema,
    config: FelipConfig,
    n: usize,
    grids: Vec<GridSpec>,
    /// Seed driving the user → group assignment.
    assignment_seed: u64,
}

impl CollectionPlan {
    /// Builds the plan for `n` users over `schema` (§5, steps 1–2).
    ///
    /// Grid enumeration: a 2-D grid for every attribute pair; under
    /// [`Strategy::Ohg`] additionally a 1-D grid for every *numerical*
    /// attribute (§5.2). The group count `m` equals the grid count; each
    /// grid is sized for both GRR and OLH and the protocol achieving the
    /// lower minimised error is selected (the AFO, §5.3), unless
    /// [`FelipConfig::force_fo`] pins one.
    pub fn build(
        schema: &Schema,
        n: usize,
        config: &FelipConfig,
        assignment_seed: u64,
    ) -> Result<Self> {
        Self::build_inner(schema, n, config, assignment_seed, None)
    }

    /// Like [`CollectionPlan::build`], but bins numerical axes by equal
    /// *mass* against the given per-attribute value histograms instead of
    /// equal width — the data-aware two-phase extension (DESIGN.md §8).
    /// `weights[a]` is `None` for attributes without prior shape knowledge
    /// (categorical attributes are always ignored: they are never binned).
    pub fn build_data_aware(
        schema: &Schema,
        n: usize,
        config: &FelipConfig,
        assignment_seed: u64,
        weights: &[Option<Vec<f64>>],
    ) -> Result<Self> {
        if weights.len() != schema.len() {
            return Err(felip_common::Error::InvalidParameter(format!(
                "{} weight histograms for {} attributes",
                weights.len(),
                schema.len()
            )));
        }
        for (a, w) in weights.iter().enumerate() {
            if let Some(w) = w {
                if w.len() != schema.domain(a) as usize {
                    return Err(felip_common::Error::InvalidParameter(format!(
                        "attribute {a}: histogram has {} entries for domain {}",
                        w.len(),
                        schema.domain(a)
                    )));
                }
            }
        }
        Self::build_inner(schema, n, config, assignment_seed, Some(weights))
    }

    fn build_inner(
        schema: &Schema,
        n: usize,
        config: &FelipConfig,
        assignment_seed: u64,
        weights: Option<&[Option<Vec<f64>>]>,
    ) -> Result<Self> {
        let _span = felip_obs::span!("plan");
        config.validate(schema)?;
        if n == 0 {
            return Err(felip_common::Error::InvalidParameter(
                "cannot plan a collection for zero users".into(),
            ));
        }
        let ids = Self::grid_ids(schema, config.strategy);
        let m = ids.len();
        let grids = ids
            .into_iter()
            .map(|id| Self::size_one_grid(schema, n, m, config, id, weights))
            .collect::<Result<Vec<_>>>()?;
        Ok(CollectionPlan {
            schema: schema.clone(),
            config: config.clone(),
            n,
            grids,
            assignment_seed,
        })
    }

    /// Builds a plan from externally sized grid specifications.
    ///
    /// This is the extension point the TDG/HDG baselines use: they follow
    /// the same collect → estimate → answer pipeline as FELIP but size every
    /// grid with one global power-of-two granularity (§3.2), so they
    /// construct the [`GridSpec`]s themselves and inject them here.
    pub fn from_specs(
        schema: &Schema,
        n: usize,
        config: &FelipConfig,
        grids: Vec<GridSpec>,
        assignment_seed: u64,
    ) -> Result<Self> {
        config.validate(schema)?;
        if n == 0 {
            return Err(felip_common::Error::InvalidParameter(
                "cannot plan a collection for zero users".into(),
            ));
        }
        if grids.is_empty() {
            return Err(felip_common::Error::InvalidParameter(
                "plan must contain at least one grid".into(),
            ));
        }
        for g in &grids {
            for attr in g.id().attrs() {
                if attr >= schema.len() {
                    return Err(felip_common::Error::InvalidParameter(format!(
                        "grid {} references attribute {attr} outside the schema",
                        g.id()
                    )));
                }
            }
        }
        Ok(CollectionPlan {
            schema: schema.clone(),
            config: config.clone(),
            n,
            grids,
            assignment_seed,
        })
    }

    /// The grid identifiers a strategy creates, in deterministic order:
    /// 1-D grids (OHG only, numerical attributes) then all 2-D pairs.
    ///
    /// A single-attribute schema (k = 1) degenerates to one 1-D grid for
    /// either strategy — the paper assumes k ≥ 2, but the library handles
    /// the boundary so frequency estimation on one attribute just works.
    pub fn grid_ids(schema: &Schema, strategy: Strategy) -> Vec<GridId> {
        if schema.len() == 1 {
            return vec![GridId::One(0)];
        }
        let mut ids = Vec::new();
        if strategy == Strategy::Ohg {
            for a in schema.numerical_indices() {
                ids.push(GridId::One(a));
            }
        }
        for (i, j) in schema.pairs() {
            ids.push(GridId::Two(i, j));
        }
        ids
    }

    fn size_one_grid(
        schema: &Schema,
        n: usize,
        m: usize,
        config: &FelipConfig,
        id: GridId,
        weights: Option<&[Option<Vec<f64>>]>,
    ) -> Result<GridSpec> {
        let axis_input = |attr: usize| AxisInput {
            domain: schema.domain(attr),
            kind: schema.attr(attr).kind,
            selectivity: config.selectivity.for_attr(attr),
        };
        let sizing = |x: usize, y: Option<usize>| SizingInput {
            n,
            m,
            epsilon: config.epsilon,
            alpha1: config.alpha1,
            alpha2: config.alpha2,
            x: axis_input(x),
            y: y.map(axis_input),
        };
        let input = match id {
            GridId::One(a) => sizing(a, None),
            GridId::Two(i, j) => sizing(i, Some(j)),
        };

        // Size for each candidate protocol, then adapt: the protocol whose
        // *minimised total error* is lower wins. For fixed-size grids
        // (categorical) this reduces exactly to the variance rule of Eq. 13.
        let fo = match config.force_fo {
            Some(fo) => fo,
            None => {
                let (size_grr, err_grr) = optimize_grid(input, FoKind::Grr);
                let (_size_olh, err_olh) = optimize_grid(input, FoKind::Olh);
                if err_grr <= err_olh {
                    // Double-check with the plain Eq. 13 rule on the GRR
                    // grid's own cell count; they agree except at ties.
                    let _ = choose_oracle(config.epsilon, size_grr.cells());
                    FoKind::Grr
                } else {
                    // `choose_oracle` is not consulted on this branch, so
                    // record the per-grid decision for the AFO counters here.
                    felip_obs::counter!("fo.afo.chose_olh", 1, "grids");
                    FoKind::Olh
                }
            }
        };
        let (size, _err) = optimize_grid(input, fo);
        // Axis construction: equal width by default; equal mass against the
        // phase-1 histogram when one is available for a numerical attribute.
        let make_axis = |attr: usize, cells: u32| -> Result<Axis> {
            let hist = weights.and_then(|w| w[attr].as_ref());
            match hist {
                Some(h) if schema.attr(attr).kind.is_numerical() => {
                    Axis::with_binning(schema, attr, Binning::equal_mass(h, cells)?)
                }
                _ => Axis::new(schema, attr, cells),
            }
        };
        match id {
            GridId::One(a) => GridSpec::from_axes(vec![make_axis(a, size.lx)?], fo),
            GridId::Two(i, j) => GridSpec::from_axes(
                vec![
                    make_axis(i, size.lx)?,
                    make_axis(j, size.ly.expect("2-D size"))?,
                ],
                fo,
            ),
        }
    }

    /// The schema this plan covers.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The configuration the plan was built with.
    pub fn config(&self) -> &FelipConfig {
        &self.config
    }

    /// Planned population size `n`.
    pub fn population(&self) -> usize {
        self.n
    }

    /// Number of user groups `m` (= number of grids).
    pub fn num_groups(&self) -> usize {
        self.grids.len()
    }

    /// The grid specifications, indexed by group.
    pub fn grids(&self) -> &[GridSpec] {
        &self.grids
    }

    /// The grid a given user reports on (§5.1: users are divided randomly
    /// into `m` groups; we use a keyed hash of the user index so assignment
    /// is decentralised, stateless, and uniform).
    pub fn group_of(&self, user_index: usize) -> usize {
        (mix64(self.assignment_seed ^ (user_index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
            % self.grids.len() as u64) as usize
    }

    /// Per-cell estimation variance of each grid under this plan — the
    /// protocol's variance factor scaled by `m/n` (§5.1) — used as
    /// consistency weights in post-processing.
    pub fn cell_variances(&self) -> Vec<f64> {
        let m = self.num_groups() as f64;
        self.grids
            .iter()
            .map(|g| {
                let factor = match g.fo {
                    FoKind::Grr => grr_variance_factor(self.config.epsilon, g.num_cells()),
                    FoKind::Olh => olh_variance_factor(self.config.epsilon),
                };
                factor * m / self.n as f64
            })
            .collect()
    }

    /// Index of the grid with identifier `id`, if planned.
    pub fn grid_index(&self, id: GridId) -> Option<usize> {
        self.grids.iter().position(|g| g.id() == id)
    }

    /// A structural fingerprint of everything clients and the server must
    /// agree on to exchange reports: schema (names, kinds, domains), ε,
    /// population size, assignment seed, and every grid's protocol, axes,
    /// and bin edges.
    ///
    /// The wire protocol embeds this hash in each frame and the snapshot
    /// format embeds it in the header, so a client built from a different
    /// plan — or a snapshot taken under one — is rejected up front instead
    /// of silently corrupting counts. The hash is computed with the
    /// workspace's own [`mix64`] chain, so it is stable across processes,
    /// platforms, and compiler versions (unlike `std`'s `DefaultHasher`,
    /// which makes no such promise).
    pub fn schema_hash(&self) -> u64 {
        fn fold(h: u64, x: u64) -> u64 {
            mix64(h.rotate_left(7) ^ x.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        }
        fn fold_bytes(mut h: u64, bytes: &[u8]) -> u64 {
            h = fold(h, bytes.len() as u64);
            for chunk in bytes.chunks(8) {
                let mut word = [0u8; 8];
                word[..chunk.len()].copy_from_slice(chunk);
                h = fold(h, u64::from_le_bytes(word));
            }
            h
        }
        // Version tag: bump when the hashed structure changes meaning.
        let mut h = fold(0, 0x4645_4c49_505f_4831); // "FELIP_H1"
        h = fold(h, self.schema.len() as u64);
        for attr in self.schema.attrs() {
            h = fold_bytes(h, attr.name.as_bytes());
            h = fold(h, attr.kind.is_numerical() as u64);
            h = fold(h, attr.domain as u64);
        }
        h = fold(h, self.config.epsilon.to_bits());
        h = fold(h, self.n as u64);
        h = fold(h, self.assignment_seed);
        h = fold(h, self.grids.len() as u64);
        for grid in &self.grids {
            h = fold(
                h,
                match grid.fo {
                    FoKind::Grr => 1,
                    FoKind::Olh => 2,
                },
            );
            h = fold(h, grid.axes().len() as u64);
            for axis in grid.axes() {
                h = fold(h, axis.attr as u64);
                h = fold(h, axis.binning.edges().len() as u64);
                for &edge in axis.binning.edges() {
                    h = fold(h, edge as u64);
                }
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use felip_common::Attribute;

    fn schema() -> Schema {
        Schema::new(vec![
            Attribute::numerical("a", 256),
            Attribute::numerical("b", 256),
            Attribute::categorical("c", 4),
        ])
        .unwrap()
    }

    #[test]
    fn oug_plans_one_grid_per_pair() {
        let cfg = FelipConfig::new(1.0).with_strategy(Strategy::Oug);
        let plan = CollectionPlan::build(&schema(), 100_000, &cfg, 7).unwrap();
        assert_eq!(plan.num_groups(), 3); // C(3,2)
        assert!(plan
            .grids()
            .iter()
            .all(|g| matches!(g.id(), GridId::Two(_, _))));
    }

    #[test]
    fn ohg_adds_numerical_one_dim_grids() {
        let cfg = FelipConfig::new(1.0).with_strategy(Strategy::Ohg);
        let plan = CollectionPlan::build(&schema(), 100_000, &cfg, 7).unwrap();
        // k_n = 2 numerical 1-D grids + 3 pairs.
        assert_eq!(plan.num_groups(), 5);
        let ones: Vec<_> = plan
            .grids()
            .iter()
            .filter(|g| matches!(g.id(), GridId::One(_)))
            .collect();
        assert_eq!(ones.len(), 2);
        // No 1-D grid for the categorical attribute.
        assert!(plan.grid_index(GridId::One(2)).is_none());
    }

    #[test]
    fn one_dim_grids_finer_than_two_dim_axes() {
        // The 1-D grids exist to capture finer-grained marginals (§3.2).
        let cfg = FelipConfig::new(1.0);
        let plan = CollectionPlan::build(&schema(), 1_000_000, &cfg, 7).unwrap();
        let g1 = &plan.grids()[plan.grid_index(GridId::One(0)).unwrap()];
        let g2 = &plan.grids()[plan.grid_index(GridId::Two(0, 1)).unwrap()];
        assert!(
            g1.axes()[0].cells() > g2.axes()[0].cells(),
            "1-D {} vs 2-D axis {}",
            g1.axes()[0].cells(),
            g2.axes()[0].cells()
        );
    }

    #[test]
    fn categorical_grids_prefer_grr_when_small() {
        // cat × cat grid with 4 cells at ε = 1: GRR variance factor
        // (e + 2)/(e−1)² beats OLH's 4e/(e−1)².
        let s = Schema::new(vec![
            Attribute::categorical("x", 2),
            Attribute::categorical("y", 2),
        ])
        .unwrap();
        let plan = CollectionPlan::build(&s, 100_000, &FelipConfig::new(1.0), 7).unwrap();
        assert_eq!(plan.grids()[0].fo, FoKind::Grr);
    }

    #[test]
    fn large_grids_prefer_olh() {
        let s = Schema::new(vec![
            Attribute::categorical("x", 64),
            Attribute::categorical("y", 64),
        ])
        .unwrap();
        let plan = CollectionPlan::build(&s, 100_000, &FelipConfig::new(1.0), 7).unwrap();
        assert_eq!(plan.grids()[0].fo, FoKind::Olh);
    }

    #[test]
    fn force_fo_pins_protocol() {
        let cfg = FelipConfig::new(1.0).with_forced_fo(FoKind::Olh);
        let plan = CollectionPlan::build(&schema(), 100_000, &cfg, 7).unwrap();
        assert!(plan.grids().iter().all(|g| g.fo == FoKind::Olh));
    }

    #[test]
    fn group_assignment_is_uniform_and_deterministic() {
        let cfg = FelipConfig::new(1.0);
        let plan = CollectionPlan::build(&schema(), 100_000, &cfg, 7).unwrap();
        let m = plan.num_groups();
        let mut counts = vec![0usize; m];
        for u in 0..50_000 {
            let g = plan.group_of(u);
            assert_eq!(g, plan.group_of(u), "assignment must be deterministic");
            counts[g] += 1;
        }
        let expect = 50_000 / m;
        for &c in &counts {
            assert!(
                (c as i64 - expect as i64).abs() < (expect as i64) / 5,
                "unbalanced groups: {counts:?}"
            );
        }
    }

    #[test]
    fn cell_variances_reflect_protocol_and_size() {
        let cfg = FelipConfig::new(1.0);
        let plan = CollectionPlan::build(&schema(), 100_000, &cfg, 7).unwrap();
        let vars = plan.cell_variances();
        assert_eq!(vars.len(), plan.num_groups());
        assert!(vars.iter().all(|&v| v > 0.0));
    }

    #[test]
    fn rejects_zero_population() {
        assert!(CollectionPlan::build(&schema(), 0, &FelipConfig::new(1.0), 7).is_err());
    }

    #[test]
    fn single_attribute_schema_degenerates_to_one_grid() {
        for kind in [
            Attribute::numerical("only", 64),
            Attribute::categorical("only", 5),
        ] {
            let s = Schema::new(vec![kind]).unwrap();
            for strategy in [Strategy::Oug, Strategy::Ohg] {
                let cfg = FelipConfig::new(1.0).with_strategy(strategy);
                let plan = CollectionPlan::build(&s, 10_000, &cfg, 7).unwrap();
                assert_eq!(plan.num_groups(), 1);
                assert_eq!(plan.grids()[0].id(), GridId::One(0));
                assert_eq!(plan.group_of(123), 0);
            }
        }
    }

    #[test]
    fn schema_hash_is_stable_and_discriminating() {
        let cfg = FelipConfig::new(1.0);
        let a = CollectionPlan::build(&schema(), 100_000, &cfg, 7).unwrap();
        let b = CollectionPlan::build(&schema(), 100_000, &cfg, 7).unwrap();
        assert_eq!(a.schema_hash(), b.schema_hash(), "same plan, same hash");

        // Any parameter clients must agree on changes the fingerprint.
        let other_seed = CollectionPlan::build(&schema(), 100_000, &cfg, 8).unwrap();
        assert_ne!(a.schema_hash(), other_seed.schema_hash());
        let other_n = CollectionPlan::build(&schema(), 99_999, &cfg, 7).unwrap();
        assert_ne!(a.schema_hash(), other_n.schema_hash());
        let other_eps =
            CollectionPlan::build(&schema(), 100_000, &FelipConfig::new(1.5), 7).unwrap();
        assert_ne!(a.schema_hash(), other_eps.schema_hash());
        let other_schema = Schema::new(vec![
            Attribute::numerical("a", 256),
            Attribute::numerical("b", 256),
            Attribute::categorical("d", 4),
        ])
        .unwrap();
        let renamed = CollectionPlan::build(&other_schema, 100_000, &cfg, 7).unwrap();
        assert_ne!(a.schema_hash(), renamed.schema_hash());
    }

    #[test]
    fn different_epsilon_changes_granularity() {
        let lo = CollectionPlan::build(&schema(), 1_000_000, &FelipConfig::new(0.5), 7).unwrap();
        let hi = CollectionPlan::build(&schema(), 1_000_000, &FelipConfig::new(3.0), 7).unwrap();
        let g_lo = &lo.grids()[lo.grid_index(GridId::One(0)).unwrap()];
        let g_hi = &hi.grids()[hi.grid_index(GridId::One(0)).unwrap()];
        assert!(
            g_hi.axes()[0].cells() > g_lo.axes()[0].cells(),
            "more budget should afford finer grids ({} vs {})",
            g_hi.axes()[0].cells(),
            g_lo.axes()[0].cells()
        );
    }
}
