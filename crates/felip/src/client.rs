//! Client-side perturbation: what runs on the user's device.

use rand::RngCore;

use felip_common::Result;
use felip_fo::afo::make_oracle;
use felip_fo::Report;

use crate::plan::CollectionPlan;

/// One user's perturbed contribution: which group (grid) it belongs to and
/// the LDP report for that grid. This — and only this — leaves the device.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct UserReport {
    /// Group (= grid) index the user was assigned to.
    pub group: usize,
    /// The perturbed cell report.
    pub report: Report,
}

/// Produces the user's ε-LDP report (§5, user side).
///
/// The user looks up its assigned grid from the public `plan`, projects its
/// private `record` onto a cell of that grid, and perturbs the cell index
/// with the grid's frequency oracle. The whole record is protected: only
/// the perturbed cell of one grid is transmitted, and the perturbation
/// satisfies ε-LDP (§5.7).
pub fn respond(
    plan: &CollectionPlan,
    user_index: usize,
    record: &[u32],
    rng: &mut dyn RngCore,
) -> Result<UserReport> {
    plan.schema().check_record(record)?;
    let group = plan.group_of(user_index);
    let grid = &plan.grids()[group];
    let cell = grid.cell_of_record(record);
    let oracle = make_oracle(grid.fo, plan.config().epsilon, grid.num_cells());
    Ok(UserReport {
        group,
        report: oracle.perturb(cell, rng),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregator::OracleSet;
    use crate::config::FelipConfig;
    use felip_common::rng::seeded_rng;
    use felip_common::Error;
    use felip_common::{Attribute, Schema};
    use felip_fo::FoKind;

    fn plan() -> CollectionPlan {
        let schema = Schema::new(vec![
            Attribute::numerical("a", 64),
            Attribute::numerical("b", 64),
        ])
        .unwrap();
        CollectionPlan::build(&schema, 10_000, &FelipConfig::new(1.0), 3).unwrap()
    }

    #[test]
    fn report_targets_assigned_group() {
        let p = plan();
        let mut rng = seeded_rng(0);
        for u in 0..20 {
            let r = respond(&p, u, &[10, 20], &mut rng).unwrap();
            assert_eq!(r.group, p.group_of(u));
        }
    }

    #[test]
    fn report_type_matches_grid_protocol() {
        // Every honest report passes the server's admission check; the check
        // itself enforces kind + shape against the grid's oracle.
        let p = plan();
        let oracles = OracleSet::build(&p);
        let mut rng = seeded_rng(0);
        for u in 0..50 {
            let r = respond(&p, u, &[0, 0], &mut rng).unwrap();
            let grid = &p.grids()[r.group];
            match (grid.fo, &r.report) {
                (FoKind::Grr, Report::Grr(v)) => assert!(*v < grid.num_cells()),
                (FoKind::Olh, Report::Olh { value, .. }) => {
                    // OLH report value lives in the hash range, not the grid.
                    assert!(*value < 64, "hash range is small");
                }
                _ => {}
            }
            oracles.check(&r).unwrap();
        }
    }

    #[test]
    fn check_rejects_mismatched_reports() {
        let p = plan();
        let oracles = OracleSet::build(&p);
        let mut rng = seeded_rng(1);
        let honest = respond(&p, 0, &[0, 0], &mut rng).unwrap();

        // Foreign protocol for the group's oracle: an OLH report to a GRR
        // group and a GRR report to an OLH group.
        for (fo, foreign) in [
            (FoKind::Grr, Report::Olh { seed: 0, value: 0 }),
            (FoKind::Olh, Report::Grr(0)),
        ] {
            let group = (0..p.num_groups())
                .find(|&g| p.grids()[g].fo == fo)
                .expect("the plan uses both oracles");
            let mismatched = UserReport {
                group,
                report: foreign,
            };
            let err = oracles.check(&mismatched).unwrap_err();
            assert!(matches!(err, Error::ReportMismatch(_)), "{fo:?}: {err}");
        }

        // Group index beyond the plan.
        let foreign_group = UserReport {
            group: p.num_groups(),
            report: honest.report,
        };
        let err = oracles.check(&foreign_group).unwrap_err();
        assert!(matches!(err, Error::InvalidReport(_)), "{err}");
    }

    #[test]
    fn rejects_invalid_record() {
        let p = plan();
        let mut rng = seeded_rng(0);
        assert!(respond(&p, 0, &[64, 0], &mut rng).is_err());
        assert!(respond(&p, 0, &[0], &mut rng).is_err());
    }

    #[test]
    fn randomisation_differs_across_users() {
        // Perturbation must actually be random: identical records from many
        // users must not all produce identical reports.
        let p = plan();
        let mut rng = seeded_rng(9);
        let reports: Vec<_> = (0..40)
            .map(|u| respond(&p, u, &[32, 32], &mut rng).unwrap().report)
            .collect();
        let first = &reports[0];
        assert!(reports.iter().any(|r| r != first));
    }
}
