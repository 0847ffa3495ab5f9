//! The wire format of a perturbed user report.

use felip_common::{Error, Result};

/// One user's LDP report, as it travels from client to aggregator.
///
/// The enum mirrors what each protocol actually transmits:
/// GRR sends one domain value; OLH sends the user's hash seed plus the
/// perturbed hashed value. Both are fixed-size, so a report is `Copy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum Report {
    /// GRR: a (possibly flipped) domain value.
    Grr(u32),
    /// OLH: the public hash seed and the GRR-perturbed hash bucket.
    Olh {
        /// Seed selecting the member of the universal hash family; chosen
        /// uniformly by the client and sent in the clear.
        seed: u64,
        /// The perturbed value in `0..g`.
        value: u32,
    },
}

/// The protocol a [`Report`] was produced by, without its payload — what an
/// aggregator checks before ingesting untrusted input, and the discriminant
/// tag the wire format serialises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReportKind {
    /// A [`Report::Grr`] value.
    Grr,
    /// A [`Report::Olh`] seed/value pair.
    Olh,
}

impl std::fmt::Display for ReportKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReportKind::Grr => write!(f, "GRR"),
            ReportKind::Olh => write!(f, "OLH"),
        }
    }
}

impl Report {
    /// Which protocol produced this report.
    pub fn kind(&self) -> ReportKind {
        match self {
            Report::Grr(_) => ReportKind::Grr,
            Report::Olh { .. } => ReportKind::Olh,
        }
    }
}

/// Every report an oracle's randomiser can produce: its kind, and the
/// exclusive bound on its value (the domain size for GRR, the hash range
/// `g` for OLH). The whole server-side admission rule is this pair, so an
/// aggregator can tabulate it once per grid and check untrusted reports
/// without a call per report into the oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReportShape {
    /// The protocol the oracle accepts.
    pub kind: ReportKind,
    /// Exclusive upper bound on the report's value.
    pub bound: u32,
}

impl ReportShape {
    /// `Ok` when `report` has this shape, and
    /// [`Error::ReportMismatch`] naming what is wrong otherwise.
    #[inline]
    pub fn check(&self, report: &Report) -> Result<()> {
        match (self.kind, report) {
            (ReportKind::Grr, Report::Grr(value))
            | (ReportKind::Olh, Report::Olh { value, .. })
                if *value < self.bound =>
            {
                Ok(())
            }
            _ => Err(self.mismatch(report)),
        }
    }

    #[cold]
    fn mismatch(&self, report: &Report) -> Error {
        let kind = self.kind;
        Error::ReportMismatch(match report {
            Report::Grr(v) if kind == ReportKind::Grr => {
                format!("GRR report {v} out of domain {}", self.bound)
            }
            Report::Olh { value, .. } if kind == ReportKind::Olh => {
                format!("OLH report value {value} out of hash range {}", self.bound)
            }
            other => format!(
                "{kind} aggregator received non-{kind} report {:?}",
                other.kind()
            ),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds() {
        assert_eq!(Report::Grr(0).kind(), ReportKind::Grr);
        assert_eq!(Report::Olh { seed: 0, value: 0 }.kind(), ReportKind::Olh);
        assert_eq!(ReportKind::Olh.to_string(), "OLH");
    }

    #[test]
    fn shape_admits_its_kind_below_the_bound_only() {
        let grr = ReportShape {
            kind: ReportKind::Grr,
            bound: 5,
        };
        let olh = ReportShape {
            kind: ReportKind::Olh,
            bound: 4,
        };
        assert!(grr.check(&Report::Grr(4)).is_ok());
        assert!(olh.check(&Report::Olh { seed: 9, value: 3 }).is_ok());
        for (shape, bad) in [
            (grr, Report::Grr(5)),
            (grr, Report::Olh { seed: 0, value: 0 }),
            (olh, Report::Olh { seed: 0, value: 4 }),
            (olh, Report::Grr(0)),
        ] {
            assert!(
                matches!(shape.check(&bad), Err(Error::ReportMismatch(_))),
                "{shape:?} admitted {bad:?}"
            );
        }
    }
}
