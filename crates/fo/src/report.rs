//! The wire format of a perturbed user report.

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds() {
        assert_eq!(Report::Grr(0).kind(), ReportKind::Grr);
        assert_eq!(Report::Olh { seed: 0, value: 0 }.kind(), ReportKind::Olh);
        assert_eq!(ReportKind::Olh.to_string(), "OLH");
    }
}
