//! Error type shared across the workspace.

use std::fmt;

/// Convenience alias used throughout the workspace.
pub type Result<T, E = Error> = std::result::Result<T, E>;

/// Errors surfaced by the FELIP crates.
///
/// All configuration mistakes (bad ε, malformed schemas, out-of-domain
/// values, queries referencing unknown attributes) are reported through this
/// type rather than panics, so a server embedding the library can reject bad
/// input gracefully.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// The schema is malformed (duplicate names, empty domain, ...).
    InvalidSchema(String),
    /// A record does not match its schema.
    InvalidRecord(String),
    /// A query is malformed (unknown attribute, empty range, ...).
    InvalidQuery(String),
    /// A mechanism parameter is out of range (ε ≤ 0, zero users, ...).
    InvalidParameter(String),
    /// A report cannot be ingested (wrong group, wrong oracle, ...).
    InvalidReport(String),
    /// A report's kind or shape does not match the oracle aggregating it
    /// (GRR report handed to an OLH aggregator, GRR value outside the
    /// domain, OLH value outside the hash range, ...). Untrusted wire input
    /// reaches the oracles directly, so this is an error, never a panic.
    ReportMismatch(String),
    /// A numerical stage received or produced a non-finite value (NaN/Inf
    /// frequencies from a degenerate grid, ...). Estimation pipelines must
    /// surface this instead of silently fitting garbage.
    NumericalInstability(String),
    /// A `u64`/`usize` support count or group size would overflow while
    /// merging aggregator state. Counts are exact tallies; wrapping one
    /// would silently corrupt every estimate derived from it, so merge
    /// paths use `checked_add` and surface this instead.
    CountOverflow(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidSchema(m) => write!(f, "invalid schema: {m}"),
            Error::InvalidRecord(m) => write!(f, "invalid record: {m}"),
            Error::InvalidQuery(m) => write!(f, "invalid query: {m}"),
            Error::InvalidParameter(m) => write!(f, "invalid parameter: {m}"),
            Error::InvalidReport(m) => write!(f, "invalid report: {m}"),
            Error::ReportMismatch(m) => write!(f, "report mismatch: {m}"),
            Error::NumericalInstability(m) => write!(f, "numerical instability: {m}"),
            Error::CountOverflow(m) => write!(f, "count overflow: {m}"),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_category_and_message() {
        let e = Error::InvalidParameter("epsilon must be positive".into());
        let s = e.to_string();
        assert!(s.contains("invalid parameter"));
        assert!(s.contains("epsilon"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error>(_: &E) {}
        assert_err(&Error::InvalidQuery("x".into()));
    }
}
