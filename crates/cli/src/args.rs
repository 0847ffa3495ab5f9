//! Flag parsing for the `felip` binary (no external CLI dependency).

use felip_common::{Attribute, Error, Result, Schema};

/// Top-level usage text.
pub const USAGE: &str = "\
felip — locally differentially private multidimensional frequency estimation

USAGE:
    felip plan    --attrs <spec> --n <users> --epsilon <eps> [--strategy oug|ohg] [--selectivity <r>]
    felip run     --dataset <uniform|normal|ipums|loan> --n <users> --epsilon <eps>
                  [--strategy oug|ohg] [--lambda <dim>] [--queries <count>] [--selectivity <s>] [--seed <seed>]
    felip compare --dataset <kind> --n <users> --epsilon <eps> [--lambda <dim>] [--queries <count>] [--seed <seed>]
    felip query   --csv <path> --columns <colspec> --epsilon <eps> --where <query>
                  [--strategy oug|ohg] [--seed <seed>]
    felip query   --attrs <spec> --n <users> --epsilon <eps> --where <query>
                  [--addr <host:port>] [--mode cached|fresh] [--watch <secs>] [--format table|json]
                  [--plan-seed <seed>]
    felip serve   --attrs <spec> --n <users> --epsilon <eps> [--addr <host:port>]
                  [--workers <w>] [--queue <batches>] [--snapshot <path>]
                  [--snapshot-every-ms <ms>] [--resume <path>] [--plan-seed <seed>]
                  [--read-timeout-ms <ms>] [--idle-timeout-ms <ms>]
                  [--metrics-out <path>] [--metrics-every-ms <ms>] [--flight-out <path>]
                  [--upstream <host:port>] [--node-id <id>] [--delta-every-ms <ms>]
    felip aggregate --attrs <spec> --n <users> --epsilon <eps> [--addr <host:port>]
                  [--snapshot <path>] [--state <path>] [--resume <path>]
                  [--persist-every-ms <ms>] [--plan-seed <seed>]
    felip estimate --attrs <spec> --n <users> --epsilon <eps> --snapshot <path>
                  [--plan-seed <seed>] [--grid <index>]
    felip stat    [--addr <host:port>]... [--mode full|delta|flight]
                  [--format table|json] [--watch <secs>]
    felip load    --attrs <spec> --n <users> --epsilon <eps> --users <count>
                  [--addr <host:port>] [--from <user>] [--connections <c>]
                  [--batch <reports>] [--seed <seed>] [--plan-seed <seed>]
    felip verify  --attrs <spec> --n <users> --epsilon <eps> --snapshot <path>
                  --users <count> [--from <user>] [--seed <seed>] [--plan-seed <seed>]

SERVE / LOAD / VERIFY:
    `serve` ingests perturbed reports over TCP until SIGINT/SIGTERM, then
    drains its queues, merges worker shards, writes a final snapshot (when
    --snapshot is set) and exits 0. `--resume <path>` restores counts from a
    prior snapshot before accepting connections. `load` streams the
    deterministic loadgen report stream for users [--from, --from + --users).
    `verify` restores a snapshot and checks it is bit-identical to an
    offline collection of that same stream. All three must be given the same
    --attrs/--n/--epsilon/--plan-seed so the plan hash matches.

CLUSTER:
    `serve --upstream <addr>` turns the server into an ingest node: each
    periodic consistent cut is shipped upstream as an epoch-numbered count
    delta (cadence --delta-every-ms, default 200). `--node-id` is the
    node's stable cluster identity. `aggregate` runs the aggregator tier:
    it merges node deltas into one cluster-wide count vector, persists the
    per-node FCLU container (--state) and a plain merged FSNP snapshot
    (--snapshot) that `felip estimate` and `felip verify` consume, and
    resumes from a prior container via --resume. `estimate` restores a
    (merged) snapshot and prints its frequency estimates.

STAT:
    `stat` polls a running server's admin verb and renders its live metrics
    (counters, gauges, per-stage latency quantiles). `--mode delta` shows
    the change since the previous delta poll; `--mode flight` dumps the
    in-memory flight recorder (the last ~1k protocol events) as JSONL.
    Repeating --addr fans in over several nodes (ingest and aggregator
    alike) and renders one table with a per-node column each plus a
    cluster sum row per metric. `--watch <secs>` re-polls at that cadence
    until interrupted. `serve`'s
    `--metrics-out <path>` appends one delta snapshot per second (tunable
    with --metrics-every-ms) as a JSONL time-series, and `--flight-out
    <path>` arms the postmortem dump written on panic, SIGTERM shutdown,
    or snapshot quarantine.

ATTRS SPEC:
    comma-separated list of `n:<domain>` (numerical) and `c:<domain>` (categorical),
    e.g. --attrs n:256,n:64,c:8,c:2

COLSPEC (for `query`):
    comma-separated `<csv column>:n:<bins>` or `<csv column>:c:<max categories>`,
    e.g. --columns age:n:16,education:c:8,income:n:32

WHERE (for `query`):
    a conjunction over the encoded domains, e.g.
    --where \"age BETWEEN 4 AND 11 AND education IN (0, 2)\"
    Online, the attributes are the --attrs positions `a0`, `a1`, …, e.g.
    --where \"a0 BETWEEN 8 AND 24 AND a1 IN (0, 2)\" or \"a0 = 5 AND a1 = 2\"

ONLINE QUERY (no --csv):
    `query --attrs ...` connects to a running `felip serve` (or `felip
    aggregate`) and answers over the v5 Query wire verb from the server's
    incremental estimation engine; `--where` takes the offline grammar
    over the attributes `a0`, `a1`, …. The reply reports the answer's
    ingest epoch, the head epoch, and their difference (staleness). `--mode fresh` forces a consistent cut
    per query; `--watch <secs>` re-asks on one connection at that cadence.

GLOBAL FLAGS (any subcommand):
    --trace-out <path>   record a structured trace of the run (stage spans,
                         per-grid AFO choices, pipeline metrics) and write it
                         as JSON lines to <path>
    --metrics            print a stage-timing and metric summary table to
                         stderr when the command finishes
";

/// Parsed `--key value` pairs.
#[derive(Debug, Default)]
pub struct Flags {
    pairs: Vec<(String, String)>,
}

impl Flags {
    /// Parses `--key value` pairs; rejects stray positionals.
    pub fn parse(args: &[String]) -> Result<Flags> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let Some(key) = a.strip_prefix("--") else {
                return Err(Error::InvalidParameter(format!(
                    "unexpected argument `{a}`"
                )));
            };
            let value = it
                .next()
                .ok_or_else(|| Error::InvalidParameter(format!("missing value for --{key}")))?;
            pairs.push((key.to_string(), value.clone()));
        }
        Ok(Flags { pairs })
    }

    /// The raw value of a flag, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Every value of a repeatable flag, in argv order (`felip stat
    /// --addr a --addr b` fans in over both).
    pub fn get_all(&self, key: &str) -> Vec<&str> {
        self.pairs
            .iter()
            .filter(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
            .collect()
    }

    /// A required, parsed flag.
    pub fn require<T: std::str::FromStr>(&self, key: &str) -> Result<T> {
        let raw = self
            .get(key)
            .ok_or_else(|| Error::InvalidParameter(format!("missing required flag --{key}")))?;
        raw.parse()
            .map_err(|_| Error::InvalidParameter(format!("cannot parse --{key} value `{raw}`")))
    }

    /// An optional, parsed flag with a default.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T> {
        match self.get(key) {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|_| {
                Error::InvalidParameter(format!("cannot parse --{key} value `{raw}`"))
            }),
        }
    }
}

/// Parses the `--attrs n:256,c:8,...` schema specification.
pub fn parse_schema(spec: &str) -> Result<Schema> {
    let mut attrs = Vec::new();
    for (i, part) in spec.split(',').enumerate() {
        let (kind, domain) = part.split_once(':').ok_or_else(|| {
            Error::InvalidParameter(format!("attribute spec `{part}` is not `n:<d>` or `c:<d>`"))
        })?;
        let d: u32 = domain.parse().map_err(|_| {
            Error::InvalidParameter(format!("bad domain `{domain}` in attribute spec"))
        })?;
        let attr = match kind {
            "n" => Attribute::numerical(format!("a{i}"), d),
            "c" => Attribute::categorical(format!("a{i}"), d),
            other => {
                return Err(Error::InvalidParameter(format!(
                    "attribute kind `{other}` must be `n` or `c`"
                )))
            }
        };
        attrs.push(attr);
    }
    Schema::new(attrs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_pairs() {
        let f = Flags::parse(&argv(&["--n", "100", "--epsilon", "1.5"])).unwrap();
        assert_eq!(f.require::<usize>("n").unwrap(), 100);
        assert_eq!(f.require::<f64>("epsilon").unwrap(), 1.5);
        assert_eq!(f.get_or::<usize>("lambda", 2).unwrap(), 2);
    }

    #[test]
    fn last_value_wins() {
        let f = Flags::parse(&argv(&["--n", "1", "--n", "2"])).unwrap();
        assert_eq!(f.require::<usize>("n").unwrap(), 2);
    }

    #[test]
    fn rejects_positionals_and_missing_values() {
        assert!(Flags::parse(&argv(&["run"])).is_err());
        assert!(Flags::parse(&argv(&["--n"])).is_err());
    }

    #[test]
    fn missing_required_flag() {
        let f = Flags::parse(&argv(&[])).unwrap();
        assert!(f.require::<usize>("n").is_err());
    }

    #[test]
    fn schema_spec_round_trip() {
        let s = parse_schema("n:256,c:8,n:64").unwrap();
        assert_eq!(s.len(), 3);
        assert_eq!(s.domain(0), 256);
        assert!(s.attr(1).kind.is_categorical());
        assert!(s.attr(2).kind.is_numerical());
    }

    #[test]
    fn schema_spec_errors() {
        assert!(parse_schema("x:4").is_err());
        assert!(parse_schema("n").is_err());
        assert!(parse_schema("n:abc").is_err());
        assert!(parse_schema("n:0").is_err());
    }
}
