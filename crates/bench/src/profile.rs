//! Experiment profiles and shared CLI parsing for the figure binaries.

use felip_datasets::GenOptions;

/// Scale profile of an experiment run.
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    /// Users per experiment point.
    pub n: usize,
    /// Numerical attribute domain.
    pub numerical_domain: u32,
    /// Categorical attribute domain.
    pub categorical_domain: u32,
    /// Numerical attribute count.
    pub numerical: usize,
    /// Categorical attribute count.
    pub categorical: usize,
    /// Queries per point.
    pub queries: usize,
    /// Independent repeats averaged per point.
    pub repeats: usize,
    /// Master seed.
    pub seed: u64,
    /// Output directory for CSV files (`None` → stdout only).
    pub out_dir: Option<String>,
}

impl Profile {
    /// Laptop-scale default: finishes each figure in minutes on one core.
    pub fn quick() -> Self {
        Profile {
            n: 60_000,
            numerical_domain: 64,
            categorical_domain: 8,
            numerical: 3,
            categorical: 3,
            queries: 10,
            repeats: 1,
            seed: 0xF311,
            out_dir: None,
        }
    }

    /// Paper-scale parameters (§6.2 defaults): n = 10⁶, domain 256, k = 6,
    /// |Q| = 10.
    pub fn full() -> Self {
        Profile {
            n: 1_000_000,
            numerical_domain: 256,
            ..Profile::quick()
        }
    }

    /// Parses the shared flags: `--quick` (default), `--full`,
    /// `--n <users>`, `--queries <count>`, `--repeats <count>`,
    /// `--seed <seed>`, `--out <dir>`.
    ///
    /// Unknown flags abort with a usage message — experiment output must not
    /// silently ignore a typo.
    pub fn from_args(args: impl Iterator<Item = String>) -> Profile {
        let mut p = Profile::quick();
        let mut args = args.peekable();
        while let Some(a) = args.next() {
            let mut take = |name: &str| -> String {
                args.next().unwrap_or_else(|| {
                    felip_obs::diag::usage_exit(&format!("missing value for {name}"))
                })
            };
            match a.as_str() {
                "--quick" => {
                    p = Profile {
                        out_dir: p.out_dir.clone(),
                        ..Profile::quick()
                    }
                }
                "--full" => {
                    p = Profile {
                        out_dir: p.out_dir.clone(),
                        ..Profile::full()
                    }
                }
                "--n" => p.n = parse(&take("--n")),
                "--queries" => p.queries = parse(&take("--queries")),
                "--repeats" => p.repeats = parse(&take("--repeats")),
                "--seed" => p.seed = parse(&take("--seed")),
                "--domain" => p.numerical_domain = parse(&take("--domain")),
                "--out" => p.out_dir = Some(take("--out")),
                other => felip_obs::diag::usage_exit(&format!(
                    "unknown flag `{other}`\n\
                     usage: [--quick|--full] [--n N] [--queries Q] [--repeats R] \
                     [--seed S] [--domain D] [--out DIR]"
                )),
            }
        }
        p
    }

    /// Dataset generator options at this profile's scale.
    pub fn gen_options(&self, seed_offset: u64) -> GenOptions {
        GenOptions {
            n: self.n,
            numerical: self.numerical,
            categorical: self.categorical,
            numerical_domain: self.numerical_domain,
            categorical_domain: self.categorical_domain,
            seed: self.seed ^ seed_offset,
        }
    }
}

pub(crate) fn parse<T: std::str::FromStr>(s: &str) -> T {
    s.parse()
        .unwrap_or_else(|_| felip_obs::diag::usage_exit(&format!("cannot parse `{s}`")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> std::vec::IntoIter<String> {
        s.iter()
            .map(|x| x.to_string())
            .collect::<Vec<_>>()
            .into_iter()
    }

    #[test]
    fn default_is_quick() {
        let p = Profile::from_args(args(&[]));
        assert_eq!(p.n, Profile::quick().n);
    }

    #[test]
    fn full_raises_scale() {
        let p = Profile::from_args(args(&["--full"]));
        assert_eq!(p.n, 1_000_000);
        assert_eq!(p.numerical_domain, 256);
    }

    #[test]
    fn overrides_apply_in_order() {
        let p = Profile::from_args(args(&["--full", "--n", "5000", "--repeats", "3"]));
        assert_eq!(p.n, 5000);
        assert_eq!(p.repeats, 3);
        assert_eq!(p.numerical_domain, 256, "--full's domain survives");
    }

    #[test]
    fn out_dir_parsed() {
        let p = Profile::from_args(args(&["--out", "results"]));
        assert_eq!(p.out_dir.as_deref(), Some("results"));
    }

    #[test]
    fn gen_options_scale_with_profile() {
        let p = Profile::from_args(args(&["--n", "1234"]));
        let g = p.gen_options(1);
        assert_eq!(g.n, 1234);
        assert_eq!(g.attrs(), 6);
    }
}
