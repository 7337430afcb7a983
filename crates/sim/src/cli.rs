//! Minimal argument parsing shared by the experiment binaries.

use crate::campaign::ShardSpec;

/// Options common to all experiment binaries.
#[derive(Debug, Clone)]
pub struct Options {
    /// Random trials per sweep point.
    pub trials: usize,
    /// Master seed.
    pub seed: u64,
    /// Directory to write CSV series into, if any.
    pub csv: Option<std::path::PathBuf>,
    /// Worker-thread override (`None` = `RAYON_NUM_THREADS` or all cores).
    pub threads: Option<usize>,
    /// The slice of sweep points this process owns (`--shard i/N`).
    pub shard: ShardSpec,
    /// Output file for machine-readable results (`--out FILE`).
    pub out: Option<std::path::PathBuf>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            trials: 2000,
            seed: 0xC0FFEE,
            csv: None,
            threads: None,
            shard: ShardSpec::FULL,
            out: None,
        }
    }
}

impl Options {
    /// Parses `--trials N`, `--seed S`, `--csv DIR`, `--threads N`,
    /// `--shard i/N`, `--out FILE` from `std::env::args` and applies the
    /// thread override to the work-pool. Results never depend on the
    /// thread count — only wall-clock does.
    ///
    /// # Errors
    /// A one-line message for an unknown flag, a missing or malformed
    /// value, or a zero count; binaries hand it to [`exit_usage`].
    pub fn from_args() -> Result<Options, String> {
        Self::parse_from(std::env::args().skip(1))
    }

    /// [`Options::from_args`] over an explicit argument list — shared
    /// with the `pamr shard` subcommand so every shard entry point
    /// rejects malformed values (a typo'd `--trials`/`--seed` silently
    /// falling back to a default would only surface at merge time, after
    /// the shard runs complete).
    ///
    /// # Errors
    /// As [`Options::from_args`].
    pub fn parse_from(args: impl IntoIterator<Item = String>) -> Result<Options, String> {
        let mut opts = Options::default();
        let mut args = args.into_iter();
        while let Some(a) = args.next() {
            let mut value = || args.next().ok_or_else(|| format!("{a} needs a value"));
            match a.as_str() {
                "--trials" => opts.trials = count(&a, &value()?)?,
                "--seed" => {
                    let v = value()?;
                    opts.seed = v
                        .parse()
                        .map_err(|_| format!("--seed needs an integer, got {v:?}"))?;
                }
                "--csv" => opts.csv = Some(value()?.into()),
                "--shard" => opts.shard = ShardSpec::parse(&value()?)?,
                "--out" => opts.out = Some(value()?.into()),
                "--threads" => opts.threads = Some(count(&a, &value()?)?),
                "--help" | "-h" => {
                    eprintln!(
                        "usage: <bin> [--trials N] [--seed S] [--csv DIR] [--threads N] \
                         [--shard i/N] [--out FILE]"
                    );
                    std::process::exit(0);
                }
                other => return Err(format!("unknown argument {other:?} (try --help)")),
            }
        }
        if let Some(n) = opts.threads {
            rayon::set_num_threads(n);
        }
        Ok(opts)
    }
}

/// A positive integer flag value.
fn count(flag: &str, v: &str) -> Result<usize, String> {
    match v.parse() {
        Ok(0) => Err(format!("{flag} must be positive")),
        Ok(n) => Ok(n),
        Err(_) => Err(format!("{flag} needs a positive integer, got {v:?}")),
    }
}

/// Refuses any argument — the entry check of the binaries that take none.
///
/// # Errors
/// Names the first argument given.
pub fn no_args() -> Result<(), String> {
    match std::env::args().nth(1) {
        Some(a) => Err(format!(
            "unexpected argument {a:?} (this binary takes none)"
        )),
        None => Ok(()),
    }
}

/// Prints `<binary>: <message>` to stderr and exits with status 2 — how
/// every experiment binary answers a bad command line. Generic in its
/// (never produced) return type so it fits `Result::unwrap_or_else`.
pub fn exit_usage<T>(msg: String) -> T {
    let bin = std::env::args()
        .next()
        .and_then(|a| {
            std::path::Path::new(&a)
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
        })
        .unwrap_or_else(|| "pamr-sim".into());
    eprintln!("{bin}: {msg}");
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let o = Options::default();
        assert_eq!(o.trials, 2000);
        assert!(o.csv.is_none());
        assert!(o.shard.is_full());
        assert!(o.out.is_none());
    }
}
