//! Command-line plumbing shared by every binary of the workspace: the one
//! table-driven flag parser ([`parse`]) that the sim binaries, `pamr` and
//! `pamr-bench` read their flags through, the sim binaries' [`Options`],
//! the exit path, the one standard-output writer ([`write_out`], behind
//! the [`out!`](crate::out) and [`outln!`](crate::outln) macros), and the
//! `fig7`–`fig9` entry point.

use crate::campaign::Campaign;
use crate::shard::figure_results;
use crate::table::{render_figure, write_csv};
use std::collections::BTreeMap;

/// The largest value a size flag takes, and the largest instance a
/// command expands from one: the engines' crossing indices and the
/// session's slots hold communication ids as `u32`.
pub const MAX_SIZE: u64 = u32::MAX as u64;

/// The largest `--threads` value. A parallel call at N threads starts
/// N − 1 helper threads, and a thread the OS refuses is a panic, so the
/// count is refused while parsing instead. 256 is far above the cores of
/// any host the campaign runs on. `RAYON_NUM_THREADS` stays unbounded, as
/// in real rayon.
pub const MAX_THREADS: u64 = 256;

/// How a flag's value is read.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// A positive integer up to [`MAX_SIZE`]: a size or a repeat count
    /// (zero is refused).
    Count,
    /// A non-negative integer up to [`MAX_SIZE`]: a size, or a bound where
    /// 0 means "none".
    Int,
    /// Any 64-bit unsigned integer: a seed.
    Seed,
    /// A worker-thread count from 1 to [`MAX_THREADS`].
    Threads,
    /// A positive finite number.
    Ratio,
    /// One of a fixed set of names.
    OneOf(&'static [&'static str]),
    /// A file path, or other text the command reads itself (a mesh
    /// shape, a name, an address).
    Text,
    /// A switch that takes no value.
    Switch,
    /// The positional arguments (files): every argument that is neither
    /// a flag nor a flag's value. Without this entry they are refused.
    Files,
}

/// What a flag holds when the command line does not give it.
#[derive(Debug, Clone, Copy)]
pub enum Unset {
    /// This default, read exactly like a given value.
    Default(&'static str),
    /// Nothing; the command chooses.
    Optional,
    /// The command refuses to run.
    Required,
}

/// One accepted flag: its name, how its value is read, and its default.
pub type Flag = (&'static str, Kind, Unset);

/// A parsed flag value.
#[derive(Debug, Clone)]
enum Value {
    Num(u64),
    Real(f64),
    Text(String),
    On,
}

/// The parsed flags of one command, defaults filled in.
#[derive(Debug, Clone)]
pub struct Flags {
    values: BTreeMap<&'static str, Value>,
    files: Vec<String>,
}

impl Flags {
    /// Was the flag given (or defaulted)?
    pub fn given(&self, name: &str) -> bool {
        self.values.contains_key(name)
    }

    /// An integer flag's value; `None` when an optional flag is absent.
    pub fn opt_num(&self, name: &str) -> Option<u64> {
        match self.values.get(name)? {
            Value::Num(n) => Some(*n),
            other => unreachable!("{name} is not an integer flag: {other:?}"),
        }
    }

    /// A text or path flag's value; `None` when an optional flag is absent.
    pub fn opt_text(&self, name: &str) -> Option<&str> {
        match self.values.get(name)? {
            Value::Text(t) => Some(t),
            other => unreachable!("{name} is not a text flag: {other:?}"),
        }
    }

    /// An integer flag that has a default or is required.
    pub fn num(&self, name: &str) -> u64 {
        self.opt_num(name)
            .unwrap_or_else(|| unreachable!("{name} has no value"))
    }

    /// A number flag that has a default or is required.
    pub fn real(&self, name: &str) -> f64 {
        match self.values.get(name) {
            Some(Value::Real(r)) => *r,
            other => unreachable!("{name} is not a parsed number flag: {other:?}"),
        }
    }

    /// A text flag that has a default or is required.
    pub fn text(&self, name: &str) -> &str {
        self.opt_text(name)
            .unwrap_or_else(|| unreachable!("{name} has no value"))
    }

    /// The positional arguments, in command-line order.
    pub fn files(&self) -> &[String] {
        &self.files
    }

    /// Every integer flag with its value.
    pub fn ints(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.values.iter().filter_map(|(&name, v)| match v {
            Value::Num(n) => Some((name, *n)),
            _ => None,
        })
    }
}

/// The one flag parser: reads `args` against the union of `specs`,
/// refusing unknown flags, missing values, non-numbers, zero counts, sizes
/// above [`MAX_SIZE`], thread counts above [`MAX_THREADS`] and (unless a
/// spec takes [`Kind::Files`]) positional arguments.
///
/// # Errors
/// A one-line message naming the offending argument.
pub fn parse(specs: &[&[Flag]], args: &[String]) -> Result<Flags, String> {
    let all = || specs.iter().flat_map(|s| s.iter());
    let mut flags = Flags {
        values: BTreeMap::new(),
        files: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let Some(&(name, kind, _)) = all().find(|f| f.0 == arg && f.0.starts_with('-')) else {
            if arg.starts_with('-') {
                return Err(format!("unknown flag {arg:?}"));
            }
            if !all().any(|f| matches!(f.1, Kind::Files)) {
                return Err(format!("unexpected argument {arg:?}"));
            }
            flags.files.push(arg.clone());
            continue;
        };
        let value = match kind {
            Kind::Switch => Value::On,
            _ => match it.next() {
                Some(raw) if !raw.starts_with("--") => read(name, kind, raw)?,
                _ => return Err(format!("{name} needs a value")),
            },
        };
        flags.values.insert(name, value);
    }
    for &(name, kind, unset) in all() {
        let given = match kind {
            Kind::Files => !flags.files.is_empty(),
            _ => flags.given(name),
        };
        match unset {
            Unset::Default(raw) if !given => {
                flags.values.insert(name, read(name, kind, raw)?);
            }
            Unset::Required if !given => return Err(format!("{name} is required")),
            _ => {}
        }
    }
    Ok(flags)
}

/// Refuses a size above [`MAX_SIZE`]: the one check behind every size
/// flag, and behind any instance a command expands from one.
///
/// # Errors
/// Names `what`, its value and the bound.
pub fn size(what: &str, n: u64) -> Result<u64, String> {
    if n > MAX_SIZE {
        return Err(format!("{what} must be at most {MAX_SIZE}, got {n}"));
    }
    Ok(n)
}

fn read(name: &str, kind: Kind, raw: &str) -> Result<Value, String> {
    match kind {
        Kind::Count => match raw.parse::<u64>() {
            Ok(0) => Err(format!("{name} must be positive")),
            Ok(n) => size(name, n).map(Value::Num),
            Err(_) => Err(format!("{name} needs a positive integer, got {raw:?}")),
        },
        Kind::Int => match raw.parse::<u64>() {
            Ok(n) => size(name, n).map(Value::Num),
            Err(_) => Err(format!("{name} needs a non-negative integer, got {raw:?}")),
        },
        Kind::Seed => raw
            .parse()
            .map(Value::Num)
            .map_err(|_| format!("{name} needs a non-negative integer, got {raw:?}")),
        Kind::Threads => match raw.parse::<u64>() {
            Ok(n @ 1..=MAX_THREADS) => Ok(Value::Num(n)),
            _ => Err(format!(
                "{name} needs a thread count from 1 to {MAX_THREADS}, got {raw:?}"
            )),
        },
        Kind::Ratio => match raw.parse::<f64>() {
            Ok(r) if r.is_finite() && r > 0.0 => Ok(Value::Real(r)),
            _ => Err(format!("{name} needs a positive number, got {raw:?}")),
        },
        Kind::OneOf(names) if names.contains(&raw) => Ok(Value::Text(raw.into())),
        Kind::OneOf(names) => Err(format!(
            "{name} must be one of {}, got {raw:?}",
            names.join("|")
        )),
        Kind::Text | Kind::Files => Ok(Value::Text(raw.into())),
        Kind::Switch => Ok(Value::On),
    }
}

/// The flags of one §6 campaign run: the sim binaries' and `pamr shard`'s.
pub const CAMPAIGN_FLAGS: &[Flag] = &[
    ("--trials", Kind::Count, Unset::Default("2000")),
    ("--seed", Kind::Seed, Unset::Default("12648430")),
    ("--threads", Kind::Threads, Unset::Optional),
];

/// The sim binaries' flags besides [`CAMPAIGN_FLAGS`].
const OPTION_FLAGS: &[Flag] = &[
    ("--csv", Kind::Text, Unset::Optional),
    ("--help", Kind::Switch, Unset::Optional),
];

/// Options common to all experiment binaries.
#[derive(Debug, Clone)]
pub struct Options {
    /// Random trials per sweep point.
    pub trials: usize,
    /// Master seed.
    pub seed: u64,
    /// Directory to write CSV series into, if any.
    pub csv: Option<std::path::PathBuf>,
    /// Worker-thread override, at most [`MAX_THREADS`] (`None` =
    /// `RAYON_NUM_THREADS`, which has no such bound, or all cores).
    pub threads: Option<usize>,
}

impl Options {
    /// Parses `--trials N` (default 2000), `--seed S` (default `0xC0FFEE`),
    /// `--csv DIR` and `--threads N` from `std::env::args` and applies the
    /// thread override to the work-pool. Results never depend on the
    /// thread count — only wall-clock does.
    ///
    /// # Errors
    /// A one-line message for an unknown flag, a missing or malformed
    /// value, a zero count or a thread count above [`MAX_THREADS`];
    /// binaries hand it to [`exit_usage`].
    pub fn from_args() -> Result<Options, String> {
        Self::parse_from(std::env::args().skip(1))
    }

    /// [`Options::from_args`] over an explicit argument list.
    ///
    /// # Errors
    /// As [`Options::from_args`].
    pub fn parse_from(args: impl IntoIterator<Item = String>) -> Result<Options, String> {
        let args: Vec<String> = args.into_iter().collect();
        let flags = parse(&[CAMPAIGN_FLAGS, OPTION_FLAGS], &args)?;
        if flags.given("--help") {
            eprintln!("usage: <bin> [--trials N] [--seed S] [--csv DIR] [--threads N]");
            std::process::exit(0);
        }
        Ok(Options::from_flags(&flags))
    }

    /// The options in flags parsed against [`CAMPAIGN_FLAGS`], with the
    /// thread override applied to the work-pool.
    pub fn from_flags(flags: &Flags) -> Options {
        let opts = Options {
            trials: flags.num("--trials") as usize,
            seed: flags.num("--seed"),
            csv: flags.opt_text("--csv").map(Into::into),
            threads: flags.opt_num("--threads").map(|n| n as usize),
        };
        if let Some(n) = opts.threads {
            rayon::set_num_threads(n);
        }
        opts
    }
}

/// Why a command stopped.
#[derive(Debug)]
pub enum Failure {
    /// Bad flags or an unusable input file (exit status 2).
    Usage(String),
    /// A run, a write, a cross-check or a gate failed (exit status 1).
    Failed(String),
}

/// A command's result.
pub type Outcome<T = ()> = Result<T, Failure>;

/// Prints `<who>: <message>` on stderr and exits with status 2 for a
/// [`Failure::Usage`], 1 for a [`Failure::Failed`].
pub fn exit(who: &str, failure: Failure) -> ! {
    let (code, msg) = match failure {
        Failure::Usage(msg) => (2, msg),
        Failure::Failed(msg) => (1, msg),
    };
    eprintln!("{who}: {msg}");
    std::process::exit(code);
}

/// The one writer of the binaries' standard output; [`out!`](crate::out)
/// and [`outln!`](crate::outln) expand to it. A closed pipe — the reader
/// went away, as under `| head` — ends the process quietly with status 0;
/// any other write error ends it through [`exit`], one line and status 1.
pub fn write_out(args: std::fmt::Arguments<'_>) {
    use std::io::Write;
    let mut out = std::io::stdout().lock();
    match out.write_fmt(args).and_then(|()| out.flush()) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => std::process::exit(0),
        Err(e) => exit(
            &bin_name(),
            Failure::Failed(format!("writing to standard output: {e}")),
        ),
    }
}

/// `print!` through [`write_out`](crate::cli::write_out): a closed stdout
/// ends the process instead of panicking it.
#[macro_export]
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::cli::write_out(format_args!($($arg)*))
    };
}

/// `println!` through [`write_out`](crate::cli::write_out): a closed
/// stdout ends the process instead of panicking it.
#[macro_export]
macro_rules! outln {
    () => {
        $crate::cli::write_out(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        $crate::cli::write_out(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// The running binary's file name, which prefixes its error messages.
fn bin_name() -> String {
    std::env::args()
        .next()
        .and_then(|a| {
            std::path::Path::new(&a)
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
        })
        .unwrap_or_else(|| "pamr-sim".into())
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

/// [`exit`] on a bad command line, under the running binary's name.
/// Generic in its (never produced) return type so it fits
/// `Result::unwrap_or_else`.
pub fn exit_usage<T>(msg: String) -> T {
    exit(&bin_name(), Failure::Usage(msg))
}

/// The whole of `fig7`, `fig8` and `fig9`: runs figure group `figure`
/// (0 = fig7) through [`Campaign::run_grid`], prints it with
/// [`render_figure`] and writes one CSV series per sub-figure under
/// `--csv DIR`. `pamr merge --figures` prints the same text from shard
/// partials of the same trials and seed.
pub fn figure_main(figure: usize) {
    let opts = Options::from_args().unwrap_or_else(exit_usage);
    let (mesh, model) = (crate::paper_mesh(), crate::paper_model());
    let campaign = Campaign::new(&mesh, &model, opts.trials, opts.seed);
    let results = figure_results(figure, &campaign.run_grid(Some(figure)));
    crate::out!("{}", render_figure(figure, &results, opts.trials));
    if let Some(dir) = &opts.csv {
        for res in &results {
            write_csv(res, dir).unwrap_or_else(|e| {
                let msg = format!("writing CSV into {}: {e}", dir.display());
                exit(&bin_name(), Failure::Failed(msg))
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn defaults() {
        let o = Options::parse_from(Vec::new()).unwrap();
        assert_eq!((o.trials, o.seed), (2000, 0xC0FFEE));
        assert!(o.csv.is_none() && o.threads.is_none());
    }

    #[test]
    fn parser_refuses_what_it_cannot_read() {
        const SPEC: &[Flag] = &[
            ("--n", Kind::Count, Unset::Default("3")),
            ("--name", Kind::OneOf(&["a", "b"]), Unset::Optional),
            ("--on", Kind::Switch, Unset::Optional),
        ];
        let flags = parse(&[SPEC], &args("--on --name b")).unwrap();
        assert_eq!((flags.num("--n"), flags.text("--name")), (3, "b"));
        assert!(flags.given("--on") && flags.files().is_empty());
        for bad in ["--n 0", "--n x", "--n", "--name c", "--bogus", "file.json"] {
            assert!(parse(&[SPEC], &args(bad)).is_err(), "{bad:?} parsed");
        }
        let with_files: &[Flag] = &[("FILE", Kind::Files, Unset::Required)];
        let flags = parse(&[SPEC, with_files], &args("a.json --on b.json")).unwrap();
        assert_eq!(flags.files(), ["a.json", "b.json"]);
        assert!(parse(&[SPEC, with_files], &args("--on")).is_err());
    }

    #[test]
    fn sizes_stop_at_the_bound_and_seeds_do_not() {
        const SPEC: &[Flag] = &[
            ("--n", Kind::Int, Unset::Optional),
            ("--k", Kind::Count, Unset::Optional),
            ("--seed", Kind::Seed, Unset::Optional),
            ("--threads", Kind::Threads, Unset::Optional),
        ];
        let (max, over) = (MAX_SIZE.to_string(), (MAX_SIZE + 1).to_string());
        for ok in ["--n 0", "--k 1", &format!("--n {max} --k {max}")] {
            assert!(parse(&[SPEC], &args(ok)).is_ok(), "{ok:?} refused");
        }
        for flag in ["--n", "--k"] {
            for bad in [&over, "18446744073709551615"] {
                let err = parse(&[SPEC], &args(&format!("{flag} {bad}"))).unwrap_err();
                assert_eq!(err, format!("{flag} must be at most {max}, got {bad}"));
            }
        }
        let flags = parse(&[SPEC], &args("--seed 18446744073709551615")).unwrap();
        assert_eq!(flags.num("--seed"), u64::MAX);
        assert!(size("x", MAX_SIZE).is_ok() && size("x", MAX_SIZE + 1).is_err());
        // Thread counts stop at their own, lower bound.
        let flags = parse(&[SPEC], &args("--threads 256")).unwrap();
        assert_eq!(flags.num("--threads"), MAX_THREADS);
        for bad in ["0", "257", &max] {
            let err = parse(&[SPEC], &args(&format!("--threads {bad}"))).unwrap_err();
            assert_eq!(
                err,
                format!("--threads needs a thread count from 1 to 256, got {bad:?}")
            );
        }
    }
}
