//! # optwin-bench — benchmark and reproduction harness
//!
//! This crate hosts:
//!
//! * **Binaries**, one per table/figure of the paper and one for the
//!   adversarial scenario grid:
//!   * `table1` — drift-identification statistics on the seven synthetic
//!     configurations (Table 1),
//!   * `table2` — Naive-Bayes accuracy per detector per dataset (Table 2),
//!   * `figures` — the per-run detection/FP/delay series behind Figures 2–4
//!     and the optimal-cut ν(|W|) curves (§3.3 discussion),
//!   * `fig5_nn` — the neural-network pipeline comparison (Figure 5),
//!   * `significance` — the one-tailed Wilcoxon signed-rank comparison of F1
//!     scores (§4.1),
//!   * `driftbench` — detection quality per scenario × detector cell.
//! * **Criterion benches** for the runtime claims of §3.4 (per-element
//!   detector cost, optimal-cut table construction, generator and scenario
//!   throughput, end-to-end experiment cost).
//!
//! `table1`, `table2`, `figures` and `significance` share the [`RunScale`]
//! flags ([`RunScale::FLAGS`]: `--repetitions`, `--stream-len`, `--seed`, …)
//! so that quick smoke runs and full paper-scale runs (`--full`) use the
//! same code path; `table2` and `figures` run one seeded stream per column
//! or figure, so they declare all of them but `--repetitions`. Each binary
//! declares the flags it reads: an undeclared flag, an argument that is
//! neither a flag nor a flag's value, a switch given a value, a value flag
//! given none, a flag value that does not parse, a zero count, or an
//! `--optwin-w-max` that OPTWIN refuses is a usage error, and the binary
//! names the argument and exits with status 2.

#![deny(missing_docs)]
#![warn(clippy::all)]

use std::collections::HashMap;
use std::fmt::Display;
use std::str::FromStr;

use optwin_core::OptwinConfig;

/// Count flags for which zero is meaningless: a run needs at least one
/// repetition (or seed) and a non-empty stream.
const NONZERO_FLAGS: [&str; 3] = ["repetitions", "seeds", "stream-len"];

/// The flag that caps OPTWIN's window. Its value must be a `w_max` OPTWIN
/// accepts at its default settings: at least `w_min` (30), at most
/// [`optwin_core::MAX_WINDOW`].
const WINDOW_FLAG: &str = "optwin-w-max";

/// Prints a usage error and exits with status 2.
fn usage_error(message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(2);
}

/// Minimal command-line flag parser shared by the reproduction binaries.
///
/// Flags are of the form `--name value` or boolean `--name`; any other
/// argument is a usage error. Whether a flag takes a value is known only to
/// the code that reads it, so [`Args::has_flag`] rejects a switch that was
/// given a value and [`Args::get`] a value flag that was given none. This
/// avoids a CLI dependency while keeping the binaries scriptable.
#[derive(Debug, Clone, Default)]
pub struct Args {
    values: HashMap<String, String>,
    flags: Vec<String>,
    /// Arguments that are neither a flag nor a flag's value.
    positional: Vec<String>,
}

impl Args {
    /// Parses flags from an iterator of arguments (typically
    /// `std::env::args().skip(1)`).
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Self {
        let mut values = HashMap::new();
        let mut flags = Vec::new();
        let mut positional = Vec::new();
        let mut iter = args.into_iter().peekable();
        while let Some(arg) = iter.next() {
            if let Some(name) = arg.strip_prefix("--") {
                let is_value = iter
                    .peek()
                    .map(|next| !next.starts_with("--"))
                    .unwrap_or(false);
                if is_value {
                    values.insert(name.to_string(), iter.next().unwrap_or_default());
                } else {
                    flags.push(name.to_string());
                }
            } else {
                positional.push(arg);
            }
        }
        Self {
            values,
            flags,
            positional,
        }
    }

    /// Parses the process's own command line. `flags` lists every flag
    /// name the binary reads, usually [`RunScale::FLAGS`] plus its own; any
    /// other `--name`, and any argument that is not a flag's value, is a
    /// usage error: the process names it and exits with status 2.
    #[must_use]
    pub fn from_env(flags: &[&[&str]]) -> Self {
        let args = Self::parse(std::env::args().skip(1));
        args.check_declared(flags)
            .unwrap_or_else(|e| usage_error(&e));
        args
    }

    /// The usage error naming the first argument that is not a flag or a
    /// flag's value, or every flag that is in none of `flags`.
    fn check_declared(&self, flags: &[&[&str]]) -> Result<(), String> {
        if let Some(arg) = self.positional.first() {
            return Err(format!(
                "unexpected argument `{arg}` (arguments are --flag or --flag value)"
            ));
        }
        let mut unknown: Vec<&str> = self
            .values
            .keys()
            .chain(&self.flags)
            .map(String::as_str)
            .filter(|name| !flags.iter().any(|list| list.contains(name)))
            .collect();
        if unknown.is_empty() {
            return Ok(());
        }
        unknown.sort_unstable();
        Err(format!("unknown flag --{}", unknown.join(", --")))
    }

    /// Returns the string value of `--name`, if present. `--name` given
    /// without a value is a usage error: the process names the flag and
    /// exits with status 2.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&str> {
        self.try_get(name).unwrap_or_else(|e| usage_error(&e))
    }

    /// `--name`'s value (`None` when absent), or the usage error for a
    /// value flag given without one.
    fn try_get(&self, name: &str) -> Result<Option<&str>, String> {
        if self.flags.iter().any(|f| f == name) {
            return Err(format!("--{name} needs a value"));
        }
        Ok(self.values.get(name).map(String::as_str))
    }

    /// Returns `--name` parsed as the requested type, or `default` when the
    /// flag is absent. A value that does not parse, a zero `--repetitions`,
    /// `--seeds` or `--stream-len`, or an `--optwin-w-max` OPTWIN refuses is
    /// a usage error: the process prints the flag and exits with status 2.
    #[must_use]
    pub fn get_parsed<T>(&self, name: &str, default: T) -> T
    where
        T: FromStr + Default + PartialEq,
        T::Err: Display,
    {
        self.try_parsed(name)
            .unwrap_or_else(|e| usage_error(&e))
            .unwrap_or(default)
    }

    /// `--name` parsed as `T` (`None` when absent), or the usage error for
    /// an unparsable value, a zero count or a window OPTWIN refuses.
    fn try_parsed<T>(&self, name: &str) -> Result<Option<T>, String>
    where
        T: FromStr + Default + PartialEq,
        T::Err: Display,
    {
        let Some(text) = self.try_get(name)? else {
            return Ok(None);
        };
        let value: T = text
            .parse()
            .map_err(|e| format!("invalid --{name} `{text}`: {e}"))?;
        if NONZERO_FLAGS.contains(&name) && value == T::default() {
            return Err(format!("--{name} must be at least 1"));
        }
        if name == WINDOW_FLAG {
            // Every reader asks for this flag as a `usize`, so `text`, which
            // parsed as `T` above, parses as one.
            let config = OptwinConfig {
                w_max: text.parse().unwrap_or_default(),
                ..OptwinConfig::default()
            };
            config
                .validate()
                .map_err(|e| format!("invalid --{name} `{text}`: {e}"))?;
        }
        Ok(Some(value))
    }

    /// `true` when the boolean flag `--name` was given. A value after it
    /// (`--full 1`) is a usage error: the process names the flag and exits
    /// with status 2.
    #[must_use]
    pub fn has_flag(&self, name: &str) -> bool {
        self.try_has_flag(name).unwrap_or_else(|e| usage_error(&e))
    }

    /// Whether the switch `--name` was given, or the usage error for a
    /// switch given a value.
    fn try_has_flag(&self, name: &str) -> Result<bool, String> {
        if let Some(value) = self.values.get(name) {
            return Err(format!("--{name} takes no value, got `{value}`"));
        }
        Ok(self.flags.iter().any(|f| f == name))
    }
}

/// Common run-scale settings derived from the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunScale {
    /// Number of repetitions per (experiment, detector) pair.
    pub repetitions: usize,
    /// Stream length override (`None` = the experiment's paper-scale value).
    pub stream_len: Option<usize>,
    /// Maximum OPTWIN window size.
    pub optwin_w_max: usize,
    /// Base random seed.
    pub seed: u64,
}

impl RunScale {
    /// The flags [`RunScale::from_args`] reads.
    pub const FLAGS: &'static [&'static str] =
        &["full", "repetitions", "stream-len", "optwin-w-max", "seed"];

    /// Derives the run scale from parsed arguments. Without `--full` the
    /// defaults are sized for a quick (< 1 min) laptop run; with `--full` the
    /// paper-scale settings (30 repetitions, 100 000-element streams,
    /// `w_max = 25 000`) are used. An unparsable value or a zero count is a
    /// usage error (see [`Args::get_parsed`]).
    #[must_use]
    pub fn from_args(args: &Args) -> Self {
        Self::try_from_args(args).unwrap_or_else(|e| usage_error(&e))
    }

    fn try_from_args(args: &Args) -> Result<Self, String> {
        let (repetitions, stream_len, optwin_w_max) = if args.try_has_flag("full")? {
            (30, None, 25_000)
        } else {
            (5, Some(20_000), 4_000)
        };
        Ok(Self {
            repetitions: args.try_parsed("repetitions")?.unwrap_or(repetitions),
            stream_len: args.try_parsed("stream-len")?.or(stream_len),
            optwin_w_max: args.try_parsed("optwin-w-max")?.unwrap_or(optwin_w_max),
            seed: args.try_parsed("seed")?.unwrap_or(20_240_614),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args_of(s: &[&str]) -> Args {
        Args::parse(s.iter().map(|s| (*s).to_string()))
    }

    #[test]
    fn parses_values_and_flags() {
        let args = args_of(&["--repetitions", "10", "--full", "--seed", "7"]);
        assert_eq!(args.get("repetitions"), Some("10"));
        assert_eq!(args.get_parsed("repetitions", 0usize), 10);
        assert_eq!(args.get_parsed("seed", 0u64), 7);
        assert!(args.has_flag("full"));
        assert!(!args.has_flag("quick"));
        assert_eq!(args.get("missing"), None);
        assert_eq!(args.get_parsed("missing", 42u32), 42);
    }

    #[test]
    fn run_scale_quick_defaults() {
        let scale = RunScale::from_args(&args_of(&[]));
        assert_eq!(scale.repetitions, 5);
        assert_eq!(scale.stream_len, Some(20_000));
        assert_eq!(scale.optwin_w_max, 4_000);
    }

    #[test]
    fn run_scale_full_defaults() {
        let scale = RunScale::from_args(&args_of(&["--full"]));
        assert_eq!(scale.repetitions, 30);
        assert_eq!(scale.stream_len, None);
        assert_eq!(scale.optwin_w_max, 25_000);
    }

    #[test]
    fn run_scale_overrides() {
        let scale = RunScale::from_args(&args_of(&[
            "--full",
            "--repetitions",
            "3",
            "--stream-len",
            "1000",
            "--optwin-w-max",
            "500",
        ]));
        assert_eq!(scale.repetitions, 3);
        assert_eq!(scale.stream_len, Some(1_000));
        assert_eq!(scale.optwin_w_max, 500);
    }

    #[test]
    fn unparsable_values_are_usage_errors_naming_the_flag() {
        let args = args_of(&["--repetitions", "3x", "--stream-len", "4k", "--rho", "x"]);
        let err = args.try_parsed::<usize>("repetitions").unwrap_err();
        assert!(err.starts_with("invalid --repetitions `3x`"), "{err}");
        let err = args.try_parsed::<f64>("rho").unwrap_err();
        assert!(err.starts_with("invalid --rho `x`"), "{err}");
        let err = RunScale::try_from_args(&args).unwrap_err();
        assert!(err.contains("--repetitions"), "{err}");
        let err = RunScale::try_from_args(&args_of(&["--stream-len", "4k"])).unwrap_err();
        assert!(err.starts_with("invalid --stream-len `4k`"), "{err}");
        let err = RunScale::try_from_args(&args_of(&["--seed", "two"])).unwrap_err();
        assert!(err.starts_with("invalid --seed `two`"), "{err}");
        // A switch given a value, and a value flag given none.
        let err = RunScale::try_from_args(&args_of(&["--full", "1"])).unwrap_err();
        assert_eq!(err, "--full takes no value, got `1`");
        let args = args_of(&["--json", "--full"]);
        assert_eq!(
            args.try_get("json"),
            Err("--json needs a value".to_string())
        );
        assert_eq!(args.try_has_flag("full"), Ok(true));
        let err = RunScale::try_from_args(&args_of(&["--stream-len"])).unwrap_err();
        assert_eq!(err, "--stream-len needs a value");
    }

    #[test]
    fn undeclared_flags_are_usage_errors_naming_the_flag() {
        let args = args_of(&["--stream_len", "4000", "--full", "--zipf", "1.1"]);
        assert_eq!(
            args.check_declared(&[RunScale::FLAGS]),
            Err("unknown flag --stream_len, --zipf".to_string())
        );
        assert_eq!(
            args.check_declared(&[RunScale::FLAGS, &["zipf", "stream_len"]]),
            Ok(())
        );
        // A positional argument is named too, ahead of the flags.
        let args = args_of(&["sudden-binary", "--repetitions", "1", "--zipf"]);
        let err = args.check_declared(&[RunScale::FLAGS]).unwrap_err();
        assert!(
            err.starts_with("unexpected argument `sudden-binary`"),
            "{err}"
        );
        // Every flag the run scale reads is declared by its list, so a
        // binary passing it accepts each of them (the `--full` switch bare,
        // the rest with a value valid for all of them).
        let every: Vec<String> = RunScale::FLAGS
            .iter()
            .flat_map(|&flag| {
                let value = (flag != "full").then(|| "100".to_string());
                std::iter::once(format!("--{flag}")).chain(value)
            })
            .collect();
        let args = Args::parse(every);
        assert_eq!(args.check_declared(&[RunScale::FLAGS]), Ok(()));
        assert!(RunScale::try_from_args(&args).is_ok());
    }

    #[test]
    fn zero_counts_are_usage_errors() {
        for flag in NONZERO_FLAGS {
            let args = args_of(&[&format!("--{flag}"), "0"]);
            assert_eq!(
                args.try_parsed::<usize>(flag),
                Err(format!("--{flag} must be at least 1"))
            );
        }
        for flag in ["--repetitions", "--stream-len"] {
            let err = RunScale::try_from_args(&args_of(&[flag, "0"])).unwrap_err();
            assert_eq!(err, format!("{flag} must be at least 1"));
        }
        // Zero stays valid where it means something: a seed.
        let scale = RunScale::try_from_args(&args_of(&["--seed", "0"])).unwrap();
        assert_eq!(scale.seed, 0);
    }

    #[test]
    fn windows_optwin_refuses_are_usage_errors() {
        for (w_max, reason) in [
            ("10", "must be at least w_min (30), got 10"),
            ("200000000", "must be at most"),
        ] {
            let err = RunScale::try_from_args(&args_of(&["--optwin-w-max", w_max])).unwrap_err();
            assert!(
                err.starts_with(&format!("invalid --optwin-w-max `{w_max}`: ")),
                "{err}"
            );
            assert!(err.contains(reason), "{err}");
            // Binaries that read the flag themselves get the same check.
            let args = args_of(&["--optwin-w-max", w_max]);
            assert_eq!(args.try_parsed::<usize>("optwin-w-max"), Err(err));
        }
        for w_max in [30, optwin_core::MAX_WINDOW] {
            let args = args_of(&["--optwin-w-max", &w_max.to_string()]);
            assert_eq!(RunScale::try_from_args(&args).unwrap().optwin_w_max, w_max);
        }
    }
}
