//! Declarative, serializable detector specifications.
//!
//! [`DetectorSpec`] is the config-driven front door to every detector the
//! workspace ships: one serde-serializable enum covering OPTWIN and all
//! seven baselines with their **full parameter sets**, a [`DetectorSpec::build`]
//! method producing a ready-to-run boxed [`DriftDetector`], and a canonical
//! textual grammar for CLIs and config files:
//!
//! ```text
//! <id>                      # the detector with its reference defaults
//! <id>:<key>=<value>,...    # defaults with selected fields overridden
//! ```
//!
//! where `<id>` is one of `optwin`, `adwin`, `ddm`, `eddm`, `stepd`, `ecdd`,
//! `page_hinkley`, `kswin` and the keys are exactly the fields of the
//! detector's config struct (e.g. `adwin:delta=0.002` or
//! `kswin:window_size=300,stat_size=30,alpha=0.0001`).
//!
//! Two **composite** ids nest whole specs as values (see
//! [`crate::composite`]):
//!
//! ```text
//! cascade:guard=<spec>,confirm=<spec>,replay=256,cooldown=256
//! ensemble:vote=2,members=[<spec>|<spec>|...]
//! ```
//!
//! Nested spec values may be wrapped in `[`…`]`; the canonical `Display`
//! form always wraps them, and the brackets are required whenever the
//! nested spec itself contains a top-level comma (parameter separators are
//! split bracket-aware, so `cascade:guard=ddm,confirm=optwin:delta=0.01`
//! parses without any). Composites nest at most one level deep — a cascade
//! inside an ensemble is fine, a cascade inside a cascade inside an
//! ensemble is rejected by [`DetectorSpec::validate`].
//!
//! [`std::fmt::Display`] prints the **complete** parameter set, and
//! `Display` → [`std::str::FromStr`] is an exact round trip (floats use
//! Rust's shortest round-trip formatting), so a spec echoed anywhere — a
//! log line, an engine snapshot, a config file — can always be parsed back
//! into the identical spec. The serde form is that same string, which keeps
//! one grammar as the single source of truth and makes engine snapshots
//! self-describing *and* hand-editable.
//!
//! This type lives in `optwin-baselines` rather than `optwin-core` because
//! [`DetectorSpec::build`] must construct the baseline detector types, and
//! baselines sit above core in the dependency graph; core only defines the
//! [`DriftDetector`] contract the built boxes implement.
//!
//! ```
//! use optwin_baselines::DetectorSpec;
//!
//! let spec: DetectorSpec = "adwin:delta=0.01".parse().unwrap();
//! let mut detector = spec.build().unwrap();
//! assert_eq!(detector.name(), "ADWIN");
//! detector.add_element(0.0);
//! // The printed form is complete and parses back to the same spec.
//! let echoed: DetectorSpec = spec.to_string().parse().unwrap();
//! assert_eq!(echoed, spec);
//! ```

// `!(x > 0.0)` (rather than `x <= 0.0`) is the workspace idiom for rejecting
// out-of-range *and NaN* parameters in one comparison (mirrors optwin-core).
#![allow(clippy::neg_cmp_op_on_partial_ord)]

use std::fmt;
use std::str::FromStr;

use optwin_core::config::check_window_size;
use optwin_core::{
    CoreError, CutTableRegistry, DriftDetector, DriftDirection, Optwin, OptwinConfig,
};

use crate::composite::{Cascade, CascadeConfig, Ensemble, EnsembleConfig};
use crate::{
    Adwin, AdwinConfig, Ddm, DdmConfig, Ecdd, EcddConfig, Eddm, EddmConfig, Kswin, KswinConfig,
    PageHinkley, PageHinkleyConfig, Stepd, StepdConfig,
};

/// A declarative, serializable description of one detector instance: which
/// detector to run and every parameter it takes.
///
/// See the [module documentation](self) for the textual grammar and the
/// design rationale. Construct via [`FromStr`] (`"adwin:delta=0.002"`), via
/// the enum literal, or via [`DetectorSpec::default_for`]; turn into a
/// running detector with [`DetectorSpec::build`].
#[derive(Debug, Clone, PartialEq)]
pub enum DetectorSpec {
    /// OPTWIN with its full [`OptwinConfig`]. Built through the process-wide
    /// cut-table registry, so every instance with an equivalent
    /// configuration shares one table.
    Optwin {
        /// The detector configuration.
        config: OptwinConfig,
    },
    /// ADWIN.
    Adwin {
        /// The detector configuration.
        config: AdwinConfig,
    },
    /// DDM.
    Ddm {
        /// The detector configuration.
        config: DdmConfig,
    },
    /// EDDM.
    Eddm {
        /// The detector configuration.
        config: EddmConfig,
    },
    /// STEPD.
    Stepd {
        /// The detector configuration.
        config: StepdConfig,
    },
    /// ECDD.
    Ecdd {
        /// The detector configuration.
        config: EcddConfig,
    },
    /// Page–Hinkley.
    PageHinkley {
        /// The detector configuration.
        config: PageHinkleyConfig,
    },
    /// KSWIN.
    Kswin {
        /// The detector configuration.
        config: KswinConfig,
    },
    /// A cheap-first guard/confirmer cascade ([`Cascade`]).
    Cascade {
        /// The composite configuration, holding the nested child specs.
        config: CascadeConfig,
    },
    /// A k-of-N voting ensemble ([`Ensemble`]).
    Ensemble {
        /// The composite configuration, holding the nested member specs.
        config: EnsembleConfig,
    },
}

/// The grammar ids of every detector kind, in the paper's order.
pub const DETECTOR_IDS: [&str; 8] = [
    "optwin",
    "adwin",
    "ddm",
    "eddm",
    "stepd",
    "ecdd",
    "page_hinkley",
    "kswin",
];

fn invalid(field: &'static str, message: impl Into<String>) -> CoreError {
    CoreError::InvalidConfig {
        field,
        message: message.into(),
    }
}

impl DetectorSpec {
    /// The spec with the reference defaults for the given grammar id (same
    /// accepted spellings as [`FromStr`]).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for an unknown id.
    pub fn default_for(id: &str) -> Result<Self, CoreError> {
        match id.to_ascii_lowercase().as_str() {
            "optwin" => Ok(DetectorSpec::Optwin {
                config: OptwinConfig::default(),
            }),
            "adwin" => Ok(DetectorSpec::Adwin {
                config: AdwinConfig::default(),
            }),
            "ddm" => Ok(DetectorSpec::Ddm {
                config: DdmConfig::default(),
            }),
            "eddm" => Ok(DetectorSpec::Eddm {
                config: EddmConfig::default(),
            }),
            "stepd" => Ok(DetectorSpec::Stepd {
                config: StepdConfig::default(),
            }),
            "ecdd" => Ok(DetectorSpec::Ecdd {
                config: EcddConfig::default(),
            }),
            "page_hinkley" | "page-hinkley" | "pagehinkley" | "ph" => {
                Ok(DetectorSpec::PageHinkley {
                    config: PageHinkleyConfig::default(),
                })
            }
            "kswin" => Ok(DetectorSpec::Kswin {
                config: KswinConfig::default(),
            }),
            "cascade" => Ok(DetectorSpec::Cascade {
                config: CascadeConfig::default(),
            }),
            "ensemble" => Ok(DetectorSpec::Ensemble {
                config: EnsembleConfig::default(),
            }),
            other => Err(invalid(
                "detector",
                format!(
                    "unknown detector `{other}`; expected one of: {}, cascade, ensemble",
                    DETECTOR_IDS.join(", ")
                ),
            )),
        }
    }

    /// All eight detector kinds with their reference defaults, in the
    /// paper's order.
    #[must_use]
    pub fn all_defaults() -> Vec<DetectorSpec> {
        DETECTOR_IDS
            .iter()
            .map(|id| Self::default_for(id).expect("listed ids are valid"))
            .collect()
    }

    /// The grammar id of this spec (`"adwin"`, `"page_hinkley"`, …).
    #[must_use]
    pub fn id(&self) -> &'static str {
        match self {
            DetectorSpec::Optwin { .. } => "optwin",
            DetectorSpec::Adwin { .. } => "adwin",
            DetectorSpec::Ddm { .. } => "ddm",
            DetectorSpec::Eddm { .. } => "eddm",
            DetectorSpec::Stepd { .. } => "stepd",
            DetectorSpec::Ecdd { .. } => "ecdd",
            DetectorSpec::PageHinkley { .. } => "page_hinkley",
            DetectorSpec::Kswin { .. } => "kswin",
            DetectorSpec::Cascade { .. } => "cascade",
            DetectorSpec::Ensemble { .. } => "ensemble",
        }
    }

    /// Composite nesting depth: `0` for a plain detector, `1 +` the deepest
    /// child for a composite. [`DetectorSpec::validate`] caps this at 2
    /// (a cascade inside an ensemble is the deepest supported shape).
    fn depth(&self) -> usize {
        match self {
            DetectorSpec::Cascade { config } => {
                1 + config.guard.depth().max(config.confirm.depth())
            }
            DetectorSpec::Ensemble { config } => {
                1 + config.members.iter().map(Self::depth).max().unwrap_or(0)
            }
            _ => 0,
        }
    }

    /// The stable name the built detector reports through
    /// [`DriftDetector::name`] (`"ADWIN"`, `"PageHinkley"`, …) — what
    /// engine snapshots record and validate against.
    #[must_use]
    pub fn detector_name(&self) -> &'static str {
        match self {
            DetectorSpec::Optwin { .. } => "OPTWIN",
            DetectorSpec::Adwin { .. } => "ADWIN",
            DetectorSpec::Ddm { .. } => "DDM",
            DetectorSpec::Eddm { .. } => "EDDM",
            DetectorSpec::Stepd { .. } => "STEPD",
            DetectorSpec::Ecdd { .. } => "ECDD",
            DetectorSpec::PageHinkley { .. } => "PageHinkley",
            DetectorSpec::Kswin { .. } => "KSWIN",
            DetectorSpec::Cascade { .. } => "CASCADE",
            DetectorSpec::Ensemble { .. } => "ENSEMBLE",
        }
    }

    /// `true` when the described detector only accepts binary error
    /// indicators (DDM, EDDM, ECDD), mirroring
    /// [`DriftDetector::supports_real_valued_input`].
    #[must_use]
    pub fn binary_only(&self) -> bool {
        match self {
            DetectorSpec::Ddm { .. } | DetectorSpec::Eddm { .. } | DetectorSpec::Ecdd { .. } => {
                true
            }
            DetectorSpec::Cascade { config } => {
                config.guard.binary_only() || config.confirm.binary_only()
            }
            DetectorSpec::Ensemble { config } => config.members.iter().any(Self::binary_only),
            _ => false,
        }
    }

    /// Validates every parameter. The leaf baseline constructors check
    /// their configs by this same rule, and panic where this returns an
    /// error: this is the non-panicking front door.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] naming the offending field.
    pub fn validate(&self) -> Result<(), CoreError> {
        // One-sided bounds below (e.g. `lambda > 0`) would let `inf` (and an
        // unvalidated field NaN) through `f64::from_str`, producing a
        // detector whose every threshold comparison silently evaluates
        // false — so every float parameter is first required to be finite.
        let finite = |field: &'static str, x: f64| {
            if x.is_finite() {
                Ok(())
            } else {
                Err(invalid(field, format!("must be finite, got {x}")))
            }
        };
        match self {
            DetectorSpec::Optwin { config } => config.validate(),
            DetectorSpec::Adwin { config } => {
                if !(config.delta > 0.0 && config.delta < 1.0) {
                    return Err(invalid(
                        "delta",
                        format!("must lie in (0, 1), got {}", config.delta),
                    ));
                }
                if config.clock == 0 {
                    return Err(invalid("clock", "must be positive"));
                }
                Ok(())
            }
            DetectorSpec::Ddm { config } => {
                finite("warning_level", config.warning_level)?;
                finite("drift_level", config.drift_level)?;
                if !(config.warning_level > 0.0 && config.drift_level > config.warning_level) {
                    return Err(invalid(
                        "drift_level",
                        format!(
                            "levels must satisfy 0 < warning_level < drift_level, got {} / {}",
                            config.warning_level, config.drift_level
                        ),
                    ));
                }
                Ok(())
            }
            DetectorSpec::Eddm { config } => {
                if !(config.beta > 0.0 && config.beta < config.alpha && config.alpha <= 1.0) {
                    return Err(invalid(
                        "beta",
                        format!(
                            "thresholds must satisfy 0 < beta < alpha <= 1, got beta={} alpha={}",
                            config.beta, config.alpha
                        ),
                    ));
                }
                Ok(())
            }
            DetectorSpec::Stepd { config } => {
                if config.window_size == 0 {
                    return Err(invalid("window_size", "must be positive"));
                }
                check_window_size("window_size", config.window_size)?;
                if !(config.alpha_drift > 0.0
                    && config.alpha_drift < config.alpha_warning
                    && config.alpha_warning < 1.0)
                {
                    return Err(invalid(
                        "alpha_drift",
                        format!(
                            "levels must satisfy 0 < alpha_drift < alpha_warning < 1, got {} / {}",
                            config.alpha_drift, config.alpha_warning
                        ),
                    ));
                }
                Ok(())
            }
            DetectorSpec::Ecdd { config } => {
                finite("arl0", config.arl0)?;
                if !(config.lambda > 0.0 && config.lambda <= 1.0) {
                    return Err(invalid(
                        "lambda",
                        format!("must lie in (0, 1], got {}", config.lambda),
                    ));
                }
                if !(config.arl0 >= 2.0) {
                    return Err(invalid(
                        "arl0",
                        format!("must be at least 2, got {}", config.arl0),
                    ));
                }
                if !(config.warning_fraction > 0.0 && config.warning_fraction <= 1.0) {
                    return Err(invalid(
                        "warning_fraction",
                        format!("must lie in (0, 1], got {}", config.warning_fraction),
                    ));
                }
                Ok(())
            }
            DetectorSpec::PageHinkley { config } => {
                finite("delta", config.delta)?;
                finite("lambda", config.lambda)?;
                if !(config.lambda > 0.0) {
                    return Err(invalid(
                        "lambda",
                        format!("must be positive, got {}", config.lambda),
                    ));
                }
                if !(config.alpha > 0.0 && config.alpha <= 1.0) {
                    return Err(invalid(
                        "alpha",
                        format!("must lie in (0, 1], got {}", config.alpha),
                    ));
                }
                if !(config.warning_fraction > 0.0 && config.warning_fraction <= 1.0) {
                    return Err(invalid(
                        "warning_fraction",
                        format!("must lie in (0, 1], got {}", config.warning_fraction),
                    ));
                }
                Ok(())
            }
            DetectorSpec::Kswin { config } => {
                if config.stat_size == 0 {
                    return Err(invalid("stat_size", "must be positive"));
                }
                check_window_size("window_size", config.window_size)?;
                let twice = config.stat_size.checked_mul(2);
                if twice.is_none_or(|twice| config.window_size <= twice) {
                    return Err(invalid(
                        "window_size",
                        format!(
                            "must exceed twice the stat_size ({}), got {}",
                            config.stat_size, config.window_size
                        ),
                    ));
                }
                if !(config.alpha > 0.0 && config.alpha < 1.0) {
                    return Err(invalid(
                        "alpha",
                        format!("must lie in (0, 1), got {}", config.alpha),
                    ));
                }
                Ok(())
            }
            DetectorSpec::Cascade { config } => {
                if self.depth() > 2 {
                    return Err(invalid(
                        "detector",
                        format!(
                            "composite nesting depth {} exceeds the maximum of 2",
                            self.depth()
                        ),
                    ));
                }
                if config.replay == 0 {
                    return Err(invalid("replay", "must be positive"));
                }
                check_window_size("replay", config.replay)?;
                if config.cooldown == 0 {
                    return Err(invalid("cooldown", "must be positive"));
                }
                config.guard.validate()?;
                config.confirm.validate()
            }
            DetectorSpec::Ensemble { config } => {
                if self.depth() > 2 {
                    return Err(invalid(
                        "detector",
                        format!(
                            "composite nesting depth {} exceeds the maximum of 2",
                            self.depth()
                        ),
                    ));
                }
                if config.members.is_empty() {
                    return Err(invalid("members", "must name at least one member"));
                }
                if config.vote == 0 || config.vote > config.members.len() {
                    return Err(invalid(
                        "vote",
                        format!(
                            "must lie in 1..={}, got {}",
                            config.members.len(),
                            config.vote
                        ),
                    ));
                }
                if config.horizon == 0 {
                    return Err(invalid("horizon", "must be positive"));
                }
                for member in &config.members {
                    member.validate()?;
                }
                Ok(())
            }
        }
    }

    /// Panics with [`DetectorSpec::validate`]'s error: the check every leaf
    /// baseline constructor runs on its config.
    pub(crate) fn assert_valid(&self) {
        if let Err(e) = self.validate() {
            panic!("{e}");
        }
    }

    /// Validates the spec and constructs a ready-to-run boxed detector.
    /// OPTWIN instances share cut tables through the process-wide
    /// [`CutTableRegistry`], so building thousands of identically configured
    /// specs stays cheap; the first build of a configuration computes its
    /// table (see [`DetectorSpec::warm_cut_tables`]).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when any parameter is out of
    /// range (this method never panics, unlike the raw detector
    /// constructors).
    pub fn build(&self) -> Result<Box<dyn DriftDetector + Send>, CoreError> {
        self.validate()?;
        Ok(match self {
            DetectorSpec::Optwin { config } => Box::new(Optwin::new(config.clone())?),
            DetectorSpec::Adwin { config } => Box::new(Adwin::new(config.clone())),
            DetectorSpec::Ddm { config } => Box::new(Ddm::new(*config)),
            DetectorSpec::Eddm { config } => Box::new(Eddm::new(*config)),
            DetectorSpec::Stepd { config } => Box::new(Stepd::new(*config)),
            DetectorSpec::Ecdd { config } => Box::new(Ecdd::new(*config)),
            DetectorSpec::PageHinkley { config } => Box::new(PageHinkley::new(*config)),
            DetectorSpec::Kswin { config } => Box::new(Kswin::new(*config)),
            DetectorSpec::Cascade { config } => Box::new(Cascade::new(config.clone())?),
            DetectorSpec::Ensemble { config } => Box::new(Ensemble::new(config.clone())?),
        })
    }

    /// Takes every OPTWIN cut table this spec can reach from the
    /// process-wide [`CutTableRegistry`]: its own, a cascade's guard and
    /// confirmer, and every ensemble member's. A table missing from the
    /// registry, or shorter than the spec's `w_max`, is computed here, on the
    /// calling thread, so building the detector later (or waking a cascade's
    /// confirmer) computes no cut-table entry.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when an OPTWIN configuration is
    /// invalid.
    pub fn warm_cut_tables(&self) -> Result<(), CoreError> {
        match self {
            DetectorSpec::Optwin { config } => {
                CutTableRegistry::global().get_or_build(config)?;
                Ok(())
            }
            DetectorSpec::Cascade { config } => {
                config.guard.warm_cut_tables()?;
                config.confirm.warm_cut_tables()
            }
            DetectorSpec::Ensemble { config } => {
                config.members.iter().try_for_each(Self::warm_cut_tables)
            }
            _ => Ok(()),
        }
    }

    /// A human-readable listing of the grammar — every detector id with its
    /// keys and defaults — for CLI `--help`-style error messages.
    #[must_use]
    pub fn grammar_help() -> String {
        let mut out = String::from(
            "detector specs are `<id>` or `<id>:<key>=<value>,...`; valid specs (with their \
             defaults):\n",
        );
        for spec in Self::all_defaults() {
            out.push_str("  ");
            out.push_str(&spec.to_string());
            out.push('\n');
        }
        out.push_str(
            "composite specs nest whole specs as values (brackets optional when the nested \
             spec has no top-level comma):\n",
        );
        for id in ["cascade", "ensemble"] {
            out.push_str("  ");
            out.push_str(
                &Self::default_for(id)
                    .expect("composite ids are valid")
                    .to_string(),
            );
            out.push('\n');
        }
        out.push_str("  e.g. cascade:guard=ddm,confirm=optwin:delta=0.01\n");
        out
    }
}

impl fmt::Display for DetectorSpec {
    /// Prints the id followed by the **complete** parameter set, so the
    /// output always parses back to an identical spec.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DetectorSpec::Optwin { config } => {
                let warning = match config.warning_delta {
                    Some(w) => w.to_string(),
                    None => "none".to_string(),
                };
                let direction = match config.direction {
                    DriftDirection::DegradationOnly => "degradation_only",
                    DriftDirection::Both => "both",
                };
                write!(
                    f,
                    "optwin:delta={},rho={},w_min={},w_max={},eta={},direction={direction},\
                     warning_delta={warning}",
                    config.delta, config.rho, config.w_min, config.w_max, config.eta
                )
            }
            DetectorSpec::Adwin { config } => write!(
                f,
                "adwin:delta={},clock={},min_window_len={},min_sub_window_len={}",
                config.delta, config.clock, config.min_window_len, config.min_sub_window_len
            ),
            DetectorSpec::Ddm { config } => write!(
                f,
                "ddm:min_instances={},warning_level={},drift_level={}",
                config.min_instances, config.warning_level, config.drift_level
            ),
            DetectorSpec::Eddm { config } => write!(
                f,
                "eddm:alpha={},beta={},min_errors={}",
                config.alpha, config.beta, config.min_errors
            ),
            DetectorSpec::Stepd { config } => write!(
                f,
                "stepd:window_size={},alpha_drift={},alpha_warning={}",
                config.window_size, config.alpha_drift, config.alpha_warning
            ),
            DetectorSpec::Ecdd { config } => write!(
                f,
                "ecdd:lambda={},arl0={},min_instances={},warning_fraction={}",
                config.lambda, config.arl0, config.min_instances, config.warning_fraction
            ),
            DetectorSpec::PageHinkley { config } => write!(
                f,
                "page_hinkley:min_instances={},delta={},lambda={},alpha={},warning_fraction={}",
                config.min_instances,
                config.delta,
                config.lambda,
                config.alpha,
                config.warning_fraction
            ),
            DetectorSpec::Kswin { config } => write!(
                f,
                "kswin:window_size={},stat_size={},alpha={}",
                config.window_size, config.stat_size, config.alpha
            ),
            // Nested spec values are always bracketed in the canonical form,
            // so the complete child parameter lists (which contain commas)
            // survive the bracket-aware top-level split on re-parse.
            DetectorSpec::Cascade { config } => write!(
                f,
                "cascade:guard=[{}],confirm=[{}],replay={},cooldown={}",
                config.guard, config.confirm, config.replay, config.cooldown
            ),
            DetectorSpec::Ensemble { config } => {
                write!(
                    f,
                    "ensemble:vote={},horizon={},members=[",
                    config.vote, config.horizon
                )?;
                for (i, member) in config.members.iter().enumerate() {
                    if i > 0 {
                        f.write_str("|")?;
                    }
                    write!(f, "{member}")?;
                }
                f.write_str("]")
            }
        }
    }
}

fn parse_num<T: FromStr>(key: &'static str, value: &str) -> Result<T, CoreError> {
    value
        .parse()
        .map_err(|_| invalid(key, format!("cannot parse `{value}`")))
}

/// Splits `s` at every `sep` that sits outside `[`…`]` brackets, so nested
/// spec values survive the parameter split intact. Rejects unbalanced
/// brackets.
fn split_top_level(s: &str, sep: char) -> Result<Vec<&str>, CoreError> {
    let mut parts = Vec::new();
    let mut depth = 0usize;
    let mut start = 0usize;
    for (i, c) in s.char_indices() {
        match c {
            '[' => depth += 1,
            ']' => {
                depth = depth
                    .checked_sub(1)
                    .ok_or_else(|| invalid("detector", format!("unbalanced `]` in `{s}`")))?;
            }
            c if c == sep && depth == 0 => {
                parts.push(&s[start..i]);
                start = i + sep.len_utf8();
            }
            _ => {}
        }
    }
    if depth != 0 {
        return Err(invalid("detector", format!("unbalanced `[` in `{s}`")));
    }
    parts.push(&s[start..]);
    Ok(parts)
}

/// Strips one fully-wrapping `[`…`]` layer, if present. The leading `[`
/// must be closed by the final `]` — `[a]|[b]` is left untouched.
fn strip_brackets(s: &str) -> &str {
    let trimmed = s.trim();
    let Some(inner) = trimmed
        .strip_prefix('[')
        .and_then(|rest| rest.strip_suffix(']'))
    else {
        return trimmed;
    };
    let mut depth = 1usize;
    for c in inner.chars() {
        match c {
            '[' => depth += 1,
            ']' => {
                if depth == 1 {
                    return trimmed;
                }
                depth -= 1;
            }
            _ => {}
        }
    }
    inner.trim()
}

/// Parses a nested spec value (optionally bracketed) with the full
/// grammar.
fn parse_nested(key: &'static str, value: &str) -> Result<DetectorSpec, CoreError> {
    let inner = strip_brackets(value);
    inner
        .parse()
        .map_err(|e: CoreError| invalid(key, format!("nested spec `{inner}` is invalid: {e}")))
}

impl FromStr for DetectorSpec {
    type Err = CoreError;

    /// Parses `<id>` or `<id>:<key>=<value>,...`. Unspecified keys keep the
    /// detector's reference defaults; the assembled spec is validated before
    /// it is returned. Unknown keys are an error.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        let (id, params) = match s.split_once(':') {
            Some((id, params)) => (id.trim(), Some(params)),
            None => (s, None),
        };
        let mut spec = Self::default_for(id)?;

        if let Some(params) = params {
            if params.trim().is_empty() {
                return Err(invalid(
                    "detector",
                    format!("`{id}:` has an empty parameter list; drop the `:` for defaults"),
                ));
            }
            let mut explicit_warning_delta = false;
            for pair in split_top_level(params, ',')? {
                let Some((key, value)) = pair.split_once('=') else {
                    return Err(invalid(
                        "detector",
                        format!("malformed parameter `{pair}` (expected `key=value`)"),
                    ));
                };
                let (key, value) = (key.trim(), value.trim());
                explicit_warning_delta |= key == "warning_delta";
                spec.set_field(key, value)?;
            }
            // OPTWIN's warning confidence defaults to 0.95, which only makes
            // sense below the drift confidence. When the user overrides
            // `delta` below that default without saying anything about
            // warnings (e.g. `optwin:delta=0.01`), the *default* is dropped
            // rather than rejecting the spec — an explicit `warning_delta`
            // is still validated strictly.
            if !explicit_warning_delta {
                if let DetectorSpec::Optwin { config } = &mut spec {
                    if config.warning_delta.is_some_and(|w| w >= config.delta) {
                        config.warning_delta = None;
                    }
                }
            }
        }
        spec.validate()?;
        Ok(spec)
    }
}

impl DetectorSpec {
    /// Applies one `key=value` override from the textual grammar.
    fn set_field(&mut self, key: &str, value: &str) -> Result<(), CoreError> {
        let id = self.id();
        let unknown = |valid_keys: &str| {
            invalid(
                "detector",
                format!("unknown key `{key}` for `{id}`; valid keys: {valid_keys}"),
            )
        };
        match self {
            DetectorSpec::Optwin { config } => match key {
                "delta" => config.delta = parse_num("delta", value)?,
                "rho" => config.rho = parse_num("rho", value)?,
                "w_min" => config.w_min = parse_num("w_min", value)?,
                "w_max" => config.w_max = parse_num("w_max", value)?,
                "eta" => config.eta = parse_num("eta", value)?,
                "direction" => {
                    config.direction = match value.to_ascii_lowercase().as_str() {
                        "degradation_only" | "degradation-only" => DriftDirection::DegradationOnly,
                        "both" => DriftDirection::Both,
                        other => {
                            return Err(invalid(
                                "direction",
                                format!("expected `degradation_only` or `both`, got `{other}`"),
                            ))
                        }
                    }
                }
                "warning_delta" => {
                    config.warning_delta = if value.eq_ignore_ascii_case("none") {
                        None
                    } else {
                        Some(parse_num("warning_delta", value)?)
                    }
                }
                _ => {
                    return Err(unknown(
                        "delta, rho, w_min, w_max, eta, direction, warning_delta",
                    ))
                }
            },
            DetectorSpec::Adwin { config } => match key {
                "delta" => config.delta = parse_num("delta", value)?,
                "clock" => config.clock = parse_num("clock", value)?,
                "min_window_len" => config.min_window_len = parse_num("min_window_len", value)?,
                "min_sub_window_len" => {
                    config.min_sub_window_len = parse_num("min_sub_window_len", value)?;
                }
                _ => return Err(unknown("delta, clock, min_window_len, min_sub_window_len")),
            },
            DetectorSpec::Ddm { config } => match key {
                "min_instances" => config.min_instances = parse_num("min_instances", value)?,
                "warning_level" => config.warning_level = parse_num("warning_level", value)?,
                "drift_level" => config.drift_level = parse_num("drift_level", value)?,
                _ => return Err(unknown("min_instances, warning_level, drift_level")),
            },
            DetectorSpec::Eddm { config } => match key {
                "alpha" => config.alpha = parse_num("alpha", value)?,
                "beta" => config.beta = parse_num("beta", value)?,
                "min_errors" => config.min_errors = parse_num("min_errors", value)?,
                _ => return Err(unknown("alpha, beta, min_errors")),
            },
            DetectorSpec::Stepd { config } => match key {
                "window_size" => config.window_size = parse_num("window_size", value)?,
                "alpha_drift" => config.alpha_drift = parse_num("alpha_drift", value)?,
                "alpha_warning" => config.alpha_warning = parse_num("alpha_warning", value)?,
                _ => return Err(unknown("window_size, alpha_drift, alpha_warning")),
            },
            DetectorSpec::Ecdd { config } => match key {
                "lambda" => config.lambda = parse_num("lambda", value)?,
                "arl0" => config.arl0 = parse_num("arl0", value)?,
                "min_instances" => config.min_instances = parse_num("min_instances", value)?,
                "warning_fraction" => {
                    config.warning_fraction = parse_num("warning_fraction", value)?;
                }
                _ => return Err(unknown("lambda, arl0, min_instances, warning_fraction")),
            },
            DetectorSpec::PageHinkley { config } => match key {
                "min_instances" => config.min_instances = parse_num("min_instances", value)?,
                "delta" => config.delta = parse_num("delta", value)?,
                "lambda" => config.lambda = parse_num("lambda", value)?,
                "alpha" => config.alpha = parse_num("alpha", value)?,
                "warning_fraction" => {
                    config.warning_fraction = parse_num("warning_fraction", value)?;
                }
                _ => {
                    return Err(unknown(
                        "min_instances, delta, lambda, alpha, warning_fraction",
                    ))
                }
            },
            DetectorSpec::Kswin { config } => match key {
                "window_size" => config.window_size = parse_num("window_size", value)?,
                "stat_size" => config.stat_size = parse_num("stat_size", value)?,
                "alpha" => config.alpha = parse_num("alpha", value)?,
                _ => return Err(unknown("window_size, stat_size, alpha")),
            },
            DetectorSpec::Cascade { config } => match key {
                "guard" => *config.guard = parse_nested("guard", value)?,
                "confirm" => *config.confirm = parse_nested("confirm", value)?,
                "replay" => config.replay = parse_num("replay", value)?,
                "cooldown" => config.cooldown = parse_num("cooldown", value)?,
                _ => return Err(unknown("guard, confirm, replay, cooldown")),
            },
            DetectorSpec::Ensemble { config } => match key {
                "vote" => config.vote = parse_num("vote", value)?,
                "horizon" => config.horizon = parse_num("horizon", value)?,
                "members" => {
                    let mut members = Vec::new();
                    for part in split_top_level(strip_brackets(value), '|')? {
                        let part = part.trim();
                        if part.is_empty() {
                            return Err(invalid("members", "has an empty member entry"));
                        }
                        members.push(parse_nested("members", part)?);
                    }
                    config.members = members;
                }
                _ => return Err(unknown("vote, horizon, members")),
            },
        }
        Ok(())
    }
}

impl serde::Serialize for DetectorSpec {
    /// Serializes as the canonical spec string (see the module docs): one
    /// grammar for CLIs, config files and snapshot payloads.
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.to_string())
    }
}

impl serde::Deserialize for DetectorSpec {
    fn from_value(value: &serde::Value) -> Result<Self, serde::DeError> {
        match value {
            serde::Value::Str(s) => s
                .parse()
                .map_err(|e: CoreError| serde::DeError::new(e.to_string())),
            other => Err(serde::DeError::new(format!(
                "expected a detector spec string, found {other:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optwin_core::{DriftStatus, MAX_WINDOW};

    /// A raw constructor accepts exactly the configs `validate` accepts, and
    /// panics with `validate`'s error on the rest: here an infinite level or
    /// threshold, a warning fraction above 1, and windows above
    /// `MAX_WINDOW`.
    #[test]
    fn constructors_reject_what_validate_rejects() {
        let too_long = MAX_WINDOW + 1;
        let specs = [
            DetectorSpec::Ddm {
                config: DdmConfig {
                    drift_level: f64::INFINITY,
                    ..DdmConfig::default()
                },
            },
            DetectorSpec::PageHinkley {
                config: PageHinkleyConfig {
                    warning_fraction: 2.0,
                    ..PageHinkleyConfig::default()
                },
            },
            DetectorSpec::PageHinkley {
                config: PageHinkleyConfig {
                    lambda: f64::INFINITY,
                    ..PageHinkleyConfig::default()
                },
            },
            DetectorSpec::Stepd {
                config: StepdConfig {
                    window_size: too_long,
                    ..StepdConfig::default()
                },
            },
            DetectorSpec::Kswin {
                config: KswinConfig {
                    window_size: too_long,
                    ..KswinConfig::default()
                },
            },
        ];
        for spec in specs {
            let expected = spec.validate().expect_err("the config is invalid");
            let panic = std::panic::catch_unwind(|| match spec {
                DetectorSpec::Ddm { config } => drop(Ddm::new(config)),
                DetectorSpec::PageHinkley { config } => drop(PageHinkley::new(config)),
                DetectorSpec::Stepd { config } => drop(Stepd::new(config)),
                DetectorSpec::Kswin { config } => drop(Kswin::new(config)),
                _ => unreachable!("only the kinds listed above"),
            })
            .expect_err("the constructor must reject the config");
            let message = panic.downcast_ref::<String>().expect("a formatted panic");
            assert_eq!(*message, expected.to_string());
        }
    }

    #[test]
    fn defaults_for_every_id() {
        let all = DetectorSpec::all_defaults();
        assert_eq!(all.len(), 8);
        for (spec, id) in all.iter().zip(DETECTOR_IDS) {
            assert_eq!(spec.id(), id);
            spec.validate().expect("defaults are valid");
        }
        assert!(DetectorSpec::default_for("no-such").is_err());
        // Page–Hinkley spellings.
        for alias in ["page_hinkley", "page-hinkley", "PageHinkley", "ph"] {
            assert_eq!(
                DetectorSpec::default_for(alias).unwrap().id(),
                "page_hinkley"
            );
        }
    }

    #[test]
    fn display_from_str_round_trips_defaults() {
        for spec in DetectorSpec::all_defaults() {
            let text = spec.to_string();
            let parsed: DetectorSpec = text.parse().unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(parsed, spec, "{text}");
        }
    }

    #[test]
    fn from_str_overrides_and_defaults() {
        let spec: DetectorSpec = "adwin:delta=0.01,clock=16".parse().unwrap();
        let DetectorSpec::Adwin { config } = &spec else {
            panic!("wrong variant")
        };
        assert_eq!(config.delta, 0.01);
        assert_eq!(config.clock, 16);
        // Unspecified keys keep the defaults.
        assert_eq!(config.min_window_len, AdwinConfig::default().min_window_len);

        let spec: DetectorSpec = "optwin:rho=0.1,w_max=500,direction=both,warning_delta=none"
            .parse()
            .unwrap();
        let DetectorSpec::Optwin { config } = &spec else {
            panic!("wrong variant")
        };
        assert_eq!(config.rho, 0.1);
        assert_eq!(config.w_max, 500);
        assert_eq!(config.direction, DriftDirection::Both);
        assert_eq!(config.warning_delta, None);

        // Whitespace tolerance.
        let spec: DetectorSpec = "  kswin : stat_size = 10 , window_size = 50  "
            .parse()
            .unwrap();
        assert_eq!(spec.id(), "kswin");
    }

    #[test]
    fn from_str_rejects_malformed_input() {
        for bad in [
            "",
            "frobnicate",
            "adwin:",
            "adwin:delta",
            "adwin:delta=abc",
            "adwin:unknown_key=1",
            "adwin:delta=2.0",      // out of range
            "kswin:window_size=10", // <= 2 * stat_size
            "optwin:direction=sideways",
            "ddm:warning_level=3,drift_level=2",
            // Non-finite parameters must be rejected: a NaN/inf threshold
            // builds a detector whose every comparison is silently false.
            "page_hinkley:delta=nan",
            "page_hinkley:lambda=inf",
            "ddm:drift_level=inf",
            "ecdd:arl0=inf",
        ] {
            let err = bad.parse::<DetectorSpec>().unwrap_err();
            assert!(
                matches!(err, CoreError::InvalidConfig { .. }),
                "{bad}: {err}"
            );
        }
        // The unknown-detector error lists the valid ids.
        let err = "frobnicate".parse::<DetectorSpec>().unwrap_err();
        assert!(err.to_string().contains("adwin"), "{err}");
        assert!(err.to_string().contains("page_hinkley"), "{err}");

        // Oversized windows, each of which would abort on its up-front
        // allocation, are rejected naming the field. In the last spec
        // `2 * stat_size` overflows usize.
        assert_rejects_field(&[
            ("optwin:w_max=200000000", "w_max"),
            ("optwin:w_min=200000000,w_max=200000001", "w_min"),
            ("kswin:window_size=100000000000000", "window_size"),
            ("stepd:window_size=100000000000000", "window_size"),
            (
                "kswin:window_size=10,stat_size=9223372036854775808",
                "window_size",
            ),
        ]);
    }

    /// Asserts that every spec fails to parse with `InvalidConfig` naming
    /// the given field.
    fn assert_rejects_field(cases: &[(&str, &str)]) {
        for &(bad, field) in cases {
            match bad.parse::<DetectorSpec>() {
                Err(CoreError::InvalidConfig { field: named, .. }) => {
                    assert_eq!(named, field, "{bad}");
                }
                other => panic!("{bad}: expected InvalidConfig, got {other:?}"),
            }
        }
    }

    #[test]
    fn build_produces_matching_detectors() {
        for spec in DetectorSpec::all_defaults() {
            let mut detector = spec.build().expect("defaults build");
            assert_eq!(detector.name(), spec.detector_name());
            assert_eq!(
                !detector.supports_real_valued_input(),
                spec.binary_only(),
                "{}",
                spec.id()
            );
            assert_eq!(detector.add_element(0.0), DriftStatus::Stable);
            assert_eq!(detector.elements_seen(), 1);
            assert!(detector.snapshot_state().is_some(), "{}", spec.id());
        }
        // build() reports errors instead of panicking.
        let bad = DetectorSpec::Adwin {
            config: AdwinConfig {
                delta: 0.0,
                ..AdwinConfig::default()
            },
        };
        assert!(bad.build().is_err());
    }

    #[test]
    fn built_optwins_share_cut_tables() {
        let spec: DetectorSpec = "optwin:w_max=300".parse().unwrap();
        // Both builds intern the same table in the registry; equality of the
        // underlying Arc is checked through the concrete type.
        let config = match &spec {
            DetectorSpec::Optwin { config } => config.clone(),
            _ => unreachable!(),
        };
        let _ = spec.build().unwrap();
        let a = Optwin::new(config.clone()).unwrap();
        let b = Optwin::new(config).unwrap();
        assert!(std::sync::Arc::ptr_eq(&a.cut_table(), &b.cut_table()));
    }

    #[test]
    fn serde_round_trips() {
        use serde::{Deserialize as _, Serialize as _};
        for spec in DetectorSpec::all_defaults() {
            let value = spec.to_value();
            assert!(matches!(value, serde::Value::Str(_)));
            let back = DetectorSpec::from_value(&value).unwrap();
            assert_eq!(back, spec);
        }
        assert!(DetectorSpec::from_value(&serde::Value::Int(3)).is_err());
        assert!(DetectorSpec::from_value(&serde::Value::Str("bogus".into())).is_err());
    }

    #[test]
    fn grammar_help_lists_every_id() {
        let help = DetectorSpec::grammar_help();
        for id in DETECTOR_IDS {
            assert!(help.contains(id), "missing {id} in:\n{help}");
        }
        for id in ["cascade:", "ensemble:"] {
            assert!(help.contains(id), "missing {id} in:\n{help}");
        }
    }

    #[test]
    fn composite_specs_parse_the_documented_forms() {
        // The two literal forms from the grammar documentation.
        let spec: DetectorSpec = "cascade:guard=ddm,confirm=optwin:delta=0.01"
            .parse()
            .unwrap();
        let DetectorSpec::Cascade { config } = &spec else {
            panic!("wrong variant")
        };
        assert_eq!(config.guard.id(), "ddm");
        let DetectorSpec::Optwin { config: optwin } = config.confirm.as_ref() else {
            panic!("confirm must be optwin")
        };
        assert_eq!(optwin.delta, 0.01);
        // Unspecified composite keys keep the defaults.
        assert_eq!(config.replay, 256);
        assert_eq!(config.cooldown, 256);

        let spec: DetectorSpec = "ensemble:vote=2,members=[ddm|ecdd|ph]".parse().unwrap();
        let DetectorSpec::Ensemble { config } = &spec else {
            panic!("wrong variant")
        };
        assert_eq!(config.vote, 2);
        let ids: Vec<_> = config.members.iter().map(DetectorSpec::id).collect();
        assert_eq!(ids, ["ddm", "ecdd", "page_hinkley"]);

        // Bracketed nested values and nested overrides.
        let spec: DetectorSpec =
            "cascade:guard=[ddm:min_instances=50],confirm=[kswin:stat_size=40,window_size=200],\
             replay=64,cooldown=32"
                .parse()
                .unwrap();
        let DetectorSpec::Cascade { config } = &spec else {
            panic!("wrong variant")
        };
        let DetectorSpec::Ddm { config: ddm } = config.guard.as_ref() else {
            panic!("guard must be ddm")
        };
        assert_eq!(ddm.min_instances, 50);
        assert_eq!((config.replay, config.cooldown), (64, 32));

        // A cascade inside an ensemble (the deepest supported nesting).
        let spec: DetectorSpec = "ensemble:vote=1,members=[cascade:guard=ddm,confirm=optwin|ecdd]"
            .parse()
            .unwrap();
        let DetectorSpec::Ensemble { config } = &spec else {
            panic!("wrong variant")
        };
        assert_eq!(config.members[0].id(), "cascade");
        assert_eq!(config.members[1].id(), "ecdd");
    }

    #[test]
    fn composite_display_round_trips_and_builds() {
        for text in [
            "cascade",
            "ensemble",
            "cascade:guard=ddm,confirm=optwin:delta=0.01",
            "ensemble:vote=2,members=[ddm|ecdd|ph]",
            "ensemble:vote=1,members=[cascade:guard=ddm,confirm=optwin:w_max=500|ecdd]",
        ] {
            let spec: DetectorSpec = text.parse().unwrap_or_else(|e| panic!("{text}: {e}"));
            let echoed: DetectorSpec = spec.to_string().parse().unwrap();
            assert_eq!(echoed, spec, "{text} → {spec}");
            let mut detector = spec.build().unwrap();
            assert_eq!(detector.name(), spec.detector_name());
            assert_eq!(
                !detector.supports_real_valued_input(),
                spec.binary_only(),
                "{text}"
            );
            detector.add_element(0.0);
            assert!(detector.snapshot_state().is_some(), "{text}");
        }
        // Serde uses the same canonical string.
        use serde::{Deserialize as _, Serialize as _};
        let spec: DetectorSpec = "ensemble:vote=2,members=[ddm|ecdd|ph]".parse().unwrap();
        assert_eq!(DetectorSpec::from_value(&spec.to_value()).unwrap(), spec);
    }

    #[test]
    fn composite_specs_reject_malformed_input() {
        for bad in [
            "cascade:guard=frobnicate", // unknown nested id
            "cascade:replay=0",         // out-of-range composite knob
            "cascade:cooldown=0",
            "cascade:wake=now",                   // unknown composite key
            "ensemble:vote=0",                    // vote below 1
            "ensemble:vote=4",                    // vote above member count
            "ensemble:members=[]",                // empty member list
            "ensemble:members=[ddm|]",            // empty member entry
            "ensemble:members=[ddm",              // unbalanced bracket
            "ensemble:members=ddm]",              // unbalanced bracket
            "ensemble:members=[adwin:delta=2.0]", // nested value out of range
        ] {
            let err = bad.parse::<DetectorSpec>().unwrap_err();
            assert!(
                matches!(err, CoreError::InvalidConfig { .. }),
                "{bad}: {err}"
            );
        }
        // The unknown-key error lists the composite keys.
        let err = "cascade:wake=now".parse::<DetectorSpec>().unwrap_err();
        assert!(err.to_string().contains("guard, confirm"), "{err}");
        // An oversized replay ring is rejected before it is allocated.
        assert_rejects_field(&[(
            "cascade:guard=ddm,confirm=adwin,replay=100000000000000",
            "replay",
        )]);
    }

    #[test]
    fn composite_nesting_depth_is_capped_at_two() {
        // Depth 2 (cascade inside ensemble) is the maximum accepted...
        let ok: DetectorSpec = "ensemble:vote=1,members=[cascade:guard=ddm,confirm=optwin|ecdd]"
            .parse()
            .unwrap();
        ok.validate().unwrap();
        // ...depth 3 is rejected by validate() during parsing.
        let bad = "ensemble:vote=1,\
                   members=[cascade:guard=[cascade:guard=ddm,confirm=eddm],confirm=optwin]";
        let err = bad.parse::<DetectorSpec>().unwrap_err();
        assert!(err.to_string().contains("depth"), "{err}");
        // Same via the programmatic API.
        let deep = DetectorSpec::Ensemble {
            config: EnsembleConfig {
                vote: 1,
                members: vec![DetectorSpec::Cascade {
                    config: CascadeConfig {
                        guard: Box::new("cascade:guard=ddm,confirm=eddm".parse().unwrap()),
                        ..CascadeConfig::default()
                    },
                }],
                ..EnsembleConfig::default()
            },
        };
        assert!(deep.validate().is_err());
    }

    mod round_trip_properties {
        use super::*;
        use proptest::prelude::*;

        /// A strategy producing arbitrary *valid* specs across all eight
        /// variants, exercising every parameter field.
        fn arb_spec() -> impl Strategy<Value = DetectorSpec> {
            prop_oneof![
                (0.5f64..0.999).prop_map(|delta| DetectorSpec::Optwin {
                    config: OptwinConfig {
                        delta,
                        rho: 0.1 + (delta - 0.5) * 1.7,
                        w_min: 5 + (delta * 40.0) as usize,
                        w_max: 100 + (delta * 10_000.0) as usize,
                        eta: 1e-6 + delta * 1e-4,
                        direction: if delta > 0.75 {
                            DriftDirection::Both
                        } else {
                            DriftDirection::DegradationOnly
                        },
                        warning_delta: if delta > 0.6 { Some(delta * 0.9) } else { None },
                    },
                }),
                (1e-4f64..0.5).prop_map(|delta| DetectorSpec::Adwin {
                    config: AdwinConfig {
                        delta,
                        clock: 1 + (delta * 100.0) as u32,
                        min_window_len: 4 + (delta * 50.0) as usize,
                        min_sub_window_len: 1 + (delta * 20.0) as usize,
                    },
                }),
                (0.1f64..3.0).prop_map(|w| DetectorSpec::Ddm {
                    config: DdmConfig {
                        min_instances: 10 + (w * 40.0) as u64,
                        warning_level: w,
                        drift_level: w + 0.5,
                    },
                }),
                (0.01f64..0.9).prop_map(|beta| DetectorSpec::Eddm {
                    config: EddmConfig {
                        alpha: beta + 0.05,
                        beta,
                        min_errors: 5 + (beta * 100.0) as u64,
                    },
                }),
                (1e-4f64..0.04).prop_map(|a| DetectorSpec::Stepd {
                    config: StepdConfig {
                        window_size: 10 + (a * 10_000.0) as usize,
                        alpha_drift: a,
                        alpha_warning: a * 10.0,
                    },
                }),
                (0.05f64..1.0).prop_map(|lambda| DetectorSpec::Ecdd {
                    config: EcddConfig {
                        lambda,
                        arl0: 2.0 + lambda * 1_000.0,
                        min_instances: (lambda * 100.0) as u64,
                        warning_fraction: lambda,
                    },
                }),
                (1e-3f64..0.5).prop_map(|delta| DetectorSpec::PageHinkley {
                    config: PageHinkleyConfig {
                        min_instances: 5 + (delta * 100.0) as u64,
                        delta,
                        lambda: 1.0 + delta * 100.0,
                        alpha: 0.5 + delta,
                        warning_fraction: delta + 0.25,
                    },
                }),
                (1e-5f64..0.01).prop_map(|alpha| DetectorSpec::Kswin {
                    config: KswinConfig {
                        window_size: 101 + (alpha * 1e5) as usize,
                        stat_size: 10 + (alpha * 1e4) as usize,
                        alpha,
                    },
                }),
                // Composites: the shim has no tuple strategies, so one float
                // encodes the guard/confirmer (or member) choices.
                (0.0f64..1.0).prop_map(|x| {
                    let n = (x * 64.0) as usize;
                    DetectorSpec::Cascade {
                        config: CascadeConfig {
                            guard: Box::new(
                                DetectorSpec::default_for(DETECTOR_IDS[n % 8]).unwrap(),
                            ),
                            confirm: Box::new(
                                DetectorSpec::default_for(DETECTOR_IDS[(n / 8) % 8]).unwrap(),
                            ),
                            replay: 1 + (x * 1_000.0) as usize,
                            cooldown: 1 + (x * 500.0) as u32,
                        },
                    }
                }),
                (0.0f64..1.0).prop_map(|x| {
                    let n = (x * 512.0) as usize;
                    let mut members = vec![
                        DetectorSpec::default_for(DETECTOR_IDS[n % 8]).unwrap(),
                        DetectorSpec::default_for(DETECTOR_IDS[(n / 8) % 8]).unwrap(),
                    ];
                    if n.is_multiple_of(2) {
                        // Exercise a cascade nested inside the ensemble.
                        members.push(DetectorSpec::Cascade {
                            config: CascadeConfig {
                                guard: Box::new(
                                    DetectorSpec::default_for(DETECTOR_IDS[(n / 3) % 8]).unwrap(),
                                ),
                                replay: 1 + n,
                                ..CascadeConfig::default()
                            },
                        });
                    }
                    DetectorSpec::Ensemble {
                        config: EnsembleConfig {
                            vote: 1 + (n / 64) % 2,
                            members,
                            horizon: 1 + (n % 300) as u32,
                        },
                    }
                }),
            ]
        }

        proptest! {
            /// `Display` → `FromStr` and serde both reproduce the exact spec
            /// for every variant with arbitrary in-range parameters.
            #[test]
            fn display_and_serde_round_trip(spec in arb_spec()) {
                prop_assert!(spec.validate().is_ok(), "{spec}");
                let parsed: DetectorSpec = spec
                    .to_string()
                    .parse()
                    .map_err(|e: CoreError| TestCaseError::fail(format!("{spec}: {e}")))?;
                prop_assert_eq!(&parsed, &spec);

                use serde::{Deserialize as _, Serialize as _};
                let back = DetectorSpec::from_value(&spec.to_value())
                    .map_err(|e| TestCaseError::fail(e.to_string()))?;
                prop_assert_eq!(&back, &spec);
            }
        }
    }
}
