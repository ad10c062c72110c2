//! Minimal argument parsing (no external dependencies): positional
//! arguments plus `--flag value` options, with typed accessors. What a
//! subcommand accepts is declared once, as the [`Opt`] rows of its
//! command-table entry (`commands::COMMANDS`); parsing, unknown-option
//! rejection, ownership checks and artefact stems all read those rows.

use std::collections::BTreeMap;

/// One option a subcommand accepts.
#[derive(Debug, Clone, Copy)]
pub struct Opt {
    /// The name, without the dashes.
    pub name: &'static str,
    /// A boolean flag: takes no value (`--stats`).
    pub flag: bool,
    /// Part of the artefact stem: it can change an artefact's bytes.
    pub stem: bool,
    /// The selecting option (`family`, `process`, `model`) and the
    /// values of it this option belongs to; `None` applies always.
    pub owner: Option<(&'static str, &'static [&'static str])>,
}

impl Opt {
    /// A valued option that applies always and stays out of the stem.
    pub const fn new(name: &'static str) -> Opt {
        Opt { name, flag: false, stem: false, owner: None }
    }

    /// Makes it a boolean flag.
    pub const fn flag(self) -> Opt {
        Opt { flag: true, ..self }
    }

    /// Records it in the artefact stem.
    pub const fn stem(self) -> Opt {
        Opt { stem: true, ..self }
    }

    /// Restricts it to the given values of `--selector`.
    pub const fn of(self, selector: &'static str, values: &'static [&'static str]) -> Opt {
        Opt { owner: Some((selector, values)), ..self }
    }
}

/// File-name slug of a topology spec or an option value (paths lose
/// their separators).
pub fn slug(text: &str) -> String {
    text.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '-' }).collect()
}

/// A subcommand's options: groups of rows, so subcommands can share a
/// group (the embedding-search knobs, the demand knobs, …).
pub type OptTable = &'static [&'static [Opt]];

/// Parsed command line: positionals in order, options by name (a
/// flag is an option without values).
#[derive(Debug, Clone, Default)]
pub struct Args {
    table: OptTable,
    positional: Vec<String>,
    options: BTreeMap<String, Vec<String>>,
}

/// Errors from argument parsing or typed access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// An option was given without a value (`--seed` at end of line).
    MissingValue(String),
    /// A required positional was absent.
    MissingPositional(&'static str),
    /// A value failed to parse.
    BadValue {
        /// Option or positional name.
        name: String,
        /// The offending text.
        value: String,
        /// What was expected.
        expected: &'static str,
    },
    /// An option the subcommand does not recognise (typos and
    /// misplaced flags must not be silently ignored).
    UnknownOption(String),
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgError::MissingValue(opt) => write!(f, "option --{opt} needs a value"),
            ArgError::MissingPositional(name) => write!(f, "missing required argument <{name}>"),
            ArgError::BadValue { name, value, expected } => {
                write!(f, "bad value {value:?} for {name}: expected {expected}")
            }
            ArgError::UnknownOption(opt) => {
                write!(f, "unknown option --{opt} for this subcommand")
            }
        }
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parses raw arguments (excluding the program and subcommand
    /// names) against a subcommand's option `table`, which says which
    /// names are flags.
    pub fn parse(raw: impl IntoIterator<Item = String>, table: OptTable) -> Result<Args, ArgError> {
        let mut out = Args { table, ..Args::default() };
        let mut iter = raw.into_iter();
        while let Some(tok) = iter.next() {
            if let Some(name) = tok.strip_prefix("--") {
                let is_flag = out.table().any(|opt| opt.flag && opt.name == name);
                let values = out.options.entry(name.to_string()).or_default();
                if !is_flag {
                    values.push(iter.next().ok_or_else(|| ArgError::MissingValue(name.into()))?);
                }
            } else {
                out.positional.push(tok);
            }
        }
        Ok(out)
    }

    /// The option rows of the subcommand, in table order.
    pub fn table(&self) -> impl Iterator<Item = &'static Opt> {
        self.table.iter().flat_map(|group| group.iter())
    }

    /// `true` if the boolean flag `--name` was given.
    pub fn flag(&self, name: &str) -> bool {
        self.options.contains_key(name)
    }

    /// Errors on any option or flag outside the table — a typo'd
    /// (`--flow` for `--flows`) or misplaced (`--model` under
    /// `pr sweep`) option silently ignored is how benchmark numbers go
    /// wrong.
    pub fn reject_unknown(&self) -> Result<(), ArgError> {
        match self.options.keys().find(|name| !self.table().any(|opt| opt.name == **name)) {
            Some(name) => Err(ArgError::UnknownOption(name.clone())),
            None => Ok(()),
        }
    }

    /// Errors on a given option that belongs to other values of
    /// `--selector` than any of the `selected` ones — same contract as
    /// [`Args::reject_unknown`]: a knob that tunes nothing must not be
    /// silently ignored.
    pub fn check_owned(&self, selector: &str, selected: &[&str]) -> Result<(), String> {
        for opt in self.table() {
            let Some((of, owners)) = opt.owner else { continue };
            if of == selector
                && self.option(opt.name).is_some()
                && !selected.iter().any(|s| owners.contains(s))
            {
                return Err(format!(
                    "option --{} does not apply to --{selector} {} (it belongs to --{selector} {})",
                    opt.name,
                    selected.join("+"),
                    owners.join("|")
                ));
            }
        }
        Ok(())
    }

    /// The artefact-stem suffix: each stem option that was explicitly
    /// given, in table order (`_k3_samples50`), so differently
    /// parameterised runs land in different files instead of silently
    /// clobbering each other.
    pub fn stem(&self) -> String {
        let mut out = String::new();
        for opt in self.table().filter(|opt| opt.stem) {
            if let Some(value) = self.option(opt.name) {
                out.push('_');
                out.extend(opt.name.chars().filter(char::is_ascii_alphanumeric));
                out.push_str(&slug(value));
            }
        }
        out
    }

    /// The `i`-th positional argument, required.
    pub fn positional(&self, i: usize, name: &'static str) -> Result<&str, ArgError> {
        self.positional.get(i).map(String::as_str).ok_or(ArgError::MissingPositional(name))
    }

    /// Last occurrence of `--name`, if present.
    pub fn option(&self, name: &str) -> Option<&str> {
        self.options.get(name).and_then(|v| v.last()).map(String::as_str)
    }

    /// Every occurrence of `--name` (for repeatable options like
    /// `--fail`).
    pub fn options(&self, name: &str) -> &[String] {
        self.options.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Typed option, `None` when absent.
    pub fn optional<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, ArgError> {
        let parse = |text: &str| {
            text.parse().map_err(|_| ArgError::BadValue {
                name: format!("--{name}"),
                value: text.to_string(),
                expected: std::any::type_name::<T>(),
            })
        };
        self.option(name).map(parse).transpose()
    }

    /// Typed option with a default.
    pub fn option_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, ArgError> {
        Ok(self.optional(name)?.unwrap_or(default))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sweep-shaped table: two flags, a selector with owned knobs,
    /// stem options in two groups.
    const TABLE: OptTable = &[
        &[
            Opt::new("family"),
            Opt::new("k").stem().of("family", &["multi", "exhaustive"]),
            Opt::new("holddown-ms").stem().of("family", &["flap"]),
            Opt::new("fail").stem(),
            Opt::new("mode"),
        ],
        &[Opt::new("seed").stem(), Opt::new("iterations").stem()],
        &[Opt::new("threads"), Opt::new("format"), Opt::new("stats").flag()],
        &[Opt::new("resume").flag()],
    ];

    fn args(s: &str) -> Result<Args, ArgError> {
        Args::parse(s.split_whitespace().map(String::from), TABLE)
    }

    #[test]
    fn positionals_and_options() {
        let a = args("abilene A F --seed 42 --fail A-B --fail C-D").unwrap();
        assert_eq!(a.positional(0, "topology").unwrap(), "abilene");
        assert_eq!(a.positional(2, "dst").unwrap(), "F");
        assert_eq!(a.option("seed"), Some("42"));
        assert_eq!(a.options("fail"), &["A-B".to_string(), "C-D".to_string()]);
        assert_eq!(a.option_or("seed", 0u64).unwrap(), 42);
        assert_eq!(a.option_or("iterations", 7usize).unwrap(), 7);
    }

    #[test]
    fn missing_value_is_an_error() {
        assert_eq!(args("x --seed").unwrap_err(), ArgError::MissingValue("seed".into()));
    }

    #[test]
    fn missing_positional_is_an_error() {
        let a = args("").unwrap();
        assert_eq!(a.positional(0, "topology"), Err(ArgError::MissingPositional("topology")));
    }

    #[test]
    fn bad_typed_value() {
        let a = args("--seed banana").unwrap();
        assert!(matches!(a.option_or("seed", 0u64), Err(ArgError::BadValue { .. })));
    }

    #[test]
    fn last_option_wins() {
        let a = args("--mode basic --mode dd").unwrap();
        assert_eq!(a.option("mode"), Some("dd"));
    }

    #[test]
    fn unknown_options_are_rejected_not_ignored() {
        args("geant --family single --threads 2 --stats").unwrap().reject_unknown().unwrap();
        // The flags are the table's: where `--stats` is declared valued
        // it wants a value, and a flag the table lacks is no flag.
        const VALUED: OptTable = &[&[Opt::new("threads"), Opt::new("stats")]];
        const LATER_GROUP: OptTable = &[&[Opt::new("threads")], &[Opt::new("stats").flag()]];
        let raw = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        assert_eq!(
            Args::parse(raw("geant --threads 2 --stats"), VALUED).unwrap_err(),
            ArgError::MissingValue("stats".into())
        );
        assert_eq!(
            Args::parse(raw("geant --stats --resume"), LATER_GROUP).unwrap_err(),
            ArgError::MissingValue("resume".into())
        );
        let a = Args::parse(raw("geant --stats --resume 1"), LATER_GROUP).unwrap();
        assert_eq!(a.reject_unknown(), Err(ArgError::UnknownOption("resume".into())));
        let typo = args("geant --flow 500").unwrap();
        let err = typo.reject_unknown().unwrap_err();
        assert_eq!(err, ArgError::UnknownOption("flow".into()));
        assert!(err.to_string().contains("unknown option --flow"));
    }

    #[test]
    fn boolean_flags_take_no_value() {
        let a = args("geant --family single --stats --threads 2").unwrap();
        assert!(a.flag("stats"));
        assert_eq!(a.option("threads"), Some("2"), "--stats must not swallow --threads");
        assert!(!args("geant").unwrap().flag("stats"));
        // A flag declared in a later group of the table parses alike.
        let a = args("geant --resume --format csv").unwrap();
        assert!(a.flag("resume"));
        assert_eq!(a.option("format"), Some("csv"), "--resume must not swallow --format");
        a.reject_unknown().unwrap();
    }

    #[test]
    fn owned_options_are_rejected_under_other_selections() {
        let a = args("geant --family single --k 2").unwrap();
        let err = a.check_owned("family", &["single"]).unwrap_err();
        assert_eq!(
            err,
            "option --k does not apply to --family single (it belongs to --family multi|exhaustive)"
        );
        a.check_owned("family", &["multi"]).unwrap();
        a.check_owned("process", &["gilbert"]).unwrap();
        // Any one of several stacked selections may own the option.
        a.check_owned("family", &["single", "exhaustive"]).unwrap();
        let err = a.check_owned("family", &["single", "flap"]).unwrap_err();
        assert!(err.contains("--family single+flap"), "{err}");
    }

    #[test]
    fn stem_lists_given_stem_options_in_table_order() {
        let a = args("geant --iterations 10 --threads 4 --seed 7 --holddown-ms 50 --k 3").unwrap();
        assert_eq!(a.stem(), "_k3_holddownms50_seed7_iterations10");
        assert_eq!(args("geant --fail A-B --fail C.D --format csv").unwrap().stem(), "_failC-D");
        assert_eq!(args("geant --threads 2 --stats").unwrap().stem(), "");
    }
}
