//! Minimal dependency-free argument parsing: a subcommand, then the
//! `--flag value` pairs and bare `--switch`es it declares.

use crate::commands::Command;
use std::collections::BTreeMap;

/// One flag a subcommand reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Flag {
    /// `--name value`; given twice, the last value wins (with a warning).
    Value(&'static str),
    /// `--name value`, meant to be given any number of times.
    Repeated(&'static str),
    /// A bare `--name`.
    Switch(&'static str),
}

impl Flag {
    /// The flag's name, without the dashes.
    pub(crate) fn name(self) -> &'static str {
        let (Self::Value(name) | Self::Repeated(name) | Self::Switch(name)) = self;
        name
    }
}

/// Parsed command line: a subcommand plus flags.
#[derive(Debug)]
pub(crate) struct Args {
    /// The subcommand (first token).
    pub command: &'static Command,
    /// Each flag given, with its values in order (`""` for a switch).
    flags: BTreeMap<String, Vec<String>>,
}

impl Args {
    /// Parses raw arguments (excluding the program name).
    ///
    /// Grammar: `<command> (--key value | --switch)*`, where `<command>`
    /// is one of `commands` and every `--key` is one of the flags it
    /// declares. Any other command or flag, and a value flag followed by
    /// another `--…` token or end of input, is an error naming it.
    pub fn parse<I: IntoIterator<Item = String>>(
        raw: I,
        commands: &'static [Command],
    ) -> Result<Self, String> {
        let mut it = raw.into_iter().peekable();
        let name = it.next().ok_or("no subcommand given (try `hera help`)")?;
        let command = commands.iter().find(|c| c.name == name);
        let command =
            command.ok_or_else(|| format!("unknown subcommand {name:?} (try `hera-cli help`)"))?;
        let mut out = Args {
            command,
            flags: BTreeMap::new(),
        };
        while let Some(tok) = it.next() {
            let Some(key) = tok.strip_prefix("--") else {
                return Err(format!("unexpected positional argument {tok:?}"));
            };
            if key.is_empty() {
                return Err("empty flag name".into());
            }
            let value = match out.declared(key) {
                None => return Err(format!("{} takes no flag --{key}", command.name)),
                Some(Flag::Switch(_)) => String::new(),
                Some(_) => it
                    .next_if(|v| !v.starts_with("--"))
                    .ok_or_else(|| format!("--{key} expects a value"))?,
            };
            out.flags.entry(key.to_owned()).or_default().push(value);
        }
        Ok(out)
    }

    /// The command's declaration of flag `key`, if it has one.
    fn declared(&self, key: &str) -> Option<Flag> {
        let mut flags = self.command.flags.iter().copied().flatten();
        flags.find(|f| f.name() == key).copied()
    }

    /// Checks that the command declares the flag it reads.
    fn reads(&self, key: &str) {
        debug_assert!(
            self.declared(key).is_some(),
            "{} reads --{key} but does not declare it",
            self.command.name
        );
    }

    /// String flag (last occurrence wins when repeated).
    pub fn get(&self, key: &str) -> Option<&str> {
        self.reads(key);
        self.flags
            .get(key)
            .and_then(|v| v.last())
            .map(String::as_str)
    }

    /// All occurrences of a repeatable flag, in order.
    pub(crate) fn get_all(&self, key: &str) -> &[String] {
        self.reads(key);
        self.flags.get(key).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Required string flag.
    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key)
            .ok_or_else(|| format!("missing required --{key}"))
    }

    /// Float flag with default.
    pub(crate) fn get_f64(&self, key: &str, default: f64) -> Result<f64, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key} expects a number, got {v:?}")),
        }
    }

    /// Integer flag with default.
    pub(crate) fn get_u64(&self, key: &str, default: u64) -> Result<u64, String> {
        Ok(self.get_opt_u64(key)?.unwrap_or(default))
    }

    /// Integer flag, if given.
    pub(crate) fn get_opt_u64(&self, key: &str) -> Result<Option<u64>, String> {
        self.get(key)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--{key} expects an integer, got {v:?}"))
            })
            .transpose()
    }

    /// Boolean switch.
    pub fn has(&self, key: &str) -> bool {
        self.reads(key);
        self.flags.contains_key(key)
    }

    /// Names given more than once that are *not* declared
    /// [`Flag::Repeated`] — for value flags the last occurrence silently
    /// wins ([`Args::get`]), so the caller should warn the user. Covers
    /// both value flags and switches; sorted.
    pub(crate) fn duplicated(&self) -> Vec<String> {
        let repeatable = |k: &str| matches!(self.declared(k), Some(Flag::Repeated(_)));
        self.flags
            .iter()
            .filter(|(k, v)| v.len() > 1 && !repeatable(k))
            .map(|(k, _)| k.clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::COMMANDS;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from), COMMANDS)
    }

    #[test]
    fn command_and_flags() {
        let a = parse("resolve --input x.json --delta 0.6 --eval").unwrap();
        assert_eq!(a.command.name, "resolve");
        assert_eq!(a.get("input"), Some("x.json"));
        assert_eq!(a.get_f64("delta", 0.5).unwrap(), 0.6);
        assert_eq!(a.get_f64("xi", 0.5).unwrap(), 0.5);
        assert!(a.has("eval"));
        assert!(!a.has("streaming"));
    }

    /// Every flag `commands.rs` reads is declared by some subcommand,
    /// as a switch where it is read with `has` and as a value where it
    /// is read with `get…` or `require`; every declared flag is read.
    /// (Which subcommand reads which flag is checked as it is read:
    /// [`Args::get`] and [`Args::has`] assert the declaration.)
    #[test]
    fn switches_are_the_names_commands_reads() {
        let source = include_str!("commands.rs");
        let read = |calls: &[&str]| {
            let mut names: Vec<&str> = calls
                .iter()
                .flat_map(|call| source.split(call).skip(1))
                .map(|s| &s[..s.find('"').unwrap()])
                .collect();
            names.sort_unstable();
            names.dedup();
            names
        };
        let declared = |switch: bool| {
            let mut names: Vec<&str> = COMMANDS
                .iter()
                .flat_map(|c| c.flags.iter().copied().flatten())
                .filter(|f| matches!(f, Flag::Switch(_)) == switch)
                .map(|f| f.name())
                .collect();
            names.sort_unstable();
            names.dedup();
            names
        };
        let switches = read(&["args.has(\""]);
        let values = read(&[
            "args.get(\"",
            "args.get_all(\"",
            "args.get_f64(\"",
            "args.get_opt_u64(\"",
            "args.get_u64(\"",
            "args.require(\"",
            "threshold(args, \"",
        ]);
        assert!(switches.contains(&"eval") && values.contains(&"checkpoint-every"));
        assert_eq!(declared(true), switches);
        assert_eq!(declared(false), values);
    }

    #[test]
    fn unknown_flag_is_error_naming_it() {
        for (line, flag) in [
            (
                "resolve --input x.json --checkpoint-evry 100",
                "--checkpoint-evry",
            ),
            ("generate --preset dm1 --eval", "--eval"),
            (
                "checkpoint --input x.json --out y.hera --streaming",
                "--streaming",
            ),
            ("demo --seed 3", "--seed"),
        ] {
            let err = parse(line).unwrap_err();
            assert!(err.contains(flag), "{line}: {err}");
        }
        let err = parse("resolv --input x.json").unwrap_err();
        assert!(err.contains("unknown subcommand"), "{err}");
    }

    #[test]
    fn flag_without_a_value_is_error_naming_it() {
        for (line, flag) in [
            ("resolve --input x.json --delta", "--delta"),
            ("resolve --input x.json --threads --eval", "--threads"),
            ("resolve --input x.json --evl", "--evl"),
        ] {
            let err = parse(line).unwrap_err();
            assert!(err.contains(flag), "{line}: {err}");
        }
    }

    #[test]
    fn token_after_a_switch_is_positional() {
        let err = parse("resolve --eval 0.6 --input x.json").unwrap_err();
        assert!(err.contains("positional") && err.contains("0.6"), "{err}");
    }

    #[test]
    fn missing_command_is_error() {
        assert!(parse("").is_err());
        assert!(parse("--input x").is_err());
    }

    #[test]
    fn positional_after_command_is_error() {
        assert!(parse("resolve stray").is_err());
    }

    #[test]
    fn require_and_type_errors() {
        let a = parse("generate --seed nope").unwrap();
        assert!(a.require("preset").is_err());
        assert!(a.get_u64("seed", 1).is_err());
    }

    #[test]
    fn trailing_switch() {
        let a = parse("trace-check --input t.jsonl --require-monotonic-rounds").unwrap();
        assert!(a.has("require-monotonic-rounds"));
    }

    #[test]
    fn repeated_flags_collect_in_order() {
        let a = parse("import --source a=1.csv --source b=2.csv --out x").unwrap();
        assert_eq!(
            a.get_all("source"),
            &["a=1.csv".to_string(), "b=2.csv".to_string()]
        );
        // get() yields the last occurrence.
        assert_eq!(a.get("source"), Some("b=2.csv"));
        assert!(a.get_all("entity-column").is_empty());
    }

    #[test]
    fn repeated_value_flag_is_last_wins_and_reported() {
        let a = parse("resolve --threads 2 --threads 4").unwrap();
        // Defined behavior: the last occurrence wins…
        assert_eq!(a.get("threads"), Some("4"));
        assert_eq!(a.get_u64("threads", 0).unwrap(), 4);
        // …and the duplicate is reported.
        assert_eq!(a.duplicated(), vec!["threads".to_string()]);
    }

    #[test]
    fn repeated_switch_is_reported() {
        let a = parse("resolve --eval --eval --streaming").unwrap();
        assert!(a.has("eval"));
        assert_eq!(a.duplicated(), vec!["eval".to_string()]);
    }

    #[test]
    fn declared_repeatable_flags_are_not_reported() {
        let a = parse("import --source a=1.csv --source b=2.csv --out x").unwrap();
        assert!(a.duplicated().is_empty());
        let a = parse("client --connect a:1 --line x --line y").unwrap();
        assert!(a.duplicated().is_empty());
        // A flag not declared repeatable warns.
        let a = parse("import --source a=1.csv --out x --out y").unwrap();
        assert_eq!(a.duplicated(), vec!["out".to_string()]);
    }

    #[test]
    fn unique_flags_report_no_duplicates() {
        let a = parse("resolve --input x.json --delta 0.6 --eval").unwrap();
        assert!(a.duplicated().is_empty());
    }

    #[test]
    fn empty_flag_name_is_error() {
        let err = parse("resolve -- value").unwrap_err();
        assert!(err.contains("empty flag name"), "{err}");
        let err = parse("resolve --input x.json --").unwrap_err();
        assert!(err.contains("empty flag name"), "{err}");
    }

    #[test]
    fn positional_argument_error_names_the_token() {
        let err = parse("resolve --input x.json stray extra").unwrap_err();
        // `--input` swallows `x.json`; `stray` is the offender.
        assert!(err.contains("stray"), "{err}");
    }
}
