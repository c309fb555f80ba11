//! Minimal dependency-free argument parsing: `--flag value` pairs and
//! declared bare `--switch`es after a subcommand.

use std::collections::BTreeMap;

/// Parsed command line: a subcommand plus flags.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// The subcommand (first non-flag token).
    pub command: String,
    flags: BTreeMap<String, Vec<String>>,
    switches: Vec<String>,
}

impl Args {
    /// Parses raw arguments (excluding the program name).
    ///
    /// Grammar: `<command> (--key value | --switch)*`, where the switches
    /// are exactly the names in `switches`. Any other `--key` followed by
    /// another `--…` token or end of input is an error naming it.
    pub fn parse<I: IntoIterator<Item = String>>(
        raw: I,
        switches: &[&str],
    ) -> Result<Self, String> {
        let mut out = Args::default();
        let mut it = raw.into_iter().peekable();
        match it.next() {
            Some(c) if !c.starts_with("--") => out.command = c,
            Some(c) => return Err(format!("expected a subcommand, got flag {c}")),
            None => return Err("no subcommand given (try `hera help`)".into()),
        }
        while let Some(tok) = it.next() {
            let Some(key) = tok.strip_prefix("--") else {
                return Err(format!("unexpected positional argument {tok:?}"));
            };
            if key.is_empty() {
                return Err("empty flag name".into());
            }
            if switches.contains(&key) {
                out.switches.push(key.to_owned());
                continue;
            }
            match it.next_if(|v| !v.starts_with("--")) {
                Some(v) => out.flags.entry(key.to_owned()).or_default().push(v),
                None => return Err(format!("--{key} expects a value")),
            }
        }
        Ok(out)
    }

    /// String flag (last occurrence wins when repeated).
    pub fn get(&self, key: &str) -> Option<&str> {
        self.flags
            .get(key)
            .and_then(|v| v.last())
            .map(String::as_str)
    }

    /// All occurrences of a repeatable flag, in order.
    pub fn get_all(&self, key: &str) -> &[String] {
        self.flags.get(key).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Required string flag.
    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key)
            .ok_or_else(|| format!("missing required --{key}"))
    }

    /// Float flag with default.
    pub fn get_f64(&self, key: &str, default: f64) -> Result<f64, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key} expects a number, got {v:?}")),
        }
    }

    /// Integer flag with default.
    pub fn get_u64(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key} expects an integer, got {v:?}")),
        }
    }

    /// Boolean switch.
    pub fn has(&self, key: &str) -> bool {
        self.switches.iter().any(|s| s == key)
    }

    /// Names given more than once that are *not* declared repeatable —
    /// for value flags the last occurrence silently wins ([`Args::get`]),
    /// so the caller should warn the user. Covers both value flags and
    /// switches; sorted, deduplicated.
    pub fn duplicated(&self, repeatable: &[&str]) -> Vec<String> {
        let mut dup: Vec<String> = self
            .flags
            .iter()
            .filter(|(k, v)| v.len() > 1 && !repeatable.contains(&k.as_str()))
            .map(|(k, _)| k.clone())
            .collect();
        let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
        for s in &self.switches {
            *counts.entry(s.as_str()).or_insert(0) += 1;
        }
        dup.extend(
            counts
                .into_iter()
                .filter(|&(k, n)| n > 1 && !repeatable.contains(&k))
                .map(|(k, _)| k.to_owned()),
        );
        dup.sort_unstable();
        dup.dedup();
        dup
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::SWITCHES;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from), SWITCHES)
    }

    #[test]
    fn command_and_flags() {
        let a = parse("resolve --input x.json --delta 0.6 --eval").unwrap();
        assert_eq!(a.command, "resolve");
        assert_eq!(a.get("input"), Some("x.json"));
        assert_eq!(a.get_f64("delta", 0.5).unwrap(), 0.6);
        assert_eq!(a.get_f64("xi", 0.5).unwrap(), 0.5);
        assert!(a.has("eval"));
        assert!(!a.has("streaming"));
    }

    #[test]
    fn switches_are_the_names_commands_reads() {
        let mut read: Vec<&str> = include_str!("commands.rs")
            .split("args.has(\"")
            .skip(1)
            .map(|s| &s[..s.find('"').unwrap()])
            .collect();
        read.sort_unstable();
        read.dedup();
        assert_eq!(read, SWITCHES);
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
        assert!(a.get_all("missing").is_empty());
    }

    #[test]
    fn repeated_value_flag_is_last_wins_and_reported() {
        let a = parse("resolve --threads 2 --threads 4").unwrap();
        // Defined behavior: the last occurrence wins…
        assert_eq!(a.get("threads"), Some("4"));
        assert_eq!(a.get_u64("threads", 0).unwrap(), 4);
        // …and the duplicate is reported unless declared repeatable.
        assert_eq!(a.duplicated(&[]), vec!["threads".to_string()]);
        assert!(a.duplicated(&["threads"]).is_empty());
    }

    #[test]
    fn repeated_switch_is_reported() {
        let a = parse("resolve --eval --eval --streaming").unwrap();
        assert!(a.has("eval"));
        assert_eq!(a.duplicated(&[]), vec!["eval".to_string()]);
    }

    #[test]
    fn declared_repeatable_flags_are_not_reported() {
        let a = parse("import --source a=1.csv --source b=2.csv --out x").unwrap();
        assert!(a.duplicated(&["source"]).is_empty());
        // Without the declaration the same line would warn.
        assert_eq!(a.duplicated(&[]), vec!["source".to_string()]);
    }

    #[test]
    fn unique_flags_report_no_duplicates() {
        let a = parse("resolve --input x.json --delta 0.6 --eval").unwrap();
        assert!(a.duplicated(&[]).is_empty());
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
