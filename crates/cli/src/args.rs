//! Hand-rolled argument parsing (no external dependency): `--key value`
//! options and `--flag` booleans after a subcommand word.

use std::collections::BTreeMap;

use crate::{CliError, Result};

/// The parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedArgs {
    /// Which subcommand.
    pub command: Command,
    /// `--key value` options.
    options: BTreeMap<String, String>,
    /// bare `--flag`s.
    flags: Vec<String>,
}

/// The `nidc` subcommands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// Generate a synthetic corpus.
    Generate,
    /// Print per-window statistics.
    Stats,
    /// Cluster a time range.
    Cluster,
    /// Replay the stream incrementally.
    Stream,
    /// Evaluate a window against labels.
    Eval,
    /// Render per-lineage timelines from an event stream.
    Inspect,
}

impl Command {
    fn parse(word: &str) -> Option<Command> {
        match word {
            "generate" => Some(Command::Generate),
            "stats" => Some(Command::Stats),
            "cluster" => Some(Command::Cluster),
            "stream" => Some(Command::Stream),
            "eval" => Some(Command::Eval),
            "inspect" => Some(Command::Inspect),
            _ => None,
        }
    }

    /// The options (`--key value` and `--flag`) this command reads, beyond
    /// the [`COMMON_OPTIONS`] every command accepts.
    fn options(self) -> &'static [&'static str] {
        match self {
            Command::Generate => &["out", "scale", "seed"],
            Command::Stats => &["input"],
            Command::Cluster => &[
                "input",
                "k",
                "beta",
                "gamma",
                "from",
                "to",
                "top",
                "seed",
                "json",
                "threads",
                "metrics",
                "metrics-format",
                "events",
                "trace",
                "trace-summary",
            ],
            Command::Stream => &[
                "input",
                "k",
                "beta",
                "gamma",
                "every",
                "seed",
                "state",
                "shards",
                "stitch",
                "stitch-threshold",
                "threads",
                "metrics",
                "metrics-format",
                "events",
                "trace",
                "trace-summary",
            ],
            Command::Eval => &[
                "input",
                "window",
                "k",
                "beta",
                "gamma",
                "seed",
                "threads",
                "shards",
                "stitch",
                "stitch-threshold",
                "metrics",
                "metrics-format",
                "trace",
                "trace-summary",
            ],
            Command::Inspect => &["events", "top"],
        }
    }
}

/// Options every command accepts.
const COMMON_OPTIONS: &[&str] = &["help", "log-level", "alloc-stats"];

/// Options that never take a value.
const BOOLEAN_FLAGS: &[&str] = &["json", "help", "trace-summary", "alloc-stats"];

impl ParsedArgs {
    /// Parses `args` (without the program name).
    pub fn parse<I, S>(args: I) -> Result<ParsedArgs>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut iter = args.into_iter().map(Into::into).peekable();
        let word = iter
            .next()
            .ok_or_else(|| CliError::Usage("missing command".into()))?;
        let command = Command::parse(&word)
            .ok_or_else(|| CliError::Usage(format!("unknown command '{word}'")))?;
        let mut options = BTreeMap::new();
        let mut flags = Vec::new();
        while let Some(tok) = iter.next() {
            let Some(key) = tok.strip_prefix("--") else {
                return Err(CliError::Usage(format!("unexpected argument '{tok}'")));
            };
            if !COMMON_OPTIONS.contains(&key) && !command.options().contains(&key) {
                return Err(CliError::Usage(format!(
                    "unknown option '--{key}' for '{word}'"
                )));
            }
            if BOOLEAN_FLAGS.contains(&key) {
                flags.push(key.to_owned());
                continue;
            }
            let value = iter
                .next()
                .ok_or_else(|| CliError::Usage(format!("--{key} requires a value")))?;
            options.insert(key.to_owned(), value);
        }
        Ok(ParsedArgs {
            command,
            options,
            flags,
        })
    }

    /// A string option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// A required string option.
    pub fn require(&self, key: &str) -> Result<&str> {
        self.get(key)
            .ok_or_else(|| CliError::Usage(format!("--{key} is required")))
    }

    /// A numeric option with a default.
    pub fn get_f64(&self, key: &str, default: f64) -> Result<f64> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError::Usage(format!("--{key}: '{v}' is not a number"))),
        }
    }

    /// An integer option with a default.
    pub fn get_usize(&self, key: &str, default: usize) -> Result<usize> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError::Usage(format!("--{key}: '{v}' is not an integer"))),
        }
    }

    /// A u64 option with a default.
    pub fn get_u64(&self, key: &str, default: u64) -> Result<u64> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError::Usage(format!("--{key}: '{v}' is not an integer"))),
        }
    }

    /// Whether a boolean `--flag` was given.
    pub fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_command_options_and_flags() {
        let a =
            ParsedArgs::parse(["cluster", "--input", "c.jsonl", "--k", "12", "--json"]).unwrap();
        assert_eq!(a.command, Command::Cluster);
        assert_eq!(a.get("input"), Some("c.jsonl"));
        assert_eq!(a.get_usize("k", 24).unwrap(), 12);
        assert!(a.flag("json"));
        assert!(!a.flag("verbose"));
    }

    #[test]
    fn defaults_apply_when_options_absent() {
        let a = ParsedArgs::parse(["cluster", "--input", "x"]).unwrap();
        assert_eq!(a.get_f64("beta", 7.0).unwrap(), 7.0);
        assert_eq!(a.get_u64("seed", 42).unwrap(), 42);
    }

    #[test]
    fn missing_command_is_an_error() {
        assert!(matches!(
            ParsedArgs::parse(Vec::<String>::new()),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn unknown_command_is_an_error() {
        assert!(matches!(
            ParsedArgs::parse(["frobnicate"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn option_without_value_is_an_error() {
        assert!(matches!(
            ParsedArgs::parse(["cluster", "--input"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn non_numeric_value_is_an_error() {
        let a = ParsedArgs::parse(["cluster", "--k", "many"]).unwrap();
        assert!(matches!(a.get_usize("k", 1), Err(CliError::Usage(_))));
    }

    #[test]
    fn required_option() {
        let a = ParsedArgs::parse(["stats"]).unwrap();
        assert!(matches!(a.require("input"), Err(CliError::Usage(_))));
    }

    #[test]
    fn stray_positional_is_an_error() {
        assert!(matches!(
            ParsedArgs::parse(["cluster", "positional"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn unknown_options_are_rejected_by_name() {
        for (command, option) in [
            ("cluster", "--rep"),
            ("stream", "--rep"),
            ("eval", "--rep"),
            ("stream", "--shard"),
            ("cluster", "--thread"),
            ("eval", "--events"),
            ("stats", "--k"),
        ] {
            match ParsedArgs::parse([command, option, "1"]) {
                Err(CliError::Usage(msg)) => {
                    assert!(msg.contains(option), "{command} {option}: {msg}")
                }
                other => panic!("{command} {option} was accepted: {other:?}"),
            }
        }
        // a misspelt flag is rejected before it can swallow a value
        assert!(matches!(
            ParsedArgs::parse(["cluster", "--jsn"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn every_command_accepts_its_own_and_the_common_options() {
        for word in ["generate", "stats", "cluster", "stream", "eval", "inspect"] {
            let command = Command::parse(word).unwrap();
            for key in command.options().iter().chain(COMMON_OPTIONS) {
                let mut line = vec![word.to_owned(), format!("--{key}")];
                if !BOOLEAN_FLAGS.contains(key) {
                    line.push("1".to_owned());
                }
                assert!(ParsedArgs::parse(line).is_ok(), "{word} --{key}");
            }
        }
    }

    #[test]
    fn all_commands_parse() {
        for (w, c) in [
            ("generate", Command::Generate),
            ("stats", Command::Stats),
            ("cluster", Command::Cluster),
            ("stream", Command::Stream),
            ("eval", Command::Eval),
            ("inspect", Command::Inspect),
        ] {
            assert_eq!(ParsedArgs::parse([w]).unwrap().command, c);
        }
    }
}
