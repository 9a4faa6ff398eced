//! Command-line parsing against declared commands (no external dependency).
//!
//! A [`Command`]'s help synopsis is also its option declaration: after the
//! command words, `--name META` takes a value (the next token unless it
//! starts with `--`, so `--inject-panic -1` still reaches the integer
//! check), a bare `--name` is a flag, and `--name [META]` takes an optional
//! value. Brackets around a whole option carry no parse meaning; which
//! options are required stays with the handlers.

use std::collections::BTreeMap;
use std::str::FromStr;

use sdnav_core::{ControllerSpec, SdnavError};

/// What a command runs once its command line parses.
#[derive(Clone, Copy)]
pub enum Run {
    /// Runs on the loaded, validated spec; the common options apply too.
    Spec(fn(&ControllerSpec, &Args) -> Result<(), SdnavError>),
    /// Reads its own inputs; only the synopsis options apply.
    Raw(fn(&Args) -> Result<(), SdnavError>),
}

/// One command: a help synopsis starting with the command words (`chaos
/// run …`; `\n` starts a continuation line), help prose, and a handler.
pub struct Command {
    pub synopsis: &'static str,
    pub about: &'static str,
    pub run: Run,
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Arity {
    Flag,
    Value,
    Optional,
}

/// The options a synopsis declares, with their arity.
fn declared(synopsis: &'static str) -> Vec<(&'static str, Arity)> {
    let mut options = Vec::new();
    let mut tokens = synopsis.split_whitespace().peekable();
    while let Some(token) = tokens.next() {
        let Some(rest) = token.trim_start_matches('[').strip_prefix("--") else {
            continue;
        };
        let name = rest.trim_end_matches(']');
        let arity = match tokens.peek() {
            // `[--csv]`: the bracket closes on the name itself.
            _ if name.len() < rest.len() => Arity::Flag,
            Some(next) if next.trim_start_matches('[').starts_with("--") => Arity::Flag,
            Some(next) if next.starts_with('[') => Arity::Optional,
            Some(_) => Arity::Value,
            None => Arity::Flag,
        };
        options.push((name, arity));
    }
    options
}

impl Command {
    /// The command words the synopsis starts with: `sweep`, `chaos run`.
    fn words(&self) -> Vec<&'static str> {
        let words = self.synopsis.split_whitespace();
        words.take_while(|w| !w.starts_with(['[', '-'])).collect()
    }
}

/// Renders the COMMANDS and COMMON OPTIONS sections of `sdnav help`:
/// prose starts at column 30, beside a short one-line synopsis or below
/// a longer one.
pub fn help(commands: &[Command], common: &[(&str, &str)]) -> String {
    let mut out = String::from("COMMANDS:\n");
    for command in commands {
        let indent = command.words().join(" ").len() + 1;
        let mut lines = command.synopsis.lines();
        let first = lines.next().unwrap_or_default();
        let mut about = command.about.lines();
        if command.synopsis.contains('\n') || first.len() > 27 {
            out += &format!("  {first}\n");
            for line in lines {
                out += &format!("  {:indent$}{line}\n", "");
            }
        } else {
            out += &format!("  {first:<27} {}\n", about.next().unwrap_or_default());
        }
        for line in about {
            out += &format!("{:30}{line}\n", "");
        }
    }
    out += "\nCOMMON OPTIONS:\n";
    for (synopsis, about) in common {
        out += &format!("  {synopsis:<27} {about}\n");
    }
    out
}

/// The options of a parsed command line.
pub struct Args {
    options: Vec<(&'static str, Arity)>,
    given: BTreeMap<&'static str, Option<String>>,
}

impl Args {
    /// Parses an argument list (excluding the program name): the command
    /// words (`help` when absent), then options the command declares, plus
    /// the `common` options (synopsis, prose) for [`Run::Spec`] commands.
    /// Returns what to run with the parsed options.
    ///
    /// # Errors
    ///
    /// A `Usage`-kind [`SdnavError`] for an unknown command or action, a
    /// stray argument, an undeclared option (including `--key=value`), a
    /// missing value, a flag followed by a bare token, or a repeated option.
    pub fn parse(
        commands: &'static [Command],
        common: &'static [(&'static str, &'static str)],
        argv: impl IntoIterator<Item = String>,
    ) -> Result<(Run, Self), SdnavError> {
        let mut argv = argv.into_iter().peekable();
        let name = argv.next().unwrap_or_else(|| "help".to_owned());
        let family: Vec<&'static Command> =
            commands.iter().filter(|c| c.words()[0] == name).collect();
        let action = match family.as_slice() {
            [] => return Err(SdnavError::usage(format!("unknown command {name:?}"))),
            [only] if only.words().len() == 1 => None,
            _ => argv.next_if(|token| !token.starts_with("--")),
        };
        let Some(command) = family
            .iter()
            .find(|c| c.words().get(1).copied() == action.as_deref())
        else {
            let actions: Vec<_> = family.iter().map(|c| c.words()[1]).collect();
            return Err(SdnavError::usage(match action {
                Some(action) => format!("unknown {name} action {action:?}"),
                None => format!("{name} requires an action: {}", actions.join(" or ")),
            }));
        };
        let mut options = declared(command.synopsis);
        if let Run::Spec(_) = command.run {
            options.extend(common.iter().flat_map(|(synopsis, _)| declared(synopsis)));
        }
        let words = command.words().join(" ");
        let fail = |what: String| SdnavError::usage(format!("`sdnav {words}`: {what}"));
        let mut given = BTreeMap::new();
        while let Some(token) = argv.next() {
            let Some(key) = token.strip_prefix("--") else {
                return Err(fail(format!("unexpected positional argument {token:?}")));
            };
            let Some(&(key, arity)) = options.iter().find(|(name, _)| *name == key) else {
                return Err(fail(format!("unknown option --{key}")));
            };
            let value = argv.next_if(|next| !next.starts_with("--"));
            match (arity, &value) {
                (Arity::Value, None) => return Err(fail(format!("--{key} needs a value"))),
                (Arity::Flag, Some(v)) => {
                    return Err(fail(format!("--{key} is a flag, got {v:?}")))
                }
                _ => {}
            }
            if given.insert(key, value).is_some() {
                return Err(fail(format!("--{key} given twice")));
            }
        }
        Ok((command.run, Args { options, given }))
    }

    /// Whether `--key` was given, with or without a value.
    pub fn has(&self, key: &str) -> bool {
        // Reading an undeclared option is a handler bug, not a user error.
        let declared = self.options.iter().any(|(name, _)| *name == key);
        debug_assert!(declared, "a handler reads undeclared option --{key}");
        self.given.contains_key(key)
    }

    /// The value of `--key`, if given.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.has(key).then(|| self.given[key].as_deref())?
    }

    /// The given options that carry a value, in name order.
    pub fn values(&self) -> impl Iterator<Item = (&'static str, &str)> {
        let given = self.given.iter();
        given.filter_map(|(key, value)| Some((*key, value.as_deref()?)))
    }

    /// `--key` parsed as a `T`; `what` names the expected form.
    pub fn value<T: FromStr>(&self, key: &str, what: &str) -> Result<Option<T>, SdnavError> {
        let bad = |v| SdnavError::usage(format!("--{key} expects {what}, got {v:?}"));
        self.get(key)
            .map(|v| v.parse().map_err(|_| bad(v)))
            .transpose()
    }

    /// Parsed numeric option with a default.
    pub fn get_f64(&self, key: &str, default: f64) -> Result<f64, SdnavError> {
        Ok(self.value(key, "a number")?.unwrap_or(default))
    }

    /// Parsed integer option with a default.
    pub fn get_usize(&self, key: &str, default: usize) -> Result<usize, SdnavError> {
        Ok(self.value(key, "an integer")?.unwrap_or(default))
    }

    /// `--key` as a comma list of `what`, each item read by `parse`.
    pub fn list<T>(
        &self,
        key: &str,
        what: &str,
        parse: impl Fn(&str) -> Option<T>,
    ) -> Result<Option<Vec<T>>, SdnavError> {
        let Some(list) = self.get(key) else {
            return Ok(None);
        };
        let bad =
            |v| SdnavError::usage(format!("--{key} expects a comma list of {what}, got {v:?}"));
        let items = list
            .split(',')
            .map(|v| parse(v.trim()).ok_or_else(|| bad(v)));
        items.collect::<Result<_, _>>().map(Some)
    }

    /// The value of `--key`, which must be one of `choices`.
    pub fn choice(&self, key: &str, choices: &[&str]) -> Result<Option<&str>, SdnavError> {
        match self.get(key) {
            Some(value) if !choices.contains(&value) => {
                let quoted: Vec<String> = choices.iter().map(|c| format!("`{c}`")).collect();
                let choices = quoted.join(" or ");
                Err(SdnavError::usage(format!(
                    "--{key} must be {choices}, got {value:?}"
                )))
            }
            value => Ok(value),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok(_: &Args) -> Result<(), SdnavError> {
        Ok(())
    }

    const COMMON: &[(&str, &str)] = &[("--spec FILE", "analyze a custom spec")];

    const COMMANDS: &[Command] = &[
        Command {
            synopsis: "fig3 [--points N] [--csv]",
            about: "regenerate Fig. 3",
            run: Run::Spec(|_, _| Ok(())),
        },
        Command {
            synopsis: "chaos run --campaign FILE\n[--verdict GENSPEC [--replications R]]",
            about: "run a campaign\nand print the ledger",
            run: Run::Spec(|_, _| Ok(())),
        },
        Command {
            synopsis: "lint [--source [PATH]] [--fix]",
            about: "audit",
            run: Run::Raw(ok),
        },
        Command {
            synopsis: "help",
            about: "show this help",
            run: Run::Raw(|_| Err(SdnavError::usage("help ran"))),
        },
    ];

    fn parse(args: &[&str]) -> Result<Args, SdnavError> {
        let argv = args.iter().map(|s| (*s).to_owned());
        Args::parse(COMMANDS, COMMON, argv).map(|(_, args)| args)
    }

    fn error(args: &[&str]) -> String {
        match parse(args) {
            Ok(_) => panic!("{args:?} must not parse"),
            Err(e) => {
                assert_eq!(e.kind(), sdnav_core::ErrorKind::Usage, "{e}");
                e.to_string()
            }
        }
    }

    #[test]
    fn synopsis_declares_arity() {
        assert_eq!(
            declared("[--points N] [--csv] --target M [--source [PATH]] [--fix]"),
            [
                ("points", Arity::Value),
                ("csv", Arity::Flag),
                ("target", Arity::Value),
                ("source", Arity::Optional),
                ("fix", Arity::Flag),
            ]
        );
        assert_eq!(
            declared("[--verdict GENSPEC [--replications R]] [--dry-run]"),
            [
                ("verdict", Arity::Value),
                ("replications", Arity::Value),
                ("dry-run", Arity::Flag),
            ]
        );
    }

    #[test]
    fn parses_subcommand_options_and_flags() {
        let a = parse(&["fig3", "--points", "11", "--csv", "--spec", "s.json"]).unwrap();
        assert_eq!(a.get("points"), Some("11"));
        assert_eq!(a.get("spec"), Some("s.json"));
        assert!(a.has("csv"));
        assert_eq!(
            a.values().collect::<Vec<_>>(),
            [("points", "11"), ("spec", "s.json")]
        );
        // Negative numbers are values, left to the typed accessors.
        let a = parse(&["fig3", "--points", "-1"]).unwrap();
        assert!(a.get_usize("points", 0).is_err());
    }

    #[test]
    fn typed_accessors() {
        let a = parse(&["fig3", "--points", "2.5"]).unwrap();
        assert_eq!(a.get_f64("points", 1.0).unwrap(), 2.5);
        assert!(a.get_usize("points", 0).is_err());
        assert_eq!(a.value::<u32>("spec", "an integer").unwrap(), None);
        let a = parse(&["fig3", "--points", "1, 2,3"]).unwrap();
        assert_eq!(
            a.list("points", "counts", |s| s.parse::<u8>().ok())
                .unwrap(),
            Some(vec![1, 2, 3])
        );
        assert_eq!(a.choice("spec", &["json"]).unwrap(), None);
        let a = parse(&["fig3", "--points", "1,x", "--spec", "yaml"]).unwrap();
        let list = a.list("points", "counts", |s| s.parse::<u8>().ok());
        assert!(list.unwrap_err().to_string().contains("\"x\""));
        let choice = a.choice("spec", &["json", "sarif"]).unwrap_err();
        assert!(choice.to_string().contains("`json` or `sarif`"));
    }

    #[test]
    fn actions_and_optional_values() {
        let a = parse(&["chaos", "run", "--campaign", "c.json"]).unwrap();
        assert_eq!(a.get("campaign"), Some("c.json"));
        assert!(error(&["chaos"]).contains("chaos requires an action: run"));
        assert!(error(&["chaos", "--campaign", "c.json"]).contains("requires an action"));
        assert!(error(&["chaos", "stop"]).contains("unknown chaos action"));

        let bare = parse(&["lint", "--source", "--fix"]).unwrap();
        assert!(bare.has("source") && bare.get("source").is_none());
        let path = parse(&["lint", "--source", "x.rs"]).unwrap();
        assert_eq!(path.get("source"), Some("x.rs"));
    }

    #[test]
    fn no_command_is_help() {
        let (run, args) = Args::parse(COMMANDS, COMMON, Vec::new()).unwrap();
        let Run::Raw(help) = run else {
            panic!("help takes no spec")
        };
        assert_eq!(help(&args).unwrap_err().to_string(), "help ran");
    }

    #[test]
    fn malformed_command_lines_name_the_option_and_command() {
        for (argv, needle) in [
            (
                &["fig3", "--thread", "4"][..],
                "`sdnav fig3`: unknown option --thread",
            ),
            (
                &["fig3", "--points=3"],
                "`sdnav fig3`: unknown option --points=3",
            ),
            (
                &["lint", "--spec", "s.json"],
                "`sdnav lint`: unknown option --spec",
            ),
            (
                &["help", "--spec", "s.json"],
                "`sdnav help`: unknown option --spec",
            ),
            (&["fig3", "--spec"], "`sdnav fig3`: --spec needs a value"),
            (
                &["fig3", "--csv", "yes"],
                "`sdnav fig3`: --csv is a flag, got \"yes\"",
            ),
            (
                &["fig3", "--points", "2", "--points", "3"],
                "--points given twice",
            ),
            (&["fig3", "extra"], "unexpected positional argument"),
            (&["frobnicate"], "unknown command"),
            (&["--help"], "unknown command"),
        ] {
            let message = error(argv);
            assert!(message.contains(needle), "{argv:?}: {message}");
        }
    }

    #[test]
    fn help_renders_beside_or_below_the_synopsis() {
        let text = help(COMMANDS, COMMON);
        assert!(text.contains("\n  fig3 [--points N] [--csv]   regenerate Fig. 3\n"));
        assert!(text.contains(
            "\n  chaos run --campaign FILE\n            [--verdict GENSPEC [--replications R]]\n"
        ));
        assert!(text.contains(&format!("\n{:30}and print the ledger\n", "")));
        assert!(text.ends_with("\n  --spec FILE                 analyze a custom spec\n"));
    }
}
