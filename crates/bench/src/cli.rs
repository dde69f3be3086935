//! The one command-line parser of the `gnndrive` front end.
//!
//! Each subcommand names the `--key value` flags and the boolean
//! `--switch`es it accepts; anything else is a [`UsageError`], which the
//! binary prints with its usage text and maps to exit code 2. Parsing is
//! hand-rolled (the repo keeps its dependency set to the approved offline
//! crates).

use std::collections::HashMap;
use std::fmt;
use std::str::FromStr;

/// A bad command line: the binary prints it with the usage text and
/// exits 2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsageError(pub String);

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// The flags of one subcommand invocation.
#[derive(Debug, Default)]
pub struct Flags {
    values: HashMap<String, String>,
    switches: Vec<String>,
}

impl Flags {
    /// Parse `args`: a `--key` listed in `valued` takes the next argument
    /// as its value (a repeated flag keeps the last one), a `--key` listed
    /// in `switches` stands alone.
    pub fn parse(args: &[String], valued: &[&str], switches: &[&str]) -> Result<Flags, UsageError> {
        let mut flags = Flags::default();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            let Some(key) = arg.strip_prefix("--") else {
                return Err(UsageError(format!("unexpected argument: {arg}")));
            };
            if switches.contains(&key) {
                flags.switches.push(key.to_string());
            } else if valued.contains(&key) {
                let Some(value) = args.next() else {
                    return Err(UsageError(format!("missing value for --{key}")));
                };
                flags.values.insert(key.to_string(), value.clone());
            } else {
                return Err(UsageError(format!("unknown flag --{key}")));
            }
        }
        Ok(flags)
    }

    /// The value of `--key`, if given.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    /// Whether the switch `--key` was given.
    pub fn has(&self, key: &str) -> bool {
        self.switches.iter().any(|s| s == key)
    }

    /// The value of `--key` parsed as a `T`, if given.
    pub fn parsed<T: FromStr>(&self, key: &str) -> Result<Option<T>, UsageError> {
        self.get(key)
            .map(|v| {
                v.parse()
                    .map_err(|_| UsageError(format!("bad value for --{key}: {v}")))
            })
            .transpose()
    }
}
