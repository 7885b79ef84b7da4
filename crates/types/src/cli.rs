//! The workspace's one command-line parser, shared by every binary.
//!
//! `--key value` and `--flag` styles only — enough for the daemons, the
//! simulator, the figure runners and perfsuite without pulling an
//! argument-parsing dependency into the workspace. Each read records the
//! option it returned, and [`Args::finish`] refuses every option the
//! binary never read, so a misspelt, removed or (in this invocation)
//! ineffective option fails the run instead of being ignored.

use crate::{AnorError, Result};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};

/// Parsed arguments: `--key value` pairs and bare `--flag`s.
#[derive(Debug, Default)]
pub struct Args {
    /// Each option given: `Some(value)` for `--key value`, `None` for a
    /// bare `--flag`.
    given: BTreeMap<String, Option<String>>,
    /// The options a read has returned, for [`Args::finish`].
    read: RefCell<BTreeSet<String>>,
}

impl Args {
    /// Parse from an iterator of raw arguments (without the program name).
    /// A positional argument or a repeated option is an error.
    pub fn parse<I: IntoIterator<Item = String>>(raw: I) -> Result<Args> {
        let mut given = BTreeMap::new();
        let mut iter = raw.into_iter().peekable();
        while let Some(arg) = iter.next() {
            let Some(key) = arg.strip_prefix("--") else {
                return Err(AnorError::config(format!(
                    "unexpected positional argument `{arg}`"
                )));
            };
            if key.is_empty() {
                return Err(AnorError::config("empty option name"));
            }
            let value = iter.next_if(|next| !next.starts_with("--"));
            if given.insert(key.to_string(), value).is_some() {
                return Err(AnorError::config(format!("option --{key} given twice")));
            }
        }
        Ok(Args {
            given,
            read: RefCell::default(),
        })
    }

    /// Parse the process's own arguments.
    pub fn from_env() -> Result<Args> {
        Args::parse(std::env::args().skip(1))
    }

    /// A required string option.
    pub fn required(&self, key: &str) -> Result<&str> {
        self.get(key)
            .ok_or_else(|| AnorError::config(format!("missing required option --{key}")))
    }

    /// An optional string option.
    pub fn get(&self, key: &str) -> Option<&str> {
        let value = self.given.get(key)?.as_deref()?;
        self.read.borrow_mut().insert(key.to_string());
        Some(value)
    }

    /// An optional option parsed to a type, with a default.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| AnorError::config(format!("option --{key}: cannot parse `{v}`"))),
        }
    }

    /// Is a bare flag present?
    pub fn flag(&self, key: &str) -> bool {
        let on = matches!(self.given.get(key), Some(None));
        if on {
            self.read.borrow_mut().insert(key.to_string());
        }
        on
    }

    /// Once every option this invocation uses has been read, refuse the
    /// rest: a config error names, sorted, every option given but never
    /// returned by a read — an unknown one, one with no effect here, a
    /// value option given no value and a flag given one.
    pub fn finish(&self) -> Result<()> {
        let read = self.read.borrow();
        let unread: Vec<String> = self
            .given
            .keys()
            .filter(|key| !read.contains(*key))
            .map(|key| format!("--{key}"))
            .collect();
        if unread.is_empty() {
            return Ok(());
        }
        Err(AnorError::config(format!(
            "option(s) not used by this invocation: {}",
            unread.join(", ")
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from)).unwrap()
    }

    #[test]
    fn values_and_flags() {
        let a = parse("--listen 127.0.0.1:0 --feedback --policy even-slowdown");
        assert_eq!(a.required("listen").unwrap(), "127.0.0.1:0");
        assert_eq!(a.get("policy"), Some("even-slowdown"));
        assert!(a.flag("feedback"));
        assert!(!a.flag("quiet"));
        a.finish().unwrap();
    }

    #[test]
    fn typed_defaults() {
        let a = parse("--nodes 4");
        assert_eq!(a.get_or("nodes", 1u32).unwrap(), 4);
        assert_eq!(a.get_or("seed", 7u64).unwrap(), 7);
        assert!(a.get_or::<u32>("nodes", 0).is_ok());
        let bad = parse("--nodes four");
        assert!(bad.get_or::<u32>("nodes", 0).is_err());
    }

    #[test]
    fn missing_required_is_an_error() {
        let a = parse("--other 1");
        assert!(a.required("listen").is_err());
    }

    #[test]
    fn positional_arguments_rejected() {
        assert!(Args::parse(["oops".to_string()]).is_err());
        assert!(Args::parse(["--".to_string()]).is_err());
    }

    #[test]
    fn flag_followed_by_option() {
        let a = parse("--verbose --nodes 2");
        assert!(a.flag("verbose"));
        assert_eq!(a.get_or("nodes", 0u32).unwrap(), 2);
    }

    #[test]
    fn finish_names_every_unread_option_sorted() {
        let a = parse("--zeta 1 --listen x --queue-depth 8 --alpha --budget 400 --verbose");
        assert_eq!(a.required("listen").unwrap(), "x");
        assert_eq!(a.get_or("budget", 0.0).unwrap(), 400.0);
        assert!(a.flag("verbose"));
        // A value option given bare, and a flag given a value, stay unread.
        assert_eq!(a.get("alpha"), None);
        assert!(!a.flag("zeta"));
        let err = a.finish().unwrap_err().to_string();
        assert!(
            err.ends_with(": --alpha, --queue-depth, --zeta"),
            "unread options not named in order: {err}"
        );
    }

    #[test]
    fn a_repeated_option_is_an_error() {
        for line in ["--budget 400 --budget 500", "--feedback --feedback"] {
            let err = Args::parse(line.split_whitespace().map(String::from))
                .unwrap_err()
                .to_string();
            assert!(err.contains("given twice"), "{line}: {err}");
        }
    }
}
