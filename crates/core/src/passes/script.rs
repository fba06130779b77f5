//! Textual pass scripts.
//!
//! A script is a `;`-separated list of pass names, each optionally carrying
//! one parenthesised argument: `"strash;rewrite;sweep(stp);dc2(3)"`.  The
//! grammar is deliberately tiny — see [`parse_script`] for the accepted
//! names.

use super::Pass;
use crate::session::Engine;
use std::fmt;

/// A pass script failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParsePassError {
    /// The script contains no passes at all.
    Empty,
    /// An item names no known pass.
    UnknownPass {
        /// The unrecognised pass name.
        name: String,
    },
    /// An item's parenthesised argument is not valid for its pass.
    BadArgument {
        /// The pass the argument was given to.
        pass: String,
        /// The offending argument text.
        argument: String,
        /// What the pass would have accepted.
        expected: &'static str,
    },
    /// An item has unbalanced or misplaced parentheses.
    UnbalancedParens {
        /// The malformed item.
        item: String,
    },
}

impl fmt::Display for ParsePassError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParsePassError::Empty => write!(f, "pass script is empty"),
            ParsePassError::UnknownPass { name } => {
                write!(
                    f,
                    "unknown pass `{name}` (expected strash, cfold, gc, rewrite, \
                     sweep, sweep_fix, dc2 or verify)"
                )
            }
            ParsePassError::BadArgument {
                pass,
                argument,
                expected,
            } => {
                write!(
                    f,
                    "bad argument `{argument}` for pass `{pass}`: expected {expected}"
                )
            }
            ParsePassError::UnbalancedParens { item } => {
                write!(f, "malformed pass item `{item}`: unbalanced parentheses")
            }
        }
    }
}

impl std::error::Error for ParsePassError {}

/// The iteration cap of a bare `dc2`.
const DC2_DEFAULT_ITERS: usize = 10;

/// Splits one script item into a name and an optional argument.
fn split_item(item: &str) -> Result<(&str, Option<&str>), ParsePassError> {
    match (item.find('('), item.ends_with(')')) {
        (None, false) => {
            if item.contains(')') {
                return Err(ParsePassError::UnbalancedParens { item: item.into() });
            }
            Ok((item, None))
        }
        (Some(open), true) => {
            let arg = &item[open + 1..item.len() - 1];
            if arg.contains('(') || arg.contains(')') {
                return Err(ParsePassError::UnbalancedParens { item: item.into() });
            }
            Ok((item[..open].trim_end(), Some(arg.trim())))
        }
        _ => Err(ParsePassError::UnbalancedParens { item: item.into() }),
    }
}

fn parse_engine(pass: &str, arg: Option<&str>) -> Result<Engine, ParsePassError> {
    match arg {
        None | Some("stp") => Ok(Engine::Stp),
        Some("baseline") => Ok(Engine::Baseline),
        Some(other) => Err(ParsePassError::BadArgument {
            pass: pass.into(),
            argument: other.into(),
            expected: "an engine name (`stp` or `baseline`)",
        }),
    }
}

fn parse_count(pass: &str, arg: &str) -> Result<usize, ParsePassError> {
    arg.parse::<usize>()
        .ok()
        .filter(|&n| n > 0)
        .ok_or_else(|| ParsePassError::BadArgument {
            pass: pass.into(),
            argument: arg.into(),
            expected: "a positive iteration count",
        })
}

/// `pass` if the item carries no argument.
fn no_argument(name: &str, arg: Option<&str>, pass: Pass) -> Result<Pass, ParsePassError> {
    match arg {
        None => Ok(pass),
        Some(argument) => Err(ParsePassError::BadArgument {
            pass: name.into(),
            argument: argument.into(),
            expected: "no argument",
        }),
    }
}

/// Parses a pass script into an executable pass sequence.
///
/// Accepted items (whitespace around items and a trailing `;` are
/// tolerated):
///
/// * `strash` — [`Pass::Strash`]
/// * `cfold` / `constant_fold` — [`Pass::ConstantFold`]
/// * `gc` / `dangling_gc` — [`Pass::Gc`]
/// * `rewrite` — [`Pass::Rewrite`]
/// * `sweep` / `sweep(stp)` / `sweep(baseline)` — [`Pass::Sweep`]
/// * `sweep_fix(n)` / `sweep_fix(engine, n)` — [`Pass::SweepToFixpoint`]
/// * `dc2` / `dc2(n)` — [`Pass::Dc2`] capped at `n` iterations (default 10)
/// * `verify` — [`Pass::Verify`]
///
/// ```
/// use stp_sweep::passes::{parse_script, Pass};
/// let passes = parse_script("strash; rewrite; sweep(stp); dc2(3); verify").unwrap();
/// assert_eq!(passes.len(), 5);
/// assert_eq!(passes[3], Pass::Dc2(3));
/// assert!(parse_script("frobnicate").is_err());
/// ```
pub fn parse_script(script: &str) -> Result<Vec<Pass>, ParsePassError> {
    let mut passes = Vec::new();
    for raw in script.split(';') {
        let item = raw.trim();
        if item.is_empty() {
            continue;
        }
        let (name, arg) = split_item(item)?;
        let pass = match name {
            "strash" => no_argument(name, arg, Pass::Strash)?,
            "cfold" | "constant_fold" => no_argument(name, arg, Pass::ConstantFold)?,
            "gc" | "dangling_gc" => no_argument(name, arg, Pass::Gc)?,
            "rewrite" => no_argument(name, arg, Pass::Rewrite)?,
            "verify" => no_argument(name, arg, Pass::Verify)?,
            "sweep" => Pass::Sweep(parse_engine(name, arg)?),
            "sweep_fix" => {
                let arg = arg.ok_or_else(|| ParsePassError::BadArgument {
                    pass: name.into(),
                    argument: String::new(),
                    expected: "a round cap, e.g. `sweep_fix(4)` or `sweep_fix(stp, 4)`",
                })?;
                let (engine, count) = match arg.split_once(',') {
                    None => (Engine::Stp, parse_count(name, arg.trim())?),
                    Some((eng, n)) => (
                        parse_engine(name, Some(eng.trim()))?,
                        parse_count(name, n.trim())?,
                    ),
                };
                Pass::SweepToFixpoint(engine, count)
            }
            "dc2" => Pass::Dc2(match arg {
                None => DC2_DEFAULT_ITERS,
                Some(n) => parse_count(name, n)?,
            }),
            other => return Err(ParsePassError::UnknownPass { name: other.into() }),
        };
        passes.push(pass);
    }
    if passes.is_empty() {
        return Err(ParsePassError::Empty);
    }
    Ok(passes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_full_grammar() {
        let passes = parse_script(
            "strash; cfold; gc; rewrite; sweep; sweep(stp); sweep(baseline); \
             sweep_fix(4); sweep_fix(baseline, 2); dc2; dc2(3); verify;",
        )
        .unwrap();
        assert_eq!(
            passes,
            [
                Pass::Strash,
                Pass::ConstantFold,
                Pass::Gc,
                Pass::Rewrite,
                Pass::Sweep(Engine::Stp),
                Pass::Sweep(Engine::Stp),
                Pass::Sweep(Engine::Baseline),
                Pass::SweepToFixpoint(Engine::Stp, 4),
                Pass::SweepToFixpoint(Engine::Baseline, 2),
                Pass::Dc2(10),
                Pass::Dc2(3),
                Pass::Verify,
            ]
        );
        let names: Vec<String> = passes.iter().map(Pass::to_string).collect();
        assert_eq!(
            names,
            [
                "strash",
                "cfold",
                "gc",
                "rewrite",
                "sweep(stp)",
                "sweep(stp)",
                "sweep(baseline)",
                "sweep(stp) to fixpoint",
                "sweep(baseline) to fixpoint",
                "dc2",
                "dc2",
                "verify",
            ]
        );
    }

    #[test]
    fn aliases_resolve() {
        let passes = parse_script("constant_fold; dangling_gc").unwrap();
        assert_eq!(passes, [Pass::ConstantFold, Pass::Gc]);
    }

    #[test]
    fn rejects_the_invalid() {
        assert_eq!(parse_script("").err().unwrap(), ParsePassError::Empty);
        assert_eq!(parse_script(" ; ; ").err().unwrap(), ParsePassError::Empty);
        assert!(matches!(
            parse_script("frobnicate").err().unwrap(),
            ParsePassError::UnknownPass { name } if name == "frobnicate"
        ));
        assert!(matches!(
            parse_script("sweep(kissat)").err().unwrap(),
            ParsePassError::BadArgument { pass, .. } if pass == "sweep"
        ));
        assert!(matches!(
            parse_script("dc2(0)").err().unwrap(),
            ParsePassError::BadArgument { pass, .. } if pass == "dc2"
        ));
        assert!(matches!(
            parse_script("dc2(three)").err().unwrap(),
            ParsePassError::BadArgument { .. }
        ));
        assert!(matches!(
            parse_script("strash(now)").err().unwrap(),
            ParsePassError::BadArgument { pass, .. } if pass == "strash"
        ));
        assert!(matches!(
            parse_script("dc2(3").err().unwrap(),
            ParsePassError::UnbalancedParens { .. }
        ));
        assert!(matches!(
            parse_script("dc2)3(").err().unwrap(),
            ParsePassError::UnbalancedParens { .. }
        ));
        let err = parse_script("sweep(kissat)").err().unwrap();
        assert!(err.to_string().contains("kissat"), "{err}");
    }
}
