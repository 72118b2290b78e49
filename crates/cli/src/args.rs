//! The one argument grammar of `cpack`. Each command declares its flags
//! and positional slots in [`crate::commands::COMMANDS`], and
//! [`Command::parse`] reads its command line into [`Args`].
//!
//! An argument that starts with `-` and is longer than `-` is a flag; the
//! values a flag takes are the arguments after it, verbatim (so `-o -`
//! names stdout). Flags and positionals may come in any order. The parser
//! owns the misuse policy: an unknown flag, a missing value, a second use
//! of a single-valued flag, a missing or extra positional and a malformed
//! number are each [`CliError::Usage`] (exit 2), reported as
//! `<cmd>: <problem>` followed by the command's help block.

use crate::commands::CliError;

/// One `cpack` subcommand.
pub struct Command {
    /// The word after `cpack`.
    pub name: &'static str,
    /// The lines `cpack help` prints for it.
    pub help: &'static str,
    /// The flags it accepts.
    pub flags: &'static [Flag],
    /// Its positional slots, in order.
    pub slots: &'static [Slot],
    /// Runs it on its parsed arguments.
    pub run: fn(&Args) -> Result<(), CliError>,
}

/// A flag: its spellings (handlers read it by the first) and what it takes.
pub struct Flag {
    /// Every spelling, such as `-o` and `--out`.
    pub names: &'static [&'static str],
    /// What follows it.
    pub takes: Takes,
}

/// What follows a flag on the command line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Takes {
    /// Nothing: a switch, which may repeat.
    Nothing,
    /// One value, once.
    Text,
    /// One non-negative integer, once.
    Number,
    /// Two values, once (`profile --diff`).
    Two,
    /// One value per use, any number of uses (`--profile P`).
    Each,
}

/// A positional slot, named as the help block writes it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Slot {
    /// Text the command cannot run without: `<profile>`.
    Required(&'static str),
    /// Text the handler may require itself through [`Args::required`].
    Optional(&'static str),
    /// An optional non-negative integer: `[INSNS]`.
    Count(&'static str),
}

/// A flag spelled `names` that takes `takes`.
pub const fn flag(names: &'static [&'static str], takes: Takes) -> Flag {
    Flag { names, takes }
}

impl Slot {
    fn name(self) -> &'static str {
        match self {
            Slot::Required(name) | Slot::Optional(name) | Slot::Count(name) => name,
        }
    }
}

impl std::fmt::Debug for Command {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name)
    }
}

impl Command {
    /// Misuse of this command: `<cmd>: <problem>`, then its help block.
    pub fn misuse(&self, problem: impl std::fmt::Display) -> CliError {
        let help = self.help.trim_end();
        CliError::Usage(format!("{}: {problem}\nusage:\n{help}", self.name))
    }

    /// Parses the arguments after the command name.
    pub fn parse(&'static self, argv: &[String]) -> Result<Args, CliError> {
        let mut flags = vec![Vec::new(); self.flags.len()];
        let mut slots = Vec::new();
        let mut it = argv.iter();
        while let Some(arg) = it.next() {
            if !(arg.starts_with('-') && arg.len() > 1) {
                let Some(&slot) = self.slots.get(slots.len()) else {
                    return Err(self.misuse(format!("unexpected argument `{arg}`")));
                };
                self.check(matches!(slot, Slot::Count(_)), arg, slot.name())?;
                slots.push(arg.clone());
                continue;
            }
            let Some(i) = self.flags.iter().position(|f| f.names.contains(&&**arg)) else {
                return Err(self.misuse(format!("unknown flag `{arg}`")));
            };
            let takes = self.flags[i].takes;
            let values = &mut flags[i];
            if takes == Takes::Nothing {
                values.push(arg.clone());
                continue;
            }
            if takes != Takes::Each && !values.is_empty() {
                return Err(self.misuse(format!("{arg} given more than once")));
            }
            let arity = if takes == Takes::Two { 2 } else { 1 };
            for _ in 0..arity {
                let Some(v) = it.next() else {
                    let what = if arity == 2 { "two values" } else { "a value" };
                    return Err(self.misuse(format!("{arg} needs {what}")));
                };
                self.check(takes == Takes::Number, v, arg)?;
                values.push(v.clone());
            }
        }
        if let Some(Slot::Required(name)) = self.slots.get(slots.len()) {
            return Err(self.misuse(format!("missing {name}")));
        }
        Ok(Args {
            command: self,
            flags,
            slots,
        })
    }

    fn check(&self, number: bool, v: &str, what: &str) -> Result<(), CliError> {
        if number && v.parse::<u64>().is_err() {
            return Err(self.misuse(format!("bad number `{v}` for {what}")));
        }
        Ok(())
    }
}

/// A parsed command line, read by the names its command declares.
#[derive(Debug)]
pub struct Args {
    /// The command it is for.
    pub command: &'static Command,
    /// The values of each declared flag, in order (a switch holds one
    /// entry per use).
    flags: Vec<Vec<String>>,
    /// The positionals, filling the slots in order.
    slots: Vec<String>,
}

impl Args {
    /// Every value of flag `name` (its first spelling), in order.
    ///
    /// # Panics
    ///
    /// Panics if the command declares no such flag.
    pub fn all(&self, name: &str) -> &[String] {
        let i = self.command.flags.iter().position(|f| f.names[0] == name);
        let i = i.unwrap_or_else(|| panic!("`{}` declares no flag {name}", self.command.name));
        &self.flags[i]
    }

    /// Whether flag `name` was given.
    pub fn flag(&self, name: &str) -> bool {
        !self.all(name).is_empty()
    }

    /// The value of flag `name` or of slot `name`, if given.
    ///
    /// # Panics
    ///
    /// Panics if the command declares no such flag or slot.
    pub fn text(&self, name: &str) -> Option<&str> {
        if name.starts_with('-') {
            return self.all(name).first().map(String::as_str);
        }
        let i = self.command.slots.iter().position(|s| s.name() == name);
        let i = i.unwrap_or_else(|| panic!("`{}` declares no slot {name}", self.command.name));
        self.slots.get(i).map(String::as_str)
    }

    /// The value of numeric flag or slot `name`, if given.
    pub fn number(&self, name: &str) -> Option<u64> {
        let v = self.text(name)?;
        Some(v.parse().expect("the parser checked every number"))
    }

    /// [`Self::number`] as a count, saturating where `usize` is narrower.
    pub fn count(&self, name: &str) -> Option<usize> {
        let n = self.number(name)?;
        Some(usize::try_from(n).unwrap_or(usize::MAX))
    }

    /// Slot `name`, or the misuse of leaving it out.
    pub fn required(&self, name: &str) -> Result<&str, CliError> {
        let missing = || self.command.misuse(format!("missing {name}"));
        self.text(name).ok_or_else(missing)
    }
}
