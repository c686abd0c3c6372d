//! The one flag reader every command-line tool of the workspace parses
//! its arguments with (`arcs-sim` and the three `arcs-serve` binaries).

use arcs_kernels::model;
use arcs_powersim::{Machine, WorkloadDescriptor};
use std::fmt::Display;
use std::str::FromStr;

/// A command's remaining arguments plus its usage printer: every parse
/// failure says why on stderr and leaves through `usage` (exit 2).
pub struct Flags<'a> {
    args: std::slice::Iter<'a, String>,
    usage: fn() -> !,
}

impl<'a> Flags<'a> {
    pub fn new(args: &'a [String], usage: fn() -> !) -> Self {
        Flags { args: args.iter(), usage }
    }

    /// The parsed value that follows flag `name`.
    pub fn value<T>(&mut self, name: &str) -> T
    where
        T: FromStr,
        T::Err: Display,
    {
        let Some(text) = self.args.next() else {
            eprintln!("missing value for {name}");
            (self.usage)()
        };
        self.parse(text)
    }

    pub fn parse<T>(&self, text: &str) -> T
    where
        T: FromStr,
        T::Err: Display,
    {
        text.parse().unwrap_or_else(|e| {
            eprintln!("{e}");
            (self.usage)()
        })
    }

    /// The power (W) that follows flag `name`: a finite, positive number.
    /// A NaN, infinite, zero or negative cap has no operating point, so it
    /// is a usage error rather than a run at a meaningless envelope.
    pub fn watts(&mut self, name: &str) -> f64 {
        let w: f64 = self.value(name);
        if !(w.is_finite() && w > 0.0) {
            eprintln!("{name} must be a finite, positive number of watts, not {w}");
            (self.usage)()
        }
        w
    }

    pub fn unknown(&self, flag: &str) -> ! {
        eprintln!("unknown flag {flag}");
        (self.usage)()
    }

    /// The built-in machine model named by the value of `--machine`.
    pub fn machine(&mut self) -> Machine {
        let name: String = self.value("--machine");
        Machine::by_name(&name).unwrap_or_else(|| {
            eprintln!("unknown machine {name}");
            (self.usage)()
        })
    }

    /// Resolve an `APP[.CLASS]` workload spec (class defaults to B), with
    /// the step count overridden by `--timesteps` if given.
    pub fn workload(&self, spec: &str, timesteps: Option<usize>) -> WorkloadDescriptor {
        let full = if spec.contains('.') { spec.to_string() } else { format!("{spec}.B") };
        let mut wl = model::by_spec(&full).unwrap_or_else(|| {
            eprintln!("unknown workload {spec}");
            (self.usage)()
        });
        if let Some(t) = timesteps {
            wl.timesteps = t;
        }
        wl
    }
}

/// The next argument, flag or positional.
impl<'a> Iterator for Flags<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        self.args.next().map(String::as_str)
    }
}
