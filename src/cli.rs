//! Table-driven option parsing for the `distenc` binary.
//!
//! A subcommand is a [`Cmd`]: a name, a one-line description and the
//! [`Opt`] rows it accepts. Parsing, unknown-option rejection and both
//! help texts are read off those rows, so an option cannot exist without
//! being documented or be documented without existing. Which rows exist
//! is `main.rs`'s business (`COMMANDS`); this module only interprets them.

/// Any library error or a plain message; `main` prints its `Display`.
pub type Res<T = ()> = Result<T, Box<dyn std::error::Error>>;

/// `Err` with a plain message.
pub fn fail<T>(msg: impl Into<String>) -> Res<T> {
    Err(msg.into().into())
}

/// How many values an option takes.
#[derive(Clone, Copy, PartialEq)]
pub enum Arity {
    /// A bare switch.
    Flag,
    /// Exactly one value; giving the option twice is an error.
    One,
    /// One value per occurrence, any number of occurrences.
    Many,
}

/// One row of a subcommand's option table.
pub struct Opt {
    pub name: &'static str,
    pub arity: Arity,
    /// Placeholder for the value in help texts (empty for flags).
    pub meta: &'static str,
    pub help: &'static str,
}

pub const fn val(name: &'static str, meta: &'static str, help: &'static str) -> Opt {
    Opt { name, arity: Arity::One, meta, help }
}
pub const fn many(name: &'static str, meta: &'static str, help: &'static str) -> Opt {
    Opt { name, arity: Arity::Many, meta, help }
}
pub const fn flag(name: &'static str, help: &'static str) -> Opt {
    Opt { name, arity: Arity::Flag, meta: "", help }
}

pub struct Cmd {
    pub name: &'static str,
    pub about: &'static str,
    /// Option groups: the command's own rows and the shared groups.
    pub groups: &'static [&'static [Opt]],
    pub run: fn(&Opts) -> Res,
}

impl Cmd {
    fn opts(&self) -> impl Iterator<Item = &'static Opt> {
        self.groups.iter().flat_map(|g| g.iter())
    }

    /// `distenc <cmd> --help`.
    pub fn help(&self) -> String {
        let mut out = format!("distenc {} — {}\n\nOPTIONS:\n", self.name, self.about);
        for o in self.opts() {
            let left = format!("--{} {}", o.name, o.meta);
            let repeat = if o.arity == Arity::Many { " (repeatable)" } else { "" };
            out.push_str(&format!("  {left:<28} {}{repeat}\n", o.help));
        }
        out
    }
}

/// `distenc --help`: every command with its description.
pub fn usage(commands: &[Cmd]) -> String {
    let mut out = String::from(
        "distenc — trace-regularized tensor completion (DisTenC, ICDE 2018)\n\nUSAGE:\n",
    );
    for c in commands {
        out.push_str(&format!("  distenc {:<12} {}\n", c.name, c.about));
    }
    // Which instantiation of the hot kernels this CPU runs (a timing in
    // a bug report should say): nothing selects it but the CPU.
    out + "\n`distenc <command> --help` lists a command's options.\nkernels: "
        + distenc::linalg::isa::name()
}

/// A subcommand's parsed options. Every accessor names a row of the
/// subcommand's table (checked in debug builds).
pub struct Opts<'a> {
    cmd: &'static Cmd,
    given: Vec<(&'static Opt, &'a str)>,
}

impl<'a> Opts<'a> {
    /// Match `args` against `cmd`'s table. `Ok(None)` means `--help` was
    /// asked for.
    pub fn parse(cmd: &'static Cmd, args: &'a [String]) -> Res<Option<Self>> {
        let mut given: Vec<(&'static Opt, &'a str)> = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if a == "--help" || a == "-h" {
                return Ok(None);
            }
            let key =
                a.strip_prefix("--").ok_or_else(|| format!("expected an option, got `{a}`"))?;
            let opt = cmd.opts().find(|o| o.name == key).ok_or_else(|| {
                format!(
                    "unknown option `--{key}` for `distenc {0}` (see `distenc {0} --help`)",
                    cmd.name
                )
            })?;
            let value = match opt.arity {
                Arity::Flag => "",
                _ => it.next().ok_or_else(|| format!("--{key} needs a value"))?,
            };
            if opt.arity != Arity::Many && given.iter().any(|(o, _)| o.name == key) {
                return fail(format!("--{key} given more than once"));
            }
            given.push((opt, value));
        }
        Ok(Some(Opts { cmd, given }))
    }

    /// Every value given for a repeatable option, in order.
    pub fn all<'s>(&'s self, name: &'s str) -> impl Iterator<Item = &'a str> + 's {
        debug_assert!(self.cmd.opts().any(|o| o.name == name), "--{name} is not in the table");
        self.given.iter().filter(move |(o, _)| o.name == name).map(|(_, v)| *v)
    }

    pub fn get(&self, name: &str) -> Option<&'a str> {
        self.all(name).next()
    }

    /// Whether the option (usually a flag) was given.
    pub fn has(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    pub fn req(&self, name: &str) -> Res<&'a str> {
        Ok(self.get(name).ok_or_else(|| format!("missing --{name}"))?)
    }

    pub fn num<T: std::str::FromStr>(&self, name: &str) -> Res<Option<T>> {
        self.get(name).map(|s| parse_num(s, name)).transpose()
    }

    pub fn num_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Res<T> {
        Ok(self.num(name)?.unwrap_or(default))
    }

    pub fn req_num<T: std::str::FromStr>(&self, name: &str) -> Res<T> {
        parse_num(self.req(name)?, name)
    }

    pub fn millis(&self, name: &str) -> Res<Option<std::time::Duration>> {
        Ok(self.num::<u64>(name)?.map(std::time::Duration::from_millis))
    }
}

pub fn parse_num<T: std::str::FromStr>(s: &str, what: &str) -> Res<T> {
    Ok(s.parse().map_err(|_| format!("bad {what}: `{s}`"))?)
}

pub fn parse_list(s: &str, what: &str) -> Res<Vec<usize>> {
    s.split(',').map(|p| parse_num(p.trim(), what)).collect()
}

/// A tensor shape `d1,d2,..`: a mode of length 0 holds no cell, so it is
/// an error here rather than a panic in the code that would size by it.
pub fn parse_dims(s: &str) -> Res<Vec<usize>> {
    let dims = parse_list(s, "dimension")?;
    if dims.contains(&0) {
        return fail(format!("bad --dims `{s}`: every mode length must be at least 1"));
    }
    Ok(dims)
}

#[cfg(test)]
mod tests {
    use super::*;

    static CMD: Cmd = Cmd {
        name: "demo",
        about: "a demo",
        groups: &[
            &[val("rank", "R", "the rank"), flag("fast", "go fast")],
            &[many("in", "FILE", "inputs")],
        ],
        run: |_| Ok(()),
    };

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn values_flags_and_repeats_parse() {
        let a = args(&["--rank", "3", "--in", "a", "--fast", "--in", "b"]);
        let o = Opts::parse(&CMD, &a).unwrap().unwrap();
        assert_eq!(o.req_num::<usize>("rank").unwrap(), 3);
        assert!(o.has("fast"));
        assert_eq!(o.all("in").collect::<Vec<_>>(), ["a", "b"]);
        assert_eq!(o.num_or("rank", 9usize).unwrap(), 3);
        let none = args(&[]);
        let o = Opts::parse(&CMD, &none).unwrap().unwrap();
        assert!(!o.has("fast"));
        assert_eq!(o.num_or("rank", 9usize).unwrap(), 9);
        assert_eq!(o.req("rank").unwrap_err().to_string(), "missing --rank");
    }

    #[test]
    fn bad_input_is_an_error_naming_the_option() {
        let err = |list: &[&str]| match Opts::parse(&CMD, &args(list)) {
            Err(e) => e.to_string(),
            Ok(_) => panic!("{list:?} must not parse"),
        };
        let unknown = err(&["--max-rank", "5"]);
        assert!(unknown.contains("unknown option `--max-rank` for `distenc demo`"), "{unknown}");
        assert!(err(&["rank"]).contains("expected an option"));
        assert!(err(&["--rank"]).contains("--rank needs a value"));
        assert!(err(&["--rank", "1", "--rank", "2"]).contains("more than once"));
        let a = args(&["--rank", "x"]);
        let o = Opts::parse(&CMD, &a).unwrap().unwrap();
        assert_eq!(o.num::<usize>("rank").unwrap_err().to_string(), "bad rank: `x`");
    }

    #[test]
    fn help_lists_every_row() {
        assert!(Opts::parse(&CMD, &args(&["--rank", "3", "--help"])).unwrap().is_none());
        let help = CMD.help();
        for needle in ["demo — a demo", "--rank R", "--fast", "--in FILE", "(repeatable)"] {
            assert!(help.contains(needle), "{needle} missing from {help}");
        }
        assert!(usage(std::slice::from_ref(&CMD)).contains("distenc demo"));
    }
}
