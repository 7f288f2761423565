//! Flag parsing shared by the `sweep` and `sweep-worker` bins. A missing
//! or malformed flag value is a usage error: one stderr line naming the
//! flag and the bad value, then exit code 2 — never a panic.

use std::fmt::Display;
use std::str::FromStr;

/// Prints `msg` to stderr and exits with the usage-error code 2.
pub fn usage_error(msg: impl Display) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// Unwraps `r`, turning its error into a usage error.
pub fn or_exit<T, E: Display>(r: Result<T, E>) -> T {
    r.unwrap_or_else(|e| usage_error(e))
}

/// The value after `flag`; `what` names it in the error when it is
/// missing.
pub fn value<'a>(args: &mut impl Iterator<Item = &'a String>, flag: &str, what: &str) -> &'a str {
    match args.next() {
        Some(v) => v,
        None => usage_error(format!("{flag} needs {what}")),
    }
}

/// The value after `flag`, parsed as `T`.
pub fn parsed<'a, T: FromStr>(
    args: &mut impl Iterator<Item = &'a String>,
    flag: &str,
    what: &str,
) -> T {
    parse(value(args, flag, what), flag, what)
}

/// The comma-separated cell indices after `flag` (`a,b,c`).
pub fn cell_list<'a>(args: &mut impl Iterator<Item = &'a String>, flag: &str) -> Vec<u64> {
    let what = "a list of cell indices `a,b,c`";
    value(args, flag, what)
        .split(',')
        .map(|v| parse(v.trim(), flag, what))
        .collect()
}

fn parse<T: FromStr>(v: &str, flag: &str, what: &str) -> T {
    v.parse()
        .unwrap_or_else(|_| usage_error(format!("{flag} needs {what}, got `{v}`")))
}
