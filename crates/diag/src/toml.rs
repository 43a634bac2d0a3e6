//! TOML in: one reader for the toolchain's two configuration formats.
//!
//! Fault plans (`faults::plan`) and the `jobs.toml` manifests of
//! `autocsp run` and `autocsp serve` (`cspm::manifest`) are written in one
//! small TOML subset, read line by line:
//!
//! - a `[name]` or `[[name]]` header opens a [`Section`];
//! - `key = value` adds an [`Entry`] to the open section. Keys are ASCII
//!   letters, digits and `_`. A key repeated within one section is an
//!   error, as in TOML;
//! - a [`Value`] is an integer (decimal or `0x…` hex, `_` separators), a
//!   float, a `"string"` (no escapes, no embedded quotes), `true` or
//!   `false`, or a flat integer list `[a, b, …]`;
//! - `#` starts a comment anywhere outside a string, after a value too.
//!
//! [`parse`] reports every syntax error of a source at once. [`Fields`]
//! then reads one section with typed accessors and reports wrong types,
//! missing keys and the keys nobody asked for. Every problem is a
//! [`Diagnostic`] under the caller's code, positioned inside the source,
//! so a format's reader only maps sections to its own structs.

use std::collections::HashSet;

use crate::{Code, Diagnostic, Span};

/// A `key = value` right-hand side.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// An integer, decimal or `0x…` hex.
    Int(i64),
    /// A float.
    Float(f64),
    /// A double-quoted string, quotes removed.
    Str(String),
    /// A flat list of integers.
    IntList(Vec<i64>),
    /// `true` or `false`.
    Bool(bool),
}

impl Value {
    /// What kind of value this is, for error messages.
    fn type_name(&self) -> &'static str {
        match self {
            Value::Int(_) => "integer",
            Value::Float(_) => "float",
            Value::Str(_) => "string",
            Value::IntList(_) => "integer list",
            Value::Bool(_) => "boolean",
        }
    }
}

/// One `key = value` line.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    /// The key.
    pub key: String,
    /// The value.
    pub value: Value,
    /// Where the key is.
    pub span: Span,
}

/// A `[name]` or `[[name]]` section with its entries.
#[derive(Debug, Clone, PartialEq)]
pub struct Section {
    /// The name between the brackets.
    pub name: String,
    /// Whether the header is `[[name]]`, one element of an array of tables.
    pub array: bool,
    /// Where the header is.
    pub span: Span,
    /// The entries, in source order.
    pub entries: Vec<Entry>,
}

impl Section {
    /// The header as written: `[name]` or `[[name]]`.
    pub fn header(&self) -> String {
        if self.array {
            format!("[[{}]]", self.name)
        } else {
            format!("[{}]", self.name)
        }
    }
}

/// Split `src` into sections. Syntax errors are collected, not fatal per
/// line, so several mistakes surface in one pass.
///
/// # Errors
///
/// Every syntax error, as a `code` diagnostic.
pub fn parse(src: &str, code: Code) -> Result<Vec<Section>, Vec<Diagnostic>> {
    let mut sections: Vec<Section> = Vec::new();
    // The keys of the last section, to reject repeats.
    let mut keys: HashSet<&str> = HashSet::new();
    let mut errors = Vec::new();
    for (idx, raw) in src.lines().enumerate() {
        let lineno = u32::try_from(idx + 1).unwrap_or(u32::MAX);
        let line = strip_comment(raw);
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        // The span of `part`, which starts `at` bytes into the line.
        let span = |at: usize, part: &str| Span::new(lineno, column(line, at), width(part));
        let start = line.len() - line.trim_start().len();
        let mut error = |at: usize, part: &str, message: String| {
            errors.push(Diagnostic::error(code, span(at, part), message));
        };
        if let Some(rest) = trimmed.strip_prefix('[') {
            let (array, name) = match rest.strip_prefix('[') {
                Some(rest) => (true, rest.strip_suffix("]]")),
                None => (false, rest.strip_suffix(']')),
            };
            let Some(name) = name else {
                let header = if array { "[[…]]" } else { "[…]" };
                error(
                    start,
                    trimmed,
                    format!("unterminated `{header}` section header"),
                );
                continue;
            };
            keys.clear();
            sections.push(Section {
                name: name.trim().to_string(),
                array,
                span: span(start, trimmed),
                entries: Vec::new(),
            });
        } else if let Some(eq) = trimmed.find('=') {
            let key = trimmed[..eq].trim_end();
            let after = &trimmed[eq + 1..];
            let value_text = after.trim();
            let value_at = start + eq + 1 + (after.len() - after.trim_start().len());
            if key.is_empty() || !key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
                error(start, key, format!("invalid key `{key}`"));
                continue;
            }
            if value_text.is_empty() {
                error(start + eq, "=", "missing value after `=`".to_string());
                continue;
            }
            let value = match parse_value(value_text) {
                Ok(value) => value,
                Err(message) => {
                    error(value_at, value_text, message);
                    continue;
                }
            };
            let Some(section) = sections.last_mut() else {
                error(start, key, format!("`{key}` is outside any section"));
                continue;
            };
            if !keys.insert(key) {
                error(start, key, format!("duplicate key `{key}`"));
                continue;
            }
            section.entries.push(Entry {
                key: key.to_string(),
                value,
                span: span(start, key),
            });
        } else {
            error(
                start,
                trimmed,
                format!("expected `[section]` or `key = value`, found `{trimmed}`"),
            );
        }
    }
    if errors.is_empty() {
        Ok(sections)
    } else {
        Err(errors)
    }
}

/// `line` up to its first `#` outside a double-quoted string.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

/// The 1-based character column of byte offset `at` in `line`.
fn column(line: &str, at: usize) -> u32 {
    u32::try_from(line[..at].chars().count() + 1).unwrap_or(u32::MAX)
}

/// The width of `part` in characters, at least 1.
fn width(part: &str) -> u32 {
    u32::try_from(part.chars().count().max(1)).unwrap_or(u32::MAX)
}

fn parse_value(text: &str) -> Result<Value, String> {
    if let Some(rest) = text.strip_prefix('"') {
        let Some(inner) = rest.strip_suffix('"') else {
            return Err("unterminated string".to_string());
        };
        if inner.contains('"') {
            return Err("embedded quotes are not supported".to_string());
        }
        return Ok(Value::Str(inner.to_string()));
    }
    match text {
        "true" => return Ok(Value::Bool(true)),
        "false" => return Ok(Value::Bool(false)),
        _ => {}
    }
    if let Some(rest) = text.strip_prefix('[') {
        let Some(inner) = rest.strip_suffix(']') else {
            return Err("unterminated list".to_string());
        };
        return inner
            .split(',')
            .map(str::trim)
            .filter(|part| !part.is_empty())
            .map(|part| {
                parse_int(part).ok_or_else(|| format!("`{part}` is not an integer list element"))
            })
            .collect::<Result<_, _>>()
            .map(Value::IntList);
    }
    if let Some(v) = parse_int(text) {
        return Ok(Value::Int(v));
    }
    if let Ok(v) = text.parse::<f64>() {
        return Ok(Value::Float(v));
    }
    Err(format!("`{text}` is not a number, string, boolean or list"))
}

fn parse_int(text: &str) -> Option<i64> {
    let cleaned = text.replace('_', "");
    if let Some(hex) = cleaned
        .strip_prefix("0x")
        .or_else(|| cleaned.strip_prefix("0X"))
    {
        i64::from_str_radix(hex, 16).ok()
    } else {
        cleaned.parse::<i64>().ok()
    }
}

/// Typed reads of one section's entries, collecting diagnostics. Every
/// read marks its key as known; [`Fields::finish`] reports the rest, so a
/// typo never silently drops a setting.
pub struct Fields<'a> {
    section: &'a Section,
    code: Code,
    errors: Vec<Diagnostic>,
    used: Vec<bool>,
}

impl<'a> Fields<'a> {
    /// Start reading `section`, reporting problems as `code`.
    pub fn new(section: &'a Section, code: Code) -> Self {
        Fields {
            section,
            code,
            errors: Vec::new(),
            used: vec![false; section.entries.len()],
        }
    }

    /// Report a problem found while reading this section.
    pub fn error(&mut self, span: Span, message: impl Into<String>) {
        self.errors
            .push(Diagnostic::error(self.code, span, message));
    }

    fn entry(&mut self, key: &str) -> Option<&'a Entry> {
        let i = self.section.entries.iter().position(|e| e.key == key)?;
        self.used[i] = true;
        Some(&self.section.entries[i])
    }

    /// The value under `key` as `convert` reads it. A value it rejects is
    /// reported as not being `expected`.
    pub fn get<T>(
        &mut self,
        key: &str,
        expected: &str,
        convert: impl FnOnce(&Value) -> Option<T>,
    ) -> Option<T> {
        let entry = self.entry(key)?;
        let got = convert(&entry.value);
        if got.is_none() {
            let found = entry.value.type_name();
            self.error(
                entry.span,
                format!("`{key}` expects {expected}, found {found}"),
            );
        }
        got
    }

    /// The string under `key`.
    pub fn str(&mut self, key: &str) -> Option<String> {
        self.get(key, "a string", |v| match v {
            Value::Str(s) => Some(s.clone()),
            _ => None,
        })
    }

    /// The string under `key`, reporting its absence.
    pub fn require_str(&mut self, key: &str) -> Option<String> {
        if !self.section.entries.iter().any(|e| e.key == key) {
            let header = self.section.header();
            self.error(
                self.section.span,
                format!("`{header}` section is missing `{key}`"),
            );
        }
        self.str(key)
    }

    /// The non-negative integer under `key`, which must fit in `T`.
    pub fn uint<T: TryFrom<i64>>(&mut self, key: &str) -> Option<T> {
        let entry = self.entry(key)?;
        let message = match entry.value {
            Value::Int(n) => match T::try_from(n) {
                Ok(v) => return Some(v),
                Err(_) if n < 0 => format!("`{key}` expects a non-negative integer, found {n}"),
                Err(_) => format!(
                    "`{key}` = {n} does not fit in {} bits",
                    8 * std::mem::size_of::<T>()
                ),
            },
            ref other => format!("`{key}` expects an integer, found {}", other.type_name()),
        };
        self.error(entry.span, message);
        None
    }

    /// The number under `key`; an integer reads as a float.
    pub fn f64(&mut self, key: &str) -> Option<f64> {
        self.get(key, "a number", |v| match v {
            Value::Float(x) => Some(*x),
            Value::Int(n) => Some(*n as f64),
            _ => None,
        })
    }

    /// Every problem found, with an error for each key nobody read.
    pub fn finish(mut self) -> Vec<Diagnostic> {
        for (entry, used) in self.section.entries.iter().zip(&self.used) {
            if !used {
                let (key, header) = (&entry.key, self.section.header());
                self.errors.push(Diagnostic::error(
                    self.code,
                    entry.span,
                    format!(
                        "unknown key `{key}` in `{header}`: unknown `{header}` keys are rejected"
                    ),
                ));
            }
        }
        self.errors
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CODE: Code = Code("TST000");

    fn messages(src: &str) -> Vec<String> {
        parse(src, CODE)
            .unwrap_err()
            .into_iter()
            .map(|d| format!("{}: {}", d.span, d.message))
            .collect()
    }

    #[test]
    fn sections_entries_and_values() {
        let src = "top = 1\n";
        assert_eq!(messages(src), ["1:1: `top` is outside any section"]);
        let src = "[a]\nn = 0x1_0 # hex\nf = 2.5\ns = \"x#y\" # after a string\n\
                   b = true\nl = [1, 2,]\n\n[[b]]\n[[b]]\nk = -3\n";
        let sections = parse(src, CODE).unwrap();
        let headers: Vec<String> = sections.iter().map(Section::header).collect();
        assert_eq!(headers, ["[a]", "[[b]]", "[[b]]"]);
        let values: Vec<&Value> = sections[0].entries.iter().map(|e| &e.value).collect();
        assert_eq!(
            values,
            [
                &Value::Int(16),
                &Value::Float(2.5),
                &Value::Str("x#y".into()),
                &Value::Bool(true),
                &Value::IntList(vec![1, 2]),
            ]
        );
        assert_eq!(sections[2].entries[0].value, Value::Int(-3));
        assert_eq!(sections[2].span, Span::new(9, 1, 5));
    }

    #[test]
    fn every_syntax_error_is_reported_at_its_column() {
        let src = "[a\n[[b]\n[c]\nx y\n  bad-key = 1\nk =\nk = \"open\nk = \"a\"b\"\n\
                   k = [1, x]\nk = [1\nk = what\nk = 1\n k = 2\n";
        assert_eq!(
            messages(src),
            [
                "1:1: unterminated `[…]` section header",
                "2:1: unterminated `[[…]]` section header",
                "4:1: expected `[section]` or `key = value`, found `x y`",
                "5:3: invalid key `bad-key`",
                "6:3: missing value after `=`",
                "7:5: unterminated string",
                "8:5: embedded quotes are not supported",
                "9:5: `x` is not an integer list element",
                "10:5: unterminated list",
                "11:5: `what` is not a number, string, boolean or list",
                "13:2: duplicate key `k`",
            ]
        );
    }

    #[test]
    fn repeated_keys_are_rejected_per_section() {
        assert!(parse("[a]\nk = 1\n[a]\nk = 2\n[[b]]\nk = 3\n[[b]]\nk = 4\n", CODE).is_ok());
        assert_eq!(messages("[a]\nk = 1\nk = 1\n"), ["3:1: duplicate key `k`"]);
    }

    #[test]
    fn fields_read_typed_values_and_report_the_rest() {
        let src = "[[job]]\nname = \"a\"\nn = 7\nneg = -1\nbig = 5000000000\nx = 1\ns = 2\n";
        let sections = parse(src, CODE).unwrap();
        let mut f = Fields::new(&sections[0], CODE);
        assert_eq!(f.str("name").as_deref(), Some("a"));
        assert_eq!(f.uint::<u64>("n"), Some(7));
        assert_eq!(f.f64("n"), Some(7.0));
        assert_eq!(f.uint::<u64>("neg"), None);
        assert_eq!(f.uint::<u32>("big"), None);
        assert_eq!(f.str("s"), None);
        assert_eq!(f.require_str("script"), None);
        assert_eq!(f.str("absent"), None);
        let found: Vec<String> = f
            .finish()
            .into_iter()
            .map(|d| format!("{}: {}", d.span, d.message))
            .collect();
        assert_eq!(
            found,
            [
                "4:1: `neg` expects a non-negative integer, found -1",
                "5:1: `big` = 5000000000 does not fit in 32 bits",
                "7:1: `s` expects a string, found integer",
                "1:1: `[[job]]` section is missing `script`",
                "6:1: unknown key `x` in `[[job]]`: unknown `[[job]]` keys are rejected",
            ]
        );
    }
}
