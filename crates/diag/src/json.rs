//! JSON in and out: one value parser and one writer for the toolchain.
//!
//! The vendored `serde` is an API stand-in with neither a serializer nor
//! a deserializer, and the toolchain only needs values, not a data-model
//! mapping.
//!
//! - [`parse`] reads one value (null, bools, numbers, strings with
//!   escapes, arrays, objects). Trace corpora (`faults::batch`), the
//!   checking service's wire frames (`crates/service`) and the CLI's
//!   machine-output tests read through it. Nesting is bounded by
//!   [`MAX_DEPTH`], so hostile input gets a [`JsonError`], not a stack
//!   overflow.
//! - [`Writer`] writes one compact document. Every JSON document the
//!   toolchain emits goes through it: CLI reports, HTTP bodies, wire
//!   frames, stats and counterexample files. It holds the one string
//!   escaping rule ([`crate::json_string`] goes through it); numbers are
//!   written as the caller formats them, so a `{:.3}` ratio keeps its
//!   three decimals.

use std::fmt;

/// One parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always carried as `f64`; integral values up to
    /// 2⁵³ round-trip exactly).
    Number(f64),
    /// A string, escapes already decoded.
    String(String),
    /// An array, in source order.
    Array(Vec<Value>),
    /// An object as a key–value list, in source order (duplicate keys are
    /// preserved; callers decide the policy).
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The string payload, if this is a [`Value::String`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a [`Value::Number`].
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a `u64`, if this is an integral
    /// [`Value::Number`] in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The boolean payload, if this is a [`Value::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The items, if this is a [`Value::Array`].
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The first value under `key`, if this is a [`Value::Object`].
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// A parse failure: 1-based byte column plus a message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// 1-based byte offset of the failure.
    pub col: u32,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "column {}: {}", self.col, self.message)
    }
}

/// The deepest nesting of arrays and objects [`parse`] accepts. A trace
/// corpus line nests 2 deep and an `autocsp analyze` report 6.
pub const MAX_DEPTH: usize = 128;

/// Parse exactly one JSON value (plus surrounding whitespace).
///
/// # Errors
///
/// [`JsonError`] with the first syntax error (1-based column), or where
/// the nesting first exceeds [`MAX_DEPTH`].
pub fn parse(input: &str) -> Result<Value, JsonError> {
    let mut p = Parser {
        text: input,
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos < p.bytes.len() {
        return Err(p.error("trailing characters after the JSON value"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> JsonError {
        JsonError {
            col: (self.pos + 1) as u32,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, text: &str, value: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected `{text}`")))
        }
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.error(&format!("nesting deeper than {MAX_DEPTH} levels")));
                }
                self.depth += 1;
                let value = if open == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                value
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<Value, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.error("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(self.error("expected `,` or `}` in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self.peek().ok_or_else(|| self.error("dangling escape"))?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let unit = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&unit) {
                                // High surrogate: require \uXXXX low half.
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(self.error("invalid low surrogate"));
                                }
                                let cp = 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(cp)
                            } else {
                                char::from_u32(unit)
                            };
                            out.push(c.ok_or_else(|| self.error("invalid unicode escape"))?);
                        }
                        _ => return Err(self.error("unknown escape")),
                    }
                }
                Some(b) if b < 0x20 => {
                    return Err(self.error("unescaped control character in string"));
                }
                Some(_) => {
                    // Consume one UTF-8 scalar: `pos` only ever stops on
                    // a scalar boundary of the `&str` input.
                    let c = self.text[self.pos..].chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut unit = 0u32;
        for _ in 0..4 {
            let b = self
                .peek()
                .ok_or_else(|| self.error("truncated \\u escape"))?;
            let digit = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.error("invalid hex digit in \\u escape"))?;
            unit = unit * 16 + digit;
            self.pos += 1;
        }
        Ok(unit)
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| JsonError {
                col: (start + 1) as u32,
                message: format!("invalid number `{text}`"),
            })
    }
}

/// Writes one compact JSON document into a `String`.
///
/// Arrays and objects nest through closures, so every `[` and `{` is
/// closed, and the writer places the commas. Inside an object, call
/// [`Writer::key`] before each value:
///
/// ```
/// let json = diag::json::object(|w| {
///     w.key("ratio").number(format_args!("{:.3}", 1.5));
///     w.key("ids").array(|w| {
///         w.string("a\"b").null();
///     });
/// });
/// assert_eq!(json, r#"{"ratio":1.500,"ids":["a\"b",null]}"#);
/// ```
#[derive(Debug, Default)]
pub struct Writer {
    out: String,
    /// Whether a sibling precedes the next value, which then needs a `,`.
    comma: bool,
}

impl Writer {
    /// An empty document.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// The document written so far.
    pub fn finish(self) -> String {
        self.out
    }

    fn separate(&mut self) {
        if self.comma {
            self.out.push(',');
        }
        self.comma = true;
    }

    fn container(&mut self, open: char, close: char, body: impl FnOnce(&mut Writer)) -> &mut Self {
        self.separate();
        self.out.push(open);
        self.comma = false;
        body(self);
        self.out.push(close);
        self.comma = true;
        self
    }

    /// An object whose fields `body` writes, each as [`Writer::key`]
    /// followed by one value.
    pub fn object(&mut self, body: impl FnOnce(&mut Writer)) -> &mut Self {
        self.container('{', '}', body)
    }

    /// An array whose items `body` writes.
    pub fn array(&mut self, body: impl FnOnce(&mut Writer)) -> &mut Self {
        self.container('[', ']', body)
    }

    /// An object key; the next call writes its value.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.string(key);
        self.out.push(':');
        self.comma = false;
        self
    }

    /// A string, escaped: quotes, backslashes and control characters.
    pub fn string(&mut self, s: &str) -> &mut Self {
        use fmt::Write as _;
        self.separate();
        self.out.push('"');
        for c in s.chars() {
            match c {
                '"' => self.out.push_str("\\\""),
                '\\' => self.out.push_str("\\\\"),
                '\n' => self.out.push_str("\\n"),
                '\r' => self.out.push_str("\\r"),
                '\t' => self.out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(self.out, "\\u{:04x}", c as u32);
                }
                c => self.out.push(c),
            }
        }
        self.out.push('"');
        self
    }

    /// `true` or `false`.
    pub fn bool(&mut self, b: bool) -> &mut Self {
        self.display(b)
    }

    /// `null`.
    pub fn null(&mut self) -> &mut Self {
        self.display("null")
    }

    /// A number, written as `n` displays: pass `format_args!("{:.1}", x)`
    /// to fix the precision. The caller keeps it a valid JSON number.
    pub fn number(&mut self, n: impl fmt::Display) -> &mut Self {
        self.display(n)
    }

    fn display(&mut self, value: impl fmt::Display) -> &mut Self {
        use fmt::Write as _;
        self.separate();
        let _ = write!(self.out, "{value}");
        self
    }
}

/// A document holding one object, whose fields `body` writes.
pub fn object(body: impl FnOnce(&mut Writer)) -> String {
    let mut w = Writer::new();
    w.object(body);
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_parse_and_accessors_work() {
        let v = parse(r#"{"id":"t-1","n":42,"ok":true,"xs":[1,"two",null]}"#).unwrap();
        assert_eq!(v.get("id").and_then(Value::as_str), Some("t-1"));
        assert_eq!(v.get("n").and_then(Value::as_u64), Some(42));
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(
            v.get("xs").and_then(Value::as_array).map(<[Value]>::len),
            Some(3)
        );
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn escapes_and_surrogates_decode() {
        let v = parse(r#""a\n\"b\" é 😀""#).unwrap();
        assert_eq!(v.as_str(), Some("a\n\"b\" é 😀"));
    }

    #[test]
    fn errors_carry_columns() {
        let e = parse("[1,,2]").unwrap_err();
        assert_eq!(e.col, 4);
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("[1] trailing").is_err());
        assert!(parse("1e999999").unwrap().as_f64().unwrap().is_infinite());
    }

    #[test]
    fn non_integral_numbers_are_not_u64() {
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
        assert_eq!(parse("-3").unwrap().as_u64(), None);
        assert_eq!(parse("7").unwrap().as_u64(), Some(7));
    }
}
