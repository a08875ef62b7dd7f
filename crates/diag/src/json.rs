//! JSON, the §1.2 exchange format: the workspace's one value type, one
//! strict parser, and one string escaper.
//!
//! The parser accepts exactly RFC 8259 JSON: all eight escapes,
//! `\uXXXX` with surrogate pairs (a lone surrogate is an error), no raw
//! control characters inside strings, and the strict number grammar.
//! Nesting deeper than [`MAX_PARSE_DEPTH`] is an SSD110 error instead of
//! a stack overflow. Numbers keep their source text, so callers choose
//! the int/real split and integer comparisons stay exact.
//!
//! Writing stays with each renderer (every artifact in the workspace is
//! hand-formatted for stable key order); they share [`escape_into`].

use crate::{parse_depth_message, MAX_PARSE_DEPTH};
use std::fmt::Write as _;

/// A parsed JSON value. Object members keep their source order and any
/// duplicate keys.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// The number's source text, already checked against the grammar.
    Num(String),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

/// Where and why [`Json::parse`] failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset in the input.
    pub at: usize,
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.at)
    }
}

impl Json {
    /// Parse one JSON document; only whitespace may follow it.
    pub fn parse(text: &str) -> Result<Json, ParseError> {
        let mut p = Parser {
            src: text,
            pos: 0,
            depth: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != text.len() {
            return p.err("trailing input after JSON value");
        }
        Ok(v)
    }

    /// Navigate object keys; `Null` for anything missing.
    pub fn path(&self, keys: &[&str]) -> &Json {
        let mut cur = self;
        for k in keys {
            let Json::Obj(fields) = cur else {
                return &Json::Null;
            };
            match fields.iter().find(|(name, _)| name == k) {
                Some((_, v)) => cur = v,
                None => return &Json::Null,
            }
        }
        cur
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) => n.parse().ok(),
            _ => None,
        }
    }

    pub fn as_array(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            _ => &[],
        }
    }

    /// A short, single-line rendering for diagnostics.
    pub fn render_short(&self) -> String {
        match self {
            Json::Null => "null".to_string(),
            Json::Bool(b) => b.to_string(),
            Json::Num(n) => n.clone(),
            Json::Str(s) => format!("\"{s}\""),
            Json::Arr(items) => format!("[{} items]", items.len()),
            Json::Obj(fields) => format!("{{{} fields}}", fields.len()),
        }
    }
}

/// Append `s` to `out` escaped for the inside of a JSON string literal
/// (the caller writes the quotes): `"`, `\`, `\n`, `\r`, `\t` get their
/// short escapes, other control characters `\u00XX`.
pub fn escape_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c < ' ' => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

struct Parser<'a> {
    src: &'a str,
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            at: self.pos,
            message: message.into(),
        })
    }

    fn byte(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.byte(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        self.skip_ws();
        let hit = self.byte() == Some(b);
        if hit {
            self.pos += 1;
        }
        hit
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.eat(b) {
            Ok(())
        } else {
            self.err(format!("expected '{}'", b as char))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        self.depth += 1;
        if self.depth > MAX_PARSE_DEPTH {
            return self.err(parse_depth_message());
        }
        let v = self.value_inner();
        self.depth -= 1;
        v
    }

    fn value_inner(&mut self) -> Result<Json, ParseError> {
        self.skip_ws();
        match self.byte() {
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                if !self.eat(b'}') {
                    loop {
                        let key = self.string()?;
                        self.expect(b':')?;
                        fields.push((key, self.value()?));
                        if !self.eat(b',') {
                            self.expect(b'}')?;
                            break;
                        }
                    }
                }
                Ok(Json::Obj(fields))
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                if !self.eat(b']') {
                    loop {
                        items.push(self.value()?);
                        if !self.eat(b',') {
                            self.expect(b']')?;
                            break;
                        }
                    }
                }
                Ok(Json::Arr(items))
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => {
                for (word, v) in [
                    ("true", Json::Bool(true)),
                    ("false", Json::Bool(false)),
                    ("null", Json::Null),
                ] {
                    if self.src[self.pos..].starts_with(word) {
                        self.pos += word.len();
                        return Ok(v);
                    }
                }
                self.err("expected a JSON value")
            }
        }
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`
    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.byte() == Some(b'-') {
            self.pos += 1;
        }
        if self.byte() == Some(b'0') {
            self.pos += 1;
        } else if self.digits() == 0 {
            return self.err("expected a digit");
        }
        if self.byte() == Some(b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return self.err("expected a digit after '.'");
            }
        }
        if matches!(self.byte(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.byte(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return self.err("expected a digit in the exponent");
            }
        }
        Ok(Json::Num(self.src[start..self.pos].to_string()))
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while self.byte().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Every stop byte is ASCII, so `run` lands on a char boundary.
            let rest = &self.src[self.pos..];
            let run = rest
                .bytes()
                .position(|b| b == b'"' || b == b'\\' || b < b' ')
                .unwrap_or(rest.len());
            out.push_str(&rest[..run]);
            self.pos += run;
            match self.byte() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let c = self.escape()?;
                    out.push(c);
                }
                Some(_) => return self.err("control character in string"),
                None => return self.err("unterminated string"),
            }
        }
    }

    /// One escape, after its backslash.
    fn escape(&mut self) -> Result<char, ParseError> {
        let c = match self.byte() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                return self.unicode_escape();
            }
            _ => return self.err("bad escape"),
        };
        self.pos += 1;
        Ok(c)
    }

    /// `XXXX` after `\u`, or a `\uD8xx\uDCxx` surrogate pair.
    fn unicode_escape(&mut self) -> Result<char, ParseError> {
        let high = self.hex4()?;
        let code = if (0xD800..0xDC00).contains(&high) {
            if !self.src[self.pos..].starts_with("\\u") {
                return self.err("unpaired surrogate in \\u escape");
            }
            self.pos += 2;
            let low = self.hex4()?;
            if !(0xDC00..0xE000).contains(&low) {
                return self.err("unpaired surrogate in \\u escape");
            }
            0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00)
        } else {
            high
        };
        match char::from_u32(code) {
            Some(c) => Ok(c),
            None => self.err("unpaired surrogate in \\u escape"),
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let hex = self
            .src
            .get(self.pos..self.pos + 4)
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()));
        match hex.and_then(|h| u32::from_str_radix(h, 16).ok()) {
            Some(code) => {
                self.pos += 4;
                Ok(code)
            }
            None => self.err("bad \\u escape"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quoted(s: &str) -> String {
        let mut out = String::from("\"");
        escape_into(s, &mut out);
        out.push('"');
        out
    }

    #[test]
    fn parses_the_bench_shapes() {
        let j = Json::parse(
            r#"{"experiment": "E21", "schema_version": 1,
                "scenarios": [{"name": "rpe3", "p99_us": 1200}],
                "ok": true, "none": null, "f": "0x00ff"}"#,
        )
        .unwrap();
        assert_eq!(j.path(&["experiment"]).as_str(), Some("E21"));
        assert_eq!(j.path(&["schema_version"]).as_u64(), Some(1));
        let rows = j.path(&["scenarios"]).as_array();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].path(&["p99_us"]).as_u64(), Some(1200));
        assert_eq!(*j.path(&["missing", "deep"]), Json::Null);
        assert_eq!(*j.path(&["ok"]), Json::Bool(true));
    }

    #[test]
    fn numbers_keep_their_text_and_follow_the_grammar() {
        for ok in ["0", "-0", "42", "-7", "2.50", "1e9", "1E+2", "-3.5e-4"] {
            assert_eq!(Json::parse(ok), Ok(Json::Num(ok.to_string())), "{ok}");
        }
        for bad in ["01", "-", "1.", ".5", "1e", "+1", "0x1f", "1.2.3", "--1"] {
            assert!(Json::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn lone_surrogates_and_raw_controls_are_rejected() {
        for bad in [
            r#""\ud83d""#,
            r#""\ud83dx""#,
            r#""\ud83dA""#,
            r#""\ude00""#,
            "\"tab\there\"",
            r#""\x41""#,
            r#""\u12""#,
            r#""\u+123""#,
        ] {
            assert!(Json::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1, 2,]").is_err());
        assert!(Json::parse(r#"{"a" 1}"#).is_err());
        assert!(Json::parse("{\"a\": 1} extra").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("nul").is_err());
        assert!(Json::parse(" \u{a0}1").is_err(), "only JSON whitespace");
    }

    #[test]
    fn nesting_is_capped_with_ssd110() {
        let at_limit = format!(
            "{}1{}",
            "[".repeat(MAX_PARSE_DEPTH - 1),
            "]".repeat(MAX_PARSE_DEPTH - 1)
        );
        assert!(Json::parse(&at_limit).is_ok());
        let deep = "[".repeat(1_000_000);
        let err = Json::parse(&deep).unwrap_err();
        assert!(err.message.contains("SSD110"), "{err:?}");
    }

    #[test]
    fn escapes_round_trip() {
        let j = Json::parse(r#""q\"b\\s\/b\bf\fn\nr\rt\tu\u00e9""#).unwrap();
        assert_eq!(j.as_str(), Some("q\"b\\s/b\u{8}f\u{c}n\nr\rt\tu\u{e9}"));
        let j = Json::parse(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(j.as_str(), Some("\u{1F600}"));
        assert_eq!(
            quoted("a\"b\\c\nd\re\tf\u{1}"),
            r#""a\"b\\c\nd\re\tf\u0001""#
        );
        for s in ["", "plain", "\u{0}\u{1f}\u{7f}", "é \u{1F600} \u{8}\u{c}"] {
            assert_eq!(Json::parse(&quoted(s)).unwrap().as_str(), Some(s));
        }
    }
}
