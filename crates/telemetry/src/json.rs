//! A minimal JSON writer **and reader** (the workspace's serde is an
//! offline marker stub, so serialization is hand-rolled here).
//!
//! The writer half ([`escape`], [`key`], [`string`], [`array`],
//! [`object`]) composes already-serialized fragments into documents;
//! it is the single canonical encoder shared by the run manifest, the
//! experiment tables, and the analysis server. The reader half
//! ([`parse`], [`Json`]) is a small recursive-descent parser used for
//! round-trip tests and for decoding request bodies — it accepts
//! exactly the documents the writer produces (plus ordinary JSON
//! whitespace and escapes).

/// Escapes `s` as JSON string *contents* (no surrounding quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// `"key": ` fragment.
pub fn key(name: &str) -> String {
    format!("\"{}\": ", escape(name))
}

/// A quoted JSON string.
pub fn string(value: &str) -> String {
    format!("\"{}\"", escape(value))
}

/// Joins already-serialized items into a JSON array.
pub fn array(items: impl IntoIterator<Item = String>) -> String {
    let body: Vec<String> = items.into_iter().collect();
    format!("[{}]", body.join(", "))
}

/// Joins already-serialized `"key": value` members into a JSON object.
pub fn object(members: impl IntoIterator<Item = String>) -> String {
    let body: Vec<String> = members.into_iter().collect();
    format!("{{{}}}", body.join(", "))
}

/// A parsed JSON value. Numbers are `f64` (every number this
/// workspace round-trips — counts, percentages, cycle budgets — fits
/// without loss at the precisions we print); object member order is
/// preserved.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object member lookup (first match); `None` on non-objects.
    pub fn get(&self, name: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == name).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Why a document failed to parse: a byte offset and a reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub reason: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.at, self.reason)
    }
}

impl std::error::Error for JsonError {}

/// Parses one JSON document (trailing whitespace allowed, trailing
/// garbage rejected).
///
/// # Errors
///
/// A [`JsonError`] locating the first offending byte.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, reason: &str) -> JsonError {
        JsonError {
            at: self.pos,
            reason: reason.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected {word:?}")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.eat(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let name = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            members.push((name, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escaped = self.peek().ok_or_else(|| self.err("dangling escape"))?;
                    self.pos += 1;
                    match escaped {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogates are not produced by the writer;
                            // map them to the replacement character.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is &str, so the
                    // boundary math is safe).
                    let rest = &self.bytes[self.pos..];
                    let text = std::str::from_utf8(rest).map_err(|_| self.err("invalid UTF-8"))?;
                    let c = text.chars().next().expect("peeked non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII digits are UTF-8");
        text.parse::<f64>().map(Json::Num).map_err(|_| JsonError {
            at: start,
            reason: format!("bad number {text:?}"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn builds_nested_documents() {
        let doc = object([
            key("a") + &string("x"),
            key("b") + &array(["1".to_string(), "2".to_string()]),
        ]);
        assert_eq!(doc, "{\"a\": \"x\", \"b\": [1, 2]}");
    }

    #[test]
    fn parses_what_the_writer_emits() {
        let doc = object([
            key("name") + &string("tab\"le"),
            key("count") + "3",
            key("ok") + "true",
            key("none") + "null",
            key("xs") + &array(["1.5".to_string(), string("two")]),
        ]);
        let parsed = parse(&doc).unwrap();
        assert_eq!(parsed.get("name").unwrap().as_str(), Some("tab\"le"));
        assert_eq!(parsed.get("count").unwrap().as_f64(), Some(3.0));
        assert_eq!(parsed.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(parsed.get("none"), Some(&Json::Null));
        let xs = parsed.get("xs").unwrap().as_array().unwrap();
        assert_eq!(xs[0].as_f64(), Some(1.5));
        assert_eq!(xs[1].as_str(), Some("two"));
    }

    #[test]
    fn parses_whitespace_nesting_and_unicode() {
        let parsed = parse(" { \"a\" : [ { \"b\" : -2e3 } ] , \"s\": \"caf\\u00e9é\" } ").unwrap();
        let inner = &parsed.get("a").unwrap().as_array().unwrap()[0];
        assert_eq!(inner.get("b").unwrap().as_f64(), Some(-2000.0));
        assert_eq!(parsed.get("s").unwrap().as_str(), Some("caféé"));
        assert_eq!(parse("[]").unwrap(), Json::Arr(vec![]));
        assert_eq!(parse("{}").unwrap(), Json::Obj(vec![]));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "tru",
            "1 2",
            "\"unterminated",
            "{'a':1}",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should not parse");
        }
        let err = parse("[1, ?]").unwrap_err();
        assert!(err.to_string().contains("byte 4"), "{err}");
    }

    #[test]
    fn accessors_reject_wrong_shapes() {
        let n = Json::Num(1.0);
        assert_eq!(n.get("x"), None);
        assert_eq!(n.as_str(), None);
        assert_eq!(n.as_array(), None);
        assert_eq!(Json::Str("s".into()).as_f64(), None);
    }
}
