//! A self-contained JSON implementation.
//!
//! The knowledge cycle exchanges *knowledge objects* between phases and, in
//! the paper's prototype, between machines (generation on the cluster,
//! analysis on a workstation). JSON is the interchange format. Rather than
//! pulling in `serde`, this module implements the small subset of JSON the
//! workspace needs: a value model, a pull reader (the one tokenizer; the
//! parser is a fold over it) and a writer with stable key ordering (so
//! serialized knowledge is diffable and reproducible).

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;
use std::io;

/// A JSON value.
///
/// Objects use a [`BTreeMap`] so that serialization order is deterministic,
/// which keeps exported knowledge objects byte-stable across runs — a
/// property the paper's reproducibility goal depends on.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number; stored as `f64` like the reference Python prototype.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with deterministically ordered keys.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Build an object from key/value pairs.
    #[must_use]
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// Borrow the value at `key` if this is an object containing it.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// Borrow the element at `index` if this is an array of sufficient length.
    #[must_use]
    pub fn at(&self, index: usize) -> Option<&Json> {
        match self {
            Json::Arr(items) => items.get(index),
            _ => None,
        }
    }

    /// The numeric payload, if this value is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as `u64`, when losslessly representable.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => Some(*n as u64),
            _ => None,
        }
    }

    /// The string payload, if this value is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this value is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array payload, if this value is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serialize compactly (no whitespace).
    #[must_use]
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        // Writing into a String cannot fail.
        let _ = self.write(&mut out, None, 0);
        out
    }

    /// Serialize with two-space indentation.
    #[must_use]
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        let _ = self.write(&mut out, Some(2), 0);
        out
    }

    fn write<W: fmt::Write>(
        &self,
        out: &mut W,
        indent: Option<usize>,
        depth: usize,
    ) -> fmt::Result {
        match self {
            Json::Null => out.write_str("null")?,
            Json::Bool(true) => out.write_str("true")?,
            Json::Bool(false) => out.write_str("false")?,
            Json::Num(n) => write_number(out, *n)?,
            Json::Str(s) => write_escaped(out, s)?,
            Json::Arr(items) => {
                if items.is_empty() {
                    return out.write_str("[]");
                }
                out.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.write_char(',')?;
                    }
                    newline_indent(out, indent, depth + 1)?;
                    item.write(out, indent, depth + 1)?;
                }
                newline_indent(out, indent, depth)?;
                out.write_char(']')?;
            }
            Json::Obj(map) => {
                if map.is_empty() {
                    return out.write_str("{}");
                }
                out.write_char('{')?;
                for (i, (key, value)) in map.iter().enumerate() {
                    if i > 0 {
                        out.write_char(',')?;
                    }
                    newline_indent(out, indent, depth + 1)?;
                    write_escaped(out, key)?;
                    out.write_char(':')?;
                    if indent.is_some() {
                        out.write_char(' ')?;
                    }
                    value.write(out, indent, depth + 1)?;
                }
                newline_indent(out, indent, depth)?;
                out.write_char('}')?;
            }
        }
        Ok(())
    }
}

/// Bridge [`fmt::Write`] onto an [`io::Write`].
struct FmtToIo<'a, W: io::Write> {
    inner: &'a mut W,
}

impl<W: io::Write> fmt::Write for FmtToIo<'_, W> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.inner.write_all(s.as_bytes()).map_err(|_| fmt::Error)
    }
}

/// Serializes one compact JSON object field by field, straight onto an
/// outgoing byte buffer — no [`Json`] tree and no intermediate `String`
/// per element, which is what a streamed listing of thousands of rows
/// is built from. The bytes equal `Json::obj(..).to_compact()` when the
/// fields are pushed in ascending key order (the order a [`Json::Obj`]
/// keeps them in): numbers and strings go through the same routines.
pub struct ObjectWriter<'a> {
    out: FmtToIo<'a, Vec<u8>>,
    fields: usize,
}

impl<'a> ObjectWriter<'a> {
    /// Open the object (writes `{`).
    pub fn new(out: &'a mut Vec<u8>) -> ObjectWriter<'a> {
        out.push(b'{');
        ObjectWriter {
            out: FmtToIo { inner: out },
            fields: 0,
        }
    }

    // Appending to a `Vec` cannot fail, so the writes below drop their
    // `fmt::Result`.
    fn key(&mut self, key: &str) {
        if self.fields > 0 {
            self.out.inner.push(b',');
        }
        self.fields += 1;
        let _ = write_escaped(&mut self.out, key);
        self.out.inner.push(b':');
    }

    /// Append a string field.
    pub fn string(&mut self, key: &str, value: &str) {
        self.key(key);
        let _ = write_escaped(&mut self.out, value);
    }

    /// Append a number field; `None` (like a non-finite value) is `null`.
    pub fn number(&mut self, key: &str, value: impl Into<Option<f64>>) {
        self.key(key);
        let _ = match value.into() {
            Some(n) => write_number(&mut self.out, n),
            None => fmt::Write::write_str(&mut self.out, "null"),
        };
    }

    /// Append an array field holding one object per item, each written
    /// field by field by `write` — a nested list rendered as directly as
    /// the fields around it.
    pub fn objects<T>(
        &mut self,
        key: &str,
        items: impl IntoIterator<Item = T>,
        mut write: impl FnMut(&mut ObjectWriter<'_>, T),
    ) {
        self.key(key);
        self.out.inner.push(b'[');
        for (i, item) in items.into_iter().enumerate() {
            if i > 0 {
                self.out.inner.push(b',');
            }
            let mut obj = ObjectWriter::new(self.out.inner);
            write(&mut obj, item);
            obj.finish();
        }
        self.out.inner.push(b']');
    }

    /// Close the object (writes `}`).
    pub fn finish(self) {
        self.out.inner.push(b'}');
    }
}

fn newline_indent<W: fmt::Write>(out: &mut W, indent: Option<usize>, depth: usize) -> fmt::Result {
    if let Some(width) = indent {
        out.write_char('\n')?;
        for _ in 0..width * depth {
            out.write_char(' ')?;
        }
    }
    Ok(())
}

/// Write a number the way every document does: non-finite as `null`,
/// integral below 2^53 without a fraction, any other in `Display`'s
/// shortest round-trip digits (`shortest_fraction`, else `fmt`).
pub fn write_number<W: fmt::Write>(out: &mut W, n: f64) -> fmt::Result {
    if !n.is_finite() {
        // JSON has no NaN/Inf; the knowledge model never produces them, but
        // be defensive instead of emitting invalid documents.
        out.write_str("null")
    } else if n.fract() == 0.0 && n.abs() < 2.0 * TWO_52 {
        write_int(out, n as i64)
    } else {
        let mut buf = [0; 40];
        match shortest_fraction(n.abs(), &mut buf) {
            Some(at) if n < 0.0 => out.write_char('-').and(write_ascii(out, &buf[at..])),
            Some(at) => write_ascii(out, &buf[at..]),
            None => write!(out, "{n}"),
        }
    }
}

const TWO_52: f64 = 4_503_599_627_370_496.0;

/// The digits of a non-integral finite `x > 0`, written to the end of
/// `buf`, and where they start: those of the smallest `d ≥ 1` with
/// `x·10^d < 2^52` at which `c = floor(x·10^d)` or `c + 1` passes the
/// exact check `c / 10^d == x` (both operands exact, so the quotient
/// rounds as parsing `c·10^-d` would). Below that bound `10^-d` exceeds
/// `ulp(x)`, so the `c` found is the one shortest decimal that reads back
/// as `x`: `Display`'s. A candidate more than `x·10^d·2^-50` from the
/// computed product cannot pass, so it skips the division.
fn shortest_fraction(x: f64, buf: &mut [u8; 40]) -> Option<usize> {
    let mut scale = 1.0;
    for d in 1..=22 {
        // 10^d is exact up to 10^22.
        scale *= 10.0;
        let product = x * scale;
        if product >= TWO_52 {
            return None;
        }
        let floor = product as u64;
        for c in [floor, floor + 1] {
            if (c as f64 - product).abs() < product / TWO_52 * 4.0 && c as f64 / scale == x {
                // `c`, at least one integer digit, a `.` before the last `d`.
                let end = buf.len() - 1;
                let at = push_digits(&mut buf[..end], c, d + 1);
                buf.copy_within(end - d..end, end - d + 1);
                buf[end - d] = b'.';
                return Some(at);
            }
        }
    }
    None
}

/// Write the digits of `v`, zero-padded to at least `width`, to the end
/// of `buf`, and return where they start.
fn push_digits(buf: &mut [u8], mut v: u64, width: usize) -> usize {
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 && buf.len() - at >= width {
            return at;
        }
    }
}

/// Write `i` in decimal, the bytes `Display` prints, from a stack buffer.
pub fn write_int<W: fmt::Write>(out: &mut W, i: i64) -> fmt::Result {
    let mut buf = [0; 20];
    if i < 0 {
        out.write_char('-')?;
    }
    let at = push_digits(&mut buf, i.unsigned_abs(), 1);
    write_ascii(out, &buf[at..])
}

fn write_ascii<W: fmt::Write>(out: &mut W, ascii: &[u8]) -> fmt::Result {
    out.write_str(std::str::from_utf8(ascii).map_err(|_| fmt::Error)?)
}

/// Write a quoted, escaped string the way every document does, each run
/// of bytes that needs no escape pushed whole.
pub fn write_escaped<W: fmt::Write>(out: &mut W, s: &str) -> fmt::Result {
    out.write_char('"')?;
    let mut clean = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        // An escaped byte is ASCII, so `i` is a char boundary.
        out.write_str(&s[clean..i])?;
        if escape.is_empty() {
            let hex = |n: u8| b"0123456789abcdef"[usize::from(n)];
            write_ascii(out, &[b'\\', b'u', b'0', b'0', hex(b >> 4), hex(b & 15)])?;
        } else {
            out.write_str(escape)?;
        }
        clean = i + 1;
    }
    out.write_str(&s[clean..])?;
    out.write_char('"')
}

/// An error produced while parsing JSON text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the error in the input.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "json parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Parse a JSON document. The entire input must be consumed (trailing
/// whitespace allowed).
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let mut reader = Reader::new(input);
    let value = reader.value()?;
    reader.finish()?;
    Ok(value)
}

/// What [`Reader::begin`] found: a scalar, consumed whole, or a container
/// just opened. `Num` is the number's text, which `str::parse::<f64>`
/// accepts and which is an integer literal when it has no `.`, `e` or
/// `E`; `Str` is borrowed from the input unless it had escapes.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // the variants are the six kinds of JSON value
pub enum Token<'a> {
    Null,
    Bool(bool),
    Num(&'a str),
    Str(Cow<'a, str>),
    Arr,
    Obj,
}

/// A pull reader over a JSON text — the one tokenizer; [`parse`] is a
/// fold over it. The caller walks the document ([`Reader::begin`] per
/// value, then `next_element` / `next_key` through a container, or
/// [`Reader::skip_value`]) and takes each scalar as it passes, so
/// decoding allocates what the caller keeps and nothing else.
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
    /// The innermost open container has no member yet, so the next one
    /// follows no comma. One flag serves every depth: opening a container
    /// sets it and completing any value, a nested container's closing
    /// bracket included, clears it.
    fresh: bool,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`.
    #[must_use]
    pub fn new(text: &'a str) -> Reader<'a> {
        let (pos, fresh) = (0, false);
        Reader { text, pos, fresh }
    }

    fn err(&self, message: &str) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.to_owned(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let byte = self.peek();
        self.pos += usize::from(byte.is_some());
        byte
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, text: &str) -> Result<(), ParseError> {
        self.skip_ws();
        if !self.text.as_bytes()[self.pos..].starts_with(text.as_bytes()) {
            return Err(self.err(&format!("expected '{text}'")));
        }
        self.pos += text.len();
        Ok(())
    }

    /// Begin the next value: a scalar is consumed whole; of a container
    /// only the opening bracket, `next_element` / `next_key` step through it.
    pub fn begin(&mut self) -> Result<Token<'a>, ParseError> {
        self.skip_ws();
        let token = match self.peek() {
            Some(b'n') => self.expect("null").map(|()| Token::Null)?,
            Some(b't') => self.expect("true").map(|()| Token::Bool(true))?,
            Some(b'f') => self.expect("false").map(|()| Token::Bool(false))?,
            Some(b'"') => Token::Str(self.string()?),
            Some(b'-' | b'0'..=b'9') => Token::Num(self.number()?),
            Some(b'[') => Token::Arr,
            Some(b'{') => Token::Obj,
            Some(_) => return Err(self.err("unexpected character")),
            None => return Err(self.err("unexpected end of input")),
        };
        self.fresh = matches!(token, Token::Arr | Token::Obj);
        self.pos += usize::from(self.fresh); // past the opening bracket
        Ok(token)
    }

    fn number(&mut self) -> Result<&'a str, ParseError> {
        let start = self.pos;
        self.pos += usize::from(self.peek() == Some(b'-'));
        let mut mantissa = self.digits();
        if self.peek() == Some(b'.') {
            self.pos += 1;
            mantissa += self.digits();
        }
        let mut valid = mantissa > 0;
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            self.pos += usize::from(matches!(self.peek(), Some(b'+' | b'-')));
            valid &= self.digits() > 0;
        }
        match valid {
            true => Ok(&self.text[start..self.pos]),
            false => Err(self.err("invalid number")),
        }
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn string(&mut self) -> Result<Cow<'a, str>, ParseError> {
        self.expect("\"")?;
        let mut out = Cow::Borrowed("");
        loop {
            let start = self.pos;
            // Take a run of plain bytes at once. It ends before an ASCII
            // byte, so it is cut on character boundaries.
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            let run = &self.text[start..self.pos];
            match &mut out {
                // Nothing unescaped yet: this is the first run.
                Cow::Borrowed(_) => out = Cow::Borrowed(run),
                Cow::Owned(text) => text.push_str(run),
            }
            let unescaped = match self.bump() {
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => '"',
                    Some(b'\\') => '\\',
                    Some(b'/') => '/',
                    Some(b'n') => '\n',
                    Some(b'r') => '\r',
                    Some(b't') => '\t',
                    Some(b'b') => '\u{0008}',
                    Some(b'f') => '\u{000c}',
                    Some(b'u') => self.unicode_escape()?,
                    _ => return Err(self.err("invalid escape sequence")),
                },
                Some(_) => return Err(self.err("control character in string")),
                None => return Err(self.err("unterminated string")),
            };
            out.to_mut().push(unescaped);
        }
    }

    /// The character of a `\u` escape past its `\u`, surrogate pairs
    /// included.
    fn unicode_escape(&mut self) -> Result<char, ParseError> {
        let code = self.hex4()?;
        if !(0xd800..0xdc00).contains(&code) {
            return char::from_u32(code).ok_or_else(|| self.err("invalid unicode escape"));
        }
        if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
            return Err(self.err("unpaired surrogate"));
        }
        let low = self.hex4()?;
        if !(0xdc00..0xe000).contains(&low) {
            return Err(self.err("invalid low surrogate"));
        }
        char::from_u32(0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00))
            .ok_or_else(|| self.err("invalid surrogate pair"))
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let digit = self.bump().and_then(|b| (b as char).to_digit(16));
            code = code * 16 + digit.ok_or_else(|| self.err("invalid hex digit"))?;
        }
        Ok(code)
    }

    /// Is there another element in the open array? `false` consumes its `]`.
    pub fn next_element(&mut self) -> Result<bool, ParseError> {
        self.next_member(b']', "expected ',' or ']' in array")
    }

    /// The next member's key in the open object, its value left to be
    /// read; `None` consumes the object's `}`.
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, ParseError> {
        if !self.next_member(b'}', "expected ',' or '}' in object")? {
            return Ok(None);
        }
        let key = self.string()?;
        self.expect(":")?;
        Ok(Some(key))
    }

    fn next_member(&mut self, close: u8, expected: &str) -> Result<bool, ParseError> {
        self.skip_ws();
        let fresh = std::mem::replace(&mut self.fresh, false);
        match self.peek() {
            Some(b) if b == close && fresh => self.pos += 1,
            _ if fresh => return Ok(true),
            Some(b',') => {
                self.pos += 1;
                return Ok(true);
            }
            Some(b) if b == close => self.pos += 1,
            _ => return Err(self.err(expected)),
        }
        Ok(false)
    }

    /// Consume one value of any kind, tokenized like every other.
    pub fn skip_value(&mut self) -> Result<(), ParseError> {
        let token = self.begin()?;
        while match token {
            Token::Arr => self.next_element()?,
            Token::Obj => self.next_key()?.is_some(),
            _ => false,
        } {
            self.skip_value()?;
        }
        Ok(())
    }

    /// Consume one value of any kind as a [`Json`] tree.
    pub fn value(&mut self) -> Result<Json, ParseError> {
        Ok(match self.begin()? {
            Token::Null => Json::Null,
            Token::Bool(b) => Json::Bool(b),
            Token::Num(text) => Json::Num(text.parse().map_err(|_| self.err("invalid number"))?),
            Token::Str(s) => Json::Str(s.into_owned()),
            Token::Arr => {
                let mut items = Vec::new();
                while self.next_element()? {
                    items.push(self.value()?);
                }
                Json::Arr(items)
            }
            Token::Obj => {
                let mut map = BTreeMap::new();
                while let Some(key) = self.next_key()? {
                    map.insert(key.into_owned(), self.value()?);
                }
                Json::Obj(map)
            }
        })
    }

    /// Nothing but whitespace may follow the document.
    pub fn finish(&mut self) -> Result<(), ParseError> {
        self.skip_ws();
        let trailing = |_| Err(self.err("trailing data after document"));
        self.peek().map_or(Ok(()), trailing)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_compact())
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Num(n)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Num(n as f64)
    }
}

impl From<i64> for Json {
    fn from(n: i64) -> Json {
        Json::Num(n as f64)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Num(n as f64)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_owned())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(items: Vec<T>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn parse_scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse("true").unwrap(), Json::Bool(true));
        assert_eq!(parse("false").unwrap(), Json::Bool(false));
        assert_eq!(parse("42").unwrap(), Json::Num(42.0));
        assert_eq!(parse("-3.5e2").unwrap(), Json::Num(-350.0));
        assert_eq!(parse("\"hi\"").unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn parse_nested() {
        let doc = r#"{"a": [1, 2, {"b": null}], "c": "x\ny"}"#;
        let v = parse(doc).unwrap();
        assert_eq!(
            v.get("a").unwrap().at(2).unwrap().get("b"),
            Some(&Json::Null)
        );
        assert_eq!(v.get("c").unwrap().as_str(), Some("x\ny"));
    }

    #[test]
    fn parse_unicode_escape() {
        assert_eq!(parse(r#""é""#).unwrap().as_str(), Some("é"));
        assert_eq!(parse(r#""😀""#).unwrap().as_str(), Some("😀"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("nul").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse(r#""\q""#).is_err());
    }

    #[test]
    fn reader_skips_what_it_is_not_asked_for_and_borrows_plain_strings() {
        let mut r = Reader::new(r#" {"skip":[1,{"a":"\n"},null],"plain":"text","esc":"a\tb"} "#);
        assert_eq!(r.begin().unwrap(), Token::Obj);
        assert_eq!(r.next_key().unwrap().as_deref(), Some("skip"));
        r.skip_value().unwrap();
        assert_eq!(r.next_key().unwrap().as_deref(), Some("plain"));
        assert!(matches!(
            r.begin().unwrap(),
            Token::Str(Cow::Borrowed("text"))
        ));
        assert_eq!(r.next_key().unwrap().as_deref(), Some("esc"));
        assert!(matches!(r.begin().unwrap(), Token::Str(Cow::Owned(s)) if s == "a\tb"));
        assert_eq!(r.next_key().unwrap(), None);
        r.finish().unwrap();
        // What is skipped is tokenized like what is taken.
        assert!(Reader::new("[1,-]").skip_value().is_err());
        assert!(Reader::new(r#"{"a":"\q"}"#).skip_value().is_err());
    }

    #[test]
    fn roundtrip_compact() {
        let doc = r#"{"bw":2850.12,"iters":[1,2,3],"name":"ior","ok":true}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.to_compact(), doc);
    }

    #[test]
    fn pretty_is_reparseable() {
        let v = Json::obj(vec![
            ("metrics", Json::from(vec![1.5f64, 2.5])),
            ("name", Json::from("test")),
        ]);
        let pretty = v.to_pretty();
        assert_eq!(parse(&pretty).unwrap(), v);
        assert!(pretty.contains('\n'));
    }

    #[test]
    fn object_keys_are_sorted() {
        let v = parse(r#"{"z":1,"a":2}"#).unwrap();
        assert_eq!(v.to_compact(), r#"{"a":2,"z":1}"#);
    }

    #[test]
    fn integers_serialize_without_fraction() {
        assert_eq!(Json::Num(80.0).to_compact(), "80");
        assert_eq!(Json::Num(0.5).to_compact(), "0.5");
    }

    #[test]
    fn non_finite_serializes_as_null() {
        assert_eq!(Json::Num(f64::NAN).to_compact(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_compact(), "null");
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        fn arb_json() -> impl Strategy<Value = Json> {
            let leaf = prop_oneof![
                Just(Json::Null),
                any::<bool>().prop_map(Json::Bool),
                (-1e12f64..1e12).prop_map(Json::Num),
                "[a-zA-Z0-9 _\\\"\n\té😀-]{0,12}".prop_map(Json::Str),
            ];
            leaf.prop_recursive(3, 24, 4, |inner| {
                prop_oneof![
                    proptest::collection::vec(inner.clone(), 0..4).prop_map(Json::Arr),
                    proptest::collection::btree_map("[a-z]{1,6}", inner, 0..4).prop_map(Json::Obj),
                ]
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]
            #[test]
            fn arbitrary_values_roundtrip(value in arb_json()) {
                let compact = value.to_compact();
                prop_assert_eq!(&parse(&compact).unwrap(), &value);
                let pretty = value.to_pretty();
                prop_assert_eq!(&parse(&pretty).unwrap(), &value);
            }

            #[test]
            fn parser_never_panics(text in ".{0,80}") {
                let _ = parse(&text);
            }
        }

        /// Every `f64` bit pattern and the short decimals the corpus
        /// holds, with the doubles on either side of each.
        fn arb_number() -> impl Strategy<Value = f64> {
            let short = (
                0u64..100_000_000_000_000_000,
                0u32..19,
                any::<bool>(),
                0u64..3,
            )
                .prop_map(|(m, k, negative, side)| {
                    let digits = m % 10u64.pow(1 + (m % 17) as u32);
                    let x: f64 = format!("{}{digits}e-{k}", if negative { "-" } else { "" })
                        .parse()
                        .unwrap();
                    match side {
                        0 => x,
                        1 => x.next_up(),
                        _ => x.next_down(),
                    }
                });
            prop_oneof![any::<u64>().prop_map(f64::from_bits), short]
        }

        fn arb_text() -> impl Strategy<Value = String> {
            let char = prop_oneof![0u32..0x80, 0u32..0x800, 0u32..0x11_0000]
                .prop_map(|c| char::from_u32(c).unwrap_or('\u{fffd}'));
            proptest::collection::vec(char, 0..24).prop_map(|chars| chars.into_iter().collect())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(20_000))]
            #[test]
            fn numbers_print_as_display_prints_them(n in arb_number()) {
                prop_assert_eq!(number(n), model_number(n), "{:?}", n.to_bits());
            }

            #[test]
            fn integers_print_as_display_prints_them(i in any::<i64>()) {
                let mut out = String::new();
                write_int(&mut out, i).unwrap();
                prop_assert_eq!(out, i.to_string());
            }

            #[test]
            fn strings_escape_as_char_by_char(s in arb_text()) {
                let mut out = String::new();
                write_escaped(&mut out, &s).unwrap();
                prop_assert_eq!(out, model_escaped(&s));
            }
        }
    }

    fn number(n: f64) -> String {
        let mut out = String::new();
        write_number(&mut out, n).unwrap();
        out
    }

    /// The number writer as it was before its fast paths: the bytes
    /// every document held, which the fast paths must keep.
    fn model_number(n: f64) -> String {
        if !n.is_finite() {
            "null".to_owned()
        } else if n.fract() == 0.0 && n.abs() < 2f64.powi(53) {
            format!("{}", n as i64)
        } else {
            format!("{n}")
        }
    }

    /// The string writer as it was before it pushed clean runs whole.
    fn model_escaped(s: &str) -> String {
        let mut out = String::from('"');
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
        out.push('"');
        out
    }

    #[test]
    fn edge_numbers_print_as_display_prints_them() {
        let two_52 = 2f64.powi(52);
        let two_53 = 2f64.powi(53);
        let edges = [
            i64::MIN as f64,
            i64::MAX as f64,
            0.0,
            -0.0,
            two_52 - 0.5,
            two_52 + 0.5,
            two_52 - 1.5,
            -(two_52 - 0.5),
            two_53 - 1.0,
            two_53,
            two_53 + 2.0,
            5e-324,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
            f64::EPSILON,
            0.1 + 0.2,
            1e-7,
            -1e-7,
            0.1,
            0.5,
            1.0 - f64::EPSILON / 2.0,
            1e22 + 0.5,
            123.456,
            1e15 + 0.125,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        for n in edges {
            for x in [n, n.next_up(), n.next_down()] {
                assert_eq!(number(x), model_number(x), "{x:?}");
            }
        }
        for i in [i64::MIN, i64::MIN + 1, -1, 0, 1, 9, 10, i64::MAX] {
            let mut out = String::new();
            write_int(&mut out, i).unwrap();
            assert_eq!(out, i.to_string());
        }
    }

    #[test]
    fn edge_strings_escape_as_char_by_char() {
        let controls: String = (0u8..0x20).map(char::from).collect();
        for s in [
            "",
            "plain",
            "\"",
            "\\",
            "a\"b\\c",
            &controls,
            "\u{7f}",
            "é€😀 mixed\twith\u{1}escapes\u{1f}",
            "😀",
        ] {
            let mut out = String::new();
            write_escaped(&mut out, s).unwrap();
            assert_eq!(out, model_escaped(s), "{s:?}");
        }
    }

    #[test]
    fn escapes_control_characters() {
        let v = Json::Str("a\u{0001}b".into());
        assert_eq!(v.to_compact(), "\"a\\u0001b\"");
        assert_eq!(parse(&v.to_compact()).unwrap(), v);
    }

    #[test]
    fn object_writer_nests_arrays_of_objects_like_the_tree() {
        let rows: [(&str, f64); 3] = [("a\"q\\", 1.5), ("ü\n", f64::NAN), ("", f64::INFINITY)];
        let mut out = Vec::new();
        let mut obj = ObjectWriter::new(&mut out);
        obj.objects("empty", std::iter::empty::<()>(), |_, ()| {});
        obj.objects("rows", rows, |row, (name, x)| {
            row.string("name", name);
            row.number("x", x);
        });
        obj.number("z", None);
        obj.finish();
        let tree = Json::obj(vec![
            ("empty", Json::Arr(Vec::new())),
            (
                "rows",
                Json::Arr(
                    rows.iter()
                        .map(|(name, x)| {
                            Json::obj(vec![("name", Json::from(*name)), ("x", Json::from(*x))])
                        })
                        .collect(),
                ),
            ),
            ("z", Json::Null),
        ]);
        assert_eq!(String::from_utf8(out).unwrap(), tree.to_compact());
    }
}
