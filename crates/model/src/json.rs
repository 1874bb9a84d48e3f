//! Minimal in-tree JSON: a value tree, a strict parser, a streaming
//! writer, and [`ToJson`]/[`FromJson`] conversion traits.
//!
//! The build environment resolves no external crates, so `serde_json`
//! cannot sit in the dependency graph; this module carries the small
//! subset the workspace needs — trace persistence (`mcs-trace::io`),
//! experiment-result export (`mcs-experiments`) and the serving daemon's
//! checkpoints (`mcs-serve`). The on-disk shape matches what the previous
//! serde derives produced (objects keyed by field name, transparent
//! newtype ids), so existing trace/result files keep loading.
//!
//! Every byte of output goes through [`JsonWriter`], the one place the
//! layout rules live (compact or two-space pretty, `[]`/`{}` when empty,
//! integer and shortest-round-trip number forms). A [`Json`] tree writes
//! itself through it, and [`ToJson::write_json`] streams a value through
//! it without building the tree: [`to_string_pretty`] of a value equals
//! `value.to_json().to_string_pretty()` byte for byte, in one pass.
//!
//! [`write_pretty`] streams the same bytes into any [`std::io::Write`]
//! through a buffer that it hands over each time it passes
//! [`WRITE_CHUNK`] bytes, so a large document is never held whole.
//!
//! The parser is linear in the input: a string copies each run between
//! escapes in one piece. It nests at most [`MAX_DEPTH`] arrays and
//! objects and reports the byte that opens one level more, so hostile
//! input cannot overflow the stack.
//!
//! Object keys preserve insertion order, numbers are `f64` (adequate for
//! costs, times, counts ≤ 2⁵³ and the `u64` seeds we store, which are
//! user-chosen small values — the writer round-trips integers exactly when
//! they fit the `f64` mantissa).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

/// Parse or conversion failure.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// What went wrong.
    pub msg: String,
    /// Byte offset in the input (0 for conversion errors).
    pub at: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for JsonError {}

impl JsonError {
    /// A conversion (not parse-position) error.
    pub fn conv(msg: impl Into<String>) -> Self {
        JsonError {
            msg: msg.into(),
            at: 0,
        }
    }
}

/// 1-based `(line, column)` of byte offset `at` in `input`, for reporting
/// parse positions in a form editors understand. Offsets past the end
/// clamp to the final position; columns count bytes, which matches the
/// ASCII trace/checkpoint files this workspace writes.
#[must_use]
pub fn line_col(input: &str, at: usize) -> (usize, usize) {
    let at = at.min(input.len());
    let prefix = &input.as_bytes()[..at];
    let line = prefix.iter().filter(|&&b| b == b'\n').count() + 1;
    let line_start = prefix
        .iter()
        .rposition(|&b| b == b'\n')
        .map_or(0, |p| p + 1);
    (line, at - line_start + 1)
}

impl Json {
    /// Field lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Required-field lookup with a descriptive error.
    pub fn field(&self, key: &str) -> Result<&Json, JsonError> {
        self.get(key)
            .ok_or_else(|| JsonError::conv(format!("missing field `{key}`")))
    }

    /// The number inside, if any.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string inside, if any.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array inside, if any.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Pretty serialization (two-space indent).
    pub fn to_string_pretty(&self) -> String {
        to_string_pretty(self)
    }
}

impl std::fmt::Display for Json {
    /// Compact serialization.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write_json(&mut JsonWriter::compact(&mut out));
        f.write_str(&out)
    }
}

/// Pretty serialization (two-space indent) of any [`ToJson`] value in one
/// pass: the bytes of `value.to_json().to_string_pretty()`, without
/// building the tree.
pub fn to_string_pretty<T: ToJson + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    value.write_json(&mut JsonWriter::pretty(&mut out));
    out
}

/// Pretty serialization of `value` into `sink`: the bytes of
/// [`to_string_pretty`], written through a buffer that is handed to `sink`
/// each time it passes [`WRITE_CHUNK`] bytes (checked between elements),
/// so the document is never held whole.
///
/// # Errors
///
/// Returns the first error `sink` reports; nothing is written after it.
pub fn write_pretty<T: ToJson + ?Sized>(
    value: &T,
    sink: &mut dyn std::io::Write,
) -> std::io::Result<()> {
    let mut buf = String::with_capacity(WRITE_CHUNK + WRITE_CHUNK / 4);
    let mut w = JsonWriter::pretty(&mut buf);
    w.sink = Some(sink);
    value.write_json(&mut w);
    w.hand_over();
    match w.error.take() {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// Bytes a [`write_pretty`] buffer collects before it is handed over.
pub const WRITE_CHUNK: usize = 64 * 1024;

/// A line break and the indentation of the first 32 levels.
const NEWLINE: &str = "\n                                                                ";

/// A streaming JSON writer, and the only place the layout rules live.
///
/// Values are written in document order: scalars with [`Self::num`],
/// [`Self::str`], [`Self::bool`] and [`Self::null`], containers with
/// [`Self::array`] and [`Self::object`] around a closure that writes their
/// contents, and each object field as [`Self::key`] followed by its value.
/// Compact output has no whitespace. Pretty output puts each element of a
/// non-empty container on its own line, indented two spaces per level,
/// writes `"key": value`, and writes empty containers as `[]` and `{}`.
pub struct JsonWriter<'a> {
    out: &'a mut String,
    /// Spaces per nesting level; `None` writes compact output.
    indent: Option<usize>,
    depth: usize,
    /// Nothing has been written into the innermost open container yet.
    empty: bool,
    /// A key was just written, so the next value completes its field.
    after_key: bool,
    /// Where [`write_pretty`] hands `out` over; `None` keeps it all.
    sink: Option<&'a mut dyn std::io::Write>,
    /// The first error `sink` reported.
    error: Option<std::io::Error>,
}

impl<'a> JsonWriter<'a> {
    /// A writer appending pretty (two-space indented) JSON to `out`.
    pub fn pretty(out: &'a mut String) -> Self {
        Self::new(out, Some(2))
    }

    /// A writer appending compact JSON to `out`.
    pub fn compact(out: &'a mut String) -> Self {
        Self::new(out, None)
    }

    fn new(out: &'a mut String, indent: Option<usize>) -> Self {
        JsonWriter {
            out,
            indent,
            depth: 0,
            empty: true,
            after_key: false,
            sink: None,
            error: None,
        }
    }

    /// Writes `null`.
    pub fn null(&mut self) {
        self.value();
        self.out.push_str("null");
    }

    /// Writes `true` or `false`.
    pub fn bool(&mut self, b: bool) {
        self.value();
        self.out.push_str(if b { "true" } else { "false" });
    }

    /// Writes a number: integral values below 9·10¹⁵ in magnitude as
    /// integers, other finite values in shortest-round-trip form, and
    /// non-finite values as `null`.
    pub fn num(&mut self, n: f64) {
        self.value();
        write_number(self.out, n);
    }

    /// Writes a string, escaped.
    pub fn str(&mut self, s: &str) {
        self.value();
        write_string(self.out, s);
    }

    /// Starts an object field; the next value written is its value.
    pub fn key(&mut self, key: &str) {
        self.element();
        write_string(self.out, key);
        self.out
            .push_str(if self.indent.is_some() { ": " } else { ":" });
        self.after_key = true;
    }

    /// Writes an array whose elements `body` writes.
    pub fn array(&mut self, body: impl FnOnce(&mut Self)) {
        self.container('[', ']', body);
    }

    /// Writes an object whose fields `body` writes with [`Self::key`].
    pub fn object(&mut self, body: impl FnOnce(&mut Self)) {
        self.container('{', '}', body);
    }

    fn container(&mut self, open: char, close: char, body: impl FnOnce(&mut Self)) {
        self.value();
        self.out.push(open);
        self.depth += 1;
        let outer = std::mem::replace(&mut self.empty, true);
        body(self);
        self.depth -= 1;
        if !self.empty {
            self.newline();
        }
        self.empty = outer;
        self.out.push(close);
    }

    /// Opens a value: after a key it completes that field, inside an
    /// array it starts a new element, at the top level it needs nothing.
    fn value(&mut self) {
        if self.after_key {
            self.after_key = false;
        } else if self.depth > 0 {
            self.element();
        }
    }

    /// The separator and line break before an array element or a field.
    fn element(&mut self) {
        if self.sink.is_some() && self.out.len() >= WRITE_CHUNK {
            self.hand_over();
        }
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        self.newline();
    }

    /// Writes the buffer to the sink, if there is one, and empties it.
    /// After an error nothing more is written.
    fn hand_over(&mut self) {
        if let Some(sink) = self.sink.as_mut() {
            if self.error.is_none() {
                self.error = sink.write_all(self.out.as_bytes()).err();
            }
            self.out.clear();
        }
    }

    fn newline(&mut self) {
        if let Some(width) = self.indent {
            let spaces = width * self.depth;
            if spaces < NEWLINE.len() {
                self.out.push_str(&NEWLINE[..1 + spaces]);
            } else {
                self.out.push('\n');
                self.out.extend(std::iter::repeat_n(' ', spaces));
            }
        }
    }
}

fn write_number(out: &mut String, n: f64) {
    if !n.is_finite() {
        // JSON has no Inf/NaN; serialize as null like serde_json's lossy modes.
        out.push_str("null");
    } else if n.abs() < 9.0e15 && (n as i64) as f64 == n {
        // Integral: `as i64` is exact in this range.
        write_integer(out, n as i64);
    } else {
        // `{:?}` is Rust's shortest round-trip float formatting.
        let _ = write!(out, "{n:?}");
    }
}

/// `"00"`, `"01"`, …, `"99"`.
const DIGIT_PAIRS: &[u8; 200] = b"00010203040506070809101112131415161718192021222324252627282930313233343536373839404142434445464748495051525354555657585960616263646566676869707172737475767778798081828384858687888990919293949596979899";

/// Appends what `{}` prints for `v`, two digits per step and without the
/// formatting machinery: most numbers in a checkpoint (ids, and counts at
/// decay 1) take this path.
fn write_integer(out: &mut String, v: i64) {
    if v < 0 {
        out.push('-');
    }
    let mut rest = v.unsigned_abs();
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    while rest >= 10 {
        let pair = (rest % 100) as usize * 2;
        rest /= 100;
        at -= 2;
        digits[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if rest > 0 || at == digits.len() {
        at -= 1;
        digits[at] = b'0' + rest as u8;
    }
    out.extend(digits[at..].iter().map(|&d| char::from(d)));
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Deepest nesting of arrays and objects [`parse`] accepts (serde_json's
/// limit). Checkpoints and cost models nest 4 levels, traces 5.
pub const MAX_DEPTH: usize = 128;

/// Parses a complete JSON document (rejects trailing garbage, and nesting
/// deeper than [`MAX_DEPTH`] at the byte that opens the first level too
/// deep).
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(JsonError {
            msg: "trailing characters after document".into(),
            at: pos,
        });
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn err(msg: &str, at: usize) -> JsonError {
    JsonError {
        msg: msg.into(),
        at,
    }
}

fn expect(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), JsonError> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(err(&format!("expected `{lit}`"), *pos))
    }
}

/// Parses one value whose enclosing containers number `depth`.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err(err("unexpected end of input", *pos)),
        Some(b'[' | b'{') if depth == MAX_DEPTH => Err(err(
            &format!("nesting deeper than {MAX_DEPTH} levels"),
            *pos,
        )),
        Some(b'n') => expect(b, pos, "null").map(|()| Json::Null),
        Some(b't') => expect(b, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => expect(b, pos, "false").map(|()| Json::Bool(false)),
        Some(b'"') => parse_string(b, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(err("expected `,` or `]`", *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields: Vec<(String, Json)> = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(err("expected `:`", *pos));
                }
                *pos += 1;
                let value = parse_value(b, pos, depth + 1)?;
                fields.push((key, value));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(err("expected `,` or `}`", *pos)),
                }
            }
        }
        Some(_) => parse_number(b, pos),
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    if b.get(*pos) != Some(&b'"') {
        return Err(err("expected string", *pos));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err(err("unterminated string", *pos)),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                let esc = b.get(*pos).ok_or_else(|| err("bad escape", *pos))?;
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = b
                            .get(*pos..*pos + 4)
                            .ok_or_else(|| err("truncated \\u escape", *pos))?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex)
                                .map_err(|_| err("non-utf8 \\u escape", *pos))?,
                            16,
                        )
                        .map_err(|_| err("bad \\u escape", *pos))?;
                        *pos += 4;
                        // Surrogate pairs are not produced by our writer;
                        // map lone surrogates to the replacement character.
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                    }
                    _ => return Err(err("unknown escape", *pos - 1)),
                }
            }
            Some(&c) if c < 0x20 => return Err(err("control character in string", *pos)),
            Some(_) => {
                // Copy the run up to the next quote, backslash or control
                // byte in one piece. Every byte that ends a run is ASCII,
                // so a run cut from a `&str` is valid UTF-8 on its own and
                // each byte is validated once.
                let start = *pos;
                while b
                    .get(*pos)
                    .is_some_and(|&c| c != b'"' && c != b'\\' && c >= 0x20)
                {
                    *pos += 1;
                }
                let run = std::str::from_utf8(&b[start..*pos])
                    .map_err(|_| err("invalid utf-8", start))?;
                out.push_str(run);
            }
        }
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while matches!(
        b.get(*pos),
        Some(b'0'..=b'9') | Some(b'.') | Some(b'e') | Some(b'E') | Some(b'+') | Some(b'-')
    ) {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|_| err("bad number", start))?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| err("bad number", start))
}

/// Conversion into [`Json`]. The replacement for `serde::Serialize` in this
/// workspace; implement by hand or through [`crate::impl_to_json!`].
pub trait ToJson {
    /// Converts `self` to a JSON value tree.
    fn to_json(&self) -> Json;

    /// Writes `self` into `w`: the bytes of writing [`Self::to_json`]'s
    /// tree. The default builds that tree; the number, id, `Vec`, tuple
    /// and [`Json`] impls and [`crate::impl_to_json!`] write directly.
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        self.to_json().write_json(w);
    }
}

/// Conversion out of [`Json`]. The replacement for `serde::Deserialize`.
pub trait FromJson: Sized {
    /// Reconstructs `Self`, validating shape and ranges.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] describing the first mismatch.
    fn from_json(v: &Json) -> Result<Self, JsonError>;
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }

    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.num(*self);
    }
}

impl FromJson for f64 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_f64()
            .ok_or_else(|| JsonError::conv("expected number for f64"))
    }
}

macro_rules! impl_int_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Num(*self as f64)
            }

            fn write_json(&self, w: &mut JsonWriter<'_>) {
                w.num(*self as f64);
            }
        }
        impl FromJson for $t {
            /// Strict: rejects non-integers and values outside the target
            /// range (in particular, negatives for the unsigned kinds)
            /// instead of silently truncating through `as`.
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                let n = v
                    .as_f64()
                    .ok_or_else(|| JsonError::conv(concat!("expected number for ", stringify!($t))))?;
                if !n.is_finite() || n.fract() != 0.0 {
                    return Err(JsonError::conv(format!(
                        concat!("expected integer for ", stringify!($t), ", got {}"),
                        n
                    )));
                }
                // `MAX as f64` rounds *up* for the 64-bit kinds (2^63−1
                // and 2^64−1 are not representable), so the upper bound
                // must be exclusive there — otherwise exactly 2^63/2^64
                // would pass and saturate through `as`. A round-trip
                // check alone has the same blind spot: the saturated
                // MAX rounds back to exactly 2^63/2^64. For the 32-bit
                // kinds MAX is exact and inclusive is correct. MIN is
                // exactly representable for every kind (0 or −2^63).
                let in_range = if (<$t>::MAX as u128) < (1u128 << 53) {
                    n >= <$t>::MIN as f64 && n <= <$t>::MAX as f64
                } else {
                    n >= <$t>::MIN as f64 && n < <$t>::MAX as f64
                };
                if !in_range {
                    return Err(JsonError::conv(format!(
                        concat!("{} out of range for ", stringify!($t)),
                        n
                    )));
                }
                Ok(n as $t)
            }
        }
    )*};
}

impl_int_json!(u32, u64, usize, i64, i32);

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Bool(b) => Ok(*b),
            _ => Err(JsonError::conv("expected bool")),
        }
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_str()
            .map(str::to_owned)
            .ok_or_else(|| JsonError::conv("expected string"))
    }
}

impl ToJson for &str {
    fn to_json(&self) -> Json {
        Json::Str((*self).to_owned())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }

    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.array(|w| self.iter().for_each(|v| v.write_json(w)));
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_arr()
            .ok_or_else(|| JsonError::conv("expected array"))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }

    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.array(|w| {
            self.0.write_json(w);
            self.1.write_json(w);
        });
    }
}

impl<A: ToJson, B: ToJson, C: ToJson> ToJson for (A, B, C) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json(), self.2.to_json()])
    }

    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.array(|w| {
            self.0.write_json(w);
            self.1.write_json(w);
            self.2.write_json(w);
        });
    }
}

/// Fixed-arity array lookup shared by the tuple [`FromJson`] impls.
fn tuple_elems<const N: usize>(v: &Json) -> Result<&[Json], JsonError> {
    let arr = v
        .as_arr()
        .ok_or_else(|| JsonError::conv(format!("expected {N}-element array")))?;
    if arr.len() != N {
        return Err(JsonError::conv(format!(
            "expected {N}-element array, got {}",
            arr.len()
        )));
    }
    Ok(arr)
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let arr = tuple_elems::<2>(v)?;
        Ok((A::from_json(&arr[0])?, B::from_json(&arr[1])?))
    }
}

impl<A: FromJson, B: FromJson, C: FromJson> FromJson for (A, B, C) {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let arr = tuple_elems::<3>(v)?;
        Ok((
            A::from_json(&arr[0])?,
            B::from_json(&arr[1])?,
            C::from_json(&arr[2])?,
        ))
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<K: ToString, V: ToJson> ToJson for BTreeMap<K, V> {
    fn to_json(&self) -> Json {
        Json::Obj(
            self.iter()
                .map(|(k, v)| (k.to_string(), v.to_json()))
                .collect(),
        )
    }
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }

    fn write_json(&self, w: &mut JsonWriter<'_>) {
        match self {
            Json::Null => w.null(),
            Json::Bool(b) => w.bool(*b),
            Json::Num(n) => w.num(*n),
            Json::Str(s) => w.str(s),
            Json::Arr(items) => w.array(|w| items.iter().for_each(|v| v.write_json(w))),
            Json::Obj(fields) => w.object(|w| {
                for (k, v) in fields {
                    w.key(k);
                    v.write_json(w);
                }
            }),
        }
    }
}

/// Derives [`ToJson`] for a struct with named public-to-the-macro fields,
/// as an object keyed by field name in the listed order. Both the tree
/// ([`ToJson::to_json`]) and the one-pass writer ([`ToJson::write_json`])
/// come from the one field list:
///
/// ```ignore
/// impl_to_json!(Row { theta, cost, label });
/// ```
#[macro_export]
macro_rules! impl_to_json {
    ($ty:ty { $($field:ident),* $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::Obj(vec![
                    $((stringify!($field).to_string(),
                       $crate::json::ToJson::to_json(&self.$field)),)*
                ])
            }

            fn write_json(&self, w: &mut $crate::json::JsonWriter<'_>) {
                w.object(|w| {
                    $(
                        w.key(stringify!($field));
                        $crate::json::ToJson::write_json(&self.$field, w);
                    )*
                });
            }
        }
    };
}

/// Derives both [`ToJson`] and [`FromJson`] for a struct whose fields all
/// implement the respective trait and are all required.
#[macro_export]
macro_rules! impl_json {
    ($ty:ty { $($field:ident),* $(,)? }) => {
        $crate::impl_to_json!($ty { $($field),* });
        impl $crate::json::FromJson for $ty {
            fn from_json(v: &$crate::json::Json) -> Result<Self, $crate::json::JsonError> {
                Ok(Self {
                    $($field: $crate::json::FromJson::from_json(v.field(stringify!($field))?)
                        .map_err(|e| $crate::json::JsonError::conv(
                            format!("field `{}`: {}", stringify!($field), e.msg)))?,)*
                })
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse("true").unwrap(), Json::Bool(true));
        assert_eq!(parse(" -12.5e1 ").unwrap(), Json::Num(-125.0));
        assert_eq!(parse("\"a\\nb\"").unwrap(), Json::Str("a\nb".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a": [1, 2, {"b": null}], "c": "x"}"#).unwrap();
        assert_eq!(v.field("c").unwrap().as_str(), Some("x"));
        let arr = v.field("a").unwrap().as_arr().unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[2].get("b"), Some(&Json::Null));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{not json").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("\"open").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn round_trips_compact_and_pretty() {
        let v = parse(r#"{"name":"dpg","xs":[1,2.5,-3],"flag":false,"none":null}"#).unwrap();
        for text in [v.to_string(), v.to_string_pretty()] {
            assert_eq!(parse(&text).unwrap(), v);
        }
    }

    #[test]
    fn integers_write_without_decimal_point() {
        assert_eq!(Json::Num(3.0).to_string(), "3");
        assert_eq!(Json::Num(3.5).to_string(), "3.5");
        assert_eq!(Json::Num(-0.1).to_string(), "-0.1");
        // Shortest-round-trip keeps full precision.
        let x = 0.1 + 0.2;
        assert_eq!(parse(&Json::Num(x).to_string()).unwrap(), Json::Num(x));
    }

    /// The integer form is what `{}` prints for `n as i64`, at every
    /// digit count up to the 9·10¹⁵ cut-over and on both sides of zero.
    #[test]
    fn integer_form_matches_display_of_i64() {
        let mut values = vec![0.0, -0.0, 8_999_999_999_999_999.0];
        let mut p = 1.0f64;
        while p < 9.0e15 {
            for v in [p - 1.0, p, p + 1.0, 7.0 * p, 9.0 * p + (p - 1.0)] {
                values.extend([v, -v]);
            }
            p *= 10.0;
        }
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..2_000 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let v = (x >> 11) as f64 % 9.0e15;
            values.extend([v, -v, (v / 1e9).trunc()]);
        }
        values.retain(|v| v.abs() < 9.0e15);
        for v in values {
            assert_eq!(Json::Num(v).to_string(), format!("{}", v as i64), "{v:?}");
        }
        assert_eq!(Json::Num(9.0e15).to_string(), "9000000000000000.0");
        assert_eq!(Json::Num(-1.5).to_string(), "-1.5");
    }

    #[test]
    fn strings_escape_and_unescape() {
        let s = "quote\" slash\\ tab\t nl\n unicode é";
        let j = Json::Str(s.into());
        assert_eq!(parse(&j.to_string()).unwrap(), j);
    }

    #[test]
    fn multi_byte_runs_next_to_escapes_parse_whole() {
        let text = "\"é\\n日本\\\"語\\u00e9ü\\\\\u{1F600}x\"";
        assert_eq!(
            parse(text).unwrap(),
            Json::Str("é\n日本\"語éü\\\u{1F600}x".into())
        );
        // A long run of multi-byte characters survives a round trip.
        let long: String = "αβγ\t€".repeat(2_000);
        let j = Json::Str(long.clone());
        assert_eq!(parse(&j.to_string()).unwrap(), Json::Str(long));
    }

    #[test]
    fn string_errors_point_at_the_offending_byte() {
        let at = |text: &str| parse(text).unwrap_err();
        // `"`, `a`, the two bytes of `é`, then the control byte at 4.
        let e = at("\"aé\u{1}\"");
        assert_eq!((e.msg.as_str(), e.at), ("control character in string", 4));
        let e = at("\"é\\qb\"");
        assert_eq!((e.msg.as_str(), e.at), ("unknown escape", 4));
        let e = at("\"日本");
        assert_eq!((e.msg.as_str(), e.at), ("unterminated string", 7));
        let e = at("\"x\\u12\"");
        assert_eq!((e.msg.as_str(), e.at), ("truncated \\u escape", 4));
        let e = at("\"\\uzz12\"");
        assert_eq!((e.msg.as_str(), e.at), ("bad \\u escape", 3));
        let e = at("[\"ok\", \"ü\n\"]");
        assert_eq!((e.msg.as_str(), e.at), ("control character in string", 10));
    }

    #[test]
    fn writer_output_equals_the_tree_rendering() {
        let mut nested = BTreeMap::new();
        nested.insert("empty", Vec::<Vec<u32>>::new());
        nested.insert("rows", vec![vec![], vec![1, 2], vec![3]]);
        let value = (
            nested,
            vec![Some(0.5), None, Some(f64::NAN)],
            ("é\"\u{1}", true, [-0.0, 1e300, 5e-324]),
        );
        let tree = value.to_json();
        assert_eq!(to_string_pretty(&value), tree.to_string_pretty());
        let mut compact = String::new();
        value.write_json(&mut JsonWriter::compact(&mut compact));
        assert_eq!(compact, tree.to_string());
        assert_eq!(
            compact,
            r#"[{"empty":[],"rows":[[],[1,2],[3]]},[0.5,null,null],["é\"\u0001",true,[0,1e300,5e-324]]]"#
        );
        assert_eq!(to_string_pretty(&Vec::<u32>::new()), "[]");
        assert_eq!(to_string_pretty(&Json::Obj(vec![])), "{}");
        assert_eq!(
            to_string_pretty(&vec![(1u32, 2u32)]),
            "[\n  [\n    1,\n    2\n  ]\n]"
        );
        // Past the 32 levels the indentation table covers.
        let mut deep = Json::Num(7.0);
        for _ in 0..40 {
            deep = Json::Arr(vec![deep]);
        }
        let text = deep.to_string_pretty();
        for (depth, line) in text.lines().enumerate().take(41) {
            let expected = if depth < 40 { "[" } else { "7" };
            assert_eq!(line, format!("{}{expected}", " ".repeat(2 * depth)));
        }
        assert_eq!(parse(&text).unwrap(), deep);
    }

    /// `write_pretty` writes the bytes of `to_string_pretty`, handing over
    /// chunks that pass `WRITE_CHUNK` by at most one element.
    #[test]
    fn write_pretty_streams_the_pretty_bytes_in_bounded_chunks() {
        #[derive(Default)]
        struct Chunks(Vec<usize>, Vec<u8>);
        impl std::io::Write for Chunks {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.push(buf.len());
                self.1.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let rows: Vec<(u32, f64, Vec<u32>)> = (0..20_000u32)
            .map(|i| (i, f64::from(i) / 7.0, vec![i; (i % 3) as usize]))
            .collect();
        let mut sink = Chunks::default();
        write_pretty(&rows, &mut sink).unwrap();
        assert_eq!(String::from_utf8(sink.1).unwrap(), to_string_pretty(&rows));
        let (last, full) = sink.0.split_last().unwrap();
        assert!(full.len() > 10, "{:?}", sink.0);
        for &len in full {
            assert!((WRITE_CHUNK..WRITE_CHUNK + 256).contains(&len), "{len}");
        }
        assert!(*last < WRITE_CHUNK + 256);
        // A small value goes over in one piece at the end.
        let mut sink = Chunks::default();
        write_pretty(&vec![1u32, 2], &mut sink).unwrap();
        assert_eq!(sink.0, vec![to_string_pretty(&vec![1u32, 2]).len()]);
    }

    /// The sink's first error comes back, and nothing is written after it.
    #[test]
    fn write_pretty_returns_the_first_write_error() {
        struct Full(usize);
        impl std::io::Write for Full {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                self.0 += 1;
                Err(std::io::Error::other("disk full"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let rows: Vec<u32> = (0..100_000).collect();
        let mut sink = Full(0);
        let e = write_pretty(&rows, &mut sink).unwrap_err();
        assert_eq!(e.to_string(), "disk full");
        assert_eq!(sink.0, 1);
    }

    /// Arrays and objects nest up to `MAX_DEPTH` levels; one level more is
    /// an error at the byte that opens it, however deep the input goes.
    #[test]
    fn nesting_is_capped_at_max_depth() {
        let arrays = |n: usize| "[".repeat(n) + &"]".repeat(n);
        let objects = |n: usize| "{\"k\":".repeat(n) + "0" + &"}".repeat(n);
        for (text, open_width) in [(arrays as fn(usize) -> String, 1), (objects, 5)] {
            assert!(parse(&text(MAX_DEPTH)).is_ok());
            for n in [MAX_DEPTH + 1, 200_000] {
                let e = parse(&text(n)).unwrap_err();
                assert_eq!(e.msg, "nesting deeper than 128 levels");
                assert_eq!(e.at, MAX_DEPTH * open_width, "{n} levels");
            }
        }
        // Mixed containers count alike, and whitespace moves the position.
        let mixed = "[{\"a\": ".repeat(64) + " [";
        let e = parse(&mixed).unwrap_err();
        assert_eq!(e.at, mixed.len() - 1);
    }

    #[derive(Debug, PartialEq)]
    struct Demo {
        x: f64,
        n: u32,
        tag: String,
        seq: Vec<u32>,
        opt: Option<f64>,
    }
    impl_json!(Demo {
        x,
        n,
        tag,
        seq,
        opt
    });

    #[test]
    fn macro_derived_round_trip() {
        let d = Demo {
            x: 1.5,
            n: 7,
            tag: "hello".into(),
            seq: vec![1, 2, 3],
            opt: None,
        };
        let text = d.to_json().to_string_pretty();
        assert_eq!(to_string_pretty(&d), text);
        let back = Demo::from_json(&parse(&text).unwrap()).unwrap();
        assert_eq!(back, d);
    }

    #[test]
    fn missing_field_is_reported_by_name() {
        let v = parse(r#"{"x": 1}"#).unwrap();
        let e = Demo::from_json(&v).unwrap_err();
        assert!(e.msg.contains('n'), "{e}");
    }

    /// The integer kinds must reject what `as` would silently mangle:
    /// negatives into unsigned, fractions, and out-of-range magnitudes.
    #[test]
    fn integer_conversion_is_strict() {
        assert_eq!(u32::from_json(&Json::Num(7.0)).unwrap(), 7);
        assert_eq!(i32::from_json(&Json::Num(-7.0)).unwrap(), -7);
        assert!(u32::from_json(&Json::Num(-1.0)).is_err());
        assert!(u64::from_json(&Json::Num(-0.5)).is_err());
        assert!(usize::from_json(&Json::Num(2.5)).is_err());
        assert!(u32::from_json(&Json::Num(4.3e9)).is_err()); // > u32::MAX
        assert!(i32::from_json(&Json::Num(-3.0e9)).is_err()); // < i32::MIN
        assert!(u32::from_json(&Json::Num(f64::NAN)).is_err());
        assert!(u32::from_json(&Json::Str("7".into())).is_err());
        // f64 remains permissive: any number is a number.
        assert_eq!(f64::from_json(&Json::Num(2.5)).unwrap(), 2.5);
    }

    /// The 64-bit saturation boundary: exactly 2^63 (i64) and 2^64 (u64)
    /// are what `MAX as f64` rounds up to, so a naive `n > MAX as f64`
    /// check lets them slip through and saturate to MAX via `as`.
    #[test]
    fn integer_conversion_rejects_the_saturating_boundary() {
        let two63 = 9_223_372_036_854_775_808.0_f64; // 2^63
        let two64 = 18_446_744_073_709_551_616.0_f64; // 2^64
        assert!(i64::from_json(&Json::Num(two63)).is_err());
        assert!(u64::from_json(&Json::Num(two64)).is_err());
        assert!(usize::from_json(&Json::Num(two64)).is_err());
        assert!(u64::from_json(&Json::Num(two64 * 2.0)).is_err());
        // The nearest valid values on either side still pass exactly.
        assert_eq!(i64::from_json(&Json::Num(-two63)).unwrap(), i64::MIN);
        assert_eq!(
            i64::from_json(&Json::Num(9_223_372_036_854_774_784.0)).unwrap(),
            9_223_372_036_854_774_784 // largest f64 below 2^63
        );
        assert_eq!(
            u64::from_json(&Json::Num(18_446_744_073_709_549_568.0)).unwrap(),
            18_446_744_073_709_549_568 // largest f64 below 2^64
        );
        // 32-bit MAX is exactly representable and must stay accepted.
        assert_eq!(
            u32::from_json(&Json::Num(4_294_967_295.0)).unwrap(),
            u32::MAX
        );
        assert!(u32::from_json(&Json::Num(4_294_967_296.0)).is_err());
    }

    #[test]
    fn line_col_locates_byte_offsets() {
        let text = "ab\ncd\n\nefg";
        assert_eq!(line_col(text, 0), (1, 1));
        assert_eq!(line_col(text, 1), (1, 2));
        assert_eq!(line_col(text, 3), (2, 1));
        assert_eq!(line_col(text, 6), (3, 1));
        assert_eq!(line_col(text, 9), (4, 3));
        assert_eq!(line_col(text, 999), (4, 4)); // clamped past the end
    }
}
