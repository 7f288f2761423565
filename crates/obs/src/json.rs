//! The workspace's one JSON codec: string escaping and float formatting
//! for the byte-stable writers (sweep reports, JSONL traces, metrics
//! snapshots, the worker protocol), and the [`Json`] value parser they
//! read back with.
//!
//! The writers' stability contract lives here: floats use Rust's
//! shortest-roundtrip formatting (identical on every platform) and
//! non-finite values become `null` (JSON has no NaN/Infinity). The
//! parser is hand-rolled (the workspace is offline; no serde): it
//! accepts arbitrary whitespace and field order, resolves every string
//! escape, and keeps numbers as source text so `u64`s never round-trip
//! through `f64`.

/// Escapes a string for a JSON string literal (without the quotes).
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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

/// Formats a float as JSON: shortest-roundtrip decimal, `null` when not
/// finite.
#[must_use]
pub fn float(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_owned()
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number, kept as its source text so `u64`s never round-trip
    /// through `f64`.
    Num(String),
    /// A string literal (escapes resolved).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as ordered key/value pairs (no hash maps — object
    /// sizes here are tiny and iteration order stays deterministic).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON value spanning the whole input.
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntax error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing bytes at offset {pos}"));
        }
        Ok(v)
    }

    /// Looks up a field of an object.
    ///
    /// # Errors
    ///
    /// Errs when `self` is not an object or the field is absent.
    pub fn field(&self, name: &str) -> Result<&Json, String> {
        match self {
            Json::Obj(pairs) => pairs
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .ok_or_else(|| format!("missing field {name:?}")),
            _ => Err(format!("expected an object with field {name:?}")),
        }
    }

    /// The value as a `u64` (decimal).
    ///
    /// # Errors
    ///
    /// Errs when the value is not an unsigned decimal number.
    pub fn as_u64(&self) -> Result<u64, String> {
        match self {
            Json::Num(s) => s.parse().map_err(|_| format!("not a u64: {s:?}")),
            _ => Err("expected a number".to_owned()),
        }
    }

    /// The value as a `u64` parsed from a hex string (the `rate_bits` /
    /// `fingerprint` / gauge `bits` encoding).
    ///
    /// # Errors
    ///
    /// Errs when the value is not a hex string.
    pub fn as_hex_u64(&self) -> Result<u64, String> {
        match self {
            Json::Str(s) => u64::from_str_radix(s, 16).map_err(|_| format!("not hex: {s:?}")),
            _ => Err("expected a hex string".to_owned()),
        }
    }

    /// The value as a borrowed string.
    ///
    /// # Errors
    ///
    /// Errs when the value is not a string.
    pub fn as_str(&self) -> Result<&str, String> {
        match self {
            Json::Str(s) => Ok(s),
            _ => Err("expected a string".to_owned()),
        }
    }

    /// The value as a bool.
    ///
    /// # Errors
    ///
    /// Errs when the value is not a bool.
    pub fn as_bool(&self) -> Result<bool, String> {
        match self {
            Json::Bool(b) => Ok(*b),
            _ => Err("expected a bool".to_owned()),
        }
    }

    /// The value as a borrowed array.
    ///
    /// # Errors
    ///
    /// Errs when the value is not an array.
    pub fn as_array(&self) -> Result<&[Json], String> {
        match self {
            Json::Arr(items) => Ok(items),
            _ => Err("expected an array".to_owned()),
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == b {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at offset {pos}", b as char))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_owned()),
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let val = parse_value(bytes, pos)?;
                pairs.push((key, val));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => return Err(format!("expected ',' or '}}' at offset {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at offset {pos}")),
                }
            }
        }
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') if bytes[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if bytes[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if bytes[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(_) => {
            let start = *pos;
            while *pos < bytes.len()
                && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            if *pos == start {
                return Err(format!("unexpected byte at offset {pos}"));
            }
            Ok(Json::Num(
                std::str::from_utf8(&bytes[start..*pos])
                    .map_err(|_| "non-UTF-8 number".to_owned())?
                    .to_owned(),
            ))
        }
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = Vec::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_owned()),
            Some(b'"') => {
                *pos += 1;
                return String::from_utf8(out).map_err(|_| "non-UTF-8 string".to_owned());
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push(b'"'),
                    Some(b'\\') => out.push(b'\\'),
                    Some(b'/') => out.push(b'/'),
                    Some(b'n') => out.push(b'\n'),
                    Some(b'r') => out.push(b'\r'),
                    Some(b't') => out.push(b'\t'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                            16,
                        )
                        .map_err(|_| "bad \\u escape")?;
                        let c = char::from_u32(code).ok_or("bad \\u code point")?;
                        let mut buf = [0u8; 4];
                        out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at offset {pos}")),
                }
                *pos += 1;
            }
            Some(&b) => {
                out.push(b);
                *pos += 1;
            }
        }
    }
}
