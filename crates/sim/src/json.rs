//! Minimal JSON support for reports, baselines, and scenario files.
//!
//! The build environment is offline, so instead of `serde`/`serde_json`
//! the workspace hand-rolls the small amount of JSON it needs: a writer
//! (string escaping + number formatting helpers used by the report
//! types in `wsdf`), a tiny recursive-descent parser returning a dynamic
//! [`Value`], and a canonical-digest helper ([`digest_hex`]) for the
//! golden scenario corpus. The module lives in `wsdf-sim` — the lowest
//! crate of the workspace — so topology, workload, and routing specs can
//! offer `from_json` constructors without a dependency cycle; `wsdf`
//! re-exports it as `wsdf::json`.

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null` (also produced when writing non-finite floats).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, preserving insertion order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member of an object by key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Number value, with `null` mapping to NaN (the writer's encoding of
    /// non-finite floats).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(x) => Some(*x),
            Value::Null => Some(f64::NAN),
            _ => None,
        }
    }

    /// String value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean value.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array elements.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// Parse a JSON document.
    pub fn parse(text: &str) -> Result<Value, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }
}

/// Escape a string for embedding in JSON (without surrounding quotes).
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

/// Format a float as a JSON number; non-finite values become `null`.
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

/// 64-bit FNV-1a hash of a byte string.
///
/// The corpus digest primitive: dependency-free, stable across platforms
/// and releases, and cheap enough to hash every report of a regression
/// fleet. Not cryptographic — it pins *accidental* drift, not adversaries.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Canonical digest of a report document: `fnv64:` + 16 lowercase hex
/// digits of [`fnv1a_64`] over the exact bytes.
///
/// Two reports have equal digests iff their serialized bytes are equal,
/// so the digest contract is exactly the writers' canonical form: stable
/// field order and [`num`] float formatting.
pub fn digest_hex(text: &str) -> String {
    format!("fnv64:{:016x}", fnv1a_64(text.as_bytes()))
}

/// Shared readers for schema-checked `from_json` constructors.
///
/// Every helper takes the JSON `path` of the value being read (e.g.
/// `scenario.faults.spec`) and produces errors of the shape
/// `<path>.<key>: <what was expected>` — the precise-error-path contract
/// of the scenario frontend. The topology/workload/routing crates and the
/// `wsdf::scenario` module all build on these, so the phrasing cannot
/// drift between schemas.
pub mod read {
    use super::Value;

    /// The members of an object, or `"<path>: expected object"`.
    pub fn obj<'a>(v: &'a Value, path: &str) -> Result<&'a [(String, Value)], String> {
        match v {
            Value::Obj(members) => Ok(members),
            _ => Err(format!("{path}: expected object")),
        }
    }

    /// Reject members outside `allowed` (`"<path>.<key>: unknown key"`)
    /// and duplicated keys. Call once per object schema so typos fail
    /// loudly instead of silently falling back to defaults.
    pub fn check_keys(v: &Value, path: &str, allowed: &[&str]) -> Result<(), String> {
        let members = obj(v, path)?;
        for (i, (k, _)) in members.iter().enumerate() {
            if !allowed.contains(&k.as_str()) {
                return Err(format!("{path}.{k}: unknown key"));
            }
            if members[..i].iter().any(|(prev, _)| prev == k) {
                return Err(format!("{path}.{k}: duplicate key"));
            }
        }
        Ok(())
    }

    /// Required member of an object.
    pub fn req<'a>(v: &'a Value, path: &str, key: &str) -> Result<&'a Value, String> {
        obj(v, path)?;
        v.get(key)
            .ok_or_else(|| format!("{path}.{key}: missing required key"))
    }

    /// Required string member.
    pub fn str_field<'a>(v: &'a Value, path: &str, key: &str) -> Result<&'a str, String> {
        req(v, path, key)?
            .as_str()
            .ok_or_else(|| format!("{path}.{key}: expected string"))
    }

    /// Optional finite-number member.
    pub fn opt_f64_field(v: &Value, path: &str, key: &str) -> Result<Option<f64>, String> {
        match v.get(key) {
            None => Ok(None),
            Some(Value::Num(x)) => Ok(Some(*x)),
            Some(_) => Err(format!("{path}.{key}: expected number")),
        }
    }

    /// Required non-negative-integer member (stored as a JSON number).
    pub fn u64_field(v: &Value, path: &str, key: &str) -> Result<u64, String> {
        as_u64(req(v, path, key)?)
            .ok_or_else(|| format!("{path}.{key}: expected non-negative integer"))
    }

    /// Optional non-negative-integer member; `default` when absent.
    pub fn u64_or(v: &Value, path: &str, key: &str, default: u64) -> Result<u64, String> {
        match v.get(key) {
            None => Ok(default),
            Some(m) => {
                as_u64(m).ok_or_else(|| format!("{path}.{key}: expected non-negative integer"))
            }
        }
    }

    /// Required array member.
    pub fn arr_field<'a>(v: &'a Value, path: &str, key: &str) -> Result<&'a [Value], String> {
        req(v, path, key)?
            .as_arr()
            .ok_or_else(|| format!("{path}.{key}: expected array"))
    }

    /// A JSON number as a non-negative integer, if it is one.
    pub fn as_u64(v: &Value) -> Option<u64> {
        match v {
            Value::Num(x)
                if x.is_finite() && *x >= 0.0 && x.fract() == 0.0 && *x <= u64::MAX as f64 =>
            {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    /// An array member holding non-negative integers (`"<path>.<key>[i]:
    /// expected non-negative integer"` on the first offender).
    pub fn u32_list(v: &Value, path: &str, key: &str) -> Result<Vec<u32>, String> {
        let mut out = Vec::new();
        for (i, item) in arr_field(v, path, key)?.iter().enumerate() {
            let x = as_u64(item)
                .filter(|&x| x <= u32::MAX as u64)
                .ok_or_else(|| format!("{path}.{key}[{i}]: expected non-negative integer"))?;
            out.push(x as u32);
        }
        Ok(out)
    }
}

/// Deepest object/array nesting [`Value::parse`] accepts. The parser
/// recurses once per level, so an unbounded depth would let a small
/// hostile document overflow the stack; the deepest committed scenario
/// nests 7 levels.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Objects and arrays currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".into()),
        }
    }

    /// Parse one object or array one level deeper, refusing to go past
    /// [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, String>) -> Result<Value, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            members.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let mut code = self.hex4(self.pos + 1)?;
                            self.pos += 4;
                            // Combine UTF-16 surrogate pairs (standard
                            // serializers escape non-BMP chars this way).
                            if (0xD800..0xDC00).contains(&code)
                                && self.bytes.get(self.pos + 1..self.pos + 3)
                                    == Some(br"\u".as_slice())
                            {
                                let low = self.hex4(self.pos + 3)?;
                                if (0xDC00..0xE000).contains(&low) {
                                    code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                    self.pos += 6;
                                }
                            }
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (multi-byte sequences pass
                    // through unchanged).
                    let start = self.pos;
                    let mut end = start + 1;
                    while end < self.bytes.len() && (self.bytes[end] & 0xC0) == 0x80 {
                        end += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..end]).map_err(|e| e.to_string())?,
                    );
                    self.pos = end;
                }
            }
        }
    }

    /// Four hex digits starting at byte `at`.
    fn hex4(&self, at: usize) -> Result<u32, String> {
        let hex = self.bytes.get(at..at + 4).ok_or("truncated \\u escape")?;
        u32::from_str_radix(std::str::from_utf8(hex).map_err(|e| e.to_string())?, 16)
            .map_err(|e| e.to_string())
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| format!("invalid number '{text}' at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_containers() {
        let v = Value::parse(
            r#"{"a": 1.5, "b": [true, false, null], "s": "x\"y\n", "o": {"k": -2e3}}"#,
        )
        .unwrap();
        assert_eq!(v.get("a").unwrap().as_f64(), Some(1.5));
        let arr = v.get("b").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_bool(), Some(true));
        assert_eq!(arr[2], Value::Null);
        assert_eq!(v.get("s").unwrap().as_str(), Some("x\"y\n"));
        assert_eq!(
            v.get("o").unwrap().get("k").unwrap().as_f64(),
            Some(-2000.0)
        );
    }

    #[test]
    fn nesting_is_capped_not_a_stack_overflow() {
        let deep = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        let v = Value::parse(&deep(MAX_DEPTH)).unwrap();
        let mut level = &v;
        for _ in 1..MAX_DEPTH {
            level = &level.as_arr().unwrap()[0];
        }
        assert_eq!(level, &Value::Arr(Vec::new()));
        assert_eq!(
            Value::parse(&deep(MAX_DEPTH + 1)),
            Err("nesting deeper than 128 levels at byte 128".into())
        );
        // 100 KB of unclosed brackets once overflowed the stack.
        let hostile = "[".repeat(100_000);
        assert!(Value::parse(&hostile).is_err());
        let mixed = r#"{"a":"#.repeat(100_000);
        assert!(Value::parse(&mixed).is_err());
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let nasty = "line\nwith \"quotes\" \\ and \t tabs";
        let doc = format!("\"{}\"", escape(nasty));
        assert_eq!(Value::parse(&doc).unwrap().as_str(), Some(nasty));
    }

    #[test]
    fn non_finite_numbers_write_as_null() {
        assert_eq!(num(f64::INFINITY), "null");
        assert_eq!(num(2.25), "2.25");
        let v = Value::parse("null").unwrap();
        assert!(v.as_f64().unwrap().is_nan());
    }

    #[test]
    fn surrogate_pairs_combine() {
        // "😀" as a standard serializer escapes it (ensure_ascii):
        // high surrogate D83D + low surrogate DE00 → U+1F600.
        let v = Value::parse("\"\\ud83d\\ude00\"").unwrap();
        assert_eq!(v.as_str(), Some("😀"));
        // Raw (unescaped) non-BMP chars pass through too.
        let v = Value::parse(r#""😀""#).unwrap();
        assert_eq!(v.as_str(), Some("😀"));
        // Unpaired high surrogate degrades to U+FFFD, not an error.
        let v = Value::parse(r#""\ud83d x""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{fffd} x"));
        // BMP escapes still work.
        let v = Value::parse(r#""é""#).unwrap();
        assert_eq!(v.as_str(), Some("é"));
    }

    #[test]
    fn digest_is_stable_and_content_sensitive() {
        // Pinned reference value: the digest contract must never drift
        // silently, or every committed corpus digest goes stale at once.
        assert_eq!(fnv1a_64(b""), 0xcbf29ce484222325);
        assert_eq!(digest_hex("{}"), format!("fnv64:{:016x}", fnv1a_64(b"{}")));
        assert_ne!(digest_hex("{\"a\": 1}"), digest_hex("{\"a\": 2}"));
        assert_eq!(digest_hex("x"), digest_hex("x"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(Value::parse("{").is_err());
        assert!(Value::parse("[1,]").is_err());
        assert!(Value::parse("12 34").is_err());
        assert!(Value::parse("\"open").is_err());
    }
}
