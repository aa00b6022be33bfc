//! Minimal JSON support for reports, baselines, and scenario files.
//!
//! The build environment is offline, so instead of `serde`/`serde_json`
//! the workspace hand-rolls the small amount of JSON it needs: a tiny
//! recursive-descent parser returning a dynamic [`Value`], the [`Json`]
//! codec, string escaping and number formatting helpers, and a
//! canonical-digest helper ([`digest_hex`]) for the golden scenario
//! corpus.
//!
//! [`Json`] is the one codec. Record-shaped types (the `wsdf` reports,
//! fault specs, workload DAGs) implement it through one field table,
//! [`json_object!`](crate::json_object): the same member list drives the
//! canonical one-line writer ([`to_string`]), the multi-line report
//! layout ([`to_block`]), unknown-key rejection and the path-qualified
//! reader, so a value always reads back as it was written. Name lists
//! implement it through [`json_names!`](crate::json_names), and the
//! rule-shaped scenario sections by hand with [`ObjectWriter`] and the
//! [`read`] helpers. The module lives in `wsdf-sim` — the lowest crate of
//! the workspace — so topology, workload, and routing specs can use it
//! without a dependency cycle; `wsdf` re-exports it as `wsdf::json`.

use std::fmt::Write as _;

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

/// A value with one canonical JSON form that reads back as written.
///
/// Scalars, strings, arrays and options implement it here; record types
/// implement it through [`json_object!`](crate::json_object), name lists
/// through [`json_names!`](crate::json_names), and the rule-shaped
/// scenario sections by hand.
pub trait Json: Sized {
    /// Append the canonical one-line form: `{"k": v, ...}` and `[a, b]`
    /// with `", "` and `": "` separators, non-finite floats as `null`.
    fn write(&self, out: &mut String);

    /// Read a value, naming JSON `path` in every error
    /// (`"<path>: expected string"`).
    fn read(v: &Value, path: &str) -> Result<Self, String>;

    /// True when an object member holding this value is left out
    /// ([`ObjectWriter::member`]): a `None`.
    fn is_absent(&self) -> bool {
        false
    }

    /// True when the report layout ([`to_block`]) spreads this value over
    /// several lines: an array, or an object that holds one.
    fn is_block(&self) -> bool {
        false
    }

    /// Append the report layout. `indent` is the column of the line the
    /// value starts on; nested lines go two spaces deeper, and the
    /// closing bracket comes back to `indent`.
    fn write_block(&self, out: &mut String, _indent: usize) {
        self.write(out)
    }
}

/// The canonical one-line form of `x`.
pub fn to_string<T: Json>(x: &T) -> String {
    let mut out = String::new();
    x.write(&mut out);
    out
}

/// The report layout of `x`, newline-terminated: an array puts one
/// element per line and an object that holds an array one member per
/// line; every other value stays on one line.
pub fn to_block<T: Json>(x: &T) -> String {
    let mut out = String::new();
    x.write_block(&mut out, 0);
    out.push('\n');
    out
}

/// Start a new line at column `indent`.
fn newline(out: &mut String, indent: usize) {
    out.push('\n');
    out.extend(std::iter::repeat_n(' ', indent));
}

/// [`Json`] for a scalar written as `text(&x)` and read by `get(v)`, or
/// `"<path>: expected <what>"`.
macro_rules! scalar {
    ($ty:ty, $what:literal, $text:expr, $get:expr) => {
        impl Json for $ty {
            fn write(&self, out: &mut String) {
                out.push_str(&$text(self));
            }

            fn read(v: &Value, path: &str) -> Result<Self, String> {
                $get(v).ok_or_else(|| format!("{path}: expected {}", $what))
            }
        }
    };
}

scalar!(u64, "non-negative integer", u64::to_string, read::as_u64);
scalar!(u32, "non-negative integer", u32::to_string, |v| {
    read::as_u64(v).and_then(|x| u32::try_from(x).ok())
});
scalar!(u16, "integer in 0..=65535", u16::to_string, |v| {
    read::as_u64(v).and_then(|x| u16::try_from(x).ok())
});
scalar!(u8, "integer in 0..=255", u8::to_string, |v| {
    read::as_u64(v).and_then(|x| u8::try_from(x).ok())
});
// Non-finite values write as `null`, and `null` reads back as NaN.
scalar!(f64, "number", |x: &f64| num(*x), Value::as_f64);
scalar!(bool, "boolean", bool::to_string, Value::as_bool);
scalar!(
    String,
    "string",
    |x| format!("\"{}\"", escape(x)),
    |v: &Value| v.as_str().map(str::to_string)
);

/// Elements read at `"<path>[i]"`.
impl<T: Json> Json for Vec<T> {
    fn write(&self, out: &mut String) {
        out.push('[');
        for (i, x) in self.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            x.write(out);
        }
        out.push(']');
    }

    fn read(v: &Value, path: &str) -> Result<Self, String> {
        let items = v
            .as_arr()
            .ok_or_else(|| format!("{path}: expected array"))?;
        items
            .iter()
            .enumerate()
            .map(|(i, x)| T::read(x, &format!("{path}[{i}]")))
            .collect()
    }

    fn is_block(&self) -> bool {
        true
    }

    fn write_block(&self, out: &mut String, indent: usize) {
        out.push('[');
        for (i, x) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            newline(out, indent + 2);
            x.write_block(out, indent + 2);
        }
        newline(out, indent);
        out.push(']');
    }
}

/// An optional member: [`ObjectWriter::member`] leaves `None` out, and a
/// present value reads as `Some` (so `null` reads as whatever `T` makes
/// of it). Written anywhere else, `None` is `null`; it always stays on
/// one line.
impl<T: Json> Json for Option<T> {
    fn write(&self, out: &mut String) {
        match self {
            Some(x) => x.write(out),
            None => out.push_str("null"),
        }
    }

    fn read(v: &Value, path: &str) -> Result<Self, String> {
        T::read(v, path).map(Some)
    }

    fn is_absent(&self) -> bool {
        self.is_none()
    }
}

/// Writes one object's members: on one line, or (with an indent) one
/// member per line.
pub struct ObjectWriter<'a> {
    out: &'a mut String,
    indent: Option<usize>,
    first: bool,
}

impl<'a> ObjectWriter<'a> {
    /// Open the object; `indent` is `Some` for the report layout.
    pub fn new(out: &'a mut String, indent: Option<usize>) -> Self {
        out.push('{');
        ObjectWriter {
            out,
            indent,
            first: true,
        }
    }

    /// Append member `key`, unless `value` is absent (a `None`).
    pub fn member<T: Json>(&mut self, key: &str, value: &T) {
        if value.is_absent() {
            return;
        }
        self.key(key);
        match self.indent {
            Some(indent) => value.write_block(self.out, indent + 2),
            None => value.write(self.out),
        }
    }

    /// Append member `key` holding the string `name`: the tag of a
    /// variant, read back by [`read::tag`].
    pub fn tag(&mut self, key: &str, name: &str) {
        self.key(key);
        let _ = write!(self.out, "\"{}\"", escape(name));
    }

    /// Open member `key`, up to its value.
    fn key(&mut self, key: &str) {
        if !self.first {
            self.out.push(',');
        }
        match self.indent {
            Some(indent) => newline(self.out, indent + 2),
            None if !self.first => self.out.push(' '),
            None => {}
        }
        self.first = false;
        let _ = write!(self.out, "\"{}\": ", escape(key));
    }

    /// Close the object.
    pub fn end(self) {
        if let Some(indent) = self.indent {
            newline(self.out, indent);
        }
        self.out.push('}');
    }
}

/// Implement [`Json`](crate::json::Json) for a struct from one list of
/// its fields: `json_object!(Type, blank; key, key?, key? if check, ...)`.
///
/// Members are written in list order, under their field names. The
/// reader rejects keys outside the list
/// ([`read::check_keys`](crate::json::read::check_keys)), starts from the
/// `blank` value and reads the members in list order:
///
/// * `key` is required: absent, it fails with `"<path>.<key>: missing
///   required key"`;
/// * `key?` is optional and keeps its `blank` value when absent;
/// * `key? if check` is optional, and a present value is passed to
///   `check(&value, "<path>.<key>")` right after it is read.
///
/// In the report layout the object puts one member per line when any
/// member is an array, and stays on one line otherwise.
#[macro_export]
macro_rules! json_object {
    // Normalize each member to `(key required check)`, one at a time.
    (@munch $head:tt [$($m:tt)*] $key:ident ? if $check:expr $(, $($rest:tt)*)?) => {
        $crate::json_object!(@munch $head [$($m)* ($key false $check)] $($($rest)*)?);
    };
    (@munch $head:tt [$($m:tt)*] $key:ident ? $(, $($rest:tt)*)?) => {
        $crate::json_object!(@munch $head [$($m)* ($key false (|_, _| Ok(())))] $($($rest)*)?);
    };
    (@munch $head:tt [$($m:tt)*] $key:ident $(, $($rest:tt)*)?) => {
        $crate::json_object!(@munch $head [$($m)* ($key true (|_, _| Ok(())))] $($($rest)*)?);
    };
    (@munch ($ty:ty, $blank:expr) [$(($key:ident $required:literal $check:expr))*]) => {
        impl $crate::json::Json for $ty {
            fn write(&self, out: &mut String) {
                let mut obj = $crate::json::ObjectWriter::new(out, None);
                $(obj.member(stringify!($key), &self.$key);)*
                obj.end();
            }

            fn read(v: &$crate::json::Value, path: &str) -> Result<Self, String> {
                $crate::json::read::check_keys(v, path, &[$(stringify!($key)),*])?;
                let mut out: $ty = $blank;
                $($crate::json::read::member(
                    v, path, stringify!($key), &mut out.$key, $required, $check,
                )?;)*
                Ok(out)
            }

            fn is_block(&self) -> bool {
                false $(|| $crate::json::Json::is_block(&self.$key))*
            }

            fn write_block(&self, out: &mut String, indent: usize) {
                if $crate::json::Json::is_block(self) {
                    let mut obj = $crate::json::ObjectWriter::new(out, Some(indent));
                    $(obj.member(stringify!($key), &self.$key);)*
                    obj.end();
                } else {
                    $crate::json::Json::write(self, out);
                }
            }
        }
    };
    ($ty:ty, $blank:expr; $($members:tt)*) => {
        $crate::json_object!(@munch ($ty, $blank) [] $($members)*);
    };
}

/// Implement [`Json`](crate::json::Json) for a fieldless `Copy` enum from
/// one list of its variants' names: `json_names!(Type; Variant = "name",
/// ...)`.
///
/// The same list gives `Type::name` and its inverse `Type::from_name`. A
/// value is written as its name; anything but a listed name fails as
/// `"<path>: expected "a", "b" or "c""`.
#[macro_export]
macro_rules! json_names {
    ($ty:ident; $($variant:ident = $name:literal),+ $(,)?) => {
        impl $ty {
            /// Stable lowercase name used by scenario files and reports.
            pub fn name(self) -> &'static str {
                match self {
                    $($ty::$variant => $name,)+
                }
            }

            /// Inverse of [`name`](Self::name).
            pub fn from_name(name: &str) -> Option<Self> {
                match name {
                    $($name => Some($ty::$variant),)+
                    _ => None,
                }
            }
        }

        impl $crate::json::Json for $ty {
            fn write(&self, out: &mut String) {
                out.push_str(&format!("\"{}\"", self.name()));
            }

            fn read(v: &$crate::json::Value, path: &str) -> Result<Self, String> {
                v.as_str().and_then(Self::from_name).ok_or_else(|| {
                    format!("{path}: expected {}", $crate::json::read::one_of(&[$($name),+]))
                })
            }
        }
    };
}

/// Shared readers for the field tables and the hand-written [`Json`]
/// impls of the rule-shaped scenario sections.
///
/// Every helper takes the JSON `path` of the value being read (e.g.
/// `scenario.faults.spec`) and produces errors of the shape
/// `<path>.<key>: <what was expected>` — the precise-error-path contract
/// of the scenario frontend. [`json_object!`](crate::json_object),
/// [`json_names!`](crate::json_names), the topology/workload/routing
/// crates and the `wsdf::scenario` module all build on these, so the
/// phrasing cannot drift between schemas.
pub mod read {
    use super::{Json, Value};

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

    /// The tag member `key` of a tagged object: a string from `names`, or
    /// `"<path>.<key>: expected "a", "b" or "c""`.
    pub fn tag<'a>(v: &'a Value, path: &str, key: &str, names: &[&str]) -> Result<&'a str, String> {
        let name = req(v, path, key)?
            .as_str()
            .ok_or_else(|| format!("{path}.{key}: expected string"))?;
        if names.contains(&name) {
            Ok(name)
        } else {
            Err(format!("{path}.{key}: expected {}", one_of(names)))
        }
    }

    /// Optional member `key`, read as a `T` at `"<path>.<key>"`, or
    /// `default` when absent.
    pub fn or<T: Json>(v: &Value, path: &str, key: &str, default: T) -> Result<T, String> {
        match v.get(key) {
            None => Ok(default),
            Some(m) => T::read(m, &format!("{path}.{key}")),
        }
    }

    /// Optional number member `key` above `min` (`default` when absent),
    /// or `"<path>.<key>: expected number > <min>"`.
    pub fn above(v: &Value, path: &str, key: &str, default: f64, min: f64) -> Result<f64, String> {
        let x = or(v, path, key, default)?;
        if x > min {
            Ok(x)
        } else {
            Err(format!("{path}.{key}: expected number > {min}"))
        }
    }

    /// Which of two members that exclude each other `v` holds: `true` for
    /// `a`, `false` for `b`. Both or neither fail.
    pub fn either(v: &Value, path: &str, a: &str, b: &str) -> Result<bool, String> {
        match (v.get(a).is_some(), v.get(b).is_some()) {
            (true, true) => Err(format!("{path}: give either \"{a}\" or \"{b}\", not both")),
            (false, false) => Err(format!("{path}: expected a \"{a}\" or \"{b}\" member")),
            (has_a, _) => Ok(has_a),
        }
    }

    /// Reject the members in `keys`, which only other variants take:
    /// `"<path>.<key>: only <who> <key>"` (`who` such as `"trace arrivals
    /// take"`).
    pub fn only(v: &Value, path: &str, keys: &[&str], who: &str) -> Result<(), String> {
        match keys.iter().find(|key| v.get(key).is_some()) {
            Some(key) => Err(format!("{path}.{key}: only {who} {key}")),
            None => Ok(()),
        }
    }

    /// The names a value may take, quoted, as `"a", "b" or "c"`.
    pub fn one_of(names: &[&str]) -> String {
        let quoted: Vec<String> = names.iter().map(|n| format!("\"{n}\"")).collect();
        match quoted.split_last() {
            Some((last, rest)) if !rest.is_empty() => format!("{} or {last}", rest.join(", ")),
            _ => quoted.concat(),
        }
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

    /// Required member `key`, read as a `T` at `"<path>.<key>"`.
    pub fn field<T: Json>(v: &Value, path: &str, key: &str) -> Result<T, String> {
        T::read(req(v, path, key)?, &format!("{path}.{key}"))
    }

    /// Read member `key` into `slot`, for
    /// [`json_object!`](crate::json_object): absent, it fails when
    /// `required` and leaves `slot` as it is otherwise; present, it is
    /// read at `"<path>.<key>"` and then passed to `check`.
    #[doc(hidden)]
    pub fn member<T: Json>(
        v: &Value,
        path: &str,
        key: &str,
        slot: &mut T,
        required: bool,
        check: impl FnOnce(&T, &str) -> Result<(), String>,
    ) -> Result<(), String> {
        if required || v.get(key).is_some() {
            *slot = field(v, path, key)?;
            check(slot, &format!("{path}.{key}"))?;
        }
        Ok(())
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
            None => Err(format!("unexpected end of input at byte {}", self.pos)),
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
        let start = self.pos;
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(format!("unterminated string at byte {start}")),
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
                        std::str::from_utf8(&self.bytes[start..end])
                            .map_err(|_| format!("invalid UTF-8 at byte {start}"))?,
                    );
                    self.pos = end;
                }
            }
        }
    }

    /// The four hex digits at byte `at` of the `\u` escape at byte
    /// `at - 2`.
    fn hex4(&self, at: usize) -> Result<u32, String> {
        let bad = || format!("bad \\u escape at byte {}", at - 2);
        let hex = self.bytes.get(at..at + 4).ok_or_else(bad)?;
        u32::from_str_radix(std::str::from_utf8(hex).map_err(|_| bad())?, 16).map_err(|_| bad())
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
        // The scanned bytes are ASCII, so always UTF-8. A literal past the
        // f64 range is refused rather than read as infinity, which writes
        // back as `null`.
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or_default();
        match text.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Value::Num(x)),
            _ => Err(format!("invalid number '{text}' at byte {start}")),
        }
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
    fn every_syntax_error_names_its_byte() {
        for (text, want) in [
            ("\"open", "unterminated string at byte 0"),
            ("{\"a\": ", "unexpected end of input at byte 6"),
            (r#""\u12"#, r"bad \u escape at byte 1"),
            (r#"["\u12é"]"#, r"bad \u escape at byte 2"),
            (r#""\uzz12""#, r"bad \u escape at byte 1"),
            (r#""\ud83d\u12""#, r"bad \u escape at byte 7"),
            ("1e999", "invalid number '1e999' at byte 0"),
            ("[1, -1e400]", "invalid number '-1e400' at byte 4"),
        ] {
            assert_eq!(Value::parse(text).unwrap_err(), want, "{text}");
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(Value::parse("{").is_err());
        assert!(Value::parse("[1,]").is_err());
        assert!(Value::parse("12 34").is_err());
        assert!(Value::parse("\"open").is_err());
    }

    fn parse(text: &str) -> Value {
        Value::parse(text).unwrap()
    }

    #[test]
    fn nan_writes_as_null_and_reads_back_as_nan() {
        let xs = vec![1.5, f64::NAN, f64::INFINITY];
        let text = to_string(&xs);
        assert_eq!(text, "[1.5, null, null]");
        let back = Vec::<f64>::read(&parse(&text), "t").unwrap();
        assert_eq!(back[0], 1.5);
        assert!(back[1].is_nan() && back[2].is_nan());
        assert_eq!(
            f64::read(&parse("\"x\""), "t").unwrap_err(),
            "t: expected number"
        );
    }

    #[test]
    fn integers_reject_what_their_type_cannot_hold() {
        assert_eq!(u32::read(&parse("4294967295"), "t"), Ok(u32::MAX));
        for bad in ["4294967296", "-1", "0.5", "null"] {
            assert_eq!(
                u32::read(&parse(bad), "t").unwrap_err(),
                "t: expected non-negative integer",
                "{bad}"
            );
        }
        assert_eq!(u64::read(&parse("4294967296"), "t"), Ok(1 << 32));
    }

    #[test]
    fn elements_and_members_are_read_at_their_paths() {
        assert_eq!(
            Vec::<u64>::read(&parse("[1, -2]"), "t").unwrap_err(),
            "t[1]: expected non-negative integer"
        );
        assert_eq!(
            Vec::<u64>::read(&parse("{}"), "t").unwrap_err(),
            "t: expected array"
        );
        let v = parse(r#"{"k": ["a", 3]}"#);
        assert_eq!(
            read::field::<Vec<String>>(&v, "t", "k").unwrap_err(),
            "t.k[1]: expected string"
        );
        assert_eq!(
            read::field::<u64>(&v, "t", "missing").unwrap_err(),
            "t.missing: missing required key"
        );
    }
}
