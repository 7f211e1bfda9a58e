//! A tiny hand-rolled JSON writer.
//!
//! Keeps the crate dependency-free, and is the only way the workspace emits
//! JSON: registry snapshots, series, spans and every harness artifact go
//! through [`JsonWriter`]. Commas are inserted automatically; the caller is
//! responsible for pairing `begin_*`/`end_*` calls.

use std::collections::BTreeMap;
use std::time::Duration;

/// Streaming JSON writer producing a compact (no-whitespace) document.
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// Whether the next value/key at the current nesting level needs a
    /// leading comma.
    need_comma: Vec<bool>,
}

impl JsonWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the writer and returns the accumulated JSON text.
    pub fn finish(self) -> String {
        self.out
    }

    fn before_value(&mut self) {
        if let Some(need) = self.need_comma.last_mut() {
            if *need {
                self.out.push(',');
            }
            *need = true;
        }
    }

    /// Opens a JSON object (`{`).
    pub fn begin_object(&mut self) {
        self.before_value();
        self.out.push('{');
        self.need_comma.push(false);
    }

    /// Closes the current object (`}`).
    pub fn end_object(&mut self) {
        self.need_comma.pop();
        self.out.push('}');
    }

    /// Opens a JSON array (`[`).
    pub fn begin_array(&mut self) {
        self.before_value();
        self.out.push('[');
        self.need_comma.push(false);
    }

    /// Closes the current array (`]`).
    pub fn end_array(&mut self) {
        self.need_comma.pop();
        self.out.push(']');
    }

    /// Emits an object key; must be followed by exactly one value.
    pub fn key(&mut self, name: &str) {
        self.before_value();
        write_escaped(&mut self.out, name);
        self.out.push(':');
        // The value that follows must not add its own comma.
        if let Some(need) = self.need_comma.last_mut() {
            *need = false;
        }
    }

    /// Emits a string value.
    pub fn value_str(&mut self, v: &str) {
        self.before_value();
        write_escaped(&mut self.out, v);
    }

    /// Emits an unsigned integer value.
    pub fn value_u64(&mut self, v: u64) {
        self.before_value();
        self.out.push_str(&v.to_string());
    }

    /// Emits a signed integer value.
    pub fn value_i64(&mut self, v: i64) {
        self.before_value();
        self.out.push_str(&v.to_string());
    }

    /// Emits a float value (`null` when not finite, as JSON has no NaN).
    pub fn value_f64(&mut self, v: f64) {
        self.before_value();
        if v.is_finite() {
            self.out.push_str(&format!("{v}"));
        } else {
            self.out.push_str("null");
        }
    }

    /// Emits a boolean value.
    pub fn value_bool(&mut self, v: bool) {
        self.before_value();
        self.out.push_str(if v { "true" } else { "false" });
    }

    /// Emits a `null`.
    pub fn value_null(&mut self) {
        self.before_value();
        self.out.push_str("null");
    }

    /// `key` + string value.
    pub fn field_str(&mut self, name: &str, v: &str) {
        self.key(name);
        self.value_str(v);
    }

    /// `key` + unsigned integer value.
    pub fn field_u64(&mut self, name: &str, v: u64) {
        self.key(name);
        self.value_u64(v);
    }

    /// `key` + signed integer value.
    pub fn field_i64(&mut self, name: &str, v: i64) {
        self.key(name);
        self.value_i64(v);
    }

    /// `key` + float value.
    pub fn field_f64(&mut self, name: &str, v: f64) {
        self.key(name);
        self.value_f64(v);
    }

    /// `key` + boolean value.
    pub fn field_bool(&mut self, name: &str, v: bool) {
        self.key(name);
        self.value_bool(v);
    }

    /// `key` + `null`.
    pub fn field_null(&mut self, name: &str) {
        self.key(name);
        self.value_null();
    }
}

/// A value that writes itself as exactly one JSON value. Implemented by
/// every snapshot and artifact struct (most through [`json_fields!`]), so
/// containers and report envelopes embed them without rendering to a string
/// first.
///
/// [`json_fields!`]: crate::json_fields
pub trait WriteJson {
    /// Writes `self` as one JSON value.
    fn write_json(&self, w: &mut JsonWriter);
}

/// The per-field boilerplate of a [`WriteJson`] impl, in two forms.
///
/// `json_fields!(Type: a, b, c);` implements [`WriteJson`] for `Type` as one
/// object with the keys `a`, `b`, `c` in that order, each written by its
/// field's own [`WriteJson`] impl. `json_fields!(w, self; a, b, c);` writes
/// the same keys into an object the caller has already opened, for structs
/// that add or rename a key by hand.
#[macro_export]
macro_rules! json_fields {
    ($ty:ty: $($field:ident),+ $(,)?) => {
        impl $crate::json::WriteJson for $ty {
            fn write_json(&self, w: &mut $crate::json::JsonWriter) {
                w.begin_object();
                $crate::json_fields!(w, self; $($field),+);
                w.end_object();
            }
        }
    };
    ($w:expr, $s:expr; $($field:ident),+ $(,)?) => {
        $(
            $w.key(stringify!($field));
            $crate::json::WriteJson::write_json(&$s.$field, $w);
        )+
    };
}

impl WriteJson for u64 {
    fn write_json(&self, w: &mut JsonWriter) {
        w.value_u64(*self);
    }
}

impl WriteJson for u32 {
    fn write_json(&self, w: &mut JsonWriter) {
        w.value_u64(u64::from(*self));
    }
}

impl WriteJson for u16 {
    fn write_json(&self, w: &mut JsonWriter) {
        w.value_u64(u64::from(*self));
    }
}

impl WriteJson for usize {
    fn write_json(&self, w: &mut JsonWriter) {
        w.value_u64(*self as u64);
    }
}

impl WriteJson for f64 {
    fn write_json(&self, w: &mut JsonWriter) {
        w.value_f64(*self);
    }
}

impl WriteJson for bool {
    fn write_json(&self, w: &mut JsonWriter) {
        w.value_bool(*self);
    }
}

impl WriteJson for String {
    fn write_json(&self, w: &mut JsonWriter) {
        w.value_str(self);
    }
}

impl WriteJson for &str {
    fn write_json(&self, w: &mut JsonWriter) {
        w.value_str(self);
    }
}

/// `{"secs":..,"nanos":..}`: whole seconds plus the sub-second nanoseconds.
impl WriteJson for Duration {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.field_u64("secs", self.as_secs());
        w.field_u64("nanos", u64::from(self.subsec_nanos()));
        w.end_object();
    }
}

/// An array of the elements, in order.
impl<T: WriteJson> WriteJson for Vec<T> {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_array();
        for v in self {
            v.write_json(w);
        }
        w.end_array();
    }
}

/// The value, or `null`.
impl<T: WriteJson> WriteJson for Option<T> {
    fn write_json(&self, w: &mut JsonWriter) {
        match self {
            Some(v) => v.write_json(w),
            None => w.value_null(),
        }
    }
}

/// An object keyed by the map's keys, in key order.
impl<T: WriteJson> WriteJson for BTreeMap<String, T> {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        for (k, v) in self {
            w.key(k);
            v.write_json(w);
        }
        w.end_object();
    }
}

/// Appends `s` with backslash, double-quote, and newline escaped — the
/// exact three escapes the Prometheus text exposition format defines for
/// label values. [`crate::registry::labelled`] uses it, so a rendered
/// `name{label="v"}` key stays one parseable identity inside the JSON
/// artifacts that key metrics by it.
pub fn escape_label_value(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

/// Appends `s` as a quoted, escaped JSON string.
fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_with_mixed_fields() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("name", "hist");
        w.field_u64("count", 3);
        w.field_i64("delta", -2);
        w.field_f64("mean", 1.5);
        w.field_null("p99");
        w.end_object();
        assert_eq!(
            w.finish(),
            r#"{"name":"hist","count":3,"delta":-2,"mean":1.5,"p99":null}"#
        );
    }

    #[test]
    fn booleans_as_fields_and_values() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_bool("quick", true);
        w.key("flags");
        w.begin_array();
        w.value_bool(false);
        w.value_bool(true);
        w.end_array();
        w.end_object();
        assert_eq!(w.finish(), r#"{"quick":true,"flags":[false,true]}"#);
    }

    struct Row {
        name: String,
        hits: Option<u64>,
        took: Duration,
    }
    json_fields!(Row: name, hits, took);

    #[test]
    fn field_lists_and_containers_compose() {
        let row = |name: &str, hits| Row {
            name: name.to_string(),
            hits,
            took: Duration::new(1, 5),
        };
        let mut map = BTreeMap::new();
        map.insert("b".to_string(), vec![row("x\"y", Some(2)), row("z", None)]);
        map.insert("a".to_string(), Vec::new());
        let mut w = JsonWriter::new();
        map.write_json(&mut w);
        assert_eq!(
            w.finish(),
            concat!(
                r#"{"a":[],"b":[{"name":"x\"y","hits":2,"took":{"secs":1,"nanos":5}},"#,
                r#"{"name":"z","hits":null,"took":{"secs":1,"nanos":5}}]}"#
            )
        );
    }

    #[test]
    fn nested_arrays_and_objects() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("buckets");
        w.begin_array();
        for (u, c) in [(1u64, 2u64), (3, 4)] {
            w.begin_array();
            w.value_u64(u);
            w.value_u64(c);
            w.end_array();
        }
        w.end_array();
        w.key("inner");
        w.begin_object();
        w.field_u64("x", 1);
        w.end_object();
        w.end_object();
        assert_eq!(w.finish(), r#"{"buckets":[[1,2],[3,4]],"inner":{"x":1}}"#);
    }

    #[test]
    fn string_escaping() {
        let mut w = JsonWriter::new();
        w.value_str("a\"b\\c\nd\u{1}");
        assert_eq!(w.finish(), "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn label_value_escaping_covers_the_spec_triple() {
        let mut out = String::new();
        escape_label_value(&mut out, "a\"b\\c\nd");
        assert_eq!(out, "a\\\"b\\\\c\\nd");
        // Other control characters pass through untouched — the text
        // format only defines the three escapes above.
        let mut tab = String::new();
        escape_label_value(&mut tab, "x\ty");
        assert_eq!(tab, "x\ty");
    }

    #[test]
    fn non_finite_floats_become_null() {
        let mut w = JsonWriter::new();
        w.begin_array();
        w.value_f64(f64::NAN);
        w.value_f64(f64::INFINITY);
        w.value_f64(2.0);
        w.end_array();
        assert_eq!(w.finish(), "[null,null,2]");
    }
}
