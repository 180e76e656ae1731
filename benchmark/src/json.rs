//! A JSON value and its writer — the whole of what the benchmark needs to
//! emit results and Chrome traces without a serialisation crate.

use std::fmt::Write;

/// A JSON value; object keys keep insertion order.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Bool(bool),
    Int(i64),
    /// Non-finite numbers are written as `null`.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Compact single-line encoding.
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => write!(out, "{i}").expect("writing to a String cannot fail"),
            Json::Num(n) if n.is_finite() => {
                write!(out, "{n}").expect("writing to a String cannot fail");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(key, out);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String cannot fail");
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
    fn strings_are_escaped() {
        let v = Json::str("a\"b\\c\nd\te\u{1}f/é");
        assert_eq!(v.to_string(), "\"a\\\"b\\\\c\\nd\\te\\u0001f/é\"");
    }

    #[test]
    fn keys_are_escaped_and_ordered() {
        let v = Json::obj([("z\"", Json::Int(1)), ("a", Json::Bool(false))]);
        assert_eq!(v.to_string(), "{\"z\\\"\":1,\"a\":false}");
    }

    #[test]
    fn numbers_never_break_the_document() {
        let v = Json::Arr(vec![
            Json::Num(1.5),
            Json::Num(1e-7),
            Json::Num(2e21),
            Json::Num(f64::NAN),
            Json::Num(f64::INFINITY),
            Json::Int(-3),
        ]);
        assert_eq!(v.to_string(), "[1.5,0.0000001,2000000000000000000000,null,null,-3]");
    }

    #[test]
    fn nesting_is_balanced() {
        let v = Json::obj([("a", Json::Arr(vec![Json::obj([("b", Json::Arr(vec![]))])]))]);
        assert_eq!(v.to_string(), "{\"a\":[{\"b\":[]}]}");
    }
}
