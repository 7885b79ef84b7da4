//! Property tests for the JSON codec: every string the escaper writes
//! parses back to itself, every event line the renderer writes parses
//! back to the same event, and the reader rejects what JSON forbids.

use anor_telemetry::json::{self, Json};
use anor_telemetry::{parse_line, render_line, Value};
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// One character, a quarter each from the escaped set, the control
/// characters, printable ASCII and all of Unicode (non-BMP included).
fn pick(code: u32) -> char {
    const ESCAPED: [char; 8] = ['"', '\\', '/', '\n', '\r', '\t', '\u{8}', '\u{c}'];
    let n = code / 4;
    let c = match code % 4 {
        0 => Some(ESCAPED[(n % 8) as usize]),
        1 => char::from_u32(n % 0x20),
        2 => char::from_u32(0x20 + n % 0x60),
        _ => char::from_u32(n % 0x11_0000),
    };
    // A surrogate half is not a `char`.
    c.unwrap_or('\u{10ffff}')
}

fn text(codes: &[u32]) -> String {
    codes.iter().map(|&c| pick(c)).collect()
}

fn quoted(s: &str) -> String {
    let mut out = String::new();
    json::push_str(&mut out, s);
    out
}

proptest! {
    #[test]
    fn escaped_strings_parse_back(codes in vec(any::<u32>(), 0..48)) {
        let s = text(&codes);
        let doc = quoted(&s);
        // JSON forbids raw U+0000..U+001F inside a string.
        prop_assert!(doc.chars().all(|c| c as u32 >= 0x20));
        prop_assert_eq!(json::parse(&doc), Ok(Json::Str(s)));
    }

    #[test]
    fn rendered_event_lines_parse_back(
        ts in 0.0f64..1.0e6,
        name in vec(any::<u32>(), 0..16),
        kinds in vec((0u8..5, any::<u64>(), any::<f64>(), any::<bool>()), 0..8),
        keys in vec(any::<u32>(), 0..8),
    ) {
        let name = text(&name);
        let fields: Vec<(String, Value)> = kinds
            .iter()
            .enumerate()
            .map(|(i, &(kind, bits, x, b))| {
                // The index prefix keeps keys distinct and off `ts`/`event`.
                let key = format!("{i}:{}", text(&keys[..i.min(keys.len())]));
                let value = match kind {
                    0 if x.fract() == 0.0 => Value::F64(x + 0.5),
                    0 => Value::F64(x),
                    1 => Value::U64(bits % 9_000_000_000_000_000),
                    2 => Value::I64(-1 - (bits % 8_999_999_999_999_999) as i64),
                    3 => Value::Bool(b),
                    _ => Value::Str(text(&keys)),
                };
                (key, value)
            })
            .collect();
        let borrowed: Vec<(&str, Value)> =
            fields.iter().map(|(k, v)| (k.as_str(), v.clone())).collect();
        let ev = parse_line(&render_line(ts, &name, &borrowed), 1).unwrap();
        // `ts` is rendered to the microsecond.
        prop_assert!((ev.ts - ts).abs() <= 5e-7 + ts * f64::EPSILON);
        prop_assert_eq!(ev.event, name);
        prop_assert_eq!(ev.fields, fields.into_iter().collect::<BTreeMap<_, _>>());
    }

    #[test]
    fn trailing_bytes_are_an_error(codes in vec(any::<u32>(), 0..16), junk in "[a-z0-9\\[{\",:]{1,4}") {
        let doc = quoted(&text(&codes));
        prop_assert!(json::parse(&format!("{doc} \n")).is_ok());
        prop_assert!(json::parse(&format!("{doc}{junk}")).is_err());
        prop_assert!(json::parse(&format!("{doc} {junk}")).is_err());
    }

    #[test]
    fn surrogate_escapes_are_an_error(half in 0xd800u32..0xe000) {
        prop_assert!(json::parse(&format!("\"\\u{half:04x}\"")).is_err());
        prop_assert!(json::parse(&format!("\"\\u{half:04X}x\"")).is_err());
    }
}

#[test]
fn malformed_unicode_escapes_are_errors() {
    for bad in [
        "\"\\u\"",
        "\"\\u12\"",
        "\"\\u123\"",
        "\"\\u12g4\"",
        "\"\\u+041\"",
        "\"\\u-041\"",
        "\"\\u 041\"",
    ] {
        assert!(json::parse(bad).is_err(), "accepted {bad}");
    }
    assert_eq!(
        json::parse("\"\\u00e9\\uFFFD\""),
        Ok(Json::Str("é\u{fffd}".to_string()))
    );
}

#[test]
fn backspace_and_form_feed_escapes_decode() {
    assert_eq!(
        json::parse("\"a\\bb\\fc\""),
        Ok(Json::Str("a\u{8}b\u{c}c".to_string()))
    );
    let ev = parse_line("{\"ts\":1,\"event\":\"\\b\",\"k\":\"\\f\"}", 1).unwrap();
    assert_eq!((ev.event.as_str(), ev.str("k")), ("\u{8}", Some("\u{c}")));
}

#[test]
fn event_lines_reject_nested_values() {
    for bad in [
        "{\"ts\":1,\"event\":\"x\",\"v\":[1]}",
        "{\"ts\":1,\"event\":\"x\",\"v\":{}}",
        "{\"ts\":1,\"event\":\"x\",\"v\":{\"w\":2}}",
        "[{\"ts\":1,\"event\":\"x\"}]",
    ] {
        assert!(parse_line(bad, 1).is_err(), "accepted {bad}");
    }
}
