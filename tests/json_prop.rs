//! Properties of `diag::json`, the toolchain's one JSON reader and
//! writer: the parser answers any input with a value or a `JsonError`,
//! never a panic or a stack overflow; and every document the writer emits
//! parses back to the values written, whatever the strings hold.

use std::fs;
use std::path::PathBuf;

use diag::json::{self, Value, Writer, MAX_DEPTH};
use proptest::prelude::*;

/// Characters that stress string escaping: printable ASCII, quotes,
/// backslashes, every control character, DEL, a line separator and text
/// outside the basic multilingual plane.
fn arb_char() -> impl Strategy<Value = char> {
    prop_oneof![
        (0x20_u32..0x7f).prop_map(|c| char::from_u32(c).unwrap()),
        (0_u32..0x20).prop_map(|c| char::from_u32(c).unwrap()),
        Just('"'),
        Just('\\'),
        Just('\u{7f}'),
        Just('\u{2028}'),
        Just('é'),
        Just('😀'),
        Just('\u{10FFFF}'),
    ]
}

fn arb_string() -> impl Strategy<Value = String> {
    proptest::collection::vec(arb_char(), 0..12).prop_map(|cs| cs.into_iter().collect())
}

fn arb_value() -> BoxedStrategy<Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<u32>().prop_map(|n| Value::Number(f64::from(n))),
        (-100_000_i32..0).prop_map(|n| Value::Number(f64::from(n))),
        arb_string().prop_map(Value::String),
    ];
    leaf.prop_recursive(4, 32, 4, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..5).prop_map(Value::Array),
            proptest::collection::vec((arb_string(), inner), 0..5).prop_map(Value::Object),
        ]
    })
}

fn write(w: &mut Writer, value: &Value) {
    match value {
        Value::Null => {
            w.null();
        }
        Value::Bool(b) => {
            w.bool(*b);
        }
        Value::Number(n) => {
            w.number(n);
        }
        Value::String(s) => {
            w.string(s);
        }
        Value::Array(items) => {
            w.array(|w| {
                for item in items {
                    write(w, item);
                }
            });
        }
        Value::Object(fields) => {
            w.object(|w| {
                for (key, item) in fields {
                    w.key(key);
                    write(w, item);
                }
            });
        }
    }
}

/// The bytes JSON is made of, so random inputs reach past the first
/// token.
fn arb_jsonish_byte() -> impl Strategy<Value = u8> {
    prop_oneof![
        Just(b'['),
        Just(b']'),
        Just(b'{'),
        Just(b'}'),
        Just(b'"'),
        Just(b'\\'),
        Just(b':'),
        Just(b','),
        Just(b'u'),
        Just(b'n'),
        Just(b'0'),
        Just(b'-'),
        Just(b'e'),
        Just(b'.'),
        Just(b' '),
        any::<u8>(),
    ]
}

/// The analyze goldens: the deepest JSON documents the toolchain writes.
fn goldens() -> Vec<String> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples/analyze");
    let mut docs: Vec<String> = fs::read_dir(&dir)
        .expect("examples/analyze")
        .map(|entry| fs::read_to_string(entry.expect("entry").path()).expect("golden"))
        .collect();
    docs.sort();
    assert!(!docs.is_empty());
    docs
}

#[test]
fn nesting_beyond_the_limit_is_an_error_at_its_column() {
    let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
    assert!(json::parse(&at_limit).is_ok());
    let e = json::parse(&format!("{{\"a\":{at_limit}}}")).unwrap_err();
    assert!(e.message.contains("nesting deeper than 128"), "{e}");
    assert_eq!(
        e.col as usize,
        MAX_DEPTH + 5,
        "at the `[` opening level 129"
    );
    assert!(json::parse(&"[".repeat(100_000)).is_err());
}

#[test]
fn the_writer_places_commas_escapes_and_keeps_number_formats() {
    let mut w = Writer::new();
    w.array(|w| {
        w.object(|_| {});
        w.array(|_| {});
        w.bool(true).bool(false).null().number(-7);
        w.object(|w| {
            w.key("k\n").string("\u{1}\u{1F600}");
            w.key("nested").object(|w| {
                w.key("x").number(format_args!("{:.3}", 2.25_f64));
            });
        });
    });
    assert_eq!(
        w.finish(),
        "[{},[],true,false,null,-7,{\"k\\n\":\"\\u0001\u{1F600}\",\"nested\":{\"x\":2.250}}]"
    );
    assert_eq!(json::object(|_| {}), "{}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn written_documents_parse_back_to_their_values(value in arb_value()) {
        let mut w = Writer::new();
        write(&mut w, &value);
        let text = w.finish();
        prop_assert!(!text.contains('\n'), "not one line: {text:?}");
        prop_assert_eq!(json::parse(&text), Ok(value));
    }

    #[test]
    fn parse_answers_arbitrary_bytes(
        bytes in proptest::collection::vec(arb_jsonish_byte(), 0..64)
    ) {
        let text = String::from_utf8_lossy(&bytes);
        let _ = json::parse(&text);
    }

    #[test]
    fn parse_answers_mutated_goldens(
        golden in 0_usize..2,
        edits in proptest::collection::vec((any::<usize>(), 0_u8..4, arb_jsonish_byte()), 1..6),
    ) {
        let docs = goldens();
        let mut bytes = docs[golden % docs.len()].clone().into_bytes();
        prop_assert!(json::parse(&String::from_utf8_lossy(&bytes)).is_ok());
        for (at, op, byte) in edits {
            let at = at % (bytes.len() + 1);
            match op {
                0 => bytes.insert(at, byte),
                1 if at < bytes.len() => bytes[at] = byte,
                2 if at < bytes.len() => {
                    bytes.remove(at);
                }
                _ => bytes.truncate(at),
            }
        }
        let _ = json::parse(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn nesting_is_bounded_not_recursed_without_limit(
        depth in prop_oneof![0_usize..200, 0_usize..20_000],
        objects in any::<u64>(),
    ) {
        let mut text = String::new();
        for level in 0..depth {
            text.push_str(if objects >> (level % 64) & 1 == 1 { "{\"k\":" } else { "[" });
        }
        text.push('0');
        for level in (0..depth).rev() {
            text.push(if objects >> (level % 64) & 1 == 1 { '}' } else { ']' });
        }
        prop_assert_eq!(json::parse(&text).is_ok(), depth <= MAX_DEPTH);
    }
}
