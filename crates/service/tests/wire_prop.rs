//! The service's two socket parsers under arbitrary bytes: `wire::decode`,
//! which reads the worker connection's frames, and `http::read_request`,
//! which reads the HTTP front-end's requests. Each answers any input with
//! a value or an error, never a panic; and every frame the encoder writes
//! decodes back to itself, whatever its strings hold.

use std::io::Write;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::time::Duration;

use fdrlite::supervisor::{JobReport, JobStatus};
use proptest::prelude::*;
use service::http::{read_request, RequestError, MAX_HEAD};
use service::wire::{decode, encode, Frame};
use service::{ChaosCfg, ResolvedJob};

/// Characters that stress string escaping: printable ASCII, quotes,
/// backslashes, every control character (newlines among them), DEL, a
/// line separator and text outside the basic multilingual plane.
fn arb_char() -> impl Strategy<Value = char> {
    prop_oneof![
        (0x20_u32..0x7f).prop_map(|c| char::from_u32(c).unwrap()),
        (0_u32..0x20).prop_map(|c| char::from_u32(c).unwrap()),
        Just('"'),
        Just('\\'),
        Just('\n'),
        Just('\u{7f}'),
        Just('\u{2028}'),
        Just('é'),
        Just('😀'),
        Just('\u{10FFFF}'),
    ]
}

fn arb_text() -> impl Strategy<Value = String> {
    proptest::collection::vec(arb_char(), 0..12).prop_map(|cs| cs.into_iter().collect())
}

fn arb_job() -> impl Strategy<Value = ResolvedJob> {
    let kind = prop_oneof![
        Just(cspm::manifest::JobKind::Check),
        Just(cspm::manifest::JobKind::Conform),
        Just(cspm::manifest::JobKind::Analyze),
    ];
    let chaos = (any::<u64>(), any::<u32>(), any::<u64>()).prop_map(
        |(seed, transient_attempts, every_nth)| ChaosCfg {
            seed,
            transient_attempts,
            every_nth,
        },
    );
    (
        (
            arb_text(),
            kind,
            arb_text(),
            proptest::option::of(arb_text()),
            proptest::option::of(arb_text()),
        ),
        (
            proptest::option::of(arb_text()),
            any::<u64>(),
            proptest::option::of(any::<u64>()),
            proptest::option::of(any::<u64>()),
            proptest::option::of(chaos),
        ),
    )
        .prop_map(
            |(
                (name, kind, script, spec, corpus),
                (assertion, threads, max_states, timeout_ms, chaos),
            )| ResolvedJob {
                name,
                kind,
                script: script.into(),
                spec,
                corpus: corpus.map(Into::into),
                assertion,
                threads: usize::try_from(threads).unwrap(),
                max_states,
                timeout_ms,
                chaos,
            },
        )
}

fn arb_frame() -> impl Strategy<Value = Frame> {
    let status = prop_oneof![
        Just(JobStatus::Passed),
        Just(JobStatus::Refuted),
        Just(JobStatus::Inconclusive),
        Just(JobStatus::Failed),
    ];
    prop_oneof![
        (arb_text(), any::<u32>()).prop_map(|(token, pid)| Frame::Hello { token, pid }),
        (any::<u64>(), any::<u32>(), arb_job()).prop_map(|(id, attempt, job)| Frame::Job {
            id,
            attempt,
            job
        }),
        any::<bool>().prop_map(|busy| Frame::Heartbeat { busy }),
        (
            any::<u64>(),
            status,
            proptest::collection::vec(arb_text(), 0..4),
            any::<bool>(),
        )
            .prop_map(|(id, status, lines, interrupted)| Frame::Result {
                id,
                outcome: JobReport {
                    status,
                    lines,
                    interrupted,
                },
            }),
        (any::<u64>(), any::<bool>(), arb_text()).prop_map(|(id, transient, message)| {
            Frame::Error {
                id,
                transient,
                message,
            }
        }),
        Just(Frame::Shutdown),
    ]
}

/// One encoding of every frame kind, the seeds of the mutation property.
fn encodings() -> Vec<String> {
    let job = ResolvedJob {
        name: "ota \"sp02\"".into(),
        kind: cspm::manifest::JobKind::Conform,
        script: "examples/faults/ota_model.csp".into(),
        spec: Some("HONEST".into()),
        corpus: Some("examples/faults/traces".into()),
        assertion: Some("SP02".into()),
        threads: 2,
        max_states: Some(10_000),
        timeout_ms: Some(60_000),
        chaos: Some(ChaosCfg {
            seed: 99,
            transient_attempts: 2,
            every_nth: 3,
        }),
    };
    [
        Frame::Hello {
            token: "w0-g1-4321".into(),
            pid: 4321,
        },
        Frame::Job {
            id: 0xfeed_beef,
            attempt: 3,
            job,
        },
        Frame::Heartbeat { busy: true },
        Frame::Result {
            id: 7,
            outcome: JobReport {
                status: JobStatus::Refuted,
                lines: vec!["assert X  ...  FAIL".into(), "  <tr>".into()],
                interrupted: true,
            },
        },
        Frame::Error {
            id: 7,
            transient: true,
            message: "storage fault \"injected\"".into(),
        },
        Frame::Shutdown,
    ]
    .iter()
    .map(encode)
    .collect()
}

/// Bytes that frames and requests are made of, so random edits reach past
/// the first token.
fn arb_syntax_byte() -> impl Strategy<Value = u8> {
    prop_oneof![
        Just(b'{'),
        Just(b'}'),
        Just(b'['),
        Just(b']'),
        Just(b'"'),
        Just(b'\\'),
        Just(b':'),
        Just(b','),
        Just(b'0'),
        Just(b'-'),
        Just(b'\r'),
        Just(b'\n'),
        Just(b' '),
        Just(b'?'),
        Just(b'&'),
        Just(b'='),
        any::<u8>(),
    ]
}

/// Insert, overwrite or remove bytes, or truncate, at arbitrary offsets.
fn mutate(bytes: &mut Vec<u8>, edits: Vec<(usize, u8, u8)>) {
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
}

fn arb_edits() -> impl Strategy<Value = Vec<(usize, u8, u8)>> {
    proptest::collection::vec((any::<usize>(), 0_u8..4, arb_syntax_byte()), 1..6)
}

/// Send `bytes` over a loopback connection, then close the sending half,
/// and read one request from the receiving end.
fn request_from(bytes: Vec<u8>) -> Result<service::http::Request, RequestError> {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    // The reader may stop early (a head past MAX_HEAD) and reset the
    // connection, so the writer's own errors are expected and ignored.
    let writer = std::thread::spawn(move || {
        let _ = client.write_all(&bytes);
        let _ = client.shutdown(Shutdown::Write);
    });
    let (mut server, _) = listener.accept().unwrap();
    let answer = read_request(&mut server, Duration::from_secs(10));
    drop(server);
    writer.join().unwrap();
    answer
}

const REQUESTS: [&str; 3] = [
    "POST /v1/jobs?wait=5 HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: 6\r\nConnection: close\r\n\r\n[run]\n",
    "GET /v1/jobs/00000000feedbeef?wait=120 HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n",
    "GET /v1/health HTTP/1.1\r\n\r\n",
];

/// Every frame type with the fields it reads, and one type no frame has.
const FIELDS: [(&str, &[&str]); 7] = [
    ("hello", &["token", "pid"]),
    (
        "job",
        &[
            "id",
            "attempt",
            "name",
            "kind",
            "script",
            "spec",
            "corpus",
            "assertion",
            "threads",
            "max_states",
            "timeout_ms",
            "chaos",
        ],
    ),
    ("heartbeat", &["busy"]),
    ("result", &["id", "status", "lines", "interrupted"]),
    ("error", &["id", "transient", "message"]),
    ("shutdown", &[]),
    ("warp", &["id"]),
];

/// Field values of every JSON type, in range and out of it.
const VALUES: [&str; 16] = [
    "\"00000000000000ff\"",
    "\"zz\"",
    "\"check\"",
    "\"passed\"",
    "\"x\"",
    "0",
    "7",
    "-1",
    "1.5",
    "4294967296",
    "9007199254740993",
    "true",
    "null",
    "[\"l\",2]",
    "[\"l\"]",
    "{\"seed\":1,\"transient_attempts\":4294967296,\"every_nth\":3}",
];

#[test]
fn every_seed_encoding_decodes_and_every_seed_request_reads() {
    for line in encodings() {
        assert!(decode(line.trim_end()).is_ok(), "{line}");
    }
    for request in REQUESTS {
        let read = request_from(request.as_bytes().to_vec());
        assert!(read.is_ok(), "{request:?}: {read:?}");
    }
}

#[test]
fn a_head_past_max_head_is_head_too_large() {
    let head = |len: usize| {
        let mut head = "GET /v1/health HTTP/1.1\r\nX-Pad: ".to_string();
        let pad = len - head.len() - 4;
        head.push_str(&"p".repeat(pad));
        head.push_str("\r\n\r\n");
        assert_eq!(head.len(), len);
        head.into_bytes()
    };
    let max = usize::try_from(MAX_HEAD).unwrap();
    assert!(request_from(head(max)).is_ok());
    for over in [max + 1, max + 2, 2 * max] {
        let read = request_from(head(over));
        assert!(
            matches!(read, Err(RequestError::HeadTooLarge)),
            "{over}: {read:?}"
        );
    }
    let read = request_from(format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(max)).into_bytes());
    assert!(matches!(read, Err(RequestError::HeadTooLarge)), "{read:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn encoded_frames_are_one_line_and_decode_to_themselves(frame in arb_frame()) {
        let line = encode(&frame);
        prop_assert!(line.ends_with('\n'));
        prop_assert!(!line[..line.len() - 1].contains('\n'), "not one line: {line:?}");
        prop_assert_eq!(decode(line.trim_end()), Ok(frame));
    }

    #[test]
    fn decode_answers_arbitrary_strings(
        chars in proptest::collection::vec(arb_char(), 0..64),
        bytes in proptest::collection::vec(arb_syntax_byte(), 0..64),
    ) {
        let _ = decode(&chars.into_iter().collect::<String>());
        let _ = decode(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn decode_answers_mutated_frames(kind in 0_usize..6, edits in arb_edits()) {
        let mut bytes = encodings().swap_remove(kind).into_bytes();
        mutate(&mut bytes, edits);
        let _ = decode(String::from_utf8_lossy(&bytes).trim_end());
    }

    #[test]
    fn read_request_answers_arbitrary_bytes(
        bytes in proptest::collection::vec(arb_syntax_byte(), 0..256),
    ) {
        let _ = request_from(bytes);
    }

    #[test]
    fn read_request_answers_mutated_requests(seed in 0_usize..3, edits in arb_edits()) {
        let mut bytes = REQUESTS[seed].as_bytes().to_vec();
        mutate(&mut bytes, edits);
        let _ = request_from(bytes);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn decode_answers_every_frame_type_with_arbitrary_field_values(
        kind in 0_usize..7,
        picks in proptest::collection::vec(0_usize..20, 12..13),
    ) {
        let (name, keys) = FIELDS[kind];
        let mut line = format!("{{\"type\":\"{name}\"");
        for (key, pick) in keys.iter().zip(picks) {
            if let Some(value) = VALUES.get(pick) {
                line.push_str(&format!(",\"{key}\":{value}"));
            }
        }
        line.push('}');
        let _ = decode(&line);
    }
}
