//! Wire-protocol robustness: every way a byte stream can go wrong —
//! truncation, oversized prefixes, garbage, half-close, stalls — must
//! surface as a clean typed [`WireError`], never a hang and never a
//! partially-parsed message.

use proptest::prelude::*;
use rendezvous_fabric::wire::{read_frame, write_frame, MAX_FRAME};
use rendezvous_fabric::{Message, WireError, PROTOCOL_VERSION};
use rendezvous_runner::{SweepReport, WorkloadKind, WorkloadMeta};
use rendezvous_telemetry::TelemetrySnapshot;
use std::io::{Cursor, Read};

fn meta() -> WorkloadMeta {
    WorkloadMeta {
        kind: WorkloadKind::Grid,
        digest: 0xdead_beef,
        full_size: 1200,
        size: 600,
    }
}

fn encode(msg: &Message) -> Vec<u8> {
    let mut buf = Vec::new();
    write_frame(&mut buf, msg).expect("in-memory write");
    buf
}

#[test]
fn every_message_round_trips() {
    let messages = vec![
        Message::Hello {
            version: PROTOCOL_VERSION,
            worker: 4242,
        },
        Message::Request {
            sweep: 3,
            meta: meta(),
        },
        Message::Lease {
            sweep: 3,
            lo: 75,
            hi: 150,
        },
        Message::Wait,
        Message::SweepComplete { sweep: 3 },
        Message::Result {
            sweep: 3,
            lo: 75,
            hi: 150,
            report: SweepReport::default(),
        },
        Message::Heartbeat,
        Message::Finished {
            telemetry: TelemetrySnapshot::empty(),
        },
        Message::Fault {
            message: "nope".to_string(),
        },
    ];
    // One stream carrying all of them, then a clean close.
    let mut stream = Vec::new();
    for msg in &messages {
        stream.extend(encode(msg));
    }
    let mut cursor = Cursor::new(stream);
    for msg in &messages {
        let got = read_frame(&mut cursor)
            .expect("valid frame")
            .expect("frame present");
        assert_eq!(got.tag(), msg.tag());
    }
    assert!(
        read_frame(&mut cursor).expect("clean EOF").is_none(),
        "end between frames is an orderly close, not an error"
    );
}

#[test]
fn half_close_between_frames_is_a_clean_end() {
    // A worker that sends Finished and shuts down its write half: the
    // reader sees exactly one frame then EOF at a frame boundary.
    let bytes = encode(&Message::Heartbeat);
    let mut cursor = Cursor::new(bytes);
    assert!(read_frame(&mut cursor).unwrap().is_some());
    assert!(read_frame(&mut cursor).unwrap().is_none());
}

#[test]
fn truncated_length_prefix_is_typed() {
    let mut full = encode(&Message::Wait);
    full.truncate(2); // die mid-prefix
    match read_frame(&mut Cursor::new(full)) {
        Err(WireError::Truncated {
            expected: 4,
            got: 2,
        }) => {}
        other => panic!("expected Truncated{{4, 2}}, got {other:?}"),
    }
}

#[test]
fn truncated_payload_is_typed() {
    let full = encode(&Message::Request {
        sweep: 0,
        meta: meta(),
    });
    let cut = full.len() - 5;
    let mut partial = full;
    partial.truncate(cut);
    match read_frame(&mut Cursor::new(partial)) {
        Err(WireError::Truncated { expected, got }) => {
            assert_eq!(
                got,
                expected - 5,
                "all but the last 5 payload bytes arrived"
            );
        }
        other => panic!("expected Truncated, got {other:?}"),
    }
}

#[test]
fn oversized_length_prefix_is_refused_before_reading_the_body() {
    // 4 GiB declared, zero bytes behind it: the reader must refuse on
    // the prefix alone rather than try to allocate or drain the body.
    let bytes = u32::MAX.to_be_bytes().to_vec();
    match read_frame(&mut Cursor::new(bytes)) {
        Err(WireError::Oversized { len, max }) => {
            assert_eq!(len, u32::MAX as usize);
            assert_eq!(max, MAX_FRAME);
        }
        other => panic!("expected Oversized, got {other:?}"),
    }
}

#[test]
fn garbage_payload_is_malformed_not_a_panic() {
    let payload = b"]]not json at all{{";
    let mut bytes = (payload.len() as u32).to_be_bytes().to_vec();
    bytes.extend_from_slice(payload);
    assert!(matches!(
        read_frame(&mut Cursor::new(bytes)),
        Err(WireError::Malformed(_))
    ));
}

#[test]
fn non_utf8_payload_is_malformed() {
    let payload = [0xFFu8, 0xFE, 0x80, 0x81];
    let mut bytes = (payload.len() as u32).to_be_bytes().to_vec();
    bytes.extend_from_slice(&payload);
    assert!(matches!(
        read_frame(&mut Cursor::new(bytes)),
        Err(WireError::Malformed(_))
    ));
}

#[test]
fn valid_json_that_is_not_a_message_is_malformed() {
    let payload = br#"{"Leese": {"sweep": 0}}"#;
    let mut bytes = (payload.len() as u32).to_be_bytes().to_vec();
    bytes.extend_from_slice(payload.as_slice());
    assert!(matches!(
        read_frame(&mut Cursor::new(bytes)),
        Err(WireError::Malformed(_))
    ));
}

#[test]
fn garbage_mid_stream_poisons_only_the_stream_tail() {
    // One good frame, then garbage: the good frame parses, the stream
    // then fails typed — no resynchronization, no hang.
    let mut stream = encode(&Message::Heartbeat);
    stream.extend_from_slice(&[0xDE, 0xAD]);
    let mut cursor = Cursor::new(stream);
    assert!(read_frame(&mut cursor).unwrap().is_some());
    assert!(matches!(
        read_frame(&mut cursor),
        Err(WireError::Truncated { .. })
    ));
}

/// A reader that yields its bytes then stalls forever with
/// `WouldBlock` — a socket whose peer died without closing.
struct Stalls {
    data: Vec<u8>,
    pos: usize,
}

impl Read for Stalls {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.pos < self.data.len() {
            let n = buf.len().min(self.data.len() - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        } else {
            Err(std::io::Error::from(std::io::ErrorKind::WouldBlock))
        }
    }
}

#[test]
fn idle_timeout_between_frames_is_a_tick_not_a_failure() {
    let mut stalled = Stalls {
        data: Vec::new(),
        pos: 0,
    };
    match read_frame(&mut stalled) {
        Err(e) => assert!(e.is_timeout(), "idle tick must be recognizable: {e:?}"),
        other => panic!("expected a timeout tick, got {other:?}"),
    }
}

#[test]
fn stall_mid_frame_exhausts_the_budget_and_reports_truncation() {
    // Prefix promises 64 bytes, peer wedges after 3: the reader must
    // come back with Truncated in bounded time, never spin forever.
    let mut data = 64u32.to_be_bytes().to_vec();
    data.extend_from_slice(&[1, 2, 3]);
    let mut stalled = Stalls { data, pos: 0 };
    match read_frame(&mut stalled) {
        Err(WireError::Truncated {
            expected: 64,
            got: 3,
        }) => {}
        other => panic!("expected Truncated{{64, 3}}, got {other:?}"),
    }
}

#[test]
fn frames_larger_than_the_cap_are_refused_at_write_time_too() {
    let huge = Message::Fault {
        message: "x".repeat(MAX_FRAME + 1),
    };
    let mut sink = Vec::new();
    assert!(matches!(
        write_frame(&mut sink, &huge),
        Err(WireError::Oversized { .. })
    ));
    assert!(sink.is_empty(), "nothing may reach the wire");
}

/// Bytes a hostile or broken peer might send, drawn from JSON syntax,
/// message names and a non-UTF-8 byte.
const ALPHABET: &[u8] = b"{}[]\":,0123456789 HelloLeaseWaitHeartbeatsweeplohi\\\xff";

/// Whole frames the reader accepts, or nearly does.
const TEMPLATES: &[&str] = &[
    r#""Heartbeat""#,
    r#""Wait""#,
    r#"{"Lease":{"sweep":3,"lo":0,"hi":9}}"#,
    r#"{"Lease":{"sweep":3}}"#,
    r#"{"Hello":{"version":1,"worker":"x"}}"#,
];

/// Arbitrary byte streams biased toward the reader's interesting paths:
/// a few frames, each either a template or alphabet bytes under a small
/// declared length (so valid, truncated, malformed and non-UTF-8 frames
/// all occur), then raw noise that may start a frame it never finishes.
fn arbitrary_stream() -> impl Strategy<Value = Vec<u8>> {
    let frame = (
        0..TEMPLATES.len() + 1,
        0u32..48,
        collection::vec(0..ALPHABET.len(), 0..48),
    );
    (
        collection::vec(frame, 0..4),
        collection::vec(0u8..=255, 0..16),
    )
        .prop_map(|(frames, noise)| {
            let mut bytes = Vec::new();
            for (template, len, payload) in frames {
                let payload: Vec<u8> = match TEMPLATES.get(template) {
                    Some(t) => t.as_bytes().to_vec(),
                    None => payload.iter().map(|&i| ALPHABET[i]).collect(),
                };
                let len = if template < TEMPLATES.len() {
                    u32::try_from(payload.len()).unwrap()
                } else {
                    len
                };
                bytes.extend_from_slice(&len.to_be_bytes());
                bytes.extend(payload);
            }
            bytes.extend(noise);
            bytes
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Never-panic: reading frames from any byte stream ends in a clean
    /// close or a typed error — never a panic, and never an I/O error
    /// from an in-memory stream.
    #[test]
    fn arbitrary_byte_streams_never_panic_read_frame(bytes in arbitrary_stream()) {
        let mut cursor = Cursor::new(bytes);
        // Every frame read consumes its 4-byte prefix, so this ends.
        loop {
            match read_frame(&mut cursor) {
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(e) => {
                    prop_assert!(!matches!(e, WireError::Io(_)), "{e}");
                    break;
                }
            }
        }
    }
}
