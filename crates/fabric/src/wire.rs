//! The length-framed codec: `4-byte big-endian payload length` +
//! `payload` (compact JSON of one [`Message`]).
//!
//! Deliberately minimal — no compression, no checksums, no streaming
//! bodies — because the payloads are small folds and the transport is a
//! loopback socket. What the codec *does* guarantee is boundedness:
//! a frame can never exceed [`MAX_FRAME`], a clean peer close is
//! distinguishable from mid-frame truncation, and a stalled peer
//! exhausts a finite retry budget instead of wedging the reader forever.

use crate::error::WireError;
use crate::protocol::Message;
use serde::{Deserialize, Serialize};
use std::io::{ErrorKind, Read, Write};

/// Upper bound on a frame payload, in bytes. The largest real payload is
/// a `Result` frame carrying one lease chunk's
/// [`SweepReport`](rendezvous_runner::SweepReport) (a few KiB); 16 MiB
/// is comfortable headroom while still refusing a corrupt or hostile
/// length prefix before allocating for it.
pub const MAX_FRAME: usize = 16 << 20;

/// How many consecutive read-timeout ticks [`read_frame`] tolerates
/// *mid-frame* before declaring the stream truncated. Between frames a
/// timeout is returned to the caller (it is the server's expiry tick);
/// mid-frame the sender has already committed a length prefix, so a
/// short stall is tolerated but a wedged peer is cut off.
const MID_FRAME_TIMEOUT_BUDGET: u32 = 100;

/// Serializes `msg` and writes it as one frame.
///
/// The frame is assembled in memory and written with a single
/// `write_all`, so two threads sharing a writer behind a lock can never
/// interleave partial frames.
///
/// # Errors
///
/// [`WireError::Io`] if the write fails; [`WireError::Oversized`] if the
/// serialized message exceeds [`MAX_FRAME`] (a protocol bug, not an
/// environmental failure).
pub fn write_frame<W: Write>(w: &mut W, msg: &Message) -> Result<(), WireError> {
    write_json_frame(w, msg, msg.tag())
}

/// Serializes any JSON-speaking value and writes it as one frame — the
/// generic codec behind [`write_frame`], shared with the sweep service's
/// query protocol so every framed conversation in the workspace has the
/// same boundedness guarantees. `what` names the value in error messages.
///
/// # Errors
///
/// As [`write_frame`].
pub fn write_json_frame<W: Write, T: Serialize>(
    w: &mut W,
    value: &T,
    what: &str,
) -> Result<(), WireError> {
    let payload = serde_json::to_string(value)
        .map_err(|e| WireError::Malformed(format!("serialize {what}: {e}")))?;
    let bytes = payload.as_bytes();
    if bytes.len() > MAX_FRAME {
        return Err(WireError::Oversized {
            len: bytes.len(),
            max: MAX_FRAME,
        });
    }
    let len = u32::try_from(bytes.len()).expect("frame cap fits in u32");
    let mut frame = Vec::with_capacity(4 + bytes.len());
    frame.extend_from_slice(&len.to_be_bytes());
    frame.extend_from_slice(bytes);
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// Reads one frame, or observes a clean end of stream.
///
/// Returns `Ok(Some(msg))` for a complete frame, `Ok(None)` when the
/// stream ends **between** frames (the peer's orderly close). A timeout
/// with no bytes read is surfaced as [`WireError::Io`] (check
/// [`WireError::is_timeout`]) so callers on sockets with read timeouts
/// can use it as an idle tick; once the length prefix has started
/// arriving, timeouts are retried up to a fixed budget and then reported
/// as [`WireError::Truncated`] — the reader never hangs on a peer that
/// dies mid-frame without closing.
///
/// # Errors
///
/// [`WireError::Truncated`] for EOF or a stall mid-frame,
/// [`WireError::Oversized`] for a length prefix over [`MAX_FRAME`],
/// [`WireError::Malformed`] for payloads that are not a protocol
/// message, [`WireError::Io`] for everything the OS refuses.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<Message>, WireError> {
    read_json_frame(r, "a message")
}

/// Reads one frame of any JSON-speaking type, or observes a clean end of
/// stream — the generic codec behind [`read_frame`], shared with the
/// sweep service's query protocol. `what` names the expected type in the
/// malformed-payload error.
///
/// # Errors
///
/// As [`read_frame`].
pub fn read_json_frame<R: Read, T: Deserialize>(
    r: &mut R,
    what: &str,
) -> Result<Option<T>, WireError> {
    let mut len_buf = [0u8; 4];
    if !read_full(r, &mut len_buf, true)? {
        return Ok(None);
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(WireError::Oversized {
            len,
            max: MAX_FRAME,
        });
    }
    let mut payload = vec![0u8; len];
    read_full(r, &mut payload, false)?;
    let text = std::str::from_utf8(&payload)
        .map_err(|e| WireError::Malformed(format!("payload is not UTF-8: {e}")))?;
    match serde_json::from_str::<T>(text) {
        Ok(value) => Ok(Some(value)),
        Err(e) => Err(WireError::Malformed(format!("payload is not {what}: {e}"))),
    }
}

/// Fills `buf` from `r`. Returns `Ok(false)` for EOF before the first
/// byte when `eof_ok` (the clean between-frames close); EOF or an
/// exhausted timeout budget after that is [`WireError::Truncated`].
fn read_full<R: Read>(r: &mut R, buf: &mut [u8], eof_ok: bool) -> Result<bool, WireError> {
    let mut got = 0;
    let mut stalls = 0u32;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => {
                if got == 0 && eof_ok {
                    return Ok(false);
                }
                return Err(WireError::Truncated {
                    expected: buf.len(),
                    got,
                });
            }
            Ok(n) => {
                got += n;
                stalls = 0;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                // Idle between frames: the caller's tick. Mid-frame: a
                // stall, tolerated only up to the budget.
                if got == 0 && eof_ok {
                    return Err(WireError::Io(e));
                }
                stalls += 1;
                if stalls >= MID_FRAME_TIMEOUT_BUDGET {
                    return Err(WireError::Truncated {
                        expected: buf.len(),
                        got,
                    });
                }
            }
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    Ok(true)
}
