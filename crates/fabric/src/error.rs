//! Typed failures for the fabric: wire-level corruption, protocol
//! violations, checkpoint damage, and incomplete runs each get their own
//! variant so drivers and tests can assert on the *kind* of failure, not
//! on message text.

use std::fmt;

/// A defect in the length-framed byte stream itself — the frame never
/// became a [`Message`](crate::Message).
///
/// Every variant is terminal for its connection: the reader cannot
/// resynchronize a corrupt length-prefixed stream, so the peer is
/// treated as lost and its leases requeued.
#[derive(Debug)]
pub enum WireError {
    /// The underlying socket read or write failed.
    Io(std::io::Error),
    /// A length prefix exceeded [`MAX_FRAME`](crate::wire::MAX_FRAME) —
    /// either corruption or a hostile peer; the frame is not read.
    Oversized {
        /// The declared payload length.
        len: usize,
        /// The cap it exceeded.
        max: usize,
    },
    /// The stream ended (or stalled past the retry budget) mid-frame:
    /// `got` of the `expected` bytes arrived. A clean close lands
    /// *between* frames and is not an error.
    Truncated {
        /// Bytes the frame still owed.
        expected: usize,
        /// Bytes that actually arrived.
        got: usize,
    },
    /// The payload was not valid UTF-8 JSON for any protocol message.
    Malformed(String),
}

impl WireError {
    /// True when this is a read-timeout tick (no bytes arrived inside
    /// the socket's read timeout) rather than a real failure — the
    /// server's per-connection loop uses these ticks to run lease-expiry
    /// checks between frames.
    #[must_use]
    pub fn is_timeout(&self) -> bool {
        matches!(
            self,
            WireError::Io(e) if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            )
        )
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire i/o error: {e}"),
            WireError::Oversized { len, max } => {
                write!(f, "frame length {len} exceeds the {max}-byte cap")
            }
            WireError::Truncated { expected, got } => {
                write!(f, "stream ended mid-frame: got {got} of {expected} bytes")
            }
            WireError::Malformed(why) => write!(f, "malformed frame payload: {why}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> WireError {
        WireError::Io(e)
    }
}

/// Any failure of the fabric above the byte level.
#[derive(Debug)]
pub enum FabricError {
    /// The connection's byte stream broke (see [`WireError`]).
    Wire(WireError),
    /// A peer sent a frame the protocol does not allow in its current
    /// state (unknown sweep index, lease range off the chunk partition,
    /// reply without a request, ...).
    Protocol(String),
    /// Coordinator and worker disagree about what sweep `sweep` *is* —
    /// their workload fingerprints differ, so no range of it may be
    /// leased. Usually a driver bug: workers launched with different
    /// selection flags than the coordinator expects.
    MetaMismatch {
        /// The sweep's position in the run's sweep sequence.
        sweep: usize,
        /// The fingerprint the coordinator registered first.
        expected: String,
        /// The conflicting fingerprint.
        found: String,
    },
    /// The coordinator answered a request with a fault: it will lease
    /// this worker nothing of the sweep (an unusable checkpoint, a
    /// fingerprint it cannot accept).
    Refused(String),
    /// The checkpoint stream is unusable for this run (fingerprint
    /// mismatch, overlapping ranges, range off the end of the sweep).
    Checkpoint(String),
    /// The run ended with unfinished ranges — workers died faster than
    /// their leases could be reassigned to live ones.
    Incomplete {
        /// Chunks never completed, across all sweeps.
        outstanding: usize,
    },
}

impl fmt::Display for FabricError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FabricError::Wire(e) => write!(f, "{e}"),
            FabricError::Protocol(why) => write!(f, "protocol violation: {why}"),
            FabricError::MetaMismatch {
                sweep,
                expected,
                found,
            } => write!(
                f,
                "sweep #{sweep} fingerprint mismatch: coordinator has {expected}, peer sent {found}"
            ),
            FabricError::Refused(why) => write!(f, "coordinator refused: {why}"),
            FabricError::Checkpoint(why) => write!(f, "checkpoint unusable: {why}"),
            FabricError::Incomplete { outstanding } => write!(
                f,
                "run incomplete: {outstanding} leased range(s) never completed"
            ),
        }
    }
}

impl std::error::Error for FabricError {}

impl From<WireError> for FabricError {
    fn from(e: WireError) -> FabricError {
        FabricError::Wire(e)
    }
}

impl From<std::io::Error> for FabricError {
    fn from(e: std::io::Error) -> FabricError {
        FabricError::Wire(WireError::Io(e))
    }
}
