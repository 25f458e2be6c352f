//! Typed errors of the network layer.
//!
//! Three distinct failure domains get three distinct types:
//!
//! * [`FrameError`] — the *byte stream* is wrong (torn, corrupt,
//!   oversized, or from an unknown protocol version). Produced by the
//!   pure framing codec; never a panic, whatever the input.
//! * [`WireError`] — the *peer* rejected a well-formed request (unknown
//!   tenant, sequence gap, …). Travels in `Err` frames.
//! * [`NetError`] — the client-facing union: transport I/O, framing,
//!   remote rejection, or a local protocol-state violation.

use crate::frame::WireError;

/// A defect in the framed byte stream itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The buffer ends before the frame does. Incremental readers treat
    /// this as "need more bytes", not a failure.
    Truncated {
        /// Bytes the frame needs in total.
        needed: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// The length prefix exceeds [`MAX_FRAME_LEN`](crate::MAX_FRAME_LEN)
    /// — a corrupt or hostile peer; reading on would buffer unboundedly.
    Oversize {
        /// The declared payload length.
        len: u32,
        /// The maximum this implementation accepts.
        max: u32,
    },
    /// The payload checksum does not match its header.
    Checksum {
        /// CRC-32 the header promised.
        expected: u32,
        /// CRC-32 the payload actually has.
        got: u32,
    },
    /// The payload's version byte names a protocol we do not speak.
    Version {
        /// The version byte received.
        got: u8,
    },
    /// The payload is structurally undecodable (bad tag, truncated
    /// body, trailing bytes, invalid UTF-8 in an id, …).
    Malformed {
        /// What failed to decode.
        detail: String,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated { needed, have } => {
                write!(f, "truncated frame: {have} of {needed} bytes")
            }
            FrameError::Oversize { len, max } => {
                write!(f, "frame length {len} exceeds maximum {max}")
            }
            FrameError::Checksum { expected, got } => write!(
                f,
                "frame checksum mismatch: header {expected:#010x}, payload {got:#010x}"
            ),
            FrameError::Version { got } => write!(f, "unsupported wire version {got}"),
            FrameError::Malformed { detail } => write!(f, "malformed frame payload: {detail}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Anything a [`NetClient`](crate::NetClient) call can fail with.
#[derive(Debug)]
pub enum NetError {
    /// The transport failed (connect, read, write).
    Io(std::io::Error),
    /// The inbound byte stream failed framing or decoding.
    Frame(FrameError),
    /// The server rejected the request with a typed wire error.
    Remote(WireError),
    /// An RPC missed its deadline: no reply arrived within the
    /// client's configured timeout. The connection state is unknown;
    /// reconnect-and-replay recovers.
    Timeout {
        /// The deadline that expired, in milliseconds.
        after_ms: u64,
    },
    /// The conversation broke protocol (an ack for the wrong request,
    /// an operation outside its lifecycle slot, …).
    Protocol {
        /// What went out of step.
        detail: String,
    },
}

impl NetError {
    /// Uniform retryability: transport, framing, and timeout failures
    /// always warrant a reconnect-and-retry; remote rejections defer
    /// to [`WireError::retryable`]; local protocol-state violations
    /// never do.
    pub fn retryable(&self) -> bool {
        match self {
            NetError::Io(_) | NetError::Frame(_) | NetError::Timeout { .. } => true,
            NetError::Remote(e) => e.retryable(),
            NetError::Protocol { .. } => false,
        }
    }

    /// Server-suggested minimum backoff before retrying, when the
    /// failure carried one (a remote `Overloaded` rejection).
    pub fn retry_after(&self) -> Option<std::time::Duration> {
        match self {
            NetError::Remote(e) => e.retry_after(),
            _ => None,
        }
    }
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "transport error: {e}"),
            NetError::Frame(e) => write!(f, "framing error: {e}"),
            NetError::Remote(e) => write!(f, "server rejected request: {e}"),
            NetError::Timeout { after_ms } => {
                write!(f, "rpc timed out after {after_ms} ms")
            }
            NetError::Protocol { detail } => write!(f, "protocol violation: {detail}"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io(e) => Some(e),
            NetError::Frame(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

impl From<FrameError> for NetError {
    fn from(e: FrameError) -> Self {
        NetError::Frame(e)
    }
}

impl From<WireError> for NetError {
    fn from(e: WireError) -> Self {
        NetError::Remote(e)
    }
}
