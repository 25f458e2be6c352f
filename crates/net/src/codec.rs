//! The frame envelope: length prefix + checksum around a payload.
//!
//! ```text
//! frame := [ payload_len : u32 LE ][ crc32(payload) : u32 LE ][ payload ]
//! ```
//!
//! The same envelope the WAL uses on disk, applied to the socket — one
//! framing discipline across the durability and network layers. All
//! decoding is pure and panic-free: [`decode_frame`] is the one-shot
//! function (typed [`FrameError`] on any defect, including
//! [`FrameError::Truncated`] for a short buffer), and [`FrameBuffer`]
//! wraps it incrementally for socket readers, where "truncated" just
//! means "feed me more bytes". The server's reader drains its buffer
//! with [`FrameBuffer::next_request`]: same envelope checks, same CRC
//! over the whole payload, but a `SubmitBatch` keeps its responses as
//! the bytes they arrived as.

use crate::error::FrameError;
use crate::frame::{Frame, Request, SubmitBatchBytes};
use ldp_service::codec::{crc32, put_enveloped};

/// Largest accepted frame payload: 16 MiB.
///
/// Generous for report batches (a 1k-report OUE batch over a 128-cell
/// domain is ~37 KiB) while bounding what one frame can make a peer
/// buffer.
pub const MAX_FRAME_LEN: u32 = 16 * 1024 * 1024;

/// Wrap one frame payload in the wire envelope.
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    put_enveloped(&mut out, |out| frame.encode_payload_into(out));
    debug_assert!(out.len() - 8 <= MAX_FRAME_LEN as usize);
    out
}

/// The envelope at the front of `bytes`: its checksum field and the
/// payload behind it, not yet verified against each other. A buffer
/// that ends mid-frame is a typed [`FrameError::Truncated`] carrying how
/// many bytes the complete frame needs — never a panic.
fn open_envelope(bytes: &[u8]) -> Result<(u32, &[u8]), FrameError> {
    if bytes.len() < 8 {
        return Err(FrameError::Truncated {
            needed: 8,
            have: bytes.len(),
        });
    }
    let len = u32::from_le_bytes(bytes[..4].try_into().expect("4 bytes"));
    if len > MAX_FRAME_LEN {
        return Err(FrameError::Oversize {
            len,
            max: MAX_FRAME_LEN,
        });
    }
    let total = 8 + len as usize;
    if bytes.len() < total {
        return Err(FrameError::Truncated {
            needed: total,
            have: bytes.len(),
        });
    }
    let crc = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    Ok((crc, &bytes[8..total]))
}

/// Verify `payload` against its envelope's checksum and decode it.
fn decode_checked(expected: u32, payload: &[u8]) -> Result<Frame, FrameError> {
    let got = crc32(payload);
    if got != expected {
        return Err(FrameError::Checksum { expected, got });
    }
    Frame::decode_payload(payload)
}

/// Decode one frame from the front of `bytes`.
///
/// Returns the frame and the number of bytes it consumed. A buffer that
/// ends mid-frame is a typed [`FrameError::Truncated`] carrying how many
/// bytes the complete frame needs — never a panic.
pub fn decode_frame(bytes: &[u8]) -> Result<(Frame, usize), FrameError> {
    let (crc, payload) = open_envelope(bytes)?;
    Ok((decode_checked(crc, payload)?, 8 + payload.len()))
}

/// An incremental frame decoder for socket readers.
///
/// [`feed`](Self::feed) whatever the socket produced — any split, down
/// to one byte at a time — then drain complete frames with
/// [`next_frame`](Self::next_frame) (the server drains
/// [`next_request`](Self::next_request)). Partial frames simply wait
/// for more bytes; every other defect (oversize, checksum, version,
/// malformed) is a typed error, after which the stream is
/// unsynchronized and the connection should be dropped.
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    start: usize,
}

impl FrameBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        FrameBuffer::default()
    }

    /// Append bytes read from the transport.
    pub fn feed(&mut self, bytes: &[u8]) {
        // Compact lazily: only when the dead prefix dominates the
        // buffer, so steady-state feeding stays O(bytes).
        if self.start > 4096 && self.start * 2 > self.buf.len() {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet decoded.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Decode the next complete frame, if the buffer holds one.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, FrameError> {
        self.next_with(decode_checked)
    }

    /// [`next_frame`](Self::next_frame) for the server's reader: the same
    /// envelope and the same checksum over the whole payload, but a
    /// `SubmitBatch` comes back with its responses still encoded — owned
    /// bytes under their own CRC, no row built. Every other payload is
    /// decoded as `next_frame` decodes it.
    pub fn next_request(&mut self) -> Result<Option<Request>, FrameError> {
        self.next_with(
            |crc, payload| match SubmitBatchBytes::from_payload(payload, crc) {
                Some(submit) => submit.map(Request::Submit),
                None => decode_checked(crc, payload).map(Request::Frame),
            },
        )
    }

    /// Take the next complete envelope off the buffer and `decode` its
    /// checksum field and payload.
    fn next_with<T>(
        &mut self,
        decode: impl FnOnce(u32, &[u8]) -> Result<T, FrameError>,
    ) -> Result<Option<T>, FrameError> {
        let (crc, payload) = match open_envelope(&self.buf[self.start..]) {
            Ok(envelope) => envelope,
            Err(FrameError::Truncated { .. }) => return Ok(None),
            Err(e) => return Err(e),
        };
        let decoded = decode(crc, payload)?;
        self.start += 8 + payload.len();
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        }
        Ok(Some(decoded))
    }

    /// Discard all buffered bytes (used when reconnecting).
    pub fn clear(&mut self) {
        self.buf.clear();
        self.start = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{AckBody, WireError, WIRE_VERSION};
    use ldp_service::codec::put_u32;

    fn sample() -> Frame {
        Frame::Ack {
            corr: 42,
            body: AckBody::Submitted { next_seq: 7 },
        }
    }

    #[test]
    fn frame_roundtrips_through_envelope() {
        let frame = sample();
        let bytes = encode_frame(&frame);
        let (back, consumed) = decode_frame(&bytes).unwrap();
        assert_eq!(back, frame);
        assert_eq!(consumed, bytes.len());
    }

    #[test]
    fn buffer_reassembles_byte_at_a_time() {
        let frames = vec![
            Frame::Hello {
                corr: 1,
                tenant: "acme".into(),
                resume: None,
                token: None,
            },
            Frame::Err {
                corr: 2,
                error: WireError::NoOpenRound,
            },
            sample(),
        ];
        let mut wire = Vec::new();
        for f in &frames {
            wire.extend_from_slice(&encode_frame(f));
        }
        let mut fb = FrameBuffer::new();
        let mut decoded = Vec::new();
        for byte in wire {
            fb.feed(&[byte]);
            while let Some(f) = fb.next_frame().unwrap() {
                decoded.push(f);
            }
        }
        assert_eq!(decoded, frames);
        assert_eq!(fb.pending(), 0);
    }

    #[test]
    fn truncated_is_need_more_not_error() {
        let bytes = encode_frame(&sample());
        for cut in 0..bytes.len() {
            match decode_frame(&bytes[..cut]) {
                Err(FrameError::Truncated { needed, have }) => {
                    assert_eq!(have, cut);
                    assert!(needed > cut);
                }
                other => panic!("cut {cut}: expected Truncated, got {other:?}"),
            }
            let mut fb = FrameBuffer::new();
            fb.feed(&bytes[..cut]);
            assert_eq!(fb.next_frame().unwrap(), None);
        }
    }

    #[test]
    fn corrupt_crc_is_a_typed_error() {
        let mut bytes = encode_frame(&sample());
        let n = bytes.len();
        bytes[n - 1] ^= 0x01;
        assert!(matches!(
            decode_frame(&bytes),
            Err(FrameError::Checksum { .. })
        ));
    }

    #[test]
    fn oversized_length_prefix_is_a_typed_error() {
        let mut bytes = encode_frame(&sample());
        bytes[..4].copy_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        assert_eq!(
            decode_frame(&bytes),
            Err(FrameError::Oversize {
                len: MAX_FRAME_LEN + 1,
                max: MAX_FRAME_LEN
            })
        );
    }

    #[test]
    fn unknown_version_is_a_typed_error() {
        let mut payload = sample().encode_payload();
        payload[0] = WIRE_VERSION + 9;
        let mut bytes = Vec::new();
        put_u32(&mut bytes, payload.len() as u32);
        put_u32(&mut bytes, crc32(&payload));
        bytes.extend_from_slice(&payload);
        assert_eq!(
            decode_frame(&bytes),
            Err(FrameError::Version {
                got: WIRE_VERSION + 9
            })
        );
    }
}
