//! Binary codec primitives shared by the write-ahead log and the
//! network wire protocol (`ldp_net`).
//!
//! Everything is fixed little-endian; floats travel as IEEE-754 bit
//! patterns so values decoded from a WAL frame or a network frame are
//! **bit-identical** to what was encoded — the property every
//! "recovered/replayed estimates match exactly" guarantee in this
//! workspace rests on.
//!
//! Decoders are bounds-checked and return `Err(String)` describing the
//! first malformed byte; they never panic on hostile input. Callers wrap
//! the message into their own typed error
//! ([`CoreError::Corrupt`](ldp_ids::CoreError::Corrupt) for durability
//! files, `FrameError::Malformed` on the wire).

use ldp_fo::{FoKind, Report};
use ldp_ids::collector::RoundEstimate;
use ldp_ids::protocol::{ReportRequest, UserResponse};

/// Append a `u32` in little-endian.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u64` in little-endian.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append an `f64` as its IEEE-754 bit pattern.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// Append a length-prefixed UTF-8 string (`u32` byte length + bytes).
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Append a frequency-oracle kind as its stable one-byte tag.
pub fn put_fo(out: &mut Vec<u8>, fo: FoKind) {
    out.push(match fo {
        FoKind::Grr => 0,
        FoKind::Oue => 1,
        FoKind::Olh => 2,
        FoKind::Adaptive => 3,
    });
}

/// Append a [`ReportRequest`] (round, t, oracle, ε, domain).
pub fn put_request(out: &mut Vec<u8>, request: &ReportRequest) {
    put_u64(out, request.round);
    put_u64(out, request.t);
    put_fo(out, request.fo);
    put_f64(out, request.epsilon);
    put_u32(out, request.domain_size as u32);
}

/// Append one perturbed [`Report`].
pub fn put_report(out: &mut Vec<u8>, report: &Report) {
    match report {
        Report::Grr(v) => {
            out.push(0);
            put_u32(out, *v);
        }
        Report::Oue { bits, len } => {
            out.push(1);
            put_u32(out, *len);
            put_u32(out, bits.len() as u32);
            for word in bits {
                put_u64(out, *word);
            }
        }
        Report::Olh { seed, bucket } => {
            out.push(2);
            put_u64(out, *seed);
            put_u32(out, *bucket);
        }
    }
}

/// Append one [`UserResponse`] (report or refusal).
pub fn put_response(out: &mut Vec<u8>, response: &UserResponse) {
    match response {
        UserResponse::Report { round, report } => {
            out.push(0);
            put_u64(out, *round);
            put_report(out, report);
        }
        UserResponse::Refused {
            round,
            requested,
            available,
        } => {
            out.push(1);
            put_u64(out, *round);
            put_f64(out, *requested);
            put_f64(out, *available);
        }
    }
}

/// Append a `u32` count and then each of `responses` — what
/// [`take_responses`] reads back.
pub fn put_responses(out: &mut Vec<u8>, responses: &[UserResponse]) {
    put_u32(out, responses.len() as u32);
    for response in responses {
        put_response(out, response);
    }
}

/// Append a [`RoundEstimate`] (bit-exact frequencies).
pub fn put_estimate(out: &mut Vec<u8>, estimate: &RoundEstimate) {
    put_u64(out, estimate.reporters);
    put_f64(out, estimate.epsilon);
    put_u32(out, estimate.frequencies.len() as u32);
    for f in &estimate.frequencies {
        put_f64(out, *f);
    }
}

/// Append `[ len : u32 ][ crc32(payload) : u32 ][ payload ]` — the one
/// envelope of WAL records, snapshots and wire frames. `payload` encodes
/// in place behind eight reserved bytes, which are patched afterwards,
/// so the payload is never copied.
pub fn put_enveloped(out: &mut Vec<u8>, payload: impl FnOnce(&mut Vec<u8>)) {
    let at = out.len();
    out.extend_from_slice(&[0; 8]);
    payload(out);
    let body = &out[at + 8..];
    let len = u32::try_from(body.len()).expect("payload fits the u32 length prefix");
    let crc = crc32(body);
    out[at..at + 4].copy_from_slice(&len.to_le_bytes());
    out[at + 4..at + 8].copy_from_slice(&crc.to_le_bytes());
}

/// A bounds-checked little-endian reader over a payload.
#[derive(Debug)]
pub struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, at: 0 }
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.at
    }

    /// Read the next `n` bytes as they are.
    pub(crate) fn bytes(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.remaining() < n {
            return Err(format!(
                "payload truncated: needed {n} bytes at offset {}, {} left",
                self.at,
                self.remaining()
            ));
        }
        let slice = &self.bytes[self.at..self.at + n];
        self.at += n;
        Ok(slice)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, String> {
        Ok(self.bytes(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    /// Read an `f64` from its IEEE-754 bit pattern.
    pub fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a length-prefixed UTF-8 string written by [`put_str`].
    pub fn str(&mut self) -> Result<String, String> {
        let len = self.u32()? as usize;
        let bytes = self.bytes(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|e| format!("invalid UTF-8 string: {e}"))
    }

    /// Assert the payload was consumed exactly.
    pub fn finish(&self) -> Result<(), String> {
        if self.remaining() != 0 {
            return Err(format!("{} trailing bytes after record", self.remaining()));
        }
        Ok(())
    }
}

/// Read a frequency-oracle kind written by [`put_fo`].
pub fn take_fo(cur: &mut Cursor<'_>) -> Result<FoKind, String> {
    match cur.u8()? {
        0 => Ok(FoKind::Grr),
        1 => Ok(FoKind::Oue),
        2 => Ok(FoKind::Olh),
        3 => Ok(FoKind::Adaptive),
        tag => Err(format!("unknown oracle tag {tag}")),
    }
}

/// Read a [`ReportRequest`] written by [`put_request`].
pub fn take_request(cur: &mut Cursor<'_>) -> Result<ReportRequest, String> {
    Ok(ReportRequest {
        round: cur.u64()?,
        t: cur.u64()?,
        fo: take_fo(cur)?,
        epsilon: cur.f64()?,
        domain_size: cur.u32()? as usize,
    })
}

/// Read a [`Report`] written by [`put_report`].
pub fn take_report(cur: &mut Cursor<'_>) -> Result<Report, String> {
    match cur.u8()? {
        0 => Ok(Report::Grr(cur.u32()?)),
        1 => {
            let len = cur.u32()?;
            let words = cur.u32()? as usize;
            // Any count `put_report` wrote decodes; a forged one cannot
            // allocate past the payload it arrived in.
            if words > cur.remaining() / 8 {
                return Err(format!(
                    "OUE word count {words} exceeds the {} bytes left",
                    cur.remaining()
                ));
            }
            let mut bits = Vec::with_capacity(words);
            for _ in 0..words {
                bits.push(cur.u64()?);
            }
            Ok(Report::Oue { bits, len })
        }
        2 => Ok(Report::Olh {
            seed: cur.u64()?,
            bucket: cur.u32()?,
        }),
        tag => Err(format!("unknown report tag {tag}")),
    }
}

/// Read a [`UserResponse`] written by [`put_response`].
pub fn take_response(cur: &mut Cursor<'_>) -> Result<UserResponse, String> {
    match cur.u8()? {
        0 => Ok(UserResponse::Report {
            round: cur.u64()?,
            report: take_report(cur)?,
        }),
        1 => Ok(UserResponse::Refused {
            round: cur.u64()?,
            requested: cur.f64()?,
            available: cur.f64()?,
        }),
        tag => Err(format!("unknown response tag {tag}")),
    }
}

/// Bytes of the smallest response [`put_response`] writes: a GRR report
/// (response tag, round, report tag, value).
const MIN_RESPONSE_BYTES: usize = 14;

/// Read the count [`put_responses`] wrote. One that the bytes behind it
/// cannot hold is refused here, before anything is allocated for it: a
/// checksum-valid frame cannot make its reader reserve more than the
/// frame's own length.
pub fn take_response_count(cur: &mut Cursor<'_>) -> Result<usize, String> {
    let n = cur.u32()? as usize;
    if n > cur.remaining() / MIN_RESPONSE_BYTES {
        return Err(format!(
            "response count {n} exceeds the {} bytes left",
            cur.remaining()
        ));
    }
    Ok(n)
}

/// Read the responses [`put_responses`] wrote.
pub fn take_responses(cur: &mut Cursor<'_>) -> Result<Vec<UserResponse>, String> {
    let n = take_response_count(cur)?;
    let mut responses = Vec::with_capacity(n);
    for _ in 0..n {
        responses.push(take_response(cur)?);
    }
    Ok(responses)
}

/// Read a [`RoundEstimate`] written by [`put_estimate`].
pub fn take_estimate(cur: &mut Cursor<'_>) -> Result<RoundEstimate, String> {
    let reporters = cur.u64()?;
    let epsilon = cur.f64()?;
    let n = cur.u32()? as usize;
    let mut frequencies = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        frequencies.push(cur.f64()?);
    }
    Ok(RoundEstimate {
        frequencies,
        reporters,
        epsilon,
    })
}

// ---------------------------------------------------------------------
// CRC-32 (IEEE 802.3 polynomial, reflected), slicing-by-8: table `k`
// maps a byte to its CRC contribution `k` bytes further down the
// message, so eight input bytes fold in per step instead of one.
//
// A CRC is the message polynomial's remainder mod P, so appending `n`
// bytes multiplies what was there by x^(8n): crc(a ++ b) is
// crc(a)·x^(8·|b|) mod P, plus crc(b) (the init and final inversions
// cancel). `crc32_combine` is that identity: whoever holds the CRCs of
// two parts has the CRC of the whole — the same 32-bit value a pass over
// the concatenation computes — without reading either part again.

/// The IEEE polynomial, reflected: bit 31 is x^0.
const CRC_POLY: u32 = 0xEDB8_8320;

const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                CRC_POLY ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")) ^ c as u64;
        c = (0..8).fold(0, |acc, k| acc ^ t[7 - k][(word >> (8 * k)) as u8 as usize]);
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// `a · b mod P` over GF(2), both in the reflected representation.
fn crc_mul(a: u32, mut b: u32) -> u32 {
    let mut product = 0;
    for bit in (0..32).rev() {
        if a >> bit & 1 != 0 {
            product ^= b;
        }
        // b · x
        b = if b & 1 != 0 {
            CRC_POLY ^ (b >> 1)
        } else {
            b >> 1
        };
    }
    product
}

/// `crc32(a ++ b)` from `crc32(a)`, `crc32(b)` and `b`'s length:
/// `crc_a · x^(8·len_b) mod P`, the power by square-and-multiply over
/// the bits of `len_b`, plus `crc_b`.
pub fn crc32_combine(crc_a: u32, crc_b: u32, len_b: usize) -> u32 {
    let mut shift = 1 << 31; // x^0
    let mut square = 1 << 23; // x^8: one byte
    let mut n = len_b;
    while n != 0 {
        if n & 1 != 0 {
            shift = crc_mul(shift, square);
        }
        square = crc_mul(square, square);
        n >>= 1;
    }
    crc_mul(crc_a, shift) ^ crc_b
}

/// The bytes [`put_responses`] wrote for one delta, with their CRC-32:
/// what the wire hands the service and the service hands the WAL, so a
/// delta is checksummed once between the socket and the disk. The
/// fields are private: `crc` is `crc32(bytes)` however the value was
/// made. That the bytes *decode* is not promised; whoever folds them
/// finds out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedResponses {
    bytes: Vec<u8>,
    crc: u32,
}

impl EncodedResponses {
    /// `bytes`, checksummed here.
    pub fn new(bytes: Vec<u8>) -> Self {
        let crc = crc32(&bytes);
        EncodedResponses { bytes, crc }
    }

    /// What [`put_responses`] writes for `responses`.
    pub fn encode(responses: &[UserResponse]) -> Self {
        let mut bytes = Vec::new();
        put_responses(&mut bytes, responses);
        EncodedResponses::new(bytes)
    }

    /// The `bytes` behind `head` in a payload whose CRC-32 is claimed to
    /// be `payload_crc`: one pass over each part, and the claim holds
    /// exactly when the parts' CRCs combine to it — the check
    /// `crc32(head ++ bytes) == payload_crc` is, bit for bit. `Err` is the
    /// CRC the payload actually has.
    pub fn behind(head: &[u8], bytes: &[u8], payload_crc: u32) -> Result<Self, u32> {
        let crc = crc32(bytes);
        let got = crc32_combine(crc32(head), crc, bytes.len());
        if got != payload_crc {
            return Err(got);
        }
        Ok(EncodedResponses {
            bytes: bytes.to_vec(),
            crc,
        })
    }

    /// The encoded responses.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// `crc32(self.bytes())`.
    pub fn crc(&self) -> u32 {
        self.crc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn crc32_known_vector() {
        // The canonical check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The byte-at-a-time CRC-32 `crc32` replaced: the oracle.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn crc32_matches_bytewise_at_every_length_and_offset() {
        let mut rng = StdRng::seed_from_u64(0xc3c32);
        let shared: Vec<u8> = (0..308).map(|_| rng.gen()).collect();
        for start in 0..8 {
            for len in 0..=300 {
                let bytes = &shared[start..start + len];
                assert_eq!(
                    crc32(bytes),
                    crc32_bytewise(bytes),
                    "start {start} len {len}"
                );
            }
        }
        for _ in 0..64 {
            let len = rng.gen_range(0..=64 * 1024);
            let bytes: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
            assert_eq!(crc32(&bytes), crc32_bytewise(&bytes), "len {len}");
        }
    }

    /// The CRCs of two parts give the CRC of the whole: every |a| in
    /// 0..100 against every short |b| (both sides empty included), and a
    /// frame head's worth of |a| against |b| up to a report delta's.
    #[test]
    fn crc32_combine_is_the_crc_of_the_concatenation() {
        let mut rng = StdRng::seed_from_u64(0xc0b1);
        let bytes: Vec<u8> = (0..100 + 40_000).map(|_| rng.gen()).collect();
        let check = |len_a: usize, len_b: usize| {
            let whole = &bytes[100 - len_a..100 + len_b];
            let (a, b) = whole.split_at(len_a);
            assert_eq!(
                crc32_combine(crc32(a), crc32(b), b.len()),
                crc32(whole),
                "|a| {len_a} |b| {len_b}"
            );
        };
        for len_b in 0..70 {
            (0..100).for_each(|len_a| check(len_a, len_b));
        }
        let long = [255, 256, 257, 4095, 4096, 34_820, 39_999, 40_000];
        for len_b in long
            .into_iter()
            .chain((0..24).map(|_| rng.gen_range(70..40_000)))
        {
            [0, 1, 25, 34, 99]
                .into_iter()
                .for_each(|len_a| check(len_a, len_b));
        }
    }

    #[test]
    fn envelope_is_len_crc_payload_wherever_it_lands() {
        for prefix in [&b""[..], b"LDPSNP01"] {
            for payload in [&b""[..], b"x", b"123456789", &[0xA5; 1000]] {
                let mut out = prefix.to_vec();
                put_enveloped(&mut out, |out| out.extend_from_slice(payload));
                let mut want = prefix.to_vec();
                put_u32(&mut want, payload.len() as u32);
                put_u32(&mut want, crc32(payload));
                want.extend_from_slice(payload);
                assert_eq!(out, want);
            }
        }
    }

    /// `take_report ∘ put_report` is the identity on every `Report`, OUE
    /// word counts that disagree with `len` included; a forged count
    /// past the payload is refused before anything is allocated for it.
    #[test]
    fn reports_roundtrip_whatever_their_word_count() {
        let reports = [
            Report::Grr(7),
            Report::Olh { seed: 9, bucket: 3 },
            Report::Oue {
                bits: vec![],
                len: 128,
            },
            Report::Oue {
                bits: vec![1, 2],
                len: 128,
            },
            Report::Oue {
                bits: vec![u64::MAX; 9],
                len: 0,
            },
        ];
        for report in reports {
            let mut out = Vec::new();
            put_report(&mut out, &report);
            let mut cur = Cursor::new(&out);
            assert_eq!(take_report(&mut cur).unwrap(), report);
            cur.finish().unwrap();
        }
        let mut forged = vec![1];
        put_u32(&mut forged, 128);
        put_u32(&mut forged, u32::MAX);
        forged.extend_from_slice(&[0; 64]);
        let err = take_report(&mut Cursor::new(&forged)).unwrap_err();
        assert!(err.contains("exceeds"), "{err}");
    }

    /// The largest count a payload can honestly carry — one GRR report
    /// per 14 bytes — decodes; one more is refused before a vector is
    /// reserved for it, however large the number.
    #[test]
    fn response_counts_are_bounded_by_the_bytes_behind_them() {
        let rows = vec![
            UserResponse::Report {
                round: 3,
                report: Report::Grr(1),
            };
            5
        ];
        let mut out = Vec::new();
        put_responses(&mut out, &rows);
        assert_eq!(out.len(), 4 + 5 * MIN_RESPONSE_BYTES);
        let mut cur = Cursor::new(&out);
        assert_eq!(take_responses(&mut cur).unwrap(), rows);
        cur.finish().unwrap();

        for forged in [6, 1 << 24, u32::MAX] {
            out[..4].copy_from_slice(&forged.to_le_bytes());
            let err = take_responses(&mut Cursor::new(&out)).unwrap_err();
            assert!(err.contains("response count"), "{err}");
        }
    }

    #[test]
    fn strings_roundtrip() {
        let mut out = Vec::new();
        put_str(&mut out, "tenant-α");
        put_str(&mut out, "");
        let mut cur = Cursor::new(&out);
        assert_eq!(cur.str().unwrap(), "tenant-α");
        assert_eq!(cur.str().unwrap(), "");
        cur.finish().unwrap();
    }

    #[test]
    fn invalid_utf8_is_a_typed_error() {
        let mut out = Vec::new();
        put_u32(&mut out, 2);
        out.extend_from_slice(&[0xFF, 0xFE]);
        let mut cur = Cursor::new(&out);
        assert!(cur.str().unwrap_err().contains("UTF-8"));
    }

    #[test]
    fn truncated_reads_are_typed_errors() {
        let mut cur = Cursor::new(&[1, 2, 3]);
        assert!(cur.u64().unwrap_err().contains("truncated"));
    }
}
