//! Versioned, checksummed container for one durable payload: a
//! simulator checkpoint on its own, or one record of an append-only
//! log such as the campaign journal, whose file is a header followed
//! by envelopes laid end to end.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! offset  size  field
//!      0     8  magic  b"NOSQCKPT"
//!      8     4  format version (currently 1)
//!     12     8  caller fingerprint (binds the payload to its context)
//!     20     8  payload length
//!     28   len  payload
//! 28+len     8  FNV-1a over bytes[8 .. 28+len]
//! ```
//!
//! [`open_prefix`] opens the envelope at the front of a longer buffer
//! and reports how many bytes it spans, so a log is walked one
//! envelope at a time and stops at the first that fails; [`open`]
//! additionally demands that the buffer is exactly one envelope sealed
//! with the caller's fingerprint. Both reject truncation with an O(1)
//! length check *before* hashing anything (an exhaustive every-prefix
//! truncation sweep over an n-byte envelope is O(n), not O(n²)), and
//! reject any single-byte corruption: flips in the hashed region
//! change the FNV-1a digest (the per-byte xor-then-odd-multiply step
//! is a bijection on `u64`), flips in the stored checksum mismatch the
//! recomputed one, flips in the magic fail the magic check, and a
//! declared length beyond the bytes present fails the length check.

use crate::fnv1a;

/// First 8 bytes of every envelope.
pub const MAGIC: [u8; 8] = *b"NOSQCKPT";

/// Current envelope format version.
pub const VERSION: u32 = 1;

/// Fixed bytes around the payload: 28-byte header + 8-byte checksum.
pub const OVERHEAD: usize = 36;

const HEADER: usize = 28;

/// Why an envelope was rejected. Every variant means the payload was
/// never interpreted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EnvelopeError {
    /// Shorter than the fixed overhead, or not exactly header +
    /// declared payload + checksum long (covers every truncation).
    Length {
        /// Length the envelope declared (`None` if too short to say).
        expected: Option<usize>,
        /// Length actually present.
        actual: usize,
    },
    /// The first 8 bytes are not [`MAGIC`].
    Magic,
    /// A version this decoder does not speak.
    Version(u32),
    /// The FNV-1a digest over the hashed region does not match.
    Checksum,
    /// The caller's fingerprint does not match the sealed one.
    Fingerprint {
        /// Fingerprint stored in the envelope.
        sealed: u64,
        /// Fingerprint the caller expected.
        expected: u64,
    },
}

impl std::fmt::Display for EnvelopeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EnvelopeError::Length { expected, actual } => match expected {
                Some(e) => write!(f, "envelope length {actual} != expected {e}"),
                None => write!(f, "envelope truncated at {actual} bytes"),
            },
            EnvelopeError::Magic => write!(f, "bad envelope magic"),
            EnvelopeError::Version(v) => write!(f, "unsupported envelope version {v}"),
            EnvelopeError::Checksum => write!(f, "envelope checksum mismatch"),
            EnvelopeError::Fingerprint { sealed, expected } => {
                write!(
                    f,
                    "fingerprint mismatch: sealed {sealed:#018x}, expected {expected:#018x}"
                )
            }
        }
    }
}

impl std::error::Error for EnvelopeError {}

/// Wraps `payload` in a checksummed envelope bound to `fingerprint`.
pub fn seal(fingerprint: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(OVERHEAD + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&fingerprint.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    let digest = fnv1a(&out[8..]);
    out.extend_from_slice(&digest.to_le_bytes());
    out
}

/// One envelope opened from the front of a buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Opened<'a> {
    /// The fingerprint the envelope was sealed with.
    pub fingerprint: u64,
    /// A borrow of the payload.
    pub payload: &'a [u8],
    /// Bytes the whole envelope spans (`OVERHEAD + payload.len()`).
    pub len: usize,
}

/// Validates the envelope at the start of `bytes`, which may continue
/// past it, and returns its fingerprint, payload and length.
///
/// Checks run cheapest-first: minimum length, magic, version, declared
/// length against the bytes present, checksum. Truncated or
/// bit-flipped input is rejected before any payload byte is read.
pub fn open_prefix(bytes: &[u8]) -> Result<Opened<'_>, EnvelopeError> {
    if bytes.len() < OVERHEAD {
        return Err(EnvelopeError::Length {
            expected: None,
            actual: bytes.len(),
        });
    }
    if bytes[..8] != MAGIC {
        return Err(EnvelopeError::Magic);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != VERSION {
        return Err(EnvelopeError::Version(version));
    }
    let fingerprint = u64::from_le_bytes(bytes[12..20].try_into().unwrap());
    let declared = u64::from_le_bytes(bytes[20..28].try_into().unwrap());
    let len = usize::try_from(declared)
        .ok()
        .and_then(|n| n.checked_add(OVERHEAD));
    let len = match len {
        Some(len) if len <= bytes.len() => len,
        expected => {
            return Err(EnvelopeError::Length {
                expected,
                actual: bytes.len(),
            })
        }
    };
    let body_end = len - 8;
    let stored = u64::from_le_bytes(bytes[body_end..len].try_into().unwrap());
    if fnv1a(&bytes[8..body_end]) != stored {
        return Err(EnvelopeError::Checksum);
    }
    Ok(Opened {
        fingerprint,
        payload: &bytes[HEADER..body_end],
        len,
    })
}

/// Validates that `bytes` is exactly one envelope sealed with
/// `fingerprint` and returns a borrow of its payload.
pub fn open(bytes: &[u8], fingerprint: u64) -> Result<&[u8], EnvelopeError> {
    let opened = open_prefix(bytes)?;
    if opened.len != bytes.len() {
        return Err(EnvelopeError::Length {
            expected: Some(opened.len),
            actual: bytes.len(),
        });
    }
    if opened.fingerprint != fingerprint {
        return Err(EnvelopeError::Fingerprint {
            sealed: opened.fingerprint,
            expected: fingerprint,
        });
    }
    Ok(opened.payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let sealed = seal(42, b"hello checkpoint");
        assert_eq!(open(&sealed, 42).unwrap(), b"hello checkpoint");
    }

    #[test]
    fn empty_payload_roundtrips() {
        let sealed = seal(7, b"");
        assert_eq!(sealed.len(), OVERHEAD);
        assert_eq!(open(&sealed, 7).unwrap(), b"");
    }

    #[test]
    fn every_truncation_is_rejected() {
        let sealed = seal(1, &[0xabu8; 33]);
        for cut in 0..sealed.len() {
            assert!(
                open(&sealed[..cut], 1).is_err(),
                "truncation at {cut} accepted"
            );
        }
    }

    #[test]
    fn every_single_byte_corruption_is_rejected() {
        let sealed = seal(1, &[0x5au8; 29]);
        for i in 0..sealed.len() {
            for flip in [0x01u8, 0x80, 0xff] {
                let mut m = sealed.clone();
                m[i] ^= flip;
                assert!(
                    open(&m, 1).is_err(),
                    "corruption at byte {i} (^{flip:#x}) accepted"
                );
            }
        }
    }

    #[test]
    fn extension_is_rejected() {
        let mut sealed = seal(1, b"xyz");
        sealed.push(0);
        assert!(matches!(
            open(&sealed, 1),
            Err(EnvelopeError::Length { .. })
        ));
    }

    #[test]
    fn prefix_walks_concatenated_envelopes() {
        let mut log = seal(3, b"first");
        log.extend_from_slice(&seal(4, b""));
        log.extend_from_slice(&seal(5, b"third")[..20]); // torn tail
        let a = open_prefix(&log).unwrap();
        assert_eq!(
            (a.fingerprint, a.payload, a.len),
            (3, &b"first"[..], OVERHEAD + 5)
        );
        let b = open_prefix(&log[a.len..]).unwrap();
        assert_eq!((b.fingerprint, b.payload, b.len), (4, &b""[..], OVERHEAD));
        assert!(open_prefix(&log[a.len + b.len..]).is_err());
    }

    #[test]
    fn huge_declared_length_is_a_length_error() {
        let mut sealed = seal(1, b"payload");
        sealed[20..28].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            open_prefix(&sealed),
            Err(EnvelopeError::Length { .. })
        ));
    }

    #[test]
    fn wrong_fingerprint_is_rejected() {
        let sealed = seal(10, b"payload");
        assert_eq!(
            open(&sealed, 11),
            Err(EnvelopeError::Fingerprint {
                sealed: 10,
                expected: 11
            })
        );
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut sealed = seal(1, b"payload");
        sealed[8] = 2;
        // Version is inside the hashed region, so reseal the checksum
        // to isolate the version check.
        let end = sealed.len() - 8;
        let digest = crate::fnv1a(&sealed[8..end]);
        sealed[end..].copy_from_slice(&digest.to_le_bytes());
        assert_eq!(open(&sealed, 1), Err(EnvelopeError::Version(2)));
    }
}
