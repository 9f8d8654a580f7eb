//! QUIC variable-length integer encoding (RFC 9000 §16).
//!
//! The two most significant bits of the first byte encode the length
//! (1, 2, 4 or 8 bytes); the remainder carry the value big-endian.

use bytes::{Buf, BufMut};

/// Maximum value representable as a QUIC varint (2^62 - 1).
pub(crate) const MAX: u64 = (1 << 62) - 1;

/// Encoded size of `v` in bytes.
pub(crate) fn size(v: u64) -> usize {
    if v < 1 << 6 {
        1
    } else if v < 1 << 14 {
        2
    } else if v < 1 << 30 {
        4
    } else {
        assert!(v <= MAX, "value exceeds varint range");
        8
    }
}

/// Append the varint encoding of `v` to `buf`.
pub(crate) fn write(buf: &mut impl BufMut, v: u64) {
    match size(v) {
        1 => buf.put_u8(v as u8),
        2 => buf.put_u16(0b01 << 14 | v as u16),
        4 => buf.put_u32(0b10 << 30 | v as u32),
        _ => buf.put_u64(0b11 << 62 | v),
    }
}

/// Decode a varint from the front of `buf`; `None` on truncation.
pub(crate) fn read(buf: &mut impl Buf) -> Option<u64> {
    if buf.remaining() < 1 {
        return None;
    }
    let first = buf.chunk()[0];
    let len = 1usize << (first >> 6);
    if buf.remaining() < len {
        return None;
    }
    Some(match len {
        1 => u64::from(buf.get_u8()),
        2 => u64::from(buf.get_u16() & 0x3fff),
        4 => u64::from(buf.get_u32() & 0x3fff_ffff),
        _ => buf.get_u64() & 0x3fff_ffff_ffff_ffff,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;

    fn roundtrip(v: u64) -> u64 {
        let mut buf = BytesMut::new();
        write(&mut buf, v);
        assert_eq!(buf.len(), size(v));
        let mut b = buf.freeze();
        read(&mut b).expect("decodes")
    }

    #[test]
    fn roundtrips_boundaries() {
        for v in [0, 1, 63, 64, 16_383, 16_384, (1 << 30) - 1, 1 << 30, MAX] {
            assert_eq!(roundtrip(v), v, "value {v}");
        }
    }

    #[test]
    fn sizes_match_rfc() {
        assert_eq!(size(63), 1);
        assert_eq!(size(64), 2);
        assert_eq!(size(16_383), 2);
        assert_eq!(size(16_384), 4);
        assert_eq!(size(1 << 30), 8);
    }

    #[test]
    fn rfc_9000_examples() {
        // RFC 9000 A.1 sample encodings.
        let mut buf = BytesMut::new();
        write(&mut buf, 151_288_809_941_952_652);
        assert_eq!(&buf[..], &[0xc2, 0x19, 0x7c, 0x5e, 0xff, 0x14, 0xe8, 0x8c]);
        buf.clear();
        write(&mut buf, 494_878_333);
        assert_eq!(&buf[..], &[0x9d, 0x7f, 0x3e, 0x7d]);
        buf.clear();
        write(&mut buf, 15_293);
        assert_eq!(&buf[..], &[0x7b, 0xbd]);
        buf.clear();
        write(&mut buf, 37);
        assert_eq!(&buf[..], &[0x25]);
    }

    #[test]
    fn truncated_input_returns_none() {
        let mut buf = BytesMut::new();
        write(&mut buf, 100_000);
        let bytes = buf.freeze();
        let mut short = bytes.slice(..2);
        assert_eq!(read(&mut short), None);
        let mut empty = bytes.slice(..0);
        assert_eq!(read(&mut empty), None);
    }

    #[test]
    #[should_panic(expected = "varint range")]
    fn oversized_value_panics() {
        let mut buf = BytesMut::new();
        write(&mut buf, MAX + 1);
    }

    #[cfg(test)]
    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn any_value_roundtrips(v in 0..=MAX) {
                prop_assert_eq!(roundtrip(v), v);
            }

            #[test]
            fn encoding_is_length_prefixed_consistently(v in 0..=MAX) {
                let mut buf = BytesMut::new();
                write(&mut buf, v);
                // Appending garbage after the varint must not change decode.
                buf.extend_from_slice(&[0xAA; 3]);
                let mut b = buf.freeze();
                prop_assert_eq!(read(&mut b), Some(v));
                prop_assert_eq!(b.remaining(), 3);
            }
        }
    }
}
