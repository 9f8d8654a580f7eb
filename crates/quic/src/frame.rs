//! QUIC\* frames.
//!
//! A subset of RFC 9000's frame types plus the QUIC\* unreliable-stream
//! frame. Reliability is a property of the *stream* (negotiated at open via
//! the application layer, §4.2), but it is also encoded per STREAM frame so
//! a receiver can handle data for streams it has not seen yet.

use crate::stream::StreamId;
use crate::varint;
use bytes::{Buf, BufMut, Bytes};

/// Frame type byte values.
mod ty {
    pub const PADDING: u8 = 0x00;
    pub const PING: u8 = 0x01;
    pub const ACK: u8 = 0x02;
    pub const MAX_DATA: u8 = 0x10;
    pub const MAX_STREAM_DATA: u8 = 0x11;
    pub const RESET_STREAM: u8 = 0x04;
    pub const CLOSE: u8 = 0x1c;
    // STREAM frames use 0x40 with flag bits:
    //   0x01 fin, 0x02 unreliable.
    pub const STREAM_BASE: u8 = 0x40;
    pub const STREAM_FIN: u8 = 0x01;
    pub const STREAM_UNREL: u8 = 0x02;
    pub const STREAM_MASK: u8 = 0xfc;
}

/// An acknowledgement range `[start, end]` of packet numbers (inclusive).
pub(crate) type AckRange = (u64, u64);

/// A QUIC\* frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Padding (ignored; contributes to packet size).
    Padding {
        /// Number of padding bytes.
        len: usize,
    },
    /// Keep-alive / PTO probe.
    Ping,
    /// Acknowledgement: ranges in descending order, `delay` in microseconds.
    Ack {
        /// Ranges of received packet numbers, highest first.
        ranges: Vec<AckRange>,
        /// Time the largest acked packet was held before this ACK, in µs.
        delay_us: u64,
    },
    /// Connection-level flow control limit.
    MaxData {
        /// New limit in bytes.
        limit: u64,
    },
    /// Stream-level flow control limit.
    MaxStreamData {
        /// The stream.
        id: StreamId,
        /// New limit in bytes.
        limit: u64,
    },
    /// Abruptly terminate sending on a stream (doubles as STOP_SENDING:
    /// a receiver sends it to tell the peer to cease transmitting — how the
    /// player implements segment abandonment without tearing down the
    /// connection).
    ResetStream {
        /// The stream.
        id: StreamId,
    },
    /// Stream data — reliable or unreliable per `unreliable`.
    Stream {
        /// The stream.
        id: StreamId,
        /// Offset of `data` within the stream.
        offset: u64,
        /// Final frame of the stream.
        fin: bool,
        /// Whether the stream is a QUIC* unreliable stream.
        unreliable: bool,
        /// Payload.
        data: Bytes,
    },
    /// Connection close.
    Close {
        /// Application error code.
        code: u64,
    },
}

/// Encoded size of an ACK frame with `n_ranges` ranges whose bounds take
/// `bounds` bytes as varints.
pub(crate) fn ack_size(delay_us: u64, n_ranges: usize, bounds: usize) -> usize {
    1 + varint::size(delay_us) + varint::size(n_ranges as u64) + bounds
}

impl Frame {
    /// Whether this frame elicits an acknowledgement.
    pub(crate) fn is_ack_eliciting(&self) -> bool {
        !matches!(self, Frame::Ack { .. } | Frame::Padding { .. })
    }

    /// Encoded size in bytes.
    pub fn size(&self) -> usize {
        match self {
            Frame::Padding { len } => *len,
            Frame::Ping => 1,
            Frame::Ack { ranges, delay_us } => {
                let bounds = ranges
                    .iter()
                    .map(|&(a, b)| varint::size(a) + varint::size(b))
                    .sum();
                ack_size(*delay_us, ranges.len(), bounds)
            }
            Frame::MaxData { limit } => 1 + varint::size(*limit),
            Frame::MaxStreamData { id, limit } => 1 + varint::size(id.0) + varint::size(*limit),
            Frame::ResetStream { id } => 1 + varint::size(id.0),
            Frame::Stream {
                id, offset, data, ..
            } => {
                1 + varint::size(id.0)
                    + varint::size(*offset)
                    + varint::size(data.len() as u64)
                    + data.len()
            }
            Frame::Close { code } => 1 + varint::size(*code),
        }
    }

    /// Append the wire encoding to `buf`.
    pub fn encode(&self, buf: &mut impl BufMut) {
        match self {
            Frame::Padding { len } => {
                for _ in 0..*len {
                    buf.put_u8(ty::PADDING);
                }
            }
            Frame::Ping => buf.put_u8(ty::PING),
            Frame::Ack { ranges, delay_us } => {
                buf.put_u8(ty::ACK);
                varint::write(buf, *delay_us);
                varint::write(buf, ranges.len() as u64);
                for (a, b) in ranges {
                    varint::write(buf, *a);
                    varint::write(buf, *b);
                }
            }
            Frame::MaxData { limit } => {
                buf.put_u8(ty::MAX_DATA);
                varint::write(buf, *limit);
            }
            Frame::MaxStreamData { id, limit } => {
                buf.put_u8(ty::MAX_STREAM_DATA);
                varint::write(buf, id.0);
                varint::write(buf, *limit);
            }
            Frame::ResetStream { id } => {
                buf.put_u8(ty::RESET_STREAM);
                varint::write(buf, id.0);
            }
            Frame::Stream {
                id,
                offset,
                fin,
                unreliable,
                data,
            } => {
                let mut t = ty::STREAM_BASE;
                if *fin {
                    t |= ty::STREAM_FIN;
                }
                if *unreliable {
                    t |= ty::STREAM_UNREL;
                }
                buf.put_u8(t);
                varint::write(buf, id.0);
                varint::write(buf, *offset);
                varint::write(buf, data.len() as u64);
                buf.put_slice(data);
            }
            Frame::Close { code } => {
                buf.put_u8(ty::CLOSE);
                varint::write(buf, *code);
            }
        }
    }

    /// Decode one frame from the front of `buf`; `None` on truncation or an
    /// unknown type.
    pub fn decode(buf: &mut Bytes) -> Option<Frame> {
        if buf.remaining() == 0 {
            return None;
        }
        let t = buf.chunk()[0];
        if t & ty::STREAM_MASK == ty::STREAM_BASE & ty::STREAM_MASK && t >= ty::STREAM_BASE {
            buf.advance(1);
            let id = StreamId(varint::read(buf)?);
            let offset = varint::read(buf)?;
            let len = varint::read(buf)? as usize;
            if buf.remaining() < len {
                return None;
            }
            let data = buf.split_to(len);
            return Some(Frame::Stream {
                id,
                offset,
                fin: t & ty::STREAM_FIN != 0,
                unreliable: t & ty::STREAM_UNREL != 0,
                data,
            });
        }
        buf.advance(1);
        match t {
            ty::PADDING => {
                // Coalesce a run of padding bytes.
                let mut len = 1;
                while buf.remaining() > 0 && buf.chunk()[0] == ty::PADDING {
                    buf.advance(1);
                    len += 1;
                }
                Some(Frame::Padding { len })
            }
            ty::PING => Some(Frame::Ping),
            ty::ACK => {
                let delay_us = varint::read(buf)?;
                let n = varint::read(buf)? as usize;
                if n > 1024 {
                    return None; // sanity bound
                }
                let mut ranges = Vec::with_capacity(n);
                for _ in 0..n {
                    let a = varint::read(buf)?;
                    let b = varint::read(buf)?;
                    ranges.push((a, b));
                }
                Some(Frame::Ack { ranges, delay_us })
            }
            ty::MAX_DATA => Some(Frame::MaxData {
                limit: varint::read(buf)?,
            }),
            ty::MAX_STREAM_DATA => {
                let id = StreamId(varint::read(buf)?);
                let limit = varint::read(buf)?;
                Some(Frame::MaxStreamData { id, limit })
            }
            ty::RESET_STREAM => Some(Frame::ResetStream {
                id: StreamId(varint::read(buf)?),
            }),
            ty::CLOSE => Some(Frame::Close {
                code: varint::read(buf)?,
            }),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;

    fn roundtrip(f: Frame) {
        let mut buf = BytesMut::new();
        f.encode(&mut buf);
        assert_eq!(buf.len(), f.size(), "size() mismatch for {f:?}");
        let mut b = buf.freeze();
        let decoded = Frame::decode(&mut b).expect("decodes");
        assert_eq!(decoded, f);
        assert_eq!(b.remaining(), 0);
    }

    #[test]
    fn roundtrips_all_frame_kinds() {
        roundtrip(Frame::Ping);
        roundtrip(Frame::Padding { len: 7 });
        roundtrip(Frame::Ack {
            ranges: vec![(90, 100), (5, 80), (0, 2)],
            delay_us: 25_000,
        });
        roundtrip(Frame::MaxData { limit: 1 << 24 });
        roundtrip(Frame::MaxStreamData {
            id: StreamId(42),
            limit: 77_777,
        });
        roundtrip(Frame::Close { code: 3 });
        roundtrip(Frame::ResetStream { id: StreamId(77) });
        for (fin, unreliable) in [(false, false), (true, false), (false, true), (true, true)] {
            roundtrip(Frame::Stream {
                id: StreamId(8),
                offset: 123_456,
                fin,
                unreliable,
                data: Bytes::from_static(b"hello, voxel"),
            });
        }
    }

    #[test]
    fn empty_stream_frame_roundtrips() {
        roundtrip(Frame::Stream {
            id: StreamId(0),
            offset: 0,
            fin: true,
            unreliable: false,
            data: Bytes::new(),
        });
    }

    #[test]
    fn multiple_frames_decode_in_sequence() {
        let frames = vec![
            Frame::Ping,
            Frame::Stream {
                id: StreamId(2),
                offset: 10,
                fin: false,
                unreliable: true,
                data: Bytes::from_static(b"abc"),
            },
            Frame::Ack {
                ranges: vec![(0, 9)],
                delay_us: 0,
            },
        ];
        let mut buf = BytesMut::new();
        for f in &frames {
            f.encode(&mut buf);
        }
        let mut b = buf.freeze();
        for f in &frames {
            assert_eq!(&Frame::decode(&mut b).unwrap(), f);
        }
        assert!(Frame::decode(&mut b).is_none());
    }

    #[test]
    fn ack_eliciting_classification() {
        assert!(Frame::Ping.is_ack_eliciting());
        assert!(!Frame::Ack {
            ranges: vec![],
            delay_us: 0
        }
        .is_ack_eliciting());
        assert!(!Frame::Padding { len: 1 }.is_ack_eliciting());
        assert!(Frame::MaxData { limit: 0 }.is_ack_eliciting());
    }

    #[test]
    fn truncated_stream_frame_is_rejected() {
        let f = Frame::Stream {
            id: StreamId(1),
            offset: 0,
            fin: false,
            unreliable: false,
            data: Bytes::from_static(b"0123456789"),
        };
        let mut buf = BytesMut::new();
        f.encode(&mut buf);
        let whole = buf.freeze();
        let mut cut = whole.slice(..whole.len() - 3);
        assert!(Frame::decode(&mut cut).is_none());
    }

    #[test]
    fn unknown_type_is_rejected() {
        let mut b = Bytes::from_static(&[0x3f]);
        assert!(Frame::decode(&mut b).is_none());
    }

    #[cfg(test)]
    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn stream_frames_roundtrip(
                id in 0u64..1_000_000,
                offset in 0u64..varint::MAX,
                fin in proptest::bool::ANY,
                unreliable in proptest::bool::ANY,
                data in proptest::collection::vec(proptest::num::u8::ANY, 0..2000),
            ) {
                roundtrip(Frame::Stream {
                    id: StreamId(id),
                    offset,
                    fin,
                    unreliable,
                    data: Bytes::from(data),
                });
            }

            #[test]
            fn ack_frames_roundtrip(
                ranges in proptest::collection::vec((0u64..1_000_000, 0u64..1_000_000), 0..32),
                delay in 0u64..10_000_000,
            ) {
                roundtrip(Frame::Ack { ranges, delay_us: delay });
            }
        }
    }
}
