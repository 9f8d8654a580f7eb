//! QUIC\* packets: a short header (packet number) plus a sequence of frames.

use crate::frame::Frame;
use crate::varint;
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Fixed per-packet overhead on the wire: IPv4 (20) + UDP (8) headers, the
/// QUIC short header byte, connection ID (8) and AEAD tag (16).
pub const PACKET_OVERHEAD: usize = 53;

/// Maximum UDP payload the simulator uses (QUIC's conservative default).
pub(crate) const MAX_PAYLOAD: usize = 1350;

/// A QUIC\* packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Monotonically increasing packet number.
    pub pkt_num: u64,
    /// The frames carried.
    pub frames: Vec<Frame>,
}

impl Packet {
    /// Create a packet.
    pub fn new(pkt_num: u64, frames: Vec<Frame>) -> Packet {
        Packet { pkt_num, frames }
    }

    /// Whether any frame elicits an acknowledgement.
    pub(crate) fn is_ack_eliciting(&self) -> bool {
        self.frames.iter().any(Frame::is_ack_eliciting)
    }

    /// Encoded payload size (header + frames, excluding [`PACKET_OVERHEAD`]).
    pub(crate) fn payload_size(&self) -> usize {
        1 + varint::size(self.pkt_num) + self.frames.iter().map(Frame::size).sum::<usize>()
    }

    /// Total simulated wire size in bytes.
    pub fn wire_size(&self) -> usize {
        self.payload_size() + PACKET_OVERHEAD
    }

    /// Encode to bytes (header + frames).
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.payload_size());
        buf.put_u8(0x40); // short-header form bit
        varint::write(&mut buf, self.pkt_num);
        for f in &self.frames {
            f.encode(&mut buf);
        }
        buf.freeze()
    }

    /// Decode from bytes; `None` on malformed input.
    pub fn decode(mut buf: Bytes) -> Option<Packet> {
        if buf.remaining() < 1 || buf.chunk()[0] != 0x40 {
            return None;
        }
        buf.advance(1);
        let pkt_num = varint::read(&mut buf)?;
        let mut frames = Vec::new();
        while buf.remaining() > 0 {
            frames.push(Frame::decode(&mut buf)?);
        }
        Some(Packet { pkt_num, frames })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::StreamId;

    fn sample() -> Packet {
        Packet::new(
            77,
            vec![
                Frame::Ack {
                    ranges: vec![(10, 20)],
                    delay_us: 100,
                },
                Frame::Stream {
                    id: StreamId(4),
                    offset: 9000,
                    fin: false,
                    unreliable: true,
                    data: Bytes::from_static(&[0xab; 100]),
                },
            ],
        )
    }

    #[test]
    fn roundtrips() {
        let p = sample();
        let encoded = p.encode();
        assert_eq!(encoded.len(), p.payload_size());
        let decoded = Packet::decode(encoded).expect("decodes");
        assert_eq!(decoded, p);
    }

    #[test]
    fn wire_size_includes_overhead() {
        let p = sample();
        assert_eq!(p.wire_size(), p.payload_size() + PACKET_OVERHEAD);
    }

    #[test]
    fn ack_only_packet_is_not_ack_eliciting() {
        let p = Packet::new(
            1,
            vec![Frame::Ack {
                ranges: vec![(0, 0)],
                delay_us: 0,
            }],
        );
        assert!(!p.is_ack_eliciting());
        assert!(sample().is_ack_eliciting());
    }

    #[test]
    fn rejects_malformed() {
        assert!(Packet::decode(Bytes::from_static(&[])).is_none());
        assert!(Packet::decode(Bytes::from_static(&[0x00, 0x01])).is_none());
        // Valid header but garbage frame type.
        assert!(Packet::decode(Bytes::from_static(&[0x40, 0x05, 0x3f])).is_none());
    }

    #[test]
    fn empty_frame_list_roundtrips() {
        let p = Packet::new(0, vec![]);
        let d = Packet::decode(p.encode()).unwrap();
        assert_eq!(d, p);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        /// One frame from drawn values. Stream payloads are a slice of the
        /// shared zero page (what a body chunk is) or real bytes.
        fn frame(
            kind: u8,
            a: u64,
            b: u64,
            fin: bool,
            flag: bool,
            len: usize,
            page: &Bytes,
        ) -> Frame {
            match kind {
                0 => Frame::Padding { len: 1 + len % 40 },
                1 => Frame::Ping,
                2 => Frame::Ack {
                    ranges: (1..1 + len as u64 % 20).map(|i| (a / i, b / i)).collect(),
                    delay_us: b,
                },
                3 => Frame::MaxData { limit: a },
                4 => Frame::MaxStreamData {
                    id: StreamId(a),
                    limit: b,
                },
                5 => Frame::ResetStream { id: StreamId(a) },
                6 => Frame::Close { code: a },
                _ => Frame::Stream {
                    id: StreamId(a),
                    offset: b,
                    fin,
                    unreliable: flag,
                    data: if flag {
                        page.slice(..len)
                    } else {
                        Bytes::from((0..len).map(|i| (i as u64 ^ a) as u8).collect::<Vec<u8>>())
                    },
                },
            }
        }

        proptest! {
            /// Packets cross the simulated wire as values and are charged
            /// `wire_size()`; that stands in for the codec only while every
            /// packet decodes back to itself and its encoding has exactly
            /// the size the wire was charged.
            #[test]
            fn any_packet_survives_the_codec_at_its_wire_size(
                pkt_num in 0u64..crate::varint::MAX,
                draws in proptest::collection::vec(
                    (
                        0u8..10,
                        0u64..crate::varint::MAX,
                        0u64..crate::varint::MAX,
                        proptest::bool::ANY,
                        proptest::bool::ANY,
                        0usize..MAX_PAYLOAD,
                    ),
                    0..6,
                ),
            ) {
                let page = Bytes::from(vec![0; MAX_PAYLOAD]);
                let mut frames: Vec<Frame> = Vec::new();
                for (kind, a, b, fin, flag, len) in draws {
                    let f = frame(kind, a, b, fin, flag, len, &page);
                    // The decoder coalesces a run of padding into one frame.
                    let run = matches!(f, Frame::Padding { .. })
                        && matches!(frames.last(), Some(Frame::Padding { .. }));
                    if !run {
                        frames.push(f);
                    }
                }
                let p = Packet::new(pkt_num, frames);
                let encoded = p.encode();
                prop_assert_eq!(p.wire_size(), encoded.len() + PACKET_OVERHEAD);
                prop_assert_eq!(Packet::decode(encoded), Some(p));
            }
        }
    }
}
