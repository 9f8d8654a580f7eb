#![warn(missing_docs)]
//! # voxel-quic
//!
//! QUIC\*: a from-scratch, packet-level QUIC-like transport with the paper's
//! §4.2 extension — **unreliable streams with optional retransmissions** —
//! alongside ordinary reliable streams. The design mirrors Google QUIC's
//! machinery at the level the paper's evaluation exercises:
//!
//! - `varint`/[`frame`]/[`packet`]: QUIC-style wire encoding (varints,
//!   STREAM/ACK/flow-control frames, packet numbers).
//! - `rtt`: SRTT/RTTVAR estimation (RFC 6298 style, as QUIC uses).
//! - `ack`: ACK-range tracking and delayed-ACK generation.
//! - `cubic`: the CUBIC congestion controller — *both* stream classes are
//!   congestion- and flow-controlled ("the unreliable streams of QUIC\*,
//!   unlike UDP, are subject to the congestion (CUBIC) and flow-control
//!   mechanisms of the QUIC connection").
//! - `delay_cc`/`bbr`: the model-based alternatives — Appendix B's
//!   compact delay controller and the full BBR state machine over the
//!   transport's delivery-rate sampler (DESIGN.md §15), selected per
//!   connection via [`CcKind`].
//! - `loss`: packet- and time-threshold loss detection plus PTO probes.
//! - [`stream`]: reliable send/recv streams (retransmission, in-order
//!   delivery) and unreliable streams (gap delivery, loss reports surfaced
//!   to the application for selective re-request).
//! - [`connection`]: the sans-IO endpoint — `on_packet` / `poll_transmit`
//!   / `on_timeout` — driven by the discrete-event loop in `voxel-core`,
//!   which moves packets as values; `on_datagram` decodes bytes from
//!   outside first, so real UDP sockets could drive it equally.
//!
//! Only the connection and the types it speaks in are public; the
//! machinery modules (`ack`, `bbr`, `cubic`, `delay_cc`, `loss`, `rtt`,
//! `table`, `varint`) are crate-private.

pub mod cc;
pub mod connection;
pub mod frame;
pub mod packet;
pub mod range;
pub mod stream;

pub(crate) mod ack;
pub(crate) mod bbr;
pub(crate) mod cubic;
pub(crate) mod delay_cc;
pub(crate) mod loss;
pub(crate) mod rtt;
pub(crate) mod table;
pub(crate) mod varint;

pub use cc::CcKind;
pub use connection::{Connection, ConnectionConfig, Event, Role};
pub use frame::Frame;
pub use packet::Packet;
pub use stream::{Reliability, StreamId};
