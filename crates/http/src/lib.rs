#![warn(missing_docs)]
//! # voxel-http
//!
//! A minimal HTTP/1.1-over-streams layer — just enough of HTTP for DASH
//! streaming as the paper uses it (§4.2 "Interfacing transport and
//! application layers"):
//!
//! - `GET` requests with `Range:` headers (byte-range fetches of segments,
//!   and the selective re-requests of lost ranges),
//! - the custom **`x-voxel-unreliable`** header a VOXEL-aware client sends
//!   to ask the server to deliver the response body over an unreliable
//!   QUIC\* stream (a VOXEL-unaware server simply ignores it; a
//!   VOXEL-unaware client simply never sends it — backward compatibility in
//!   both directions),
//! - `200` / `206 Partial Content` / `404` responses.
//!
//! Requests and responses serialize to text exactly like HTTP/1.1, so the
//! codec is testable byte-for-byte.

pub mod message;
pub mod trace;

pub use message::{Request, Response, StatusCode};
