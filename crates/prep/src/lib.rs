#![warn(missing_docs)]
//! # voxel-prep
//!
//! VOXEL's offline, server-side content preparation (§4.1 of the paper).
//!
//! After transcoding (modelled by `voxel-media`), VOXEL adds a one-time
//! analysis phase per video:
//!
//! 1. [`ordering`]: build the three candidate frame orderings — ① original
//!    (encoder) order, ② unreferenced frames grouped at the tail (BETA's
//!    approach), ③ rank by direct + transitive inbound references.
//! 2. [`analysis`]: for each ordering, sweep tail-drops and map
//!    *bytes downloaded → QoE*; pick the ordering that reaches the QoE
//!    lower bound (the pristine score of the next-lower quality level) with
//!    the fewest bytes.
//! 3. [`manifest`]: emit the extended DASH manifest — `reliable` /
//!    `unreliable` byte ranges and the `ssims` triplets of Listing 1 —
//!    without modifying the video files themselves.

pub mod analysis;
pub mod manifest;
pub mod mpd;
pub mod ordering;

pub use analysis::{BytesQoeMap, QoePoint, SegmentAnalysis};
pub use manifest::{Manifest, SegmentEntry};
pub use mpd::{parse as parse_mpd, ParsedMpd};
pub use ordering::OrderingKind;
