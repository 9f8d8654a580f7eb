#![warn(missing_docs)]
//! # voxel-media
//!
//! Synthetic video model replacing the paper's real videos + FFmpeg pipeline.
//!
//! Every algorithm in VOXEL consumes exactly three things from a video:
//!
//! 1. **frame sizes** per segment and quality level,
//! 2. the **H.264 reference DAG** between frames (I/P/B, direct and
//!    transitive references), and
//! 3. **QoE as a function of which frames (or parts of frames) are lost**.
//!
//! This crate synthesizes all three with the statistics the paper reports:
//! the 13-level bitrate ladder of Table 2, per-video capped-VBR segment-size
//! variation matching Tables 1 & 3 (Fig 15), a GOP structure yielding
//! ≈15 % I / 65 % P / 20 % B bytes with >30 % P-frames (§5 "Videos"), and an
//! analytic SSIM/VMAF/PSNR model whose frame-drop tolerance reproduces the
//! shapes of Figs 1, 2 and 19.
//!
//! See `DESIGN.md` §2 for the substitution rationale.

pub mod content;
pub mod gop;
pub mod ladder;
pub mod qoe;
pub mod video;

pub use content::{ContentProfile, VideoId};
pub use gop::{FrameKind, FrameMeta, GopStructure, FRAMES_PER_SEGMENT};
pub use ladder::{QualityLevel, BITRATE_LADDER, NUM_LEVELS};
pub use qoe::{LossMap, QoeMetric, QoeModel, QoeScores};
pub use video::{Segment, Video, SEGMENT_DURATION_S};
