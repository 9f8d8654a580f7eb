//! GOP structure and the H.264 reference DAG.
//!
//! Each 4 s segment at 24 fps holds 96 frames (§3: "a 4 s segment at 24 fps
//! has 96 frames"). The synthetic GOP uses one I-frame at position 0 and a
//! period-3 sub-GOP with a one-level B-pyramid:
//!
//! ```text
//! position:   0   1   2   3   4   5   6  ...  93  94  95
//! kind:       I   B   b   P   B   b   P  ...   P   B   b
//! ```
//!
//! - `P` at positions 3k references the previous anchor (P or I).
//! - `B` at 3k+1 references the surrounding anchors and **is referenced by**
//!   the following `b` (a *referenced* B-frame).
//! - `b` at 3k+2 references the neighbouring `B` and the next anchor and is
//!   referenced by nothing (an *unreferenced* B-frame — the only kind BETA
//!   may drop).
//!
//! This yields 1 I / 31 P / 32 B / 32 b per segment — >30 % P-frames, as the
//! paper reports for its encodes — and byte shares of ≈15 % I / 65 % P /
//! 20 % B (§5 "Videos"), modulated per segment by motion.

/// Frames per 4-second segment at 24 fps.
pub const FRAMES_PER_SEGMENT: usize = 96;

/// H.264 frame type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrameKind {
    /// Intra-coded: no references; always delivered reliably by VOXEL.
    I,
    /// Predicted: references the previous anchor frame.
    P,
    /// Bi-directional, *referenced* by other B-frames (part of the pyramid).
    BRef,
    /// Bi-directional, unreferenced (droppable even by BETA).
    BUnref,
}

impl FrameKind {
    /// True for any B-frame (referenced or not).
    pub(crate) fn is_b(self) -> bool {
        matches!(self, FrameKind::BRef | FrameKind::BUnref)
    }
}

/// Static metadata of one frame within a segment.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameMeta {
    /// Presentation position within the segment, `0..FRAMES_PER_SEGMENT`.
    pub index: usize,
    /// Frame type.
    pub kind: FrameKind,
    /// Presentation indices of frames this frame directly references.
    pub refs: Vec<usize>,
    /// Motion/complexity of this frame in `[0, 1]`: how much it differs from
    /// its temporal neighbours. Drives frame size and concealment error.
    pub motion: f64,
    /// Fraction of the segment's bytes occupied by this frame (sums to 1).
    pub size_weight: f64,
}

/// The reference structure of one segment.
#[derive(Debug, Clone, PartialEq)]
pub struct GopStructure {
    /// Frames in presentation order.
    pub frames: Vec<FrameMeta>,
    /// For each frame, the frames that directly reference it.
    pub dependents: Vec<Vec<usize>>,
    /// Frame indices in decode (= file/byte) order: each anchor precedes the
    /// B-frames that reference it. This is ordering ① ("original order") of
    /// §4.1.
    pub decode_order: Vec<usize>,
}

impl GopStructure {
    /// Build the GOP for one segment.
    ///
    /// `motions[i]` is the per-frame motion in `[0,1]`; `i_share` the
    /// fraction of segment bytes in the I-frame (remaining bytes split
    /// between P and B in the 65:20 ratio of the paper's encodes).
    pub(crate) fn build(motions: &[f64], i_share: f64) -> GopStructure {
        assert_eq!(motions.len(), FRAMES_PER_SEGMENT, "need 96 motion samples");
        assert!((0.0..1.0).contains(&i_share));

        let n = FRAMES_PER_SEGMENT;
        let mut frames: Vec<FrameMeta> = Vec::with_capacity(n);

        // Kinds and direct references.
        #[allow(
            clippy::needless_range_loop,
            reason = "frame `i`'s references are computed from its index"
        )]
        for i in 0..n {
            let (kind, refs) = if i == 0 {
                (FrameKind::I, Vec::new())
            } else if i % 3 == 0 {
                // P references previous anchor.
                (FrameKind::P, vec![i - 3])
            } else if i % 3 == 1 {
                // Referenced B: previous anchor and next anchor (if present).
                let prev_anchor = i - 1;
                let mut r = vec![prev_anchor];
                if i + 2 < n {
                    r.push(i + 2);
                }
                (FrameKind::BRef, r)
            } else {
                // Unreferenced b: the neighbouring B and the next anchor.
                let mut r = vec![i - 1];
                if i + 1 < n {
                    r.push(i + 1);
                }
                (FrameKind::BUnref, r)
            };
            frames.push(FrameMeta {
                index: i,
                kind,
                refs,
                motion: motions[i].clamp(0.0, 1.0),
                size_weight: 0.0,
            });
        }

        // Byte-share model: distribute i_share to the I-frame, and the rest
        // to P and B in the paper's 65:20 ratio, modulated by motion
        // (high-motion frames encode more residual).
        let rest = 1.0 - i_share;
        let p_total = rest * 65.0 / 85.0;
        let b_total = rest * 20.0 / 85.0;
        let modulate = |m: f64| 0.5 + 1.0 * m;

        let p_raw: f64 = frames
            .iter()
            .filter(|f| f.kind == FrameKind::P)
            .map(|f| modulate(f.motion))
            .sum();
        let b_raw: f64 = frames
            .iter()
            .filter(|f| f.kind.is_b())
            .map(|f| {
                // Referenced Bs carry roughly twice the bytes of unreferenced
                // bs (they encode the mid-point of the pyramid).
                let scale = if f.kind == FrameKind::BRef { 1.5 } else { 1.0 };
                scale * modulate(f.motion)
            })
            .sum();

        for f in frames.iter_mut() {
            f.size_weight = match f.kind {
                FrameKind::I => i_share,
                FrameKind::P => p_total * modulate(f.motion) / p_raw,
                FrameKind::BRef => b_total * 1.5 * modulate(f.motion) / b_raw,
                FrameKind::BUnref => b_total * modulate(f.motion) / b_raw,
            };
        }

        // Reverse edges.
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
        for f in &frames {
            for &r in &f.refs {
                dependents[r].push(f.index);
            }
        }

        // Decode order: anchors first within each sub-GOP, then B, then b.
        // I, P3, B1, b2, P6, B4, b5, ...
        let mut pushed = vec![false; n];
        let mut decode_order = Vec::with_capacity(n);
        let mut push = |order: &mut Vec<usize>, i: usize| {
            if !pushed[i] {
                pushed[i] = true;
                order.push(i);
            }
        };
        push(&mut decode_order, 0);
        let mut k = 3;
        while k < n {
            push(&mut decode_order, k);
            push(&mut decode_order, k - 2);
            push(&mut decode_order, k - 1);
            k += 3;
        }
        // Trailing frames after the final anchor (positions 94, 95).
        for i in 0..n {
            push(&mut decode_order, i);
        }
        debug_assert_eq!(decode_order.len(), n);

        GopStructure {
            frames,
            dependents,
            decode_order,
        }
    }

    /// Number of frames.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether the GOP is empty (never true for built GOPs).
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// All frames that transitively reference `frame` — i.e. every frame
    /// whose decode is impaired if `frame` is lost.
    pub(crate) fn transitive_dependents(&self, frame: usize) -> Vec<usize> {
        let mut seen = vec![false; self.frames.len()];
        let mut stack = vec![frame];
        let mut out = Vec::new();
        while let Some(f) = stack.pop() {
            for &d in &self.dependents[f] {
                if !seen[d] {
                    seen[d] = true;
                    out.push(d);
                    stack.push(d);
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// The *inbound reference rank* of §4.1 ordering ③: the number of direct
    /// and transitive inbound references, weighted by the referencing
    /// frames' byte sizes (a cheap stand-in for "macroblocks referenced").
    pub fn inbound_rank(&self, frame: usize) -> f64 {
        self.transitive_dependents(frame)
            .iter()
            .map(|&d| self.frames[d].size_weight)
            .sum::<f64>()
    }

    /// Count of frames by kind `(i, p, b_ref, b_unref)`.
    pub fn kind_counts(&self) -> (usize, usize, usize, usize) {
        let mut c = (0, 0, 0, 0);
        for f in &self.frames {
            match f.kind {
                FrameKind::I => c.0 += 1,
                FrameKind::P => c.1 += 1,
                FrameKind::BRef => c.2 += 1,
                FrameKind::BUnref => c.3 += 1,
            }
        }
        c
    }

    /// Byte share by kind `(i, p, b)` (sums to ≈1).
    pub fn byte_shares(&self) -> (f64, f64, f64) {
        let mut s = (0.0, 0.0, 0.0);
        for f in &self.frames {
            match f.kind {
                FrameKind::I => s.0 += f.size_weight,
                FrameKind::P => s.1 += f.size_weight,
                _ => s.2 += f.size_weight,
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat_gop() -> GopStructure {
        GopStructure::build(&[0.3; FRAMES_PER_SEGMENT], 0.15)
    }

    #[test]
    fn kind_counts_match_design() {
        let g = flat_gop();
        let (i, p, bref, bunref) = g.kind_counts();
        assert_eq!(i, 1);
        assert_eq!(p, 31);
        assert_eq!(bref, 32);
        assert_eq!(bunref, 32);
        assert_eq!(i + p + bref + bunref, FRAMES_PER_SEGMENT);
        // Paper: videos contain more than 30% P-frames.
        assert!(p as f64 / FRAMES_PER_SEGMENT as f64 > 0.30);
    }

    #[test]
    fn byte_shares_match_paper() {
        let g = flat_gop();
        let (i, p, b) = g.byte_shares();
        assert!((i - 0.15).abs() < 1e-9, "I share {i}");
        assert!((p - 0.65).abs() < 0.01, "P share {p}");
        assert!((b - 0.20).abs() < 0.01, "B share {b}");
        assert!((i + p + b - 1.0).abs() < 1e-9);
        // Paper (§6): P-frames constitute at least 56% of video data.
        assert!(p > 0.56);
    }

    #[test]
    fn size_weights_sum_to_one() {
        let g = GopStructure::build(
            &(0..FRAMES_PER_SEGMENT)
                .map(|i| (i as f64 / 95.0).clamp(0.0, 1.0))
                .collect::<Vec<_>>(),
            0.25,
        );
        let total: f64 = g.frames.iter().map(|f| f.size_weight).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(g.frames.iter().all(|f| f.size_weight > 0.0));
    }

    #[test]
    fn i_frame_has_no_refs_and_many_dependents() {
        let g = flat_gop();
        assert!(g.frames[0].refs.is_empty());
        // Everything transitively depends on the I-frame.
        assert_eq!(g.transitive_dependents(0).len(), FRAMES_PER_SEGMENT - 1);
    }

    #[test]
    fn unreferenced_b_has_no_dependents() {
        let g = flat_gop();
        for f in &g.frames {
            if f.kind == FrameKind::BUnref {
                assert!(g.dependents[f.index].is_empty(), "frame {}", f.index);
                assert!(g.transitive_dependents(f.index).is_empty());
            }
        }
    }

    #[test]
    fn referenced_b_is_referenced_by_its_b_neighbour() {
        let g = flat_gop();
        // Frame 1 (BRef) is referenced by frame 2 (BUnref).
        assert_eq!(g.frames[1].kind, FrameKind::BRef);
        assert!(g.dependents[1].contains(&2));
    }

    #[test]
    fn p_chain_dependencies_decay_toward_tail() {
        let g = flat_gop();
        // An early P (frame 3) has strictly more transitive dependents than a
        // late P (frame 93): losing it hurts more. This is the basis of the
        // inbound-reference ordering.
        let early = g.transitive_dependents(3).len();
        let late = g.transitive_dependents(93).len();
        assert!(early > late, "early {early} late {late}");
        assert!(g.inbound_rank(3) > g.inbound_rank(93));
    }

    #[test]
    fn refs_are_valid_indices_and_acyclic() {
        let g = flat_gop();
        for f in &g.frames {
            for &r in &f.refs {
                assert!(r < g.len());
                assert_ne!(r, f.index);
            }
            // A frame's transitive dependents never include itself (DAG).
            assert!(!g.transitive_dependents(f.index).contains(&f.index));
        }
    }

    #[test]
    fn decode_order_is_a_permutation_with_anchors_first() {
        let g = flat_gop();
        let mut sorted = g.decode_order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..FRAMES_PER_SEGMENT).collect::<Vec<_>>());
        // Every frame's backward anchor reference appears before it in
        // decode order.
        let pos: Vec<usize> = {
            let mut p = vec![0; g.len()];
            for (di, &f) in g.decode_order.iter().enumerate() {
                p[f] = di;
            }
            p
        };
        for f in &g.frames {
            for &r in &f.refs {
                if r < f.index {
                    assert!(pos[r] < pos[f.index], "frame {} ref {}", f.index, r);
                }
            }
        }
    }

    #[test]
    fn high_motion_frames_are_larger() {
        let mut motions = [0.1; FRAMES_PER_SEGMENT];
        motions[6] = 0.9; // a P-frame
        let g = GopStructure::build(&motions, 0.15);
        // Compare with another P-frame at low motion.
        assert!(g.frames[6].size_weight > g.frames[9].size_weight * 2.0);
    }
}
