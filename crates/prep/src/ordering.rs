//! The three candidate frame orderings of §4.1.
//!
//! An ordering is the sequence in which a client downloads a segment's
//! frames. If the download is cut short, the frames at the *tail* of the
//! ordering are the ones lost — so a good ordering puts the least important
//! frames last. The I-frame always comes first (it is never dropped and is
//! always delivered reliably).

use voxel_media::gop::FrameKind;
use voxel_media::video::Segment;

/// Which of the §4.1 orderings to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OrderingKind {
    /// ① Original (encoder/decode) order.
    Original,
    /// ② Unreferenced frames grouped at the segment tail — BETA's approach.
    UnreferencedTail,
    /// ③ Rank by direct + transitive inbound references (VOXEL's ordering).
    InboundRank,
}

impl OrderingKind {
    /// All three candidates, in the order the paper presents them.
    pub const ALL: [OrderingKind; 3] = [
        OrderingKind::Original,
        OrderingKind::UnreferencedTail,
        OrderingKind::InboundRank,
    ];
}

impl std::fmt::Display for OrderingKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            OrderingKind::Original => "original",
            OrderingKind::UnreferencedTail => "unreferenced-tail",
            OrderingKind::InboundRank => "inbound-rank",
        };
        write!(f, "{s}")
    }
}

/// The download order of a segment's frames under `kind`.
///
/// Returns presentation-frame indices; element 0 is always the I-frame.
pub fn frame_order(seg: &Segment, kind: OrderingKind) -> Vec<usize> {
    let gop = &seg.gop;
    match kind {
        OrderingKind::Original => gop.decode_order.clone(),
        OrderingKind::UnreferencedTail => {
            // Keep decode order, but move frames with no inbound references
            // to the end (still in decode order among themselves). Errors in
            // those tail frames affect nothing else.
            let (head, tail): (Vec<usize>, Vec<usize>) =
                gop.decode_order.iter().copied().partition(|&f| {
                    !gop.dependents[f].is_empty() || gop.frames[f].kind == FrameKind::I
                });
            head.into_iter().chain(tail).collect()
        }
        OrderingKind::InboundRank => {
            // I-frame first, then frames by decreasing harm (the shared
            // ranking in voxel-media): most important downloaded first.
            let mut order = vec![0usize];
            let mut by_harm = voxel_media::qoe::drop_order(seg);
            by_harm.reverse();
            order.extend(by_harm);
            order
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use voxel_media::content::VideoId;
    use voxel_media::gop::FRAMES_PER_SEGMENT;
    use voxel_media::video::Video;

    fn seg() -> Segment {
        Video::generate(VideoId::Bbb).segments[2].clone()
    }

    fn assert_permutation(order: &[usize]) {
        let mut v = order.to_vec();
        v.sort_unstable();
        assert_eq!(v, (0..FRAMES_PER_SEGMENT).collect::<Vec<_>>());
    }

    #[test]
    fn all_orderings_are_permutations_starting_with_i() {
        let s = seg();
        for kind in OrderingKind::ALL {
            let order = frame_order(&s, kind);
            assert_permutation(&order);
            assert_eq!(order[0], 0, "{kind}: I-frame must come first");
        }
    }

    #[test]
    fn unreferenced_tail_groups_unreferenced_last() {
        let s = seg();
        let order = frame_order(&s, OrderingKind::UnreferencedTail);
        // Find the first unreferenced frame in the order; everything after
        // must also be unreferenced.
        let first_unref = order
            .iter()
            .position(|&f| s.gop.dependents[f].is_empty())
            .expect("segment has unreferenced frames");
        for &f in &order[first_unref..] {
            assert!(
                s.gop.dependents[f].is_empty(),
                "frame {f} after the unreferenced boundary has dependents"
            );
        }
        // And the head contains none.
        for &f in &order[..first_unref] {
            assert!(!s.gop.dependents[f].is_empty() || f == 0);
        }
    }

    #[test]
    fn inbound_rank_puts_high_rank_frames_early() {
        let s = seg();
        let order = frame_order(&s, OrderingKind::InboundRank);
        // The average inbound rank of the first third must exceed that of
        // the last third.
        let third = order.len() / 3;
        let rank_avg =
            |fs: &[usize]| fs.iter().map(|&f| s.gop.inbound_rank(f)).sum::<f64>() / fs.len() as f64;
        assert!(rank_avg(&order[..third]) > rank_avg(&order[order.len() - third..]));
    }

    #[test]
    fn orderings_differ_from_each_other() {
        let s = seg();
        let o1 = frame_order(&s, OrderingKind::Original);
        let o2 = frame_order(&s, OrderingKind::UnreferencedTail);
        let o3 = frame_order(&s, OrderingKind::InboundRank);
        assert_ne!(o1, o2);
        assert_ne!(o2, o3);
        assert_ne!(o1, o3);
    }
}
