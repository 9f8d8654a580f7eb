//! ACK-range tracking and delayed-ACK policy.

use crate::frame::{self, AckRange};
use crate::varint;
use voxel_sim::{SimDuration, SimTime};

/// Tracks received packet numbers and decides when to emit ACK frames.
#[derive(Debug, Clone, Default)]
pub(crate) struct AckTracker {
    /// Received ranges, sorted ascending, non-overlapping, non-adjacent.
    ranges: Vec<AckRange>,
    /// Arrival time of the largest received packet (for the delay field).
    largest_arrival: Option<(u64, SimTime)>,
    /// Ack-eliciting packets received since the last ACK was sent.
    unacked_eliciting: usize,
    /// Deadline by which an ACK must go out, if any.
    ack_deadline: Option<SimTime>,
}

/// Send an ACK after this many ack-eliciting packets even before the delay
/// expires (QUIC's every-other-packet policy).
const ACK_ELICITING_THRESHOLD: usize = 2;

/// Maximum time to hold an ACK.
pub(crate) const MAX_ACK_DELAY: SimDuration = SimDuration::from_millis(25);

/// Ranges an ACK frame carries at most: the most recent ones.
const MAX_ACK_RANGES: usize = 32;

impl AckTracker {
    /// Fresh tracker.
    pub(crate) fn new() -> AckTracker {
        AckTracker::default()
    }

    /// Record receipt of packet `pn` at `now`. Returns `false` if it was a
    /// duplicate.
    pub(crate) fn on_packet(&mut self, pn: u64, now: SimTime, ack_eliciting: bool) -> bool {
        if self.contains(pn) {
            return false;
        }
        self.insert(pn);
        match self.largest_arrival {
            Some((largest, _)) if largest > pn => {}
            _ => self.largest_arrival = Some((pn, now)),
        }
        if ack_eliciting {
            self.unacked_eliciting += 1;
            let deadline = now + MAX_ACK_DELAY;
            self.ack_deadline = Some(match self.ack_deadline {
                Some(d) => d.min(deadline),
                None => deadline,
            });
        }
        true
    }

    /// Largest packet number seen so far, if any (lets the connection
    /// classify below-largest arrivals as reordered).
    pub(crate) fn largest_seen(&self) -> Option<u64> {
        self.largest_arrival.map(|(pn, _)| pn)
    }

    fn contains(&self, pn: u64) -> bool {
        // Packets mostly arrive in order: one past the last range is new.
        if self.ranges.last().is_none_or(|&(_, b)| b < pn) {
            return false;
        }
        // The one range that can hold `pn` is the first ending at or past it.
        let i = self.ranges.partition_point(|&(_, b)| b < pn);
        self.ranges.get(i).is_some_and(|&(a, _)| a <= pn)
    }

    /// Add `pn`, which is not yet in a range.
    fn insert(&mut self, pn: u64) {
        // In order: extend the last range, or open one after it.
        match self.ranges.last_mut() {
            Some((_, b)) if *b + 1 == pn => {
                *b = pn;
                return;
            }
            // Below the last range: search.
            Some(&mut (_, b)) if pn <= b => {}
            _ => {
                self.ranges.push((pn, pn));
                return;
            }
        }
        let pos = self.ranges.partition_point(|&(_, b)| b + 1 < pn);
        if pos < self.ranges.len() && self.ranges[pos].0 <= pn + 1 {
            // Extend this range.
            let (a, b) = self.ranges[pos];
            self.ranges[pos] = (a.min(pn), b.max(pn));
            // Merge with the next if now adjacent.
            if pos + 1 < self.ranges.len() && self.ranges[pos].1 + 1 >= self.ranges[pos + 1].0 {
                let (na, nb) = self.ranges[pos + 1];
                self.ranges[pos] = (self.ranges[pos].0.min(na), self.ranges[pos].1.max(nb));
                self.ranges.remove(pos + 1);
            }
        } else {
            self.ranges.insert(pos, (pn, pn));
        }
    }

    /// Whether an ACK should be emitted at `now`.
    pub(crate) fn should_ack(&self, now: SimTime) -> bool {
        self.unacked_eliciting >= ACK_ELICITING_THRESHOLD
            || matches!(self.ack_deadline, Some(d) if d <= now)
    }

    /// The pending ACK deadline, if an ACK is owed.
    pub(crate) fn deadline(&self) -> Option<SimTime> {
        self.ack_deadline
    }

    /// Build the ACK frame contents (ranges highest-first + delay) and reset
    /// the delayed-ack state; the third value is the frame's encoded size,
    /// summed while the ranges are copied. Returns `None` if nothing was
    /// ever received.
    pub(crate) fn take_ack(&mut self, now: SimTime) -> Option<(Vec<AckRange>, u64, usize)> {
        if self.ranges.is_empty() {
            return None;
        }
        self.unacked_eliciting = 0;
        self.ack_deadline = None;
        // Bound the frame size: the 32 most recent ranges, and only those
        // are copied.
        let recent = &self.ranges[self.ranges.len().saturating_sub(MAX_ACK_RANGES)..];
        let mut bounds = 0;
        let ranges: Vec<AckRange> = recent
            .iter()
            .rev()
            .map(|&(a, b)| {
                bounds += varint::size(a) + varint::size(b);
                (a, b)
            })
            .collect();
        let delay = match self.largest_arrival {
            Some((_, at)) => now.saturating_since(at).as_micros(),
            None => 0,
        };
        let size = frame::ack_size(delay, ranges.len(), bounds);
        Some((ranges, delay, size))
    }

    /// Structural audit: inclusive ranges are well-formed, sorted
    /// ascending, and non-adjacent (adjacent runs must have merged).
    /// Used by the `paranoid` runtime layer and the property tests.
    pub(crate) fn check_invariants(&self) -> Result<(), String> {
        for &(s, e) in &self.ranges {
            if s > e {
                return Err(format!("inverted ack range [{s}, {e}]"));
            }
        }
        for w in self.ranges.windows(2) {
            if w[0].1 + 1 >= w[1].0 {
                return Err(format!(
                    "ack ranges not sorted/merged: [{}, {}] then [{}, {}]",
                    w[0].0, w[0].1, w[1].0, w[1].1
                ));
            }
        }
        if let Some((largest, _)) = self.largest_arrival {
            let max_tracked = self.ranges.last().map(|&(_, e)| e).unwrap_or(0);
            if largest > max_tracked {
                return Err(format!(
                    "largest arrival {largest} beyond tracked ranges (max {max_tracked})"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inserts_merge_into_ranges() {
        let mut t = AckTracker::new();
        for pn in [1, 2, 3, 7, 8, 5] {
            assert!(t.on_packet(pn, SimTime::ZERO, true));
        }
        assert_eq!(t.ranges, &[(1, 3), (5, 5), (7, 8)]);
        // Fill the gap: 4 merges 1-3 and 5-5, then 6 merges everything.
        t.on_packet(4, SimTime::ZERO, true);
        assert_eq!(t.ranges, &[(1, 5), (7, 8)]);
        t.on_packet(6, SimTime::ZERO, true);
        assert_eq!(t.ranges, &[(1, 8)]);
    }

    #[test]
    fn duplicates_are_detected() {
        let mut t = AckTracker::new();
        assert!(t.on_packet(5, SimTime::ZERO, true));
        assert!(!t.on_packet(5, SimTime::ZERO, true));
    }

    #[test]
    fn ack_after_two_eliciting_packets() {
        let mut t = AckTracker::new();
        t.on_packet(0, SimTime::ZERO, true);
        assert!(!t.should_ack(SimTime::ZERO));
        t.on_packet(1, SimTime::ZERO, true);
        assert!(t.should_ack(SimTime::ZERO));
    }

    #[test]
    fn ack_after_delay_expires() {
        let mut t = AckTracker::new();
        t.on_packet(0, SimTime::ZERO, true);
        assert!(!t.should_ack(SimTime::from_millis(10)));
        assert!(t.should_ack(SimTime::from_millis(25)));
        assert_eq!(t.deadline(), Some(SimTime::ZERO + MAX_ACK_DELAY));
    }

    #[test]
    fn non_eliciting_packets_do_not_schedule_acks() {
        let mut t = AckTracker::new();
        t.on_packet(0, SimTime::ZERO, false);
        t.on_packet(1, SimTime::ZERO, false);
        assert!(!t.should_ack(SimTime::from_secs(10)));
        assert_eq!(t.deadline(), None);
    }

    #[test]
    fn take_ack_returns_descending_ranges_and_resets() {
        let mut t = AckTracker::new();
        for pn in [0, 1, 5, 6, 9] {
            t.on_packet(pn, SimTime::from_millis(pn), true);
        }
        let (ranges, delay, size) = t.take_ack(SimTime::from_millis(19)).unwrap();
        assert_eq!(ranges, vec![(9, 9), (5, 6), (0, 1)]);
        let frame = frame::Frame::Ack {
            ranges,
            delay_us: delay,
        };
        assert_eq!(size, frame.size());
        // Largest (pn 9) arrived at t=9ms, acked at 19ms → 10ms delay.
        assert_eq!(delay, 10_000);
        assert!(!t.should_ack(SimTime::from_secs(1)));
        // Ranges persist for future ACKs.
        assert_eq!(t.ranges, &[(0, 1), (5, 6), (9, 9)]);
    }

    #[test]
    fn take_ack_on_empty_returns_none() {
        let mut t = AckTracker::new();
        assert!(t.take_ack(SimTime::ZERO).is_none());
    }

    #[cfg(test)]
    mod props {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeSet;

        /// `AckTracker::contains` as first written: a scan of every range.
        /// The reference the binary search is held to.
        fn contains_by_scan(t: &AckTracker, pn: u64) -> bool {
            t.ranges.iter().any(|&(a, b)| (a..=b).contains(&pn))
        }

        /// `take_ack`'s ranges as first written: every range copied, then
        /// cut to the 32 most recent.
        fn ack_ranges_by_copy(t: &AckTracker) -> Vec<AckRange> {
            let mut ranges: Vec<AckRange> = t.ranges.iter().rev().copied().collect();
            ranges.truncate(32);
            ranges
        }

        /// The ACK ranges a set of packet numbers implies: maximal runs,
        /// highest first, the 32 most recent.
        fn ack_ranges_of(set: &BTreeSet<u64>) -> Vec<AckRange> {
            let mut runs: Vec<AckRange> = Vec::new();
            for &pn in set.iter().rev() {
                match runs.last_mut() {
                    Some((lo, _)) if *lo == pn + 1 => *lo = pn,
                    _ => runs.push((pn, pn)),
                }
            }
            runs.truncate(32);
            runs
        }

        proptest! {
            /// Duplicate detection and the ACK frame agree with a plain set
            /// of packet numbers and with the linear code they replaced,
            /// also with far more than 32 gaps (even numbers alone leave one
            /// per packet).
            #[test]
            fn tracker_matches_a_set_of_packet_numbers(
                arrivals in proptest::collection::vec((0u64..300, proptest::bool::ANY, 0u8..8), 1..400),
            ) {
                let mut t = AckTracker::new();
                let mut set = BTreeSet::new();
                for (x, sparse, op) in arrivals {
                    let pn = if sparse { 2 * x } else { x };
                    let fresh = set.insert(pn);
                    prop_assert_eq!(contains_by_scan(&t, pn), !fresh);
                    prop_assert_eq!(t.on_packet(pn, SimTime::ZERO, true), fresh);
                    if op == 0 {
                        let by_copy = ack_ranges_by_copy(&t);
                        let (ranges, _, _) = t.take_ack(SimTime::ZERO).expect("non-empty");
                        prop_assert_eq!(&ranges, &by_copy);
                        prop_assert_eq!(&ranges, &ack_ranges_of(&set));
                    }
                }
                prop_assert!(t.check_invariants().is_ok(), "{:?}", t.check_invariants());
            }
            /// The same model on what a session mostly sees: packet numbers
            /// in ascending order, with gaps (losses), an occasional late
            /// arrival below the last range (reordering) and a repeat
            /// (duplication). The in-order fast paths of `contains` and
            /// `insert` take most arrivals, the search the rest, and both
            /// are taken in every case.
            #[test]
            fn mostly_ascending_arrivals_match_a_set_of_packet_numbers(
                steps in proptest::collection::vec((0u8..20, 1u64..6), 60..300),
            ) {
                let mut t = AckTracker::new();
                let mut set = BTreeSet::new();
                let (mut next, mut last) = (0u64, 0u64);
                let (mut in_order, mut searched) = (0, 0);
                for (op, k) in steps {
                    let pn = match op {
                        // Next in order, or after a gap of `k - 1` lost.
                        0..=11 => next,
                        12..=15 => next + k,
                        // Late: up to `k` below the largest yet.
                        16..=17 => next.saturating_sub(k + 1),
                        // A repeat of the last arrival.
                        _ => last,
                    };
                    match t.ranges.last() {
                        Some(&(_, b)) if pn <= b => searched += 1,
                        _ => in_order += 1,
                    }
                    let fresh = set.insert(pn);
                    prop_assert_eq!(t.on_packet(pn, SimTime::ZERO, true), fresh, "pn {}", pn);
                    prop_assert!(contains_by_scan(&t, pn));
                    prop_assert_eq!(t.largest_seen(), set.last().copied());
                    next = next.max(pn + 1);
                    last = pn;
                    if op % 7 == 0 {
                        let (ranges, delay_us, size) = t.take_ack(SimTime::ZERO).expect("non-empty");
                        prop_assert_eq!(&ranges, &ack_ranges_of(&set));
                        prop_assert_eq!(size, frame::Frame::Ack { ranges, delay_us }.size());
                    }
                }
                prop_assert!(in_order > 0 && searched > 0, "{} in order, {} searched", in_order, searched);
                let mut all: Vec<AckRange> = t.ranges.iter().rev().copied().collect();
                all.truncate(32);
                prop_assert_eq!(all, ack_ranges_of(&set));
                prop_assert!(t.check_invariants().is_ok(), "{:?}", t.check_invariants());
            }

            #[test]
            fn ranges_stay_sorted_disjoint(pns in proptest::collection::vec(0u64..200, 1..100)) {
                let mut t = AckTracker::new();
                for pn in &pns {
                    t.on_packet(*pn, SimTime::ZERO, true);
                }
                let ranges = &t.ranges;
                for w in ranges.windows(2) {
                    // Sorted, disjoint and non-adjacent.
                    prop_assert!(w[0].1 + 1 < w[1].0, "ranges {:?}", ranges);
                }
                prop_assert!(t.check_invariants().is_ok(), "{:?}", t.check_invariants());
                // Every inserted pn is covered.
                for pn in &pns {
                    prop_assert!(ranges.iter().any(|&(a, b)| (a..=b).contains(pn)));
                }
                // Total coverage equals the number of distinct pns.
                let mut distinct = pns.clone();
                distinct.sort_unstable();
                distinct.dedup();
                let covered: u64 = ranges.iter().map(|&(a, b)| b - a + 1).sum();
                prop_assert_eq!(covered, distinct.len() as u64);
            }
        }
    }
}
