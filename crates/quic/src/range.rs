//! A set of non-overlapping byte ranges `[start, end)` over `u64` offsets.
//!
//! Used for tracking received/acked stream data and computing the "holes"
//! that QUIC\* reports to the application for selective re-request (§4.2).

/// Sorted, coalesced set of half-open ranges.
///
/// Lookups ([`RangeSet::covers`], [`RangeSet::contains`],
/// [`RangeSet::covered_within`]) binary-search the ranges and
/// [`RangeSet::covered_len`] reads a total that [`RangeSet::insert`] keeps,
/// so none of them grows with the number of holes a lossy stream leaves.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RangeSet {
    ranges: Vec<(u64, u64)>,
    /// Sum of the ranges' lengths.
    covered: u64,
}

impl RangeSet {
    /// Empty set.
    pub fn new() -> RangeSet {
        RangeSet::default()
    }

    /// Insert `[start, end)`; overlapping/adjacent ranges coalesce.
    pub fn insert(&mut self, start: u64, end: u64) {
        if start >= end {
            return;
        }
        let mut new_start = start;
        let mut new_end = end;
        // Find all ranges overlapping or adjacent to [start, end).
        let lo = self.ranges.partition_point(|&(_, e)| e < start);
        let mut hi = lo;
        while hi < self.ranges.len() && self.ranges[hi].0 <= end {
            let (s, e) = self.ranges[hi];
            new_start = new_start.min(s);
            new_end = new_end.max(e);
            self.covered -= e - s;
            hi += 1;
        }
        self.covered += new_end - new_start;
        self.ranges
            .splice(lo..hi, std::iter::once((new_start, new_end)));
    }

    /// The ranges that intersect `[start, end)`, ascending.
    pub(crate) fn overlapping(
        &self,
        start: u64,
        end: u64,
    ) -> impl Iterator<Item = (u64, u64)> + '_ {
        let lo = self.ranges.partition_point(|&(_, e)| e <= start);
        self.ranges[lo..]
            .iter()
            .copied()
            .take_while(move |&(s, _)| s < end)
    }

    /// Whether the whole `[start, end)` is covered.
    pub fn covers(&self, start: u64, end: u64) -> bool {
        if start >= end {
            return true;
        }
        // The one range that can hold `start` is the first ending past it.
        let i = self.ranges.partition_point(|&(_, e)| e <= start);
        self.ranges
            .get(i)
            .is_some_and(|&(s, e)| s <= start && end <= e)
    }

    /// Whether `offset` is in the set.
    pub fn contains(&self, offset: u64) -> bool {
        self.covers(offset, offset + 1)
    }

    /// Total number of covered bytes.
    pub fn covered_len(&self) -> u64 {
        self.covered
    }

    /// The gaps (uncovered ranges) within `[0, upto)`.
    pub fn gaps(&self, upto: u64) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut cursor = 0u64;
        for &(s, e) in &self.ranges {
            if s >= upto {
                break;
            }
            if s > cursor {
                out.push((cursor, s.min(upto)));
            }
            cursor = cursor.max(e);
        }
        if cursor < upto {
            out.push((cursor, upto));
        }
        out
    }

    /// Length of the covered prefix starting at offset 0.
    pub(crate) fn prefix_len(&self) -> u64 {
        match self.ranges.first() {
            Some(&(0, e)) => e,
            _ => 0,
        }
    }

    /// End of the highest covered range (the receive high-water mark);
    /// 0 when empty.
    pub fn max_end(&self) -> u64 {
        self.ranges.last().map(|&(_, e)| e).unwrap_or(0)
    }

    /// Number of covered bytes within `[start, end)`.
    pub fn covered_within(&self, start: u64, end: u64) -> u64 {
        self.overlapping(start, end)
            .map(|(s, e)| e.min(end).saturating_sub(s.max(start)))
            .sum()
    }

    /// The ranges, for iteration.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.ranges.iter().copied()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Structural audit: ranges are non-empty, sorted ascending, and
    /// coalesced (disjoint with a gap between neighbours), and the kept
    /// total is their summed length. Used by the `paranoid` runtime layer
    /// and the property tests (DESIGN.md §10).
    pub fn check_invariants(&self) -> Result<(), String> {
        for &(s, e) in &self.ranges {
            if s >= e {
                return Err(format!("empty or inverted range [{s}, {e})"));
            }
        }
        for w in self.ranges.windows(2) {
            if w[0].1 >= w[1].0 {
                return Err(format!(
                    "ranges not sorted/coalesced: [{}, {}) then [{}, {})",
                    w[0].0, w[0].1, w[1].0, w[1].1
                ));
            }
        }
        let sum: u64 = self.ranges.iter().map(|&(s, e)| e - s).sum();
        if sum != self.covered {
            return Err(format!(
                "covered total {} but the ranges sum to {sum}",
                self.covered
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_coalesce() {
        let mut s = RangeSet::new();
        s.insert(10, 20);
        s.insert(30, 40);
        s.insert(20, 30); // bridges the two
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![(10, 40)]);
        assert_eq!(s.covered_len(), 30);
    }

    #[test]
    fn overlapping_inserts_merge() {
        let mut s = RangeSet::new();
        s.insert(0, 100);
        s.insert(50, 150);
        s.insert(200, 300);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![(0, 150), (200, 300)]);
    }

    #[test]
    fn empty_insert_is_ignored() {
        let mut s = RangeSet::new();
        s.insert(5, 5);
        assert!(s.is_empty());
        assert_eq!(s.covered_len(), 0);
    }

    #[test]
    fn covers_and_contains() {
        let mut s = RangeSet::new();
        s.insert(10, 20);
        assert!(s.covers(10, 20));
        assert!(s.covers(12, 18));
        assert!(!s.covers(5, 15));
        assert!(!s.covers(15, 25));
        assert!(s.contains(19));
        assert!(!s.contains(20));
        assert!(s.covers(7, 7), "empty range is vacuously covered");
    }

    #[test]
    fn gaps_reports_holes() {
        let mut s = RangeSet::new();
        s.insert(10, 20);
        s.insert(30, 40);
        assert_eq!(s.gaps(50), vec![(0, 10), (20, 30), (40, 50)]);
        assert_eq!(s.gaps(35), vec![(0, 10), (20, 30)]);
        assert_eq!(s.gaps(5), vec![(0, 5)]);
        assert_eq!(RangeSet::new().gaps(10), vec![(0, 10)]);
    }

    #[test]
    fn gaps_of_complete_prefix_is_empty() {
        let mut s = RangeSet::new();
        s.insert(0, 100);
        assert!(s.gaps(100).is_empty());
        assert_eq!(s.prefix_len(), 100);
    }

    #[test]
    fn max_end_tracks_high_water_mark() {
        let mut s = RangeSet::new();
        assert_eq!(s.max_end(), 0);
        s.insert(10, 20);
        s.insert(50, 60);
        assert_eq!(s.max_end(), 60);
    }

    #[test]
    fn covered_within_intersects() {
        let mut s = RangeSet::new();
        s.insert(10, 20);
        s.insert(30, 40);
        assert_eq!(s.covered_within(0, 50), 20);
        assert_eq!(s.covered_within(15, 35), 10);
        assert_eq!(s.covered_within(20, 30), 0);
        assert_eq!(s.covered_within(12, 18), 6);
    }

    #[test]
    fn prefix_len_requires_zero_start() {
        let mut s = RangeSet::new();
        s.insert(5, 10);
        assert_eq!(s.prefix_len(), 0);
        s.insert(0, 5);
        assert_eq!(s.prefix_len(), 10);
    }

    #[cfg(test)]
    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn invariants_hold(
                ops in proptest::collection::vec((0u64..500, 0u64..100), 0..100),
                queries in proptest::collection::vec((0u64..700, 0u64..120), 0..40),
            ) {
                let mut s = RangeSet::new();
                let mut reference = vec![false; 700];
                for (start, len) in ops {
                    s.insert(start, start + len);
                    for slot in reference.iter_mut().skip(start as usize).take(len as usize) {
                        *slot = true;
                    }
                    // The kept total is the bitmap's count after every insert.
                    let expected = reference.iter().filter(|&&b| b).count() as u64;
                    prop_assert_eq!(s.covered_len(), expected);
                }
                // Interval lookups match the bitmap: `covers` is "every
                // bit set", `covered_within` counts the set bits.
                for (start, len) in queries {
                    let end = (start + len).min(700);
                    let bits = &reference[start as usize..end as usize];
                    prop_assert_eq!(s.covers(start, end), bits.iter().all(|&b| b),
                        "covers({}, {})", start, end);
                    prop_assert_eq!(s.covered_within(start, end),
                        bits.iter().filter(|&&b| b).count() as u64);
                }
                // Sorted, disjoint, non-adjacent.
                let rs: Vec<_> = s.iter().collect();
                for w in rs.windows(2) {
                    prop_assert!(w[0].1 < w[1].0);
                }
                prop_assert!(s.check_invariants().is_ok(), "{:?}", s.check_invariants());
                // Covered length matches the reference bitmap.
                let expected = reference.iter().filter(|&&b| b).count() as u64;
                prop_assert_eq!(s.covered_len(), expected);
                // Point membership matches.
                for (i, &bit) in reference.iter().enumerate() {
                    prop_assert_eq!(s.contains(i as u64), bit, "offset {}", i);
                }
                // Gaps + covered = total.
                let gap_total: u64 = s.gaps(700).iter().map(|(a, b)| b - a).sum();
                prop_assert_eq!(gap_total + s.covered_len(), 700);
            }
        }
    }
}
