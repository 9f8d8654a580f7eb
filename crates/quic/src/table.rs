//! A connection's stream tables, indexed by stream id.
//!
//! Each endpoint numbers the streams it opens densely: its `n`-th is
//! `StreamId(2n + parity)`, parity 0 for the client and 1 for the server.
//! So a table is two windows, one per initiator, each a deque of slots for
//! ids `2 * (base + i) + parity`. A finished stream is retired: its slot
//! keeps only that fact, and the window's base advances past the retired
//! slots at its front. A table therefore holds the streams still in play
//! and the span between them, not the connection's history.

use crate::stream::StreamId;
use std::collections::VecDeque;

/// How far past its window's base a stream may be opened by the peer:
/// beyond, the frame is refused rather than the window grown to reach it.
/// A session spans a few hundred stream numbers at most.
pub(crate) const MAX_SPAN: u64 = 1 << 16;

enum Slot<T> {
    /// Not opened (yet).
    Vacant,
    /// In play. Boxed, so a vacant or retired slot costs a word.
    Live(Box<T>),
    /// Opened, then retired.
    Retired,
}

/// The streams one initiator opened.
struct Window<T> {
    /// Stream number (`id / 2`) of the first slot; all below are retired.
    base: u64,
    slots: VecDeque<Slot<T>>,
}

impl<T> Window<T> {
    /// The slot index of stream number `number`, if it lies in the window.
    fn index(&self, number: u64) -> Option<usize> {
        let i = usize::try_from(number.checked_sub(self.base)?).ok()?;
        (i < self.slots.len()).then_some(i)
    }
}

/// Streams by id, with retirement (see the module docs).
pub(crate) struct StreamTable<T> {
    windows: [Window<T>; 2],
    /// Live streams, both windows.
    live: usize,
}

/// The window and stream number of `id`.
fn split(id: StreamId) -> (usize, u64) {
    ((id.0 & 1) as usize, id.0 >> 1)
}

impl<T> StreamTable<T> {
    pub(crate) fn new() -> StreamTable<T> {
        let window = || Window {
            base: 0,
            slots: VecDeque::new(),
        };
        StreamTable {
            windows: [window(), window()],
            live: 0,
        }
    }

    fn slot(&self, id: StreamId) -> Option<&Slot<T>> {
        let (w, n) = split(id);
        let window = &self.windows[w];
        window.index(n).map(|i| &window.slots[i])
    }

    pub(crate) fn get(&self, id: StreamId) -> Option<&T> {
        match self.slot(id)? {
            Slot::Live(s) => Some(s),
            Slot::Vacant | Slot::Retired => None,
        }
    }

    pub(crate) fn get_mut(&mut self, id: StreamId) -> Option<&mut T> {
        let (w, n) = split(id);
        let window = &mut self.windows[w];
        match window.slots.get_mut(window.index(n)?)? {
            Slot::Live(s) => Some(s),
            Slot::Vacant | Slot::Retired => None,
        }
    }

    /// Whether `id` was opened and has been retired since.
    pub(crate) fn is_retired(&self, id: StreamId) -> bool {
        let (w, n) = split(id);
        n < self.windows[w].base || matches!(self.slot(id), Some(Slot::Retired))
    }

    /// Whether `id` lies within [`MAX_SPAN`] of its window's base.
    pub(crate) fn in_reach(&self, id: StreamId) -> bool {
        let (w, n) = split(id);
        n.saturating_sub(self.windows[w].base) < MAX_SPAN
    }

    /// Open `id` with `stream` (a map's insert within the window). Ids are
    /// opened in sequence and once, so one below the retired base is a
    /// caller's bug: it is dropped.
    pub(crate) fn insert(&mut self, id: StreamId, stream: T) {
        let (w, n) = split(id);
        let window = &mut self.windows[w];
        debug_assert!(n >= window.base, "stream {id} opened after it was retired");
        let Some(i) = n.checked_sub(window.base).map(|i| i as usize) else {
            return;
        };
        if i >= window.slots.len() {
            window.slots.resize_with(i + 1, || Slot::Vacant);
        }
        let slot = std::mem::replace(&mut window.slots[i], Slot::Live(Box::new(stream)));
        if !matches!(slot, Slot::Live(_)) {
            self.live += 1;
        }
    }

    /// Retire `id` and hand back its stream, if it was live.
    pub(crate) fn retire(&mut self, id: StreamId) -> Option<T> {
        let (w, n) = split(id);
        let window = &mut self.windows[w];
        let slot = window.slots.get_mut(window.index(n)?)?;
        match std::mem::replace(slot, Slot::Retired) {
            Slot::Live(stream) => {
                self.live -= 1;
                self.trim(w);
                Some(*stream)
            }
            other => {
                *slot = other;
                None
            }
        }
    }

    /// Advance window `w`'s base past the retired slots at its front.
    fn trim(&mut self, w: usize) {
        let window = &mut self.windows[w];
        while matches!(window.slots.front(), Some(Slot::Retired)) {
            window.slots.pop_front();
            window.base += 1;
        }
    }

    /// The live streams, the client's window first, each in id order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (StreamId, &T)> {
        self.windows.iter().enumerate().flat_map(|(w, window)| {
            window
                .slots
                .iter()
                .enumerate()
                .filter_map(move |(i, slot)| match slot {
                    Slot::Live(s) => {
                        Some((StreamId((window.base + i as u64) * 2 + w as u64), &**s))
                    }
                    Slot::Vacant | Slot::Retired => None,
                })
        })
    }

    /// Number of live streams.
    pub(crate) fn len(&self) -> usize {
        self.live
    }

    /// Structural audit: every live stream sits in its own id's slot (so
    /// live ids ascend and lie at or above the retired base), no window
    /// starts with a retired slot (the base is past every one), and the
    /// live count is right. `id_of` reads a stream's own id.
    pub(crate) fn check_invariants(&self, id_of: impl Fn(&T) -> StreamId) -> Result<(), String> {
        for (w, window) in self.windows.iter().enumerate() {
            if matches!(window.slots.front(), Some(Slot::Retired)) {
                return Err(format!(
                    "window {w} starts with a retired slot at base {}",
                    window.base
                ));
            }
        }
        let mut live = 0;
        for (id, s) in self.iter() {
            if id_of(s) != id {
                return Err(format!("stream {} sits in slot {id}", id_of(s)));
            }
            live += 1;
        }
        if live != self.live {
            return Err(format!("{live} live streams, counted {}", self.live));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(t: &StreamTable<u64>) -> Vec<u64> {
        t.iter().map(|(id, _)| id.0).collect()
    }

    #[test]
    fn streams_are_found_by_id_in_both_windows() {
        let mut t = StreamTable::new();
        for id in [0, 1, 2, 3, 6, 9] {
            t.insert(StreamId(id), id * 10);
        }
        assert_eq!(ids(&t), [0, 2, 6, 1, 3, 9]);
        assert_eq!(t.get(StreamId(6)), Some(&60));
        assert_eq!(t.get(StreamId(4)), None, "vacant");
        assert_eq!(t.get(StreamId(8)), None, "past the window");
        assert_eq!(t.len(), 6);
        assert_eq!(t.check_invariants(|&v| StreamId(v / 10)), Ok(()));
    }

    #[test]
    fn retiring_the_front_advances_the_base() {
        let mut t = StreamTable::new();
        for id in [0, 2, 4, 6] {
            t.insert(StreamId(id), id * 10);
        }
        assert_eq!(t.retire(StreamId(2)), Some(20));
        assert!(t.is_retired(StreamId(2)));
        assert_eq!(t.windows[0].base, 0, "stream 0 is still live");
        assert_eq!(t.retire(StreamId(0)), Some(0));
        assert_eq!(t.windows[0].base, 2, "past both retired slots");
        assert_eq!(t.windows[0].slots.len(), 2);
        assert!(t.is_retired(StreamId(0)) && t.is_retired(StreamId(2)));
        assert!(!t.is_retired(StreamId(4)) && !t.is_retired(StreamId(8)));
        assert_eq!(t.retire(StreamId(2)), None, "already retired");
        assert_eq!(t.retire(StreamId(8)), None, "never opened");
        assert_eq!(ids(&t), [4, 6]);
        assert_eq!(t.check_invariants(|&v| StreamId(v / 10)), Ok(()));
    }

    #[test]
    fn the_audit_names_a_misfiled_stream() {
        let mut t = StreamTable::new();
        t.insert(StreamId(4), 2);
        let e = t.check_invariants(|&v| StreamId(v)).unwrap_err();
        assert!(e.contains("sits in slot s4"), "{e}");
    }

    #[test]
    fn reach_is_measured_from_the_base() {
        let mut t: StreamTable<u64> = StreamTable::new();
        assert!(t.in_reach(StreamId(2 * (MAX_SPAN - 1))));
        assert!(!t.in_reach(StreamId(2 * MAX_SPAN)));
        t.insert(StreamId(0), 0);
        t.retire(StreamId(0));
        assert!(t.in_reach(StreamId(2 * MAX_SPAN)));
    }
}
