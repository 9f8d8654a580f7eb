//! Reliable and unreliable streams (§4.2).
//!
//! QUIC\* supports two stream classes:
//!
//! - **Reliable** streams behave like vanilla QUIC: lost data is
//!   retransmitted, and the receiver delivers bytes in order.
//! - **Unreliable** streams never retransmit at the transport layer; lost
//!   ranges are *reported upward* ("we gather the loss information in the
//!   QUIC transport layer and pass it up to the application layer"), and the
//!   receiver exposes whatever arrived, with precisely known holes, so the
//!   application can zero-pad or selectively re-request.
//!
//! Both classes are congestion-controlled and flow-controlled identically.

use crate::range::RangeSet;
use bytes::Bytes;
use std::collections::VecDeque;

/// Stream identifier. Client-initiated streams use even ids, server-initiated
/// odd ids (so the two endpoints never collide when opening).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StreamId(pub u64);

impl std::fmt::Display for StreamId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Reliability class of a stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Reliability {
    /// Vanilla QUIC stream: retransmit until acknowledged.
    Reliable,
    /// QUIC* stream: no transport retransmissions; losses reported to app.
    Unreliable,
}

/// The sending half of a stream.
#[derive(Debug)]
pub struct SendStream {
    /// The stream id.
    pub id: StreamId,
    /// Reliability class.
    pub reliability: Reliability,
    /// The real bytes the application wrote: the stream's prefix
    /// `[0, data.len())`. Everything from there to `len` is zeros that
    /// were only ever written as a length ([`SendStream::write_zeros`]).
    data: Vec<u8>,
    /// Total bytes written so far, real and zero.
    len: u64,
    /// The connection's shared zero page: a chunk lying wholly in zeros
    /// is an O(1) slice of it.
    zeros: Bytes,
    /// Next never-sent offset.
    next_send: u64,
    /// Ranges queued for (re)transmission ahead of new data.
    retransmit: VecDeque<(u64, u64)>,
    /// Ranges acknowledged by the peer.
    acked: RangeSet,
    /// Total length once finished.
    fin_offset: Option<u64>,
    /// Whether a frame carrying fin has been sent at least once.
    fin_sent: bool,
    /// Whether fin has been acknowledged.
    fin_acked: bool,
    /// Lost ranges on an unreliable stream, awaiting app pickup.
    loss_reports: Vec<(u64, u64)>,
    /// Peer's flow-control limit for this stream.
    max_stream_data: u64,
}

/// Default per-stream flow-control window (generous; the experiments are
/// congestion-limited, not flow-limited, as in the paper's testbed).
pub(crate) const DEFAULT_STREAM_WINDOW: u64 = 16 * 1024 * 1024;

impl SendStream {
    /// New send stream. `zeros` is the zero page its all-zero chunks are
    /// sliced from (one per connection); a chunk longer than the page is
    /// allocated instead.
    pub(crate) fn new(id: StreamId, reliability: Reliability, zeros: Bytes) -> SendStream {
        SendStream {
            id,
            reliability,
            data: Vec::new(),
            len: 0,
            zeros,
            next_send: 0,
            retransmit: VecDeque::new(),
            acked: RangeSet::new(),
            fin_offset: None,
            fin_sent: false,
            fin_acked: false,
            loss_reports: Vec::new(),
            max_stream_data: DEFAULT_STREAM_WINDOW,
        }
    }

    /// Append application data. Panics if the stream was finished.
    pub(crate) fn write(&mut self, data: &[u8]) {
        assert!(self.fin_offset.is_none(), "write after finish");
        // Real bytes after a zero run: the run has to become real too.
        self.data.resize(self.len as usize, 0);
        self.data.extend_from_slice(data);
        self.len = self.data.len() as u64;
    }

    /// Append `len` zero bytes without materialising them: the cost and
    /// the memory held are independent of `len`. Panics if the stream was
    /// finished.
    pub(crate) fn write_zeros(&mut self, len: u64) {
        assert!(self.fin_offset.is_none(), "write after finish");
        self.len += len;
    }

    /// Mark the stream finished at the current length.
    pub(crate) fn finish(&mut self) {
        self.fin_offset = Some(self.len);
    }

    /// The stream bytes `[start, end)`: a slice of the zero page when the
    /// range lies wholly in zeros, a copy when it contains real bytes.
    /// `end` is at most `self.len`.
    fn chunk(&self, start: u64, end: u64) -> Bytes {
        let len = (end - start) as usize;
        let real = self.data.len() as u64;
        if start >= real {
            return if len <= self.zeros.len() {
                self.zeros.slice(..len)
            } else {
                Bytes::from(vec![0; len])
            };
        }
        if end <= real {
            return Bytes::copy_from_slice(&self.data[start as usize..end as usize]);
        }
        // The one chunk that straddles the real prefix and the zeros.
        let mut out = self.data[start as usize..].to_vec();
        out.resize(len, 0);
        Bytes::from(out)
    }

    /// Whether all data (and fin) has been sent at least once.
    pub(crate) fn is_drained(&self) -> bool {
        self.retransmit.is_empty()
            && self.next_send >= self.len
            && (self.fin_offset.is_none() || self.fin_sent)
    }

    /// Whether delivery is complete: for reliable streams, everything
    /// acknowledged; for unreliable streams, everything sent once.
    pub fn is_complete(&self) -> bool {
        match self.reliability {
            Reliability::Reliable => {
                self.fin_acked
                    && self
                        .fin_offset
                        .is_some_and(|fo| self.acked.covers(0, fo) || fo == 0)
            }
            Reliability::Unreliable => self.is_drained(),
        }
    }

    /// Update the peer's flow-control limit.
    pub(crate) fn set_max_stream_data(&mut self, limit: u64) {
        self.max_stream_data = self.max_stream_data.max(limit);
    }

    /// Whether the stream has anything to put on the wire right now.
    pub(crate) fn wants_to_send(&self) -> bool {
        if !self.retransmit.is_empty() {
            return true;
        }
        if self.next_send < self.len.min(self.max_stream_data) {
            return true;
        }
        self.fin_offset.is_some() && !self.fin_sent
    }

    /// Produce the next chunk to send, at most `max_len` bytes.
    ///
    /// Retransmissions (reliable streams only) take priority over new data.
    /// Returns `(offset, data, fin)`.
    pub(crate) fn next_chunk(&mut self, max_len: usize) -> Option<(u64, Bytes, bool)> {
        if max_len == 0 {
            return None;
        }
        // Retransmissions first.
        if let Some((start, end)) = self.retransmit.pop_front() {
            let len = ((end - start) as usize).min(max_len);
            let chunk_end = start + len as u64;
            if chunk_end < end {
                self.retransmit.push_front((chunk_end, end));
            }
            let fin = self.fin_offset == Some(chunk_end) && chunk_end == self.len;
            return Some((start, self.chunk(start, chunk_end), fin));
        }
        // New data, respecting flow control.
        let limit = self.len.min(self.max_stream_data);
        if self.next_send < limit {
            let start = self.next_send;
            let len = ((limit - start) as usize).min(max_len);
            let end = start + len as u64;
            self.next_send = end;
            let fin = self.fin_offset == Some(end);
            if fin {
                self.fin_sent = true;
            }
            return Some((start, self.chunk(start, end), fin));
        }
        // Bare fin.
        if let Some(fo) = self.fin_offset {
            if !self.fin_sent && self.next_send >= fo {
                self.fin_sent = true;
                return Some((fo, Bytes::new(), true));
            }
        }
        None
    }

    /// A previously sent chunk was acknowledged.
    pub(crate) fn on_chunk_acked(&mut self, offset: u64, len: usize, fin: bool) {
        self.acked.insert(offset, offset + len as u64);
        if fin {
            self.fin_acked = true;
            // A spurious loss may have cleared `fin_sent` to schedule a
            // resend; the late ack proves delivery, so cancel it.
            self.fin_sent = true;
        }
    }

    /// A previously sent chunk was declared lost.
    ///
    /// Reliable: requeue for retransmission (unless already acked, e.g. a
    /// spurious loss). Unreliable: record a loss report for the application
    /// and *do not* retransmit.
    pub(crate) fn on_chunk_lost(&mut self, offset: u64, len: usize, fin: bool) {
        let end = offset + len as u64;
        match self.reliability {
            Reliability::Reliable => {
                if !self.acked.covers(offset, end) && len > 0 {
                    self.retransmit.push_back((offset, end));
                }
                if fin && !self.fin_acked {
                    self.fin_sent = false; // resend the fin marker
                }
            }
            Reliability::Unreliable => {
                if len > 0 {
                    self.loss_reports.push((offset, end));
                }
                // fin on unreliable streams: resend the (empty) fin marker so
                // the receiver learns the total length.
                if fin && !self.fin_acked {
                    self.fin_sent = false;
                }
            }
        }
    }

    /// Drain accumulated loss reports (unreliable streams).
    pub(crate) fn take_loss_reports(&mut self) -> Vec<(u64, u64)> {
        std::mem::take(&mut self.loss_reports)
    }

    /// Total bytes written by the application.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether nothing was written.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Structural audit: the real bytes are a prefix of the written
    /// length, send offsets stay monotonic and inside it, acked/retransmit
    /// ranges are well-formed, and fin (once declared) pins the stream
    /// length. Used by the `paranoid` runtime layer (DESIGN.md §10).
    pub(crate) fn check_invariants(&self) -> Result<(), String> {
        let len = self.len;
        if self.data.len() as u64 > len {
            return Err(format!(
                "{} real bytes beyond stream len {len}",
                self.data.len()
            ));
        }
        if self.next_send > len {
            return Err(format!(
                "next_send {} beyond stream len {len}",
                self.next_send
            ));
        }
        self.acked
            .check_invariants()
            .map_err(|e| format!("acked set: {e}"))?;
        if self.acked.max_end() > len {
            return Err(format!(
                "acked up to {} beyond stream len {len}",
                self.acked.max_end()
            ));
        }
        if let Some(fin) = self.fin_offset {
            if fin != len {
                return Err(format!("fin_offset {fin} != stream len {len}"));
            }
            if self.fin_acked && !self.fin_sent {
                return Err("fin acked but never sent".to_string());
            }
        }
        for &(s, e) in &self.retransmit {
            if s >= e || e > self.next_send {
                return Err(format!(
                    "retransmit range [{s}, {e}) outside sent data [0, {})",
                    self.next_send
                ));
            }
        }
        for &(s, e) in &self.loss_reports {
            if s >= e || e > self.next_send {
                return Err(format!(
                    "loss report [{s}, {e}) outside sent data [0, {})",
                    self.next_send
                ));
            }
        }
        Ok(())
    }
}

/// The receiving half of a stream.
#[derive(Debug)]
pub struct RecvStream {
    /// The stream id.
    pub id: StreamId,
    /// Reliability class (learned from the first frame).
    pub reliability: Reliability,
    /// Received ranges.
    received: RangeSet,
    /// Buffered data, sorted by offset and non-overlapping (new data is
    /// trimmed). A deque rather than a map: a drained map frees its node
    /// and the next frame allocates one, while a drained deque keeps its
    /// buffer (up to [`DRAINED_CAPACITY`], until fin is known).
    chunks: VecDeque<(u64, Bytes)>,
    /// In-order read cursor (reliable delivery).
    read_cursor: u64,
    /// Total stream length, once fin is seen.
    fin_offset: Option<u64>,
}

impl RecvStream {
    /// New receive stream.
    pub(crate) fn new(id: StreamId, reliability: Reliability) -> RecvStream {
        RecvStream {
            id,
            reliability,
            received: RangeSet::new(),
            chunks: VecDeque::new(),
            read_cursor: 0,
            fin_offset: None,
        }
    }

    /// Ingest a STREAM frame's payload.
    pub(crate) fn on_data(&mut self, offset: u64, data: Bytes, fin: bool) {
        if fin {
            let end = offset + data.len() as u64;
            self.fin_offset = Some(self.fin_offset.map_or(end, |f| f.max(end)));
        }
        if data.is_empty() {
            return;
        }
        let end = offset + data.len() as u64;
        // Buffer the pieces not received yet: the holes between the
        // received ranges that overlap the frame (the empty range at `end`
        // closes the last one). Usually none overlaps, and the whole frame
        // is one piece.
        let mut cursor = offset;
        for (s, e) in self.received.overlapping(offset, end).chain([(end, end)]) {
            if s > cursor {
                let piece = data.slice((cursor - offset) as usize..(s - offset) as usize);
                let at = self.chunks.partition_point(|&(o, _)| o < cursor);
                self.chunks.insert(at, (cursor, piece));
            }
            cursor = cursor.max(e);
        }
        self.received.insert(offset, end);
    }

    /// Reliable read: return the next in-order bytes, if any.
    pub fn read(&mut self) -> Option<Bytes> {
        let &(start, _) = self.chunks.front()?;
        if start > self.read_cursor {
            return None; // gap at the cursor
        }
        let (start, chunk) = self.chunks.pop_front()?;
        // Drop any portion already read (possible after overlap trims).
        let skip = (self.read_cursor - start) as usize;
        self.read_cursor = start + chunk.len() as u64;
        Some(if skip > 0 { chunk.slice(skip..) } else { chunk })
    }

    /// Bytes received so far (distinct offsets).
    pub fn bytes_received(&self) -> u64 {
        self.received.covered_len()
    }

    /// Total length, if fin has been seen.
    pub fn final_len(&self) -> Option<u64> {
        self.fin_offset
    }

    /// Whether every byte up to fin has arrived.
    pub fn is_complete(&self) -> bool {
        match self.fin_offset {
            Some(fo) => self.received.covers(0, fo) || fo == 0,
            None => false,
        }
    }

    /// The holes in `[0, upto)` — for unreliable streams, the ranges the
    /// application may re-request or zero-pad (`upto` defaults to fin).
    #[cfg(test)]
    pub(crate) fn missing_ranges(&self, upto: Option<u64>) -> Vec<(u64, u64)> {
        let upto = upto.or(self.fin_offset).unwrap_or(0);
        self.received.gaps(upto)
    }

    /// Drain everything received so far as `(offset, data)` pairs in
    /// offset order (unreliable delivery: the app assembles and
    /// zero-pads). The chunks leave the stream even if the iterator is
    /// dropped unread.
    pub fn take_received(&mut self) -> impl Iterator<Item = (u64, Bytes)> + '_ {
        // Once fin is known only stragglers can still arrive: the buffer
        // goes with the last chunks.
        let keep = if self.fin_offset.is_some() {
            0
        } else {
            DRAINED_CAPACITY
        };
        Drain {
            chunks: &mut self.chunks,
            keep,
        }
    }

    /// Received ranges, for inspection.
    #[cfg(test)]
    pub(crate) fn received_ranges(&self) -> Vec<(u64, u64)> {
        self.received.iter().collect()
    }

    /// Structural audit: the read cursor never outruns the contiguous
    /// prefix, buffered chunks lie inside the received set in offset order
    /// without overlapping, and nothing arrives beyond fin. Used by the
    /// `paranoid` runtime layer.
    pub(crate) fn check_invariants(&self) -> Result<(), String> {
        self.received
            .check_invariants()
            .map_err(|e| format!("received set: {e}"))?;
        if self.read_cursor > self.received.prefix_len() {
            return Err(format!(
                "read_cursor {} beyond contiguous prefix {}",
                self.read_cursor,
                self.received.prefix_len()
            ));
        }
        if let Some(fin) = self.fin_offset {
            if self.received.max_end() > fin {
                return Err(format!(
                    "received up to {} beyond fin {fin}",
                    self.received.max_end()
                ));
            }
        }
        let mut buffered_end = 0;
        for (off, chunk) in &self.chunks {
            let end = off + chunk.len() as u64;
            if !self.received.covers(*off, end) {
                return Err(format!(
                    "buffered chunk [{off}, {end}) not in the received set"
                ));
            }
            if *off < buffered_end {
                return Err(format!(
                    "buffered chunk at {off} overlaps or precedes the one ending at {buffered_end}"
                ));
            }
            buffered_end = end;
        }
        Ok(())
    }
}

/// The buffer capacity a drained, unfinished [`RecvStream`] keeps: enough
/// for the chunk or two a streaming reader takes per drain, so steady
/// streaming allocates nothing, while a stream that buffered many chunks
/// gives that memory back.
const DRAINED_CAPACITY: usize = 8;

/// [`RecvStream::take_received`]'s iterator: pops chunks, and on drop
/// empties the buffer down to `keep` slots.
struct Drain<'a> {
    chunks: &'a mut VecDeque<(u64, Bytes)>,
    keep: usize,
}

impl Iterator for Drain<'_> {
    type Item = (u64, Bytes);

    fn next(&mut self) -> Option<(u64, Bytes)> {
        self.chunks.pop_front()
    }
}

impl Drop for Drain<'_> {
    fn drop(&mut self) {
        self.chunks.clear();
        self.chunks.shrink_to(self.keep);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A connection-sized zero page.
    fn page() -> Bytes {
        Bytes::from(vec![0; 1350])
    }

    #[test]
    fn reliable_send_produces_sequential_chunks() {
        let mut s = SendStream::new(StreamId(0), Reliability::Reliable, page());
        s.write(&[1u8; 2500]);
        s.finish();
        let (o1, d1, f1) = s.next_chunk(1000).unwrap();
        let (o2, d2, f2) = s.next_chunk(1000).unwrap();
        let (o3, d3, f3) = s.next_chunk(1000).unwrap();
        assert_eq!((o1, d1.len(), f1), (0, 1000, false));
        assert_eq!((o2, d2.len(), f2), (1000, 1000, false));
        assert_eq!((o3, d3.len(), f3), (2000, 500, true));
        assert!(s.next_chunk(1000).is_none());
        assert!(s.is_drained());
    }

    #[test]
    fn lost_reliable_chunks_are_retransmitted_first() {
        let mut s = SendStream::new(StreamId(0), Reliability::Reliable, page());
        s.write(&[7u8; 3000]);
        s.finish();
        let _ = s.next_chunk(1000).unwrap();
        let _ = s.next_chunk(1000).unwrap();
        s.on_chunk_lost(0, 1000, false);
        // Retransmission takes priority over the remaining new data.
        let (o, d, _) = s.next_chunk(600).unwrap();
        assert_eq!((o, d.len()), (0, 600));
        let (o, d, _) = s.next_chunk(600).unwrap();
        assert_eq!((o, d.len()), (600, 400));
        // Then new data resumes.
        let (o, _, fin) = s.next_chunk(2000).unwrap();
        assert_eq!(o, 2000);
        assert!(fin);
    }

    #[test]
    fn spurious_loss_after_ack_is_not_retransmitted() {
        let mut s = SendStream::new(StreamId(0), Reliability::Reliable, page());
        s.write(&[7u8; 1000]);
        s.finish();
        let _ = s.next_chunk(1000).unwrap();
        s.on_chunk_acked(0, 1000, true);
        s.on_chunk_lost(0, 1000, false);
        assert!(s.next_chunk(1000).is_none());
        assert!(s.is_complete());
    }

    #[test]
    fn unreliable_losses_become_reports_not_retransmissions() {
        let mut s = SendStream::new(StreamId(2), Reliability::Unreliable, page());
        s.write(&[7u8; 2000]);
        s.finish();
        let _ = s.next_chunk(1000).unwrap();
        let _ = s.next_chunk(1000).unwrap();
        s.on_chunk_lost(0, 1000, false);
        s.on_chunk_lost(1500, 500, false);
        assert!(s.next_chunk(1000).is_none(), "no transport retransmission");
        assert_eq!(s.take_loss_reports(), vec![(0, 1000), (1500, 2000)]);
        assert!(s.take_loss_reports().is_empty(), "reports drain once");
        assert!(s.is_complete(), "unreliable completes on drain");
    }

    /// A length-only zero run is indistinguishable, chunk for chunk, from
    /// the same zeros written as bytes: after a real head (the straddling
    /// chunk), across retransmissions cut at other sizes, and for a chunk
    /// longer than the zero page.
    #[test]
    fn zeros_written_as_a_length_chunk_like_zeros_written_as_bytes() {
        let head: Vec<u8> = (1..=100).collect();
        // Two chunks, both lost and re-cut at 700 (the first cut still
        // straddling the head), then one chunk longer than the page.
        let script = |mut s: SendStream| {
            s.finish();
            assert_eq!(s.len(), 5100);
            let mut chunks = vec![s.next_chunk(1000), s.next_chunk(1000)];
            s.on_chunk_lost(0, 1000, false);
            s.on_chunk_lost(1000, 1000, false);
            chunks.extend((0..4).map(|_| s.next_chunk(700)));
            chunks.extend([s.next_chunk(4000), s.next_chunk(1000)]);
            assert!(s.check_invariants().is_ok());
            chunks
        };
        let mut bytes = SendStream::new(StreamId(0), Reliability::Reliable, page());
        bytes.write(&head);
        bytes.write(&[0; 5000]);
        let mut length = SendStream::new(StreamId(0), Reliability::Reliable, page());
        length.write(&head);
        length.write_zeros(5000);
        let chunks = script(length);
        assert_eq!(chunks, script(bytes));
        let (offset, first, _) = chunks[0].clone().unwrap();
        assert_eq!(
            (offset, &first[..100], &first[100..]),
            (0, &head[..], &[0; 900][..])
        );
        let (_, last, fin) = chunks[6].clone().unwrap();
        assert_eq!((last.len(), fin, &chunks[7]), (3100, true, &None));
    }

    #[test]
    fn real_bytes_after_a_zero_run_land_after_it() {
        let mut s = SendStream::new(StreamId(0), Reliability::Reliable, page());
        s.write_zeros(10);
        s.write(b"tail");
        s.finish();
        assert!(s.check_invariants().is_ok());
        let (_, d, fin) = s.next_chunk(100).unwrap();
        assert_eq!(
            (&d[..10], &d[10..], fin),
            (&[0u8; 10][..], &b"tail"[..], true)
        );
    }

    #[test]
    fn reliable_completion_requires_full_ack() {
        let mut s = SendStream::new(StreamId(0), Reliability::Reliable, page());
        s.write(&[7u8; 1500]);
        s.finish();
        let (o1, d1, _) = s.next_chunk(1000).unwrap();
        let (o2, d2, f2) = s.next_chunk(1000).unwrap();
        assert!(!s.is_complete());
        s.on_chunk_acked(o1, d1.len(), false);
        assert!(!s.is_complete());
        s.on_chunk_acked(o2, d2.len(), f2);
        assert!(s.is_complete());
    }

    #[test]
    fn flow_control_blocks_new_data() {
        let mut s = SendStream::new(StreamId(0), Reliability::Reliable, page());
        s.write(&[1u8; 100]);
        s.max_stream_data = 50;
        let (_, d, _) = s.next_chunk(1000).unwrap();
        assert_eq!(d.len(), 50);
        assert!(s.next_chunk(1000).is_none(), "blocked at the limit");
        s.set_max_stream_data(100);
        let (o, d, _) = s.next_chunk(1000).unwrap();
        assert_eq!((o, d.len()), (50, 50));
    }

    #[test]
    fn bare_fin_on_empty_stream() {
        let mut s = SendStream::new(StreamId(4), Reliability::Reliable, page());
        s.finish();
        let (o, d, fin) = s.next_chunk(100).unwrap();
        assert_eq!((o, d.len(), fin), (0, 0, true));
        s.on_chunk_acked(0, 0, true);
        assert!(s.is_complete());
    }

    #[test]
    fn recv_in_order_delivery() {
        let mut r = RecvStream::new(StreamId(0), Reliability::Reliable);
        r.on_data(0, Bytes::from_static(b"hello "), false);
        r.on_data(6, Bytes::from_static(b"world"), true);
        assert_eq!(r.read().unwrap(), Bytes::from_static(b"hello "));
        assert_eq!(r.read().unwrap(), Bytes::from_static(b"world"));
        assert!(r.read().is_none());
        assert!(r.is_complete());
        assert_eq!(r.final_len(), Some(11));
    }

    #[test]
    fn recv_blocks_on_gap_then_delivers() {
        let mut r = RecvStream::new(StreamId(0), Reliability::Reliable);
        r.on_data(6, Bytes::from_static(b"world"), false);
        assert!(r.read().is_none(), "gap at offset 0");
        r.on_data(0, Bytes::from_static(b"hello "), false);
        assert_eq!(r.read().unwrap(), Bytes::from_static(b"hello "));
        assert_eq!(r.read().unwrap(), Bytes::from_static(b"world"));
    }

    #[test]
    fn recv_duplicates_and_overlaps_are_trimmed() {
        let mut r = RecvStream::new(StreamId(0), Reliability::Reliable);
        r.on_data(0, Bytes::from_static(b"abcd"), false);
        r.on_data(0, Bytes::from_static(b"abcd"), false); // dup
        r.on_data(2, Bytes::from_static(b"cdef"), false); // overlap
        assert_eq!(r.bytes_received(), 6);
        let mut all = Vec::new();
        while let Some(b) = r.read() {
            all.extend_from_slice(&b);
        }
        assert_eq!(&all, b"abcdef");
    }

    #[test]
    fn unreliable_recv_reports_missing_ranges() {
        let mut r = RecvStream::new(StreamId(2), Reliability::Unreliable);
        r.on_data(1000, Bytes::from(vec![1u8; 500]), false);
        r.on_data(2500, Bytes::from(vec![2u8; 500]), true);
        assert_eq!(r.final_len(), Some(3000));
        assert!(!r.is_complete());
        assert_eq!(r.missing_ranges(None), vec![(0, 1000), (1500, 2500)]);
        let chunks: Vec<_> = r.take_received().collect();
        assert_eq!(chunks.len(), 2);
        assert_eq!(chunks[0].0, 1000);
        assert_eq!(chunks[1].0, 2500);
    }

    /// Draining keeps a small buffer for the next frame but gives back
    /// one that grew while many chunks were buffered, and all of it once
    /// fin is known.
    #[test]
    fn a_drained_stream_keeps_only_a_small_buffer() {
        let mut r = RecvStream::new(StreamId(0), Reliability::Reliable);
        r.on_data(0, Bytes::from_static(b"ab"), false);
        assert_eq!(r.take_received().count(), 1);
        let small = r.chunks.capacity();
        assert!(small > 0 && small <= DRAINED_CAPACITY, "{small}");
        // Out of order, so every piece stays buffered until drained.
        for i in (1..200u64).rev() {
            r.on_data(10 * i, Bytes::from_static(b"x"), false);
        }
        assert!(r.chunks.capacity() >= 199);
        let offsets: Vec<u64> = r.take_received().map(|(o, _)| o).collect();
        assert_eq!(offsets, (1..200).map(|i| 10 * i).collect::<Vec<_>>());
        assert!(r.chunks.capacity() <= DRAINED_CAPACITY);
        // Dropped unread, the iterator still drains; once fin is known the
        // buffer goes too.
        r.on_data(5000, Bytes::from_static(b"y"), true);
        drop(r.take_received());
        assert_eq!((r.chunks.len(), r.chunks.capacity()), (0, 0));
    }

    #[test]
    fn fin_without_data_sets_length() {
        let mut r = RecvStream::new(StreamId(2), Reliability::Unreliable);
        r.on_data(5000, Bytes::new(), true);
        assert_eq!(r.final_len(), Some(5000));
        assert_eq!(r.missing_ranges(None), vec![(0, 5000)]);
    }

    #[cfg(test)]
    mod props {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeMap;

        /// `RecvStream`'s buffering as first written: pieces in a map, each
        /// frame trimmed against a scratch `RangeSet` built from every
        /// received range. The reference the overlap-only trimming is held
        /// to.
        #[derive(Default)]
        struct TrimmingRecv {
            received: RangeSet,
            chunks: BTreeMap<u64, Bytes>,
        }

        impl TrimmingRecv {
            fn on_data(&mut self, offset: u64, data: Bytes) {
                if data.is_empty() {
                    return;
                }
                let end = offset + data.len() as u64;
                if self.received.covers(offset, end) {
                    return; // pure duplicate
                }
                let gaps: Vec<(u64, u64)> = {
                    let mut sub = RangeSet::new();
                    for (s, e) in self.received.iter() {
                        let s = s.max(offset);
                        let e = e.min(end);
                        if s < e {
                            sub.insert(s - offset, e - offset);
                        }
                    }
                    sub.gaps(data.len() as u64)
                };
                for (s, e) in gaps {
                    let piece = data.slice(s as usize..e as usize);
                    self.chunks.insert(offset + s, piece);
                }
                self.received.insert(offset, end);
            }
        }

        proptest! {
            /// Over overlapping, duplicate and disjoint frames, with the
            /// application draining now and then, the stream buffers the
            /// same pieces (offsets and bytes) and the same received ranges
            /// as the trimming version.
            #[test]
            fn on_data_buffers_what_the_trimming_version_does(
                frames in proptest::collection::vec((0u64..3000, 0usize..400, 0u8..6), 1..80),
            ) {
                let mut r = RecvStream::new(StreamId(2), Reliability::Unreliable);
                let mut reference = TrimmingRecv::default();
                for (offset, len, op) in frames {
                    let data: Vec<u8> = (offset..offset + len as u64).map(|i| (i % 251) as u8).collect();
                    let data = Bytes::from(data);
                    // op 1 sends the frame twice: a duplicate.
                    for _ in 0..1 + usize::from(op == 1) {
                        r.on_data(offset, data.clone(), false);
                        reference.on_data(offset, data.clone());
                    }
                    prop_assert_eq!(r.received_ranges(), reference.received.iter().collect::<Vec<_>>());
                    prop_assert!(r.check_invariants().is_ok(), "{:?}", r.check_invariants());
                    // op 0: the application drains what arrived.
                    if op == 0 {
                        let drained: Vec<(u64, Bytes)> = r.take_received().collect();
                        let expected: Vec<(u64, Bytes)> = std::mem::take(&mut reference.chunks).into_iter().collect();
                        prop_assert_eq!(drained, expected);
                    }
                }
                let drained: Vec<(u64, Bytes)> = r.take_received().collect();
                prop_assert_eq!(drained, reference.chunks.into_iter().collect::<Vec<_>>());
            }

            /// Whatever order reliable chunks (with losses + retransmits)
            /// arrive in, the receiver reconstructs the exact byte stream.
            #[test]
            fn reliable_stream_reassembles(
                len in 1usize..5000,
                chunk in 1usize..700,
                seed in 0u64..1000,
            ) {
                use rand::{Rng, SeedableRng};
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                let data: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
                let mut s = SendStream::new(StreamId(0), Reliability::Reliable, page());
                s.write(&data);
                s.finish();
                let mut r = RecvStream::new(StreamId(0), Reliability::Reliable);
                let mut inflight: Vec<(u64, Bytes, bool)> = Vec::new();
                loop {
                    // Randomly send, lose, or deliver.
                    if let Some(c) = s.next_chunk(chunk) {
                        if rng.gen_bool(0.3) {
                            s.on_chunk_lost(c.0, c.1.len(), c.2);
                        } else {
                            inflight.push(c);
                        }
                    } else if let Some(i) = (!inflight.is_empty())
                        .then(|| rng.gen_range(0..inflight.len()))
                    {
                        let (o, d, f) = inflight.remove(i);
                        r.on_data(o, d.clone(), f);
                        s.on_chunk_acked(o, d.len(), f);
                    } else {
                        break;
                    }
                }
                prop_assert!(r.is_complete());
                let mut got = Vec::new();
                while let Some(b) = r.read() {
                    got.extend_from_slice(&b);
                }
                prop_assert_eq!(got, data);
                prop_assert!(s.is_complete());
            }
        }
    }
}
