//! The edge → origin backhaul link (DESIGN.md §16).
//!
//! Cache misses at an edge fan in to one shared origin over this link: a
//! fluid FIFO pipe with a fixed rate and a one-way propagation delay.
//! Unlike [`crate::shared::SharedLink`] it carries *object fetches*, not
//! packets — the edge tier only needs to know **when** the missed bytes
//! are available at the edge, so service is modelled as back-to-back
//! transmission of each fetch in request order (work-conserving, one
//! fetch in service at a time). A flash crowd of misses therefore queues:
//! each fetch's ready time includes every earlier fetch still in flight,
//! which is exactly the origin-overload signal the edge report surfaces
//! as `edge.origin_load_pct`.

use voxel_sim::{SimDuration, SimTime};

/// The shared origin backhaul. Deterministic: ready times are a pure
/// function of the fetch sequence.
#[derive(Debug, Clone)]
pub struct OriginLink {
    rate_bps: f64,
    delay: SimDuration,
    busy_until: SimTime,
    total_bytes: u64,
    fetches: u64,
    busy: SimDuration,
}

impl OriginLink {
    /// An origin link serving `mbps` with the given one-way delay.
    pub fn new(mbps: f64, delay: SimDuration) -> OriginLink {
        OriginLink {
            rate_bps: (mbps.max(1e-6)) * 1e6,
            delay,
            busy_until: SimTime::ZERO,
            total_bytes: 0,
            fetches: 0,
            busy: SimDuration::ZERO,
        }
    }

    /// Fetch `bytes` from the origin at `now`; returns the time the bytes
    /// are fully available at the edge (service completion + delay).
    pub fn fetch(&mut self, now: SimTime, bytes: u64) -> SimTime {
        let start = now.max(self.busy_until);
        let service = SimDuration::from_secs_f64(bytes as f64 * 8.0 / self.rate_bps);
        let done = start + service;
        self.busy_until = done;
        self.total_bytes += bytes;
        self.fetches += 1;
        self.busy += service;
        done + self.delay
    }

    /// Total bytes fetched so far.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Total fetches so far.
    pub fn fetches(&self) -> u64 {
        self.fetches
    }

    /// Cumulative service (busy) time, seconds — divided by the run's
    /// duration this is the origin's load.
    pub fn busy_s(&self) -> f64 {
        self.busy.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fetches_serialize_in_fifo_order() {
        // 8 Mbit/s, 10 ms delay: 1 MB takes 1 s of service.
        let mut o = OriginLink::new(8.0, SimDuration::from_millis(10));
        let t0 = SimTime::from_secs_f64(5.0);
        let a = o.fetch(t0, 1_000_000);
        assert!((a.as_secs_f64() - 6.01).abs() < 1e-6, "{a:?}");
        // A concurrent fetch queues behind the first.
        let b = o.fetch(t0, 1_000_000);
        assert!((b.as_secs_f64() - 7.01).abs() < 1e-6, "{b:?}");
        // A later fetch after the link idles starts fresh.
        let c = o.fetch(SimTime::from_secs_f64(100.0), 1_000_000);
        assert!((c.as_secs_f64() - 101.01).abs() < 1e-6, "{c:?}");
        assert_eq!(o.total_bytes(), 3_000_000);
        assert_eq!(o.fetches(), 3);
        assert!((o.busy_s() - 3.0).abs() < 1e-6);
    }
}
