#![warn(missing_docs)]
//! # voxel-sim
//!
//! Deterministic discrete-event simulation (DES) engine underlying every
//! VOXEL experiment.
//!
//! The paper's testbed consists of bare-metal machines shaped with `tc`; we
//! reproduce it with a virtual-time simulator so that every experiment is
//! exactly repeatable from a seed. The engine is intentionally small:
//!
//! - [`SimTime`] / [`SimDuration`]: microsecond-resolution virtual time.
//! - [`EventQueue`]: a stable priority queue of timestamped events.
//! - [`rng`]: seeded, splittable random number generation so that independent
//!   subsystems (trace noise, cross-traffic, VBR sizes) never share streams.
//! - [`stats`]: percentile / mean / stderr helpers used by every figure.
//!
//! The engine is runtime-agnostic by design — the transport in `voxel-quic`
//! is written against these primitives but structured like an async
//! packet-processing loop, so it could be lifted onto real sockets.

pub mod clock;
pub mod event;
pub mod pool;
pub mod rng;
pub mod stats;

pub use clock::{SimDuration, SimTime};
pub use event::{EventQueue, ScheduledEvent};
pub use rng::SimRng;
