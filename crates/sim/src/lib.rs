//! Deterministic discrete-event simulation kernel.
//!
//! The Chaos reproduction runs the *real* distributed protocol (chunk
//! requests, steal proposals, accumulator merges, barriers) between actors,
//! but on a virtual clock instead of a physical cluster. This crate provides
//! the minimal kernel for that: a time-ordered event queue, a deterministic
//! pseudo-random number generator, FIFO rate-server resources that model
//! storage devices / NICs / CPUs, and small statistics helpers.
//!
//! Design notes:
//! - The kernel is single-threaded and fully deterministic: a simulation is a
//!   pure function of its configuration and RNG seed. This is what lets the
//!   test suite assert bit-for-bit reproducibility of both results *and*
//!   simulated completion times.
//! - Events carry a user-defined message type `M`; routing to actors is left
//!   to the embedding crate (`chaos-core`), which keeps this kernel free of
//!   trait objects and generic actor plumbing.

pub mod queue;
pub mod rng;
pub mod stats;
pub mod time;

pub use queue::{EventQueue, Scheduled};
pub use rng::Rng;
pub use stats::{OnlineStats, RateMeter};
pub use time::{Resource, Time, GIB, KIB, MIB, MILLIS, MICROS, NANOS, SECS};
