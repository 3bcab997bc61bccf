//! # jbits — a JBits-class configuration substrate for the simulated
//! Virtex device
//!
//! JBits \[1\] is the bit-level Java interface to Xilinx configuration
//! bitstreams on which JRoute is built: it can set and read individual
//! configuration bits but performs no routing, no contention checking and
//! no net bookkeeping. This crate plays exactly that role for the
//! simulated device in [`virtex`]:
//!
//! * [`bitstream::Bitstream`] — per-tile PIP state and LUT contents, with
//!   physical-existence validation only;
//! * [`frame`] — column-granular configuration frames, the cost unit of
//!   partial run-time reconfiguration;
//! * [`readback`] — snapshots, diffs and the frames a diff changes (the
//!   BoardScope \[2\] substrate).
//!
//! Everything above this layer (auto-routing, ports, unrouting,
//! contention protection) lives in the `jroute` crate.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bitstream;
pub mod error;
pub mod frame;
pub mod readback;

pub use bitstream::{Bitstream, ConfigObserver, Pip};
pub use error::JBitsError;
pub use frame::{FrameAddr, FrameTracker};
pub use readback::{changed_frames, diff, snapshot, Change, Snapshot};
