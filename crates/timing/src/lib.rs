//! # jroute-timing — delay model, skew analysis and timing-driven routing
//!
//! The paper flags two timing gaps in its initial implementation: the
//! greedy fan-out router *"is not timing driven ... suitable only for
//! non-critical nets"* (§3.1), and *"skew minimization will be
//! addressed"* (§6). This crate supplies the missing pieces for the
//! reproduction's E13 experiment:
//!
//! * [`delay`] — a per-wire-class delay model (Elmore-flavoured, in ps);
//! * [`analysis`] — per-sink arrival times, critical delay and skew of a
//!   routed net, computed from readback;
//! * [`driven`] — a timing-driven fan-out router built on the public
//!   JRoute API, for critical nets.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analysis;
pub mod delay;
pub mod driven;

pub use analysis::{analyze_net, NetTiming};
pub use delay::{delay_units, wire_delay_ps, PIP_DELAY_PS, PS_PER_COST};
pub use driven::route_fanout_timing_driven;
