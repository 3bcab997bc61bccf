//! # jroute-cores — run-time parameterizable cores over the JRoute API
//!
//! The paper's §3.2/§4 story: with ports and auto-routing, *"a user can
//! create designs without knowledge of the routing architecture by using
//! port to port connections. The user only really needs a small set of
//! architecture-specific cores to start with."* This crate is that small
//! set:
//!
//! * [`StimulusBank`] — drivable outputs standing in for IOBs;
//! * [`ConstAdder`] — `a + K`, carry rippled through general routing;
//! * [`Counter`] — the paper's §4 example (constant adder + feedback);
//! * [`ConstMultiplier`] — the §3.3 replaceable constant multiplier
//!   (LUT-based distributed arithmetic);
//! * [`Register`] — a D register bank.
//!
//! Each core states its configuration once, as a [`Design`]: LUT
//! contents plus a [`Wiring`] (LUT sites, fixed PIPs, internal nets and
//! port targets), computed from its parameters without a `Router`.
//! [`RtpCore::implement`] applies it; a second `implement` on a placed
//! core configures nothing new.
//!
//! Plus the RTR verbs of §3.3. [`replace_with`] applies a change and
//! compares the core's wiring with what is on the device:
//!
//! * equal wiring (a new constant): only `implement` runs, which
//!   rewrites the LUT masks that changed and keeps every route;
//! * changed wiring (a move): detach → remove → `implement`, i.e.
//!   unroute → rebind → automatic reconnection.
//!
//! [`relocate`] is a `replace_with` whose change moves the origin.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod accumulator;
pub mod adder;
pub mod core_trait;
pub mod counter;
pub mod floorplan;
pub mod lfsr;
pub mod multiplier;
pub mod register;
pub mod stimulus;
pub mod util;

pub use accumulator::Accumulator;
pub use adder::ConstAdder;
pub use core_trait::{detach, relocate, replace_with, CoreState, Design, RtpCore, Wiring};
pub use counter::Counter;
pub use floorplan::{Floorplan, Region, RegionId};
pub use lfsr::Lfsr;
pub use multiplier::{ConstMultiplier, IN_WIDTH};
pub use register::Register;
pub use stimulus::StimulusBank;
