//! # vsim — device-level functional simulation of the configured fabric
//!
//! BoardScope \[2\] debugs run-time-reconfigured designs by reading state
//! back from live hardware. We have no hardware, so this crate supplies
//! the equivalent substrate: given a [`jbits::Bitstream`], it extracts
//! the logic netlist (who drives which CLB input, traced through the
//! routing) and simulates the configured LUTs and flip-flops cycle by
//! cycle. The core library's `trace` reports *connectivity*; `vsim`
//! reports *values* — together they reproduce the debugging story of
//! paper §3.5, and they let the core library's arithmetic cores be tested
//! functionally (a counter must actually count).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod netlist;
pub mod sim;

pub use netlist::{InputPin, LogicSource, Netlist};
pub use sim::{SimError, Simulator};
