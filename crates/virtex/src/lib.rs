//! # virtex — a simulated Virtex-class FPGA routing fabric
//!
//! This crate is the *architecture substrate* of the JRoute reproduction:
//! the paper's "architecture description class" (§3) plus the device
//! geometry of §2, implemented as a simulator. It knows nothing about
//! routing algorithms or configuration state; it only answers structural
//! questions:
//!
//! * what wires exist at a tile ([`wire`], [`segment::wire_exists`]);
//! * which physical segment a local name refers to ([`segment`]);
//! * which wire can drive which other wire through a GRM PIP
//!   ([`arch::Arch`]), and each segment's PIP edges listed once per
//!   geometry ([`interconnect`]);
//! * how wires classify into template values ([`template`]);
//! * the Virtex family table ([`family::Family`]).
//!
//! The real Virtex bit-level data is proprietary; see `DESIGN.md` for the
//! substitution argument (the published topology and drive rules from the
//! paper's §2 are preserved exactly; GRM fan-out patterns are synthetic
//! but deterministic and of the real sparsity).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod arch;
pub mod codec;
pub mod delay;
pub mod device;
pub mod family;
pub mod geometry;
pub mod interconnect;
pub mod lookahead;
pub mod segment;
pub mod segspace;
pub mod template;
pub mod wire;

pub use arch::Arch;
pub use codec::Codec;
pub use device::Device;
pub use family::Family;
pub use geometry::{BBox, Dims, Dir, RowCol};
pub use interconnect::{Edge, Interconnect};
pub use lookahead::{CostModel, Lookahead};
pub use segment::{Segment, Tap};
pub use segspace::{SegIdx, SegSpace, SegVec};
pub use template::{template_value, TemplateValue};
pub use wire::{Wire, WireKind};
