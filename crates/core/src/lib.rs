//! # jroute — a run-time routing API for (simulated) Virtex FPGA hardware
//!
//! A Rust reproduction of *JRoute: A Run-Time Routing API for FPGA
//! Hardware* (Eric Keller, IPPS 2000). JRoute layers automated,
//! contention-protected routing over a JBits-class bit-level
//! configuration interface, with *various levels of control* (§3.1):
//!
//! 1. single PIPs — [`Router::route_pip`];
//! 2. explicit [`Path`]s — [`Router::route_path`];
//! 3. [`Template`]s (direction/resource classes) —
//!    [`Router::route_template`];
//! 4. auto point-to-point — [`Router::route`];
//! 5. auto fan-out with tree reuse — [`Router::route_fanout`];
//! 6. bus routing — [`Router::route_bus`];
//!
//! plus ports for core-based design (§3.2), forward/reverse unrouting for
//! run-time reconfiguration (§3.3), contention protection (§3.4) and
//! trace-based debugging (§3.5).
//!
//! ```
//! use jroute::{Router, Pin, EndPoint};
//! use virtex::{wire, Device, Family};
//!
//! let device = Device::new(Family::Xcv50);
//! let mut router = Router::new(&device);
//! let src: EndPoint = Pin::new(5, 7, wire::S1_YQ).into();
//! let sink: EndPoint = Pin::new(6, 8, wire::S0_F3).into();
//! router.route(&src, &sink).unwrap();
//! assert_eq!(router.trace(&src).unwrap().sinks.len(), 1);
//! router.unroute(&src).unwrap();
//! assert_eq!(router.bits().on_pip_count(), 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod dial;
pub mod endpoint;
pub mod error;
pub mod maze;
pub mod net;
pub mod parallel;
pub mod partition;
pub mod path;
pub mod pathfinder;
pub mod ports;
pub mod router;
pub mod schedule;
pub mod stats;
pub mod steiner;
pub mod template;
pub mod templates_db;
pub mod trace;
pub mod unroute;

pub use endpoint::{EndPoint, Pin, PortId};
pub use error::{NetId, Result, RouteError};
pub use jroute_obs as obs;
pub use jroute_obs::Recorder;
pub use net::{Net, NetDb};
pub use partition::{ScratchPool, SearchBox, WavePlan};
pub use path::Path;
pub use ports::{Port, PortDb, PortDir};
pub use router::{Remembered, Router, RouterOptions};
pub use schedule::WaveExec;
pub use stats::{ResourceUsage, RouterStats};
pub use steiner::SteinerTree;
pub use template::Template;
pub use trace::TracedNet;
