//! Router errors.
//!
//! The paper's contract (§3.4): *"An exception is thrown in cases where
//! the user tries to make connections that create contention."* Rust
//! surfaces the same conditions as `Result`s.

use jbits::JBitsError;
use virtex::{RowCol, Segment, Wire};

/// Identifier of a routed net inside a [`crate::router::Router`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(pub u32);

/// Errors returned by the JRoute API.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // variant fields are named self-describingly
pub enum RouteError {
    /// The connection would drive a wire that is already driven — the
    /// contention the router exists to prevent (paper §3.4).
    Contention {
        /// The segment that would be doubly driven.
        segment: Segment,
        /// Net currently owning the segment, when the router knows it.
        owner: Option<NetId>,
    },
    /// A resource on the requested path is already in use by another net.
    ResourceInUse {
        segment: Segment,
        owner: Option<NetId>,
    },
    /// The low-level configuration layer rejected the operation.
    JBits(JBitsError),
    /// Two consecutive path wires cannot be connected anywhere the first
    /// is visible.
    PathDisconnected { at: RowCol, from: Wire, to: Wire },
    /// The template router exhausted all combinations: *"The call would
    /// fail if there is no combination of resources that are available
    /// that follow the template."* (§3.1)
    TemplateExhausted,
    /// A template walk would leave the device.
    TemplateOffChip,
    /// The auto-router found no path from source to sink.
    Unroutable { from: Segment, to: Segment },
    /// An endpoint referenced a port that is not bound to any pins.
    UnboundPort { port: u32 },
    /// An endpoint resolved to no pins at all.
    EmptyEndpoint,
    /// Bus routing requires equally many sources and sinks (§3.1).
    BusWidthMismatch { sources: usize, sinks: usize },
    /// No net is rooted at / reaches the given segment.
    NoSuchNet { segment: Segment },
    /// The named wire does not exist at that tile.
    NoSuchWire { rc: RowCol, wire: Wire },
    /// A source endpoint must be a drivable wire (a logic output or an
    /// already-driven segment).
    NotASource { segment: Segment },
    /// A negotiated result still overuses `overused` segments, so
    /// configuring it would create contention.
    IllegalResult { overused: usize },
}

impl From<JBitsError> for RouteError {
    fn from(e: JBitsError) -> Self {
        RouteError::JBits(e)
    }
}

impl std::fmt::Display for RouteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouteError::Contention { segment, owner } => {
                write!(f, "contention on {segment}")?;
                if let Some(o) = owner {
                    write!(f, " (owned by net {})", o.0)?;
                }
                Ok(())
            }
            RouteError::ResourceInUse { segment, .. } => {
                write!(f, "resource {segment} is already in use")
            }
            RouteError::JBits(e) => write!(f, "configuration error: {e}"),
            RouteError::PathDisconnected { at, from, to } => {
                write!(
                    f,
                    "path break at {at}: {} cannot reach {}",
                    from.name(),
                    to.name()
                )
            }
            RouteError::TemplateExhausted => {
                f.write_str("no available resource combination follows the template")
            }
            RouteError::TemplateOffChip => f.write_str("template walks off the device"),
            RouteError::Unroutable { from, to } => {
                write!(f, "no route from {from} to {to}")
            }
            RouteError::UnboundPort { port } => write!(f, "port {port} is not bound to pins"),
            RouteError::EmptyEndpoint => f.write_str("endpoint resolves to no pins"),
            RouteError::BusWidthMismatch { sources, sinks } => {
                write!(f, "bus width mismatch: {sources} sources vs {sinks} sinks")
            }
            RouteError::NoSuchNet { segment } => write!(f, "no net at {segment}"),
            RouteError::NoSuchWire { rc, wire } => {
                write!(f, "wire {} does not exist at {rc}", wire.name())
            }
            RouteError::NotASource { segment } => {
                write!(f, "{segment} is not a drivable source")
            }
            RouteError::IllegalResult { overused } => {
                write!(f, "result is not legal: {overused} segments overused")
            }
        }
    }
}

impl std::error::Error for RouteError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RouteError::JBits(e) => Some(e),
            _ => None,
        }
    }
}

/// Convenience result alias for router operations.
pub type Result<T> = std::result::Result<T, RouteError>;

#[cfg(test)]
mod tests {
    use super::*;
    use virtex::wire;

    #[test]
    fn errors_display_usefully() {
        let seg = Segment {
            rc: RowCol::new(1, 2),
            wire: wire::out(3),
        };
        let e = RouteError::Contention {
            segment: seg,
            owner: Some(NetId(7)),
        };
        let s = e.to_string();
        assert!(s.contains("contention") && s.contains("net 7"), "{s}");
        let e = RouteError::BusWidthMismatch {
            sources: 8,
            sinks: 4,
        };
        assert!(e.to_string().contains("8 sources vs 4 sinks"));
    }

    #[test]
    fn jbits_errors_convert() {
        let e: RouteError = JBitsError::BadTile {
            rc: RowCol::new(0, 0),
        }
        .into();
        assert!(matches!(e, RouteError::JBits(_)));
        assert!(std::error::Error::source(&e).is_some());
    }
}
