//! The device: a family member plus its architecture description.

use crate::arch::Arch;
use crate::family::Family;
use crate::geometry::{Dims, RowCol};
use crate::segment::{self, Segment};
use crate::segspace::SegSpace;
use crate::wire::{Wire, NUM_LOCAL_WIRES};

/// A (simulated) Virtex device: geometry plus architecture description.
///
/// Cheap to construct and copy; all connectivity is closed-form in
/// [`Arch`].
#[derive(Debug, Clone, Copy)]
pub struct Device {
    family: Family,
    arch: Arch,
}

impl Device {
    /// Create a device of the given family.
    pub fn new(family: Family) -> Self {
        Device {
            family,
            arch: Arch::new(family.dims()),
        }
    }

    #[inline]
    /// The family member this device belongs to.
    pub fn family(&self) -> Family {
        self.family
    }

    #[inline]
    /// CLB array dimensions.
    pub fn dims(&self) -> Dims {
        self.family.dims()
    }

    #[inline]
    /// The architecture description class (paper §3).
    pub fn arch(&self) -> &Arch {
        &self.arch
    }

    /// Size of the dense canonical-segment index space
    /// (`dims.tiles() * NUM_LOCAL_WIRES`); see [`Segment::index`].
    #[inline]
    pub fn segment_space(&self) -> usize {
        self.dims().tiles() * NUM_LOCAL_WIRES
    }

    /// The dense canonical-segment index space of this device; the
    /// substrate for [`SegVec`](crate::segspace::SegVec)-backed router
    /// state.
    #[inline]
    pub fn seg_space(&self) -> SegSpace {
        SegSpace::new(self.dims())
    }

    /// The precomputed distance-lookahead table for this device's
    /// geometry (built on first use, cached for the process lifetime —
    /// the heap-owning sibling of [`Device::seg_space`]).
    #[inline]
    pub fn lookahead(&self) -> &'static crate::lookahead::Lookahead {
        crate::lookahead::Lookahead::get(self.dims())
    }

    /// The interconnect table for this device's geometry: every canonical
    /// segment's PIP edges (built on first use together with
    /// [`Device::lookahead`], cached for the process lifetime).
    #[inline]
    pub fn interconnect(&self) -> &'static crate::interconnect::Interconnect {
        crate::interconnect::Interconnect::get(self.dims())
    }

    /// Resolve a local `(tile, wire)` name to its canonical segment.
    #[inline]
    pub fn canonicalize(&self, rc: RowCol, wire: Wire) -> Option<Segment> {
        segment::canonicalize(self.dims(), rc, wire)
    }

    /// Whether `wire` exists at `rc` on this device.
    #[inline]
    pub fn wire_exists(&self, rc: RowCol, wire: Wire) -> bool {
        segment::wire_exists(self.dims(), rc, wire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Dir;
    use crate::wire;

    #[test]
    fn device_exposes_family_geometry() {
        let dev = Device::new(Family::Xcv50);
        assert_eq!(dev.dims(), Dims::new(16, 24));
        assert_eq!(dev.family().name(), "XCV50");
        assert_eq!(dev.segment_space(), 16 * 24 * NUM_LOCAL_WIRES);
    }

    #[test]
    fn canonicalize_delegates() {
        let dev = Device::new(Family::Xcv50);
        let seg = dev
            .canonicalize(RowCol::new(5, 8), wire::single_end(Dir::East, 5))
            .unwrap();
        assert_eq!(seg.rc, RowCol::new(5, 7));
        assert!(dev.wire_exists(RowCol::new(5, 7), wire::single(Dir::East, 5)));
        assert!(!dev.wire_exists(RowCol::new(15, 0), wire::single(Dir::North, 0)));
    }
}
