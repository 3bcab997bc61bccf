//! Readback: snapshotting a live configuration and diffing snapshots.
//!
//! BoardScope \[2\] reads the configuration back from hardware to display
//! circuit state; our equivalent captures the simulated configuration.
//! Diffs are the basis of debugging (what changed?) and of verifying that
//! an unroute returned the device to its prior state.

use crate::bitstream::{Bitstream, Pip};
use crate::frame::{lut_frame, pip_frame, FrameAddr};
use std::collections::BTreeSet;
use virtex::{Dims, RowCol};

/// An immutable snapshot of a configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    dims: Dims,
    tiles: Vec<(Vec<Pip>, [u16; 4])>,
}

/// One difference between two snapshots.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // variant fields are named self-describingly
pub enum Change {
    /// PIP present in `after` but not `before`.
    PipAdded { rc: RowCol, pip: Pip },
    /// PIP present in `before` but not `after`.
    PipRemoved { rc: RowCol, pip: Pip },
    /// LUT value changed.
    LutChanged {
        rc: RowCol,
        slice: u8,
        lut: u8,
        before: u16,
        after: u16,
    },
}

impl Change {
    /// The configuration frame holding the changed bits.
    pub fn frame(&self) -> FrameAddr {
        match *self {
            Change::PipAdded { rc, pip } | Change::PipRemoved { rc, pip } => pip_frame(rc, pip.to),
            Change::LutChanged { rc, slice, lut, .. } => lut_frame(rc, slice, lut),
        }
    }
}

/// Capture the current configuration.
pub fn snapshot(bits: &Bitstream) -> Snapshot {
    Snapshot {
        dims: bits.device().dims(),
        tiles: bits
            .tiles()
            .iter()
            .map(|t| (t.pips.clone(), t.luts))
            .collect(),
    }
}

/// All changes needed to go from `before` to `after`.
///
/// Panics if the snapshots are from different device geometries.
pub fn diff(before: &Snapshot, after: &Snapshot) -> Vec<Change> {
    assert_eq!(before.dims, after.dims, "snapshots from different devices");
    let mut changes = Vec::new();
    for (idx, (b, a)) in before.tiles.iter().zip(&after.tiles).enumerate() {
        if b == a {
            continue;
        }
        let rc = before.dims.tile_at(idx);
        // Both PIP lists are sorted; merge-walk them.
        let (mut i, mut j) = (0, 0);
        let key = |p: &Pip| (p.to, p.from);
        while i < b.0.len() || j < a.0.len() {
            match (b.0.get(i), a.0.get(j)) {
                (Some(pb), Some(pa)) if key(pb) == key(pa) => {
                    i += 1;
                    j += 1;
                }
                (Some(pb), Some(pa)) if key(pb) < key(pa) => {
                    changes.push(Change::PipRemoved { rc, pip: *pb });
                    i += 1;
                }
                (Some(_), Some(pa)) => {
                    changes.push(Change::PipAdded { rc, pip: *pa });
                    j += 1;
                }
                (Some(pb), None) => {
                    changes.push(Change::PipRemoved { rc, pip: *pb });
                    i += 1;
                }
                (None, Some(pa)) => {
                    changes.push(Change::PipAdded { rc, pip: *pa });
                    j += 1;
                }
                (None, None) => unreachable!(),
            }
        }
        for slot in 0..4u8 {
            let (vb, va) = (b.1[slot as usize], a.1[slot as usize]);
            if vb != va {
                changes.push(Change::LutChanged {
                    rc,
                    slice: slot / 2,
                    lut: slot % 2,
                    before: vb,
                    after: va,
                });
            }
        }
    }
    changes
}

/// The frames whose bits differ between two snapshots: what a partial
/// reconfiguration from `before` to `after` has to rewrite. The
/// bitstream's [`crate::FrameTracker`] counts the frames a sequence of
/// writes *touched*; a PIP cleared and set again, or a LUT written
/// back, touches a frame without changing it.
pub fn changed_frames(before: &Snapshot, after: &Snapshot) -> BTreeSet<FrameAddr> {
    diff(before, after).iter().map(Change::frame).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use virtex::{wire, Device, Dir, Family};

    #[test]
    fn identical_snapshots_diff_empty() {
        let mut b = Bitstream::new(&Device::new(Family::Xcv50));
        b.set_pip(RowCol::new(5, 7), wire::S1_YQ, wire::out(1))
            .unwrap();
        let s1 = snapshot(&b);
        let s2 = snapshot(&b);
        assert_eq!(s1, s2);
        assert!(diff(&s1, &s2).is_empty());
    }

    #[test]
    fn diff_reports_adds_removes_and_luts() {
        let mut b = Bitstream::new(&Device::new(Family::Xcv50));
        let rc = RowCol::new(5, 7);
        b.set_pip(rc, wire::S1_YQ, wire::out(1)).unwrap();
        let before = snapshot(&b);

        b.clear_pip(rc, wire::S1_YQ, wire::out(1)).unwrap();
        b.set_pip(rc, wire::out(1), wire::single(Dir::East, 5))
            .unwrap();
        b.set_lut(rc, 1, 0, 0x00FF).unwrap();
        let after = snapshot(&b);

        let changes = diff(&before, &after);
        assert_eq!(changes.len(), 3);
        assert!(changes.contains(&Change::PipRemoved {
            rc,
            pip: Pip::new(wire::S1_YQ, wire::out(1))
        }));
        assert!(changes.contains(&Change::PipAdded {
            rc,
            pip: Pip::new(wire::out(1), wire::single(Dir::East, 5))
        }));
        assert!(changes.contains(&Change::LutChanged {
            rc,
            slice: 1,
            lut: 0,
            before: 0,
            after: 0x00FF
        }));
    }

    #[test]
    fn diff_is_antisymmetric() {
        let mut b = Bitstream::new(&Device::new(Family::Xcv50));
        let before = snapshot(&b);
        b.set_pip(RowCol::new(2, 2), wire::S0_YQ, wire::out(3))
            .unwrap();
        let after = snapshot(&b);
        let fwd = diff(&before, &after);
        let rev = diff(&after, &before);
        assert_eq!(fwd.len(), 1);
        assert_eq!(rev.len(), 1);
        assert!(matches!(fwd[0], Change::PipAdded { .. }));
        assert!(matches!(rev[0], Change::PipRemoved { .. }));
    }

    #[test]
    fn changed_frames_skip_bits_written_back() {
        let mut b = Bitstream::new(&Device::new(Family::Xcv50));
        let rc = RowCol::new(5, 7);
        b.set_pip(rc, wire::S1_YQ, wire::out(1)).unwrap();
        let before = snapshot(&b);
        b.frames_mut().take();

        // Cleared and set again: touched, unchanged.
        b.clear_pip(rc, wire::S1_YQ, wire::out(1)).unwrap();
        b.set_pip(rc, wire::S1_YQ, wire::out(1)).unwrap();
        b.set_lut(rc, 0, 1, 0x1234).unwrap();
        let after = snapshot(&b);

        let touched = b.frames_mut().take();
        let changed = changed_frames(&before, &after);
        let lut = lut_frame(rc, 0, 1);
        assert_eq!(changed.into_iter().collect::<Vec<_>>(), vec![lut]);
        assert_eq!(touched.len(), 2);
        assert!(touched.contains(&pip_frame(rc, wire::out(1))));
        assert!(changed_frames(&after, &after).is_empty());
    }
}
