//! The dense canonical-segment index space and its typed map.
//!
//! Routing state is a property of *canonical segments* ([`Segment`]), and
//! every hot router structure (occupancy, congestion, search scratch)
//! ultimately wants O(1) per-segment storage. The segment
//! space of a device is finite and known up front — `dims.tiles() *`
//! [`NUM_LOCAL_WIRES`] slots — so sparse `HashMap<Segment, _>` keying
//! costs hashing and probing for no benefit. This module is the shared
//! substrate those layers build on:
//!
//! * [`SegSpace`] — the bijection between canonical segments and dense
//!   indices, derived from the device geometry (the architecture class of
//!   paper §2/§5 is the only thing that knows which slots denote real
//!   wires);
//! * [`SegIdx`] — a typed dense index, so segment indices cannot be
//!   confused with tile indices or net ids;
//! * [`SegVec`] — a typed dense map `SegIdx -> T`.

use crate::geometry::Dims;
use crate::segment::Segment;
use crate::wire::NUM_LOCAL_WIRES;

/// Dense index of a canonical segment within a [`SegSpace`].
///
/// Only meaningful together with the space that produced it; indices from
/// different devices must not be mixed (debug builds catch out-of-range
/// use through slice bounds checks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SegIdx(pub u32);

impl SegIdx {
    /// The index as a `usize`, for slice addressing.
    #[inline]
    pub const fn as_usize(self) -> usize {
        self.0 as usize
    }
}

/// The dense canonical-segment index space of one device: a cheap,
/// copyable bijection `Segment <-> SegIdx` derived from [`Dims`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegSpace {
    dims: Dims,
}

impl SegSpace {
    /// Segment space of a `dims`-sized device.
    #[inline]
    pub const fn new(dims: Dims) -> Self {
        SegSpace { dims }
    }

    /// The device geometry this space is derived from.
    #[inline]
    pub const fn dims(self) -> Dims {
        self.dims
    }

    /// Number of slots (`dims.tiles() * NUM_LOCAL_WIRES`). Slots whose
    /// local name does not denote an existing canonical resource are
    /// simply never indexed.
    #[inline]
    pub const fn len(self) -> usize {
        self.dims.tiles() * NUM_LOCAL_WIRES
    }

    /// Whether the space has no slots (a zero-dimension device).
    #[inline]
    pub const fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// Dense index of a canonical segment.
    #[inline]
    pub fn index(self, seg: Segment) -> SegIdx {
        SegIdx(seg.index(self.dims) as u32)
    }

    /// Inverse of [`SegSpace::index`]. Only meaningful for indices
    /// produced from canonical segments of the same space.
    #[inline]
    pub fn segment(self, idx: SegIdx) -> Segment {
        Segment::from_index(idx.as_usize(), self.dims)
    }
}

/// A typed dense map `SegIdx -> T` over one [`SegSpace`].
#[derive(Debug, Clone)]
pub struct SegVec<T> {
    space: SegSpace,
    data: Vec<T>,
}

impl<T> SegVec<T> {
    /// Map with every slot set to `fill`.
    pub fn new(space: SegSpace, fill: T) -> Self
    where
        T: Clone,
    {
        SegVec {
            space,
            data: vec![fill; space.len()],
        }
    }

    /// The space this map covers.
    #[inline]
    pub fn space(&self) -> SegSpace {
        self.space
    }

    /// Number of slots.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the map has no slots.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Iterate all slots as `(SegIdx, &T)`.
    pub fn iter(&self) -> impl Iterator<Item = (SegIdx, &T)> {
        self.data
            .iter()
            .enumerate()
            .map(|(i, v)| (SegIdx(i as u32), v))
    }

    /// Overwrite every slot with `value`.
    pub fn fill(&mut self, value: T)
    where
        T: Clone,
    {
        self.data.fill(value);
    }
}

impl<T> std::ops::Index<SegIdx> for SegVec<T> {
    type Output = T;

    #[inline]
    fn index(&self, idx: SegIdx) -> &T {
        &self.data[idx.as_usize()]
    }
}

impl<T> std::ops::IndexMut<SegIdx> for SegVec<T> {
    #[inline]
    fn index_mut(&mut self, idx: SegIdx) -> &mut T {
        &mut self.data[idx.as_usize()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::{Dir, RowCol};
    use crate::segment::canonicalize;
    use crate::wire;

    const DIMS: Dims = Dims::new(16, 24);

    #[test]
    fn segspace_round_trips_canonical_segments() {
        let space = SegSpace::new(DIMS);
        assert_eq!(space.len(), DIMS.tiles() * NUM_LOCAL_WIRES);
        for (rc, w) in [
            (RowCol::new(0, 0), wire::out(0)),
            (RowCol::new(5, 7), wire::S1_YQ),
            (RowCol::new(9, 0), wire::hex(Dir::North, 11)),
            (RowCol::new(15, 23), wire::feedback(7)),
        ] {
            let seg = canonicalize(DIMS, rc, w).unwrap();
            let idx = space.index(seg);
            assert!(idx.as_usize() < space.len());
            assert_eq!(space.segment(idx), seg);
        }
    }

    #[test]
    fn segspace_index_agrees_with_segment_index() {
        let space = SegSpace::new(DIMS);
        let seg = canonicalize(DIMS, RowCol::new(3, 4), wire::single(Dir::East, 2)).unwrap();
        assert_eq!(space.index(seg).as_usize(), seg.index(DIMS));
    }

    #[test]
    fn segvec_indexes_and_iterates() {
        let space = SegSpace::new(Dims::new(2, 2));
        let mut v: SegVec<u32> = SegVec::new(space, 0);
        assert_eq!(v.len(), space.len());
        let idx = SegIdx(7);
        v[idx] = 42;
        assert_eq!(v[idx], 42);
        let nonzero: Vec<(SegIdx, u32)> = v
            .iter()
            .filter(|(_, &x)| x != 0)
            .map(|(i, &x)| (i, x))
            .collect();
        assert_eq!(nonzero, vec![(idx, 42)]);
        v.fill(1);
        assert_eq!(v[idx], 1);
    }
}
