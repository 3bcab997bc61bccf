//! The dense canonical-segment index space and its typed maps.
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
//! * [`SegVec`] — a typed dense map `SegIdx -> T`;
//! * [`StampedSegVec`] — the epoch-stamped variant whose `clear` is O(1),
//!   for per-search / per-iteration scratch that is reset far more often
//!   than it is fully written.

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

    /// Map with every slot produced by `f` (for non-`Clone` cell types
    /// such as atomics).
    pub fn from_fn(space: SegSpace, f: impl FnMut() -> T) -> Self {
        let mut f = f;
        SegVec {
            space,
            data: (0..space.len()).map(|_| f()).collect(),
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

/// A dense map with O(1) bulk reset: each slot carries an epoch stamp,
/// and [`StampedSegVec::clear`] just bumps the epoch, invalidating every
/// slot at once. The map this replaces would be cleared with an O(n)
/// `fill` (or reallocated) before every search / iteration.
#[derive(Debug, Clone)]
pub struct StampedSegVec<T> {
    space: SegSpace,
    epoch: u32,
    stamp: Vec<u32>,
    data: Vec<T>,
}

impl<T: Copy + Default> StampedSegVec<T> {
    /// Empty map over `space` (every slot unset).
    pub fn new(space: SegSpace) -> Self {
        StampedSegVec {
            space,
            epoch: 1,
            stamp: vec![0; space.len()],
            data: vec![T::default(); space.len()],
        }
    }

    /// The space this map covers.
    #[inline]
    pub fn space(&self) -> SegSpace {
        self.space
    }

    /// Unset every slot in O(1) (amortised: a full `stamp` rewrite only
    /// on epoch wrap-around, once per `u32::MAX` clears).
    #[inline]
    pub fn clear(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.fill(0);
            self.epoch = 1;
        }
    }

    /// Whether `idx` holds a value set since the last [`clear`].
    ///
    /// [`clear`]: StampedSegVec::clear
    #[inline]
    pub fn is_set(&self, idx: SegIdx) -> bool {
        self.stamp[idx.as_usize()] == self.epoch
    }

    /// Value at `idx`, if set this epoch.
    #[inline]
    pub fn get(&self, idx: SegIdx) -> Option<T> {
        if self.is_set(idx) {
            Some(self.data[idx.as_usize()])
        } else {
            None
        }
    }

    /// Set `idx` to `value`.
    #[inline]
    pub fn set(&mut self, idx: SegIdx, value: T) {
        self.stamp[idx.as_usize()] = self.epoch;
        self.data[idx.as_usize()] = value;
    }

    /// Set `idx` only if unset this epoch; returns whether it was newly
    /// set (the building block for dedup-marker use).
    #[inline]
    pub fn set_once(&mut self, idx: SegIdx, value: T) -> bool {
        if self.is_set(idx) {
            false
        } else {
            self.set(idx, value);
            true
        }
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

    #[test]
    fn segvec_from_fn_supports_non_clone_cells() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let space = SegSpace::new(Dims::new(1, 2));
        let v: SegVec<AtomicU32> = SegVec::from_fn(space, || AtomicU32::new(u32::MAX));
        assert_eq!(v[SegIdx(3)].load(Ordering::Relaxed), u32::MAX);
        v[SegIdx(3)].store(9, Ordering::Relaxed);
        assert_eq!(v[SegIdx(3)].load(Ordering::Relaxed), 9);
    }

    #[test]
    fn stamped_segvec_clears_in_o1() {
        let space = SegSpace::new(Dims::new(1, 1));
        let mut v: StampedSegVec<u32> = StampedSegVec::new(space);
        let idx = SegIdx(5);
        assert!(!v.is_set(idx));
        assert_eq!(v.get(idx), None);
        v.set(idx, 3);
        assert_eq!(v.get(idx), Some(3));
        v.clear();
        assert!(!v.is_set(idx));
        assert_eq!(v.get(idx), None);
        v.set(idx, 4);
        assert_eq!(v.get(idx), Some(4));
    }

    #[test]
    fn stamped_segvec_set_once_dedups() {
        let space = SegSpace::new(Dims::new(1, 1));
        let mut v: StampedSegVec<()> = StampedSegVec::new(space);
        assert!(v.set_once(SegIdx(2), ()));
        assert!(!v.set_once(SegIdx(2), ()));
        v.clear();
        assert!(v.set_once(SegIdx(2), ()));
    }

    #[test]
    fn stamped_segvec_survives_epoch_wraparound() {
        let space = SegSpace::new(Dims::new(1, 1));
        let mut v: StampedSegVec<u8> = StampedSegVec::new(space);
        v.set(SegIdx(0), 1);
        // Force the wrap path directly rather than clearing 2^32 times.
        v.epoch = u32::MAX;
        v.clear();
        assert_eq!(v.epoch, 1);
        assert!(!v.is_set(SegIdx(0)), "stale stamps must not resurrect");
        v.set(SegIdx(0), 2);
        assert_eq!(v.get(SegIdx(0)), Some(2));
    }
}
