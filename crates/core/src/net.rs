//! Net bookkeeping: which segments belong to which net.
//!
//! The router records every net it creates so that it can avoid
//! contention (§3.4), unroute (§3.3) and answer `is_on` queries without
//! rescanning the bitstream. The invariant maintained throughout is
//! **single-driver**: every canonical segment has at most one on-PIP
//! driving it, and belongs to at most one net.

use crate::endpoint::Pin;
use crate::error::{NetId, Result, RouteError};
use jbits::Pip;
use std::collections::HashMap;
use virtex::{segment, RowCol, SegIdx, SegSpace, SegVec, Segment};

/// One routed net: a source, the PIPs configured for it, and its sinks.
#[derive(Debug, Clone)]
pub struct Net {
    /// Identifier within the owning router.
    pub id: NetId,
    /// Canonical segment of the net's source.
    pub source: Segment,
    /// The source as the user named it.
    pub source_pin: Pin,
    /// Every PIP configured for this net, in configuration order.
    pub pips: Vec<(RowCol, Pip)>,
    /// Sink pins the router was asked to reach (auto-routing calls record
    /// these; manual PIP calls do not know the intent).
    pub sinks: Vec<Pin>,
    /// Endpoint-level connection intents (`route(src, sink)` calls) that
    /// produced this net. Kept so port connections can be *"removed, but
    /// remembered"* across an unroute (paper §3.3).
    pub intents: Vec<(crate::endpoint::EndPoint, crate::endpoint::EndPoint)>,
}

impl Net {
    /// Number of routing-resource segments the net occupies (source plus
    /// one per driving PIP).
    pub fn segment_count(&self) -> usize {
        1 + self.pips.len()
    }
}

/// A dense `Option<NetId>` map stored as `NetId + 1` words (0 = none), so
/// a fresh map is one zeroed allocation that the OS hands out lazily:
/// creating a database costs nothing per segment, and memory is touched
/// only where nets are.
///
/// A one-bit-per-segment mirror (512 segments per cache line) answers
/// the common "free" case of the maze's blocked checks without touching
/// the word table, which is megabytes on the larger family members and
/// would miss cache on nearly every probe.
#[derive(Debug)]
struct NetSlots {
    words: SegVec<u32>,
    /// `bits[i / 64] & (1 << (i % 64))` mirrors `words[i] != 0`.
    bits: Vec<u64>,
}

impl NetSlots {
    fn new(space: SegSpace) -> Self {
        NetSlots {
            words: SegVec::new(space, 0),
            bits: vec![0; space.len().div_ceil(64)],
        }
    }

    #[inline]
    fn get(&self, idx: SegIdx) -> Option<NetId> {
        let i = idx.as_usize();
        if self.bits[i / 64] & (1 << (i % 64)) == 0 {
            return None;
        }
        self.words[idx].checked_sub(1).map(NetId)
    }

    /// Every set slot in index order. Walks the bitmap a word at a
    /// time, skipping empty words, and reads the word table only at set
    /// bits, so the cost follows occupancy rather than device size.
    fn iter(&self) -> impl Iterator<Item = (SegIdx, NetId)> + '_ {
        self.bits
            .iter()
            .enumerate()
            .filter(|&(_, &w)| w != 0)
            .flat_map(move |(k, &w)| {
                let mut rest = w;
                std::iter::from_fn(move || {
                    let bit = rest.trailing_zeros();
                    rest &= rest.wrapping_sub(1);
                    (bit < 64).then(|| SegIdx(k as u32 * 64 + bit))
                })
            })
            .filter_map(move |idx| self.words[idx].checked_sub(1).map(|id| (idx, NetId(id))))
    }

    #[inline]
    fn set(&mut self, idx: SegIdx, id: Option<NetId>) {
        let (i, bit) = (idx.as_usize(), 1u64 << (idx.as_usize() % 64));
        match id {
            Some(id) => {
                self.words[idx] = id.0 + 1;
                self.bits[i / 64] |= bit;
            }
            None => {
                self.words[idx] = 0;
                self.bits[i / 64] &= !bit;
            }
        }
    }
}

/// The net database: nets, their resources, and global segment ownership.
///
/// Ownership is stored densely over the device's [`SegSpace`]: `owner` /
/// `is_used` are O(1) array reads on the maze router's hot blocked-check
/// path, and releasing a net touches only the segments it owned.
///
/// A net owns its source segment for its whole life, so "which net is
/// rooted here?" is the owner of the segment, kept when that net's
/// recorded source is the segment itself.
#[derive(Debug)]
pub struct NetDb {
    nets: HashMap<NetId, Net>,
    /// Segment -> owning net. Set for the source segment and for the
    /// target segment of every net PIP.
    occ: NetSlots,
    /// Number of `Some` slots in `occ` (kept so `used_segments` stays
    /// O(1)).
    used: usize,
    next: u32,
}

impl NetDb {
    /// Empty net database over the segment space of one device.
    pub fn new(space: SegSpace) -> Self {
        NetDb {
            nets: HashMap::new(),
            occ: NetSlots::new(space),
            used: 0,
            next: 0,
        }
    }

    /// The segment space this database covers.
    #[inline]
    pub fn space(&self) -> SegSpace {
        self.occ.words.space()
    }

    /// Net that owns `seg`, if any.
    #[inline]
    pub fn owner(&self, seg: Segment) -> Option<NetId> {
        self.occ.get(self.space().index(seg))
    }

    /// Whether `seg` is currently used by any net.
    #[inline]
    pub fn is_used(&self, seg: Segment) -> bool {
        self.owner(seg).is_some()
    }

    /// Net rooted at source segment `seg`.
    #[inline]
    pub fn net_at_source(&self, seg: Segment) -> Option<NetId> {
        self.owner(seg)
            .filter(|id| self.nets.get(id).is_some_and(|n| n.source == seg))
    }

    /// Look up a net.
    #[inline]
    pub fn net(&self, id: NetId) -> Option<&Net> {
        self.nets.get(&id)
    }

    /// Iterate all nets.
    pub fn iter(&self) -> impl Iterator<Item = &Net> {
        self.nets.values()
    }

    /// Number of live nets.
    pub fn len(&self) -> usize {
        self.nets.len()
    }

    /// Whether no nets exist.
    pub fn is_empty(&self) -> bool {
        self.nets.is_empty()
    }

    /// Create a net rooted at `source` (canonical `seg`). Fails with
    /// [`RouteError::ResourceInUse`] if the source segment belongs to
    /// another net — use [`NetDb::net_at_source`] to extend instead.
    pub fn create(&mut self, source_pin: Pin, seg: Segment) -> Result<NetId> {
        if let Some(owner) = self.owner(seg) {
            // Rooting a second net at the same source is a user error;
            // extending the existing net is the supported operation.
            return Err(RouteError::ResourceInUse {
                segment: seg,
                owner: Some(owner),
            });
        }
        let id = NetId(self.next);
        self.next += 1;
        self.nets.insert(
            id,
            Net {
                id,
                source: seg,
                source_pin,
                pips: Vec::new(),
                sinks: Vec::new(),
                intents: Vec::new(),
            },
        );
        self.occupy(seg, id);
        Ok(id)
    }

    /// Record a PIP configured for net `id`, claiming the PIP's target
    /// segment. Fails if the target belongs to a different net.
    ///
    /// `target` must be the canonical segment of `(rc, pip.to)` — the
    /// caller has usually just canonicalized it to check drive legality,
    /// so it is passed in rather than re-derived.
    pub fn add_pip(&mut self, id: NetId, rc: RowCol, pip: Pip, target: Segment) -> Result<()> {
        debug_assert_eq!(
            segment::canonicalize(self.space().dims(), rc, pip.to),
            Some(target),
            "add_pip target must canonicalize from (rc, pip.to)"
        );
        match self.owner(target) {
            Some(owner) if owner != id => {
                return Err(RouteError::Contention {
                    segment: target,
                    owner: Some(owner),
                })
            }
            _ => {}
        }
        let net = self.nets.get_mut(&id).expect("add_pip on dead net");
        // Re-claiming an existing PIP of the same net (e.g. a template
        // walk sharing a prefix with an earlier branch) must not create a
        // duplicate record, or unroute accounting would double-count.
        if !net.pips.iter().any(|&(r, p)| r == rc && p == pip) {
            net.pips.push((rc, pip));
        }
        self.occupy(target, id);
        Ok(())
    }

    /// Record an endpoint-level connection intent on net `id` (port
    /// memory, §3.3).
    pub fn add_intent(
        &mut self,
        id: NetId,
        src: crate::endpoint::EndPoint,
        sink: crate::endpoint::EndPoint,
    ) {
        if let Some(net) = self.nets.get_mut(&id) {
            if !net.intents.contains(&(src, sink)) {
                net.intents.push((src, sink));
            }
        }
    }

    /// Record an intended sink of net `id`.
    pub fn add_sink(&mut self, id: NetId, sink: Pin) {
        if let Some(net) = self.nets.get_mut(&id) {
            if !net.sinks.contains(&sink) {
                net.sinks.push(sink);
            }
        }
    }

    /// Remove one PIP from net `id`, releasing its target segment if the
    /// net still owns it and it is not the net's own source, which the
    /// net keeps until [`NetDb::remove_net`]. Returns `true` if the PIP
    /// was recorded for the net.
    pub fn remove_pip(&mut self, id: NetId, rc: RowCol, pip: Pip, target: Segment) -> bool {
        let Some(net) = self.nets.get_mut(&id) else {
            return false;
        };
        let Some(pos) = net.pips.iter().position(|&(r, p)| r == rc && p == pip) else {
            return false;
        };
        net.pips.remove(pos);
        if net.source != target {
            self.release_owned(target, id);
        }
        true
    }

    /// Remove a recorded sink from net `id` (used by branch unrouting).
    pub fn remove_sink(&mut self, id: NetId, sink: Pin) {
        if let Some(net) = self.nets.get_mut(&id) {
            net.sinks.retain(|s| *s != sink);
        }
    }

    /// Delete an entire net, releasing every segment it owned. Returns the
    /// net's PIPs so the caller can clear them from the bitstream.
    ///
    /// Cost is proportional to the net's own size (source + one release
    /// per PIP target), not to the number of segments in the database.
    pub fn remove_net(&mut self, id: NetId) -> Option<Net> {
        let net = self.nets.remove(&id)?;
        let space = self.space();
        self.release_owned(net.source, id);
        for &(rc, pip) in &net.pips {
            if let Some(target) = segment::canonicalize(space.dims(), rc, pip.to) {
                self.release_owned(target, id);
            }
        }
        Some(net)
    }

    /// Total segments currently owned across all nets (the paper's
    /// "routing resources used" metric for E3).
    pub fn used_segments(&self) -> usize {
        self.used
    }

    /// Iterate every owned segment as `(Segment, NetId)` in dense-index
    /// order — the census walk behind `stats::ResourceUsage`. It walks
    /// the occupancy bitmap, so its cost follows how much is routed, not
    /// the size of the device.
    pub fn iter_used(&self) -> impl Iterator<Item = (Segment, NetId)> + '_ {
        let space = self.space();
        self.occ
            .iter()
            .map(move |(idx, id)| (space.segment(idx), id))
    }

    /// Deterministically ordered census of every owned segment: the
    /// state-comparison key used by the service-layer stress tests
    /// (dense-index order, so two databases over the same space compare
    /// element-wise).
    pub fn census(&self) -> Vec<(Segment, NetId)> {
        self.iter_used().collect()
    }

    /// Mark `seg` owned by `id`.
    fn occupy(&mut self, seg: Segment, id: NetId) {
        let idx = self.space().index(seg);
        if self.occ.get(idx).is_none() {
            self.used += 1;
        }
        self.occ.set(idx, Some(id));
    }

    /// Release `seg` only if `id` owns it (two PIPs of one net may share a
    /// target; the second release must not clobber the accounting).
    fn release_owned(&mut self, seg: Segment, id: NetId) {
        let idx = self.space().index(seg);
        if self.occ.get(idx) == Some(id) {
            self.occ.set(idx, None);
            self.used -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use virtex::{wire, Dir};

    fn seg(r: u16, c: u16, w: virtex::Wire) -> Segment {
        Segment {
            rc: RowCol::new(r, c),
            wire: w,
        }
    }

    fn db() -> NetDb {
        NetDb::new(SegSpace::new(virtex::Dims::new(16, 24)))
    }

    #[test]
    fn create_claims_source_segment() {
        let mut db = db();
        let src = Pin::new(5, 7, wire::S1_YQ);
        let s = seg(5, 7, wire::S1_YQ);
        let id = db.create(src, s).unwrap();
        assert_eq!(db.owner(s), Some(id));
        assert_eq!(db.net_at_source(s), Some(id));
        assert!(db.is_used(s));
        // A second net at the same source is refused.
        let err = db.create(src, s).unwrap_err();
        assert!(matches!(err, RouteError::ResourceInUse { .. }));
    }

    #[test]
    fn add_pip_claims_target_and_conflicts_are_contention() {
        let mut db = db();
        let a = db
            .create(Pin::new(0, 0, wire::S0_YQ), seg(0, 0, wire::S0_YQ))
            .unwrap();
        let b = db
            .create(Pin::new(1, 0, wire::S1_YQ), seg(1, 0, wire::S1_YQ))
            .unwrap();
        let shared = seg(0, 0, wire::single(Dir::East, 3));
        let pip = Pip::new(wire::out(0), wire::single(Dir::East, 3));
        db.add_pip(a, RowCol::new(0, 0), pip, shared).unwrap();
        let err = db.add_pip(b, RowCol::new(0, 0), pip, shared).unwrap_err();
        assert!(matches!(err, RouteError::Contention { owner: Some(o), .. } if o == a));
        // Re-claiming by the same net is allowed (branch reuse).
        db.add_pip(a, RowCol::new(0, 0), pip, shared).unwrap();
    }

    #[test]
    fn remove_pip_releases_segment() {
        let mut db = db();
        let a = db
            .create(Pin::new(0, 0, wire::S0_YQ), seg(0, 0, wire::S0_YQ))
            .unwrap();
        let target = seg(0, 0, wire::out(3));
        let pip = Pip::new(wire::S0_YQ, wire::out(3));
        db.add_pip(a, RowCol::new(0, 0), pip, target).unwrap();
        assert!(db.is_used(target));
        assert!(db.remove_pip(a, RowCol::new(0, 0), pip, target));
        assert!(!db.is_used(target));
        assert!(
            !db.remove_pip(a, RowCol::new(0, 0), pip, target),
            "double remove"
        );
    }

    #[test]
    fn remove_pip_keeps_the_nets_own_source() {
        let mut db = db();
        let src = seg(0, 0, wire::S0_YQ);
        let a = db.create(Pin::new(0, 0, wire::S0_YQ), src).unwrap();
        let pip = Pip::new(wire::out(3), wire::S0_YQ);
        db.add_pip(a, RowCol::new(0, 0), pip, src).unwrap();
        assert!(db.remove_pip(a, RowCol::new(0, 0), pip, src));
        assert_eq!(db.net_at_source(src), Some(a));
        assert_eq!(db.used_segments(), 1);
    }

    #[test]
    fn remove_pip_leaves_a_target_another_net_claimed() {
        let mut db = db();
        let a = db
            .create(Pin::new(0, 0, wire::S0_YQ), seg(0, 0, wire::S0_YQ))
            .unwrap();
        let b = db
            .create(Pin::new(1, 0, wire::S1_YQ), seg(1, 0, wire::S1_YQ))
            .unwrap();
        // Two PIPs of `a` drive one segment; removing the first frees it.
        let shared = seg(0, 0, wire::single(Dir::East, 3));
        let rc = RowCol::new(0, 0);
        let p1 = Pip::new(wire::out(0), wire::single(Dir::East, 3));
        let p2 = Pip::new(wire::out(1), wire::single(Dir::East, 3));
        db.add_pip(a, rc, p1, shared).unwrap();
        db.add_pip(a, rc, p2, shared).unwrap();
        assert!(db.remove_pip(a, rc, p1, shared));
        db.add_pip(b, rc, p1, shared).unwrap();
        assert!(db.remove_pip(a, rc, p2, shared));
        assert_eq!(db.owner(shared), Some(b));
        assert_eq!(db.used_segments(), 3);
    }

    #[test]
    fn remove_net_releases_everything() {
        let mut db = db();
        let src = seg(0, 0, wire::S0_YQ);
        let a = db.create(Pin::new(0, 0, wire::S0_YQ), src).unwrap();
        let t1 = seg(0, 0, wire::out(3));
        let t2 = seg(0, 0, wire::single(Dir::East, 1));
        db.add_pip(
            a,
            RowCol::new(0, 0),
            Pip::new(wire::S0_YQ, wire::out(3)),
            t1,
        )
        .unwrap();
        db.add_pip(
            a,
            RowCol::new(0, 0),
            Pip::new(wire::out(3), wire::single(Dir::East, 1)),
            t2,
        )
        .unwrap();
        db.add_sink(a, Pin::new(0, 1, wire::S0_F3));
        assert_eq!(db.used_segments(), 3);
        let net = db.remove_net(a).unwrap();
        assert_eq!(net.pips.len(), 2);
        assert_eq!(net.sinks.len(), 1);
        assert_eq!(db.used_segments(), 0);
        assert!(db.is_empty());
        assert!(db.remove_net(a).is_none());
    }

    #[test]
    fn sinks_are_deduplicated() {
        let mut db = db();
        let a = db
            .create(Pin::new(0, 0, wire::S0_YQ), seg(0, 0, wire::S0_YQ))
            .unwrap();
        let sink = Pin::new(3, 3, wire::S0_F3);
        db.add_sink(a, sink);
        db.add_sink(a, sink);
        assert_eq!(db.net(a).unwrap().sinks.len(), 1);
        db.remove_sink(a, sink);
        assert!(db.net(a).unwrap().sinks.is_empty());
    }
}
