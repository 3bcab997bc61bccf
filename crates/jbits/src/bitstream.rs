//! The configuration bitstream: per-tile PIP state and LUT contents.
//!
//! This is the JBits-class layer: a *manual*, bit-level interface to the
//! device configuration. It validates that a PIP physically exists (you
//! cannot set a bit the silicon doesn't have) but performs **no**
//! contention or routing checks — those belong to JRoute (paper §3.4).
//!
//! State is stored sparsely (per-tile sorted vectors of on-PIPs): real RTR
//! designs turn on a vanishing fraction of the millions of PIPs, and the
//! sparse form makes readback, diffing and tracing cheap.

use crate::error::JBitsError;
use crate::frame::{lut_frame, pip_frame, FrameTracker};
use std::sync::Arc;
use virtex::{Device, RowCol, Segment, Wire};

/// Observer hook for configuration writes.
///
/// JBits stays dependency-free, so instead of depending on an
/// observability crate the bitstream accepts an optional callback object;
/// higher layers (the `jroute` router's recorder) install one to count
/// PIP traffic. Callbacks fire only for writes that actually change a
/// bit, after the change is applied. With no observer installed the cost
/// is a branch on a `None`.
pub trait ConfigObserver: Send + Sync {
    /// A PIP transitioned off → on at `rc`.
    fn pip_set(&self, rc: RowCol, pip: Pip);
    /// A PIP transitioned on → off at `rc`.
    fn pip_cleared(&self, rc: RowCol, pip: Pip);
}

/// One programmable interconnect point at a tile: drive `to` from `from`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pip {
    /// Driving wire (local name).
    pub from: Wire,
    /// Driven wire (local name).
    pub to: Wire,
}

impl Pip {
    /// PIP driving `to` from `from`.
    #[inline]
    pub const fn new(from: Wire, to: Wire) -> Self {
        Pip { from, to }
    }
}

impl virtex::Codec for Pip {
    fn encode(&self, out: &mut Vec<u8>) {
        self.from.encode(out);
        self.to.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(Pip {
            from: Wire::decode(input)?,
            to: Wire::decode(input)?,
        })
    }
}

impl std::fmt::Display for Pip {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}->{}", self.from.name(), self.to.name())
    }
}

/// Per-tile configuration: on-PIPs (sorted) and LUT contents.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct TileConfig {
    /// Sorted by (to, from) so "who drives `to`" is a contiguous range.
    pub(crate) pips: Vec<Pip>,
    /// 16-bit LUT equations: [S0-F, S0-G, S1-F, S1-G].
    pub(crate) luts: [u16; 4],
}

impl TileConfig {
    #[inline]
    fn find(&self, pip: Pip) -> Result<usize, usize> {
        self.pips
            .binary_search_by(|p| (p.to, p.from).cmp(&(pip.to, pip.from)))
    }
}

/// The full device configuration.
pub struct Bitstream {
    device: Device,
    tiles: Vec<TileConfig>,
    frames: FrameTracker,
    on_pips: usize,
    observer: Option<Arc<dyn ConfigObserver>>,
}

impl Bitstream {
    /// A blank (erased) configuration for `device`.
    pub fn new(device: &Device) -> Self {
        Bitstream {
            device: *device,
            tiles: vec![TileConfig::default(); device.dims().tiles()],
            frames: FrameTracker::new(),
            on_pips: 0,
            observer: None,
        }
    }

    /// Install (or replace) the configuration-write observer. Pass
    /// `None` to detach.
    pub fn set_observer(&mut self, observer: Option<Arc<dyn ConfigObserver>>) {
        self.observer = observer;
    }

    /// Whether an observer is currently attached.
    pub fn has_observer(&self) -> bool {
        self.observer.is_some()
    }

    /// The device this configuration belongs to.
    #[inline]
    pub fn device(&self) -> &Device {
        &self.device
    }

    #[inline]
    fn tile(&self, rc: RowCol) -> Result<&TileConfig, JBitsError> {
        if !self.device.dims().contains(rc) {
            return Err(JBitsError::BadTile { rc });
        }
        Ok(&self.tiles[self.device.dims().tile_index(rc)])
    }

    fn validate_pip(&self, rc: RowCol, from: Wire, to: Wire) -> Result<(), JBitsError> {
        if !self.device.dims().contains(rc) {
            return Err(JBitsError::BadTile { rc });
        }
        if !self.device.wire_exists(rc, from) {
            return Err(JBitsError::NoSuchWire { rc, wire: from });
        }
        if !self.device.wire_exists(rc, to) {
            return Err(JBitsError::NoSuchWire { rc, wire: to });
        }
        if !self.device.arch().pip_exists(rc, from, to) {
            return Err(JBitsError::NoSuchPip { rc, from, to });
        }
        Ok(())
    }

    /// Turn a PIP on. Returns `true` if the bit changed.
    pub fn set_pip(&mut self, rc: RowCol, from: Wire, to: Wire) -> Result<bool, JBitsError> {
        self.validate_pip(rc, from, to)?;
        let idx = self.device.dims().tile_index(rc);
        let pip = Pip::new(from, to);
        match self.tiles[idx].find(pip) {
            Ok(_) => Ok(false),
            Err(pos) => {
                self.tiles[idx].pips.insert(pos, pip);
                self.frames.touch(pip_frame(rc, to));
                self.on_pips += 1;
                if let Some(o) = &self.observer {
                    o.pip_set(rc, pip);
                }
                Ok(true)
            }
        }
    }

    /// Turn a PIP off. Returns `true` if the bit changed.
    pub fn clear_pip(&mut self, rc: RowCol, from: Wire, to: Wire) -> Result<bool, JBitsError> {
        self.validate_pip(rc, from, to)?;
        let idx = self.device.dims().tile_index(rc);
        match self.tiles[idx].find(Pip::new(from, to)) {
            Ok(pos) => {
                self.tiles[idx].pips.remove(pos);
                self.frames.touch(pip_frame(rc, to));
                self.on_pips -= 1;
                if let Some(o) = &self.observer {
                    o.pip_cleared(rc, Pip::new(from, to));
                }
                Ok(true)
            }
            Err(_) => Ok(false),
        }
    }

    /// Whether the PIP is currently on.
    pub fn get_pip(&self, rc: RowCol, from: Wire, to: Wire) -> Result<bool, JBitsError> {
        self.validate_pip(rc, from, to)?;
        Ok(self.tile(rc)?.find(Pip::new(from, to)).is_ok())
    }

    /// All on-PIPs at a tile, sorted by (to, from).
    pub fn pips_at(&self, rc: RowCol) -> &[Pip] {
        match self.tile(rc) {
            Ok(t) => &t.pips,
            Err(_) => &[],
        }
    }

    /// On-PIPs at `rc` whose target is `to` (the drivers configured for
    /// that wire at that tile): a contiguous range of the sorted list.
    pub fn drivers_at(&self, rc: RowCol, to: Wire) -> impl Iterator<Item = Pip> + '_ {
        let pips = self.pips_at(rc);
        let lo = pips.partition_point(|p| p.to < to);
        let hi = lo + pips[lo..].partition_point(|p| p.to == to);
        pips[lo..hi].iter().copied()
    }

    /// Whether any on-PIP anywhere drives the canonical segment `seg`.
    ///
    /// Scans the segment's drive-in taps; used by `is_on`-style queries
    /// and by tracing (routers keep their own occupancy index for speed).
    pub fn is_segment_driven(&self, seg: Segment) -> bool {
        self.segment_driver(seg).is_some()
    }

    /// The PIP currently driving `seg`, if any. If several PIPs drive it
    /// (contention — JRoute prevents this, raw JBits writes may not), the
    /// first in tap order is returned.
    pub fn segment_driver(&self, seg: Segment) -> Option<(RowCol, Pip)> {
        self.segment_drivers(seg).next()
    }

    /// Every PIP currently driving `seg`, across all of its drive-in
    /// taps, in tap order. Allocates nothing.
    pub fn segment_drivers(&self, seg: Segment) -> impl Iterator<Item = (RowCol, Pip)> + '_ {
        self.device
            .arch()
            .drive_taps(seg)
            .flat_map(move |tap| self.drivers_at(tap.rc, tap.wire).map(move |p| (tap.rc, p)))
    }

    /// Set a LUT equation. `slice` in 0..2, `lut` 0 = F, 1 = G.
    pub fn set_lut(
        &mut self,
        rc: RowCol,
        slice: u8,
        lut: u8,
        value: u16,
    ) -> Result<(), JBitsError> {
        if !self.device.dims().contains(rc) {
            return Err(JBitsError::BadTile { rc });
        }
        if slice >= 2 || lut >= 2 {
            return Err(JBitsError::BadLut { slice, lut });
        }
        let idx = self.device.dims().tile_index(rc);
        let slot = (slice * 2 + lut) as usize;
        if self.tiles[idx].luts[slot] != value {
            self.tiles[idx].luts[slot] = value;
            self.frames.touch(lut_frame(rc, slice, lut));
        }
        Ok(())
    }

    /// Read a LUT equation back.
    pub fn get_lut(&self, rc: RowCol, slice: u8, lut: u8) -> Result<u16, JBitsError> {
        if slice >= 2 || lut >= 2 {
            return Err(JBitsError::BadLut { slice, lut });
        }
        Ok(self.tile(rc)?.luts[(slice * 2 + lut) as usize])
    }

    /// Total number of on-PIPs in the configuration.
    #[inline]
    pub fn on_pip_count(&self) -> usize {
        self.on_pips
    }

    /// The partial-reconfiguration frame tracker (dirty frames since the
    /// last [`FrameTracker::take`]).
    #[inline]
    pub fn frames(&self) -> &FrameTracker {
        &self.frames
    }

    /// Mutable access to the frame tracker (to end a reconfiguration
    /// transaction with `take()`).
    #[inline]
    pub fn frames_mut(&mut self) -> &mut FrameTracker {
        &mut self.frames
    }

    pub(crate) fn tiles(&self) -> &[TileConfig] {
        &self.tiles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use virtex::{wire, Device, Dir, Family};

    fn bs() -> Bitstream {
        Bitstream::new(&Device::new(Family::Xcv50))
    }

    #[test]
    fn pip_codec_round_trips() {
        use virtex::Codec;
        for pip in [
            Pip::new(wire::S1_YQ, wire::out(1)),
            Pip::new(wire::out(0), wire::single(Dir::East, 2)),
            Pip::new(Wire(0), Wire(429)),
        ] {
            assert_eq!(Pip::from_bytes(&pip.to_bytes()), Some(pip));
        }
        assert_eq!(Pip::from_bytes(&[1, 0, 0xFF, 0xFF]), None, "bad wire id");
        assert_eq!(Pip::from_bytes(&[1, 0, 2]), None, "truncated");
    }

    #[test]
    fn set_get_clear_round_trip() {
        let mut b = bs();
        let rc = RowCol::new(5, 7);
        assert!(!b.get_pip(rc, wire::S1_YQ, wire::out(1)).unwrap());
        assert!(b.set_pip(rc, wire::S1_YQ, wire::out(1)).unwrap());
        assert!(b.get_pip(rc, wire::S1_YQ, wire::out(1)).unwrap());
        assert!(
            !b.set_pip(rc, wire::S1_YQ, wire::out(1)).unwrap(),
            "idempotent set"
        );
        assert_eq!(b.on_pip_count(), 1);
        assert!(b.clear_pip(rc, wire::S1_YQ, wire::out(1)).unwrap());
        assert!(!b.get_pip(rc, wire::S1_YQ, wire::out(1)).unwrap());
        assert_eq!(b.on_pip_count(), 0);
    }

    #[test]
    fn nonexistent_pips_are_rejected() {
        let mut b = bs();
        let rc = RowCol::new(5, 7);
        // S1_YQ only reaches OUT[7] and OUT[1] in this architecture.
        let err = b.set_pip(rc, wire::S1_YQ, wire::out(4)).unwrap_err();
        assert!(matches!(err, JBitsError::NoSuchPip { .. }));
        // Off-chip tile.
        let err = b
            .set_pip(RowCol::new(99, 0), wire::S1_YQ, wire::out(1))
            .unwrap_err();
        assert!(matches!(err, JBitsError::BadTile { .. }));
        // Wire that doesn't exist at the edge.
        let err = b
            .set_pip(
                RowCol::new(15, 0),
                wire::out(0),
                wire::single(Dir::North, 2),
            )
            .unwrap_err();
        assert!(matches!(err, JBitsError::NoSuchWire { .. }));
    }

    #[test]
    fn segment_driver_found_via_drive_taps() {
        let mut b = bs();
        let rc = RowCol::new(5, 7);
        b.set_pip(rc, wire::out(1), wire::single(Dir::East, 5))
            .unwrap();
        let seg = b
            .device()
            .canonicalize(rc, wire::single(Dir::East, 5))
            .unwrap();
        assert!(b.is_segment_driven(seg));
        let (drc, pip) = b.segment_driver(seg).unwrap();
        assert_eq!(drc, rc);
        assert_eq!(pip, Pip::new(wire::out(1), wire::single(Dir::East, 5)));
        // An undriven segment.
        let other = b
            .device()
            .canonicalize(rc, wire::single(Dir::East, 6))
            .unwrap();
        assert!(!b.is_segment_driven(other));
    }

    #[test]
    fn contention_is_visible_to_segment_drivers() {
        // JBits is deliberately permissive: two drivers of one segment can
        // be configured; segment_drivers exposes both so JRoute can refuse.
        let mut b = bs();
        let rc = RowCol::new(6, 6);
        let dev = *b.device();
        let target = wire::single(Dir::North, 2);
        let mut drivers = Vec::new();
        dev.arch().pips_into(rc, target, &mut drivers);
        assert!(
            drivers.len() >= 2,
            "need two distinct drivers for this test"
        );
        b.set_pip(rc, drivers[0], target).unwrap();
        b.set_pip(rc, drivers[1], target).unwrap();
        let seg = dev.canonicalize(rc, target).unwrap();
        assert_eq!(b.segment_drivers(seg).count(), 2);
    }

    #[test]
    fn bidir_hex_driver_found_at_far_end() {
        let mut b = bs();
        let dev = *b.device();
        // Drive bi-directional hex HEX_N[0]@(2,2) at its endpoint (8,2).
        let end_rc = RowCol::new(8, 2);
        let end = wire::hex_end(Dir::North, 0);
        let mut drivers = Vec::new();
        dev.arch().pips_into(end_rc, end, &mut drivers);
        let from = *drivers
            .iter()
            .find(|w| matches!(w.kind(), virtex::WireKind::Out(_)))
            .expect("an OMUX can drive a bidir hex end");
        b.set_pip(end_rc, from, end).unwrap();
        let seg = dev.canonicalize(end_rc, end).unwrap();
        assert_eq!(seg.rc, RowCol::new(2, 2));
        assert!(b.is_segment_driven(seg));
        assert_eq!(b.segment_driver(seg).unwrap().0, end_rc);
    }

    #[test]
    fn lut_config_round_trips_and_dirties_frames() {
        let mut b = bs();
        let rc = RowCol::new(1, 2);
        b.frames_mut().take();
        b.set_lut(rc, 0, 1, 0xBEEF).unwrap();
        assert_eq!(b.get_lut(rc, 0, 1).unwrap(), 0xBEEF);
        assert_eq!(b.frames().dirty_count(), 1);
        // Writing the same value is free.
        b.frames_mut().take();
        b.set_lut(rc, 0, 1, 0xBEEF).unwrap();
        assert!(b.frames().is_clean());
        assert!(b.set_lut(rc, 2, 0, 0).is_err());
    }

    #[test]
    fn frame_accounting_tracks_touched_columns() {
        let mut b = bs();
        b.frames_mut().take();
        b.set_pip(RowCol::new(5, 7), wire::S1_YQ, wire::out(1))
            .unwrap();
        b.set_pip(RowCol::new(9, 7), wire::S1_YQ, wire::out(1))
            .unwrap(); // same frame
        assert_eq!(
            b.frames().dirty_count(),
            1,
            "same column + word share a frame"
        );
        b.set_pip(RowCol::new(5, 8), wire::S1_YQ, wire::out(1))
            .unwrap();
        assert_eq!(b.frames().dirty_count(), 2);
    }

    #[test]
    fn observer_sees_only_real_transitions() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        #[derive(Default)]
        struct Tally {
            set: AtomicUsize,
            cleared: AtomicUsize,
        }
        impl ConfigObserver for Tally {
            fn pip_set(&self, _rc: RowCol, _pip: Pip) {
                self.set.fetch_add(1, Ordering::Relaxed);
            }
            fn pip_cleared(&self, _rc: RowCol, _pip: Pip) {
                self.cleared.fetch_add(1, Ordering::Relaxed);
            }
        }
        let mut b = bs();
        let tally = Arc::new(Tally::default());
        b.set_observer(Some(tally.clone()));
        assert!(b.has_observer());
        let rc = RowCol::new(5, 7);
        b.set_pip(rc, wire::S1_YQ, wire::out(1)).unwrap();
        b.set_pip(rc, wire::S1_YQ, wire::out(1)).unwrap(); // no-op: already on
        b.clear_pip(rc, wire::S1_YQ, wire::out(1)).unwrap();
        b.clear_pip(rc, wire::S1_YQ, wire::out(1)).unwrap(); // no-op: already off
        assert_eq!(tally.set.load(Ordering::Relaxed), 1);
        assert_eq!(tally.cleared.load(Ordering::Relaxed), 1);
        // Detach: further writes are unobserved.
        b.set_observer(None);
        b.set_pip(rc, wire::S1_YQ, wire::out(1)).unwrap();
        assert_eq!(tally.set.load(Ordering::Relaxed), 1);
    }

    /// The driven test against a brute-force oracle: on random XCV50
    /// configurations — raw contention, far-end drivers of bi-directional
    /// hexes and long lines among them — every canonical segment's
    /// drivers are the on-PIPs, anywhere on the chip, whose target
    /// canonicalizes to it.
    #[test]
    fn driver_queries_match_a_full_scan() {
        use detrand::{DetRng, SliceRandom};
        use std::collections::HashMap;
        use virtex::WireKind;

        let dev = Device::new(Family::Xcv50);
        let dims = dev.dims();
        let all: Vec<Wire> = Wire::all().collect();
        let tiles: Vec<RowCol> = dims.iter_tiles().collect();
        let is_long = |w: Wire| matches!(w.kind(), WireKind::LongH(_) | WireKind::LongV(_));
        let is_hex_end = |w: Wire| matches!(w.kind(), WireKind::HexEnd { .. });
        let (mut contended, mut far_end, mut long) = (0, 0, 0);
        harness::check_with("driver_queries_match_a_full_scan", 24, |rng| {
            let mut b = Bitstream::new(&dev);
            // Random PIPs, a third of them steered onto long lines and a
            // third onto hex ends (bi-directional hexes driven from their
            // far end).
            let mut fanout = Vec::new();
            for _ in 0..rng.gen_range(50..400) {
                let rc = *tiles.choose(rng).expect("tiles");
                let from = *all.choose(rng).expect("wires");
                fanout.clear();
                dev.arch().pips_from(rc, from, &mut fanout);
                let steer: &dyn Fn(Wire) -> bool = match rng.gen_range(0..3) {
                    0 => &is_long,
                    1 => &is_hex_end,
                    _ => &|_| true,
                };
                let pick = |rng: &mut DetRng| {
                    let steered: Vec<Wire> = fanout.iter().copied().filter(|&w| steer(w)).collect();
                    steered.choose(rng).or(fanout.choose(rng)).copied()
                };
                if let Some(to) = pick(rng) {
                    b.set_pip(rc, from, to).unwrap();
                }
            }
            // Raw contention: a second driver for some driven wires.
            let mut into = Vec::new();
            for _ in 0..rng.gen_range(1..8) {
                let rc = *tiles.choose(rng).expect("tiles");
                let Some(&pip) = b.pips_at(rc).choose(rng) else {
                    continue;
                };
                into.clear();
                dev.arch().pips_into(rc, pip.to, &mut into);
                if let Some(&from) = into.iter().find(|&&w| w != pip.from) {
                    b.set_pip(rc, from, pip.to).unwrap();
                }
            }

            // The oracle: every on-PIP of every tile, by driven segment,
            // in tile order.
            let mut want: HashMap<Segment, Vec<(RowCol, Pip)>> = HashMap::new();
            for &rc in &tiles {
                let pips = b.pips_at(rc);
                for &pip in pips {
                    let seg = dev.canonicalize(rc, pip.to).expect("on-PIP target exists");
                    want.entry(seg).or_default().push((rc, pip));
                    let at: Vec<Pip> = pips.iter().copied().filter(|p| p.to == pip.to).collect();
                    assert_eq!(b.drivers_at(rc, pip.to).collect::<Vec<_>>(), at);
                }
                let to = *all.choose(rng).expect("wires");
                let at = pips.iter().filter(|p| p.to == to).count();
                assert_eq!(b.drivers_at(rc, to).count(), at);
            }
            for &rc in &tiles {
                for &w in &all {
                    let seg = Segment { rc, wire: w };
                    if dev.canonicalize(rc, w) != Some(seg) {
                        continue;
                    }
                    let expect = want.get(&seg).map_or(&[][..], Vec::as_slice);
                    let mut got: Vec<_> = b.segment_drivers(seg).collect();
                    got.sort_unstable();
                    let mut sorted = expect.to_vec();
                    sorted.sort_unstable();
                    assert_eq!(got, sorted, "drivers of {seg}");
                    assert_eq!(b.is_segment_driven(seg), !expect.is_empty(), "{seg}");
                    // Drive taps are searched origin first, then (long
                    // lines) in row or column order: tile order here.
                    let first = expect
                        .iter()
                        .find(|d| d.0 == seg.rc)
                        .or(expect.first())
                        .copied();
                    assert_eq!(b.segment_driver(seg), first, "first driver of {seg}");
                    contended += usize::from(expect.len() > 1);
                    far_end +=
                        usize::from(expect.iter().any(|d| d.0 != seg.rc && is_hex_end(d.1.to)));
                    long += usize::from(!expect.is_empty() && is_long(w));
                }
            }
        });
        assert!(
            contended > 0 && far_end > 0 && long > 0,
            "contended {contended}, far-end hexes {far_end}, long lines {long}"
        );
    }

    #[test]
    fn drivers_at_filters_by_target() {
        let mut b = bs();
        let rc = RowCol::new(5, 7);
        b.set_pip(rc, wire::S1_YQ, wire::out(1)).unwrap();
        b.set_pip(rc, wire::S1_YQ, wire::out(7)).unwrap();
        assert_eq!(b.drivers_at(rc, wire::out(1)).count(), 1);
        assert_eq!(b.drivers_at(rc, wire::out(7)).count(), 1);
        assert_eq!(b.drivers_at(rc, wire::out(2)).count(), 0);
        assert_eq!(b.pips_at(rc).len(), 2);
    }
}
