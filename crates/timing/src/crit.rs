//! Per-sink criticality over analysed net timings.
//!
//! RWRoute-style criticality: each sink's share of the design's critical
//! path, `crit = (arrival / critical_delay) ^ exp`, sharpened by the
//! exponent so near-critical sinks dominate and short nets fade to the
//! congestion-only cost. The table is dense per net, mirrors the
//! incremental table `jroute::pathfinder` keeps internally during
//! negotiation, and reports in the same [`CRIT_ONE`] fixed-point units
//! [`jroute::maze::MazeConfig::crit`] consumes — so a post-route
//! analysis pass can feed selective re-routing of the worst nets
//! without a unit conversion.
//!
//! [`CRIT_ONE`]: jroute::maze::CRIT_ONE

use crate::analysis::NetTiming;
use jroute::maze::CRIT_ONE;

/// Dense per-net, per-sink criticality table built from
/// [`NetTiming`] results.
///
/// ```
/// use jroute_timing::{analyze_net, CriticalityTable};
/// use jroute::maze::CRIT_ONE;
/// # use jbits::Bitstream;
/// # use virtex::{wire, Device, Family, RowCol};
/// # let dev = Device::new(Family::Xcv50);
/// # let mut b = Bitstream::new(&dev);
/// # b.set_pip(RowCol::new(5, 7), wire::S1_YQ, wire::out(1)).unwrap();
/// # b.set_pip(RowCol::new(5, 7), wire::out(1), wire::single(virtex::Dir::East, 5)).unwrap();
/// # b.set_pip(RowCol::new(5, 8), wire::single_end(virtex::Dir::East, 5), wire::single(virtex::Dir::North, 0)).unwrap();
/// # b.set_pip(RowCol::new(6, 8), wire::single_end(virtex::Dir::North, 0), wire::S0_F3).unwrap();
/// # let src = dev.canonicalize(RowCol::new(5, 7), wire::S1_YQ).unwrap();
/// let mut table = CriticalityTable::new(2.0);
/// table.set_net(0, &analyze_net(&b, src));
/// // The critical sink of the critical net sits at the fixed-point top.
/// assert_eq!(table.crit(0, 0), CRIT_ONE);
/// ```
#[derive(Debug, Clone)]
pub struct CriticalityTable {
    exp: f32,
    /// Per-net arrival times in ps, sink order as discovered by
    /// [`analyze_net`](crate::analysis::analyze_net).
    delays: Vec<Vec<u64>>,
}

impl CriticalityTable {
    /// New empty table with the given sharpening exponent (RWRoute uses
    /// values in `[1, 3]`; the PathFinder default is `2.0`).
    pub fn new(exp: f32) -> Self {
        Self {
            exp,
            delays: Vec::new(),
        }
    }

    /// The sharpening exponent.
    pub fn exponent(&self) -> f32 {
        self.exp
    }

    /// Record (or refresh) one net's analysed timing. The table grows
    /// densely: setting net 7 first materialises empty rows 0–6.
    pub fn set_net(&mut self, net: usize, timing: &NetTiming) {
        if self.delays.len() <= net {
            self.delays.resize(net + 1, Vec::new());
        }
        self.delays[net] = timing.sink_delays.iter().map(|&(_, d)| d).collect();
    }

    /// The design's critical (maximum) sink delay across every recorded
    /// net, in ps. Zero when the table is empty.
    pub fn critical_delay(&self) -> u64 {
        self.delays.iter().flatten().copied().max().unwrap_or(0)
    }

    /// Criticality of one sink in [`CRIT_ONE`] fixed-point units —
    /// directly usable as [`jroute::maze::MazeConfig::crit`]. Unknown
    /// nets/sinks (or an empty table) read as zero.
    pub fn crit(&self, net: usize, sink: usize) -> u32 {
        let critical = self.critical_delay();
        if critical == 0 {
            return 0;
        }
        let Some(&d) = self.delays.get(net).and_then(|row| row.get(sink)) else {
            return 0;
        };
        let frac = d as f64 / critical as f64;
        ((frac.powf(self.exp as f64) * CRIT_ONE as f64) as u32).min(CRIT_ONE)
    }

    /// All criticalities of one net, sink order preserved.
    pub fn crits(&self, net: usize) -> Vec<u32> {
        let n = self.delays.get(net).map_or(0, Vec::len);
        (0..n).map(|s| self.crit(net, s)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jroute::Pin;
    use virtex::{wire, RowCol};

    fn timing(delays: &[u64]) -> NetTiming {
        NetTiming {
            sink_delays: delays
                .iter()
                .map(|&d| (Pin::at(RowCol::new(1, 1), wire::slice_in(0, 1)), d))
                .collect(),
        }
    }

    #[test]
    fn critical_sink_reads_full_scale_and_others_fall_off() {
        let mut t = CriticalityTable::new(2.0);
        t.set_net(0, &timing(&[1000, 500]));
        t.set_net(1, &timing(&[2000]));
        assert_eq!(t.critical_delay(), 2000);
        assert_eq!(t.crit(1, 0), CRIT_ONE);
        // (1000/2000)^2 = 0.25; (500/2000)^2 = 0.0625.
        assert_eq!(t.crit(0, 0), CRIT_ONE / 4);
        assert_eq!(t.crit(0, 1), CRIT_ONE / 16);
    }

    #[test]
    fn higher_exponent_sharpens_the_falloff() {
        let mut quad = CriticalityTable::new(2.0);
        let mut cube = CriticalityTable::new(3.0);
        for t in [&mut quad, &mut cube] {
            t.set_net(0, &timing(&[600, 1000]));
        }
        assert!(cube.crit(0, 0) < quad.crit(0, 0));
        assert_eq!(cube.crit(0, 1), quad.crit(0, 1), "critical sink pinned");
    }

    #[test]
    fn unknown_rows_and_empty_tables_read_zero() {
        let mut t = CriticalityTable::new(2.0);
        assert_eq!(t.crit(3, 9), 0);
        assert_eq!(t.critical_delay(), 0);
        t.set_net(2, &timing(&[100]));
        assert_eq!(t.crits(0), Vec::<u32>::new(), "dense gap row is empty");
        assert_eq!(t.crits(2), vec![CRIT_ONE]);
    }
}
