//! Linear-feedback shift register (XNOR form) — a self-sequencing core
//! whose entire behaviour is routing plus two LUT masks, making it a good
//! probe of the router's cross-CLB feedback paths.
//!
//! Fibonacci XNOR LFSR over taps `(w-1, w-2)`: bit 0's next state is
//! `!(q[w-1] ^ q[w-2])`, every other bit shifts. The XNOR form
//! self-starts from the all-zeros reset state and cycles through
//! `2^w - 1` states (all-ones is the lock-up state).

use crate::core_trait::{CoreState, Design, RtpCore};
use crate::util::{buffer_mask, lut_mask};
use jroute::{EndPoint, Pin, PortDir, PortId};
use virtex::wire::{self, slice_in_pin, slice_out_pin};
use virtex::RowCol;

/// A `width`-bit XNOR LFSR (width ≥ 2) clocked from a global clock net.
#[derive(Debug)]
pub struct Lfsr {
    width: usize,
    gclk: usize,
    origin: RowCol,
    state: CoreState,
}

impl Lfsr {
    /// LFSR of `width` bits at `origin`, clocked by `GCLK[gclk]`.
    pub fn new(width: usize, gclk: usize, origin: RowCol) -> Self {
        assert!((2..=32).contains(&width));
        Lfsr {
            width,
            gclk,
            origin,
            state: CoreState::new(),
        }
    }

    /// Bit width.
    pub fn width(&self) -> usize {
        self.width
    }

    fn rc(&self, bit: usize) -> RowCol {
        RowCol::new(self.origin.row + bit as u16, self.origin.col)
    }

    /// Output port group `"q"`: the register state.
    pub fn q_ports(&self) -> &[PortId] {
        self.state.get_ports("q")
    }

    /// Tile of state bit `bit` (`LogicSource::Xq {{ rc, slice: 0 }}`).
    pub fn bit_site(&self, bit: usize) -> RowCol {
        self.rc(bit)
    }
}

impl RtpCore for Lfsr {
    fn name(&self) -> &str {
        "lfsr"
    }

    fn footprint(&self) -> (u16, u16) {
        (self.width as u16, 1)
    }

    fn origin(&self) -> RowCol {
        self.origin
    }

    fn set_origin(&mut self, rc: RowCol) {
        self.origin = rc;
    }

    fn design(&self) -> Design {
        let mut d = Design::new();
        let w = self.width;
        for bit in 0..w {
            let rc = self.rc(bit);
            let mask = if bit == 0 {
                // next = !(tap1 ^ tap2) on inputs F1, F2.
                lut_mask(|a| ((a & 1) ^ ((a >> 1) & 1)) == 0)
            } else {
                buffer_mask(0) // next = previous bit on F1.
            };
            d.lut(rc, 0, 0, mask);
            d.pip(
                rc,
                wire::gclk(self.gclk),
                wire::slice_in(0, slice_in_pin::CLK),
            );
        }
        // Shift chain: q[i] -> F1 of bit i+1; the taps also feed bit 0.
        for bit in 0..w {
            let mut sinks: Vec<EndPoint> = Vec::new();
            if bit + 1 < w {
                sinks.push(Pin::at(self.rc(bit + 1), wire::slice_in(0, slice_in_pin::F1)).into());
            }
            if bit == w - 1 {
                sinks.push(Pin::at(self.rc(0), wire::slice_in(0, slice_in_pin::F1)).into());
            }
            if bit == w - 2 {
                sinks.push(Pin::at(self.rc(0), wire::slice_in(0, slice_in_pin::F2)).into());
            }
            if !sinks.is_empty() {
                d.net(
                    Pin::at(self.rc(bit), wire::slice_out(0, slice_out_pin::XQ)),
                    sinks,
                );
            }
        }
        let q_targets = (0..w)
            .map(|bit| vec![Pin::at(self.rc(bit), wire::slice_out(0, slice_out_pin::XQ)).into()])
            .collect();
        d.group("q", PortDir::Output, q_targets);
        d
    }

    fn state(&self) -> &CoreState {
        &self.state
    }

    fn state_mut(&mut self) -> &mut CoreState {
        &mut self.state
    }
}
