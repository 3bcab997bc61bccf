//! Counter: the paper's §4 composition example made concrete.
//!
//! *"a counter can be made from a constant adder with the output fed back
//! to one input ports and the other input set to a value of one."* This
//! core is that structure folded into one column: per bit, the F-LUT
//! computes `xq ^ cin`, the G-LUT the carry `xq & cin` (bit 0 folds
//! `cin = 1`), the F flip-flop holds the count bit, and the feedback from
//! `XQ` back into the LUT inputs is routed through the fabric by the
//! auto-router.

use crate::core_trait::{CoreState, Design, RtpCore};
use crate::util::lut_mask;
use jroute::{Pin, PortDir, PortId};
use virtex::wire::{self, slice_in_pin, slice_out_pin};
use virtex::RowCol;

/// A `width`-bit synchronous up-counter clocked from a global clock net.
#[derive(Debug)]
pub struct Counter {
    width: usize,
    gclk: usize,
    origin: RowCol,
    state: CoreState,
}

impl Counter {
    /// Counter of `width` bits at `origin`, clocked by `GCLK[gclk]`.
    pub fn new(width: usize, gclk: usize, origin: RowCol) -> Self {
        assert!(width > 0 && width <= 32);
        Counter {
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

    /// Output port group `"q"`: the count bits (registered).
    pub fn q_ports(&self) -> &[PortId] {
        self.state.get_ports("q")
    }

    /// Tile of count bit `bit`, for `vsim` inspection
    /// (`LogicSource::Xq {{ rc, slice: 0 }}`).
    pub fn bit_site(&self, bit: usize) -> RowCol {
        self.rc(bit)
    }
}

impl RtpCore for Counter {
    fn name(&self) -> &str {
        "counter"
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
        for bit in 0..self.width {
            let rc = self.rc(bit);
            // Address bit 0 = xq (input 1), address bit 1 = cin (input 2).
            let (sum, carry) = if bit == 0 {
                // cin folded to 1: toggle and pass-through.
                (lut_mask(|a| a & 1 == 0), lut_mask(|a| a & 1 == 1))
            } else {
                (
                    lut_mask(|a| ((a & 1) ^ ((a >> 1) & 1)) == 1),
                    lut_mask(|a| (a & 1 == 1) && ((a >> 1) & 1 == 1)),
                )
            };
            d.lut(rc, 0, 0, sum);
            d.lut(rc, 0, 1, carry);
            // Clock the F flip-flop.
            d.pip(
                rc,
                wire::gclk(self.gclk),
                wire::slice_in(0, slice_in_pin::CLK),
            );
            // Feedback: XQ back into both LUTs' input 1 (the §4 "output
            // fed back to one input" wiring, found by the auto-router).
            d.net(
                Pin::at(rc, wire::slice_out(0, slice_out_pin::XQ)),
                vec![
                    Pin::at(rc, wire::slice_in(0, slice_in_pin::F1)).into(),
                    Pin::at(rc, wire::slice_in(0, slice_in_pin::G1)).into(),
                ],
            );
        }
        // Carry ripple: Y of bit i to input 2 of bit i+1's LUTs.
        for bit in 0..self.width - 1 {
            let next = self.rc(bit + 1);
            d.net(
                Pin::at(self.rc(bit), wire::slice_out(0, slice_out_pin::Y)),
                vec![
                    Pin::at(next, wire::slice_in(0, slice_in_pin::F2)).into(),
                    Pin::at(next, wire::slice_in(0, slice_in_pin::G2)).into(),
                ],
            );
        }
        let q_targets = (0..self.width)
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
