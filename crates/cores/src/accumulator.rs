//! Accumulator: `acc <= acc + a` each clock — the registered DSP
//! workhorse core (the paper's motivating RTR applications are
//! DSP-style data-flow designs).
//!
//! Per bit: the F-LUT computes `acc ^ a ^ cin` (three inputs) feeding the
//! F flip-flop; the G-LUT computes the majority carry. The accumulator
//! feedback (`XQ` back into input 1 of both LUTs) and the carry ripple
//! are routed through the fabric by the auto-router.

use crate::core_trait::{CoreState, Design, RtpCore};
use crate::util::lut_mask;
use jroute::{Pin, PortDir, PortId};
use virtex::wire::{self, slice_in_pin, slice_out_pin};
use virtex::RowCol;

/// A `width`-bit accumulator clocked from a global clock net.
#[derive(Debug)]
pub struct Accumulator {
    width: usize,
    gclk: usize,
    origin: RowCol,
    state: CoreState,
}

impl Accumulator {
    /// Accumulator of `width` bits at `origin`, clocked by `GCLK[gclk]`.
    pub fn new(width: usize, gclk: usize, origin: RowCol) -> Self {
        assert!(width > 0 && width <= 32);
        Accumulator {
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

    /// Input port group `"a"` (the addend).
    pub fn a_ports(&self) -> &[PortId] {
        self.state.get_ports("a")
    }

    /// Output port group `"acc"` (the registered accumulator value).
    pub fn acc_ports(&self) -> &[PortId] {
        self.state.get_ports("acc")
    }

    /// Tile of bit `bit` (`LogicSource::Xq {{ rc, slice: 0 }}`).
    pub fn bit_site(&self, bit: usize) -> RowCol {
        self.rc(bit)
    }
}

impl RtpCore for Accumulator {
    fn name(&self) -> &str {
        "accumulator"
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
            // Address bits: 0 = acc (input 1), 1 = a (input 2),
            // 2 = cin (input 3). Bit 0 folds cin = 0.
            let sum = lut_mask(|addr| {
                let acc = addr & 1 == 1;
                let a = (addr >> 1) & 1 == 1;
                let cin = bit != 0 && (addr >> 2) & 1 == 1;
                acc ^ a ^ cin
            });
            let carry = lut_mask(|addr| {
                let acc = addr & 1 == 1;
                let a = (addr >> 1) & 1 == 1;
                let cin = bit != 0 && (addr >> 2) & 1 == 1;
                (acc & a) | (acc & cin) | (a & cin)
            });
            d.lut(rc, 0, 0, sum);
            d.lut(rc, 0, 1, carry);
            d.pip(
                rc,
                wire::gclk(self.gclk),
                wire::slice_in(0, slice_in_pin::CLK),
            );
            // Accumulator feedback into input 1 of both LUTs.
            d.net(
                Pin::at(rc, wire::slice_out(0, slice_out_pin::XQ)),
                vec![
                    Pin::at(rc, wire::slice_in(0, slice_in_pin::F1)).into(),
                    Pin::at(rc, wire::slice_in(0, slice_in_pin::G1)).into(),
                ],
            );
        }
        // Carry ripple into input 3.
        for bit in 0..self.width - 1 {
            let next = self.rc(bit + 1);
            d.net(
                Pin::at(self.rc(bit), wire::slice_out(0, slice_out_pin::Y)),
                vec![
                    Pin::at(next, wire::slice_in(0, slice_in_pin::F3)).into(),
                    Pin::at(next, wire::slice_in(0, slice_in_pin::G3)).into(),
                ],
            );
        }
        // Ports.
        let a_targets = (0..self.width)
            .map(|bit| {
                let rc = self.rc(bit);
                vec![
                    Pin::at(rc, wire::slice_in(0, slice_in_pin::F2)).into(),
                    Pin::at(rc, wire::slice_in(0, slice_in_pin::G2)).into(),
                ]
            })
            .collect();
        d.group("a", PortDir::Input, a_targets);
        let acc_targets = (0..self.width)
            .map(|bit| vec![Pin::at(self.rc(bit), wire::slice_out(0, slice_out_pin::XQ)).into()])
            .collect();
        d.group("acc", PortDir::Output, acc_targets);
        d
    }

    fn state(&self) -> &CoreState {
        &self.state
    }

    fn state_mut(&mut self) -> &mut CoreState {
        &mut self.state
    }
}
