//! Register bank: a `width`-bit D register.

use crate::core_trait::{CoreState, Design, RtpCore};
use crate::util::buffer_mask;
use jroute::{Pin, PortDir, PortId};
use virtex::wire::{self, slice_in_pin, slice_out_pin};
use virtex::RowCol;

/// A `width`-bit register clocked from a global clock net. One CLB per
/// bit; the F-LUT buffers `F1` into the F flip-flop.
#[derive(Debug)]
pub struct Register {
    width: usize,
    gclk: usize,
    origin: RowCol,
    state: CoreState,
}

impl Register {
    /// Register of `width` bits at `origin`, clocked by `GCLK[gclk]`.
    pub fn new(width: usize, gclk: usize, origin: RowCol) -> Self {
        assert!(width > 0);
        Register {
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

    /// Input port group `"d"`.
    pub fn d_ports(&self) -> &[PortId] {
        self.state.get_ports("d")
    }

    /// Output port group `"q"`.
    pub fn q_ports(&self) -> &[PortId] {
        self.state.get_ports("q")
    }

    /// Tile of bit `bit` (`LogicSource::Xq {{ rc, slice: 0 }}`).
    pub fn bit_site(&self, bit: usize) -> RowCol {
        self.rc(bit)
    }
}

impl RtpCore for Register {
    fn name(&self) -> &str {
        "register"
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
            d.lut(rc, 0, 0, buffer_mask(0));
            d.pip(
                rc,
                wire::gclk(self.gclk),
                wire::slice_in(0, slice_in_pin::CLK),
            );
        }
        let d_targets = (0..self.width)
            .map(|bit| vec![Pin::at(self.rc(bit), wire::slice_in(0, slice_in_pin::F1)).into()])
            .collect();
        d.group("d", PortDir::Input, d_targets);
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
