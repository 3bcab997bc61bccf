//! Constant multiplier: `p = a * K` by LUT-based distributed arithmetic.
//!
//! The paper's canonical run-time reconfiguration example (§3.3):
//! *"consider a constant multiplier. The system connects it to the
//! circuit and later requires a new constant. The core can be removed,
//! unrouted, and replaced with a new constant multiplier without having
//! to specify connections again."*
//!
//! A 4-bit input times a 4-bit constant fits one 4-input LUT per product
//! bit: output bit `j` is the LUT truth table `((a * K) >> j) & 1` over
//! the input nibble. Changing the constant is purely a LUT rewrite — the
//! classic run-time-parameterizable core — so [`crate::replace_with`]
//! keeps the multiplier's routes and writes only the changed LUTs.

use crate::core_trait::{CoreState, Design, RtpCore};
use crate::util::lut_mask;
use jroute::{Pin, PortDir, PortId};
use virtex::wire::{self, slice_in_pin, slice_out_pin};
use virtex::RowCol;

/// Input width of the multiplier (fixed by the 4-input LUT).
pub const IN_WIDTH: usize = 4;

/// A `4 x 4 -> out_width` constant multiplier core.
#[derive(Debug)]
pub struct ConstMultiplier {
    constant: u8,
    out_width: usize,
    origin: RowCol,
    state: CoreState,
}

impl ConstMultiplier {
    /// Multiplier by `constant` (4 bits), producing `out_width` product
    /// bits (≤ 8), at `origin`.
    pub fn new(constant: u8, out_width: usize, origin: RowCol) -> Self {
        assert!(constant < 16, "constant is 4 bits");
        assert!(out_width > 0 && out_width <= 8);
        ConstMultiplier {
            constant,
            out_width,
            origin,
            state: CoreState::new(),
        }
    }

    /// The run-time parameter.
    pub fn constant(&self) -> u8 {
        self.constant
    }

    /// Change the constant (apply via [`crate::replace_with`], which
    /// rewrites the LUTs and keeps every route).
    pub fn set_constant(&mut self, constant: u8) {
        assert!(constant < 16);
        self.constant = constant;
    }

    /// Product width.
    pub fn out_width(&self) -> usize {
        self.out_width
    }

    fn rc(&self, bit: usize) -> RowCol {
        RowCol::new(self.origin.row + bit as u16, self.origin.col)
    }

    /// Input port group `"a"` (4 ports).
    pub fn a_ports(&self) -> &[PortId] {
        self.state.get_ports("a")
    }

    /// Product port group `"p"` (`out_width` ports).
    pub fn p_ports(&self) -> &[PortId] {
        self.state.get_ports("p")
    }

    /// Tile of product bit `bit` (combinational on `X`).
    pub fn product_site(&self, bit: usize) -> RowCol {
        self.rc(bit)
    }
}

impl RtpCore for ConstMultiplier {
    fn name(&self) -> &str {
        "const_multiplier"
    }

    fn footprint(&self) -> (u16, u16) {
        (self.out_width as u16, 1)
    }

    fn origin(&self) -> RowCol {
        self.origin
    }

    fn set_origin(&mut self, rc: RowCol) {
        self.origin = rc;
    }

    fn design(&self) -> Design {
        let mut d = Design::new();
        let k = self.constant as u16;
        for bit in 0..self.out_width {
            d.lut(self.rc(bit), 0, 0, lut_mask(|a| ((a * k) >> bit) & 1 == 1));
        }
        // Each input bit fans out to the same LUT input of every product
        // bit's tile.
        let a_targets = (0..IN_WIDTH)
            .map(|i| {
                (0..self.out_width)
                    .map(|bit| {
                        Pin::at(self.rc(bit), wire::slice_in(0, slice_in_pin::F1 + i as u8)).into()
                    })
                    .collect()
            })
            .collect();
        d.group("a", PortDir::Input, a_targets);
        let p_targets = (0..self.out_width)
            .map(|bit| vec![Pin::at(self.rc(bit), wire::slice_out(0, slice_out_pin::X)).into()])
            .collect();
        d.group("p", PortDir::Output, p_targets);
        d
    }

    fn state(&self) -> &CoreState {
        &self.state
    }

    fn state_mut(&mut self) -> &mut CoreState {
        &mut self.state
    }
}
