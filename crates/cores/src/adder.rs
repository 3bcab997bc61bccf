//! Constant adder: `sum = a + K`.
//!
//! The paper's §4 example builds a counter from *"a constant adder with
//! the output fed back"*; this is that adder. One CLB per bit, stacked
//! vertically; each bit's F-LUT computes the sum and the G-LUT the carry
//! (the constant bit folded into both masks). Carries ripple through
//! general routing, and all external connection points are ports.

use crate::core_trait::{CoreState, Design, RtpCore};
use crate::util::lut_mask;
use jroute::{Pin, PortDir, PortId};
use virtex::wire::{self, slice_in_pin, slice_out_pin};
use virtex::RowCol;

/// A `width`-bit constant adder core.
#[derive(Debug)]
pub struct ConstAdder {
    width: usize,
    constant: u64,
    origin: RowCol,
    state: CoreState,
}

impl ConstAdder {
    /// Adder computing `a + constant` over `width` bits at `origin`.
    pub fn new(width: usize, constant: u64, origin: RowCol) -> Self {
        assert!(width > 0 && width <= 64);
        ConstAdder {
            width,
            constant,
            origin,
            state: CoreState::new(),
        }
    }

    /// Bit width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The run-time parameter: the constant addend.
    pub fn constant(&self) -> u64 {
        self.constant
    }

    /// Change the constant (takes effect at the next `implement`; use
    /// [`crate::replace_with`] for the §3.3 replace flow, which keeps
    /// the adder's routes).
    pub fn set_constant(&mut self, constant: u64) {
        self.constant = constant;
    }

    fn rc(&self, bit: usize) -> RowCol {
        RowCol::new(self.origin.row + bit as u16, self.origin.col)
    }

    /// Input port group `"a"`, one port per bit.
    pub fn a_ports(&self) -> &[PortId] {
        self.state.get_ports("a")
    }

    /// Output port group `"sum"`, one port per bit.
    pub fn sum_ports(&self) -> &[PortId] {
        self.state.get_ports("sum")
    }

    /// Carry-in port group (width 1).
    pub fn cin_port(&self) -> PortId {
        self.state.get_ports("cin")[0]
    }

    /// Carry-out port group (width 1).
    pub fn cout_port(&self) -> PortId {
        self.state.get_ports("cout")[0]
    }

    /// The tile and slice of bit `bit` (for `vsim` inspection: the sum is
    /// combinational on `X`).
    pub fn sum_site(&self, bit: usize) -> RowCol {
        self.rc(bit)
    }
}

impl RtpCore for ConstAdder {
    fn name(&self) -> &str {
        "const_adder"
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
        // LUTs: F = a ^ cin ^ k, G = majority(a, cin, k), with a on
        // input 1 (address bit 0) and cin on input 2 (address bit 1).
        for bit in 0..self.width {
            let rc = self.rc(bit);
            let k = (self.constant >> bit) & 1 == 1;
            let sum = lut_mask(|addr| {
                let a = addr & 1 == 1;
                let c = (addr >> 1) & 1 == 1;
                a ^ c ^ k
            });
            let carry = lut_mask(|addr| {
                let a = addr & 1 == 1;
                let c = (addr >> 1) & 1 == 1;
                (a & c) | (a & k) | (c & k)
            });
            d.lut(rc, 0, 0, sum);
            d.lut(rc, 0, 1, carry);
        }
        // Internal carry chain: Y of bit i feeds F2 and G2 of bit i+1.
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
        // Ports: each `a` bit fans out to both LUTs' input 1.
        let a_targets = (0..self.width)
            .map(|bit| {
                let rc = self.rc(bit);
                vec![
                    Pin::at(rc, wire::slice_in(0, slice_in_pin::F1)).into(),
                    Pin::at(rc, wire::slice_in(0, slice_in_pin::G1)).into(),
                ]
            })
            .collect();
        d.group("a", PortDir::Input, a_targets);
        let sum_targets = (0..self.width)
            .map(|bit| vec![Pin::at(self.rc(bit), wire::slice_out(0, slice_out_pin::X)).into()])
            .collect();
        d.group("sum", PortDir::Output, sum_targets);
        let cin = self.rc(0);
        d.group(
            "cin",
            PortDir::Input,
            vec![vec![
                Pin::at(cin, wire::slice_in(0, slice_in_pin::F2)).into(),
                Pin::at(cin, wire::slice_in(0, slice_in_pin::G2)).into(),
            ]],
        );
        let cout = self.rc(self.width - 1);
        d.group(
            "cout",
            PortDir::Output,
            vec![vec![
                Pin::at(cout, wire::slice_out(0, slice_out_pin::Y)).into()
            ]],
        );
        d
    }

    fn state(&self) -> &CoreState {
        &self.state
    }

    fn state_mut(&mut self) -> &mut CoreState {
        &mut self.state
    }
}
