//! Stimulus bank: a bank of output pins used as external drivers.
//!
//! Real designs receive inputs from IOBs; IOB support is the paper's
//! future work (§6), so test benches and examples use this core instead:
//! it exposes one output port per bit, bound to a slice register output
//! whose value a `vsim` test can force.

use crate::core_trait::{CoreState, Design, RtpCore};
use jroute::{Pin, PortDir};
use virtex::{wire, RowCol};

/// A bank of `width` drivable outputs, one CLB per bit (stacked
/// vertically), using slice 1's `YQ` pin.
#[derive(Debug)]
pub struct StimulusBank {
    width: usize,
    origin: RowCol,
    state: CoreState,
}

impl StimulusBank {
    /// Bank of `width` bits at `origin`.
    pub fn new(width: usize, origin: RowCol) -> Self {
        StimulusBank {
            width,
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

    /// The physical pin driving bit `bit` — force
    /// `LogicSource::Yq {{ rc, slice: 1 }}` at this pin's tile in `vsim`
    /// to set the stimulus value.
    pub fn driver_pin(&self, bit: usize) -> Pin {
        Pin::at(self.rc(bit), wire::slice_out(1, wire::slice_out_pin::YQ))
    }

    /// The output port group (`"out"`), in bit order.
    pub fn out_ports(&self) -> &[jroute::PortId] {
        self.state.get_ports("out")
    }
}

impl RtpCore for StimulusBank {
    fn name(&self) -> &str {
        "stimulus"
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
        let targets = (0..self.width)
            .map(|bit| vec![self.driver_pin(bit).into()])
            .collect();
        d.group("out", PortDir::Output, targets);
        d
    }

    fn state(&self) -> &CoreState {
        &self.state
    }

    fn state_mut(&mut self) -> &mut CoreState {
        &mut self.state
    }
}
