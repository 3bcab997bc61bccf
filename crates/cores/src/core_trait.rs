//! The run-time parameterizable core abstraction (paper §3.2, §4).
//!
//! *"Another goal when designing the JRoute API was to support a
//! hierarchical and reusable library of run-time parameterizable
//! cores."* A core occupies a rectangle of CLBs, configures LUTs and
//! internal routing, and exposes *ports* grouped per bus. The paper's
//! routing guidelines are followed: every port is in a group, the router
//! is called for each port's internal connection, and `get_ports(group)`
//! returns the group's ports in bit order.
//!
//! Each core states its configuration once, as a [`Design`] computed
//! from its parameters without a `Router`. [`RtpCore::implement`]
//! applies that design, and [`replace_with`] compares its [`Wiring`]
//! with the one on the device to decide whether a change moves any
//! route at all.

use jroute::{EndPoint, Pin, PortDir, PortId, Result, RouteError, Router};
use std::collections::HashMap;
use virtex::{RowCol, Wire};

/// A run-time parameterizable core.
pub trait RtpCore {
    /// Human-readable core type name.
    fn name(&self) -> &str;

    /// Footprint in CLBs: `(rows, cols)` from the origin (inclusive).
    fn footprint(&self) -> (u16, u16);

    /// Current placement origin (south-west corner).
    fn origin(&self) -> RowCol;

    /// Move the placement origin (takes effect at the next
    /// [`RtpCore::implement`]).
    fn set_origin(&mut self, rc: RowCol);

    /// The core's configuration at its origin with its current
    /// parameters: LUT contents, fixed PIPs, internal nets and port
    /// groups.
    fn design(&self) -> Design;

    /// Port bookkeeping shared by all cores.
    fn state(&self) -> &CoreState;

    /// Mutable port bookkeeping.
    fn state_mut(&mut self) -> &mut CoreState;

    /// Configure the core at its origin by applying [`RtpCore::design`]:
    /// LUTs, fixed PIPs, internal nets, then port (re)binding. The first
    /// call defines the ports, later calls rebind them (which
    /// auto-reconnects remembered connections, §3.3). A second call on a
    /// placed, unchanged core configures nothing new: every PIP, sink
    /// and intent it would add is already there.
    fn implement(&mut self, router: &mut Router) -> Result<()> {
        let design = self.design();
        self.state_mut().apply(router, design)
    }

    /// Remove the core: unroute the internal nets and fixed PIPs the
    /// last `implement` applied and erase its LUTs. Port definitions
    /// survive (their bindings go stale until the next `implement`).
    fn remove(&mut self, router: &mut Router) -> Result<()> {
        self.state_mut().tear_down(router)
    }
}

/// A core's configuration as data: the LUT contents plus the
/// [`Wiring`] they sit in.
#[derive(Debug, Default)]
pub struct Design {
    /// Contents of `wiring.luts`, entry by entry.
    masks: Vec<u16>,
    wiring: Wiring,
}

/// Everything of a [`Design`] but the LUT contents: the sites, PIPs,
/// nets and port targets a core's routes depend on. Two designs with
/// equal wiring differ only in what their LUTs compute.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Wiring {
    /// LUT sites `(tile, slice, lut)`, in write order.
    luts: Vec<(RowCol, u8, u8)>,
    /// Fixed PIPs `(tile, from, to)`, such as a global clock's taps.
    pips: Vec<(RowCol, Wire, Wire)>,
    /// Auto-routed internal nets: source and sinks.
    nets: Vec<(EndPoint, Vec<EndPoint>)>,
    /// Port groups in definition order: name, direction, and each bit's
    /// targets.
    groups: Vec<(&'static str, PortDir, Vec<Vec<EndPoint>>)>,
}

impl Design {
    /// An empty design.
    pub fn new() -> Self {
        Self::default()
    }

    /// Write `mask` into LUT `lut` of slice `slice` at `rc`.
    pub fn lut(&mut self, rc: RowCol, slice: u8, lut: u8, mask: u16) {
        self.wiring.luts.push((rc, slice, lut));
        self.masks.push(mask);
    }

    /// Turn on the PIP `from -> to` at `rc` (no search).
    pub fn pip(&mut self, rc: RowCol, from: Wire, to: Wire) {
        self.wiring.pips.push((rc, from, to));
    }

    /// Auto-route `source` to every sink.
    pub fn net(&mut self, source: impl Into<EndPoint>, sinks: Vec<EndPoint>) {
        self.wiring.nets.push((source.into(), sinks));
    }

    /// Port group `name`: bit `i` is bound to `targets[i]`.
    pub fn group(&mut self, name: &'static str, dir: PortDir, targets: Vec<Vec<EndPoint>>) {
        self.wiring.groups.push((name, dir, targets));
    }

    /// The design without its LUT contents.
    pub fn wiring(&self) -> &Wiring {
        &self.wiring
    }
}

/// Shared implementation state: port ids and what is on the device.
#[derive(Debug, Default)]
pub struct CoreState {
    /// Port ids per group, in bit order.
    ports: HashMap<String, Vec<PortId>>,
    /// Direction of each group.
    group_dirs: HashMap<String, PortDir>,
    /// The wiring the last `implement` applied, kept for `remove` (also
    /// after a failed `implement`, so its partial work can be undone).
    applied: Option<Wiring>,
    /// Whether the core is currently implemented on the device.
    placed: bool,
}

impl CoreState {
    /// Fresh, unplaced core state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the core is currently configured on the device.
    pub fn is_placed(&self) -> bool {
        self.placed
    }

    /// The paper's `getPorts()` for this core.
    pub fn get_ports(&self, group: &str) -> &[PortId] {
        self.ports.get(group).map(Vec::as_slice).unwrap_or(&[])
    }

    /// All group names with their directions.
    pub fn groups(&self) -> impl Iterator<Item = (&str, PortDir)> {
        self.group_dirs.iter().map(|(g, d)| (g.as_str(), *d))
    }

    /// Whether the core is placed with exactly `wiring`, so applying a
    /// design with that wiring moves no route.
    fn is_placed_with(&self, wiring: &Wiring) -> bool {
        self.placed && self.applied.as_ref() == Some(wiring)
    }

    /// Write `design` to the device (the shared `implement` body).
    fn apply(&mut self, router: &mut Router, design: Design) -> Result<()> {
        let Design { masks, wiring } = design;
        let done = self.configure(router, &masks, &wiring);
        self.applied = Some(wiring);
        self.placed = done.is_ok();
        done
    }

    fn configure(&mut self, router: &mut Router, masks: &[u16], wiring: &Wiring) -> Result<()> {
        for (&(rc, slice, lut), &mask) in wiring.luts.iter().zip(masks) {
            router.bits_mut().set_lut(rc, slice, lut, mask)?;
        }
        for &(rc, from, to) in &wiring.pips {
            router.route_pip(rc, from, to)?;
        }
        for (source, sinks) in &wiring.nets {
            router.route_fanout(source, sinks)?;
        }
        for (group, dir, targets) in &wiring.groups {
            self.define_or_rebind_group(router, group, *dir, targets)?;
        }
        Ok(())
    }

    /// Define the group's ports on first call, rebind them afterwards.
    /// `targets[i]` is bit `i`'s binding.
    fn define_or_rebind_group(
        &mut self,
        router: &mut Router,
        group: &str,
        dir: PortDir,
        targets: &[Vec<EndPoint>],
    ) -> Result<()> {
        match self.ports.get(group) {
            Some(ids) => {
                if ids.len() != targets.len() {
                    // A core's bus width is fixed over its lifetime.
                    return Err(RouteError::BusWidthMismatch {
                        sources: ids.len(),
                        sinks: targets.len(),
                    });
                }
                for (&id, t) in ids.iter().zip(targets) {
                    router.rebind_port(id, t.clone())?;
                }
            }
            None => {
                let ids: Vec<PortId> = targets
                    .iter()
                    .enumerate()
                    .map(|(bit, t)| {
                        router.define_port(format!("{group}[{bit}]"), group, dir, t.clone())
                    })
                    .collect();
                self.ports.insert(group.to_string(), ids);
                self.group_dirs.insert(group.to_string(), dir);
            }
        }
        Ok(())
    }

    /// Unroute the applied internal nets and fixed PIPs and erase the
    /// applied LUTs (the shared `remove` body). A fixed PIP is
    /// reverse-unrouted from its target, so a net it shares with other
    /// cores (a global clock) keeps their PIPs.
    fn tear_down(&mut self, router: &mut Router) -> Result<()> {
        self.placed = false;
        let Some(wiring) = self.applied.take() else {
            return Ok(());
        };
        for (src, _) in &wiring.nets {
            match router.unroute(src) {
                Ok(_) | Err(RouteError::NoSuchNet { .. }) => {}
                Err(e) => return Err(e),
            }
        }
        for &(rc, _, to) in &wiring.pips {
            match router.reverse_unroute(&Pin::at(rc, to).into()) {
                Ok(_) | Err(RouteError::NoSuchNet { .. }) => {}
                Err(e) => return Err(e),
            }
        }
        for (rc, slice, lut) in wiring.luts {
            router.bits_mut().set_lut(rc, slice, lut, 0)?;
        }
        Ok(())
    }
}

/// Detach a core from its neighbours: unroute nets driven by its output
/// ports (remembered) and branches arriving at its input ports
/// (remembered via the upstream nets). Call before removing/relocating.
pub fn detach<C: RtpCore + ?Sized>(core: &C, router: &mut Router) -> Result<()> {
    let state = core.state();
    for (group, dir) in state.groups() {
        for &id in state.get_ports(group) {
            let ep: EndPoint = id.into();
            let r = match dir {
                PortDir::Output => router.unroute(&ep).map(|_| ()),
                PortDir::Input => router.unroute_sink(&ep).map(|_| ()),
            };
            match r {
                Ok(())
                | Err(RouteError::NoSuchNet { .. })
                | Err(RouteError::UnboundPort { .. }) => {}
                Err(e) => return Err(e),
            }
        }
    }
    Ok(())
}

/// Relocate a core to `new_origin`: [`replace_with`] a change that moves
/// the origin. A real move changes the wiring and takes the full path
/// (detach, remove, re-implement), and rebinding the ports inside
/// `implement` re-routes the remembered connections — the paper's §3.3
/// core-relocation flow. A "move" to the core's own origin keeps every
/// route and only re-applies the design.
pub fn relocate<C: RtpCore + ?Sized>(
    core: &mut C,
    router: &mut Router,
    new_origin: RowCol,
) -> Result<()> {
    replace_with(core, router, |c| c.set_origin(new_origin))
}

/// Replace-in-place flow for run-time parameter changes (§3.3's constant
/// multiplier example): apply `change`, then re-implement the core.
///
/// Two paths, chosen only by comparing wiring:
/// * **Wiring kept.** The core is placed and `change` leaves its
///   [`Wiring`] equal to the one on the device (a new constant rewrites
///   LUT contents only). Then `implement` alone runs: it writes the LUT
///   masks that changed, and every route, port binding and net it would
///   make is already there. No connection is unrouted.
/// * **Wiring changed** (a move, or a core not yet placed). The core is
///   detached (its port connections unrouted and remembered) and
///   removed, then `implement` rebinds the ports, which re-routes the
///   remembered connections.
pub fn replace_with<C: RtpCore + ?Sized>(
    core: &mut C,
    router: &mut Router,
    change: impl FnOnce(&mut C),
) -> Result<()> {
    change(core);
    if !core.state().is_placed_with(core.design().wiring()) {
        detach(core, router)?;
        core.remove(router)?;
    }
    core.implement(router)
}
