//! The `Router`: the JRoute API surface.
//!
//! Implements every call of paper §3 over the simulated device:
//!
//! | paper call                                   | method                  |
//! |----------------------------------------------|-------------------------|
//! | `route(row, col, from, to)`                  | [`Router::route_pip`]   |
//! | `route(Path)`                                | [`Router::route_path`]  |
//! | `route(Pin, wire, Template)`                 | [`Router::route_template`] |
//! | `route(EndPoint, EndPoint)`                  | [`Router::route`]       |
//! | `route(EndPoint, EndPoint[])`                | [`Router::route_fanout`]|
//! | `route(EndPoint[], EndPoint[])`              | [`Router::route_bus`]   |
//! | `unroute(EndPoint)`                          | [`Router::unroute`]     |
//! | `reverseUnroute(EndPoint)`                   | [`Router::reverse_unroute`] |
//! | `trace(EndPoint)`                            | [`Router::trace`]       |
//! | `reverseTrace(EndPoint)`                     | [`Router::reverse_trace`] |
//! | `isOn(row, col, wire)`                       | [`Router::is_on`]       |
//!
//! The router owns the [`Bitstream`] but deliberately exposes it
//! ([`Router::bits`], [`Router::bits_mut`]): *"The JRoute API extensions
//! provide automated routing support, while not prohibiting JBits
//! calls."* (§4). State configured behind the router's back is still
//! protected against contention because every router mutation re-checks
//! the bitstream, not just its own net database.

mod template_match;

use crate::endpoint::{EndPoint, Pin, PortId};
use crate::error::{NetId, Result, RouteError};
use crate::maze::{MazeConfig, MazeScratch};
use crate::net::{Net, NetDb};
use crate::path::Path;
use crate::ports::{PortDb, PortDir};
use crate::stats::{ResourceUsage, RouterStats};
use crate::steiner;
use crate::template::Template;
use crate::templates_db;
use crate::trace::{self, Hop, TracedNet};
use crate::unroute;
use jbits::{Bitstream, Pip};
use jroute_obs::{Counter, Recorder, Report};
use std::sync::Arc;
use template_match::{TemplateMatcher, TEMPLATE_BUDGET};
use virtex::segment::Tap;
use virtex::{Device, RowCol, Segment, Wire};

/// Router behaviour knobs.
#[derive(Debug, Clone)]
pub struct RouterOptions {
    /// Let auto-routing use long lines (default off, matching the paper's
    /// initial implementation; experiment E9 measures the difference).
    pub use_long_lines: bool,
    /// Try predefined templates before falling back to the maze router in
    /// point-to-point auto-routing (§3.1's suggested fast path).
    pub use_templates_first: bool,
    /// Node-expansion budget per maze search.
    pub max_maze_nodes: usize,
}

impl Default for RouterOptions {
    fn default() -> Self {
        RouterOptions {
            use_long_lines: false,
            use_templates_first: true,
            max_maze_nodes: 2_000_000,
        }
    }
}

/// A remembered endpoint-level connection whose resources were unrouted
/// (paper §3.3: *"The port connections are removed, but are
/// remembered."*).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Remembered {
    /// Source endpoint of the unrouted connection.
    pub source: EndPoint,
    /// Sink endpoint of the unrouted connection.
    pub sink: EndPoint,
}

/// Forwards raw-JBits configuration traffic into the recorder, so even
/// writes made behind the router's back (via [`Router::bits_mut`]) show
/// up in the telemetry.
struct PipTap {
    set: Counter,
    cleared: Counter,
}

impl jbits::ConfigObserver for PipTap {
    fn pip_set(&self, _rc: RowCol, _pip: Pip) {
        self.set.inc();
    }

    fn pip_cleared(&self, _rc: RowCol, _pip: Pip) {
        self.cleared.inc();
    }
}

/// The JRoute router for one device.
pub struct Router {
    device: Device,
    bits: Bitstream,
    nets: NetDb,
    ports: PortDb,
    scratch: MazeScratch,
    matcher: TemplateMatcher,
    opts: RouterOptions,
    stats: RouterStats,
    remembered: Vec<Remembered>,
    obs: Recorder,
}

impl Drop for Router {
    fn drop(&mut self) {
        self.scratch.hand_on();
    }
}

impl Router {
    /// Router over a blank configuration of `device`. The observability
    /// recorder starts in the `JROUTE_OBS` environment state (disabled
    /// unless `JROUTE_OBS=1`); see [`Router::set_recorder`].
    pub fn new(device: &Device) -> Self {
        Self::with_options(device, RouterOptions::default())
    }

    /// Router with explicit options.
    pub fn with_options(device: &Device, opts: RouterOptions) -> Self {
        let mut r = Router {
            device: *device,
            bits: Bitstream::new(device),
            nets: NetDb::new(device.seg_space()),
            ports: PortDb::new(),
            scratch: MazeScratch::new(device),
            matcher: TemplateMatcher::default(),
            opts,
            stats: RouterStats::default(),
            remembered: Vec::new(),
            obs: Recorder::disabled(),
        };
        r.set_recorder(Recorder::from_env());
        r
    }

    /// The router's observability recorder.
    pub fn recorder(&self) -> &Recorder {
        &self.obs
    }

    /// Install a recorder (e.g. `Recorder::enabled()` to start
    /// collecting). An enabled recorder also taps raw JBits writes via
    /// the bitstream's [`jbits::ConfigObserver`] hook; a disabled one
    /// detaches the tap so the hot path is back to a `None` branch.
    pub fn set_recorder(&mut self, rec: Recorder) {
        let tap = rec.is_enabled().then(|| {
            Arc::new(PipTap {
                set: rec.counter("jbits.pips_set"),
                cleared: rec.counter("jbits.pips_cleared"),
            }) as Arc<dyn jbits::ConfigObserver>
        });
        self.bits.set_observer(tap);
        self.obs = rec;
    }

    /// Snapshot the telemetry collected so far, with the cumulative
    /// [`RouterStats`] gauges and the live resource census published
    /// into it (so the JSON export is self-contained).
    pub fn obs_report(&self) -> Report {
        let mut report = self.obs.report();
        if report.enabled {
            self.stats.publish(&mut report);
            self.resource_usage().publish(&mut report);
        }
        report
    }

    /// The device being routed.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Read access to the configuration (JBits level).
    pub fn bits(&self) -> &Bitstream {
        &self.bits
    }

    /// Raw JBits access. Router-level contention protection still applies
    /// to subsequent router calls (they consult the bitstream), but raw
    /// writes themselves are unchecked — exactly the JBits contract.
    pub fn bits_mut(&mut self) -> &mut Bitstream {
        &mut self.bits
    }

    /// The net database.
    pub fn nets(&self) -> &NetDb {
        &self.nets
    }

    /// Activity counters.
    pub fn stats(&self) -> &RouterStats {
        &self.stats
    }

    /// Current options.
    pub fn options(&self) -> &RouterOptions {
        &self.opts
    }

    /// Mutable options (e.g. toggling long lines between routes).
    pub fn options_mut(&mut self) -> &mut RouterOptions {
        &mut self.opts
    }

    /// Per-class census of segments used by live nets.
    pub fn resource_usage(&self) -> ResourceUsage {
        ResourceUsage::from_netdb(&self.nets)
    }

    /// Remembered (unrouted) port connections awaiting reconnection.
    pub fn remembered(&self) -> &[Remembered] {
        &self.remembered
    }

    fn seg(&self, rc: RowCol, wire: Wire) -> Result<Segment> {
        self.device
            .canonicalize(rc, wire)
            .ok_or(RouteError::NoSuchWire { rc, wire })
    }

    fn maze_config(&self) -> MazeConfig {
        MazeConfig {
            use_long_lines: self.opts.use_long_lines,
            max_nodes: self.opts.max_maze_nodes,
            ..MazeConfig::default()
        }
    }

    // ----------------------------------------------------------------
    // Ports (§3.2)
    // ----------------------------------------------------------------

    /// Define a port bound to `targets` (pins or inner ports).
    pub fn define_port(
        &mut self,
        name: impl Into<String>,
        group: impl Into<String>,
        dir: PortDir,
        targets: Vec<EndPoint>,
    ) -> PortId {
        self.ports.define(name, group, dir, targets)
    }

    /// The paper's `getPorts()`: all ports of a group, in bit order.
    pub fn get_ports(&self, group: &str) -> Vec<PortId> {
        self.ports.get_ports(group)
    }

    /// Port registry (read access).
    pub fn ports(&self) -> &PortDb {
        &self.ports
    }

    /// Rebind a port to new targets (core replaced or relocated, §3.3)
    /// and automatically re-route any remembered connections that involve
    /// it: *"If the ports are reused, then they will be automatically
    /// connected to the new core."*
    pub fn rebind_port(&mut self, id: PortId, targets: Vec<EndPoint>) -> Result<usize> {
        self.ports.rebind(id, targets)?;
        self.reconnect_involving(Some(id))
    }

    /// Attempt to re-route every remembered connection (returns how many
    /// succeeded). Failures stay remembered.
    pub fn reconnect_ports(&mut self) -> Result<usize> {
        self.reconnect_involving(None)
    }

    fn reconnect_involving(&mut self, filter: Option<PortId>) -> Result<usize> {
        let mentions = |r: &Remembered, id: PortId| {
            r.source == EndPoint::Port(id) || r.sink == EndPoint::Port(id)
        };
        let pending: Vec<Remembered> = match filter {
            Some(id) => {
                let (take, keep) = self.remembered.drain(..).partition(|r| mentions(r, id));
                self.remembered = keep;
                take
            }
            None => self.remembered.drain(..).collect(),
        };
        let mut ok = 0usize;
        for r in pending {
            match self.route(&r.source, &r.sink) {
                Ok(()) => ok += 1,
                Err(_) => self.remembered.push(r),
            }
        }
        Ok(ok)
    }

    // ----------------------------------------------------------------
    // Level 1: single connections (§3.1 route(row, col, from, to))
    // ----------------------------------------------------------------

    /// Turn on the single connection `from -> to` in CLB `(row, col)`.
    ///
    /// *"This call allows the user to make a single connection (i.e. the
    /// user decides the path). This can be useful in cases where there is
    /// a real time constraint..."*
    pub fn route_pip(&mut self, rc: RowCol, from: Wire, to: Wire) -> Result<()> {
        let _span = self.obs.span("router.route_pip");
        let from_seg = self.seg(rc, from)?;
        self.net_for_source(Pin::at(rc, from), from_seg, |r, net| {
            r.route_pip_on_net(net, rc, from, to).map(drop)
        })
    }

    /// Paper-flavoured convenience: `route(row, col, from, to)`.
    pub fn route_rc(&mut self, row: u16, col: u16, from: Wire, to: Wire) -> Result<()> {
        self.route_pip(RowCol::new(row, col), from, to)
    }

    /// Run `configure` on the net that owns the source segment `seg`,
    /// creating a net rooted at `pin` when none does. A net created here
    /// that a failed call leaves without a PIP is removed again, so a
    /// call that configures nothing leaves no empty net behind.
    fn net_for_source(
        &mut self,
        pin: Pin,
        seg: Segment,
        configure: impl FnOnce(&mut Self, NetId) -> Result<()>,
    ) -> Result<()> {
        if let Some(id) = self.nets.owner(seg) {
            return configure(self, id);
        }
        let id = self.nets.create(pin, seg)?;
        let done = configure(self, id);
        if done.is_err() && self.nets.net(id).is_some_and(|n| n.pips.is_empty()) {
            self.nets.remove_net(id);
        } else {
            self.stats.nets_created += 1;
        }
        done
    }

    /// Contention-checked PIP set on behalf of `net`. Returns whether the
    /// configuration bit actually changed (false when re-claiming a PIP
    /// the net already owns).
    fn route_pip_on_net(&mut self, net: NetId, rc: RowCol, from: Wire, to: Wire) -> Result<bool> {
        let target = self.seg(rc, to)?;
        // Net-level ownership check.
        if let Some(owner) = self.nets.owner(target) {
            if owner != net {
                self.stats.contention_rejections += 1;
                return Err(RouteError::Contention {
                    segment: target,
                    owner: Some(owner),
                });
            }
        }
        // Bitstream-level check: the segment must not be driven by any
        // *other* PIP (covers raw-JBits state and bi-directional wires
        // driven from the far end — §3.4's protection).
        for (drc, dpip) in self.bits.segment_drivers(target) {
            if !(drc == rc && dpip.from == from && dpip.to == to) {
                self.stats.contention_rejections += 1;
                return Err(RouteError::Contention {
                    segment: target,
                    owner: self.nets.owner(target),
                });
            }
        }
        let changed = self.bits.set_pip(rc, from, to)?;
        if changed {
            self.stats.pips_set += 1;
        }
        self.nets.add_pip(net, rc, Pip::new(from, to), target)?;
        if to.is_clb_input() {
            self.nets.add_sink(net, Pin::at(rc, to));
        }
        Ok(changed)
    }

    /// Commit a list of PIPs to `net`, rolling the bitstream back on any
    /// failure (so a failed auto-route leaves no debris). Only PIPs this
    /// commit actually turned on are rolled back — ones shared with an
    /// earlier branch of the same net stay configured.
    fn commit_pips(&mut self, net: NetId, pips: &[(RowCol, Pip)]) -> Result<()> {
        let mut newly_set: Vec<(RowCol, Pip)> = Vec::new();
        let mut err = None;
        for &(rc, pip) in pips {
            match self.route_pip_on_net(net, rc, pip.from, pip.to) {
                Ok(changed) => {
                    if changed {
                        newly_set.push((rc, pip));
                    }
                }
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        if let Some(e) = err {
            let dev = self.device;
            for &(rc, pip) in newly_set.iter().rev() {
                let _ = self.bits.clear_pip(rc, pip.from, pip.to);
                if let Some(target) = dev.canonicalize(rc, pip.to) {
                    self.nets.remove_pip(net, rc, pip, target);
                }
                self.stats.pips_cleared += 1;
            }
            return Err(e);
        }
        Ok(())
    }

    /// `isOn` (§3.4): whether the wire in CLB `(row, col)` is currently in
    /// use (driven, or known to a live net).
    pub fn is_on(&self, rc: RowCol, wire: Wire) -> Result<bool> {
        let seg = self.seg(rc, wire)?;
        Ok(self.nets.is_used(seg) || self.bits.is_segment_driven(seg))
    }

    // ----------------------------------------------------------------
    // Level 2: paths (§3.1 route(Path))
    // ----------------------------------------------------------------

    /// Route an explicit [`Path`]: turn on all the connections it defines.
    pub fn route_path(&mut self, path: &Path) -> Result<()> {
        let mut span = self.obs.span("router.route_path");
        span.note(path.wires().len() as u64);
        let wires = path.wires();
        if wires.is_empty() {
            return Ok(());
        }
        let mut cur = self.seg(path.start(), wires[0])?;
        self.net_for_source(Pin::at(path.start(), wires[0]), cur, |r, net| {
            let mut taps: Vec<Tap> = Vec::with_capacity(4);
            for &next in &wires[1..] {
                taps.clear();
                virtex::segment::taps(r.device.dims(), cur, &mut taps);
                let arch = *r.device.arch();
                let hop = taps
                    .iter()
                    .find(|t| arch.pip_exists(t.rc, t.wire, next))
                    .copied()
                    .ok_or(RouteError::PathDisconnected {
                        at: cur.rc,
                        from: cur.wire,
                        to: next,
                    })?;
                r.route_pip_on_net(net, hop.rc, hop.wire, next)?;
                cur = r.seg(hop.rc, next)?;
            }
            Ok(())
        })
    }

    // ----------------------------------------------------------------
    // Level 3: templates (§3.1 route(Pin, wire, Template))
    // ----------------------------------------------------------------

    /// Route from `start` to `end_wire` following `template`: *"the user
    /// specifies a template and the router picks the wires."*
    pub fn route_template(
        &mut self,
        start: Pin,
        end_wire: Wire,
        template: &Template,
    ) -> Result<()> {
        let mut span = self.obs.span("router.route_template");
        span.note(template.len() as u64);
        let start_seg = self.seg(start.rc, start.wire)?;
        let end_rc = template
            .end_tile(start.rc, self.device.dims())
            .ok_or(RouteError::TemplateOffChip)?;
        let goal = self.seg(end_rc, end_wire)?;
        self.net_for_source(start, start_seg, |r, net| {
            r.stats.template_attempts += 1;
            let pips = r
                .template_search(start_seg, goal, template)
                .ok_or(RouteError::TemplateExhausted)?;
            r.commit_pips(net, &pips)?;
            r.stats.template_successes += 1;
            Ok(())
        })
    }

    /// Depth-first template matcher, per §3.1: at each step consider the
    /// wires the current wire drives, keep those whose template value
    /// matches and which are not in use, and descend with the rest of the
    /// template. Backtracking is budgeted ([`TEMPLATE_BUDGET`] nodes):
    /// long templates on congested fabric would otherwise backtrack
    /// exponentially, and the intended behaviour (§3.1) is to fail fast
    /// and fall back to the maze.
    ///
    /// **Memo and budget replay.** The nets and the bitstream are frozen
    /// during a search, so whether the subtree below `(segment, depth)`
    /// holds a match, and what a full search of it costs, depend on that
    /// pair alone. A subtree that fails with budget left was searched in
    /// full; its cost is recorded, and a later visit charges that cost
    /// (saturating at zero) and fails without searching. The plain
    /// search does exactly that on the same visit: it searches the
    /// subtree again at the same cost, or runs out of budget inside it.
    /// So the first path found and the budget spent, and with them every
    /// [`RouterStats`] counter and every maze fallback, are those of the
    /// plain search, which the unit tests keep as the oracle.
    fn template_search(
        &mut self,
        start: Segment,
        goal: Segment,
        template: &Template,
    ) -> Option<Vec<(RowCol, Pip)>> {
        let mut matcher = std::mem::take(&mut self.matcher);
        let mut budget = TEMPLATE_BUDGET;
        let found = matcher.search(self, start, goal, template.values(), &mut budget);
        self.matcher = matcher;
        found
    }

    // ----------------------------------------------------------------
    // Levels 4-6: auto-routing (§3.1)
    // ----------------------------------------------------------------

    /// Auto-route a single source to a single sink
    /// (`route(EndPoint, EndPoint)`). Tries the predefined templates
    /// first, then falls back to the maze router, per §3.1.
    pub fn route(&mut self, source: &EndPoint, sink: &EndPoint) -> Result<()> {
        let _span = self.obs.span("router.route");
        let src_pins = self.resolve(source)?;
        let sink_pins = self.resolve(sink)?;
        let src = src_pins[0];
        let seg = self.seg(src.rc, src.wire)?;
        self.net_for_source(src, seg, |r, net| {
            for s in &sink_pins {
                r.route_one(net, src, *s, r.opts.use_templates_first)?;
            }
            r.nets.add_intent(net, *source, *sink);
            Ok(())
        })
    }

    /// Auto-route one source to several sinks
    /// (`route(EndPoint, EndPoint[])`): *"Each sink gets routed in order
    /// of increasing distance from the source. For each sink, the router
    /// attempts to reuse the previous paths as much as possible."*
    ///
    /// Every sink is checked before anything is searched, and the tree
    /// is committed only once it reaches them all: a sink held by
    /// another net, or one no search reaches, leaves the configuration
    /// as it was.
    pub fn route_fanout(&mut self, source: &EndPoint, sinks: &[EndPoint]) -> Result<()> {
        let mut span = self.obs.span("router.route_fanout");
        span.note(sinks.len() as u64);
        let src_pins = self.resolve(source)?;
        let src = src_pins[0];
        // Resolve all sinks, keeping their endpoint for port memory.
        let mut resolved: Vec<(Pin, EndPoint)> = Vec::new();
        for ep in sinks {
            for pin in self.resolve(ep)? {
                resolved.push((pin, *ep));
            }
        }
        resolved.sort_by_key(|(pin, _)| pin.rc.manhattan(src.rc));
        let src_seg = self.seg(src.rc, src.wire)?;
        self.net_for_source(src, src_seg, |r, net| {
            let mut goals = Vec::with_capacity(resolved.len());
            for (pin, _) in &resolved {
                let goal = r.seg(pin.rc, pin.wire)?;
                if !r.sink_reached(net, goal)? && !goals.contains(&goal) {
                    goals.push(goal);
                }
            }
            r.grow_net(net, src_seg, &goals)?;
            for (pin, ep) in resolved {
                r.nets.add_sink(net, pin);
                r.nets.add_intent(net, *source, ep);
            }
            Ok(())
        })
    }

    /// Bus routing (`route(EndPoint[], EndPoint[])`): connect
    /// `sources[i] -> sinks[i]` for every `i`. *"the user would not need
    /// to connect each bit of the bus"* (§3.1).
    pub fn route_bus(&mut self, sources: &[EndPoint], sinks: &[EndPoint]) -> Result<()> {
        let mut span = self.obs.span("router.route_bus");
        span.note(sources.len() as u64);
        if sources.len() != sinks.len() {
            return Err(RouteError::BusWidthMismatch {
                sources: sources.len(),
                sinks: sinks.len(),
            });
        }
        for (s, k) in sources.iter().zip(sinks) {
            self.route(s, k)?;
        }
        Ok(())
    }

    /// Route one sink for `net`, optionally trying templates first.
    fn route_one(&mut self, net: NetId, src: Pin, sink: Pin, templates: bool) -> Result<()> {
        let goal = self.seg(sink.rc, sink.wire)?;
        if self.sink_reached(net, goal)? {
            return Ok(());
        }
        let src_seg = self.seg(src.rc, src.wire)?;

        if templates {
            let cands = templates_db::candidates(src.rc, src.wire, sink.rc, sink.wire);
            for t in &cands {
                self.stats.template_attempts += 1;
                if let Some(pips) = self.template_search(src_seg, goal, t) {
                    // A template path can still lose a race against state
                    // the search could not see (commit re-checks the
                    // bitstream); treat that as a template failure and
                    // keep trying — the maze is the final fallback.
                    if self.commit_pips(net, &pips).is_ok() {
                        self.stats.template_successes += 1;
                        self.nets.add_sink(net, sink);
                        return Ok(());
                    }
                }
            }
            self.stats.maze_fallbacks += 1;
        }

        self.grow_net(net, src_seg, &[goal])?;
        self.nets.add_sink(net, sink);
        Ok(())
    }

    /// Whether `net` already reaches the sink `goal` (`Ok(false)`: the
    /// sink is free). A sink held by another net, or driven by
    /// configuration made behind the router's back, is an error.
    fn sink_reached(&mut self, net: NetId, goal: Segment) -> Result<bool> {
        if let Some(owner) = self.nets.owner(goal) {
            if owner != net {
                return Err(RouteError::ResourceInUse {
                    segment: goal,
                    owner: Some(owner),
                });
            }
            return Ok(true);
        }
        if self.bits.is_segment_driven(goal) {
            self.stats.contention_rejections += 1;
            return Err(RouteError::Contention {
                segment: goal,
                owner: None,
            });
        }
        Ok(false)
    }

    /// Grow `net` from `src` to every goal through [`steiner::grow`] and
    /// commit the tree, or nothing. Every segment already on the net is
    /// a zero-cost start; at criticality zero arrival times price
    /// nothing, so the seed leaves them at zero.
    fn grow_net(&mut self, net: NetId, src: Segment, goals: &[Segment]) -> Result<()> {
        let dev = self.device;
        let mut seed = vec![(src, 0)];
        if let Some(n) = self.nets.net(net) {
            seed.extend(
                n.pips
                    .iter()
                    .filter_map(|&(rc, pip)| Some((dev.canonicalize(rc, pip.to)?, 0))),
            );
        }
        let cfg = self.maze_config();
        let tree = {
            let nets = &self.nets;
            let bits = &self.bits;
            steiner::grow(
                &dev,
                &seed,
                goals,
                &[],
                &cfg,
                |seg| match nets.owner(seg) {
                    Some(o) => o != net,
                    None => bits.is_segment_driven(seg),
                },
                |_| 0,
                &mut self.scratch,
                &self.obs,
            )
        };
        let tree = tree.map_err(|i| {
            self.stats.maze_searches += i + 1;
            RouteError::Unroutable {
                from: src,
                to: goals[i],
            }
        })?;
        self.stats.maze_searches += goals.len();
        self.stats.maze_nodes_expanded += tree.nodes_expanded;
        self.commit_pips(net, &tree.pips)
    }

    /// Resolve an endpoint to physical pins (ports flatten, §3.2).
    pub fn resolve(&self, ep: &EndPoint) -> Result<Vec<Pin>> {
        let mut pins = Vec::new();
        self.ports.resolve(ep, &mut pins)?;
        if pins.is_empty() {
            return Err(RouteError::EmptyEndpoint);
        }
        Ok(pins)
    }

    // ----------------------------------------------------------------
    // Unrouting (§3.3)
    // ----------------------------------------------------------------

    /// Forward unroute: remove the entire net driven by `source`
    /// (`unroute(EndPoint source)`). Returns the number of PIPs cleared.
    /// Port-level connection intents are remembered for reconnection.
    pub fn unroute(&mut self, source: &EndPoint) -> Result<usize> {
        let mut span = self.obs.span("router.unroute");
        let pins = self.resolve(source)?;
        let seg = self.seg(pins[0].rc, pins[0].wire)?;
        self.remember_intents_of(seg);
        let n = unroute::unroute_forward(&mut self.bits, &mut self.nets, seg)?;
        self.stats.pips_cleared += n;
        span.note(n as u64);
        Ok(n)
    }

    /// Reverse unroute: free only the branch that feeds `sink`
    /// (`reverseUnroute(EndPoint sink)`). Returns the number of PIPs
    /// cleared.
    pub fn reverse_unroute(&mut self, sink: &EndPoint) -> Result<usize> {
        let mut span = self.obs.span("router.reverse_unroute");
        let pins = self.resolve(sink)?;
        let mut total = 0usize;
        for pin in pins {
            let seg = self.seg(pin.rc, pin.wire)?;
            total += unroute::reverse_unroute(&mut self.bits, &mut self.nets, seg)?;
        }
        self.stats.pips_cleared += total;
        span.note(total as u64);
        Ok(total)
    }

    /// Reverse-unroute the branch feeding `sink`, remembering the
    /// endpoint-level intents of the owning net so the connection can be
    /// re-made after a core replacement (§3.3). Returns PIPs cleared.
    pub fn unroute_sink(&mut self, sink: &EndPoint) -> Result<usize> {
        let pins = self.resolve(sink)?;
        let mut total = 0usize;
        for pin in pins {
            let seg = self.seg(pin.rc, pin.wire)?;
            if let Some(id) = self.nets.owner(seg) {
                if let Some(net) = self.nets.net(id) {
                    let source = net.source;
                    self.remember_intents_of(source);
                }
            }
            total += unroute::reverse_unroute(&mut self.bits, &mut self.nets, seg)?;
        }
        self.stats.pips_cleared += total;
        Ok(total)
    }

    fn remember_intents_of(&mut self, source: Segment) {
        let Some(id) = self.nets.owner(source) else {
            return;
        };
        if let Some(net) = self.nets.net(id) {
            for &(s, k) in &net.intents {
                let involves_port =
                    matches!(s, EndPoint::Port(_)) || matches!(k, EndPoint::Port(_));
                let r = Remembered { source: s, sink: k };
                if involves_port && !self.remembered.contains(&r) {
                    self.remembered.push(r);
                }
            }
        }
    }

    /// Unroute a whole net by id (used by core replacement flows).
    pub fn unroute_net(&mut self, id: NetId) -> Result<usize> {
        let Some(net) = self.nets.net(id) else {
            return Ok(0);
        };
        let source = net.source;
        self.remember_intents_of(source);
        let net: Net = self.nets.remove_net(id).expect("net exists");
        for &(rc, pip) in &net.pips {
            self.bits.clear_pip(rc, pip.from, pip.to)?;
            self.stats.pips_cleared += 1;
        }
        Ok(net.pips.len())
    }

    // ----------------------------------------------------------------
    // Debug (§3.5)
    // ----------------------------------------------------------------

    /// Trace a source to all of its sinks; the entire net is returned.
    pub fn trace(&self, source: &EndPoint) -> Result<TracedNet> {
        let mut span = self.obs.span("router.trace");
        let pins = self.resolve(source)?;
        let seg = self.seg(pins[0].rc, pins[0].wire)?;
        let net = trace::trace(&self.bits, seg);
        span.note(net.segments.len() as u64);
        Ok(net)
    }

    /// Trace a sink back to its source; only the branch leading to the
    /// sink is returned.
    pub fn reverse_trace(&self, sink: &EndPoint) -> Result<(Vec<Hop>, Segment)> {
        let mut span = self.obs.span("router.reverse_trace");
        let pins = self.resolve(sink)?;
        let seg = self.seg(pins[0].rc, pins[0].wire)?;
        let (hops, src) =
            trace::reverse_trace(&self.bits, seg).ok_or(RouteError::NoSuchNet { segment: seg })?;
        span.note(hops.len() as u64);
        Ok((hops, src))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use virtex::{wire, Device, Dir, Family, TemplateValue as T};

    fn router() -> Router {
        Router::new(&Device::new(Family::Xcv50))
    }

    #[test]
    fn level1_paper_example_manual_route() {
        // §3.1 worked example, verbatim.
        let mut r = router();
        r.route_rc(5, 7, wire::S1_YQ, wire::out(1)).unwrap();
        r.route_rc(5, 7, wire::out(1), wire::single(Dir::East, 5))
            .unwrap();
        r.route_rc(
            5,
            8,
            wire::single_end(Dir::East, 5),
            wire::single(Dir::North, 0),
        )
        .unwrap();
        r.route_rc(6, 8, wire::single_end(Dir::North, 0), wire::S0_F3)
            .unwrap();
        assert_eq!(r.stats().pips_set, 4);
        assert_eq!(r.nets().len(), 1);
        let net = r.trace(&Pin::new(5, 7, wire::S1_YQ).into()).unwrap();
        assert_eq!(net.sinks, vec![Pin::new(6, 8, wire::S0_F3)]);
        assert!(r
            .is_on(RowCol::new(5, 7), wire::single(Dir::East, 5))
            .unwrap());
        assert!(!r
            .is_on(RowCol::new(5, 7), wire::single(Dir::East, 6))
            .unwrap());
    }

    #[test]
    fn level2_path_route_matches_paper_example() {
        let mut r = router();
        let p = Path::new(
            5,
            7,
            vec![
                wire::S1_YQ,
                wire::out(1),
                wire::single(Dir::East, 5),
                wire::single(Dir::North, 0),
                wire::S0_F3,
            ],
        );
        r.route_path(&p).unwrap();
        let net = r.trace(&Pin::new(5, 7, wire::S1_YQ).into()).unwrap();
        assert_eq!(net.sinks, vec![Pin::new(6, 8, wire::S0_F3)]);
        assert_eq!(net.pips.len(), 4);
    }

    #[test]
    fn level2_disconnected_path_is_rejected() {
        let mut r = router();
        let p = Path::new(5, 7, vec![wire::S1_YQ, wire::single(Dir::East, 5)]);
        let err = r.route_path(&p).unwrap_err();
        assert!(matches!(err, RouteError::PathDisconnected { .. }));
    }

    #[test]
    fn level3_template_route_matches_paper_example() {
        let mut r = router();
        let t = Template::new(vec![T::OutMux, T::East1, T::North1, T::ClbIn]);
        r.route_template(Pin::new(5, 7, wire::S1_YQ), wire::S0_F3, &t)
            .unwrap();
        let net = r.trace(&Pin::new(5, 7, wire::S1_YQ).into()).unwrap();
        assert_eq!(net.sinks, vec![Pin::new(6, 8, wire::S0_F3)]);
        // Template route uses exactly template-length pips.
        assert_eq!(net.pips.len(), 4);
    }

    #[test]
    fn level3_template_failure_is_template_exhausted() {
        let mut r = router();
        // A template demanding a LONGH step from a non-access tile fails.
        let t = Template::new(vec![T::OutMux, T::LongH, T::ClbIn]);
        let err = r
            .route_template(Pin::new(5, 7, wire::S1_YQ), wire::S0_F3, &t)
            .unwrap_err();
        assert!(matches!(err, RouteError::TemplateExhausted));
        assert_eq!(r.stats().template_attempts, 1);
        assert_eq!(r.stats().template_successes, 0);
        // Walking off the chip is detected before searching.
        let t = Template::new(vec![T::OutMux, T::South6, T::ClbIn]);
        let err = r
            .route_template(Pin::new(2, 7, wire::S1_YQ), wire::S0_F3, &t)
            .unwrap_err();
        assert!(matches!(err, RouteError::TemplateOffChip));
        assert_eq!(r.stats().template_attempts, 1, "off-chip is not an attempt");
        // A user template far longer than any predefined one (hundreds
        // of steps, back and forth) is searched like any other; the
        // search backtracks into subtrees it has already seen fail and
        // replays them from its memo.
        r.set_recorder(Recorder::enabled());
        let mut steps = vec![T::OutMux];
        for _ in 0..150 {
            steps.extend([T::East1, T::West1]);
        }
        steps.push(T::ClbIn);
        let err = r
            .route_template(
                Pin::new(5, 7, wire::S1_YQ),
                wire::S0_F3,
                &Template::new(steps),
            )
            .unwrap_err();
        assert!(matches!(err, RouteError::TemplateExhausted));
        assert_eq!(r.stats().template_attempts, 2);
        let report = r.obs_report();
        let nodes = report.counter("template.nodes").unwrap_or(0);
        assert!(nodes > 0 && nodes < TEMPLATE_BUDGET as u64, "nodes {nodes}");
        assert!(report.counter("template.replayed").unwrap_or(0) > 0);
    }

    #[test]
    fn level4_auto_route_point_to_point() {
        let mut r = router();
        let src: EndPoint = Pin::new(5, 7, wire::S1_YQ).into();
        let sink: EndPoint = Pin::new(6, 8, wire::S0_F3).into();
        r.route(&src, &sink).unwrap();
        let net = r.trace(&src).unwrap();
        assert_eq!(net.sinks, vec![Pin::new(6, 8, wire::S0_F3)]);
        // The fast path should have been a predefined template, no maze.
        assert_eq!(r.stats().maze_searches, 0);
        assert!(r.stats().template_successes >= 1);
    }

    #[test]
    fn level4_auto_route_falls_back_to_maze() {
        let mut r = router();
        *r.options_mut() = RouterOptions {
            use_templates_first: false,
            ..Default::default()
        };
        let src: EndPoint = Pin::new(1, 1, wire::S0_YQ).into();
        let sink: EndPoint = Pin::new(12, 20, wire::S1_F1).into();
        r.route(&src, &sink).unwrap();
        assert_eq!(r.stats().maze_searches, 1);
        let net = r.trace(&src).unwrap();
        assert_eq!(net.sinks, vec![Pin::new(12, 20, wire::S1_F1)]);
    }

    #[test]
    fn level5_fanout_reuses_tree() {
        let mut r = router();
        let src: EndPoint = Pin::new(4, 4, wire::S0_YQ).into();
        let sinks: Vec<EndPoint> = vec![
            Pin::new(4, 10, wire::S0_F3).into(),
            Pin::new(5, 10, wire::S1_F1).into(),
            Pin::new(4, 11, wire::slice_in(0, 1)).into(),
        ];
        r.route_fanout(&src, &sinks).unwrap();
        let net = r.trace(&src).unwrap();
        assert_eq!(net.sinks.len(), 3);
        // One net owns everything.
        assert_eq!(r.nets().len(), 1);
    }

    #[test]
    fn level5_fanout_commits_the_whole_tree_or_nothing() {
        let mut r = router();
        // Another net owns the farthest sink.
        let taken: EndPoint = Pin::new(4, 16, wire::S0_F3).into();
        r.route(&Pin::new(2, 16, wire::S1_YQ).into(), &taken)
            .unwrap();
        let (pips, searches) = (r.bits().on_pip_count(), r.stats().maze_searches);
        let (nets, created) = (r.nets().len(), r.stats().nets_created);
        let src: EndPoint = Pin::new(4, 4, wire::S0_YQ).into();
        let sinks: Vec<EndPoint> = vec![
            Pin::new(4, 8, wire::S0_F3).into(),
            Pin::new(5, 9, wire::S1_F1).into(),
            taken,
        ];
        let err = r.route_fanout(&src, &sinks).unwrap_err();
        assert!(matches!(err, RouteError::ResourceInUse { .. }), "{err:?}");
        assert_eq!(r.bits().on_pip_count(), pips, "no branch was left behind");
        assert_eq!(r.stats().maze_searches, searches, "nothing was searched");
        assert_eq!(r.nets().len(), nets, "no empty net was left behind");
        assert_eq!(r.stats().nets_created, created);
        let err = r.route(&src, &taken).unwrap_err();
        assert!(matches!(err, RouteError::ResourceInUse { .. }), "{err:?}");
        assert_eq!(r.nets().len(), nets);
        assert_eq!(r.stats().nets_created, created);
    }

    #[test]
    fn level6_bus_routes_pairwise_and_checks_width() {
        let mut r = router();
        let sources: Vec<EndPoint> = (0..4)
            .map(|i| Pin::new(2 + i, 2, wire::S0_YQ).into())
            .collect();
        let sinks: Vec<EndPoint> = (0..4)
            .map(|i| Pin::new(2 + i, 6, wire::S0_F3).into())
            .collect();
        r.route_bus(&sources, &sinks).unwrap();
        assert_eq!(r.nets().len(), 4);
        let err = r.route_bus(&sources, &sinks[..2]).unwrap_err();
        assert!(matches!(
            err,
            RouteError::BusWidthMismatch {
                sources: 4,
                sinks: 2
            }
        ));
    }

    #[test]
    fn contention_is_rejected_with_exception() {
        // §3.4: driving an in-use wire throws.
        let mut r = router();
        r.route_rc(5, 7, wire::S1_YQ, wire::out(1)).unwrap();
        r.route_rc(5, 7, wire::out(1), wire::single(Dir::East, 5))
            .unwrap();
        // S0_X (k=0) also reaches OUT[0] and OUT[2]... use another driver
        // of SINGLE_E[5]: OUT[1] is its OMUX driver; drive from a hex tap
        // instead must be refused.
        let mut drivers = Vec::new();
        r.device()
            .arch()
            .pips_into(RowCol::new(5, 7), wire::single(Dir::East, 5), &mut drivers);
        let other = drivers.into_iter().find(|w| *w != wire::out(1)).unwrap();
        let err = r
            .route_pip(RowCol::new(5, 7), other, wire::single(Dir::East, 5))
            .unwrap_err();
        assert!(matches!(err, RouteError::Contention { .. }));
        assert_eq!(r.stats().contention_rejections, 1);
    }

    #[test]
    fn router_protects_against_raw_jbits_state() {
        // Configure a driver behind the router's back; the router must
        // still refuse to double-drive.
        let mut r = router();
        r.bits_mut()
            .set_pip(RowCol::new(5, 7), wire::out(1), wire::single(Dir::East, 5))
            .unwrap();
        r.route_rc(5, 7, wire::S1_YQ, wire::out(1)).unwrap();
        let mut drivers = Vec::new();
        r.device()
            .arch()
            .pips_into(RowCol::new(5, 7), wire::single(Dir::East, 5), &mut drivers);
        let other = drivers.into_iter().find(|w| *w != wire::out(1)).unwrap();
        let err = r
            .route_pip(RowCol::new(5, 7), other, wire::single(Dir::East, 5))
            .unwrap_err();
        assert!(matches!(err, RouteError::Contention { .. }));
    }

    #[test]
    fn unroute_frees_resources_for_reuse() {
        let mut r = router();
        let src: EndPoint = Pin::new(5, 7, wire::S1_YQ).into();
        let sink: EndPoint = Pin::new(6, 8, wire::S0_F3).into();
        r.route(&src, &sink).unwrap();
        let used = r.nets().used_segments();
        assert!(used > 0);
        let cleared = r.unroute(&src).unwrap();
        assert!(cleared >= 4);
        assert_eq!(r.nets().used_segments(), 0);
        assert_eq!(r.bits().on_pip_count(), 0);
        // Resources are reusable: route again.
        r.route(&src, &sink).unwrap();
    }

    #[test]
    fn ports_route_and_reconnect_after_rebind() {
        let mut r = router();
        // A "core" output port at (2,2) and an input port at (2,6).
        let out_port = r.define_port(
            "q",
            "core_a",
            PortDir::Output,
            vec![Pin::new(2, 2, wire::S0_YQ).into()],
        );
        let in_port = r.define_port(
            "d",
            "core_b",
            PortDir::Input,
            vec![Pin::new(2, 6, wire::S0_F3).into()],
        );
        r.route(&out_port.into(), &in_port.into()).unwrap();
        assert_eq!(r.trace(&out_port.into()).unwrap().sinks.len(), 1);

        // Replace core_a: unroute, rebind its port to a new location, and
        // the connection is automatically re-made (§3.3).
        r.unroute(&out_port.into()).unwrap();
        assert_eq!(r.bits().on_pip_count(), 0);
        assert_eq!(r.remembered().len(), 1);
        let reconnected = r
            .rebind_port(out_port, vec![Pin::new(4, 2, wire::S1_YQ).into()])
            .unwrap();
        assert_eq!(reconnected, 1);
        assert!(r.remembered().is_empty());
        let net = r.trace(&out_port.into()).unwrap();
        assert_eq!(net.sinks, vec![Pin::new(2, 6, wire::S0_F3)]);
    }

    #[test]
    fn reverse_trace_via_router() {
        let mut r = router();
        let src: EndPoint = Pin::new(5, 7, wire::S1_YQ).into();
        let sink: EndPoint = Pin::new(6, 8, wire::S0_F3).into();
        r.route(&src, &sink).unwrap();
        let (hops, found) = r.reverse_trace(&sink).unwrap();
        assert!(!hops.is_empty());
        assert_eq!(
            found,
            r.device()
                .canonicalize(RowCol::new(5, 7), wire::S1_YQ)
                .unwrap()
        );
    }

    #[test]
    fn resource_usage_census() {
        let mut r = router();
        r.route(
            &Pin::new(2, 2, wire::S0_YQ).into(),
            &Pin::new(10, 14, wire::S0_F3).into(),
        )
        .unwrap();
        let u = r.resource_usage();
        assert!(u.total() > 0);
        assert!(u.hexes > 0, "a 20-CLB route should use hexes: {u}");
        assert_eq!(u.longs, 0, "long lines are off by default");
    }
}
