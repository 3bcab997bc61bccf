//! The one routing engine: ordered, wave-parallel transactions over a
//! [`NetDb`].
//!
//! Paper §6 lists faster routing algorithms as future work; run-time
//! reconfiguration makes router latency part of application latency.
//! This module routes many nets concurrently without giving up either
//! the JRoute §3.4 invariant (committed state is always free of
//! contention) or determinism. It serves the batch service
//! (`jroute-svc`) and [`route_parallel`] (experiment E12) alike.
//!
//! A batch is a list of [`Job`]s in commit order. A job tears down some
//! committed nets and routes new ones, all or nothing, so a route, an
//! unroute and a replace are all jobs. The [`Engine`] runs a batch in
//! three steps:
//!
//! 1. **Plan.** Each job gets a box: the union of its nets' search
//!    regions ([`net_search_box`]) and the extent of its victims'
//!    segments. A job may search once every earlier job whose box
//!    overlaps its own is decided. The jobs that become ready together
//!    form a *wave*; their boxes are pairwise disjoint, and no earlier
//!    undecided job overlaps any of them.
//! 2. **Search.** A wave's jobs search in parallel ([`WaveExec`]) against
//!    the database as it stood when the wave started. Each net grows as
//!    one tree through [`steiner::grow`] ([`route_net`]). A job's
//!    victims read as free to its own searches; the nets of one job
//!    block each other.
//! 3. **Commit.** One thread decides the jobs strictly in order. A job
//!    changes the database only once every one of its nets has a path,
//!    so a failure needs no rollback.
//!
//! The committed state is exactly that of running the jobs one at a
//! time, in order, whatever the worker count.
//!
//! **Staleness rule.** A frozen search result is re-searched on the
//! commit thread, against live state, when a commit since the search
//! wrote (occupied or freed) a segment the search could read: a segment
//! whose origin lies inside its search region, any long line (long lines
//! are exempt from the region in [`maze`](crate::maze)), or one of its own terminals.
//! A search that fell back to the whole device reads everything, so any
//! write since makes it stale. Box-disjointness makes staleness rare, but
//! a net that fell back may leave its box, so exactness rests on this
//! rule and not on the plan.

use crate::error::{NetId, Result, RouteError};
use crate::maze::{MazeConfig, MazeScratch};
use crate::net::{Net, NetDb};
use crate::partition::{self, SearchBox};
use crate::pathfinder::{NetSpec, RoutedNet};
use crate::schedule::WaveExec;
use crate::steiner;
use jroute_obs::{Recorder, TraceCtx};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;
use virtex::{BBox, Device, Segment, WireKind};

/// The default search region for `spec`: its terminal bounding box plus
/// routing slack ([`partition::DEFAULT_MARGIN`] of detour room and hex
/// reach — see [`SearchBox::region`], the one canonical expansion).
pub fn net_search_box(dev: &Device, spec: &NetSpec) -> BBox {
    SearchBox::of_spec(spec).region(partition::DEFAULT_MARGIN, dev.dims())
}

/// Options for the parallel router.
#[derive(Debug, Clone)]
pub struct ParallelConfig {
    /// Worker threads.
    pub threads: usize,
    /// Maze options shared by all workers.
    pub maze: MazeConfig,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig {
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            maze: MazeConfig::default(),
        }
    }
}

/// Outcome of a parallel routing run.
#[derive(Debug)]
pub struct ParallelResult {
    /// Routed nets, in input order (failures omitted).
    pub nets: Vec<RoutedNet>,
    /// Indices of nets that could not be routed.
    pub failed: Vec<usize>,
    /// Search waves dispatched.
    pub waves: u64,
    /// Frozen results re-searched at commit under the staleness rule.
    pub researched: u64,
}

/// Why a net could not be routed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteFail {
    /// A terminal is taken, or no free path exists.
    NoPath,
    /// The net names a wire that does not exist on the device.
    BadWire,
}

/// One net's search outcome and the region the search read.
#[derive(Debug)]
pub struct NetRoute {
    /// The routed net, or why it has no route.
    pub net: std::result::Result<RoutedNet, RouteFail>,
    /// Region every search stayed in; `None` once a search fell back to
    /// the whole device.
    pub region: Option<BBox>,
}

/// Route `spec` around the segments `blocked` reports taken.
///
/// Every terminal is checked first, in order: a wire the device lacks
/// is [`RouteFail::BadWire`], a taken one [`RouteFail::NoPath`] (the
/// maze never blocked-checks its goal). The net then grows as one tree
/// through [`steiner::grow`] inside its region ([`net_search_box`], or
/// `maze.bbox` when the caller pins one); if that misses and the region
/// was not pinned, the whole net is grown again over the device, so
/// bounding can slow a route down but never lose one. This is the one
/// search policy of the engine and of the sequential model in
/// `jroute-svc`, which must take identical decisions.
pub fn route_net(
    dev: &Device,
    spec: &NetSpec,
    maze: &MazeConfig,
    blocked: impl Fn(Segment) -> bool,
    scratch: &mut MazeScratch,
    obs: &Recorder,
) -> NetRoute {
    let bounded = MazeConfig {
        bbox: Some(maze.bbox.unwrap_or_else(|| net_search_box(dev, spec))),
        ..maze.clone()
    };
    let mut region = bounded.bbox;
    let mut terminals = Vec::with_capacity(1 + spec.sinks.len());
    for pin in std::iter::once(&spec.source).chain(&spec.sinks) {
        let why = match dev.canonicalize(pin.rc, pin.wire) {
            None => RouteFail::BadWire,
            Some(seg) if blocked(seg) => RouteFail::NoPath,
            Some(seg) => {
                terminals.push(seg);
                continue;
            }
        };
        return NetRoute {
            net: Err(why),
            region,
        };
    }
    let grow = |cfg: &MazeConfig, scratch: &mut MazeScratch| {
        steiner::grow(
            dev,
            &[(terminals[0], 0)],
            &terminals[1..],
            &[],
            cfg,
            &blocked,
            |_| 0,
            scratch,
            obs,
        )
    };
    let mut tree = grow(&bounded, scratch);
    if tree.is_err() && maze.bbox.is_none() {
        obs.counter("parallel.bbox_fallbacks").inc();
        region = None;
        tree = grow(maze, scratch);
    }
    NetRoute {
        net: tree
            .map(|t| RoutedNet {
                spec: spec.clone(),
                pips: t.pips,
                segments: t.segments,
                sink_delays: t.sink_delays,
            })
            .map_err(|_| RouteFail::NoPath),
        region,
    }
}

/// Commit a routed net into `db` and return its id. Contention here
/// means the occupied set the net was searched against was wrong.
pub fn apply_net(dev: &Device, db: &mut NetDb, net: &RoutedNet) -> Result<NetId> {
    let pin = net.spec.source;
    let src = dev
        .canonicalize(pin.rc, pin.wire)
        .ok_or(RouteError::NoSuchWire {
            rc: pin.rc,
            wire: pin.wire,
        })?;
    let id = db.create(pin, src)?;
    for (&(rc, pip), &seg) in net.pips.iter().zip(&net.segments) {
        db.add_pip(id, rc, pip, seg)?;
    }
    for sink in &net.spec.sinks {
        db.add_sink(id, *sink);
    }
    Ok(id)
}

/// Every segment `net` owns: its source plus each PIP's target.
fn net_segments<'n>(dev: &Device, net: &'n Net) -> impl Iterator<Item = Segment> + 'n {
    let dims = dev.dims();
    std::iter::once(net.source).chain(
        net.pips
            .iter()
            .filter_map(move |&(rc, pip)| virtex::segment::canonicalize(dims, rc, pip.to)),
    )
}

/// When a job's searches give up early: a cancellation flag and a
/// wall-clock deadline, polled on every search probe.
#[derive(Debug, Clone, Copy, Default)]
pub struct Abandon<'a> {
    /// Give up once this flag is set.
    pub cancel: Option<&'a AtomicBool>,
    /// Give up at this instant.
    pub deadline: Option<Instant>,
}

impl Abandon<'_> {
    /// Whether the job should stop searching.
    #[inline]
    pub fn fired(&self) -> bool {
        self.cancel.is_some_and(|c| c.load(Ordering::Relaxed))
            || self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// One transaction of a batch: tear down `victims`, then route `specs`
/// over the freed resources — all or nothing.
#[derive(Debug)]
pub struct Job<'a> {
    /// Committed nets the job removes; free to its own searches.
    pub victims: Vec<NetId>,
    /// Nets the job routes, in order; each blocks the ones after it.
    pub specs: &'a [NetSpec],
    /// Causal context the job's search spans link to.
    pub ctx: TraceCtx,
    /// When the job's searches give up (cancellation and wall-clock
    /// deadlines in `jroute-svc`).
    pub abandon: Abandon<'a>,
}

/// What a committed job changed.
#[derive(Debug)]
pub struct Committed {
    /// Victims removed from the database.
    pub removed: Vec<NetId>,
    /// Nets created, in `specs` order.
    pub added: Vec<(NetId, RoutedNet)>,
}

/// Counters of one engine run.
#[derive(Debug, Default, Clone, Copy)]
pub struct EngineStats {
    /// Search waves dispatched.
    pub waves: u64,
    /// Frozen results re-searched at commit under the staleness rule.
    pub researched: u64,
}

/// A job's search, frozen until its commit.
struct Frozen {
    nets: std::result::Result<Vec<RoutedNet>, RouteFail>,
    /// Region each searched net read (`None` = the whole device).
    regions: Vec<Option<BBox>>,
    /// Journal length when the search ran.
    at: usize,
}

/// The batch engine. Build it over the batch's jobs, then decide every
/// job in order with [`Engine::commit`] or [`Engine::skip`]; searches
/// run in waves as the commit cursor makes jobs ready.
pub struct Engine<'a> {
    dev: &'a Device,
    maze: &'a MazeConfig,
    exec: WaveExec,
    obs: &'a Recorder,
    /// Name of the span each job search opens.
    span: &'static str,
    jobs: Vec<Option<Job<'a>>>,
    /// Per job, the last earlier job whose box overlaps its own; the job
    /// searches only once that one is decided.
    after: Vec<Option<usize>>,
    frozen: Vec<Option<Frozen>>,
    /// Every segment a commit of this batch occupied or freed, in order.
    journal: Vec<Segment>,
    /// Jobs decided so far — the commit cursor.
    decided: usize,
    stats: EngineStats,
}

impl<'a> Engine<'a> {
    /// Plan `jobs` (in commit order; `None` = a job decided without
    /// routing) against `db`, the state the batch starts from. Searches
    /// use `exec`'s workers and open one `span` per job search, linked
    /// to the job's context.
    pub fn new(
        dev: &'a Device,
        db: &NetDb,
        jobs: Vec<Option<Job<'a>>>,
        maze: &'a MazeConfig,
        exec: WaveExec,
        obs: &'a Recorder,
        span: &'static str,
    ) -> Self {
        let boxes: Vec<Option<BBox>> = jobs
            .iter()
            .map(|job| {
                let job = job.as_ref()?;
                let mut points = Vec::new();
                for spec in job.specs {
                    let r = maze.bbox.unwrap_or_else(|| net_search_box(dev, spec));
                    points.extend([r.min, r.max]);
                }
                for net in job.victims.iter().filter_map(|&v| db.net(v)) {
                    points.extend(net_segments(dev, net).map(|s| s.rc));
                }
                BBox::of(points)
            })
            .collect();
        let after = (0..jobs.len())
            .map(|m| {
                let bm = boxes[m]?;
                (0..m)
                    .rev()
                    .find(|&i| boxes[i].is_some_and(|bi| !partition::disjoint(bi, bm)))
            })
            .collect();
        let n = jobs.len();
        Engine {
            dev,
            maze,
            exec,
            obs,
            span,
            jobs,
            after,
            frozen: (0..n).map(|_| None).collect(),
            journal: Vec::new(),
            decided: 0,
            stats: EngineStats::default(),
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Decide job `k` — the next undecided one — without changing the
    /// database (it was cancelled, expired or rejected).
    pub fn skip(&mut self, k: usize) {
        assert_eq!(k, self.decided, "jobs are decided in order");
        self.decided += 1;
        self.jobs[k] = None;
        self.frozen[k] = None;
    }

    /// Commit job `k` — the next undecided one — into `db`. Its nets come
    /// from its wave search, re-searched against `db` if the staleness
    /// rule says so; if every net has a path, the victims are removed and
    /// the nets created. Otherwise `db` is unchanged and the error says
    /// why the first unroutable net failed.
    pub fn commit(
        &mut self,
        k: usize,
        db: &mut NetDb,
    ) -> std::result::Result<Committed, RouteFail> {
        assert_eq!(k, self.decided, "jobs are decided in order");
        let routes = self.jobs[k]
            .as_ref()
            .expect("commit of a planned job")
            .specs
            .len();
        if routes > 0 && self.frozen[k].is_none() {
            self.search_wave(db);
        }
        self.decided += 1;
        let job = self.jobs[k].take().expect("commit of a planned job");
        let nets = match self.frozen[k].take() {
            None => Ok(Vec::new()),
            Some(f) if !self.stale(&f, &job) => f.nets,
            Some(_) => {
                self.stats.researched += 1;
                let mut scratch = MazeScratch::new(self.dev);
                self.search(&job, db, &mut scratch, self.journal.len()).nets
            }
        }?;
        for &v in &job.victims {
            let net = db.remove_net(v).expect("victim net exists");
            self.journal.extend(net_segments(self.dev, &net));
        }
        let mut added = Vec::with_capacity(nets.len());
        for net in nets {
            let id = apply_net(self.dev, db, &net).expect("a validated search never contends");
            self.journal
                .extend(net_segments(self.dev, db.net(id).expect("just created")));
            added.push((id, net));
        }
        Ok(Committed {
            removed: job.victims,
            added,
        })
    }

    /// Search every job that is ready at the commit cursor — not yet
    /// searched, and with no undecided earlier job overlapping its box —
    /// in parallel against `db`.
    fn search_wave(&mut self, db: &NetDb) {
        let k = self.decided;
        let ready: Vec<usize> = (k..self.jobs.len())
            .filter(|&m| {
                self.frozen[m].is_none()
                    && self.jobs[m].as_ref().is_some_and(|j| !j.specs.is_empty())
                    && self.after[m].is_none_or(|d| d < k)
            })
            .collect();
        let at = self.journal.len();
        let this = &*self;
        let searched = this.exec.run_wave(
            &ready,
            || MazeScratch::new(this.dev),
            |scratch, m| {
                let job = this.jobs[m].as_ref().expect("ready job");
                this.search(job, db, scratch, at)
            },
        );
        self.stats.waves += 1;
        for (m, frozen) in ready.into_iter().zip(searched) {
            self.frozen[m] = Some(frozen);
        }
    }

    /// Route `job`'s nets against `db` with its victims free; `at` is
    /// the journal length `db` reflects.
    fn search(&self, job: &Job<'_>, db: &NetDb, scratch: &mut MazeScratch, at: usize) -> Frozen {
        let _span = self.obs.span_ctx(self.span, job.ctx);
        // Segments this job's earlier nets took.
        let mut taken: HashSet<Segment> = HashSet::new();
        let mut nets = Vec::with_capacity(job.specs.len());
        let mut regions = Vec::with_capacity(job.specs.len());
        for spec in job.specs {
            // The emptiness test skips hashing on every probe of a
            // single-net job.
            let blocked = |seg: Segment| {
                job.abandon.fired()
                    || (!taken.is_empty() && taken.contains(&seg))
                    || db.owner(seg).is_some_and(|o| !job.victims.contains(&o))
            };
            let r = route_net(self.dev, spec, self.maze, blocked, scratch, self.obs);
            regions.push(r.region);
            match r.net {
                Ok(net) => {
                    taken.extend(self.dev.canonicalize(spec.source.rc, spec.source.wire));
                    taken.extend(net.segments.iter().copied());
                    nets.push(net);
                }
                Err(why) => {
                    return Frozen {
                        nets: Err(why),
                        regions,
                        at,
                    }
                }
            }
        }
        Frozen {
            nets: Ok(nets),
            regions,
            at,
        }
    }

    /// The staleness rule (see the module docs).
    fn stale(&self, f: &Frozen, job: &Job<'_>) -> bool {
        let writes = &self.journal[f.at..];
        if writes.is_empty() {
            return false;
        }
        if f.regions.iter().any(Option::is_none) {
            return true;
        }
        let terminals: Vec<Segment> = job
            .specs
            .iter()
            .flat_map(|s| std::iter::once(&s.source).chain(&s.sinks))
            .filter_map(|p| self.dev.canonicalize(p.rc, p.wire))
            .collect();
        writes.iter().any(|w| {
            matches!(w.wire.kind(), WireKind::LongH(_) | WireKind::LongV(_))
                || terminals.contains(w)
                || f.regions.iter().flatten().any(|b| b.contains(w.rc))
        })
    }
}

/// Route `specs` using `cfg.threads` workers.
///
/// The result is exactly sequential routing in input order: each net
/// routes around every net before it. `failed` lists nets for which no
/// route existed at their turn.
pub fn route_parallel(dev: &Device, specs: &[NetSpec], cfg: &ParallelConfig) -> ParallelResult {
    route_parallel_obs(dev, specs, cfg, &Recorder::disabled())
}

/// [`route_parallel`] with observability: a `parallel.route` span over
/// the run, one `parallel.net` span per net search linked to it (wave
/// searches and commit-time re-searches alike), and `parallel.waves` /
/// `parallel.researched` / `parallel.nets_failed` counters.
pub fn route_parallel_obs(
    dev: &Device,
    specs: &[NetSpec],
    cfg: &ParallelConfig,
    obs: &Recorder,
) -> ParallelResult {
    let mut run_span = obs.span_root("parallel.route");
    run_span.note(specs.len() as u64);
    let ctx = run_span.ctx();
    let mut db = NetDb::new(dev.seg_space());
    let jobs = specs
        .iter()
        .map(|spec| {
            Some(Job {
                victims: Vec::new(),
                specs: std::slice::from_ref(spec),
                ctx,
                abandon: Abandon::default(),
            })
        })
        .collect();
    let exec = WaveExec {
        threads: cfg.threads,
    };
    let mut engine = Engine::new(dev, &db, jobs, &cfg.maze, exec, obs, "parallel.net");
    let mut nets = Vec::with_capacity(specs.len());
    let mut failed = Vec::new();
    for k in 0..specs.len() {
        match engine.commit(k, &mut db) {
            Ok(done) => nets.extend(done.added.into_iter().map(|(_, net)| net)),
            Err(_) => failed.push(k),
        }
    }
    let stats = engine.stats();
    obs.counter("parallel.waves").add(stats.waves);
    obs.counter("parallel.researched").add(stats.researched);
    obs.counter("parallel.nets_failed").add(failed.len() as u64);
    ParallelResult {
        nets,
        failed,
        waves: stats.waves,
        researched: stats.researched,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::Pin;
    use virtex::{wire, Device, Family};

    fn dev() -> Device {
        Device::new(Family::Xcv50)
    }

    fn grid_specs(n: usize) -> Vec<NetSpec> {
        (0..n)
            .map(|i| {
                let r = (2 + (i * 3) % 12) as u16;
                let c = (2 + (i * 5) % 16) as u16;
                NetSpec::new(
                    Pin::new(r, c, wire::S0_YQ),
                    vec![Pin::new(r + 2, c + 4, wire::S0_F3)],
                )
            })
            .collect()
    }

    #[test]
    fn parallel_routes_everything_sequential_can() {
        let dev = dev();
        let specs = grid_specs(10);
        let cfg = ParallelConfig {
            threads: 4,
            ..Default::default()
        };
        let r = route_parallel(&dev, &specs, &cfg);
        assert!(r.failed.is_empty(), "failed: {:?}", r.failed);
        assert_eq!(r.nets.len(), 10);
    }

    #[test]
    fn committed_nets_are_mutually_disjoint() {
        let dev = dev();
        let specs = grid_specs(12);
        let cfg = ParallelConfig {
            threads: 3,
            ..Default::default()
        };
        let r = route_parallel(&dev, &specs, &cfg);
        let mut seen = std::collections::HashSet::new();
        for net in &r.nets {
            for seg in &net.segments {
                assert!(seen.insert(*seg), "segment {seg} used twice");
            }
        }
    }

    #[test]
    fn single_thread_matches_multi_thread_coverage() {
        let dev = Device::new(Family::Xcv300);
        // Spread over the larger device so waves really run threaded.
        let specs: Vec<NetSpec> = (0..24)
            .map(|i| {
                let r = (2 + (i / 6) * 7) as u16;
                let c = (2 + (i % 6) * 7) as u16;
                NetSpec::new(
                    Pin::new(r, c, wire::S0_YQ),
                    vec![Pin::new(r + 2, c + 3, wire::S0_F3)],
                )
            })
            .collect();
        let run = |threads| {
            route_parallel(
                &dev,
                &specs,
                &ParallelConfig {
                    threads,
                    ..Default::default()
                },
            )
        };
        let (seq, par) = (run(1), run(4));
        assert_eq!(seq.failed, par.failed);
        assert_eq!(seq.waves, par.waves);
        assert_eq!(seq.researched, par.researched);
        let key = |r: &ParallelResult| -> Vec<Vec<Segment>> {
            r.nets.iter().map(|n| n.segments.clone()).collect()
        };
        assert_eq!(key(&seq), key(&par), "identical routes at every width");
        assert!(
            seq.waves < specs.len() as u64,
            "some waves hold several nets"
        );
    }

    fn route_free(
        dev: &Device,
        spec: &NetSpec,
        maze: &MazeConfig,
        blocked: impl Fn(Segment) -> bool,
        obs: &Recorder,
    ) -> NetRoute {
        route_net(dev, spec, maze, blocked, &mut MazeScratch::new(dev), obs)
    }

    #[test]
    fn a_sink_named_twice_costs_one_search() {
        let dev = dev();
        let sink = Pin::new(6, 10, wire::S0_F3);
        let spec = NetSpec::new(Pin::new(4, 4, wire::S0_YQ), vec![sink, sink]);
        let obs = Recorder::enabled();
        let r = route_free(&dev, &spec, &MazeConfig::default(), |_| false, &obs);
        let net = r.net.expect("routes");
        assert_eq!(obs.report().counter("maze.searches"), Some(1));
        assert_eq!(net.sink_delays.len(), 2);
        assert_eq!(net.sink_delays[0], net.sink_delays[1]);
    }

    #[test]
    fn a_bad_wire_after_an_unroutable_sink_is_reported_as_such() {
        let dev = dev();
        let src = Pin::new(4, 4, wire::S0_YQ);
        let sink = Pin::new(6, 10, wire::S0_F3);
        let spec = NetSpec::new(src, vec![sink, Pin::new(200, 200, wire::S0_F3)]);
        let terminals = [src, sink].map(|p| dev.canonicalize(p.rc, p.wire).unwrap());
        // Only the terminals are free: the first sink has no path.
        let obs = Recorder::enabled();
        let r = route_free(
            &dev,
            &spec,
            &MazeConfig::default(),
            |seg| !terminals.contains(&seg),
            &obs,
        );
        assert_eq!(r.net.unwrap_err(), RouteFail::BadWire);
        assert_eq!(obs.report().counter("maze.searches").unwrap_or(0), 0);
    }

    #[test]
    fn a_bounded_miss_regrows_the_whole_net_over_the_device() {
        let dev = Device::new(Family::Xcv300);
        let (src, sink) = (Pin::new(16, 10, wire::S0_YQ), Pin::new(16, 20, wire::S0_F3));
        let spec = NetSpec::new(src, vec![sink]);
        let region = net_search_box(&dev, &spec);
        assert!(!region.covers(dev.dims()));
        // Inside the region only the source and sink columns are free,
        // and no single or hex joins them there: the net must leave the
        // region (long lines, which ignore it, are off).
        let wall = |seg: Segment| {
            region.contains(seg.rc) && seg.rc.col != src.rc.col && seg.rc.col != sink.rc.col
        };
        let maze = MazeConfig {
            use_long_lines: false,
            ..Default::default()
        };
        let obs = Recorder::enabled();
        let r = route_free(&dev, &spec, &maze, wall, &obs);
        assert_eq!(r.region, None, "the net fell back to the whole device");
        assert_eq!(obs.report().counter("parallel.bbox_fallbacks"), Some(1));
        let net = r.net.expect("a detour outside the region exists");
        assert!(net.segments.iter().any(|s| !region.contains(s.rc)));
        assert!(net.segments.iter().all(|&s| !wall(s)));
        // Pinning the region forbids the fallback.
        let pinned = MazeConfig {
            bbox: Some(region),
            ..maze
        };
        let r = route_free(&dev, &spec, &pinned, wall, &Recorder::disabled());
        assert_eq!(r.net.unwrap_err(), RouteFail::NoPath);
        assert_eq!(r.region, Some(region));
    }

    #[test]
    fn result_applies_cleanly_to_a_bitstream() {
        let dev = dev();
        let specs = grid_specs(6);
        let r = route_parallel(
            &dev,
            &specs,
            &ParallelConfig {
                threads: 2,
                ..Default::default()
            },
        );
        let mut bits = jbits::Bitstream::new(&dev);
        for net in &r.nets {
            for &(rc, pip) in &net.pips {
                bits.set_pip(rc, pip.from, pip.to).unwrap();
            }
        }
        for net in &r.nets {
            for seg in &net.segments {
                assert!(bits.segment_drivers(*seg).count() <= 1);
            }
        }
    }
}
