//! `server_open`: `svc::serve` with two XCV300 tenants in
//! `ExecMode::Threaded` on a shared pool of two threads, fed by one
//! open-loop generator thread on a fixed schedule: four climbs through
//! the rates below the knee, then one ascent up to and past it. The mix
//! is 60% route (fan-out 3, span 4), 20% unroute and 20% replace; each
//! tenant's live set is capped, and unroute/replace victims are drawn
//! only from admissions already confirmed routed. A new net never
//! shares a pin with a net its tenant holds or may still hold, so no
//! request loses to a taken pin, and the admission queues are deep
//! enough that none is refused: no request fails. Every request is
//! timed from the moment it was due until its `Ticket` turns terminal.
//!
//! Templates and PathFinder are never called.

use crate::ledger::{
    median, ms, peak_rss_mb, quantile, timed, CheckResult, Ledger, Metrics, RunOutput,
};
use crate::Args;
use detrand::DetRng;
use jbits::Bitstream;
use jroute::pathfinder::NetSpec;
use jroute::{Pin, Recorder};
use jroute_svc::model::SequentialModel;
use jroute_svc::server::{serve, ServerConfig, ServerReport};
use jroute_svc::{ExecMode, RequestKind, RequestOutcome, ServerOutcome, TenantHandle, Ticket};
use jroute_timing::analyze_net;
use jroute_workloads::fanout_spec;
use std::collections::{HashMap, HashSet, VecDeque};
use std::time::{Duration, Instant};
use virtex::{Device, Family, Lookahead, RowCol};

const TENANTS: usize = 2;
const POOL: usize = 2;
/// Rates below the knee (requests per second) and each rate's share of
/// the run. They are climbed `ROUNDS` times, each share split evenly:
/// every rate samples the machine early and late in the run, so a slow
/// stretch of the host moves a few windows, not a whole rate.
const ROUNDS_LADDER: &[(u32, f64)] = &[(500, 1.0), (1000, 5.0), (1500, 0.75)];
const ROUNDS: usize = 4;
/// Rates up to and past the knee, climbed once at the end, so the
/// backlog they may leave never reaches a lower rate.
const ASCENT: &[(u32, f64)] = &[(2000, 1.0), (2500, 0.5), (3000, 0.5)];
/// Share of `--seconds` the ladder takes; the rest is drain and checks.
const LADDER_SHARE: f64 = 0.8;
/// Routed admissions a tenant keeps live; at the cap, routes turn into
/// unroutes or replaces.
const LIVE_CAP: usize = 48;
/// Nets a tenant may hold, confirmed or not; at the cap, the generator
/// waits for a confirmed one to unroute or replace. The cap bounds how
/// densely a tenant's device is routed, so no route meets a dead end
/// even when a slow host lets a backlog build, and it leaves more than
/// nine in ten of the 1,380 sources a spec draws from free, so
/// pin-disjoint specs turn up within a few draws.
const HELD_CAP: usize = 128;
/// Longest the generator waits for a tenant to confirm a net.
const STALL: Duration = Duration::from_secs(30);
/// Sinks per routed net, and how far (in CLBs) they lie from the source.
const FANOUT: usize = 3;
const SPAN: u16 = 4;
/// A rate is sustained when p99 stays within this and the backlog at
/// the step's end is under this much work.
const LIMIT_MS: f64 = 50.0;
/// The ladder rate whose latency is the end-to-end `op_*` figure.
const REFERENCE_RATE: u32 = 1000;
/// Latency quantiles are taken per window of this many seconds.
const WINDOW_S: f64 = 0.5;
/// The `op_*` figures are this quantile over the windows of the
/// reference rate. On a shared host a window in which the host stalled
/// the virtual CPUs reads high, so a low quantile tracks the server
/// rather than its neighbours; the unfiltered per-rate percentiles are
/// in the per-layer table.
const WINDOW_QUANTILE: f64 = 0.1;
/// The critical path is read back after every this many successful
/// requests of a tenant's log; `crit_path_ps` is the median over those
/// states, not the end state alone, whose few dozen nets make its
/// maximum vary from run to run.
const CRIT_EVERY: usize = 500;
/// Extra set-ups timed after the ladder; `setup_s` is the median of all.
const SETUPS: usize = 30;

fn server_cfg() -> ServerConfig {
    ServerConfig {
        threads: POOL,
        tenant_threads: 1,
        mode: ExecMode::Threaded,
        audit: false,
        // Deep enough that no step of the ladder is ever refused: a
        // slow stretch of the machine shows as latency, not as failures.
        queue_capacity: 1 << 16,
        ..ServerConfig::default()
    }
}

/// A net of `FANOUT` sinks within `SPAN` CLBs of a random interior CLB.
fn draw_spec(dev: &Device, rng: &mut DetRng) -> NetSpec {
    let d = dev.dims();
    let source = RowCol::new(rng.gen_range(1..d.rows - 1), rng.gen_range(1..d.cols - 1));
    fanout_spec(dev, source, FANOUT, SPAN, rng)
}

/// One scheduled request, generated from the seed before the run.
#[derive(Clone)]
struct Planned {
    tenant: usize,
    /// 0..100: < 60 route, < 80 unroute, else replace.
    roll: u32,
    spec: NetSpec,
    victim_rank: usize,
    /// Seeds the replacement specs drawn when `spec` shares a pin with
    /// a net the tenant holds.
    alt_seed: u64,
}

/// The seeded schedule: per step `(rate, due offsets)`, the ladder
/// `ROUNDS` times over, and one planned request per due time.
struct Schedule {
    steps: Vec<(u32, Vec<Duration>)>,
    planned: Vec<Planned>,
}

fn schedule(dev: &Device, seed: u64, seconds: u64) -> Schedule {
    let mut rng = DetRng::seed_from_u64(seed);
    let total_w: f64 = ROUNDS_LADDER.iter().chain(ASCENT).map(|&(_, w)| w).sum();
    let scale = seconds as f64 * LADDER_SHARE / total_w;
    let rounds = ROUNDS_LADDER.iter().map(|&(r, w)| (r, w / ROUNDS as f64));
    let ladder: Vec<(u32, f64)> = rounds.cycle().take(ROUNDS_LADDER.len() * ROUNDS).collect();
    let mut steps = Vec::new();
    let mut planned = Vec::new();
    let mut t = 0.0;
    for (rate, w) in ladder.into_iter().chain(ASCENT.iter().copied()) {
        let n = (rate as f64 * w * scale).round() as usize;
        let dues = (0..n)
            .map(|i| Duration::from_secs_f64(t + i as f64 / rate as f64))
            .collect();
        t += n as f64 / rate as f64;
        steps.push((rate, dues));
        for _ in 0..n {
            planned.push(Planned {
                tenant: rng.gen_range(0..TENANTS),
                roll: rng.gen_range(0..100u32),
                spec: draw_spec(dev, &mut rng),
                victim_rank: rng.gen_range(0..1usize << 30),
                alt_seed: rng.next_u64(),
            });
        }
    }
    Schedule { steps, planned }
}

struct Pending {
    ticket: Ticket,
    due: Instant,
    step: usize,
    routes: bool,
    /// A `Replace` victim: still routed if the replace rolls back.
    victim: Option<u64>,
}

/// What the generator saw.
#[derive(Default)]
struct Observed {
    /// Per step: `(due time since the ladder start in s, latency in ms)`
    /// of every request that reached a terminal outcome.
    lat: Vec<Vec<(f64, f64)>>,
    /// Per step: refused (`QueueFull`) and failed (not a success).
    refused: Vec<u64>,
    failed: Vec<u64>,
    /// Per step: requests still outstanding when the step ended.
    backlog_end: Vec<usize>,
    /// How late each submission was against its due time (ms).
    late_ms: Vec<f64>,
    /// Duration of each `submit_with` call (µs).
    submit_us: Vec<f64>,
    /// Outcome counts by kind name.
    outcomes: HashMap<&'static str, u64>,
    /// Admission kinds, for the model replay: `(tenant, seq) -> kind`.
    kinds: HashMap<(usize, u64), RequestKind>,
    /// Ladder start to last terminal outcome.
    wall: Duration,
    /// Requests that never turned terminal before the drain deadline.
    stranded: usize,
}

fn outcome_name(o: &ServerOutcome) -> &'static str {
    match o {
        ServerOutcome::Poisoned => "poisoned",
        ServerOutcome::Done(r) => match r {
            RequestOutcome::Routed { .. } => "routed",
            RequestOutcome::Unrouted { .. } => "unrouted",
            RequestOutcome::Replaced { .. } => "replaced",
            RequestOutcome::Cancelled => "cancelled",
            RequestOutcome::Expired => "expired",
            RequestOutcome::Congested { .. } => "congested",
            RequestOutcome::Rejected(_) => "rejected",
        },
    }
}

/// The pins of `spec`.
fn pins(spec: &NetSpec) -> impl Iterator<Item = Pin> + '_ {
    std::iter::once(spec.source).chain(spec.sinks.iter().copied())
}

/// The net an admission asked for, if it routes one.
fn added(kind: &RequestKind) -> Option<&NetSpec> {
    match kind {
        RequestKind::Route(spec) => Some(spec),
        RequestKind::Replace { add, .. } => add.first(),
        RequestKind::Unroute(_) => None,
    }
}

struct Generator<'d> {
    dev: &'d Device,
    start: Instant,
    pending: Vec<VecDeque<Pending>>,
    live: Vec<Vec<u64>>,
    /// Per tenant: the pins of every net that is routed or may yet be,
    /// from submission until its removal is confirmed.
    held: Vec<HashSet<Pin>>,
    obs: Observed,
}

impl Generator<'_> {
    /// Retire every request at the head of a tenant's queue that has
    /// turned terminal (tickets of one tenant resolve in admission
    /// order).
    fn poll(&mut self) {
        let now = Instant::now();
        for t in 0..TENANTS {
            while let Some(outcome) = self.pending[t].front().and_then(|p| p.ticket.try_outcome()) {
                let p = self.pending[t].pop_front().expect("front exists");
                let due_s = (p.due - self.start).as_secs_f64();
                self.obs.lat[p.step].push((due_s, ms(now - p.due)));
                *self.obs.outcomes.entry(outcome_name(&outcome)).or_default() += 1;
                let kind = &self.obs.kinds[&(t, p.ticket.id())];
                let gone = if !outcome.is_success() {
                    self.obs.failed[p.step] += 1;
                    self.live[t].extend(p.victim);
                    added(kind)
                } else {
                    if p.routes {
                        self.live[t].push(p.ticket.id());
                    }
                    let victim = match kind {
                        RequestKind::Unroute(v) => Some(*v),
                        _ => p.victim,
                    };
                    victim.and_then(|v| added(&self.obs.kinds[&(t, v)]))
                };
                for pin in gone.into_iter().flat_map(pins) {
                    self.held[t].remove(&pin);
                }
            }
        }
    }

    fn outstanding(&self) -> usize {
        self.pending.iter().map(VecDeque::len).sum()
    }

    /// `plan`'s net, or if it shares a pin with a net tenant `t` holds,
    /// the first spec drawn from the plan's own seed that shares none.
    fn fresh_spec(&self, plan: &Planned) -> NetSpec {
        let held = &self.held[plan.tenant];
        let free = |spec: &NetSpec| pins(spec).all(|p| !held.contains(&p));
        if free(&plan.spec) {
            return plan.spec.clone();
        }
        let mut rng = DetRng::seed_from_u64(plan.alt_seed);
        // `HELD_CAP` keeps most pins free, so a free spec turns up
        // within a few draws.
        (0..10_000)
            .map(|_| draw_spec(self.dev, &mut rng))
            .find(free)
            .expect("a spec with free pins")
    }

    fn submit(&mut self, handles: &[TenantHandle], plan: &Planned, step: usize, due: Instant) {
        let t = plan.tenant;
        // Past the knee, routes pile up unconfirmed. Rather than hold
        // ever more pins, the generator waits for a confirmed net to
        // unroute or replace. The wait shows as lateness, and in the
        // latency, which runs from the due time.
        let nets = |g: &Self| g.held[t].len() / (1 + FANOUT);
        let waited = Instant::now();
        while nets(self) >= HELD_CAP && self.live[t].is_empty() {
            assert!(
                waited.elapsed() < STALL,
                "tenant {t} confirmed no net for {STALL:?}"
            );
            self.poll();
            std::thread::sleep(Duration::from_micros(200));
        }
        let class = if self.live[t].len() >= LIVE_CAP || nets(self) >= HELD_CAP {
            60 + plan.roll % 40
        } else {
            plan.roll
        };
        let kind = if class < 60 || self.live[t].is_empty() {
            RequestKind::Route(self.fresh_spec(plan))
        } else {
            let live = &mut self.live[t];
            let victim = live.swap_remove(plan.victim_rank % live.len());
            if class < 80 {
                RequestKind::Unroute(victim)
            } else {
                RequestKind::Replace {
                    remove: vec![victim],
                    add: vec![self.fresh_spec(plan)],
                }
            }
        };
        self.held[t].extend(added(&kind).into_iter().flat_map(pins));
        let routes = !matches!(kind, RequestKind::Unroute(_));
        let victim = match &kind {
            RequestKind::Replace { remove, .. } => remove.first().copied(),
            _ => None,
        };
        let t0 = Instant::now();
        self.obs.late_ms.push(ms(t0.saturating_duration_since(due)));
        let admitted = handles[t].submit_with(kind.clone(), 128, None);
        self.obs.submit_us.push(t0.elapsed().as_secs_f64() * 1e6);
        match admitted {
            Ok(ticket) => {
                self.obs.kinds.insert((t, ticket.id()), kind);
                self.pending[t].push_back(Pending {
                    ticket,
                    due,
                    step,
                    routes,
                    victim,
                });
            }
            Err(_) => {
                self.obs.refused[step] += 1;
                self.live[t].extend(victim);
                for pin in added(&kind).into_iter().flat_map(pins) {
                    self.held[t].remove(&pin);
                }
            }
        }
    }
}

/// Drive the schedule against a running server.
fn generate(
    dev: &Device,
    handles: &[TenantHandle],
    sched: &Schedule,
    drain_deadline: Duration,
) -> Observed {
    let n_steps = sched.steps.len();
    let start = Instant::now();
    let mut g = Generator {
        dev,
        start,
        pending: (0..TENANTS).map(|_| VecDeque::new()).collect(),
        live: vec![Vec::new(); TENANTS],
        held: vec![HashSet::new(); TENANTS],
        obs: Observed {
            lat: vec![Vec::new(); n_steps],
            refused: vec![0; n_steps],
            failed: vec![0; n_steps],
            backlog_end: vec![0; n_steps],
            ..Observed::default()
        },
    };
    let mut planned = sched.planned.iter();
    for (step, (_, dues)) in sched.steps.iter().enumerate() {
        for &offset in dues {
            let due = start + offset;
            loop {
                g.poll();
                let now = Instant::now();
                if now >= due {
                    break;
                }
                std::thread::sleep((due - now).min(Duration::from_micros(200)));
            }
            let plan = planned.next().expect("one plan per due time");
            g.submit(handles, plan, step, due);
        }
        g.poll();
        g.obs.backlog_end[step] = g.outstanding();
    }
    let deadline = Instant::now() + drain_deadline;
    while g.outstanding() > 0 && Instant::now() < deadline {
        g.poll();
        std::thread::sleep(Duration::from_micros(200));
    }
    g.obs.wall = start.elapsed();
    g.obs.stranded = g.outstanding();
    for p in g.pending.iter().flatten() {
        p.ticket.cancel_token().cancel();
    }
    g.obs
}

/// Build the inputs and start an idle server; return the inputs and
/// the time until the client closure runs.
fn setup(args: &Args, rec: &Recorder) -> (Vec<Device>, Schedule, f64) {
    let t0 = Instant::now();
    let (devices, _) = timed(rec, "virtex.device_new", || {
        (0..TENANTS)
            .map(|_| Device::new(Family::Xcv300))
            .collect::<Vec<_>>()
    });
    timed(rec, "virtex.lookahead", || {
        Lookahead::get(devices[0].dims())
    });
    let (sched, _) = timed(rec, "workloads.gen", || {
        schedule(&devices[0], args.seed, args.seconds)
    });
    let refs: Vec<&Device> = devices.iter().collect();
    let (started, _) = serve(&refs, server_cfg(), Recorder::disabled(), |_| t0.elapsed());
    (devices, sched, started.as_secs_f64())
}

/// Readback over every net `model` holds: check that each sink is
/// reached and return the critical path in ps.
fn readback_crit(dev: &Device, model: &SequentialModel) -> Result<u64, String> {
    let mut bits = Bitstream::new(dev);
    for net in model.db().iter() {
        for &(rc, pip) in &net.pips {
            bits.set_pip(rc, pip.from, pip.to)
                .map_err(|e| format!("{e:?}"))?;
        }
    }
    let mut crit = 0;
    for net in model.db().iter() {
        let timing = analyze_net(&bits, net.source);
        for sink in &net.sinks {
            if !timing.sink_delays.iter().any(|(p, _)| p == sink) {
                return Err(format!("readback does not reach {sink:?}"));
            }
        }
        crit = crit.max(timing.max_delay());
    }
    Ok(crit)
}

/// The correctness gate: no poisoned tenant, every admission terminal,
/// each tenant's census equal to a `SequentialModel` replay of its own
/// log, and readback reaching every sink of the replayed nets, every
/// `CRIT_EVERY` successful entries and at the end. Returns `(median
/// critical path over those states in ps, segments held at the end)`.
fn check(
    devices: &[Device],
    obs: &Observed,
    report: &ServerReport,
) -> Result<(f64, usize), String> {
    if obs.stranded > 0 {
        return Err(format!("{} admissions never turned terminal", obs.stranded));
    }
    let mut crits = Vec::new();
    let mut segments = 0;
    for (t, tr) in report.tenants.iter().enumerate() {
        if tr.poisoned {
            return Err(format!("tenant {t} poisoned"));
        }
        let admitted = obs.kinds.keys().filter(|&&(k, _)| k == t).count();
        if tr.outcomes.len() != admitted {
            return Err(format!(
                "tenant {t}: {} outcomes for {admitted} admissions",
                tr.outcomes.len()
            ));
        }
        let dev = &devices[t];
        let readback = |model: &SequentialModel| {
            readback_crit(dev, model).map_err(|e| format!("tenant {t}: {e}"))
        };
        let mut model = SequentialModel::new(dev, server_cfg().maze);
        let mut applied = 0;
        for entry in &tr.log {
            if tr.outcome(entry.seq).is_some_and(ServerOutcome::is_success) {
                model.apply(entry.seq, &obs.kinds[&(t, entry.seq)]);
                applied += 1;
                if applied % CRIT_EVERY == 0 {
                    crits.push(readback(&model)? as f64);
                }
            }
        }
        if model.db().census() != tr.census {
            return Err(format!(
                "tenant {t}: census differs from the sequential replay of its log"
            ));
        }
        crits.push(readback(&model)? as f64);
        segments += tr.census.len();
    }
    Ok((median(&crits), segments))
}

/// One ladder pass with `rec` on the server.
fn pass(devices: &[Device], sched: &Schedule, rec: &Recorder) -> (Observed, ServerReport) {
    let refs: Vec<&Device> = devices.iter().collect();
    serve(&refs, server_cfg(), rec.clone(), |client| {
        let handles: Vec<TenantHandle> = (0..TENANTS).map(|t| client.tenant(t as u16)).collect();
        generate(&devices[0], &handles, sched, Duration::from_secs(60))
    })
}

struct Summary {
    /// Per ladder rate, over all its steps: rate, p50, p99, sustained.
    steps: Vec<(u32, f64, f64, bool)>,
    max_rate: u32,
    attempted: u64,
    failed: u64,
}

/// The indices of the ladder steps at `rate`.
fn steps_at(sched: &Schedule, rate: u32) -> impl Iterator<Item = usize> + '_ {
    (0..sched.steps.len()).filter(move |&i| sched.steps[i].0 == rate)
}

fn summarize(sched: &Schedule, obs: &Observed) -> Summary {
    let mut steps = Vec::new();
    let mut max_rate = 0;
    let mut ok_so_far = true;
    for &(rate, _) in ROUNDS_LADDER.iter().chain(ASCENT) {
        let of_rate: Vec<usize> = steps_at(sched, rate).collect();
        let sum = |v: &[u64]| of_rate.iter().map(|&i| v[i]).sum::<u64>();
        let (sent, failed, refused) = (
            of_rate
                .iter()
                .map(|&i| sched.steps[i].1.len())
                .sum::<usize>(),
            sum(&obs.failed),
            sum(&obs.refused),
        );
        let backlog = of_rate
            .iter()
            .map(|&i| obs.backlog_end[i])
            .max()
            .unwrap_or(0);
        let lat: Vec<f64> = of_rate
            .iter()
            .flat_map(|&i| obs.lat[i].iter().map(|&(_, l)| l))
            .collect();
        let (p50, p99) = if lat.is_empty() {
            (f64::INFINITY, f64::INFINITY)
        } else {
            (quantile(&lat, 0.5), quantile(&lat, 0.99))
        };
        let sustained =
            p99 <= LIMIT_MS && refused == 0 && (backlog as f64) <= rate as f64 * LIMIT_MS / 1e3;
        ok_so_far &= sustained;
        if ok_so_far {
            max_rate = rate;
        }
        eprintln!(
            "server_open {rate:>5} req/s: {sent:>5} sent, p50 {p50:>8.2} ms, p99 {p99:>8.2} ms, p50/p95 of windows: median {:>6.2}/{:>6.2} ms, low {:>6.2}/{:>6.2} ms, failed {failed}, refused {refused}, worst backlog at a step's end {backlog}{}",
            windowed_quantile(sched, obs, rate, 0.5, 0.5),
            windowed_quantile(sched, obs, rate, 0.95, 0.5),
            windowed_quantile(sched, obs, rate, 0.5, WINDOW_QUANTILE),
            windowed_quantile(sched, obs, rate, 0.95, WINDOW_QUANTILE),
            if sustained { "" } else { "  (not sustained)" }
        );
        steps.push((rate, p50, p99, sustained));
    }
    Summary {
        steps,
        max_rate,
        attempted: sched.planned.len() as u64,
        failed: obs.failed.iter().chain(&obs.refused).sum(),
    }
}

fn step_of(s: &Summary, rate: u32) -> (f64, f64) {
    s.steps
        .iter()
        .find(|st| st.0 == rate)
        .map_or((f64::NAN, f64::NAN), |st| (st.1, st.2))
}

/// The `q` latency quantile of each `WINDOW_S` window of every `rate`
/// step, over windows of at least 200 requests (ten beyond a p95).
fn window_quantiles(sched: &Schedule, obs: &Observed, rate: u32, q: f64) -> Vec<f64> {
    let mut windows: Vec<Vec<f64>> = Vec::new();
    for i in steps_at(sched, rate) {
        let start = sched.steps[i].1.first().map_or(0.0, Duration::as_secs_f64);
        let first = windows.len();
        for &(due, lat) in &obs.lat[i] {
            let w = first + ((due - start).max(0.0) / WINDOW_S) as usize;
            if windows.len() <= w {
                windows.resize(w + 1, Vec::new());
            }
            windows[w].push(lat);
        }
    }
    windows
        .iter()
        .filter(|w| w.len() >= 200)
        .map(|w| quantile(w, q))
        .collect()
}

/// The `over` quantile of `window_quantiles`. A run too short to fill a
/// window takes the `q` quantile over all of the rate's requests.
fn windowed_quantile(sched: &Schedule, obs: &Observed, rate: u32, q: f64, over: f64) -> f64 {
    let per_window = window_quantiles(sched, obs, rate, q);
    if !per_window.is_empty() {
        return quantile(&per_window, over);
    }
    let all: Vec<f64> = steps_at(sched, rate)
        .flat_map(|i| obs.lat[i].iter().map(|&(_, l)| l))
        .collect();
    if all.is_empty() {
        f64::NAN
    } else {
        quantile(&all, q)
    }
}

pub fn run(args: &Args) -> RunOutput {
    let quiet = Recorder::disabled();
    let ledger = args.trace.then(Ledger::new);
    let (devices, sched, first_setup) = setup(args, &quiet);
    let (obs, report) = pass(&devices, &sched, &quiet);
    // Set-up is timed again on a warm machine.
    let mut setups = vec![first_setup];
    for _ in 0..SETUPS {
        setups.push(setup(args, ledger.as_ref().map_or(&quiet, |l| l.recorder())).2);
    }
    let setup_s = median(&setups);
    let summary = summarize(&sched, &obs);
    let mut checked: CheckResult = Ok(());
    let (crit, segments) = check(&devices, &obs, &report).unwrap_or_else(|e| {
        checked = Err(e);
        (0.0, 0)
    });
    if let Err(e) = &checked {
        eprintln!("CHECK FAILED server_open: {e}");
    }
    eprintln!("server_open outcomes: {:?}", obs.outcomes);

    let mut e2e = Metrics::default();
    e2e.set("setup_s", setup_s, "s");
    e2e.set("wall_s", obs.wall.as_secs_f64(), "s");
    e2e.set(
        "op_p50_ms",
        windowed_quantile(&sched, &obs, REFERENCE_RATE, 0.5, WINDOW_QUANTILE),
        "ms",
    );
    e2e.set(
        "op_p95_ms",
        windowed_quantile(&sched, &obs, REFERENCE_RATE, 0.95, WINDOW_QUANTILE),
        "ms",
    );
    e2e.set("crit_path_ps", crit, "ps");
    e2e.set("wirelength_segs", segments as f64, "segs");
    e2e.set(
        "fail_frac",
        summary.failed as f64 / summary.attempted as f64,
        "frac",
    );
    e2e.set("peak_rss_mb", peak_rss_mb(), "MiB");
    for rate in [500, 2000] {
        let (p50, p99) = step_of(&summary, rate);
        e2e.set(&format!("req_p50_ms.r{rate}"), p50, "ms");
        e2e.set(&format!("req_p99_ms.r{rate}"), p99, "ms");
    }
    e2e.set("max_rate_rps", summary.max_rate as f64, "1/s");

    let mut layers = Metrics::default();
    if let Some(ledger) = ledger {
        let (tobs, treport) = pass(&devices, &sched, ledger.recorder());
        let tsum = summarize(&sched, &tobs);
        if let Err(e) = check(&devices, &tobs, &treport) {
            eprintln!("CHECK FAILED server_open (traced pass): {e}");
            checked = Err(e);
        }
        let t = ledger.finish();
        t.print(tobs.wall);
        let executed = t.counter("svc.executed");
        let batches = t.counter("svc.batches");
        for (name, v) in [
            ("svc.batches", batches as f64),
            ("svc.executed", executed as f64),
            ("svc.retries", t.counter("svc.retries") as f64),
            (
                "svc.congested",
                *tobs.outcomes.get("congested").unwrap_or(&0) as f64,
            ),
            ("svc.queue_full", tobs.refused.iter().sum::<u64>() as f64),
            ("maze.searches", t.counter("maze.searches") as f64),
            (
                "maze.nodes_expanded",
                t.hist_sum("maze.nodes_expanded") as f64,
            ),
            ("maze.open_pushes", t.counter("maze.open_pushes") as f64),
            (
                "bench.backlog_end",
                tobs.backlog_end.iter().copied().max().unwrap_or(0) as f64,
            ),
        ] {
            layers.set(name, v, "count");
        }
        layers.set(
            "svc.mean_batch",
            executed as f64 / batches.max(1) as f64,
            "req",
        );
        layers.set(
            "svc.retry_ratio",
            t.counter("svc.retries") as f64 / executed.max(1) as f64,
            "frac",
        );
        layers.set("svc.batch_ms", t.busy_ms("svc.batch"), "ms");
        layers.set("svc.exec_ms", t.busy_ms("svc.exec"), "ms");
        layers.set("svc.submit_p99_us", quantile(&tobs.submit_us, 0.99), "us");
        layers.set("maze.search_ms", t.busy_ms("maze.search"), "ms");
        layers.set(
            "maze.share",
            t.busy_ms("maze.search") / t.busy_ms("svc.batch").max(1e-9),
            "frac",
        );
        layers.set(
            "maze.ns_per_node",
            t.busy_ms("maze.search") * 1e6 / t.hist_sum("maze.nodes_expanded").max(1) as f64,
            "ns",
        );
        layers.set(
            "virtex.device_new_ms",
            t.busy_ms("virtex.device_new") / SETUPS as f64,
            "ms",
        );
        layers.set(
            "virtex.lookahead_ms",
            t.busy_ms("virtex.lookahead") / SETUPS as f64,
            "ms",
        );
        layers.set(
            "workloads.gen_ms",
            t.busy_ms("workloads.gen") / SETUPS as f64,
            "ms",
        );
        layers.set("bench.gen_late_p99_ms", quantile(&tobs.late_ms, 0.99), "ms");
        layers.set("bench.gen_late_max_ms", quantile(&tobs.late_ms, 1.0), "ms");
        let (p50_t, _) = step_of(&tsum, 1000);
        let (p50_u, _) = step_of(&summary, 1000);
        layers.set("obs.overhead_frac", p50_t / p50_u - 1.0, "frac");
    }
    RunOutput {
        correct: checked.is_ok(),
        attempted: summary.attempted,
        failed: summary.failed,
        e2e,
        layers,
    }
}
