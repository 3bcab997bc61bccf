//! Work distribution: per-worker work-stealing deques, the wave
//! executor the routing engine and the negotiated router dispatch
//! through, and the thread budget the multi-tenant server shares.
//!
//! The original parallel router fanned each round's pending nets out in
//! static chunks, one per worker. Net route times vary by orders of
//! magnitude (a template hit vs. a congested maze search), so chunking
//! leaves workers idle while the unlucky one drains its tail — the
//! ROADMAP E12 "work-stealing between workers" item. [`StealDeque`] is
//! the classic owner-bottom/thief-top deque, hand-rolled over atomics in
//! safe code; [`StealScheduler`] runs one deque per worker and lets idle
//! workers steal from the top of their neighbours'.
//!
//! Tasks are plain `u64` payloads (indices into a caller-side slice).
//! That keeps every deque slot a single `AtomicU64`: no ownership moves
//! through the deque, so the whole structure needs no `unsafe` — lost races are
//! handled entirely by the compare-and-swap on `top`.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// Error returned by [`StealDeque::push`] when the ring is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DequeFull;

/// A bounded single-owner, multi-thief work-stealing deque of `u64`s.
///
/// * the **owner** pushes and pops at the *bottom* (LIFO);
/// * **thieves** steal from the *top* (FIFO — the oldest work migrates,
///   which is what makes stealing fair);
/// * capacity is fixed at construction and [`push`](Self::push) fails
///   with [`DequeFull`] rather than reallocating.
///
/// This is the Chase–Lev shape restricted to a bounded ring of plain
/// `Copy` words. Rejecting pushes at `capacity` is what makes the safe
/// implementation sound: a slot at ring position `t % cap` can only be
/// overwritten by a push at `bottom = t + cap`, and such a push is
/// refused while `top` is still `t` — so a thief that read slot `t` and
/// then wins the CAS on `top` is guaranteed to have read the right
/// value, and a thief that loses the CAS discards what it read.
///
/// Ownership discipline (single pusher/popper) is by convention — every
/// operation is memory-safe regardless, but concurrent owners could
/// duplicate or lose tasks. All orderings are `SeqCst`; task words are
/// tiny and the deque is nowhere near the routing hot path (one
/// push/pop pair per *net*, against thousands of maze probes).
#[derive(Debug)]
pub struct StealDeque {
    /// Next slot a thief will steal from (only ever increments).
    top: AtomicI64,
    /// Next slot the owner will push into.
    bottom: AtomicI64,
    slots: Vec<AtomicU64>,
    mask: usize,
}

impl StealDeque {
    /// A deque with room for at least `cap` tasks (rounded up to a power
    /// of two).
    pub fn with_capacity(cap: usize) -> Self {
        let cap = cap.max(1).next_power_of_two();
        StealDeque {
            top: AtomicI64::new(0),
            bottom: AtomicI64::new(0),
            slots: (0..cap).map(|_| AtomicU64::new(0)).collect(),
            mask: cap - 1,
        }
    }

    /// Maximum number of tasks the deque can hold.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Tasks currently queued. Exact for the owner; a racy lower-bound
    /// estimate for anyone else.
    #[inline]
    pub fn len(&self) -> usize {
        let b = self.bottom.load(Ordering::SeqCst);
        let t = self.top.load(Ordering::SeqCst);
        b.saturating_sub(t).max(0) as usize
    }

    /// Whether the deque currently holds no tasks (see [`len`](Self::len)
    /// for the racy caveat).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Owner-side push at the bottom. Fails when `capacity` tasks are
    /// already queued.
    pub fn push(&self, task: u64) -> Result<(), DequeFull> {
        let b = self.bottom.load(Ordering::SeqCst);
        let t = self.top.load(Ordering::SeqCst);
        if (b - t) as usize >= self.capacity() {
            return Err(DequeFull);
        }
        self.slots[(b as usize) & self.mask].store(task, Ordering::SeqCst);
        self.bottom.store(b + 1, Ordering::SeqCst);
        Ok(())
    }

    /// Owner-side pop at the bottom (most recently pushed task first).
    pub fn pop(&self) -> Option<u64> {
        let b = self.bottom.load(Ordering::SeqCst) - 1;
        // Publish the claim on slot `b` before reading `top`: a thief
        // that loads `bottom` after this sees the shrunken deque.
        self.bottom.store(b, Ordering::SeqCst);
        let t = self.top.load(Ordering::SeqCst);
        if t > b {
            // Deque was already empty; undo.
            self.bottom.store(b + 1, Ordering::SeqCst);
            return None;
        }
        let task = self.slots[(b as usize) & self.mask].load(Ordering::SeqCst);
        if t == b {
            // Last task: race the thieves for it via `top`.
            let won = self
                .top
                .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok();
            self.bottom.store(b + 1, Ordering::SeqCst);
            return won.then_some(task);
        }
        Some(task)
    }

    /// Thief-side steal from the top (least recently pushed task first).
    /// Returns `None` when the deque is empty; retries internally on a
    /// lost race against another thief.
    pub fn steal(&self) -> Option<u64> {
        loop {
            let t = self.top.load(Ordering::SeqCst);
            let b = self.bottom.load(Ordering::SeqCst);
            if t >= b {
                return None;
            }
            let task = self.slots[(t as usize) & self.mask].load(Ordering::SeqCst);
            if self
                .top
                .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                return Some(task);
            }
            // Another thief (or the owner, on the last task) advanced
            // `top` first; what we read may be stale — go around.
        }
    }
}

/// Aggregate outcome of one [`StealScheduler::run`] call.
#[derive(Debug)]
pub struct SchedulerRun<R> {
    /// `(task, result)` pairs, in whatever order workers finished them.
    pub results: Vec<(u64, R)>,
    /// Tasks executed on a worker other than the one they were assigned
    /// to.
    pub steals: u64,
}

/// Work-stealing assignment: tasks are striped across one [`StealDeque`]
/// per worker; each worker drains its own deque bottom-first and, when
/// empty, sweeps its neighbours' tops. A worker exits once every deque is
/// empty — no new tasks appear during a run, so an empty sweep is a
/// proof of completion.
///
/// `init` runs once on each worker thread to build its private state
/// (maze scratch, obs span, …); `work` is then called for every task the
/// worker executes. Workers run under `std::thread::scope`, so both may
/// borrow from the caller's stack.
#[derive(Debug, Clone, Copy, Default)]
pub struct StealScheduler;

impl StealScheduler {
    /// Execute every task in `tasks` exactly once over `threads` workers.
    pub fn run<S, R, IS, W>(
        &self,
        threads: usize,
        tasks: &[u64],
        init: IS,
        work: W,
    ) -> SchedulerRun<R>
    where
        R: Send,
        S: Send,
        IS: Fn(usize) -> S + Sync,
        W: Fn(&mut S, u64) -> R + Sync,
    {
        let threads = threads.max(1).min(tasks.len().max(1));
        let deques: Vec<StealDeque> = (0..threads)
            .map(|_| StealDeque::with_capacity(tasks.len().div_ceil(threads)))
            .collect();
        // Striped preload: task k on deque k % threads. Thieves steal
        // top-first, so the stripe order is also each deque's FIFO order.
        for (k, &task) in tasks.iter().enumerate() {
            deques[k % threads].push(task).expect("preload fits");
        }
        let mut results = Vec::with_capacity(tasks.len());
        let mut steals = 0u64;
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for w in 0..threads {
                let (init, work, deques) = (&init, &work, &deques);
                handles.push(scope.spawn(move || {
                    let mut state = init(w);
                    let mut out = Vec::new();
                    let mut stolen = 0u64;
                    loop {
                        let task = deques[w].pop().or_else(|| {
                            (1..threads).find_map(|off| {
                                let t = deques[(w + off) % threads].steal();
                                stolen += u64::from(t.is_some());
                                t
                            })
                        });
                        match task {
                            Some(task) => out.push((task, work(&mut state, task))),
                            None => break,
                        }
                    }
                    (out, stolen)
                }));
            }
            for h in handles {
                let (out, stolen) = h.join().expect("scheduler worker panicked");
                results.extend(out);
                steals += stolen;
            }
        });
        SchedulerRun { results, steals }
    }
}

/// Wave-barrier dispatch: how the routing engine and the negotiated
/// router execute one conflict-free wave of net searches.
///
/// A wave's tasks are mutually independent by construction (their
/// search boxes are disjoint), so *what* they compute never depends on
/// the schedule — only wall clock does. `run_wave` exploits that:
/// results always come back sorted in task-submission order (the commit
/// barrier wants a fixed order), and tiny waves and `threads == 1`
/// execute inline on the calling thread with zero spawn cost. Larger
/// waves run on [`StealScheduler`] workers, because net search times
/// are wildly skewed.
#[derive(Debug, Clone, Copy)]
pub struct WaveExec {
    /// Worker threads available to a wave (clamped to the wave size).
    pub threads: usize,
}

impl WaveExec {
    /// Execute one wave. `tasks` must be distinct. Results are returned
    /// in task-submission order whichever path ran.
    pub fn run_wave<S, R, IS, W>(&self, tasks: &[u64], init: IS, work: W) -> SchedulerRun<R>
    where
        R: Send,
        S: Send,
        IS: Fn(usize) -> S + Sync,
        W: Fn(&mut S, u64) -> R + Sync,
    {
        if self.threads <= 1 || tasks.len() <= 1 {
            let mut state = init(0);
            return SchedulerRun {
                results: tasks.iter().map(|&t| (t, work(&mut state, t))).collect(),
                steals: 0,
            };
        }
        let mut run = StealScheduler.run(self.threads, tasks, init, work);
        let order: std::collections::HashMap<u64, usize> =
            tasks.iter().enumerate().map(|(k, &t)| (t, k)).collect();
        run.results.sort_by_key(|(t, _)| order[t]);
        run
    }
}

/// A shared pool of worker threads divided among concurrent batch
/// executors.
///
/// The multi-tenant service front-end (`jroute-svc::server`) runs one
/// routing executor per tenant, each of which would happily spin up its
/// own full-width worker set — oversubscribing the machine by the tenant
/// count. A `ThreadBudget` caps the *sum* of concurrently leased workers
/// at `total`: each executor takes a [`ThreadLease`] for the duration of
/// one batch and sizes its scheduler to the granted width.
///
/// Grants never block and never return zero: when the pool is
/// oversubscribed a lease is clamped down, but always to at least one
/// worker, so every tenant keeps making progress (liveness over
/// fairness). Because of that floor the in-flight sum may transiently
/// exceed `total` under heavy contention — the budget is a throttle, not
/// a hard mutex.
#[derive(Debug)]
pub struct ThreadBudget {
    total: usize,
    used: AtomicU64,
}

impl ThreadBudget {
    /// A budget of `total` workers (clamped to at least 1).
    pub fn new(total: usize) -> Self {
        ThreadBudget {
            total: total.max(1),
            used: AtomicU64::new(0),
        }
    }

    /// The configured pool width.
    #[inline]
    pub fn total(&self) -> usize {
        self.total
    }

    /// Workers currently out on leases (racy snapshot).
    #[inline]
    pub fn in_use(&self) -> usize {
        self.used.load(Ordering::SeqCst) as usize
    }

    /// Lease up to `want` workers. The grant is
    /// `clamp(total - in_use, 1, want)`: full width while the pool is
    /// idle, shrinking as siblings hold leases, never below one. The
    /// grant is returned to the pool when the [`ThreadLease`] drops.
    pub fn lease(self: &std::sync::Arc<Self>, want: usize) -> ThreadLease {
        let want = want.max(1);
        let granted = loop {
            let used = self.used.load(Ordering::SeqCst);
            let free = self.total.saturating_sub(used as usize);
            let grant = free.clamp(1, want) as u64;
            if self
                .used
                .compare_exchange(used, used + grant, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                break grant as usize;
            }
        };
        ThreadLease {
            budget: std::sync::Arc::clone(self),
            granted,
        }
    }
}

/// RAII grant from a [`ThreadBudget`]; the granted width flows back to
/// the pool on drop.
#[derive(Debug)]
pub struct ThreadLease {
    budget: std::sync::Arc<ThreadBudget>,
    granted: usize,
}

impl ThreadLease {
    /// Number of workers this lease grants (always ≥ 1).
    #[inline]
    pub fn granted(&self) -> usize {
        self.granted
    }
}

impl Drop for ThreadLease {
    fn drop(&mut self) {
        self.budget
            .used
            .fetch_sub(self.granted as u64, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Mutex;

    #[test]
    fn deque_is_lifo_for_owner_fifo_for_thief() {
        let d = StealDeque::with_capacity(8);
        for v in [10, 20, 30] {
            d.push(v).unwrap();
        }
        assert_eq!(d.len(), 3);
        assert_eq!(d.steal(), Some(10), "thief takes the oldest");
        assert_eq!(d.pop(), Some(30), "owner takes the newest");
        assert_eq!(d.pop(), Some(20));
        assert_eq!(d.pop(), None);
        assert_eq!(d.steal(), None);
    }

    #[test]
    fn deque_rejects_push_beyond_capacity() {
        let d = StealDeque::with_capacity(3); // rounds up to 4
        assert_eq!(d.capacity(), 4);
        for v in 0..4 {
            d.push(v).unwrap();
        }
        assert_eq!(d.push(99), Err(DequeFull));
        assert_eq!(d.steal(), Some(0));
        d.push(99).unwrap(); // freed one slot
    }

    #[test]
    fn deque_survives_concurrent_thieves() {
        let n = 10_000u64;
        let d = StealDeque::with_capacity(n as usize);
        for v in 0..n {
            d.push(v).unwrap();
        }
        let taken = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    while let Some(v) = d.steal() {
                        local.push(v);
                    }
                    taken.lock().unwrap().extend(local);
                });
            }
            // The owner fights for the same tasks from the other end.
            let mut local = Vec::new();
            while let Some(v) = d.pop() {
                local.push(v);
            }
            taken.lock().unwrap().extend(local);
        });
        let mut got = taken.into_inner().unwrap();
        got.sort_unstable();
        assert_eq!(got, (0..n).collect::<Vec<_>>(), "each task exactly once");
    }

    fn exercise(threads: usize, n: u64) {
        let tasks: Vec<u64> = (0..n).collect();
        let work = |w: &mut usize, task: u64| {
            assert!(*w < threads.max(1));
            task * 2
        };
        let runs = [
            StealScheduler.run(threads, &tasks, |w| w, work),
            WaveExec { threads }.run_wave(&tasks, |w| w, work),
        ];
        for run in runs {
            assert_eq!(run.results.len(), tasks.len());
            let ids: HashSet<u64> = run.results.iter().map(|&(t, _)| t).collect();
            assert_eq!(ids.len(), tasks.len(), "every task ran exactly once");
            assert!(run.results.iter().all(|&(t, r)| r == t * 2));
        }
    }

    /// The stealing scheduler and the wave executor (inline at one
    /// thread, stealing above) each run every task exactly once.
    #[test]
    fn both_schedulers_run_every_task_once() {
        for threads in [1, 3, 8] {
            exercise(threads, 100);
        }
    }

    #[test]
    fn schedulers_handle_empty_and_tiny_batches() {
        exercise(4, 0);
        exercise(4, 1);
        exercise(1, 5);
    }

    #[test]
    fn run_wave_returns_results_in_task_order() {
        let tasks: Vec<u64> = [9u64, 3, 7, 1, 5, 0, 8, 2, 6, 4].to_vec();
        for threads in [1, 4] {
            let run = WaveExec { threads }.run_wave(
                &tasks,
                |_| (),
                |_, t| {
                    if t % 3 == 0 {
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    }
                    t * 10
                },
            );
            let got: Vec<(u64, u64)> = run.results;
            let want: Vec<(u64, u64)> = tasks.iter().map(|&t| (t, t * 10)).collect();
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    fn thread_budget_grants_shrink_under_load_and_recover() {
        let budget = std::sync::Arc::new(ThreadBudget::new(8));
        assert_eq!(budget.total(), 8);
        let a = budget.lease(8);
        assert_eq!(a.granted(), 8, "idle pool grants full width");
        let b = budget.lease(4);
        assert_eq!(b.granted(), 1, "exhausted pool still grants one");
        drop(a);
        let c = budget.lease(4);
        assert_eq!(c.granted(), 4, "released width is reusable");
        let d = budget.lease(8);
        assert_eq!(d.granted(), 3, "partial pool grants the remainder");
        drop(b);
        drop(c);
        drop(d);
        assert_eq!(budget.in_use(), 0, "all leases returned");
        assert_eq!(budget.lease(3).granted(), 3);
    }

    #[test]
    fn thread_budget_never_grants_zero() {
        let budget = std::sync::Arc::new(ThreadBudget::new(1));
        let held: Vec<ThreadLease> = (0..5).map(|_| budget.lease(4)).collect();
        assert!(held.iter().all(|l| l.granted() >= 1));
        assert_eq!(budget.lease(0).granted(), 1, "want is floored at one");
    }

    #[test]
    fn stealing_rebalances_a_skewed_batch() {
        // Worker 0's stripe holds all the slow tasks; with stealing the
        // other workers must take some of them.
        let tasks: Vec<u64> = (0..32).collect();
        let executed_by = Mutex::new(vec![0usize; 32]);
        let run = StealScheduler.run(
            4,
            &tasks,
            |w| w,
            |&mut w, task| {
                if task % 4 == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
                executed_by.lock().unwrap()[task as usize] = w;
                task
            },
        );
        assert_eq!(run.results.len(), 32);
        assert!(
            run.steals > 0,
            "a 4x-skewed batch must trigger at least one steal"
        );
    }
}
