//! Work distribution: the wave executor the routing engine and the
//! negotiated router dispatch through, and the thread budget the
//! multi-tenant server shares.
//!
//! A wave's tasks are mutually independent and their search times are
//! wildly skewed (a template hit vs. a congested maze search), so
//! static chunking would leave workers idle while the unlucky one
//! drains its tail. [`WaveExec`] balances instead with one shared
//! cursor: each worker claims the next unclaimed task index whenever it
//! finishes one, so a slow task holds back only the worker running it.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Wave-barrier dispatch: how the routing engine and the negotiated
/// router execute one conflict-free wave of net searches.
///
/// A wave's tasks are mutually independent by construction (their
/// search boxes are disjoint), so *what* they compute never depends on
/// the schedule — only wall clock does. Results always come back in
/// task order (the commit barrier wants a fixed order). With one thread
/// or one task the wave runs inline on the calling thread; otherwise it
/// runs on `min(threads, tasks)` scoped workers while the caller joins.
#[derive(Debug, Clone, Copy)]
pub struct WaveExec {
    /// Worker threads available to a wave (clamped to the wave size;
    /// 0 and 1 both mean inline).
    pub threads: usize,
}

impl WaveExec {
    /// Run `work` once per task and return the results in task order.
    /// `init` builds a worker's private state (maze scratch, …) once per
    /// worker. A panic in `work` is re-raised on the calling thread,
    /// payload intact, after every worker has stopped.
    pub fn run_wave<T, S, R, IS, W>(&self, tasks: &[T], init: IS, work: W) -> Vec<R>
    where
        T: Copy + Sync,
        R: Send,
        IS: Fn() -> S + Sync,
        W: Fn(&mut S, T) -> R + Sync,
    {
        if self.threads <= 1 || tasks.len() <= 1 {
            let mut state = init();
            return tasks.iter().map(|&t| work(&mut state, t)).collect();
        }
        let workers = self.threads.min(tasks.len());
        // Worker `w` starts on task `w`; later tasks go to whichever
        // worker claims them first. The cursor publishes no data
        // (results travel back through `join`), hence `Relaxed`.
        let next = AtomicUsize::new(workers);
        let mut slots: Vec<Option<R>> = tasks.iter().map(|_| None).collect();
        let mut panic = None;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let (init, work, next) = (&init, &work, &next);
                    scope.spawn(move || {
                        let mut state = init();
                        let mut done = Vec::new();
                        let mut k = w;
                        while let Some(&t) = tasks.get(k) {
                            done.push((k, work(&mut state, t)));
                            k = next.fetch_add(1, Ordering::Relaxed);
                        }
                        done
                    })
                })
                .collect();
            for h in handles {
                match h.join() {
                    Ok(done) => done.into_iter().for_each(|(k, r)| slots[k] = Some(r)),
                    Err(payload) => {
                        panic.get_or_insert(payload);
                    }
                }
            }
        });
        if let Some(payload) = panic {
            std::panic::resume_unwind(payload);
        }
        slots
            .into_iter()
            .map(|r| r.expect("every task is claimed once"))
            .collect()
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
/// one batch and sizes its waves to the granted width.
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
    use std::sync::atomic::AtomicU32;

    fn exercise(threads: usize, n: u64) {
        let tasks: Vec<u64> = (0..n).collect();
        let hits: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
        let got = WaveExec { threads }.run_wave(
            &tasks,
            || (),
            |_, t| {
                hits[t as usize].fetch_add(1, Ordering::Relaxed);
                t * 2
            },
        );
        assert_eq!(got, tasks.iter().map(|t| t * 2).collect::<Vec<_>>());
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    /// The inline path (one thread) and the threaded path each run
    /// every task exactly once.
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
        exercise(0, 5);
    }

    #[test]
    fn run_wave_returns_results_in_task_order() {
        let tasks: Vec<u64> = [9u64, 3, 7, 1, 5, 0, 8, 2, 6, 4].to_vec();
        for threads in [1, 4] {
            let got = WaveExec { threads }.run_wave(
                &tasks,
                || (),
                |_, t| {
                    if t % 3 == 0 {
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    }
                    t * 10
                },
            );
            let want: Vec<u64> = tasks.iter().map(|&t| t * 10).collect();
            assert_eq!(got, want, "threads={threads}");
        }
    }

    /// Task 0 does not finish until every other task has: the other
    /// worker must claim all of them through the cursor while worker 0
    /// is busy. A static split would leave half of them behind task 0.
    #[test]
    fn a_slow_task_does_not_hold_back_the_wave() {
        let n = 16;
        let tasks: Vec<usize> = (0..n).collect();
        let done = AtomicUsize::new(0);
        let got = WaveExec { threads: 2 }.run_wave(
            &tasks,
            || (),
            |_, t| {
                if t == 0 {
                    let give_up = std::time::Instant::now() + std::time::Duration::from_secs(10);
                    while done.load(Ordering::SeqCst) < n - 1 && std::time::Instant::now() < give_up
                    {
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    }
                    return done.load(Ordering::SeqCst);
                }
                done.fetch_add(1, Ordering::SeqCst);
                0
            },
        );
        assert_eq!(
            got[0],
            n - 1,
            "the rest of the wave ran while task 0 waited"
        );
    }

    /// A panic on a spawned worker reaches the caller with its own
    /// message, so the server can report what went wrong.
    #[test]
    fn a_worker_panic_keeps_its_message() {
        let tasks: Vec<u64> = (0..8).collect();
        let caught = std::panic::catch_unwind(|| {
            WaveExec { threads: 2 }.run_wave(
                &tasks,
                || (),
                |_, t| {
                    if t == 5 {
                        panic!("search of task {t} blew up");
                    }
                    t
                },
            )
        });
        let payload = caught.expect_err("the panic propagates");
        let msg = payload.downcast_ref::<String>().map(String::as_str);
        assert_eq!(msg, Some("search of task 5 blew up"));
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
}
