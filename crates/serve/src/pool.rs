//! A small fixed-size thread pool for connection handling.
//!
//! Hand-rolled on `Mutex<VecDeque>` + `Condvar` (the workspace vendors
//! no executor). Jobs are boxed closures; dropping the pool closes the
//! queue and joins every worker, so a shut-down server cannot leak
//! threads.

use arcs_metrics::{Counter, Gauge, MetricsRegistry};
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::Arc;
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Instrumentation handles for a pool: queue depth behind the workers,
/// how many workers are mid-job, and a lifetime job counter. Cloned
/// atomics, so updating them never takes the queue lock longer.
#[derive(Clone)]
pub struct PoolMetrics {
    pub queue_depth: Gauge,
    pub busy: Gauge,
    pub jobs: Counter,
    /// Jobs that panicked inside a worker (contained, never fatal).
    pub panics: Counter,
}

impl PoolMetrics {
    /// Resolve the pool's standard series in `registry`.
    pub fn resolve(registry: &MetricsRegistry) -> Self {
        PoolMetrics {
            queue_depth: registry.gauge("serve/pool/queue_depth"),
            busy: registry.gauge("serve/pool/busy"),
            jobs: registry.counter("serve/pool/jobs"),
            panics: registry.counter("serve/pool/panics"),
        }
    }
}

struct Shared {
    queue: Mutex<Queue>,
    available: Condvar,
    metrics: PoolMetrics,
}

struct Queue {
    jobs: VecDeque<Job>,
    closed: bool,
}

pub struct ThreadPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl ThreadPool {
    /// Start `threads` workers (at least one); every queue/busy
    /// transition updates `metrics`.
    pub fn new(threads: usize, metrics: PoolMetrics) -> Self {
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue { jobs: VecDeque::new(), closed: false }),
            available: Condvar::new(),
            metrics,
        });
        let workers = (0..threads.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("arcs-serve-worker-{i}"))
                    .spawn(move || worker(shared, i))
                    .expect("spawning a pool worker")
            })
            .collect();
        ThreadPool { shared, workers }
    }

    /// Queue a job; some idle worker picks it up. Returns `false` if the
    /// pool is already shutting down (the job is dropped).
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) -> bool {
        let mut queue = self.shared.queue.lock();
        if queue.closed {
            return false;
        }
        queue.jobs.push_back(Box::new(job));
        let depth = queue.jobs.len();
        drop(queue);
        self.shared.metrics.queue_depth.set(depth as f64);
        self.shared.available.notify_one();
        true
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shared.queue.lock().closed = true;
        self.shared.available.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Sentinel that respawns a replacement worker if this one dies to a
/// panic that somehow escaped [`catch_unwind`](std::panic::catch_unwind)
/// (e.g. a payload that panics on drop) — pool capacity never decays.
/// Respawned workers are not in the pool's join list; they exit with the
/// queue like any other worker, just unjoined.
struct RespawnGuard {
    shared: Arc<Shared>,
    index: usize,
}

impl Drop for RespawnGuard {
    fn drop(&mut self) {
        if std::thread::panicking() && !self.shared.queue.lock().closed {
            let shared = Arc::clone(&self.shared);
            let index = self.index;
            let _ = std::thread::Builder::new()
                .name(format!("arcs-serve-worker-{index}"))
                .spawn(move || worker(shared, index));
        }
    }
}

fn worker(shared: Arc<Shared>, index: usize) {
    let _guard = RespawnGuard { shared: Arc::clone(&shared), index };
    loop {
        let (job, depth) = {
            let mut queue = shared.queue.lock();
            loop {
                if let Some(job) = queue.jobs.pop_front() {
                    break (job, queue.jobs.len());
                }
                if queue.closed {
                    return;
                }
                shared.available.wait(&mut queue);
            }
        };
        let m = &shared.metrics;
        m.queue_depth.set(depth as f64);
        m.busy.add(1.0);
        m.jobs.inc();
        // Contain the job: one panicking connection handler must not
        // take its worker (or the whole process, under panic=abort-free
        // builds) with it.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
        m.busy.add(-1.0);
        if outcome.is_err() {
            m.panics.inc();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn unwatched(threads: usize) -> ThreadPool {
        ThreadPool::new(threads, PoolMetrics::resolve(&MetricsRegistry::new()))
    }

    #[test]
    fn pool_runs_every_job_and_joins_on_drop() {
        let ran = Arc::new(AtomicUsize::new(0));
        let pool = unwatched(4);
        for _ in 0..64 {
            let ran = Arc::clone(&ran);
            assert!(pool.execute(move || {
                ran.fetch_add(1, Ordering::SeqCst);
            }));
        }
        // Drop joins the workers, so every queued job has run after it.
        drop(pool);
        assert_eq!(ran.load(Ordering::SeqCst), 64);
    }

    #[test]
    fn panicking_jobs_are_contained_and_counted() {
        let registry = MetricsRegistry::new();
        let metrics = PoolMetrics::resolve(&registry);
        let ran = Arc::new(AtomicUsize::new(0));
        let pool = ThreadPool::new(1, metrics.clone());
        // One worker: if the panic killed it, nothing after could run.
        for i in 0..8 {
            let ran = Arc::clone(&ran);
            assert!(pool.execute(move || {
                if i % 2 == 0 {
                    panic!("connection handler blew up");
                }
                ran.fetch_add(1, Ordering::SeqCst);
            }));
        }
        drop(pool);
        assert_eq!(ran.load(Ordering::SeqCst), 4, "surviving jobs all ran");
        assert_eq!(metrics.panics.get(), 4, "every panic was counted");
        assert_eq!(metrics.jobs.get(), 8);
    }

    #[test]
    fn a_closed_pool_refuses_work() {
        let pool = unwatched(1);
        pool.shared.queue.lock().closed = true;
        pool.shared.available.notify_all();
        assert!(!pool.execute(|| {}));
    }
}
