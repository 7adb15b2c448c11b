//! A std-only self-scheduling thread pool for independent, unevenly
//! sized jobs.
//!
//! Every worker claims the next job index from one shared atomic
//! counter until the counter passes the job count — dynamic
//! self-scheduling with a chunk of one. The harness's jobs are grid
//! cells costing milliseconds each, so one relaxed `fetch_add` per
//! claim is negligible next to the work it hands out, and no queue,
//! batching or stealing is needed to keep the workers busy: a worker
//! that draws a slow cell simply claims fewer of the rest.
//!
//! Results are written by job index, so the output order is independent
//! of scheduling — callers see a deterministic `Vec<T>`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Observability counters from one pool run.
#[derive(Debug, Clone)]
pub struct PoolStats {
    /// Number of workers that ran.
    pub workers: usize,
    /// Busy (job-executing) time per worker.
    pub busy: Vec<Duration>,
    /// Wall time of the whole run.
    pub wall: Duration,
}

impl PoolStats {
    /// Mean worker utilization in `[0, 1]`: busy time over wall time.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        if self.workers == 0 || self.wall.is_zero() {
            return 0.0;
        }
        let busy: f64 = self.busy.iter().map(Duration::as_secs_f64).sum();
        (busy / (self.wall.as_secs_f64() * self.workers as f64)).min(1.0)
    }
}

/// Runs `jobs` invocations of `f` (by index) on `workers` threads and
/// returns the results in index order plus pool statistics.
///
/// With `workers == 1` no threads are spawned and jobs run inline in
/// index order — the sequential baseline the determinism tests compare
/// against.
///
/// # Panics
///
/// Propagates panics from `f` (the pool does not attempt recovery; a
/// panicking experiment is a bug upstream).
pub fn run_jobs<T, F>(workers: usize, jobs: usize, f: F) -> (Vec<T>, PoolStats)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let started = Instant::now();
    let workers = workers.max(1);
    if workers == 1 || jobs <= 1 {
        let t0 = Instant::now();
        let results = (0..jobs).map(&f).collect();
        let stats = PoolStats {
            workers: 1,
            busy: vec![t0.elapsed()],
            wall: started.elapsed(),
        };
        return (results, stats);
    }

    let next = AtomicUsize::new(0);
    let results: Vec<Mutex<Option<T>>> = (0..jobs).map(|_| Mutex::new(None)).collect();
    let busy = std::thread::scope(|scope| {
        let worker = || {
            let mut busy = Duration::ZERO;
            loop {
                let idx = next.fetch_add(1, Ordering::Relaxed);
                if idx >= jobs {
                    return busy;
                }
                let t0 = Instant::now();
                let out = f(idx);
                busy += t0.elapsed();
                *results[idx].lock().expect("result mutex poisoned") = Some(out);
            }
        };
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(worker)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });

    let results = results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result mutex poisoned")
                .expect("job completed without a result")
        })
        .collect();
    let stats = PoolStats {
        workers,
        busy,
        wall: started.elapsed(),
    };
    (results, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn runs_every_job_exactly_once() {
        let counter = AtomicU32::new(0);
        let (results, stats) = run_jobs(4, 100, |i| {
            counter.fetch_add(1, Ordering::Relaxed);
            i * 2
        });
        assert_eq!(counter.load(Ordering::Relaxed), 100);
        assert_eq!(results, (0..100).map(|i| i * 2).collect::<Vec<_>>());
        assert_eq!(stats.workers, 4);
    }

    #[test]
    fn single_worker_runs_inline() {
        let (results, stats) = run_jobs(1, 10, |i| i);
        assert_eq!(results, (0..10).collect::<Vec<_>>());
        assert_eq!(stats.workers, 1);
    }

    #[test]
    fn uneven_jobs_finish_and_keep_order() {
        // Job 0 is much heavier than the rest: stealing must pick up the
        // slack and the result vector must stay in index order.
        let (results, _) = run_jobs(3, 32, |i| {
            if i == 0 {
                let mut acc = 0u64;
                for k in 0..2_000_000u64 {
                    acc = acc.wrapping_add(k).rotate_left(1);
                }
                (i as u64, acc & 1)
            } else {
                (i as u64, 0)
            }
        });
        for (i, &(idx, _)) in results.iter().enumerate() {
            assert_eq!(idx, i as u64);
        }
    }

    #[test]
    fn zero_jobs_is_fine() {
        let (results, _) = run_jobs(4, 0, |i| i);
        assert!(results.is_empty());
    }

    #[test]
    fn utilization_is_a_fraction() {
        let (_, stats) = run_jobs(2, 16, |i| {
            std::thread::sleep(Duration::from_micros(200));
            i
        });
        let u = stats.utilization();
        assert!((0.0..=1.0).contains(&u), "{u}");
    }
}
