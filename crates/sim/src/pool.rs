//! A persistent "run this closure on N shards" thread pool.
//!
//! [`WorkerPool::run`] calls `f(w)` once for every shard index `w` — shard 0
//! on the calling thread, the rest on parked worker threads — and returns
//! when all of them have. It knows nothing about what a shard is: the caller
//! hands each shard its data through the closure's captures, which the
//! `Sync` bound lets the compiler check. The one lifetime erasure in `run`
//! is the only `unsafe` in the workspace.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;

/// How long a barrier waiter spins before parking on the condvar. Short:
/// on a loaded or single-core host the releaser cannot run while we spin,
/// so parking quickly is the safe default; on an idle multi-core host the
/// spin window absorbs the common fast case.
const BARRIER_SPIN_ROUNDS: u32 = 256;

/// A reusable generation-counting barrier with a bounded spin before
/// parking. Unlike `std::sync::Barrier`, waiters first spin briefly so the
/// per-phase rendezvous of the simulation loop stays cheap.
struct SenseBarrier {
    participants: usize,
    count: AtomicUsize,
    generation: AtomicUsize,
    lock: Mutex<()>,
    condvar: Condvar,
}

impl SenseBarrier {
    fn new(participants: usize) -> Self {
        SenseBarrier {
            participants,
            count: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            lock: Mutex::new(()),
            condvar: Condvar::new(),
        }
    }

    /// Block until all participants have called `wait` for the current
    /// generation.
    fn wait(&self) {
        let generation = self.generation.load(Ordering::Acquire);
        let arrived = self.count.fetch_add(1, Ordering::AcqRel) + 1;
        if arrived == self.participants {
            self.count.store(0, Ordering::Release);
            // publish the new generation under the lock so parked waiters
            // cannot miss the wakeup
            let _guard = self.lock.lock().expect("barrier lock poisoned");
            self.generation
                .store(generation.wrapping_add(1), Ordering::Release);
            self.condvar.notify_all();
        } else {
            for _ in 0..BARRIER_SPIN_ROUNDS {
                if self.generation.load(Ordering::Acquire) != generation {
                    return;
                }
                std::hint::spin_loop();
            }
            let mut guard = self.lock.lock().expect("barrier lock poisoned");
            while self.generation.load(Ordering::Acquire) == generation {
                guard = self.condvar.wait(guard).expect("barrier lock poisoned");
            }
        }
    }
}

/// The closure of the `run` call in progress, as the workers see it.
type Job = &'static (dyn Fn(usize) + Sync);

/// Shared state between the calling thread and the pool workers.
struct PoolShared {
    /// Written by the caller before the start barrier, read by the workers
    /// after it, cleared after the end barrier; `None` at `start` = shut down.
    job: RwLock<Option<Job>>,
    /// Released by the caller to begin a run (or shut down).
    start: SenseBarrier,
    /// Reached by every shard when its call returned.
    end: SenseBarrier,
    /// Set by a worker whose call panicked; taken by the caller after the
    /// end barrier.
    panicked: AtomicBool,
}

/// A persistent pool of `num_shards - 1` worker threads; the calling thread
/// is shard 0.
pub(crate) struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawn a pool for `num_shards` total shards (`num_shards >= 2`).
    pub fn new(num_shards: usize) -> Self {
        assert!(num_shards >= 2, "a pool needs at least one worker thread");
        let shared = Arc::new(PoolShared {
            job: RwLock::new(None),
            start: SenseBarrier::new(num_shards),
            end: SenseBarrier::new(num_shards),
            panicked: AtomicBool::new(false),
        });
        let handles = (1..num_shards)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("df-sim-shard-{w}"))
                    .spawn(move || worker_loop(&shared, w))
                    .expect("spawn simulation worker")
            })
            .collect();
        WorkerPool { shared, handles }
    }

    /// Call `f(w)` for every shard `w` and block until all calls returned.
    /// A panic in any of them is re-raised here, after every shard has
    /// finished; the pool stays usable.
    pub fn run(&mut self, f: &(dyn Fn(usize) + Sync)) {
        // SAFETY: the workers call `f` only between the two barriers below,
        // and this function neither returns nor unwinds before all of them
        // passed the end barrier and the slot is cleared again — so the
        // erased borrow never outlives the real one. `&mut self` rules out
        // a second `run` publishing into the slot meanwhile.
        let job: Job = unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), Job>(f) };
        *self.shared.job.write().expect("job lock poisoned") = Some(job);
        self.shared.start.wait();
        // Always reach the end barrier, even if our own shard panics —
        // otherwise the workers (and the pool's Drop) would deadlock.
        let main_result = catch_unwind(AssertUnwindSafe(|| f(0)));
        self.shared.end.wait();
        *self.shared.job.write().expect("job lock poisoned") = None;
        let worker_panicked = self.shared.panicked.swap(false, Ordering::AcqRel);
        if let Err(payload) = main_result {
            resume_unwind(payload);
        }
        if worker_panicked {
            panic!("a worker shard panicked");
        }
    }
}

fn worker_loop(shared: &PoolShared, w: usize) {
    loop {
        shared.start.wait();
        let Some(job) = *shared.job.read().expect("job lock poisoned") else {
            break;
        };
        // Catch panics so the thread stays alive for the end barrier and
        // future runs; the caller re-raises after the barrier.
        if catch_unwind(AssertUnwindSafe(|| job(w))).is_err() {
            shared.panicked.store(true, Ordering::Release);
        }
        shared.end.wait();
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Workers are parked at the start barrier (they always return to it,
        // panicking or not) with no job published: release them into shutdown.
        self.shared.start.wait();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn barrier_synchronises_repeated_generations() {
        let barrier = Arc::new(SenseBarrier::new(3));
        let counter = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..2 {
            let barrier = Arc::clone(&barrier);
            let counter = Arc::clone(&counter);
            handles.push(std::thread::spawn(move || {
                for round in 0..100usize {
                    counter.fetch_add(1, Ordering::AcqRel);
                    barrier.wait();
                    // after the barrier every participant of this round has
                    // incremented
                    assert!(counter.load(Ordering::Acquire) >= 3 * (round + 1));
                    barrier.wait();
                }
            }));
        }
        for round in 0..100usize {
            counter.fetch_add(1, Ordering::AcqRel);
            barrier.wait();
            assert!(counter.load(Ordering::Acquire) >= 3 * (round + 1));
            barrier.wait();
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Acquire), 300);
    }

    #[test]
    fn pool_spawns_and_shuts_down_cleanly() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.handles.len(), 3, "main runs shard 0 itself");
        drop(pool); // must not hang
    }

    #[test]
    fn run_calls_every_shard_once_with_borrowed_state() {
        let mut pool = WorkerPool::new(4);
        // per-shard `&mut` borrows of a local, handed over through slots
        let mut data = [0usize; 4];
        for round in 1..=50 {
            let slots: Vec<Mutex<Option<&mut usize>>> =
                data.iter_mut().map(|d| Mutex::new(Some(d))).collect();
            pool.run(&|w| {
                let cell = slots[w].lock().unwrap().take().expect("one call per shard");
                *cell += w + 1;
            });
            assert_eq!(data, [round, 2 * round, 3 * round, 4 * round]);
        }
    }

    /// Run `f` on `pool` and return the panic message it raised.
    fn panic_message(pool: &mut WorkerPool, f: &(dyn Fn(usize) + Sync)) -> String {
        let payload = catch_unwind(AssertUnwindSafe(|| pool.run(f))).expect_err("run must panic");
        match payload.downcast_ref::<&str>() {
            Some(s) => s.to_string(),
            None => *payload.downcast::<String>().expect("string payload"),
        }
    }

    #[test]
    fn a_panicking_shard_surfaces_on_the_caller_and_the_pool_survives() {
        let mut pool = WorkerPool::new(3);
        let calls = &AtomicUsize::new(0);
        let panic_in = |victim: usize| {
            move |w: usize| {
                calls.fetch_add(1, Ordering::AcqRel);
                if w == victim {
                    panic!("shard {w} failed");
                }
            }
        };
        // a worker shard: the caller sees the pool's own message, after
        // every other shard finished
        let msg = panic_message(&mut pool, &panic_in(2));
        assert_eq!(msg, "a worker shard panicked");
        assert_eq!(calls.swap(0, Ordering::AcqRel), 3);
        // shard 0 (the caller's own): the original payload is re-raised
        let msg = panic_message(&mut pool, &panic_in(0));
        assert_eq!(msg, "shard 0 failed");
        assert_eq!(calls.swap(0, Ordering::AcqRel), 3);
        // both at once must not leave a stale flag behind for the next run
        let msg = panic_message(&mut pool, &|_| panic!("all shards failed"));
        assert_eq!(msg, "all shards failed");
        // the same pool still completes a clean run
        pool.run(&panic_in(usize::MAX));
        assert_eq!(calls.load(Ordering::Acquire), 3);
        drop(pool); // must not hang
    }
}
