//! Thread-count policy and queue machinery shared by the parallel
//! subsystems.
//!
//! [`ParallelConfig`] started life in `mstv-core` as the knob for
//! `verify_all_parallel`; the marker side (centroid decomposition, label
//! assembly, snapshot builds) now takes the same knob, so the type lives
//! here at the bottom of the crate stack and `mstv-core` re-exports it —
//! `mstv_core::ParallelConfig` keeps working unchanged.
//!
//! [`KeyedQueue`] is the scheduling primitive underneath the net runtime
//! and the serving tier: per-key FIFO inboxes multiplexed over a bounded
//! pool of workers, with the guarantee that at most one worker processes
//! a given key at a time (so each key's items are handled strictly in
//! posting order, whatever the pool size).

use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::sync::{Condvar, Mutex};

/// Thread-count policy for parallel tree / marker / verifier stages.
///
/// The default (`threads: None`) sizes the pool from
/// [`std::thread::available_parallelism`], so callers no longer hand-pick
/// thread counts:
///
/// ```
/// use mstv_trees::ParallelConfig;
/// use std::num::NonZeroUsize;
///
/// let auto = ParallelConfig::default();
/// let four = ParallelConfig::with_threads(NonZeroUsize::new(4).unwrap());
/// assert!(auto.resolved_threads().get() >= 1);
/// assert_eq!(four.resolved_threads().get(), 4);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Explicit worker-thread count; `None` = available parallelism.
    pub threads: Option<NonZeroUsize>,
}

impl ParallelConfig {
    /// A configuration pinned to exactly `threads` workers.
    pub fn with_threads(threads: NonZeroUsize) -> Self {
        ParallelConfig {
            threads: Some(threads),
        }
    }

    /// The effective worker count: the explicit setting, else the host's
    /// available parallelism, else 1.
    pub fn resolved_threads(&self) -> NonZeroUsize {
        self.threads
            .or_else(|| std::thread::available_parallelism().ok())
            .unwrap_or(NonZeroUsize::MIN)
    }
}

impl From<NonZeroUsize> for ParallelConfig {
    fn from(threads: NonZeroUsize) -> Self {
        ParallelConfig::with_threads(threads)
    }
}

/// Maps `f` over `[0, n)` in contiguous chunks, one per worker thread,
/// and concatenates the results in chunk order.
///
/// `f(lo, hi)` must return the images of `lo..hi` in order; the
/// concatenation is then identical to `f(0, n)`, so parallel per-node
/// pipelines built on this helper (label assembly, label encoding) are
/// deterministic by construction. With one thread (or `n <= 1`) the
/// closure runs inline with no pool at all.
pub fn par_map_chunks<T: Send>(
    n: usize,
    threads: NonZeroUsize,
    f: impl Fn(usize, usize) -> Vec<T> + Sync,
) -> Vec<T> {
    let threads = threads.get().min(n.max(1));
    if threads <= 1 {
        return f(0, n);
    }
    let chunk = n.div_ceil(threads);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let f = &f;
                let lo = (t * chunk).min(n);
                let hi = ((t + 1) * chunk).min(n);
                s.spawn(move || f(lo, hi))
            })
            .collect();
        let mut out = Vec::with_capacity(n);
        for h in handles {
            out.extend(h.join().expect("chunk worker panicked"));
        }
        out
    })
}

/// A bounded-pool scheduler over per-key FIFO mailboxes.
///
/// `post(key, item)` appends to `key`'s inbox; any idle worker calling
/// [`KeyedQueue::next`] receives the oldest item of some schedulable
/// key. A key handed to a worker stays *leased* — no other worker can
/// receive its items — until the worker calls [`KeyedQueue::done`],
/// which re-schedules the key if more items queued up meanwhile. The
/// two invariants every consumer relies on:
///
/// * **per-key FIFO** — items of one key are processed in posting
///   order, because the key is leased to one worker at a time;
/// * **no busy waiting** — `next` blocks on a condvar until an item is
///   schedulable or the queue is closed ([`KeyedQueue::close`] wakes
///   every blocked worker and makes `next` return `None` immediately,
///   discarding whatever is still queued).
///
/// [`KeyedQueue::try_next`] is the non-blocking lease, for a thread that
/// has other work to go back to (the net runtime's router steps queued
/// events itself while its report is owed). The queue counts the workers
/// blocked in `next`, so posting to a queue nobody waits on makes no wake
/// call: std's futex-backed `Condvar::notify_one` is a syscall whether
/// or not a thread waits.
#[derive(Debug)]
pub struct KeyedQueue<T> {
    inner: Mutex<KeyedQueueInner<T>>,
    cv: Condvar,
}

#[derive(Debug)]
struct KeyedQueueInner<T> {
    inboxes: Vec<VecDeque<T>>,
    ready: VecDeque<usize>,
    /// Key is in `ready` or leased to a worker: either way, `next` must
    /// not hand it out again until `done` clears the lease.
    leased: Vec<bool>,
    /// Workers blocked in `next`; a post or release wakes one only if
    /// this is nonzero.
    waiting: usize,
    closed: bool,
}

impl<T> KeyedQueueInner<T> {
    /// Leases `key` to the next caller of `next` if no worker holds it.
    /// Returns whether the key became schedulable.
    fn schedule(&mut self, key: usize) -> bool {
        if self.leased[key] {
            return false;
        }
        self.leased[key] = true;
        self.ready.push_back(key);
        true
    }

    /// Hands out the oldest item of the first schedulable key, leased.
    fn lease(&mut self) -> Option<(usize, T)> {
        if self.closed {
            return None;
        }
        let key = self.ready.pop_front()?;
        let item = self.inboxes[key]
            .pop_front()
            .expect("ready key has an item");
        Some((key, item))
    }
}

impl<T> KeyedQueue<T> {
    /// A queue over keys `0..keys`, all inboxes empty.
    pub fn new(keys: usize) -> Self {
        KeyedQueue {
            inner: Mutex::new(KeyedQueueInner {
                inboxes: (0..keys).map(|_| VecDeque::new()).collect(),
                ready: VecDeque::new(),
                leased: vec![false; keys],
                waiting: 0,
                closed: false,
            }),
            cv: Condvar::new(),
        }
    }

    /// Appends `item` to `key`'s inbox and schedules the key if no
    /// worker currently holds it.
    ///
    /// # Panics
    ///
    /// Panics if `key` is out of range.
    pub fn post(&self, key: usize, item: T) {
        let mut q = self.inner.lock().expect("keyed queue lock");
        q.inboxes[key].push_back(item);
        if q.schedule(key) {
            self.wake_one(&q);
        }
    }

    /// Appends `item` to `key`'s inbox only if the inbox currently
    /// holds fewer than `limit` undelivered items; otherwise hands the
    /// item back as `Err`.
    ///
    /// This is the admission-control variant of [`KeyedQueue::post`]:
    /// a serving tier that must reject rather than buffer under
    /// overload bounds each key's queue depth here, at the source,
    /// instead of letting a slow consumer grow an inbox without limit.
    /// Items already leased to a worker do not count against the
    /// limit — the bound is on *waiting* items.
    ///
    /// # Panics
    ///
    /// Panics if `key` is out of range.
    pub fn try_post(&self, key: usize, item: T, limit: usize) -> Result<(), T> {
        let mut q = self.inner.lock().expect("keyed queue lock");
        if q.inboxes[key].len() >= limit {
            return Err(item);
        }
        q.inboxes[key].push_back(item);
        if q.schedule(key) {
            self.wake_one(&q);
        }
        Ok(())
    }

    /// Blocks until some key is schedulable, then leases it to the
    /// caller and returns its oldest item. Returns `None` once the
    /// queue is closed.
    pub fn next(&self) -> Option<(usize, T)> {
        let mut q = self.inner.lock().expect("keyed queue lock");
        loop {
            if q.closed {
                return None;
            }
            if let Some(leased) = q.lease() {
                return Some(leased);
            }
            q.waiting += 1;
            q = self.cv.wait(q).expect("keyed queue lock");
            q.waiting -= 1;
        }
    }

    /// [`KeyedQueue::next`] without the wait: leases and returns the
    /// oldest item of some schedulable key, or `None` at once if no key
    /// is schedulable (every queued key is leased, or nothing is
    /// queued) or the queue is closed.
    pub fn try_next(&self) -> Option<(usize, T)> {
        self.inner.lock().expect("keyed queue lock").lease()
    }

    /// Releases the caller's lease on `key`, re-scheduling it if items
    /// arrived while the lease was held.
    pub fn done(&self, key: usize) {
        let mut q = self.inner.lock().expect("keyed queue lock");
        if q.inboxes[key].is_empty() {
            q.leased[key] = false;
        } else {
            q.ready.push_back(key);
            self.wake_one(&q);
        }
    }

    /// Wakes one worker blocked in `next`, if any. Called with the lock
    /// held, so a worker counted in `waiting` is inside `Condvar::wait`.
    fn wake_one(&self, q: &KeyedQueueInner<T>) {
        if q.waiting > 0 {
            self.cv.notify_one();
        }
    }

    /// Closes the queue: every blocked and future [`KeyedQueue::next`]
    /// returns `None`; undelivered items are discarded.
    pub fn close(&self) {
        self.inner.lock().expect("keyed queue lock").closed = true;
        self.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concatenation_matches_sequential_for_awkward_splits() {
        for n in [0usize, 1, 2, 7, 64, 65] {
            for t in [1usize, 2, 3, 8, 64] {
                let got = par_map_chunks(n, NonZeroUsize::new(t).unwrap(), |lo, hi| {
                    (lo..hi).map(|i| i * i).collect()
                });
                let want: Vec<usize> = (0..n).map(|i| i * i).collect();
                assert_eq!(got, want, "n={n} t={t}");
            }
        }
    }

    #[test]
    fn keyed_queue_preserves_per_key_fifo_under_contention() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        const KEYS: usize = 5;
        const ITEMS: usize = 200;
        let queue = KeyedQueue::new(KEYS);
        let consumed: Vec<Mutex<Vec<usize>>> = (0..KEYS).map(|_| Mutex::new(Vec::new())).collect();
        let remaining = AtomicUsize::new(KEYS * ITEMS);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    while let Some((key, item)) = queue.next() {
                        consumed[key].lock().unwrap().push(item);
                        queue.done(key);
                        if remaining.fetch_sub(1, Ordering::SeqCst) == 1 {
                            queue.close();
                        }
                    }
                });
            }
            for i in 0..ITEMS {
                for key in 0..KEYS {
                    queue.post(key, i);
                }
            }
        });
        for (key, cell) in consumed.iter().enumerate() {
            let got = cell.lock().unwrap();
            let want: Vec<usize> = (0..ITEMS).collect();
            assert_eq!(*got, want, "key {key} items out of order");
        }
    }

    #[test]
    fn keyed_queue_try_post_bounds_waiting_items() {
        let queue: KeyedQueue<u32> = KeyedQueue::new(2);
        // Two waiting items fill a depth-2 inbox; the third is refused
        // and handed back.
        assert_eq!(queue.try_post(0, 1, 2), Ok(()));
        assert_eq!(queue.try_post(0, 2, 2), Ok(()));
        assert_eq!(queue.try_post(0, 3, 2), Err(3));
        // A different key has its own budget.
        assert_eq!(queue.try_post(1, 9, 2), Ok(()));
        // Draining one item frees one slot: the leased item no longer
        // counts as waiting.
        let (key, item) = queue.next().unwrap();
        assert_eq!((key, item), (0, 1));
        assert_eq!(queue.try_post(0, 4, 2), Ok(()));
        assert_eq!(queue.try_post(0, 5, 2), Err(5));
        queue.done(0);
        // FIFO order survives the rejected items (key 1 was scheduled
        // before key 0's re-queue, so it drains first).
        assert_eq!(queue.next().unwrap(), (1, 9));
        queue.done(1);
        assert_eq!(queue.next().unwrap(), (0, 2));
        queue.done(0);
        assert_eq!(queue.next().unwrap(), (0, 4));
        queue.done(0);
    }

    #[test]
    fn keyed_queue_try_next_returns_none_instead_of_waiting() {
        let queue: KeyedQueue<u32> = KeyedQueue::new(2);
        assert_eq!(queue.try_next(), None, "empty queue");
        queue.post(0, 1);
        queue.post(0, 2);
        assert_eq!(queue.try_next(), Some((0, 1)));
        // Key 0 still has an item queued, but it is leased.
        assert_eq!(queue.try_next(), None, "the only queued key is leased");
        queue.done(0);
        assert_eq!(queue.try_next(), Some((0, 2)));
        queue.done(0);
        assert_eq!(queue.try_next(), None, "drained queue");
        queue.post(1, 3);
        queue.close();
        assert_eq!(queue.try_next(), None, "closed queue");
    }

    #[test]
    fn keyed_queue_try_next_and_next_keep_per_key_fifo_together() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::mpsc;

        // A forced interleaving: the caller leases key 0 through
        // `try_next`, a blocking worker gets key 1 meanwhile, and key
        // 0's second item reaches the worker only after the caller's
        // `done`.
        let queue: KeyedQueue<char> = KeyedQueue::new(2);
        queue.post(0, 'a');
        queue.post(0, 'b');
        queue.post(1, 'c');
        assert_eq!(queue.try_next(), Some((0, 'a')));
        let (tx, rx) = mpsc::channel();
        std::thread::scope(|s| {
            s.spawn(|| {
                while let Some((key, item)) = queue.next() {
                    tx.send((key, item)).unwrap();
                    queue.done(key);
                }
            });
            assert_eq!(rx.recv().unwrap(), (1, 'c'));
            queue.done(0);
            assert_eq!(rx.recv().unwrap(), (0, 'b'));
            queue.close();
        });

        // Under contention: the posting thread drains with `try_next`
        // between its posts while two workers block in `next`.
        const KEYS: usize = 5;
        const ITEMS: usize = 200;
        let queue = KeyedQueue::new(KEYS);
        let consumed: Vec<Mutex<Vec<usize>>> = (0..KEYS).map(|_| Mutex::new(Vec::new())).collect();
        let remaining = AtomicUsize::new(KEYS * ITEMS);
        let consume = |key: usize, item: usize| {
            consumed[key].lock().unwrap().push(item);
            queue.done(key);
            if remaining.fetch_sub(1, Ordering::SeqCst) == 1 {
                queue.close();
            }
        };
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    while let Some((key, item)) = queue.next() {
                        consume(key, item);
                    }
                });
            }
            for i in 0..ITEMS {
                for key in 0..KEYS {
                    queue.post(key, i);
                    if let Some((key, item)) = queue.try_next() {
                        consume(key, item);
                    }
                }
            }
        });
        for (key, cell) in consumed.iter().enumerate() {
            let got = cell.lock().unwrap();
            let want: Vec<usize> = (0..ITEMS).collect();
            assert_eq!(*got, want, "key {key} items out of order");
        }
    }

    #[test]
    fn keyed_queue_close_wakes_blocked_workers() {
        let queue: KeyedQueue<u32> = KeyedQueue::new(2);
        std::thread::scope(|s| {
            let worker = s.spawn(|| queue.next());
            std::thread::sleep(std::time::Duration::from_millis(20));
            queue.close();
            assert_eq!(worker.join().unwrap(), None);
        });
        // Items posted before close are discarded, not delivered.
        let queue: KeyedQueue<u32> = KeyedQueue::new(1);
        queue.post(0, 7);
        queue.close();
        assert_eq!(queue.next(), None);
    }
}
