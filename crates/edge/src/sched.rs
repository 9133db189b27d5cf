//! The deadline-aware scheduler queue behind [`crate::ExecutorPool`].
//!
//! Replaces the FIFO `sync_channel` with a mutex+condvar queue that
//! dispatches in **earliest-deadline-first** order (FIFO among tasks without
//! deadlines, which sort after every deadline-carrying task) and lets a
//! worker **coalesce compatible tasks into one batch** per wakeup:
//!
//! * [`SchedQueue::pop_batch`] takes the EDF head plus up to
//!   `max_batch − 1` queued tasks sharing its compatibility key, then —
//!   when an online [`BatchGainModel`] predicts the wait is worth it —
//!   holds briefly for more arrivals. The hold is doubly bounded: by the
//!   configured admission window, and by *feasibility* — a batch is never
//!   held past the point where its most urgent member could still be
//!   expected to finish in time.
//! * Holding is off until the model has data (cold start dispatches
//!   immediately; backlog-formed batches then warm the model).
//! * [`SchedQueue::close`] stops admissions; already-queued tasks drain in
//!   EDF order before poppers see `None`.

use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use einet_core::BatchGainModel;

/// What the scheduler needs to know about a queued task.
pub trait SchedTask {
    /// Absolute deadline, if the task carries one. Tasks with deadlines are
    /// served EDF; tasks without sort after all of them, FIFO.
    fn deadline_at(&self) -> Option<Instant>;
    /// Tasks sharing a key can run in one batched forward (same input
    /// shape, same model). Tasks with different keys never share a batch.
    fn compat_key(&self) -> u64;
}

/// Why a push was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The queue is at capacity (backpressure).
    Full,
    /// The queue was closed; no new tasks are admitted.
    Closed,
}

struct Entry<T> {
    task: T,
    seq: u64,
}

struct Inner<T> {
    /// Kept sorted: deadline-carrying tasks first by (deadline, seq), then
    /// deadline-free tasks by seq. Index 0 is always the dispatch head.
    queue: Vec<Entry<T>>,
    closed: bool,
    next_seq: u64,
    gain: BatchGainModel,
    last_arrival: Option<Instant>,
}

/// Safety margin subtracted from a member's deadline slack before holding:
/// covers dispatch overhead and service-time estimation error.
const FEASIBILITY_MARGIN: Duration = Duration::from_millis(1);

/// A bounded, deadline-aware scheduler queue with adaptive batch
/// coalescing. See the module docs for the dispatch policy.
pub struct SchedQueue<T: SchedTask> {
    inner: Mutex<Inner<T>>,
    available: Condvar,
    capacity: usize,
}

impl<T: SchedTask> std::fmt::Debug for SchedQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SchedQueue")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .finish()
    }
}

impl<T: SchedTask> SchedQueue<T> {
    /// Creates a queue admitting at most `capacity` tasks.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero: a zero-capacity scheduler queue could
    /// never admit a task, so constructing one is always a configuration
    /// bug, not a degenerate mode to limp along in.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "queue capacity must be positive");
        SchedQueue {
            inner: Mutex::new(Inner {
                queue: Vec::with_capacity(capacity.min(1024)),
                closed: false,
                next_seq: 0,
                gain: BatchGainModel::new(),
                last_arrival: None,
            }),
            available: Condvar::new(),
            capacity,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner<T>> {
        // A poisoned lock means a thread panicked while holding it; the
        // queue's invariants (sorted order, counters) are re-established on
        // every operation, so keep serving.
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Tasks currently queued.
    pub fn len(&self) -> usize {
        self.lock().queue.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Admits a task in EDF position, or refuses with [`PushError`].
    /// Never blocks.
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] at capacity, [`PushError::Closed`] after
    /// [`SchedQueue::close`] — either way the refused task is handed back,
    /// so a caller can retry it elsewhere (a registry spilling over to a
    /// sibling replica) without cloning its payload or reply handle.
    pub fn push(&self, task: T) -> Result<(), (PushError, T)> {
        let mut inner = self.lock();
        if inner.closed {
            return Err((PushError::Closed, task));
        }
        if inner.queue.len() >= self.capacity {
            return Err((PushError::Full, task));
        }
        let now = Instant::now();
        if let Some(prev) = inner.last_arrival {
            let gap = now.saturating_duration_since(prev);
            inner
                .gain
                .observe_arrival_gap(u64::try_from(gap.as_micros()).unwrap_or(u64::MAX));
        }
        inner.last_arrival = Some(now);
        let seq = inner.next_seq;
        inner.next_seq += 1;
        let entry = Entry { task, seq };
        let at = inner.queue.partition_point(|e| !sorts_before(&entry, e));
        inner.queue.insert(at, entry);
        drop(inner);
        // Wake every waiter: one takes the task, a holder may extend its
        // batch with it.
        self.available.notify_all();
        Ok(())
    }

    /// Stops admissions. Queued tasks still drain (in EDF order); once the
    /// queue is empty, [`SchedQueue::pop_batch`] returns `None`.
    pub fn close(&self) {
        self.lock().closed = true;
        self.available.notify_all();
    }

    /// Feeds an observed batch service time back into the gain model.
    pub fn observe_service(&self, batch: usize, total: Duration) {
        self.lock()
            .gain
            .observe_service(batch, u64::try_from(total.as_micros()).unwrap_or(u64::MAX));
    }

    /// What the gain model expects a batch of `batch` to take.
    #[cfg(test)]
    pub(crate) fn expected_service_us(&self, batch: usize) -> Option<f64> {
        self.lock().gain.expected_service_us(batch)
    }

    /// Blocks until at least one task is available (or the queue is closed
    /// and drained — then `None`), and returns a batch of 1..=`max_batch`
    /// compatible tasks led by the EDF head.
    ///
    /// After seeding the batch from the backlog, the call may *hold* for
    /// further compatible arrivals, but only while **all** of these say yes:
    ///
    /// 1. the batch is not full and `window` has room,
    /// 2. the gain model predicts the expected service saving of one more
    ///    member exceeds the queue delay the hold adds ([`BatchGainModel`]),
    /// 3. every member's deadline leaves slack for the hold plus the
    ///    expected batched service time (a near-deadline member dispatches
    ///    the batch immediately).
    pub fn pop_batch(&self, max_batch: usize, window: Duration) -> Option<Vec<T>> {
        let max_batch = max_batch.max(1);
        let mut inner = self.lock();
        // Wait for work.
        loop {
            if !inner.queue.is_empty() {
                break;
            }
            if inner.closed {
                return None;
            }
            inner = self
                .available
                .wait(inner)
                .unwrap_or_else(|p| p.into_inner());
        }
        // Seed: EDF head, then drain compatible backlog in EDF order.
        let head = inner.queue.remove(0);
        let key = head.task.compat_key();
        let mut batch = vec![head.task];
        take_compatible(&mut inner.queue, key, max_batch - batch.len(), &mut batch);
        // Hold for more arrivals while the model says it pays off.
        let hold_started = Instant::now();
        while batch.len() < max_batch && !inner.closed {
            let budget = Duration::from_micros(inner.gain.hold_budget_us(batch.len()));
            if budget.is_zero() {
                break;
            }
            let hold_until = hold_until(hold_started, budget.min(window), &batch, &inner.gain);
            let now = Instant::now();
            let Some(hold_until) = hold_until else { break };
            if hold_until <= now {
                break;
            }
            let (guard, timeout) = self
                .available
                .wait_timeout(inner, hold_until - now)
                .unwrap_or_else(|p| p.into_inner());
            inner = guard;
            take_compatible(&mut inner.queue, key, max_batch - batch.len(), &mut batch);
            if timeout.timed_out() {
                break;
            }
        }
        Some(batch)
    }
}

/// Strict EDF-before ordering: deadline-carrying entries before deadline-free
/// ones; earlier deadline first; submission order breaks ties.
fn sorts_before<T: SchedTask>(a: &Entry<T>, b: &Entry<T>) -> bool {
    match (a.task.deadline_at(), b.task.deadline_at()) {
        (Some(da), Some(db)) => (da, a.seq) < (db, b.seq),
        (Some(_), None) => true,
        (None, Some(_)) => false,
        (None, None) => a.seq < b.seq,
    }
}

/// Moves up to `room` entries with `key` out of `queue` (EDF order) into
/// `batch`.
fn take_compatible<T: SchedTask>(
    queue: &mut Vec<Entry<T>>,
    key: u64,
    room: usize,
    batch: &mut Vec<T>,
) {
    let mut taken = 0;
    let mut i = 0;
    while i < queue.len() && taken < room {
        if queue[i].task.compat_key() == key {
            batch.push(queue.remove(i).task);
            taken += 1;
        } else {
            i += 1;
        }
    }
}

/// The latest instant the hold may run to, or `None` to dispatch now.
/// Bounded by the budget window and by every member's feasibility: a member
/// must still be expected to finish by its deadline if dispatched at the
/// hold's end with one extra batch member.
fn hold_until<T: SchedTask>(
    hold_started: Instant,
    budget: Duration,
    batch: &[T],
    gain: &BatchGainModel,
) -> Option<Instant> {
    let mut until = hold_started + budget;
    if let Some(min_deadline) = batch.iter().filter_map(SchedTask::deadline_at).min() {
        let expected = gain
            .expected_service_us(batch.len() + 1)
            .map(|us| Duration::from_micros(us as u64))
            .unwrap_or(Duration::ZERO);
        let latest_feasible_start = min_deadline.checked_sub(expected + FEASIBILITY_MARGIN)?;
        until = until.min(latest_feasible_start);
    }
    Some(until)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    struct Fake {
        id: u64,
        deadline: Option<Instant>,
        key: u64,
    }

    impl SchedTask for Fake {
        fn deadline_at(&self) -> Option<Instant> {
            self.deadline
        }
        fn compat_key(&self) -> u64 {
            self.key
        }
    }

    fn plain(id: u64) -> Fake {
        Fake {
            id,
            deadline: None,
            key: 7,
        }
    }

    fn with_deadline(id: u64, in_ms: u64) -> Fake {
        Fake {
            id,
            deadline: Some(Instant::now() + Duration::from_millis(in_ms)),
            key: 7,
        }
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_is_rejected() {
        let _ = SchedQueue::<Fake>::new(0);
    }

    #[test]
    fn edf_orders_deadlines_before_fifo_tail() {
        let q = SchedQueue::new(16);
        q.push(plain(1)).unwrap();
        q.push(with_deadline(2, 500)).unwrap();
        q.push(plain(3)).unwrap();
        q.push(with_deadline(4, 100)).unwrap();
        let order: Vec<u64> = std::iter::from_fn(|| {
            if q.is_empty() {
                None
            } else {
                Some(q.pop_batch(1, Duration::ZERO).unwrap()[0].id)
            }
        })
        .collect();
        assert_eq!(order, vec![4, 2, 1, 3], "EDF first, then FIFO");
    }

    #[test]
    fn backlog_coalesces_into_one_batch() {
        let q = SchedQueue::new(16);
        for id in 0..5 {
            q.push(plain(id)).unwrap();
        }
        let batch = q.pop_batch(4, Duration::ZERO).unwrap();
        assert_eq!(batch.len(), 4);
        assert_eq!(batch.iter().map(|t| t.id).collect::<Vec<_>>(), [0, 1, 2, 3]);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn incompatible_tasks_never_share_a_batch() {
        let q = SchedQueue::new(16);
        q.push(Fake {
            id: 1,
            deadline: None,
            key: 1,
        })
        .unwrap();
        q.push(Fake {
            id: 2,
            deadline: None,
            key: 2,
        })
        .unwrap();
        q.push(Fake {
            id: 3,
            deadline: None,
            key: 1,
        })
        .unwrap();
        let batch = q.pop_batch(4, Duration::ZERO).unwrap();
        assert_eq!(batch.iter().map(|t| t.id).collect::<Vec<_>>(), [1, 3]);
        let batch = q.pop_batch(4, Duration::ZERO).unwrap();
        assert_eq!(batch.iter().map(|t| t.id).collect::<Vec<_>>(), [2]);
    }

    #[test]
    fn full_queue_bounces_and_closed_queue_refuses() {
        let q = SchedQueue::new(2);
        q.push(plain(1)).unwrap();
        q.push(plain(2)).unwrap();
        let (err, bounced) = q.push(plain(3)).unwrap_err();
        assert_eq!(err, PushError::Full);
        assert_eq!(bounced.id, 3, "a refused task is handed back intact");
        q.close();
        let (err, bounced) = q.push(plain(4)).unwrap_err();
        assert_eq!(err, PushError::Closed);
        assert_eq!(bounced.id, 4);
        // Queued tasks still drain after close.
        assert_eq!(q.pop_batch(1, Duration::ZERO).unwrap()[0].id, 1);
        assert_eq!(q.pop_batch(1, Duration::ZERO).unwrap()[0].id, 2);
        assert!(q.pop_batch(1, Duration::ZERO).is_none(), "drained + closed");
    }

    #[test]
    fn cold_model_dispatches_immediately() {
        let q = SchedQueue::new(16);
        q.push(plain(1)).unwrap();
        let t0 = Instant::now();
        let batch = q.pop_batch(8, Duration::from_millis(100)).unwrap();
        assert_eq!(batch.len(), 1);
        assert!(
            t0.elapsed() < Duration::from_millis(50),
            "no hold without gain data"
        );
    }

    #[test]
    fn warm_model_holds_and_picks_up_late_arrival() {
        let q = std::sync::Arc::new(SchedQueue::new(16));
        // Teach the model a strongly sublinear curve and fast arrivals, so
        // the hold budget is generous.
        q.observe_service(1, Duration::from_millis(20));
        q.observe_service(2, Duration::from_millis(22));
        {
            let mut inner = q.lock();
            for _ in 0..8 {
                inner.gain.observe_arrival_gap(2_000);
            }
        }
        q.push(plain(1)).unwrap();
        let q2 = std::sync::Arc::clone(&q);
        let pusher = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(4));
            q2.push(plain(2)).unwrap();
        });
        let batch = q.pop_batch(4, Duration::from_millis(50)).unwrap();
        pusher.join().unwrap();
        assert_eq!(
            batch.len(),
            2,
            "the hold should have captured the late arrival"
        );
    }

    #[test]
    fn near_deadline_member_is_never_held() {
        let q = SchedQueue::new(16);
        // Generous gain budget...
        q.observe_service(1, Duration::from_millis(50));
        q.observe_service(2, Duration::from_millis(55));
        {
            let mut inner = q.lock();
            for _ in 0..8 {
                inner.gain.observe_arrival_gap(1_000);
            }
        }
        // ...but the head's deadline leaves no slack beyond the expected
        // batched service time: dispatch must be immediate.
        q.push(with_deadline(1, 56)).unwrap();
        let t0 = Instant::now();
        let batch = q.pop_batch(8, Duration::from_millis(200)).unwrap();
        assert_eq!(batch.len(), 1);
        assert!(
            t0.elapsed() < Duration::from_millis(10),
            "feasibility gate must preclude the hold, took {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn idle_gap_between_pushes_does_not_disable_holding() {
        let q = SchedQueue::new(64);
        // A warm model: sublinear service curve, steady ~2 ms arrivals.
        q.observe_service(1, Duration::from_millis(20));
        q.observe_service(2, Duration::from_millis(22));
        let before = {
            let mut inner = q.lock();
            for _ in 0..8 {
                inner.gain.observe_arrival_gap(2_000);
            }
            let budget = inner.gain.hold_budget_us(1);
            assert!(budget > 0, "warm model must hold");
            // Simulate a long lull: the previous arrival was 30 s ago, so
            // the next push observes a ~30 s inter-arrival gap.
            inner.last_arrival = Instant::now().checked_sub(Duration::from_secs(30));
            budget
        };
        q.push(plain(1)).unwrap();
        let inner = q.lock();
        assert_eq!(
            inner.gain.hold_budget_us(1),
            before,
            "one idle period must not erase the learned arrival rate"
        );
        assert!(
            inner.gain.expected_arrival_gap_us().unwrap() < 5_000.0,
            "the EWMA still reflects the steady stream"
        );
    }

    #[test]
    fn close_wakes_blocked_poppers() {
        let q = std::sync::Arc::new(SchedQueue::<Fake>::new(4));
        let q2 = std::sync::Arc::clone(&q);
        let popper = std::thread::spawn(move || q2.pop_batch(1, Duration::ZERO));
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(popper.join().unwrap(), None);
    }
}
