//! A bounded multi-producer, multi-consumer FIFO job queue.
//!
//! This is the fleet server's admission stream. Producers (one reader
//! thread per connection) [`BoundedQueue::push`] admitted jobs under a
//! hard capacity bound — the backpressure seam: a full queue refuses
//! with a typed [`PushError`] instead of buffering without limit — and
//! workers block in [`BoundedQueue::pop_wait`] until a job lands or
//! [`BoundedQueue::close`] ends the stream. One mutex guards the items
//! and the closed flag; one condition variable parks idle workers. Jobs
//! run for microseconds or more, so one lock per claim is noise.
//!
//! # Example
//!
//! ```
//! use ptherm_par::queue::{BoundedQueue, PushError};
//!
//! let queue = BoundedQueue::new(2);
//! assert_eq!(queue.push("a"), Ok(()));
//! assert_eq!(queue.push("b"), Ok(()));
//! assert_eq!(queue.push("c"), Err(PushError::Full { depth: 2, capacity: 2 }));
//! queue.close();
//! assert_eq!(queue.pop_wait(), Some("a")); // queued items still drain
//! assert_eq!(queue.pop_wait(), Some("b"));
//! assert_eq!(queue.pop_wait(), None); // closed and drained
//! ```

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Why a push was refused. The queue is unchanged either way; the
/// producer decides what to do with the item (refuse upstream, shed,
/// retry later).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The queue already holds `capacity` items: admission would exceed
    /// the backpressure bound.
    Full {
        /// Queued depth observed at refusal time.
        depth: usize,
        /// The bound set by [`BoundedQueue::new`].
        capacity: usize,
    },
    /// [`BoundedQueue::close`] was called: the stream is over and no
    /// new item may be admitted.
    Closed,
}

impl std::fmt::Display for PushError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PushError::Full { depth, capacity } => {
                write!(f, "queue full (depth {depth}/{capacity})")
            }
            PushError::Closed => write!(f, "queue closed"),
        }
    }
}

impl std::error::Error for PushError {}

/// A FIFO holding at most `capacity` items, shared by any number of
/// producers and consumers (see the [module docs](self)).
#[derive(Debug)]
pub struct BoundedQueue<T> {
    state: Mutex<State<T>>,
    /// Signalled on every push (one waiter) and on close (all waiters).
    ready: Condvar,
    capacity: usize,
}

#[derive(Debug)]
struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

impl<T> BoundedQueue<T> {
    /// An empty open queue admitting at most `capacity` queued items. A
    /// capacity of 0 is valid and refuses every push with
    /// [`PushError::Full`].
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            state: Mutex::new(State {
                items: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            capacity,
        }
    }

    /// The admission bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items currently queued (admitted, not yet claimed). The live
    /// backpressure signal a server's metrics report.
    pub fn depth(&self) -> usize {
        self.lock().items.len()
    }

    /// Appends one item and wakes one parked consumer.
    ///
    /// # Errors
    ///
    /// [`PushError::Closed`] after [`Self::close`], otherwise
    /// [`PushError::Full`] when the queue already holds `capacity`
    /// items. On `Err` the item was not enqueued.
    pub fn push(&self, item: T) -> Result<(), PushError> {
        let mut state = self.lock();
        if state.closed {
            return Err(PushError::Closed);
        }
        let depth = state.items.len();
        if depth >= self.capacity {
            return Err(PushError::Full {
                depth,
                capacity: self.capacity,
            });
        }
        state.items.push_back(item);
        drop(state);
        self.ready.notify_one();
        Ok(())
    }

    /// Claims the oldest item, parking until one is pushed. Returns
    /// `None` exactly when the queue is closed **and** drained, so a
    /// worker loop is simply `while let Some(job) = queue.pop_wait()`.
    pub fn pop_wait(&self) -> Option<T> {
        let mut state = self.lock();
        loop {
            if let Some(item) = state.items.pop_front() {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self
                .ready
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Ends the stream: further pushes refuse with
    /// [`PushError::Closed`], and once the queue drains every
    /// [`Self::pop_wait`] returns `None`. Items already queued are
    /// still claimed — close-then-drain is the graceful shutdown path.
    pub fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }

    fn lock(&self) -> MutexGuard<'_, State<T>> {
        // Every critical section is a single deque or flag update, so a
        // panic elsewhere cannot leave the state half-written.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn items_come_out_in_push_order() {
        let q = BoundedQueue::new(8);
        for i in 0..5 {
            assert_eq!(q.push(i), Ok(()));
        }
        assert_eq!(q.depth(), 5);
        let got: Vec<u32> = (0..5).filter_map(|_| q.pop_wait()).collect();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn full_queue_refuses_with_typed_depth() {
        let q = BoundedQueue::new(2);
        assert_eq!(q.capacity(), 2);
        assert!(q.push(1).is_ok());
        assert!(q.push(2).is_ok());
        let full = PushError::Full {
            depth: 2,
            capacity: 2,
        };
        assert_eq!(q.push(3), Err(full));
        assert_eq!(full.to_string(), "queue full (depth 2/2)");
        // Claiming one item frees a slot.
        assert_eq!(q.pop_wait(), Some(1));
        assert!(q.push(3).is_ok());
    }

    #[test]
    fn zero_capacity_refuses_every_push() {
        let q = BoundedQueue::new(0);
        assert_eq!(
            q.push(1),
            Err(PushError::Full {
                depth: 0,
                capacity: 0
            })
        );
        assert_eq!(q.depth(), 0);
        q.close();
        assert_eq!(q.pop_wait(), None::<u32>);
    }

    #[test]
    fn close_refuses_new_pushes_but_drains_queued_items() {
        let q = BoundedQueue::new(8);
        assert!(q.push(7).is_ok());
        q.close();
        assert_eq!(q.push(8), Err(PushError::Closed));
        assert_eq!(PushError::Closed.to_string(), "queue closed");
        assert_eq!(q.pop_wait(), Some(7));
        assert_eq!(q.pop_wait(), None);
        assert_eq!(q.pop_wait(), None);
    }

    #[test]
    fn pop_wait_parks_until_an_item_lands() {
        let q = BoundedQueue::new(4);
        std::thread::scope(|scope| {
            let consumer = scope.spawn(|| q.pop_wait());
            // Give the consumer a moment to park, then feed it.
            std::thread::sleep(std::time::Duration::from_millis(20));
            assert!(q.push(42).is_ok());
            assert_eq!(consumer.join().expect("join"), Some(42));
        });
    }

    #[test]
    fn concurrent_claims_are_exactly_once() {
        let total: usize = 2_000;
        let q = BoundedQueue::new(total);
        std::thread::scope(|scope| {
            let producers: Vec<_> = (0..2)
                .map(|p| {
                    let q = &q;
                    scope.spawn(move || {
                        for i in (p..total).step_by(2) {
                            // Capacity equals the total, so every push
                            // must be admitted.
                            q.push(i).expect("under capacity");
                        }
                    })
                })
                .collect();
            let consumers: Vec<_> = (0..4)
                .map(|_| {
                    let q = &q;
                    scope.spawn(move || std::iter::from_fn(|| q.pop_wait()).collect::<Vec<_>>())
                })
                .collect();
            for p in producers {
                p.join().expect("producer");
            }
            q.close();
            let mut all: Vec<usize> = consumers
                .into_iter()
                .flat_map(|c| c.join().expect("consumer"))
                .collect();
            all.sort_unstable();
            assert_eq!(all, (0..total).collect::<Vec<_>>());
        });
        assert_eq!(q.depth(), 0);
    }
}
