//! The bounded admission queue: per-client FIFOs drained round-robin.
//!
//! Admission happens on connection threads ([`AdmissionQueue::try_admit`]
//! never blocks — a full queue is an *explicit* shed, not an invisible
//! wait); workers block on [`AdmissionQueue::next`]. Fairness is
//! rotation-based: each dequeue takes the front job of the least
//! recently served client, so one chatty client cannot starve the rest
//! however deep its own FIFO grows.
//!
//! Drain protocol: [`AdmissionQueue::begin_drain`] stops admissions,
//! [`AdmissionQueue::await_idle`] blocks until every admitted job has
//! been executed (or the grace expires), [`AdmissionQueue::shutdown`]
//! releases the workers.

use std::collections::{HashMap, VecDeque};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// The work carried by an admitted request.
#[derive(Debug, Clone, PartialEq)]
pub enum Work {
    /// Answer one question through the read path.
    Ask {
        /// The question text.
        question: String,
    },
    /// Answer several questions through the read path.
    Batch {
        /// The question texts.
        questions: Vec<String>,
    },
    /// Answer the questions and feed the answers into the warehouse
    /// (one serialized transaction on the write path).
    Feedback {
        /// The question texts.
        questions: Vec<String>,
    },
}

/// One admitted work item.
#[derive(Debug, Clone)]
pub struct Job {
    /// The connection that submitted the work.
    pub client: u64,
    /// The request's correlation id.
    pub request_id: u64,
    /// What to do.
    pub work: Work,
    /// When admission happened (queue-wait accounting).
    pub admitted_at: Instant,
    /// Per-question wall-clock deadline propagated from the request.
    pub deadline: Option<Instant>,
}

/// Why a job was not admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitError {
    /// The queue holds `depth` jobs, at or beyond capacity.
    AtCapacity {
        /// Jobs queued at the time of the refusal.
        depth: usize,
    },
    /// The queue is draining and admits nothing new.
    Draining,
}

#[derive(Default)]
struct QueueState {
    per_client: HashMap<u64, VecDeque<Job>>,
    /// Clients with at least one queued job, least recently served first.
    rotation: VecDeque<u64>,
    queued: usize,
    in_flight: usize,
    draining: bool,
    shutdown: bool,
}

impl QueueState {
    fn pop_round_robin(&mut self) -> Option<Job> {
        let client = self.rotation.pop_front()?;
        let fifo = self.per_client.get_mut(&client)?;
        let job = fifo.pop_front()?;
        if fifo.is_empty() {
            self.per_client.remove(&client);
        } else {
            self.rotation.push_back(client);
        }
        self.queued -= 1;
        Some(job)
    }
}

/// A bounded multi-client work queue with round-robin dequeue.
pub struct AdmissionQueue {
    capacity: usize,
    state: Mutex<QueueState>,
    work_ready: Condvar,
    idle: Condvar,
}

impl AdmissionQueue {
    /// An empty queue admitting at most `capacity` jobs.
    pub fn new(capacity: usize) -> AdmissionQueue {
        AdmissionQueue {
            capacity,
            state: Mutex::new(QueueState::default()),
            work_ready: Condvar::new(),
            idle: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, QueueState> {
        // Jobs carry no invariants a panicking thread could break
        // mid-update; recover the guard rather than poisoning the
        // whole service.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Admits a job, or refuses without blocking.
    pub fn try_admit(&self, job: Job) -> Result<(), AdmitError> {
        let mut state = self.lock();
        if state.draining || state.shutdown {
            return Err(AdmitError::Draining);
        }
        if state.queued >= self.capacity {
            return Err(AdmitError::AtCapacity {
                depth: state.queued,
            });
        }
        let client = job.client;
        let fifo = state.per_client.entry(client).or_default();
        let newly_active = fifo.is_empty();
        fifo.push_back(job);
        if newly_active {
            state.rotation.push_back(client);
        }
        state.queued += 1;
        drop(state);
        self.work_ready.notify_one();
        Ok(())
    }

    /// Blocks until a job is available (returning it and marking it
    /// in-flight) or the queue has shut down (returning `None`).
    pub fn next(&self) -> Option<Job> {
        let mut state = self.lock();
        loop {
            if state.shutdown {
                return None;
            }
            if let Some(job) = state.pop_round_robin() {
                state.in_flight += 1;
                return Some(job);
            }
            state = self
                .work_ready
                .wait(state)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Marks one in-flight job finished; wakes drain waiters when the
    /// queue goes idle.
    pub fn done(&self) {
        let mut state = self.lock();
        state.in_flight = state.in_flight.saturating_sub(1);
        if state.queued == 0 && state.in_flight == 0 {
            drop(state);
            self.idle.notify_all();
        }
    }

    /// Stops admitting new jobs; queued and in-flight jobs continue.
    pub fn begin_drain(&self) {
        self.lock().draining = true;
    }

    /// Whether a drain has begun.
    pub fn draining(&self) -> bool {
        self.lock().draining
    }

    /// Blocks until every admitted job has executed, or `grace`
    /// expires. Returns whether the queue went fully idle.
    pub fn await_idle(&self, grace: Duration) -> bool {
        let deadline = Instant::now() + grace;
        let mut state = self.lock();
        while state.queued > 0 || state.in_flight > 0 {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (next, _timeout) = self
                .idle
                .wait_timeout(state, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            state = next;
        }
        true
    }

    /// Releases blocked workers; [`AdmissionQueue::next`] returns
    /// `None` from here on. Jobs still queued are abandoned (drain
    /// calls this only after [`AdmissionQueue::await_idle`]).
    pub fn shutdown(&self) {
        self.lock().shutdown = true;
        self.work_ready.notify_all();
    }

    /// Jobs admitted but not yet dispatched to a worker.
    pub fn depth(&self) -> usize {
        self.lock().queued
    }

    /// Jobs dispatched and still executing.
    pub fn in_flight(&self) -> usize {
        self.lock().in_flight
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn job(client: u64, request_id: u64) -> Job {
        Job {
            client,
            request_id,
            work: Work::Ask {
                question: format!("q{request_id}"),
            },
            admitted_at: Instant::now(),
            deadline: None,
        }
    }

    #[test]
    fn dequeue_is_round_robin_across_clients_not_fifo_overall() {
        let queue = AdmissionQueue::new(16);
        // Client 1 floods; client 2 sends one request afterwards.
        for id in 0..3 {
            queue.try_admit(job(1, id)).unwrap();
        }
        queue.try_admit(job(2, 100)).unwrap();
        let order: Vec<(u64, u64)> = (0..4)
            .map(|_| {
                let j = queue.next().unwrap();
                queue.done();
                (j.client, j.request_id)
            })
            .collect();
        // Client 2 is served second, not last.
        assert_eq!(order, vec![(1, 0), (2, 100), (1, 1), (1, 2)]);
    }

    #[test]
    fn admission_is_refused_at_capacity_with_the_depth() {
        let queue = AdmissionQueue::new(2);
        queue.try_admit(job(1, 0)).unwrap();
        assert_eq!(queue.try_admit(job(1, 1)), Ok(()));
        assert_eq!(queue.depth(), 2);
        assert_eq!(
            queue.try_admit(job(2, 2)),
            Err(AdmitError::AtCapacity { depth: 2 })
        );
        // Draining a slot reopens admission.
        queue.next().unwrap();
        queue.done();
        assert_eq!(queue.try_admit(job(2, 2)), Ok(()));
        assert_eq!(queue.depth(), 2);
    }

    #[test]
    fn draining_refuses_new_work_but_keeps_queued_work() {
        let queue = AdmissionQueue::new(4);
        queue.try_admit(job(1, 0)).unwrap();
        queue.begin_drain();
        assert_eq!(queue.try_admit(job(1, 1)), Err(AdmitError::Draining));
        assert_eq!(queue.depth(), 1);
        assert!(queue.next().is_some());
    }

    #[test]
    fn await_idle_blocks_until_workers_finish() {
        let queue = Arc::new(AdmissionQueue::new(4));
        for id in 0..3 {
            queue.try_admit(job(1, id)).unwrap();
        }
        queue.begin_drain();
        let worker = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || {
                while let Some(_job) = queue.next() {
                    std::thread::sleep(Duration::from_millis(5));
                    queue.done();
                }
            })
        };
        assert!(queue.await_idle(Duration::from_secs(5)));
        assert_eq!(queue.depth(), 0);
        assert_eq!(queue.in_flight(), 0);
        queue.shutdown();
        worker.join().unwrap();
    }

    #[test]
    fn shutdown_releases_blocked_workers_with_none() {
        let queue = Arc::new(AdmissionQueue::new(4));
        let worker = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || queue.next())
        };
        std::thread::sleep(Duration::from_millis(20));
        queue.shutdown();
        assert!(worker.join().unwrap().is_none());
    }
}
