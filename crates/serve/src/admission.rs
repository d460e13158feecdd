//! Bounded admission with load shedding.
//!
//! The service runs at most `max_concurrency` requests at once; up to
//! `queue_capacity` more may wait. Beyond that the service *sheds load*
//! instead of queueing unboundedly — an unbounded queue converts overload
//! into unbounded latency, which for a deadline-bearing workload means
//! every queued request eventually times out anyway (serving none of them)
//! while memory grows. The two policies ([`ShedPolicy`]) pick *which*
//! request eats the typed [`ServeError::Overloaded`]: the newest arrival
//! (FIFO-fair) or the oldest waiter (freshest-first — the oldest waiter
//! has burned the most budget and is the most likely to miss its deadline
//! regardless).
//!
//! Implementation: a mutex-guarded counter + FIFO of per-request tickets,
//! each ticket a tiny `Mutex<TicketState>` + `Condvar`. A finishing
//! request hands its slot directly to the head of the queue (no thundering
//! herd, no barging: admission order is queue order). Waiters time out on
//! their own [`Deadline`] and withdraw, so a dead request never occupies a
//! queue slot.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use qfe_core::Deadline;
use qfe_obs::{Counter, Gauge, Recorder};

use crate::error::{OverloadKind, ServeError, ShedPolicy};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TicketState {
    Waiting,
    Admitted,
    Shed,
}

struct Ticket {
    state: Mutex<TicketState>,
    cv: Condvar,
    /// When the ticket entered the queue; the time-in-queue histogram
    /// records the span from here to whichever way the wait resolves
    /// (admitted, shed, or withdrawn).
    enqueued_at: Instant,
}

/// Recorder plus the precomputed time-in-queue histogram name (no
/// allocation on the admission path).
struct WaitMetric {
    recorder: Arc<dyn Recorder>,
    name: String,
}

struct QueueState {
    running: usize,
    waiting: VecDeque<Arc<Ticket>>,
}

/// Counter snapshot of admission activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Requests currently executing.
    pub running: usize,
    /// Requests currently queued.
    pub queued: usize,
    /// Lifetime admissions.
    pub admitted: u64,
    /// Requests rejected on arrival (`RejectNew` with a full queue).
    pub rejected: u64,
    /// Queued requests evicted by a newer arrival (`ShedOldest`).
    pub shed: u64,
    /// Waiters that withdrew because their deadline expired in the queue.
    pub queue_timeouts: u64,
}

pub(crate) struct AdmissionQueue {
    max_concurrency: usize,
    capacity: usize,
    policy: ShedPolicy,
    state: Mutex<QueueState>,
    admitted: Counter,
    rejected: Counter,
    shed: Counter,
    queue_timeouts: Counter,
    /// Current queue length, updated on every queue mutation.
    depth: Gauge,
    wait: Option<WaitMetric>,
}

/// An admitted request's slot; releasing it (on drop) admits the next
/// queued request if any.
pub(crate) struct Permit<'a> {
    queue: &'a AdmissionQueue,
}

impl std::fmt::Debug for Permit<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Permit")
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.queue.release();
    }
}

impl AdmissionQueue {
    pub(crate) fn new(max_concurrency: usize, capacity: usize, policy: ShedPolicy) -> Self {
        AdmissionQueue {
            max_concurrency: max_concurrency.max(1),
            capacity,
            policy,
            state: Mutex::new(QueueState {
                running: 0,
                waiting: VecDeque::new(),
            }),
            admitted: Counter::new(),
            rejected: Counter::new(),
            shed: Counter::new(),
            queue_timeouts: Counter::new(),
            depth: Gauge::new(),
            wait: None,
        }
    }

    /// Register the lifetime counters (`<prefix>.{admitted,rejected,shed,
    /// timeouts}`) and the queue-depth gauge (`<prefix>.depth`) with
    /// `recorder`, and publish a time-in-queue histogram (`<prefix>.wait`)
    /// to it.
    pub(crate) fn with_recorder(mut self, recorder: Arc<dyn Recorder>, prefix: &str) -> Self {
        for (name, counter) in [
            ("admitted", &self.admitted),
            ("rejected", &self.rejected),
            ("shed", &self.shed),
            ("timeouts", &self.queue_timeouts),
        ] {
            recorder.register_counter(&format!("{prefix}.{name}"), counter);
        }
        recorder.register_gauge(&format!("{prefix}.depth"), &self.depth);
        self.wait = Some(WaitMetric {
            recorder,
            name: format!("{prefix}.wait"),
        });
        self
    }

    fn set_depth_gauge(&self, depth: usize) {
        self.depth.set(depth as u64);
    }

    fn record_wait(&self, ticket: &Ticket) {
        if let Some(w) = &self.wait {
            w.recorder.record(&w.name, ticket.enqueued_at.elapsed());
        }
    }

    /// Mutex recovery: the critical sections below cannot panic, but a
    /// poisoned admission queue must never brick the service — the
    /// guarded state is plain data either way.
    fn lock(&self) -> MutexGuard<'_, QueueState> {
        match self.state.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn lock_ticket<'t>(ticket: &'t Ticket) -> MutexGuard<'t, TicketState> {
        match ticket.state.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Block until admitted, shed, or the deadline expires in the queue.
    pub(crate) fn acquire(&self, deadline: &Deadline) -> Result<Permit<'_>, ServeError> {
        let ticket = {
            let mut st = self.lock();
            if st.running < self.max_concurrency {
                st.running += 1;
                self.admitted.incr();
                return Ok(Permit { queue: self });
            }
            if st.waiting.len() >= self.capacity {
                match self.policy {
                    ShedPolicy::RejectNew => {
                        self.rejected.incr();
                        return Err(ServeError::Overloaded {
                            kind: OverloadKind::RejectedAtAdmission,
                            policy: self.policy,
                            queue_len: st.waiting.len(),
                            capacity: self.capacity,
                        });
                    }
                    ShedPolicy::ShedOldest => {
                        if let Some(victim) = st.waiting.pop_front() {
                            self.set_depth_gauge(st.waiting.len());
                            *Self::lock_ticket(&victim) = TicketState::Shed;
                            victim.cv.notify_all();
                            self.shed.incr();
                        }
                    }
                }
            }
            // A zero-capacity queue under ShedOldest degenerates to
            // rejection: there is no queue to displace anyone from.
            if self.capacity == 0 {
                self.rejected.incr();
                return Err(ServeError::Overloaded {
                    kind: OverloadKind::RejectedAtAdmission,
                    policy: self.policy,
                    queue_len: 0,
                    capacity: 0,
                });
            }
            let ticket = Arc::new(Ticket {
                state: Mutex::new(TicketState::Waiting),
                cv: Condvar::new(),
                enqueued_at: Instant::now(),
            });
            st.waiting.push_back(Arc::clone(&ticket));
            self.set_depth_gauge(st.waiting.len());
            ticket
        };
        self.wait_on(ticket, deadline)
    }

    fn wait_on(&self, ticket: Arc<Ticket>, deadline: &Deadline) -> Result<Permit<'_>, ServeError> {
        let mut state = Self::lock_ticket(&ticket);
        loop {
            match *state {
                TicketState::Admitted => {
                    self.admitted.incr();
                    self.record_wait(&ticket);
                    return Ok(Permit { queue: self });
                }
                TicketState::Shed => {
                    self.record_wait(&ticket);
                    let st = self.lock();
                    return Err(ServeError::Overloaded {
                        kind: OverloadKind::ShedWhileQueued,
                        policy: self.policy,
                        queue_len: st.waiting.len(),
                        capacity: self.capacity,
                    });
                }
                TicketState::Waiting => {
                    let remaining = deadline.remaining();
                    if remaining.is_zero() {
                        // Withdraw — but only if we are still queued. If
                        // the ticket is gone from the queue, an admit or
                        // shed is racing us: re-check the state (the
                        // resolver sets it right after popping).
                        drop(state);
                        let mut st = self.lock();
                        if let Some(pos) = st.waiting.iter().position(|t| Arc::ptr_eq(t, &ticket)) {
                            st.waiting.remove(pos);
                            self.set_depth_gauge(st.waiting.len());
                            drop(st);
                            self.queue_timeouts.incr();
                            self.record_wait(&ticket);
                            return Err(ServeError::DeadlineExceeded {
                                budget: deadline.budget(),
                                elapsed: deadline.elapsed(),
                                stages_tried: 0,
                                admitted: false,
                            });
                        }
                        drop(st);
                        state = Self::lock_ticket(&ticket);
                        if *state == TicketState::Waiting {
                            // Popped but not yet resolved: the resolver
                            // holds no locks we need — yield briefly.
                            let (g, _) = ticket
                                .cv
                                .wait_timeout(state, Duration::from_millis(1))
                                .unwrap_or_else(|p| p.into_inner());
                            state = g;
                        }
                        continue;
                    }
                    let (g, _) = ticket
                        .cv
                        .wait_timeout(state, remaining)
                        .unwrap_or_else(|p| p.into_inner());
                    state = g;
                }
            }
        }
    }

    /// Hand the slot to the next waiter, or free it.
    fn release(&self) {
        let mut st = self.lock();
        if let Some(next) = st.waiting.pop_front() {
            self.set_depth_gauge(st.waiting.len());
            *Self::lock_ticket(&next) = TicketState::Admitted;
            next.cv.notify_all();
            // `running` is unchanged: the slot transfers directly.
        } else {
            st.running = st.running.saturating_sub(1);
        }
    }

    pub(crate) fn stats(&self) -> AdmissionStats {
        let st = self.lock();
        AdmissionStats {
            running: st.running,
            queued: st.waiting.len(),
            admitted: self.admitted.get(),
            rejected: self.rejected.get(),
            shed: self.shed.get(),
            queue_timeouts: self.queue_timeouts.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread;

    #[test]
    fn admits_up_to_concurrency_then_queues() {
        let q = Arc::new(AdmissionQueue::new(2, 4, ShedPolicy::RejectNew));
        let d = Deadline::unbounded();
        let p1 = q.acquire(&d).unwrap();
        let _p2 = q.acquire(&d).unwrap();
        assert_eq!(q.stats().running, 2);

        // Third request must wait until a permit is released.
        let entered = Arc::new(AtomicUsize::new(0));
        let handle = {
            let entered = Arc::clone(&entered);
            let q = Arc::clone(&q);
            thread::spawn(move || {
                let _p = q.acquire(&Deadline::unbounded()).unwrap();
                entered.fetch_add(1, Ordering::SeqCst);
            })
        };
        while q.stats().queued == 0 {
            thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(entered.load(Ordering::SeqCst), 0, "must be queued");
        drop(p1);
        handle.join().unwrap();
        assert_eq!(entered.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn reject_new_rejects_when_queue_is_full() {
        let q = AdmissionQueue::new(1, 0, ShedPolicy::RejectNew);
        let d = Deadline::unbounded();
        let _p = q.acquire(&d).unwrap();
        let err = q.acquire(&d).unwrap_err();
        assert!(matches!(
            err,
            ServeError::Overloaded {
                kind: OverloadKind::RejectedAtAdmission,
                policy: ShedPolicy::RejectNew,
                ..
            }
        ));
        assert_eq!(q.stats().rejected, 1);
    }

    #[test]
    fn deadline_expires_in_queue() {
        let q = AdmissionQueue::new(1, 4, ShedPolicy::RejectNew);
        let _p = q.acquire(&Deadline::unbounded()).unwrap();
        let err = q
            .acquire(&Deadline::within(Duration::from_millis(20)))
            .unwrap_err();
        assert!(matches!(
            err,
            ServeError::DeadlineExceeded {
                admitted: false,
                stages_tried: 0,
                ..
            }
        ));
        let s = q.stats();
        assert_eq!((s.queue_timeouts, s.queued), (1, 0), "waiter withdrew");
    }

    #[test]
    fn recorder_sees_queue_depth_and_wait_time() {
        let recorder = Arc::new(qfe_obs::MetricsRecorder::new());
        let q = Arc::new(
            AdmissionQueue::new(1, 4, ShedPolicy::RejectNew)
                .with_recorder(recorder.clone(), "serve.queue"),
        );
        let p = q.acquire(&Deadline::unbounded()).unwrap();
        // A second request queues; the gauge reflects the depth.
        let handle = {
            let q = Arc::clone(&q);
            thread::spawn(move || q.acquire(&Deadline::unbounded()).map(|_| ()))
        };
        while q.stats().queued == 0 {
            thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(recorder.gauge("serve.queue.depth"), 1);
        drop(p);
        handle.join().unwrap().unwrap();
        assert_eq!(recorder.gauge("serve.queue.depth"), 0);
        // The queued request's wait shows up in the histogram; the
        // immediately admitted one is not recorded (it never queued).
        let snap = recorder.snapshot();
        let wait = snap.histogram("serve.queue.wait").expect("wait histogram");
        assert_eq!(wait.count, 1);
        assert!(wait.sum_nanos > 0);
    }

    #[test]
    fn shed_oldest_evicts_the_head_of_the_queue() {
        let q = Arc::new(AdmissionQueue::new(1, 1, ShedPolicy::ShedOldest));
        let _p = q.acquire(&Deadline::unbounded()).unwrap();

        // First waiter fills the queue...
        let first = {
            let q = Arc::clone(&q);
            thread::spawn(move || q.acquire(&Deadline::unbounded()).map(|_| ()))
        };
        while q.stats().queued == 0 {
            thread::sleep(Duration::from_millis(1));
        }
        // ...second arrival sheds it and takes its place.
        let second = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                q.acquire(&Deadline::within(Duration::from_millis(200)))
                    .map(|_| ())
            })
        };
        let first_result = first.join().unwrap();
        assert!(matches!(
            first_result,
            Err(ServeError::Overloaded {
                kind: OverloadKind::ShedWhileQueued,
                policy: ShedPolicy::ShedOldest,
                ..
            })
        ));
        assert_eq!(q.stats().shed, 1);
        // Releasing the permit admits the second waiter.
        drop(_p);
        assert!(second.join().unwrap().is_ok());
    }
}
