//! Attempt/failure counters and the per-unit watchdog clock.
//!
//! Workload threads mark each unit of work (a scenario epoch, a pin
//! sweep, a daemon op) with [`Watch::begin`] / [`Watch::end`]; the main
//! thread polls [`Watch::overrun`] and gives up on a unit that runs past
//! its limit, counting the work it held as failed.

use crate::report::Outcome;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Concurrent units a workload may have in flight (one per client).
const SLOTS: usize = 2;

/// Shared counters of one run.
pub struct Watch {
    start: Instant,
    unit: &'static str,
    limit: Duration,
    /// Microseconds since `start` (plus one) at which the slot's unit
    /// began; 0 while the slot is idle.
    busy_since: [AtomicU64; SLOTS],
    /// Attempts that fail if the slot's unit never finishes.
    at_risk: [AtomicU64; SLOTS],
    attempted: AtomicU64,
    failed: AtomicU64,
}

impl Watch {
    /// Counters for `workload`, with its unit of work and that unit's
    /// time limit.
    pub fn new(workload: &str) -> Watch {
        match workload {
            "plan-k1000" => Watch::with_limit("pin sweep", Duration::from_secs(90)),
            "service-fleet" => Watch::with_limit("daemon op", Duration::from_secs(30)),
            _ => Watch::with_limit("scenario epoch", Duration::from_secs(30)),
        }
    }

    fn with_limit(unit: &'static str, limit: Duration) -> Watch {
        Watch {
            start: Instant::now(),
            unit,
            limit,
            busy_since: Default::default(),
            at_risk: Default::default(),
            attempted: AtomicU64::new(0),
            failed: AtomicU64::new(0),
        }
    }

    /// Records `n` attempts (jobs offered, probes, or ops).
    pub fn attempt(&self, n: u64) {
        self.attempted.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` failed attempts.
    pub fn fail(&self, n: u64) {
        self.failed.fetch_add(n, Ordering::Relaxed);
    }

    /// Attempts recorded so far.
    pub fn attempted(&self) -> u64 {
        self.attempted.load(Ordering::Relaxed)
    }

    /// Failures recorded so far.
    pub fn failed(&self) -> u64 {
        self.failed.load(Ordering::Relaxed)
    }

    /// Marks the start of a unit of work on `slot`; `at_risk` attempts
    /// fail if it never ends.
    pub fn begin(&self, slot: usize, at_risk: u64) {
        self.at_risk[slot].store(at_risk, Ordering::SeqCst);
        let now = self.start.elapsed().as_micros() as u64 + 1;
        self.busy_since[slot].store(now, Ordering::SeqCst);
    }

    /// Marks the end of the unit on `slot`.
    pub fn end(&self, slot: usize) {
        self.busy_since[slot].store(0, Ordering::SeqCst);
    }

    fn busy_for(&self, slot: usize) -> Option<Duration> {
        let since = self.busy_since[slot].load(Ordering::SeqCst);
        (since != 0).then(|| {
            self.start
                .elapsed()
                .saturating_sub(Duration::from_micros(since - 1))
        })
    }

    /// A description of the first unit that has run past the limit.
    pub fn overrun(&self) -> Option<String> {
        (0..SLOTS).find_map(|slot| {
            let busy = self.busy_for(slot)?;
            (busy > self.limit).then(|| {
                format!(
                    "a {} on slot {slot} has run {:.1} s, past its {} s limit",
                    self.unit,
                    busy.as_secs_f64(),
                    self.limit.as_secs()
                )
            })
        })
    }

    /// The outcome of a run the watchdog gave up on: every attempt held by
    /// an unfinished unit counts as failed, and no metric is reported.
    pub fn abandoned(&self, reason: &str) -> Outcome {
        let mut lost = 0;
        for slot in 0..SLOTS {
            if self.busy_for(slot).is_some() {
                lost += self.at_risk[slot].load(Ordering::SeqCst).max(1);
            }
        }
        self.fail(lost.max(1));
        if self.attempted() < self.failed() {
            self.attempt(self.failed() - self.attempted());
        }
        let mut outcome = Outcome::default();
        outcome.fault(format!("watchdog: {reason}"));
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_wedged_unit_fails_its_attempts() {
        let watch = Watch::with_limit("epoch", Duration::from_millis(20));
        watch.attempt(7);
        watch.begin(1, 5);
        assert!(watch.overrun().is_none());
        std::thread::sleep(Duration::from_millis(40));
        let stuck = watch.overrun().expect("the unit overran");
        assert!(stuck.contains("slot 1"), "{stuck}");
        let outcome = watch.abandoned(&stuck);
        assert!(!outcome.faults.is_empty());
        assert_eq!((watch.attempted(), watch.failed()), (7, 5));
    }

    #[test]
    fn finished_units_never_overrun() {
        let watch = Watch::with_limit("op", Duration::from_millis(1));
        watch.begin(0, 1);
        watch.end(0);
        std::thread::sleep(Duration::from_millis(5));
        assert!(watch.overrun().is_none());
    }
}
