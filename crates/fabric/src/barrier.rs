//! The epoch barrier: a generation barrier that spins briefly before it
//! sleeps, and that a panicking shard can poison.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// The longest a waiter polls before it blocks: the order of the futex
/// sleep and wake it saves, epoch waits being mostly shorter than those.
const SPIN_CAP_NS: u64 = 50_000;

/// The unwind payload of a shard released by [`EpochBarrier::poison`], so
/// `run_fabric` can tell the shard that failed from those it took down.
pub(crate) struct PeerPanicked;

#[derive(Default)]
pub(crate) struct EpochBarrier {
    parties: usize,
    /// 0 when waiters may not poll at all.
    spin_cap_ns: u64,
    /// What the next waiter polls for: halved, down to a sixteenth of the
    /// cap, by every poll that times out and doubled back by every wait
    /// that does not, so a run whose waits outlast the budget (a busy
    /// neighbour on one of the cores) stops paying for it.
    spin_ns: AtomicU64,
    arrived: AtomicUsize,
    generation: AtomicUsize,
    poisoned: AtomicBool,
    /// Waiters blocked (or about to block) on `wake`; a release that finds
    /// none skips the notify syscall.
    sleepers: Mutex<usize>,
    wake: Condvar,
}

impl EpochBarrier {
    /// `spin` is for runs in which every party owns a core: a waiter
    /// polling on the core of a peer yet to arrive lengthens the epoch.
    pub(crate) fn new(parties: usize, spin: bool) -> EpochBarrier {
        let spin_cap_ns = if spin { SPIN_CAP_NS } else { 0 };
        EpochBarrier {
            parties,
            spin_cap_ns,
            spin_ns: AtomicU64::new(spin_cap_ns),
            ..EpochBarrier::default()
        }
    }

    /// The counter stays valid wherever a holder unwinds, so a poisoned
    /// lock is simply taken over.
    fn sleepers(&self) -> MutexGuard<'_, usize> {
        self.sleepers.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// True once `generation` is over, one way or the other. The `Acquire`
    /// loads pair with the `Release` stores of [`Self::wait`] and
    /// [`Self::poison`]: whoever sees the new generation also sees what
    /// every party wrote before it arrived.
    fn released(&self, generation: usize) -> bool {
        self.generation.load(Ordering::Acquire) != generation
            || self.poisoned.load(Ordering::Acquire)
    }

    /// Block until all parties have arrived; unwind with [`PeerPanicked`]
    /// if the barrier is poisoned first.
    pub(crate) fn wait(&self) {
        let generation = self.generation.load(Ordering::Acquire);
        // `AcqRel`: the last arriver acquires what every earlier one
        // released and hands all of it on through `generation`.
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.parties {
            self.arrived.store(0, Ordering::Relaxed);
            // Under the lock, so a waiter that has checked the generation
            // and is about to block cannot miss the notify.
            let sleepers = self.sleepers();
            self.generation.store(generation + 1, Ordering::Release);
            if *sleepers > 0 {
                self.wake.notify_all();
            }
            return;
        }
        // `Relaxed`: the budget is a heuristic and publishes nothing.
        let budget = self.spin_ns.load(Ordering::Relaxed);
        let (started, limit) = (Instant::now(), Duration::from_nanos(budget));
        while !self.released(generation) && started.elapsed() < limit {
            std::hint::spin_loop();
        }
        if self.released(generation) {
            let doubled = (2 * budget).min(self.spin_cap_ns);
            self.spin_ns.store(doubled, Ordering::Relaxed);
        } else {
            let halved = (budget / 2).max(self.spin_cap_ns / 16);
            self.spin_ns.store(halved, Ordering::Relaxed);
            let mut sleepers = self.sleepers();
            *sleepers += 1;
            while !self.released(generation) {
                sleepers = self
                    .wake
                    .wait(sleepers)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            *sleepers -= 1;
        }
        if self.poisoned.load(Ordering::Acquire) {
            std::panic::resume_unwind(Box::new(PeerPanicked));
        }
    }

    /// Release every current and future waiter with a [`PeerPanicked`]
    /// unwind. Runs in a drop guard, so it must not panic itself.
    pub(crate) fn poison(&self) {
        let _sleepers = self.sleepers();
        self.poisoned.store(true, Ordering::Release);
        self.wake.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every thread bumps the slot of the generation it is in before
    /// waiting and reads it after: a full count proves nobody passed early.
    fn nobody_passes_early(spin: bool) {
        const GENERATIONS: usize = 1000;
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let parties = 4 * cores;
        let barrier = EpochBarrier::new(parties, spin);
        let arrivals: Vec<AtomicUsize> = (0..GENERATIONS).map(|_| AtomicUsize::new(0)).collect();
        std::thread::scope(|scope| {
            for _ in 0..parties {
                scope.spawn(|| {
                    for slot in &arrivals {
                        slot.fetch_add(1, Ordering::Relaxed);
                        barrier.wait();
                        assert_eq!(slot.load(Ordering::Relaxed), parties);
                    }
                });
            }
        });
    }

    #[test]
    fn nobody_passes_early_spinning() {
        nobody_passes_early(true);
    }

    #[test]
    fn nobody_passes_early_blocking() {
        nobody_passes_early(false);
    }

    #[test]
    fn poison_releases_a_waiter() {
        let barrier = EpochBarrier::new(2, false);
        let waiter = std::thread::scope(|scope| {
            let waiter = scope.spawn(|| barrier.wait());
            barrier.poison();
            waiter.join()
        });
        assert!(waiter.unwrap_err().is::<PeerPanicked>());
    }
}
