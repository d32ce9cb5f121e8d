//! Background ECC scrubbing: the module that makes SECDED correction
//! latency — and the double-upset window — real, measurable quantities.
//!
//! Real memory macros do not fix upsets the instant they land; a scrub
//! engine walks the array at some words per cycle, and every word is only
//! as protected as the time since its last visit. [`EccScrubber`] models
//! exactly that over every [`FaultableMemory`](crate::FaultableMemory)
//! registered on a [`FaultHandle`](crate::FaultHandle) (in registration
//! order, concatenated into one address space):
//!
//! * A SECDED upset injected while a scrubber is attached stays **latent**
//!   — the stored data really is corrupt — until the sweep reaches its
//!   word, at which point it is corrected, counted under `mem.corrected`,
//!   and its upset-to-correction latency recorded
//!   ([`FaultHandle::scrub_latencies`](crate::FaultHandle::scrub_latencies)).
//! * Two upsets landing in the same word between visits are a **double
//!   upset**: SECDED detects but cannot correct, so the word stays corrupt
//!   and `mem.detected` / `mem.double_upsets` count the event. Halving the
//!   scrub rate doubles that window — the analytic check `exp13_recovery`
//!   makes.
//!
//! The sweep cursor is pure cycle arithmetic (`cycle × words_per_cycle mod
//! total_words`), so skipped idle ticks cannot shear it: with no latent
//! upsets the scrubber is quiescent and its visits are unobservable, and
//! from the moment an upset lands it reports non-quiescent, forcing every
//! cycle to execute until the word is clean again. Scrub behaviour is
//! therefore bit-identical across scheduler modes and idle fast-forward.

use crate::injector::{FaultCounters, Shared};
use netfpga_core::sim::{Activity, Module, TickContext, WakeHandle};
use std::rc::Rc;

/// The background scrubber module. Build via
/// [`FaultHandle::scrubber`](crate::FaultHandle::scrubber) and register it
/// on the same clock as the injector (after it).
pub struct EccScrubber {
    label: String,
    words_per_cycle: u64,
    counters: FaultCounters,
    shared: Rc<Shared>,
    /// Activity-cache invalidation flag, woken by the injector whenever a
    /// latent upset is recorded.
    wake: WakeHandle,
}

impl EccScrubber {
    pub(crate) fn new(
        name: &str,
        words_per_cycle: u32,
        counters: FaultCounters,
        shared: Rc<Shared>,
    ) -> EccScrubber {
        let wake = WakeHandle::new();
        *shared.scrub_wake.borrow_mut() = Some(wake.clone());
        EccScrubber {
            label: name.to_string(),
            words_per_cycle: u64::from(words_per_cycle),
            counters,
            shared,
            wake,
        }
    }

    /// Scrub bandwidth, in words per cycle.
    pub fn words_per_cycle(&self) -> u64 {
        self.words_per_cycle
    }

    /// Resolve the latent upsets of word `index` of memory `mem`, if any:
    /// one upset is corrected (flipped back, latency recorded), two or
    /// more are a double upset (detected, left corrupt).
    fn visit(&self, mem: usize, index: usize, now: netfpga_core::time::Time) {
        let mut latent = self.shared.latent.borrow_mut();
        let first = match latent.iter().position(|l| l.mem == mem && l.index == index) {
            Some(i) => i,
            None => return,
        };
        let dup = latent[first + 1..]
            .iter()
            .any(|l| l.mem == mem && l.index == index);
        if !dup {
            let l = latent.remove(first);
            let mems = self.shared.mems.borrow();
            mems[mem].mem.borrow_mut().flip_bit(l.index, l.bit);
            self.counters.mem_corrected.incr();
            self.shared.scrub_latencies.borrow_mut().push(now - l.at);
        } else {
            latent.retain(|l| !(l.mem == mem && l.index == index));
            self.counters.mem_detected.incr();
            self.counters.mem_double.incr();
        }
    }
}

impl Module for EccScrubber {
    fn name(&self) -> &str {
        &self.label
    }

    fn tick(&mut self, ctx: &TickContext) {
        let sizes: Vec<u64> = {
            let mems = self.shared.mems.borrow();
            mems.iter()
                .map(|m| m.mem.borrow().entries() as u64)
                .collect()
        };
        let total: u64 = sizes.iter().sum();
        if total == 0 {
            return;
        }
        // Cursor from absolute cycle count, not tick invocations: ticks
        // skipped while quiescent (nothing latent) visit nothing
        // observable, so resuming from cycle arithmetic is exact.
        let start = ((ctx.cycle as u128 * self.words_per_cycle as u128) % total as u128) as u64;
        for k in 0..self.words_per_cycle.min(total) {
            let w = (start + k) % total;
            let (mut mi, mut off) = (0usize, w);
            while off >= sizes[mi] {
                off -= sizes[mi];
                mi += 1;
            }
            self.visit(mi, off as usize, ctx.now);
        }
    }

    fn activity(&self) -> Activity {
        // Visits to clean words have no observable effect; only a latent
        // upset makes the sweep's progress matter.
        Activity::idle_if(self.shared.latent.borrow().is_empty())
    }

    /// Only the injector recording a latent upset can un-idle the sweep;
    /// the scrubber drains the latent list in its own ticks.
    fn wake_handle(&self) -> Option<WakeHandle> {
        Some(self.wake.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EccMode, FaultInjector, FaultKind, FaultPlan};
    use netfpga_core::sim::Simulator;
    use netfpga_core::time::{Frequency, Time};
    use netfpga_mem::Bram;
    use std::cell::RefCell;

    /// Simulator + injector + scrubber over one 32-word SECDED BRAM.
    fn harness(wpc: u32) -> (Simulator, crate::FaultHandle, Rc<RefCell<Bram<u64>>>) {
        let mut sim = Simulator::new();
        let clk = sim.add_clock("core", Frequency::mhz(200));
        let (inj, handle) = FaultInjector::new("faults", &FaultPlan::new(1));
        let bram: Rc<RefCell<Bram<u64>>> = Rc::new(RefCell::new(Bram::new(32)));
        for i in 0..32 {
            bram.borrow_mut().write(i, 0xDEAD_BEEF);
        }
        handle.register_memory("mem", EccMode::Secded, bram.clone());
        let scrubber = handle.scrubber("scrub", wpc);
        sim.add_module(clk, inj);
        sim.add_module(clk, scrubber);
        (sim, handle, bram)
    }

    #[test]
    fn single_upset_stays_latent_until_scrubbed_then_corrects() {
        let (mut sim, handle, bram) = harness(1);
        handle.inject(FaultKind::MemFlip {
            memory: "mem".into(),
            index: 7,
            bit: 3,
        });
        sim.run_for(Time::from_ns(10)); // flip lands, scrub not there yet
        assert_eq!(handle.counters().mem_injected.get(), 1);
        assert_eq!(handle.counters().mem_corrected.get(), 0, "not yet visited");
        assert_eq!(handle.pending_upsets(), 1);
        assert_ne!(*bram.borrow().peek(7), 0xDEAD_BEEF, "data really corrupt");
        // One word per cycle: a full sweep is 32 cycles = 160 ns.
        sim.run_for(Time::from_ns(200));
        assert_eq!(handle.counters().mem_corrected.get(), 1);
        assert_eq!(handle.pending_upsets(), 0);
        assert_eq!(*bram.borrow().peek(7), 0xDEAD_BEEF, "corrected");
        let lat = handle.scrub_latencies();
        assert_eq!(lat.len(), 1);
        assert!(
            lat[0] <= Time::from_ns(165),
            "within one sweep period: {:?}",
            lat[0]
        );
    }

    #[test]
    fn two_flips_in_one_word_between_visits_is_a_double_upset() {
        let (mut sim, handle, bram) = harness(1);
        handle.inject(FaultKind::MemFlip {
            memory: "mem".into(),
            index: 9,
            bit: 0,
        });
        handle.inject(FaultKind::MemFlip {
            memory: "mem".into(),
            index: 9,
            bit: 5,
        });
        sim.run_for(Time::from_us(1));
        assert_eq!(handle.counters().mem_double.get(), 1);
        assert_eq!(handle.counters().mem_detected.get(), 1);
        assert_eq!(handle.counters().mem_corrected.get(), 0);
        assert_ne!(
            *bram.borrow().peek(9),
            0xDEAD_BEEF,
            "detected, NOT corrected"
        );
        assert_eq!(handle.pending_upsets(), 0, "word was visited and resolved");
    }

    #[test]
    fn faster_scrub_shortens_latency() {
        let run = |wpc: u32| {
            let (mut sim, handle, _bram) = harness(wpc);
            handle.inject(FaultKind::MemFlip {
                memory: "mem".into(),
                index: 31,
                bit: 1,
            });
            sim.run_for(Time::from_us(2));
            handle.scrub_latencies()[0]
        };
        let slow = run(1);
        let fast = run(8);
        assert!(fast < slow, "8 w/c {fast:?} must beat 1 w/c {slow:?}");
    }

    #[test]
    fn scrub_result_is_identical_with_idle_fast_forward_on_and_off() {
        let run = |idle_skip: bool| {
            let (mut sim, handle, bram) = harness(2);
            sim.set_idle_skip(idle_skip);
            sim.run_for(Time::from_us(3)); // long idle stretch first
            handle.inject(FaultKind::MemFlip {
                memory: "mem".into(),
                index: 20,
                bit: 2,
            });
            sim.run_for(Time::from_us(2));
            let word = *bram.borrow().peek(20);
            (handle.scrub_latencies(), word, sim.now())
        };
        assert_eq!(run(true), run(false));
    }
}
