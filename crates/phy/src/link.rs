//! Point-to-point link model: propagation delay plus optional impairments.
//!
//! A [`Link`] moves frames from one [`Wire`] (a TX MAC's output) to another
//! (an RX MAC's input), adding propagation delay and, when configured,
//! dropping or corrupting frames under a seeded RNG — the knob used for
//! failure-injection tests and for exercising OSNT's loss measurement.

use crate::mac::Wire;
use netfpga_core::rng::SimRng;
use netfpga_core::sim::{Activity, Module, TickContext, WakeHandle};
use netfpga_core::time::Time;

/// Link behaviour knobs.
#[derive(Debug, Clone, Copy)]
pub struct LinkConfig {
    /// One-way propagation delay.
    pub delay: Time,
    /// Probability a frame is silently dropped.
    pub loss_probability: f64,
    /// Probability a surviving frame has one byte corrupted.
    pub corrupt_probability: f64,
    /// RNG seed for the impairment process.
    pub seed: u64,
}

impl Default for LinkConfig {
    /// An ideal link: 5 ns of delay (a meter of fiber), no impairments.
    fn default() -> LinkConfig {
        LinkConfig {
            delay: Time::from_ns(5),
            loss_probability: 0.0,
            corrupt_probability: 0.0,
            seed: 1,
        }
    }
}

/// Link statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Frames forwarded.
    pub forwarded: u64,
    /// Frames dropped by the loss process.
    pub dropped: u64,
    /// Frames corrupted.
    pub corrupted: u64,
}

/// A unidirectional link between two wires.
pub struct Link {
    name: String,
    from: Wire,
    to: Wire,
    config: LinkConfig,
    rng: SimRng,
    stats: LinkStats,
    /// Activity-cache invalidation flag, registered on the source wire.
    wake: WakeHandle,
}

impl Link {
    /// Create a link moving frames `from` → `to`.
    pub fn new(name: &str, from: Wire, to: Wire, config: LinkConfig) -> Link {
        assert!((0.0..=1.0).contains(&config.loss_probability));
        assert!((0.0..=1.0).contains(&config.corrupt_probability));
        let wake = WakeHandle::new();
        from.set_wake(wake.clone());
        Link {
            name: name.to_string(),
            from,
            to,
            rng: SimRng::new(config.seed),
            config,
            stats: LinkStats::default(),
            wake,
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> LinkStats {
        self.stats
    }
}

impl Module for Link {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, ctx: &TickContext) {
        // Move every frame that has finished serializing; a real link has
        // no per-cycle transfer limit of its own.
        while let Some(mut frame) = self.from.take_ready(ctx.now) {
            if self.config.loss_probability > 0.0 && self.rng.chance(self.config.loss_probability) {
                self.stats.dropped += 1;
                continue;
            }
            if self.config.corrupt_probability > 0.0
                && self.rng.chance(self.config.corrupt_probability)
            {
                let idx = self.rng.below(frame.data.len() as u64) as usize;
                // Copy-on-write: sibling references (mirrors, captures,
                // flood copies) keep the pristine bytes, and a MAC-stamped
                // FCS goes stale (pristine CRC taken here), so the
                // downstream RX MAC's recheck fails — exactly the
                // wire-error story.
                frame.corrupt_data()[idx] ^= 0xff;
                self.stats.corrupted += 1;
            }
            frame.ready_at += self.config.delay;
            self.to.push(frame);
            self.stats.forwarded += 1;
        }
    }

    fn reset(&mut self) {
        self.rng = SimRng::new(self.config.seed);
        self.stats = LinkStats::default();
    }

    /// Idle when the source wire holds no frames at all. A frame that has
    /// not finished serializing yet still counts as work: the wire is
    /// FIFO, so nothing can move before its head frame becomes ready, and
    /// the tick is a no-op until that instant.
    fn activity(&self) -> Activity {
        self.from
            .head_ready_at()
            .map_or(Activity::Quiescent, Activity::Bounded)
    }

    /// Only pushes onto the source wire can change this link's activity.
    fn wake_handle(&self) -> Option<WakeHandle> {
        Some(self.wake.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mac::WireFrame;
    use netfpga_core::sim::Simulator;
    use netfpga_core::time::Frequency;

    fn run_frames(config: LinkConfig, n: usize) -> (LinkStats, Wire) {
        let mut sim = Simulator::new();
        let clk = sim.add_clock("c", Frequency::mhz(200));
        let a = Wire::new();
        let b = Wire::new();
        for i in 0..n {
            a.push(WireFrame::new(
                vec![i as u8; 64],
                Time::from_ns(i as u64 * 100),
            ));
        }
        let link = Link::new("l", a, b.clone(), config);
        sim.add_module(clk, link);
        sim.run_until(Time::from_us((n as u64 * 100) / 1000 + 10));
        // The link module was moved into the simulator; read stats via a
        // fresh run instead: simpler to return the wire and count.
        let mut forwarded = 0;
        let mut out = Vec::new();
        while let Some(f) = b.take_ready(Time::from_ms(100)) {
            forwarded += 1;
            out.push(f);
        }
        (
            LinkStats {
                forwarded,
                dropped: n as u64 - forwarded,
                corrupted: 0,
            },
            {
                let w = Wire::new();
                for f in out {
                    w.push(f);
                }
                w
            },
        )
    }

    #[test]
    fn ideal_link_forwards_all_with_delay() {
        let cfg = LinkConfig {
            delay: Time::from_ns(50),
            ..LinkConfig::default()
        };
        let (stats, out) = run_frames(cfg, 10);
        assert_eq!(stats.forwarded, 10);
        let first = out.take_ready(Time::from_ms(1)).unwrap();
        assert_eq!(first.ready_at, Time::from_ns(50), "0 + 50 ns delay");
    }

    #[test]
    fn lossy_link_drops_roughly_p() {
        let cfg = LinkConfig {
            loss_probability: 0.3,
            seed: 42,
            ..LinkConfig::default()
        };
        let (stats, _) = run_frames(cfg, 1000);
        let rate = stats.dropped as f64 / 1000.0;
        assert!((rate - 0.3).abs() < 0.05, "drop rate {rate}");
    }

    #[test]
    fn corrupting_link_flips_bytes() {
        let mut sim = Simulator::new();
        let clk = sim.add_clock("c", Frequency::mhz(200));
        let a = Wire::new();
        let b = Wire::new();
        for i in 0..200 {
            a.push(WireFrame::new(vec![0u8; 64], Time::from_ns(i * 10)));
        }
        let cfg = LinkConfig {
            corrupt_probability: 0.5,
            seed: 7,
            ..LinkConfig::default()
        };
        sim.add_module(clk, Link::new("l", a, b.clone(), cfg));
        sim.run_until(Time::from_us(10));
        let mut corrupted = 0;
        let mut total = 0;
        while let Some(f) = b.take_ready(Time::from_ms(1)) {
            total += 1;
            if f.data.iter().any(|&x| x != 0) {
                corrupted += 1;
            }
        }
        assert_eq!(total, 200);
        assert!((80..=120).contains(&corrupted), "corrupted {corrupted}");
    }

    #[test]
    fn determinism_same_seed() {
        let cfg = LinkConfig {
            loss_probability: 0.5,
            seed: 99,
            ..LinkConfig::default()
        };
        let (s1, _) = run_frames(cfg, 500);
        let (s2, _) = run_frames(cfg, 500);
        assert_eq!(s1.forwarded, s2.forwarded);
    }

    #[test]
    #[should_panic]
    fn invalid_probability_rejected() {
        let cfg = LinkConfig {
            loss_probability: 1.5,
            ..LinkConfig::default()
        };
        let _ = Link::new("l", Wire::new(), Wire::new(), cfg);
    }
}
