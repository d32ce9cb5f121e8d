//! The MMIO path: host register accesses carried onto the card with
//! latency.
//!
//! Host software holds an [`MmioPort`]; an [`MmioBridge`] module on the
//! card's clock serves requests against the project's
//! [`netfpga_core::regs::AddressMap`]. Reads are non-posted and
//! must be awaited (the driver helper in `netfpga-host` advances the
//! simulator until the completion arrives), writes are posted.

use crate::config::PcieConfig;
use netfpga_core::regs::AddressMap;
use netfpga_core::sim::{Activity, Module, TickContext, WakeHandle};
use netfpga_core::time::Time;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

#[derive(Debug, Clone, Copy)]
enum Request {
    Read { addr: u32, issued: Time },
    Write { addr: u32, value: u32, issued: Time },
}

#[derive(Debug, Default)]
struct Shared {
    requests: VecDeque<Request>,
    completions: VecDeque<u32>,
    /// The bridge's activity-cache flag: host posts arrive from outside
    /// the tick loop and must mark the cached classification dirty.
    wake: Option<WakeHandle>,
}

/// The host-side handle for register access.
#[derive(Debug, Clone, Default)]
pub struct MmioPort {
    shared: Rc<RefCell<Shared>>,
}

impl MmioPort {
    /// Queue a posted write (returns immediately; the bridge applies it
    /// after the write latency).
    pub fn post_write(&self, addr: u32, value: u32, now: Time) {
        let mut s = self.shared.borrow_mut();
        s.requests.push_back(Request::Write {
            addr,
            value,
            issued: now,
        });
        if let Some(w) = &s.wake {
            w.wake();
        }
    }

    /// Queue a read request. Await the value with [`MmioPort::try_complete`]
    /// while advancing the simulator.
    pub fn post_read(&self, addr: u32, now: Time) {
        let mut s = self.shared.borrow_mut();
        s.requests.push_back(Request::Read { addr, issued: now });
        if let Some(w) = &s.wake {
            w.wake();
        }
    }

    /// Take a read completion if one arrived.
    pub fn try_complete(&self) -> Option<u32> {
        self.shared.borrow_mut().completions.pop_front()
    }

    /// Outstanding (unserved) requests.
    pub fn outstanding(&self) -> usize {
        self.shared.borrow().requests.len()
    }
}

/// The card-side bridge serving MMIO requests against the address map.
pub struct MmioBridge {
    name: String,
    config: PcieConfig,
    port: MmioPort,
    map: Rc<AddressMap>,
    /// Earliest instant the next request may complete (requests serialize).
    free_at: Time,
    /// Activity-cache invalidation flag, woken by host posts.
    wake: WakeHandle,
}

impl MmioBridge {
    /// Create a bridge bound to `map`, returning it and the host port.
    pub fn new(name: &str, config: PcieConfig, map: Rc<AddressMap>) -> (MmioBridge, MmioPort) {
        let port = MmioPort::default();
        let wake = WakeHandle::new();
        port.shared.borrow_mut().wake = Some(wake.clone());
        (
            MmioBridge {
                name: name.to_string(),
                config,
                port: port.clone(),
                map,
                free_at: Time::ZERO,
                wake,
            },
            port,
        )
    }
}

impl Module for MmioBridge {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, ctx: &TickContext) {
        // Serve at most one request per tick whose latency has elapsed.
        let mut shared = self.port.shared.borrow_mut();
        let Some(req) = shared.requests.front().copied() else {
            return;
        };
        let (due, is_read) = match req {
            Request::Read { issued, .. } => (issued + self.config.mmio_read_latency, true),
            Request::Write { issued, .. } => (issued + self.config.mmio_write_latency, false),
        };
        let due = due.max(self.free_at);
        if ctx.now < due {
            return;
        }
        shared.requests.pop_front();
        self.free_at = due;
        match req {
            Request::Read { addr, .. } => {
                let value = self.map.read(addr);
                if is_read {
                    shared.completions.push_back(value);
                }
            }
            Request::Write { addr, value, .. } => {
                self.map.write(addr, value);
            }
        }
    }

    fn reset(&mut self) {
        self.free_at = Time::ZERO;
        let mut s = self.port.shared.borrow_mut();
        s.requests.clear();
        s.completions.clear();
    }

    /// Idle when no request is outstanding. Hosts post requests between
    /// simulation runs (and chassis-style harnesses wait for completions
    /// with `run_while`, which never fast-forwards), so an empty queue
    /// means every future tick is a no-op too. With a request queued but
    /// its latency not yet elapsed, every tick is the early-return no-op
    /// until the completion instant — the same `due` the serve path
    /// compares against `now`.
    fn activity(&self) -> Activity {
        let shared = self.port.shared.borrow();
        let due = match shared.requests.front() {
            None => return Activity::Quiescent,
            Some(Request::Read { issued, .. }) => *issued + self.config.mmio_read_latency,
            Some(Request::Write { issued, .. }) => *issued + self.config.mmio_write_latency,
        };
        Activity::Bounded(due.max(self.free_at))
    }

    /// Only host posts can un-idle the bridge; completions are consumed
    /// host-side without affecting its classification.
    fn wake_handle(&self) -> Option<WakeHandle> {
        Some(self.wake.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netfpga_core::regs::{shared, RamRegisters};
    use netfpga_core::sim::Simulator;
    use netfpga_core::time::Frequency;

    fn setup() -> (
        Simulator,
        netfpga_core::sim::ClockId,
        MmioPort,
        Rc<AddressMap>,
    ) {
        let mut sim = Simulator::new();
        let clk = sim.add_clock("core", Frequency::mhz(200));
        let map = AddressMap::new();
        map.mount("ram", 0x0, 0x1000, shared(RamRegisters::new(0x1000)));
        let map = Rc::new(map);
        let (bridge, port) = MmioBridge::new("mmio", PcieConfig::gen3_x8(), map.clone());
        sim.add_module(clk, bridge);
        (sim, clk, port, map)
    }

    #[test]
    fn write_lands_after_latency() {
        let (mut sim, _clk, port, map) = setup();
        port.post_write(0x10, 0xabcd, sim.now());
        // Not yet applied well before the write latency (300 ns).
        sim.run_until(Time::from_ns(100));
        assert_eq!(map.read(0x10), 0);
        sim.run_until(Time::from_us(1));
        assert_eq!(map.read(0x10), 0xabcd);
    }

    #[test]
    fn read_completes_with_value() {
        let (mut sim, _clk, port, map) = setup();
        map.write(0x20, 77);
        port.post_read(0x20, sim.now());
        assert!(port.try_complete().is_none());
        let ok = sim.run_while(Time::from_us(10), || port.try_complete().is_none());
        assert!(ok);
        // try_complete consumed it inside the closure; re-issue to observe.
        port.post_read(0x20, sim.now());
        let mut got = None;
        sim.run_while(Time::from_us(10), || {
            got = port.try_complete();
            got.is_none()
        });
        assert_eq!(got, Some(77));
    }

    #[test]
    fn requests_serialize_in_order() {
        let (mut sim, _clk, port, map) = setup();
        // Write then read the same register: the read must see the write.
        port.post_write(0x30, 5, sim.now());
        port.post_read(0x30, sim.now());
        let mut got = None;
        sim.run_while(Time::from_us(20), || {
            got = port.try_complete();
            got.is_none()
        });
        assert_eq!(got, Some(5));
        assert_eq!(map.read(0x30), 5);
        assert_eq!(port.outstanding(), 0);
    }

    #[test]
    fn read_latency_at_least_configured() {
        let (mut sim, _clk, port, _map) = setup();
        let t0 = sim.now();
        port.post_read(0x0, t0);
        sim.run_while(Time::from_us(10), || port.try_complete().is_none());
        let elapsed = sim.now() - t0;
        assert!(
            elapsed >= PcieConfig::gen3_x8().mmio_read_latency,
            "elapsed {elapsed}"
        );
    }
}
