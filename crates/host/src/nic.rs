//! The reference-NIC driver: the software half of the reference NIC
//! project. Mirrors what the real `nf10` kernel driver does — DMA rings in
//! both directions, egress port selection via metadata, statistics via the
//! register block.

use netfpga_core::stats::Counter;
use netfpga_core::stream::{Meta, PortMask};
use netfpga_core::telemetry::StatRegistry;
use netfpga_pcie::{DmaHandle, SendError};
use netfpga_projects::reference_nic::{ReferenceNic, STATS_BASE};

/// Driver statistics mirrored from software-side accounting (a snapshot;
/// the live cells can be registered on a [`StatRegistry`] with
/// [`NicDriver::register_stats`]). The one snapshot left beside the
/// telemetry plane: the referee benchmark reads it as plain integers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NicDriverStats {
    /// Frames handed to the hardware.
    pub tx: u64,
    /// Frames received from the hardware.
    pub rx: u64,
    /// Frames the TX ring refused (backlog).
    pub tx_busy: u64,
}

#[derive(Default)]
struct NicDriverCounters {
    tx: Counter,
    rx: Counter,
    tx_busy: Counter,
}

/// The NIC driver instance.
pub struct NicDriver {
    dma: DmaHandle,
    /// Ethernet ports on the board: a frame can leave by `0..nports`.
    nports: usize,
    stats: NicDriverCounters,
}

impl NicDriver {
    /// Bind to an assembled [`ReferenceNic`].
    pub fn bind(nic: &ReferenceNic) -> NicDriver {
        NicDriver {
            dma: nic.chassis.dma.clone().expect("NIC has a DMA engine"),
            nports: nic.chassis.nports(),
            stats: NicDriverCounters::default(),
        }
    }

    /// Transmit `frame` out of `port`.
    ///
    /// # Errors
    /// [`SendError::RingFull`] when the TX ring is full (retry after
    /// running the simulation); [`SendError::Stalled`] when it is full and
    /// the engine is frozen by a fault — draining needs the fault to lift
    /// (or a watchdog soft reset); both count in `tx_busy`.
    /// [`SendError::BadDescriptor`] for an empty frame or a `port` the
    /// board lacks; not counted, since it is no back-pressure.
    pub fn transmit(&mut self, port: u8, frame: Vec<u8>) -> Result<(), SendError> {
        if usize::from(port) >= self.nports {
            return Err(SendError::BadDescriptor);
        }
        let meta = Meta {
            len: frame.len() as u16,
            dst_ports: PortMask::single(port),
            ..Default::default()
        };
        match self.dma.send_with_meta(frame, meta) {
            Ok(()) => {
                self.stats.tx.incr();
                Ok(())
            }
            Err(SendError::BadDescriptor) => Err(SendError::BadDescriptor),
            Err(e) => {
                self.stats.tx_busy.incr();
                Err(e)
            }
        }
    }

    /// Receive the oldest frame, with its ingress port.
    pub fn receive(&mut self) -> Option<(u8, Vec<u8>)> {
        let (frame, meta) = self.dma.recv()?;
        self.stats.rx.incr();
        Some((meta.src_port, frame.into_owned()))
    }

    /// Software-side counters.
    pub fn stats(&self) -> NicDriverStats {
        NicDriverStats {
            tx: self.stats.tx.get(),
            rx: self.stats.rx.get(),
            tx_busy: self.stats.tx_busy.get(),
        }
    }

    /// Register the driver's live counters on `registry` under `prefix`
    /// (e.g. `driver`): `tx`, `rx`, `tx_busy`. The same shared cells keep
    /// counting after registration, so registry reads always match
    /// [`NicDriver::stats`].
    pub fn register_stats(&self, registry: &StatRegistry, prefix: &str) {
        registry.register_counter(&format!("{prefix}.tx"), &self.stats.tx);
        registry.register_counter(&format!("{prefix}.rx"), &self.stats.rx);
        registry.register_counter(&format!("{prefix}.tx_busy"), &self.stats.tx_busy);
    }

    /// Read the hardware RX packet counter over MMIO.
    pub fn hw_rx_packets(&self, nic: &mut ReferenceNic) -> u32 {
        nic.chassis.read32(STATS_BASE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netfpga_core::board::BoardSpec;
    use netfpga_core::time::Time;

    #[test]
    fn driver_tx_rx_roundtrip() {
        let mut nic = ReferenceNic::new(&BoardSpec::sume(), 4);
        let mut drv = NicDriver::bind(&nic);
        assert!(drv.transmit(2, vec![0xab; 80]).is_ok());
        nic.chassis.send(1, vec![0xcd; 80]);
        nic.chassis.run_for(Time::from_us(10));
        assert_eq!(nic.chassis.recv(2), vec![vec![0xab; 80]]);
        let (port, frame) = drv.receive().expect("frame up");
        assert_eq!(port, 1);
        assert_eq!(frame, vec![0xcd; 80]);
        assert_eq!(drv.stats().tx, 1);
        assert_eq!(drv.stats().rx, 1);
        assert_eq!(drv.hw_rx_packets(&mut nic), 1);
    }

    #[test]
    fn tx_ring_backpressure_counted() {
        let nic = ReferenceNic::new(&BoardSpec::sume(), 4);
        let mut drv = NicDriver::bind(&nic);
        let mut busy = 0;
        for _ in 0..1000 {
            if drv.transmit(0, vec![0; 64]) == Err(SendError::RingFull) {
                busy += 1;
            }
        }
        assert!(busy > 0, "256-deep ring must fill");
        assert_eq!(drv.stats().tx_busy, busy);
    }

    /// A descriptor naming a port the board lacks, or carrying no bytes,
    /// is refused without panicking and without counting as back-pressure.
    #[test]
    fn bad_descriptors_are_refused() {
        let mut nic = ReferenceNic::new(&BoardSpec::sume(), 4);
        let mut drv = NicDriver::bind(&nic);
        for port in [4, 5, 16, 255] {
            assert_eq!(
                drv.transmit(port, vec![0xab; 80]),
                Err(SendError::BadDescriptor)
            );
        }
        assert_eq!(drv.transmit(0, vec![]), Err(SendError::BadDescriptor));
        nic.chassis.run_for(Time::from_us(10));
        assert_eq!(drv.stats(), NicDriverStats::default());
        assert_eq!(nic.chassis.telemetry.get("dma.tx.packets"), Some(0));
    }
}
