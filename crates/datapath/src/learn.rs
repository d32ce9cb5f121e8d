//! The MAC-learning core of the reference switch: learn source addresses,
//! forward to the learned port, flood unknowns — 802.1D behaviour over the
//! [`AgingTable`] substrate.

use netfpga_core::stats::Counter;
use netfpga_core::stream::{Meta, PortMask};
use netfpga_core::telemetry::StatRegistry;
use netfpga_core::time::Time;
use netfpga_mem::AgingTable;
use netfpga_packet::ethernet::EthernetFrame;
use netfpga_packet::EthernetAddress;

/// Learning/forwarding counters: shared cells the core increments and the
/// telemetry plane reads.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LearnCounters {
    /// Lookups that found the destination (unicast forward).
    pub hits: Counter,
    /// Lookups that flooded (unknown destination or broadcast/multicast).
    pub floods: Counter,
    /// Source addresses learned or refreshed.
    pub learned: Counter,
    /// Learning failures (table pressure).
    pub learn_failures: Counter,
}

impl LearnCounters {
    /// Register every counter on `registry` under `prefix` (e.g.
    /// `lookup`): `hits`, `floods`, `learned`, `learn_failures`.
    pub fn register_stats(&self, registry: &StatRegistry, prefix: &str) {
        registry.register_counter(&format!("{prefix}.hits"), &self.hits);
        registry.register_counter(&format!("{prefix}.floods"), &self.floods);
        registry.register_counter(&format!("{prefix}.learned"), &self.learned);
        registry.register_counter(&format!("{prefix}.learn_failures"), &self.learn_failures);
    }
}

/// The learning switch decision core. Not a stream module itself — the
/// reference switch wraps it in a [`PacketStage`](crate::stage::PacketStage).
pub struct LearningSwitchCore {
    table: AgingTable<u64, u8>,
    nports: u8,
    counters: LearnCounters,
}

impl LearningSwitchCore {
    /// A core for `nports` ports with `capacity` table slots and the given
    /// aging interval.
    pub fn new(nports: u8, capacity: usize, age_limit: Time) -> LearningSwitchCore {
        assert!(nports >= 1);
        LearningSwitchCore {
            table: AgingTable::new(capacity, age_limit),
            nports,
            counters: LearnCounters::default(),
        }
    }

    /// Process one packet: learn the source, decide the output mask.
    /// Returns the destination port mask (never includes the ingress port).
    /// Reads the Ethernet header only, as the reference switch's lookup
    /// reads the first beat; a frame too short to have one carries the
    /// default addresses, as [`ParsedHeaders`](crate::parser::ParsedHeaders)
    /// reports it.
    pub fn forward(&mut self, frame: &[u8], meta: &Meta, now: Time) -> PortMask {
        let (src, dst) = match EthernetFrame::new_checked(frame) {
            Ok(eth) => (eth.src_addr(), eth.dst_addr()),
            Err(_) => Default::default(),
        };
        self.decide(src, dst, meta.src_port, now)
    }

    /// The decision on already-parsed addresses.
    pub fn decide(
        &mut self,
        src: EthernetAddress,
        dst: EthernetAddress,
        in_port: u8,
        now: Time,
    ) -> PortMask {
        // Learn/refresh the source (unicast sources only, per 802.1D).
        if src.is_unicast() {
            if self.table.insert(src.to_u64(), in_port, now) {
                self.counters.learned.incr();
            } else {
                self.counters.learn_failures.incr();
            }
        }
        // Forward decision.
        let mut mask = if dst.is_unicast() {
            match self.table.lookup(&dst.to_u64(), now) {
                Some(port) => {
                    self.counters.hits.incr();
                    PortMask::single(port)
                }
                None => {
                    self.counters.floods.incr();
                    PortMask::first_n(self.nports)
                }
            }
        } else {
            self.counters.floods.incr();
            PortMask::first_n(self.nports)
        };
        // Never reflect back out the ingress port.
        mask.remove(in_port);
        mask
    }

    /// The core's counters.
    pub fn counters(&self) -> &LearnCounters {
        &self.counters
    }

    /// Live table entries at `now`.
    pub fn table_size(&self, now: Time) -> usize {
        self.table.live_entries(now)
    }

    /// Flush the table (management operation).
    pub fn flush(&mut self) {
        self.table.clear();
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::parser::ParsedHeaders;
    use proptest::prelude::*;

    fn mac(x: u8) -> EthernetAddress {
        EthernetAddress::new(2, 0, 0, 0, 0, x)
    }

    /// One frame of the L2 proptests: arbitrary bytes (possibly too few for
    /// a header), three picks that stamp a pooled address or a known
    /// EtherType over them where they fit — so lookups hit, sources repeat
    /// and tags appear — and the ingress port.
    pub(crate) type FrameSpec = (Vec<u8>, u8, u8, u8, u8);

    pub(crate) fn frame_specs() -> impl Strategy<Value = Vec<FrameSpec>> {
        let bytes = proptest::collection::vec(any::<u8>(), 0..80);
        proptest::collection::vec((bytes, 0u8..6, 0u8..6, 0u8..4, 0u8..4), 1..12)
    }

    pub(crate) fn l2_frame((bytes, dst, src, ethertype, _): &FrameSpec) -> Vec<u8> {
        let mut frame = bytes.clone();
        let mut stamp = |at: usize, field: &[u8]| {
            if let Some(slot) = frame.get_mut(at..at + field.len()) {
                slot.copy_from_slice(field);
            }
        };
        for (at, pick) in [(0, *dst), (6, *src)] {
            match pick {
                0..=2 => stamp(at, mac(pick).as_bytes()),
                3 => stamp(at, &[0x01, 0, 0x5e, 0, 0, 5]),
                _ => {}
            }
        }
        match ethertype {
            0 => stamp(12, &[0x81, 0x00]),
            1 => stamp(12, &[0x08, 0x00]),
            _ => {}
        }
        frame
    }

    proptest! {
        /// `forward` reads only the Ethernet header, and answers as the
        /// full parser's addresses would: same masks, same counters.
        #[test]
        fn prop_forward_is_decide_of_parse(specs in frame_specs()) {
            let (mut by_header, mut by_parse) = (core(), core());
            for (i, spec) in specs.iter().enumerate() {
                let (frame, src_port) = (l2_frame(spec), spec.4);
                let now = Time::from_us(i as u64);
                let meta = Meta { src_port, ..Default::default() };
                let h = ParsedHeaders::parse(&frame);
                prop_assert_eq!(
                    by_header.forward(&frame, &meta, now),
                    by_parse.decide(h.eth_src, h.eth_dst, src_port, now)
                );
            }
            prop_assert_eq!(by_header.counters(), by_parse.counters());
        }
    }

    fn core() -> LearningSwitchCore {
        LearningSwitchCore::new(4, 1024, Time::from_ms(100))
    }

    #[test]
    fn unknown_floods_except_ingress() {
        let mut c = core();
        let mask = c.decide(mac(1), mac(2), 0, Time::ZERO);
        assert!(!mask.contains(0), "no reflection");
        assert!(mask.contains(1) && mask.contains(2) && mask.contains(3));
        assert_eq!(c.counters().floods.get(), 1);
    }

    #[test]
    fn learned_destination_unicasts() {
        let mut c = core();
        // A talks from port 0; B replies from port 2.
        c.decide(mac(1), mac(2), 0, Time::ZERO);
        let mask = c.decide(mac(2), mac(1), 2, Time::from_us(1));
        assert_eq!(mask, PortMask::single(0), "B->A goes straight to port 0");
        let mask = c.decide(mac(1), mac(2), 0, Time::from_us(2));
        assert_eq!(mask, PortMask::single(2), "A->B now unicast too");
        assert_eq!(c.counters().hits.get(), 2);
    }

    #[test]
    fn station_move_relearns() {
        let mut c = core();
        c.decide(mac(1), mac(9), 0, Time::ZERO);
        // Station 1 moves to port 3.
        c.decide(mac(1), mac(9), 3, Time::from_us(5));
        let mask = c.decide(mac(2), mac(1), 1, Time::from_us(6));
        assert_eq!(mask, PortMask::single(3));
    }

    #[test]
    fn broadcast_always_floods() {
        let mut c = core();
        c.decide(mac(1), mac(2), 0, Time::ZERO);
        let mask = c.decide(mac(1), EthernetAddress::BROADCAST, 0, Time::from_us(1));
        assert_eq!(mask, {
            let mut m = PortMask::first_n(4);
            m.remove(0);
            m
        });
    }

    #[test]
    fn entries_age_out() {
        let mut c = LearningSwitchCore::new(4, 64, Time::from_us(10));
        c.decide(mac(1), mac(9), 0, Time::ZERO);
        assert_eq!(c.table_size(Time::from_us(5)), 1);
        // Well past aging: unknown again -> flood.
        let mask = c.decide(mac(2), mac(1), 1, Time::from_ms(1));
        assert!(mask.contains(0) && mask.contains(2) && mask.contains(3));
    }

    #[test]
    fn flush_forgets() {
        let mut c = core();
        c.decide(mac(1), mac(9), 0, Time::ZERO);
        c.flush();
        assert_eq!(c.table_size(Time::ZERO), 0);
        let mask = c.decide(mac(2), mac(1), 1, Time::from_us(1));
        assert!(mask.count() > 1, "flooded after flush");
    }

    #[test]
    fn multicast_source_not_learned() {
        let mut c = core();
        let mcast = EthernetAddress::new(0x01, 0, 0x5e, 0, 0, 5);
        c.decide(mcast, mac(1), 0, Time::ZERO);
        assert_eq!(c.table_size(Time::ZERO), 0);
    }

    #[test]
    fn forward_parses_real_frames() {
        let mut c = core();
        let frame = netfpga_packet::PacketBuilder::new()
            .eth(mac(1), mac(2))
            .raw(netfpga_packet::EtherType::Ipv4, &[0u8; 30])
            .build();
        let meta = Meta {
            src_port: 1,
            ..Meta::default()
        };
        let mask = c.forward(&frame, &meta, Time::ZERO);
        assert!(!mask.contains(1));
        assert_eq!(c.table_size(Time::ZERO), 1);
    }
}
