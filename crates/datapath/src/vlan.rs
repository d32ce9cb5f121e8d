//! VLAN handling blocks: 802.1Q tag push/pop stages and the VLAN-aware
//! extension of the learning core — library modules in the spirit of the
//! platform's "large library of modules ... provided" (paper §3).

use crate::learn::LearnCounters;
use netfpga_core::stream::{Meta, PortMask};
use netfpga_core::time::Time;
use netfpga_mem::AgingTable;
use netfpga_packet::ethernet::EthernetFrame;
use netfpga_packet::EthernetAddress;

/// Push an 802.1Q tag (vid, pcp) onto an untagged frame in place. Tagged
/// frames are left unchanged (single-tag model). Returns whether a tag was
/// added.
pub fn push_tag(frame: &mut Vec<u8>, vid: u16, pcp: u8) -> bool {
    let Ok(eth) = EthernetFrame::new_checked(&frame[..]) else {
        return false;
    };
    if eth.has_vlan() {
        return false;
    }
    let inner_type = u16::from(eth.ethertype_raw());
    let mut tag = [0u8; 4];
    tag[0..2].copy_from_slice(&0x8100u16.to_be_bytes());
    let tci = (u16::from(pcp & 0x7) << 13) | (vid & 0x0fff);
    tag[2..4].copy_from_slice(&tci.to_be_bytes());
    // Insert the tag between the addresses and the EtherType.
    frame.splice(12..12, tag.iter().copied());
    // The original EtherType now sits at 16..18 already (it moved with the
    // splice); the tag's 0x8100 occupies 12..14 and TCI 14..16.
    let _ = inner_type;
    true
}

/// Pop the 802.1Q tag off a tagged frame in place. Returns the (vid, pcp)
/// that was removed, or `None` if untagged.
pub fn pop_tag(frame: &mut Vec<u8>) -> Option<(u16, u8)> {
    let eth = EthernetFrame::new_checked(&frame[..]).ok()?;
    let vid = eth.vlan_id()?;
    let pcp = eth.vlan_pcp()?;
    frame.drain(12..16);
    Some((vid, pcp))
}

/// A VLAN-aware learning core: one logical forwarding table per VLAN
/// (keyed by (vid, mac)), flooding restricted to the VLAN's member ports.
/// Untagged traffic uses the per-port access VLAN.
pub struct VlanSwitchCore {
    table: AgingTable<(u16, u64), u8>,
    /// Member ports of each configured VLAN.
    members: std::collections::BTreeMap<u16, PortMask>,
    /// Access (native) VLAN per port, for untagged frames.
    access_vlan: Vec<u16>,
    counters: LearnCounters,
}

impl VlanSwitchCore {
    /// Create with `nports` ports, all on access VLAN 1, with VLAN 1
    /// spanning every port.
    pub fn new(nports: u8, capacity: usize, age_limit: Time) -> VlanSwitchCore {
        let mut members = std::collections::BTreeMap::new();
        members.insert(1, PortMask::first_n(nports));
        VlanSwitchCore {
            table: AgingTable::new(capacity, age_limit),
            members,
            access_vlan: vec![1; usize::from(nports)],
            counters: LearnCounters::default(),
        }
    }

    /// Define (or redefine) a VLAN's member ports.
    pub fn set_vlan(&mut self, vid: u16, members: PortMask) {
        self.members.insert(vid, members);
    }

    /// Set a port's access VLAN for untagged traffic.
    pub fn set_access_vlan(&mut self, port: u8, vid: u16) {
        let idx = usize::from(port);
        if idx < self.access_vlan.len() {
            self.access_vlan[idx] = vid;
        }
    }

    /// The VLAN a frame carrying `tag` (its 802.1Q id, if tagged) belongs
    /// to on `in_port`.
    pub fn classify_vlan(&self, tag: Option<u16>, in_port: u8) -> u16 {
        tag.unwrap_or_else(|| {
            self.access_vlan
                .get(usize::from(in_port))
                .copied()
                .unwrap_or(1)
        })
    }

    /// Learning + forwarding decision. The returned mask never includes the
    /// ingress port and never leaves the frame's VLAN.
    /// Reads the Ethernet header only; a frame too short to have one is
    /// untagged with the default addresses, as
    /// [`ParsedHeaders`](crate::parser::ParsedHeaders) reports it.
    pub fn forward(&mut self, frame: &[u8], meta: &Meta, now: Time) -> PortMask {
        let (src, dst, tag) = match EthernetFrame::new_checked(frame) {
            Ok(eth) => (eth.src_addr(), eth.dst_addr(), eth.vlan_id()),
            Err(_) => Default::default(),
        };
        let vid = self.classify_vlan(tag, meta.src_port);
        self.decide(vid, src, dst, meta.src_port, now)
    }

    /// Decision on parsed fields.
    pub fn decide(
        &mut self,
        vid: u16,
        src: EthernetAddress,
        dst: EthernetAddress,
        in_port: u8,
        now: Time,
    ) -> PortMask {
        let Some(&vlan_ports) = self.members.get(&vid) else {
            // Unknown VLAN: drop (no members configured).
            return PortMask::EMPTY;
        };
        if !vlan_ports.contains(in_port) {
            // Ingress port is not a member: drop (802.1Q ingress filter).
            return PortMask::EMPTY;
        }
        if src.is_unicast() {
            if self.table.insert((vid, src.to_u64()), in_port, now) {
                self.counters.learned.incr();
            } else {
                self.counters.learn_failures.incr();
            }
        }
        let mut mask = if dst.is_unicast() {
            match self.table.lookup(&(vid, dst.to_u64()), now) {
                Some(port) if vlan_ports.contains(port) => {
                    self.counters.hits.incr();
                    PortMask::single(port)
                }
                _ => {
                    self.counters.floods.incr();
                    vlan_ports
                }
            }
        } else {
            self.counters.floods.incr();
            vlan_ports
        };
        mask.remove(in_port);
        mask
    }

    /// The core's counters.
    pub fn counters(&self) -> &LearnCounters {
        &self.counters
    }

    /// Flush the forwarding table.
    pub fn flush(&mut self) {
        self.table.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::ParsedHeaders;
    use netfpga_packet::{Ipv4Address, PacketBuilder};
    use proptest::prelude::*;

    fn mac(x: u8) -> EthernetAddress {
        EthernetAddress::new(2, 0, 0, 0, 0, x)
    }

    fn tagged_frame(src: u8, dst: u8, vid: u16) -> Vec<u8> {
        PacketBuilder::new()
            .eth(mac(src), mac(dst))
            .vlan(vid, 0)
            .ipv4(
                Ipv4Address::new(10, 0, 0, src),
                Ipv4Address::new(10, 0, 0, dst),
            )
            .udp(1, 2, b"v")
            .build()
    }

    fn untagged_frame(src: u8, dst: u8) -> Vec<u8> {
        PacketBuilder::new()
            .eth(mac(src), mac(dst))
            .ipv4(
                Ipv4Address::new(10, 0, 0, src),
                Ipv4Address::new(10, 0, 0, dst),
            )
            .udp(1, 2, b"u")
            .build()
    }

    #[test]
    fn push_pop_roundtrip() {
        let original = untagged_frame(1, 2);
        let mut f = original.clone();
        assert!(push_tag(&mut f, 100, 5));
        assert_eq!(f.len(), original.len() + 4);
        let h = ParsedHeaders::parse(&f);
        assert_eq!(h.vlan, Some(100));
        assert!(h.ipv4.is_some(), "inner payload intact");
        // Pushing onto a tagged frame is a no-op.
        assert!(!push_tag(&mut f, 200, 0));
        // Pop restores the original exactly.
        assert_eq!(pop_tag(&mut f), Some((100, 5)));
        assert_eq!(f, original);
        assert_eq!(pop_tag(&mut f), None);
    }

    #[test]
    fn vlans_isolate_flooding() {
        let mut core = VlanSwitchCore::new(4, 256, Time::from_ms(100));
        core.set_vlan(10, PortMask(0b0011)); // ports 0,1
        core.set_vlan(20, PortMask(0b1100)); // ports 2,3
        let meta = |p: u8| Meta {
            src_port: p,
            ..Default::default()
        };
        let mask = core.forward(&tagged_frame(1, 9, 10), &meta(0), Time::ZERO);
        assert_eq!(mask, PortMask(0b0010), "VLAN 10 floods only port 1");
        let mask = core.forward(&tagged_frame(2, 9, 20), &meta(2), Time::ZERO);
        assert_eq!(mask, PortMask(0b1000), "VLAN 20 floods only port 3");
    }

    #[test]
    fn same_mac_learned_independently_per_vlan() {
        let mut core = VlanSwitchCore::new(4, 256, Time::from_ms(100));
        core.set_vlan(10, PortMask(0b0011));
        core.set_vlan(20, PortMask(0b1100));
        // Station mac(5) appears on port 0 in VLAN 10, port 3 in VLAN 20.
        core.decide(10, mac(5), mac(9), 0, Time::ZERO);
        core.decide(20, mac(5), mac(9), 3, Time::ZERO);
        // Lookup in each VLAN resolves to its own port.
        let m10 = core.decide(10, mac(6), mac(5), 1, Time::from_us(1));
        assert_eq!(m10, PortMask::single(0));
        let m20 = core.decide(20, mac(6), mac(5), 2, Time::from_us(1));
        assert_eq!(m20, PortMask::single(3));
    }

    #[test]
    fn ingress_filter_drops_nonmember() {
        let mut core = VlanSwitchCore::new(4, 256, Time::from_ms(100));
        core.set_vlan(10, PortMask(0b0011));
        let meta = Meta {
            src_port: 3,
            ..Default::default()
        }; // not a member
        let mask = core.forward(&tagged_frame(1, 2, 10), &meta, Time::ZERO);
        assert!(mask.is_empty());
        // Unknown VLAN also drops.
        let meta = Meta {
            src_port: 0,
            ..Default::default()
        };
        let mask = core.forward(&tagged_frame(1, 2, 999), &meta, Time::ZERO);
        assert!(mask.is_empty());
    }

    #[test]
    fn untagged_uses_access_vlan() {
        let mut core = VlanSwitchCore::new(4, 256, Time::from_ms(100));
        core.set_vlan(10, PortMask(0b0011));
        core.set_vlan(20, PortMask(0b1100));
        core.set_access_vlan(0, 10);
        core.set_access_vlan(1, 10);
        core.set_access_vlan(2, 20);
        core.set_access_vlan(3, 20);
        let meta = Meta {
            src_port: 0,
            ..Default::default()
        };
        let mask = core.forward(&untagged_frame(1, 2), &meta, Time::ZERO);
        assert_eq!(mask, PortMask(0b0010), "access VLAN 10 scope");
        let meta = Meta {
            src_port: 2,
            ..Default::default()
        };
        let mask = core.forward(&untagged_frame(3, 4), &meta, Time::ZERO);
        assert_eq!(mask, PortMask(0b1000), "access VLAN 20 scope");
    }

    proptest! {
        /// push_tag/pop_tag round-trips arbitrary untagged frames and
        /// arbitrary (vid, pcp) values.
        #[test]
        fn prop_push_pop_roundtrip(
            payload in proptest::collection::vec(any::<u8>(), 0..200),
            vid in 0u16..4096,
            pcp in 0u8..8,
        ) {
            let original = PacketBuilder::new()
                .eth(mac(1), mac(2))
                .raw(netfpga_packet::EtherType::Unknown(0x9000), &payload)
                .build();
            let mut f = original.clone();
            prop_assert!(push_tag(&mut f, vid, pcp));
            let h = ParsedHeaders::parse(&f);
            prop_assert_eq!(h.vlan, Some(vid & 0x0fff));
            prop_assert_eq!(pop_tag(&mut f), Some((vid & 0x0fff, pcp)));
            prop_assert_eq!(f, original);
        }

        /// `forward` reads only the Ethernet header, and answers as the
        /// full parser's fields would: same masks, same counters.
        #[test]
        fn prop_forward_is_decide_of_parse(specs in crate::learn::tests::frame_specs()) {
            let core = || {
                let mut core = VlanSwitchCore::new(4, 64, Time::from_ms(100));
                core.set_access_vlan(2, 10);
                core
            };
            let (mut by_header, mut by_parse) = (core(), core());
            for (i, spec) in specs.iter().enumerate() {
                let (frame, src_port) = (crate::learn::tests::l2_frame(spec), spec.4);
                // Tagged frames carry arbitrary ids: make each one's VLAN
                // known, so that tags steer lookups instead of dropping.
                let h = ParsedHeaders::parse(&frame);
                let vid = by_parse.classify_vlan(h.vlan, src_port);
                for core in [&mut by_header, &mut by_parse] {
                    core.set_vlan(vid, PortMask(0b0111));
                }
                let now = Time::from_us(i as u64);
                let meta = Meta { src_port, ..Default::default() };
                prop_assert_eq!(
                    by_header.forward(&frame, &meta, now),
                    by_parse.decide(vid, h.eth_src, h.eth_dst, src_port, now)
                );
            }
            prop_assert_eq!(by_header.counters(), by_parse.counters());
        }
    }

    #[test]
    fn stale_learned_port_outside_vlan_floods() {
        let mut core = VlanSwitchCore::new(4, 256, Time::from_ms(100));
        core.set_vlan(10, PortMask(0b0111));
        // Learn mac(5)@2 in VLAN 10, then shrink the VLAN to ports 0,1.
        core.decide(10, mac(5), mac(9), 2, Time::ZERO);
        core.set_vlan(10, PortMask(0b0011));
        let mask = core.decide(10, mac(6), mac(5), 0, Time::from_us(1));
        assert_eq!(mask, PortMask(0b0010), "stale entry ignored, flood in-VLAN");
    }
}
