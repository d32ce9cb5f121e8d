//! The header parser: extracts the fields lookup stages match on.
//!
//! Mirrors the reference designs' parse of the first bus words: Ethernet
//! addresses and type, the IPv4 5-tuple when present. Parsing never fails —
//! unknown or truncated payloads simply leave the deeper fields `None`,
//! and the lookup logic decides what to do (typically: send to CPU or
//! flood).

use netfpga_packet::arp::{ArpPacket, ArpRepr};
use netfpga_packet::ethernet::{EtherType, EthernetFrame};
use netfpga_packet::ipv4::{IpProtocol, Ipv4Packet};
use netfpga_packet::tcp::TcpPacket;
use netfpga_packet::udp::UdpPacket;
use netfpga_packet::{EthernetAddress, Ipv4Address};

/// Parsed header fields of one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ParsedHeaders {
    /// Destination MAC.
    pub eth_dst: EthernetAddress,
    /// Source MAC.
    pub eth_src: EthernetAddress,
    /// Effective EtherType (inner type if VLAN-tagged).
    pub ethertype: u16,
    /// VLAN ID if tagged.
    pub vlan: Option<u16>,
    /// IPv4 fields if the packet is valid IPv4.
    pub ipv4: Option<ParsedIpv4>,
    /// ARP fields if the packet is valid IPv4-over-Ethernet ARP.
    pub arp: Option<ParsedArp>,
}

/// IPv4 portion of [`ParsedHeaders`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParsedIpv4 {
    /// Source address.
    pub src: Ipv4Address,
    /// Destination address.
    pub dst: Ipv4Address,
    /// Protocol.
    pub protocol: IpProtocol,
    /// TTL.
    pub ttl: u8,
    /// DSCP.
    pub dscp: u8,
    /// Whether the header checksum verified.
    pub checksum_ok: bool,
    /// L4 ports for TCP/UDP.
    pub l4: Option<(u16, u16)>,
}

/// ARP portion of [`ParsedHeaders`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParsedArp {
    /// True for request, false for reply.
    pub is_request: bool,
    /// Sender MAC.
    pub sender_mac: EthernetAddress,
    /// Sender IPv4.
    pub sender_ip: Ipv4Address,
    /// Target IPv4.
    pub target_ip: Ipv4Address,
}

impl ParsedHeaders {
    /// Parse as much of `frame` as is present and well-formed.
    pub fn parse(frame: &[u8]) -> ParsedHeaders {
        let mut out = ParsedHeaders::default();
        let Ok(eth) = EthernetFrame::new_checked(frame) else {
            return out;
        };
        out.eth_dst = eth.dst_addr();
        out.eth_src = eth.src_addr();
        out.ethertype = u16::from(eth.ethertype());
        out.vlan = eth.vlan_id();
        match eth.ethertype() {
            EtherType::Ipv4 => {
                if let Ok(ip) = Ipv4Packet::new_checked(eth.payload()) {
                    let l4 = match ip.protocol() {
                        IpProtocol::Udp => UdpPacket::new_checked(ip.payload())
                            .ok()
                            .map(|u| (u.src_port(), u.dst_port())),
                        IpProtocol::Tcp => TcpPacket::new_checked(ip.payload())
                            .ok()
                            .map(|t| (t.src_port(), t.dst_port())),
                        _ => None,
                    };
                    out.ipv4 = Some(ParsedIpv4 {
                        src: ip.src_addr(),
                        dst: ip.dst_addr(),
                        protocol: ip.protocol(),
                        ttl: ip.ttl(),
                        dscp: ip.dscp(),
                        checksum_ok: ip.verify_checksum(),
                        l4,
                    });
                }
            }
            EtherType::Arp => {
                if let Ok(pkt) = ArpPacket::new_checked(eth.payload()) {
                    if let Ok(arp) = ArpRepr::parse(&pkt) {
                        out.arp = Some(ParsedArp {
                            is_request: arp.operation == netfpga_packet::arp::Operation::Request,
                            sender_mac: arp.source_hardware_addr,
                            sender_ip: arp.source_protocol_addr,
                            target_ip: arp.target_protocol_addr,
                        });
                    }
                }
            }
            _ => {}
        }
        out
    }

    /// The flow 5-tuple (src ip, dst ip, proto, sport, dport) if IPv4 with
    /// L4 ports; used by classifiers and the example middlebox.
    pub fn five_tuple(&self) -> Option<(Ipv4Address, Ipv4Address, u8, u16, u16)> {
        let ip = self.ipv4?;
        let (sp, dp) = ip.l4?;
        Some((ip.src, ip.dst, ip.protocol.into(), sp, dp))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netfpga_packet::PacketBuilder;
    use proptest::prelude::*;

    fn macs() -> (EthernetAddress, EthernetAddress) {
        (
            EthernetAddress::new(2, 0, 0, 0, 0, 1),
            EthernetAddress::new(2, 0, 0, 0, 0, 2),
        )
    }

    #[test]
    fn parses_udp_frame() {
        let (s, d) = macs();
        let frame = PacketBuilder::new()
            .eth(s, d)
            .ipv4(Ipv4Address::new(10, 0, 0, 1), Ipv4Address::new(10, 0, 1, 2))
            .ttl(9)
            .udp(4000, 53, b"q")
            .build();
        let h = ParsedHeaders::parse(&frame);
        assert_eq!(h.eth_src, s);
        assert_eq!(h.eth_dst, d);
        assert_eq!(h.ethertype, 0x0800);
        let ip = h.ipv4.unwrap();
        assert_eq!(ip.dst, Ipv4Address::new(10, 0, 1, 2));
        assert_eq!(ip.ttl, 9);
        assert!(ip.checksum_ok);
        assert_eq!(ip.l4, Some((4000, 53)));
        assert_eq!(
            h.five_tuple(),
            Some((
                Ipv4Address::new(10, 0, 0, 1),
                Ipv4Address::new(10, 0, 1, 2),
                17,
                4000,
                53
            ))
        );
    }

    #[test]
    fn parses_arp_request() {
        let (s, _d) = macs();
        let frame = PacketBuilder::arp_request(
            s,
            Ipv4Address::new(10, 0, 0, 1),
            Ipv4Address::new(10, 0, 0, 2),
        );
        let h = ParsedHeaders::parse(&frame);
        let arp = h.arp.unwrap();
        assert!(arp.is_request);
        assert_eq!(arp.sender_mac, s);
        assert_eq!(arp.target_ip, Ipv4Address::new(10, 0, 0, 2));
        assert!(h.ipv4.is_none());
        assert!(h.five_tuple().is_none());
    }

    #[test]
    fn corrupted_ipv4_checksum_flagged() {
        let (s, d) = macs();
        let mut frame = PacketBuilder::new()
            .eth(s, d)
            .ipv4(Ipv4Address::new(1, 1, 1, 1), Ipv4Address::new(2, 2, 2, 2))
            .udp(1, 2, b"")
            .build();
        frame[22] ^= 0xff; // corrupt TTL inside IP header
        let h = ParsedHeaders::parse(&frame);
        assert!(!h.ipv4.unwrap().checksum_ok);
    }

    #[test]
    fn short_and_unknown_frames_degrade_gracefully() {
        let h = ParsedHeaders::parse(&[0u8; 4]);
        assert!(h.ipv4.is_none() && h.arp.is_none());
        let (s, d) = macs();
        let frame = PacketBuilder::new()
            .eth(s, d)
            .raw(netfpga_packet::EtherType::Unknown(0x88cc), &[1, 2, 3])
            .build();
        let h = ParsedHeaders::parse(&frame);
        assert_eq!(h.ethertype, 0x88cc);
        assert!(h.ipv4.is_none());
    }

    proptest! {
        /// The parser is total: arbitrary bytes never panic, and whatever
        /// it extracts is internally consistent.
        #[test]
        fn prop_parser_total(frame in proptest::collection::vec(any::<u8>(), 0..2049)) {
            let h = ParsedHeaders::parse(&frame);
            if let Some(ip) = h.ipv4 {
                prop_assert_eq!(h.ethertype, 0x0800);
                // l4 present implies a TCP/UDP protocol number.
                if ip.l4.is_some() {
                    prop_assert!(matches!(ip.protocol, IpProtocol::Udp | IpProtocol::Tcp));
                }
            }
            if h.arp.is_some() {
                prop_assert_eq!(h.ethertype, 0x0806);
            }
            prop_assert!(h.ipv4.is_none() || h.arp.is_none(), "mutually exclusive");
        }

        /// Truncating a valid frame anywhere never panics and never
        /// invents deeper layers than the bytes support.
        #[test]
        fn prop_truncation_safe(cut in 0usize..100) {
            let full = PacketBuilder::new()
                .eth(mac(1), mac(2))
                .ipv4(Ipv4Address::new(1, 2, 3, 4), Ipv4Address::new(5, 6, 7, 8))
                .udp(1000, 2000, b"payload!")
                .build();
            let cut = cut.min(full.len());
            let h = ParsedHeaders::parse(&full[..cut]);
            if cut < 14 {
                prop_assert!(h.ipv4.is_none());
            }
            if cut < 34 {
                prop_assert!(h.ipv4.is_none(), "IPv4 needs 34 bytes, had {cut}");
            }
        }
    }

    fn mac(x: u8) -> EthernetAddress {
        EthernetAddress::new(2, 0, 0, 0, 0, x)
    }

    /// Release binaries abort on panic, so the parser's totality is what
    /// keeps a runt off the wire from ending a run: every prefix of a
    /// valid frame of each kind (VLAN-tagged TCP, ICMP, IPv4 with options
    /// carrying UDP, ARP) parses, and a layer appears only once all its
    /// bytes are there.
    #[test]
    fn every_truncation_of_every_frame_kind_parses() {
        use netfpga_packet::icmpv4::{Icmpv4Repr, Message};
        use netfpga_packet::tcp::{TcpFlags, TcpRepr};
        let ip = || {
            PacketBuilder::new()
                .eth(mac(1), mac(2))
                .ipv4(Ipv4Address::new(1, 2, 3, 4), Ipv4Address::new(5, 6, 7, 8))
        };
        let tcp = TcpRepr {
            src_port: 443,
            dst_port: 51000,
            seq_number: 7,
            ack_number: 9,
            flags: TcpFlags::SYN,
            window: 1024,
        };
        let echo = Icmpv4Repr {
            message: Message::EchoRequest { ident: 3, seq: 4 },
        };
        // Four bytes of IP options spliced into a UDP frame.
        let mut optioned = ip().udp(1000, 2000, &[0x5a; 40]).build();
        optioned.splice(34..34, [1, 1, 1, 0]); // NOP NOP NOP EOL
        let mut hdr = Ipv4Packet::new_unchecked(&mut optioned[14..]);
        let len = hdr.total_len();
        hdr.set_version_and_header_len(24);
        hdr.set_total_len(len + 4);
        hdr.fill_checksum();
        let arp = PacketBuilder::arp_request(
            mac(1),
            Ipv4Address::new(1, 2, 3, 4),
            Ipv4Address::new(1, 2, 3, 5),
        );
        // (frame, bytes before the IPv4/ARP layer is whole, before l4 is)
        let kinds = [
            (
                ip().vlan(42, 5).tcp(tcp, b"segment").no_pad().build(),
                18 + 20 + 20 + 7,
                Some(18 + 20 + 20 + 7),
            ),
            (
                ip().icmp(echo, b"ping").no_pad().build(),
                14 + 20 + 8 + 4,
                None,
            ),
            (optioned, 14 + 24 + 8 + 40, Some(14 + 24 + 8 + 40)),
            (arp, 14 + 28, None),
        ];
        for (frame, l3_whole, l4_whole) in kinds {
            let full = ParsedHeaders::parse(&frame);
            assert!(full.ipv4.is_some_and(|ip| ip.checksum_ok) || full.arp.is_some());
            assert_eq!(full.ipv4.and_then(|ip| ip.l4).is_some(), l4_whole.is_some());
            for cut in 0..=frame.len() {
                let h = ParsedHeaders::parse(&frame[..cut]);
                let l3 = h.ipv4.is_some() || h.arp.is_some();
                assert_eq!(l3, cut >= l3_whole, "cut {cut} of {}", frame.len());
                let l4 = h.ipv4.and_then(|ip| ip.l4).is_some();
                assert_eq!(l4, l4_whole.is_some_and(|n| cut >= n), "cut {cut}");
            }
        }
    }

    #[test]
    fn vlan_tag_surfaces() {
        let (s, d) = macs();
        let frame = PacketBuilder::new()
            .eth(s, d)
            .vlan(42, 0)
            .ipv4(Ipv4Address::new(1, 0, 0, 1), Ipv4Address::new(1, 0, 0, 2))
            .udp(1, 2, b"")
            .build();
        let h = ParsedHeaders::parse(&frame);
        assert_eq!(h.vlan, Some(42));
        assert!(h.ipv4.is_some());
    }
}
