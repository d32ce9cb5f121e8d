//! # netfpga-packet
//!
//! Typed wire formats for the netfpga-rs platform.
//!
//! This crate follows the *smoltcp* idiom for protocol handling: every
//! protocol offers a zero-copy **view** type (`Frame`, `Packet`) wrapping a
//! byte buffer plus a plain-old-data **representation** type (`Repr`) with
//! `parse` / `emit` methods. Views validate lazily and never allocate;
//! representations are convenient for constructing packets in tests,
//! workload generators and host software.
//!
//! Supported protocols:
//!
//! * Ethernet II, with optional single 802.1Q VLAN tag ([`ethernet`])
//! * ARP for IPv4-over-Ethernet ([`arp`])
//! * IPv4 with header checksum and options-tolerant parsing ([`ipv4`])
//! * ICMPv4 echo / time-exceeded / destination-unreachable ([`icmpv4`])
//! * UDP ([`udp`]) and the TCP header ([`tcp`])
//!
//! The [`builder`] module offers a small fluent API that assembles complete
//! frames (used heavily by the workload generators in `netfpga-bench` and by
//! the OSNT traffic generator), and [`checksum`] provides both one-shot and
//! RFC 1624 incremental Internet checksums (the incremental form is what the
//! reference router datapath uses to update checksums after TTL decrement).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod addr;
pub mod arp;
pub mod builder;
pub mod checksum;
pub mod ethernet;
pub mod fcs;
pub mod hexdump;
pub mod icmpv4;
pub mod ipv4;
pub mod tcp;
pub mod udp;

pub use addr::{EthernetAddress, Ipv4Address, Ipv4Cidr};
pub use builder::PacketBuilder;
pub use ethernet::{EtherType, EthernetFrame, EthernetRepr};
pub use ipv4::{IpProtocol, Ipv4Packet, Ipv4Repr};

/// Errors produced while parsing or emitting wire formats.
///
/// Parsing is strict about structural validity (lengths, versions) but, like
/// real forwarding hardware, does not verify payload checksums unless asked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Error {
    /// The buffer is too short to contain the protocol header.
    Truncated,
    /// A length, version or type field is inconsistent with the buffer.
    Malformed,
    /// A verified checksum did not match.
    Checksum,
    /// The buffer provided for `emit` is too small.
    Exhausted,
}

impl core::fmt::Display for Error {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Error::Truncated => write!(f, "buffer truncated"),
            Error::Malformed => write!(f, "malformed header"),
            Error::Checksum => write!(f, "checksum mismatch"),
            Error::Exhausted => write!(f, "emit buffer exhausted"),
        }
    }
}

impl std::error::Error for Error {}

/// Convenience alias used throughout the crate.
pub type Result<T> = core::result::Result<T, Error>;

/// Read a big-endian `u16` at `idx` (panics if out of range; views check
/// bounds before calling).
#[inline]
pub(crate) fn get_u16(data: &[u8], idx: usize) -> u16 {
    u16::from_be_bytes([data[idx], data[idx + 1]])
}

/// Read a big-endian `u32` at `idx`.
#[inline]
pub(crate) fn get_u32(data: &[u8], idx: usize) -> u32 {
    u32::from_be_bytes([data[idx], data[idx + 1], data[idx + 2], data[idx + 3]])
}

/// Write a big-endian `u16` at `idx`.
#[inline]
pub(crate) fn set_u16(data: &mut [u8], idx: usize, value: u16) {
    data[idx..idx + 2].copy_from_slice(&value.to_be_bytes());
}

/// Write a big-endian `u32` at `idx`.
#[inline]
pub(crate) fn set_u32(data: &mut [u8], idx: usize, value: u32) {
    data[idx..idx + 4].copy_from_slice(&value.to_be_bytes());
}

/// Release binaries abort on panic, so "no byte string panics a parser" is
/// what keeps a hostile frame from taking the simulator down.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::arp::{ArpPacket, ArpRepr, Operation};
    use crate::icmpv4::{Icmpv4Packet, Icmpv4Repr, Message};
    use crate::tcp::{TcpFlags, TcpPacket, TcpRepr};
    use crate::udp::{UdpPacket, UdpRepr};
    use proptest::prelude::*;

    /// Every parser of the crate on `bytes`: `parse` on the unchecked view,
    /// and on a view that checked, the accessors that slice by a length
    /// field. The property is that this returns.
    fn parse_all(bytes: &[u8]) {
        let _ = EthernetRepr::parse(&EthernetFrame::new_unchecked(bytes));
        let _ = ArpRepr::parse(&ArpPacket::new_unchecked(bytes));
        let _ = Ipv4Repr::parse(&Ipv4Packet::new_unchecked(bytes), true);
        let _ = UdpRepr::parse(&UdpPacket::new_unchecked(bytes));
        let _ = TcpRepr::parse(&TcpPacket::new_unchecked(bytes));
        let _ = Icmpv4Repr::parse(&Icmpv4Packet::new_unchecked(bytes), true);
        let (src, dst) = (Ipv4Address::new(10, 0, 0, 1), Ipv4Address::new(10, 0, 0, 2));
        if let Ok(ip) = Ipv4Packet::new_checked(bytes) {
            let _ = (ip.payload(), ip.verify_checksum());
        }
        if let Ok(udp) = UdpPacket::new_checked(bytes) {
            let _ = (udp.payload(), udp.verify_checksum(src, dst));
        }
        if let Ok(tcp) = TcpPacket::new_checked(bytes) {
            let _ = (tcp.payload(), tcp.verify_checksum(src, dst));
        }
        if let Ok(icmp) = Icmpv4Packet::new_checked(bytes) {
            let _ = (icmp.payload(), icmp.verify_checksum());
        }
    }

    /// The layered walk a datapath does: each layer parses the payload of
    /// the one above, by the type field found there.
    fn walk(frame: &[u8]) {
        parse_all(frame);
        let _ = hexdump::summarize(frame);
        let Ok(eth) = EthernetFrame::new_checked(frame) else {
            return;
        };
        parse_all(eth.payload());
        if let Ok(ip) = Ipv4Packet::new_checked(eth.payload()) {
            parse_all(ip.payload());
        }
    }

    fn mac(x: u8) -> EthernetAddress {
        EthernetAddress::new(2, 0, 0, 0, 0, x)
    }

    /// `frame` (untagged IPv4) with four bytes of IP options spliced in.
    fn with_ip_options(mut frame: Vec<u8>) -> Vec<u8> {
        frame.splice(34..34, [1, 1, 1, 0]); // NOP NOP NOP EOL
        let mut ip = Ipv4Packet::new_unchecked(&mut frame[14..]);
        let len = ip.total_len();
        ip.set_version_and_header_len(24);
        ip.set_total_len(len + 4);
        ip.fill_checksum();
        frame
    }

    /// One valid frame of each kind the crate parses.
    fn valid_frames() -> Vec<Vec<u8>> {
        let ip = || {
            PacketBuilder::new()
                .eth(mac(1), mac(2))
                .ipv4(Ipv4Address::new(10, 0, 0, 1), Ipv4Address::new(10, 0, 1, 2))
        };
        let tcp = TcpRepr {
            src_port: 443,
            dst_port: 51000,
            seq_number: 7,
            ack_number: 9,
            flags: TcpFlags::SYN | TcpFlags::ACK,
            window: 1024,
        };
        let echo = Icmpv4Repr {
            message: Message::EchoRequest { ident: 3, seq: 4 },
        };
        vec![
            ip().udp(4000, 53, b"query").build(),
            ip().vlan(42, 5).tcp(tcp, b"segment").build(),
            ip().icmp(echo, b"ping").build(),
            with_ip_options(ip().udp(1, 2, &[0x5a; 40]).build()),
            PacketBuilder::arp_request(
                mac(1),
                Ipv4Address::new(10, 0, 0, 1),
                Ipv4Address::new(10, 0, 0, 2),
            ),
            PacketBuilder::new()
                .eth(mac(1), mac(2))
                .raw(EtherType::Unknown(0x88cc), &[1, 2, 3])
                .build(),
        ]
    }

    #[test]
    fn every_truncation_of_a_valid_frame_parses_or_errs() {
        for frame in valid_frames() {
            let full = EthernetFrame::new_checked(&frame[..]).expect("valid");
            if full.ethertype() == EtherType::Ipv4 {
                let ip = Ipv4Packet::new_checked(full.payload()).expect("valid");
                assert!(Ipv4Repr::parse(&ip, true).is_ok(), "corpus frame is valid");
            }
            for cut in 0..=frame.len() {
                walk(&frame[..cut]);
            }
        }
    }

    proptest! {
        #[test]
        fn prop_arbitrary_bytes_parse_or_err(bytes in proptest::collection::vec(any::<u8>(), 0..2049)) {
            walk(&bytes);
        }

        /// The same with a valid prefix, so the deeper layers are reached:
        /// a corpus frame with one byte overwritten and a cut.
        #[test]
        fn prop_damaged_frames_parse_or_err(
            which in 0usize..6, at in any::<usize>(), byte in any::<u8>(), cut in any::<usize>(),
        ) {
            let mut frame = valid_frames().swap_remove(which);
            let at = at % frame.len();
            frame[at] = byte;
            walk(&frame[..=cut % frame.len()]);
        }

        /// `parse ∘ emit` is the identity on the protocols whose modules do
        /// not pin it themselves (IPv4 and UDP do).
        #[test]
        fn prop_emit_parse_roundtrip(
            a in any::<u64>(), b in any::<u64>(), x in any::<u32>(), y in any::<u32>(),
            vid in 0u16..4096, pcp in 0u8..8, tagged in any::<bool>(), op in any::<u16>(),
            payload in proptest::collection::vec(any::<u8>(), 0..64),
        ) {
            let mac = |v: u64| EthernetAddress::from_bytes(&v.to_be_bytes()[2..]);
            let (a, b) = (mac(a), mac(b));
            let (src, dst) = (Ipv4Address::from_u32(x), Ipv4Address::from_u32(y));
            let mut buf = [0u8; 128];

            // 0x8100 as the inner type would read back as a tag.
            let eth = EthernetRepr {
                src_addr: a,
                dst_addr: b,
                ethertype: EtherType::from(if op == 0x8100 { 0x0800 } else { op }),
                vlan: tagged.then_some((vid, pcp)),
            };
            eth.emit(&mut buf).unwrap();
            prop_assert_eq!(EthernetRepr::parse(&EthernetFrame::new_checked(&buf[..]).unwrap()), Ok(eth));

            let arp = ArpRepr {
                operation: Operation::from(op),
                source_hardware_addr: a,
                source_protocol_addr: src,
                target_hardware_addr: b,
                target_protocol_addr: dst,
            };
            arp.emit(&mut buf).unwrap();
            prop_assert_eq!(ArpRepr::parse(&ArpPacket::new_checked(&buf[..]).unwrap()), Ok(arp));

            let tcp = TcpRepr {
                src_port: vid,
                dst_port: op,
                seq_number: x,
                ack_number: y,
                flags: TcpFlags::SYN | TcpFlags::ACK,
                window: op,
            };
            let n = tcp.emit(&mut buf, &payload, src, dst).unwrap();
            let seg = TcpPacket::new_checked(&buf[..n]).unwrap();
            prop_assert!(seg.verify_checksum(src, dst));
            prop_assert_eq!(seg.payload(), &payload[..]);
            prop_assert_eq!(TcpRepr::parse(&seg), Ok(tcp));

            let icmp = Icmpv4Repr { message: Message::EchoRequest { ident: vid, seq: op } };
            let n = icmp.emit(&mut buf, &payload).unwrap();
            let msg = Icmpv4Packet::new_checked(&buf[..n]).unwrap();
            prop_assert_eq!(msg.payload(), &payload[..]);
            prop_assert_eq!(Icmpv4Repr::parse(&msg, true), Ok(icmp));
        }
    }
}
