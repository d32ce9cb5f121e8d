//! The router management application: the software half of the reference
//! router.
//!
//! The hardware forwards the fast path; everything else arrives here over
//! the DMA exception path and is handled the way the real `router
//! management` application (SCONE's descendant) does:
//!
//! * ARP requests for the router's addresses → ARP replies.
//! * ARP replies → learn the mapping, push it to the hardware ARP table,
//!   and release any packets queued on that resolution.
//! * `ARP_MISS` exceptions → queue the packet, emit an ARP request.
//! * `TTL_EXPIRED` → ICMP time-exceeded back to the source.
//! * `NO_ROUTE` → ICMP network-unreachable back to the source.
//! * `LOCAL` ICMP echo requests → echo replies.
//!
//! Table management talks to the hardware exclusively through the router's
//! register block (staging + command protocol), like the real CLI does.

use netfpga_core::pktbuf::PktBuf;
use netfpga_core::stats::Counter;
use netfpga_core::stream::{Meta, PortMask};
use netfpga_core::telemetry::StatRegistry;
use netfpga_core::time::Time;
use netfpga_packet::icmpv4::{Icmpv4Packet, Icmpv4Repr, Message};
use netfpga_packet::ipv4::Ipv4Packet;
use netfpga_packet::{EthernetAddress, EthernetFrame, Ipv4Address, Ipv4Cidr, PacketBuilder};
use netfpga_projects::reference_router::{exception, ReferenceRouter, ROUTER_BASE};
use std::collections::BTreeMap;

/// One router interface: a port with a MAC, an address and a subnet.
#[derive(Debug, Clone, Copy)]
pub struct Interface {
    /// Port index.
    pub port: u8,
    /// Interface MAC address.
    pub mac: EthernetAddress,
    /// Interface IPv4 address.
    pub ip: Ipv4Address,
    /// Directly connected subnet.
    pub subnet: Ipv4Cidr,
}

/// Management-plane counters: shared cells the manager increments and the
/// telemetry plane reads.
#[derive(Debug, Clone, Default)]
pub struct MgmtCounters {
    /// ARP replies sent on the router's behalf.
    pub arp_replies: Counter,
    /// ARP requests emitted for unresolved next hops.
    pub arp_requests: Counter,
    /// ARP entries learned (and pushed to hardware).
    pub arp_learned: Counter,
    /// ICMP time-exceeded messages generated.
    pub icmp_ttl: Counter,
    /// ICMP net-unreachable messages generated.
    pub icmp_unreachable: Counter,
    /// ICMP echo replies generated.
    pub echo_replies: Counter,
    /// Queued packets forwarded in software after ARP resolution.
    pub slow_path_forwards: Counter,
    /// ICMP errors suppressed by the rate limiter.
    pub icmp_suppressed: Counter,
    /// Exceptions the manager did not know how to handle.
    pub unhandled: Counter,
}

impl MgmtCounters {
    /// Register every counter on `registry` under `prefix` (e.g. `mgmt`).
    pub fn register_stats(&self, registry: &StatRegistry, prefix: &str) {
        for (name, counter) in [
            ("arp_replies", &self.arp_replies),
            ("arp_requests", &self.arp_requests),
            ("arp_learned", &self.arp_learned),
            ("icmp_ttl", &self.icmp_ttl),
            ("icmp_unreachable", &self.icmp_unreachable),
            ("echo_replies", &self.echo_replies),
            ("slow_path_forwards", &self.slow_path_forwards),
            ("icmp_suppressed", &self.icmp_suppressed),
            ("unhandled", &self.unhandled),
        ] {
            registry.register_counter(&format!("{prefix}.{name}"), counter);
        }
    }
}

/// The management application.
pub struct RouterManager {
    interfaces: Vec<Interface>,
    /// Static routes beyond the connected subnets: (prefix, gateway, port).
    static_routes: Vec<(Ipv4Cidr, Ipv4Address, u8)>,
    /// Software ARP mirror (the hardware table is pushed from this).
    arp: BTreeMap<Ipv4Address, EthernetAddress>,
    /// Packets parked on an unresolved next hop.
    pending: BTreeMap<Ipv4Address, Vec<(PktBuf, Meta)>>,
    /// ICMP error rate limiter (token bucket), as real control planes
    /// throttle their error generation.
    icmp_tokens: f64,
    icmp_bucket: f64,
    icmp_rate_per_sec: f64,
    icmp_last_refill: Time,
    counters: MgmtCounters,
    cpu_port: u8,
}

impl RouterManager {
    /// Create a manager for a router with the given interfaces.
    pub fn new(interfaces: Vec<Interface>, cpu_port: u8) -> RouterManager {
        RouterManager {
            interfaces,
            static_routes: Vec::new(),
            arp: BTreeMap::new(),
            pending: BTreeMap::new(),
            icmp_tokens: 8.0,
            icmp_bucket: 8.0,
            icmp_rate_per_sec: 100_000.0,
            icmp_last_refill: Time::ZERO,
            counters: MgmtCounters::default(),
            cpu_port,
        }
    }

    /// The manager's counters.
    pub fn counters(&self) -> &MgmtCounters {
        &self.counters
    }

    /// Configure the ICMP-error rate limit: at most `per_sec` errors per
    /// second with bursts up to `burst` (the defaults are generous so tests
    /// of other behaviour never trip it).
    pub fn set_icmp_rate_limit(&mut self, per_sec: f64, burst: f64) {
        assert!(per_sec > 0.0 && burst >= 1.0);
        self.icmp_rate_per_sec = per_sec;
        self.icmp_bucket = burst;
        self.icmp_tokens = burst;
    }

    /// Take one ICMP token at `now`; false = rate limited.
    fn take_icmp_token(&mut self, now: Time) -> bool {
        let dt = now.saturating_sub(self.icmp_last_refill).as_secs_f64();
        self.icmp_last_refill = now;
        self.icmp_tokens = (self.icmp_tokens + dt * self.icmp_rate_per_sec).min(self.icmp_bucket);
        if self.icmp_tokens >= 1.0 {
            self.icmp_tokens -= 1.0;
            true
        } else {
            self.counters.icmp_suppressed.incr();
            false
        }
    }

    /// Add a static route (takes effect at the next [`Self::configure`]).
    pub fn add_static_route(&mut self, prefix: Ipv4Cidr, gateway: Ipv4Address, port: u8) {
        self.static_routes.push((prefix, gateway, port));
    }

    fn write_stage(r: &mut ReferenceRouter, word: u32, value: u32) {
        r.chassis.write32(ROUTER_BASE + word * 4, value);
    }

    /// Push the full configuration (port MACs, local IPs, connected +
    /// static routes) into the hardware through the register protocol.
    pub fn configure(&mut self, r: &mut ReferenceRouter) {
        Self::write_stage(r, 0, 7); // CLEAR_TABLES
        for iface in self.interfaces.clone() {
            // SET_PORT_MAC
            let m = iface.mac.to_u64();
            Self::write_stage(r, 4, u32::from(iface.port));
            Self::write_stage(r, 5, (m >> 32) as u32);
            Self::write_stage(r, 6, m as u32);
            Self::write_stage(r, 0, 6);
            // ADD_LOCAL_IP
            Self::write_stage(r, 1, iface.ip.to_u32());
            Self::write_stage(r, 0, 5);
            // Connected route (direct: next hop unspecified).
            Self::write_stage(r, 1, iface.subnet.network().to_u32());
            Self::write_stage(r, 2, u32::from(iface.subnet.prefix_len()));
            Self::write_stage(r, 3, 0);
            Self::write_stage(r, 4, u32::from(iface.port));
            Self::write_stage(r, 0, 1);
        }
        for (prefix, gw, port) in self.static_routes.clone() {
            Self::write_stage(r, 1, prefix.network().to_u32());
            Self::write_stage(r, 2, u32::from(prefix.prefix_len()));
            Self::write_stage(r, 3, gw.to_u32());
            Self::write_stage(r, 4, u32::from(port));
            Self::write_stage(r, 0, 1);
        }
    }

    fn push_arp_entry(r: &mut ReferenceRouter, ip: Ipv4Address, mac: EthernetAddress) {
        let m = mac.to_u64();
        Self::write_stage(r, 1, ip.to_u32());
        Self::write_stage(r, 5, (m >> 32) as u32);
        Self::write_stage(r, 6, m as u32);
        Self::write_stage(r, 0, 3);
    }

    fn interface_on_port(&self, port: u8) -> Option<Interface> {
        self.interfaces.iter().copied().find(|i| i.port == port)
    }

    /// Software route lookup (mirror of what was pushed to hardware):
    /// returns (next_hop, port).
    fn route(&self, dst: Ipv4Address) -> Option<(Ipv4Address, u8)> {
        let mut best: Option<(u8, Ipv4Address, u8)> = None;
        for iface in &self.interfaces {
            if iface.subnet.contains(dst) {
                let len = iface.subnet.prefix_len();
                if best.is_none_or(|(l, _, _)| len > l) {
                    best = Some((len, dst, iface.port));
                }
            }
        }
        for (prefix, gw, port) in &self.static_routes {
            if prefix.contains(dst) {
                let len = prefix.prefix_len();
                if best.is_none_or(|(l, _, _)| len > l) {
                    best = Some((len, *gw, *port));
                }
            }
        }
        best.map(|(_, nh, port)| (nh, port))
    }

    /// Send a frame out `port` through the DMA injection path.
    fn inject(&self, r: &mut ReferenceRouter, port: u8, frame: impl Into<PktBuf>) {
        let frame = frame.into();
        let dma = r.chassis.dma.clone().expect("router has DMA");
        let meta = Meta {
            len: frame.len() as u16,
            src_port: self.cpu_port,
            dst_ports: PortMask::single(port),
            ..Default::default()
        };
        // Ring full is a transient condition; management traffic is sparse
        // enough in the experiments that dropping mirrors reality (the
        // kernel would also drop under ring exhaustion).
        let _ = dma.send_with_meta(frame, meta);
    }

    fn icmp_error(
        &mut self,
        r: &mut ReferenceRouter,
        original: &[u8],
        ingress: u8,
        message: Message,
    ) {
        let Some(iface) = self.interface_on_port(ingress) else {
            self.counters.unhandled.incr();
            return;
        };
        let Ok(eth) = EthernetFrame::new_checked(original) else {
            self.counters.unhandled.incr();
            return;
        };
        let Ok(ip) = Ipv4Packet::new_checked(eth.payload()) else {
            self.counters.unhandled.incr();
            return;
        };
        // RFC 792: payload is the original IP header + 8 bytes.
        let include = (ip.header_len() + 8).min(eth.payload().len());
        let payload = &eth.payload()[..include];
        let frame = PacketBuilder::new()
            .eth(iface.mac, eth.src_addr())
            .ipv4(iface.ip, ip.src_addr())
            .icmp(Icmpv4Repr { message }, payload)
            .build();
        self.inject(r, ingress, frame);
    }

    fn handle_arp(&mut self, r: &mut ReferenceRouter, frame: &[u8], ingress: u8) {
        let Some(iface) = self.interface_on_port(ingress) else {
            self.counters.unhandled.incr();
            return;
        };
        let Ok(eth) = EthernetFrame::new_checked(frame) else {
            self.counters.unhandled.incr();
            return;
        };
        let Ok(arp) = netfpga_packet::arp::ArpRepr::parse(
            &netfpga_packet::arp::ArpPacket::new_unchecked(eth.payload()),
        ) else {
            self.counters.unhandled.incr();
            return;
        };
        match arp.operation {
            netfpga_packet::arp::Operation::Request => {
                if arp.target_protocol_addr == iface.ip {
                    let reply = PacketBuilder::arp_reply_to(frame, iface.mac, iface.ip)
                        .expect("valid request");
                    self.inject(r, ingress, reply);
                    self.counters.arp_replies.incr();
                }
            }
            netfpga_packet::arp::Operation::Reply => {
                let ip = arp.source_protocol_addr;
                let mac = arp.source_hardware_addr;
                self.arp.insert(ip, mac);
                Self::push_arp_entry(r, ip, mac);
                self.counters.arp_learned.incr();
                // Release parked packets: forward them in software.
                if let Some(parked) = self.pending.remove(&ip) {
                    for (pkt, meta) in parked {
                        self.slow_path_forward(r, pkt, meta);
                    }
                }
            }
            netfpga_packet::arp::Operation::Unknown(_) => self.counters.unhandled.incr(),
        }
    }

    /// Forward a packet entirely in software (used for packets that were
    /// parked on ARP resolution): rewrite MACs, decrement TTL, inject.
    fn slow_path_forward(&mut self, r: &mut ReferenceRouter, mut frame: PktBuf, _meta: Meta) {
        let Some((dst, ingress_ok)) = ({
            let eth = EthernetFrame::new_checked(&frame[..]).ok();
            eth.and_then(|e| {
                Ipv4Packet::new_checked(e.payload())
                    .ok()
                    .map(|ip| (ip.dst_addr(), true))
            })
        }) else {
            self.counters.unhandled.incr();
            return;
        };
        let _ = ingress_ok;
        let Some((next_hop, port)) = self.route(dst) else {
            self.counters.unhandled.incr();
            return;
        };
        let (Some(&next_mac), Some(iface)) =
            (self.arp.get(&next_hop), self.interface_on_port(port))
        else {
            self.counters.unhandled.incr();
            return;
        };
        {
            let data = frame.make_mut();
            let mut eth = EthernetFrame::new_unchecked(&mut data[..]);
            eth.set_dst_addr(next_mac);
            eth.set_src_addr(iface.mac);
            let off = eth.header_len();
            let mut ip = Ipv4Packet::new_unchecked(&mut data[off..]);
            ip.decrement_ttl();
        }
        self.inject(r, port, frame);
        self.counters.slow_path_forwards.incr();
    }

    fn handle_local(&mut self, r: &mut ReferenceRouter, frame: &[u8], ingress: u8) {
        // Answer ICMP echo requests addressed to us.
        let Some(iface) = self.interface_on_port(ingress) else {
            self.counters.unhandled.incr();
            return;
        };
        let Ok(eth) = EthernetFrame::new_checked(frame) else {
            self.counters.unhandled.incr();
            return;
        };
        let Ok(ip) = Ipv4Packet::new_checked(eth.payload()) else {
            self.counters.unhandled.incr();
            return;
        };
        if ip.protocol() != netfpga_packet::IpProtocol::Icmp {
            self.counters.unhandled.incr();
            return;
        }
        let Ok(icmp) = Icmpv4Packet::new_checked(ip.payload()) else {
            self.counters.unhandled.incr();
            return;
        };
        let Ok(repr) = Icmpv4Repr::parse(&icmp, true) else {
            self.counters.unhandled.incr();
            return;
        };
        if let Message::EchoRequest { ident, seq } = repr.message {
            let reply = PacketBuilder::new()
                .eth(iface.mac, eth.src_addr())
                .ipv4(ip.dst_addr(), ip.src_addr())
                .icmp(
                    Icmpv4Repr {
                        message: Message::EchoReply { ident, seq },
                    },
                    icmp.payload(),
                )
                .build();
            self.inject(r, ingress, reply);
            self.counters.echo_replies.incr();
        } else {
            self.counters.unhandled.incr();
        }
    }

    fn handle_arp_miss(&mut self, r: &mut ReferenceRouter, frame: PktBuf, meta: Meta) {
        let Some(dst) = EthernetFrame::new_checked(&frame[..]).ok().and_then(|e| {
            Ipv4Packet::new_checked(e.payload())
                .ok()
                .map(|ip| ip.dst_addr())
        }) else {
            self.counters.unhandled.incr();
            return;
        };
        let Some((next_hop, port)) = self.route(dst) else {
            self.counters.unhandled.incr();
            return;
        };
        let Some(iface) = self.interface_on_port(port) else {
            self.counters.unhandled.incr();
            return;
        };
        let first_for_hop = !self.pending.contains_key(&next_hop);
        self.pending
            .entry(next_hop)
            .or_default()
            .push((frame, meta));
        if first_for_hop {
            let request = PacketBuilder::arp_request(iface.mac, iface.ip, next_hop);
            self.inject(r, port, request);
            self.counters.arp_requests.incr();
        }
    }

    /// Drain and handle every pending exception. Call between simulation
    /// runs, as the real daemon is woken by DMA interrupts.
    pub fn poll(&mut self, r: &mut ReferenceRouter) {
        let dma = r.chassis.dma.clone().expect("router has DMA");
        while let Some((frame, meta)) = dma.recv() {
            let now = r.chassis.sim.now();
            match meta.flags {
                exception::NON_IP => self.handle_arp(r, &frame, meta.src_port),
                exception::LOCAL => self.handle_local(r, &frame, meta.src_port),
                exception::TTL_EXPIRED => {
                    if self.take_icmp_token(now) {
                        self.icmp_error(
                            r,
                            &frame,
                            meta.src_port,
                            Message::TimeExceeded { code: 0 },
                        );
                        self.counters.icmp_ttl.incr();
                    }
                }
                exception::NO_ROUTE => {
                    if self.take_icmp_token(now) {
                        self.icmp_error(
                            r,
                            &frame,
                            meta.src_port,
                            Message::DstUnreachable { code: 0 },
                        );
                        self.counters.icmp_unreachable.incr();
                    }
                }
                exception::ARP_MISS => self.handle_arp_miss(r, frame, meta),
                _ => self.counters.unhandled.incr(),
            }
        }
    }

    /// Run the simulation while polling exceptions every `step`, until
    /// `total` has elapsed — the idiom every router test uses.
    pub fn run(&mut self, r: &mut ReferenceRouter, total: Time, step: Time) {
        let deadline = r.chassis.sim.now() + total;
        while r.chassis.sim.now() < deadline {
            r.chassis.run_for(step);
            self.poll(r);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netfpga_core::board::BoardSpec;
    use netfpga_datapath::ParsedHeaders;

    fn mac(x: u8) -> EthernetAddress {
        EthernetAddress::new(2, 0, 0, 0, 0, x)
    }

    fn ip(s: &str) -> Ipv4Address {
        s.parse().unwrap()
    }

    fn setup() -> (ReferenceRouter, RouterManager) {
        let mut r = ReferenceRouter::new(&BoardSpec::sume(), 4);
        let interfaces = vec![
            Interface {
                port: 0,
                mac: mac(0xe0),
                ip: ip("10.0.0.1"),
                subnet: "10.0.0.0/24".parse().unwrap(),
            },
            Interface {
                port: 1,
                mac: mac(0xe1),
                ip: ip("10.0.1.1"),
                subnet: "10.0.1.0/24".parse().unwrap(),
            },
        ];
        let mut mgr = RouterManager::new(interfaces, r.cpu_port);
        mgr.configure(&mut r);
        (r, mgr)
    }

    #[test]
    fn configure_pushes_tables() {
        let (r, _mgr) = setup();
        let t = r.tables.borrow();
        assert_eq!(t.lpm.len(), 2, "two connected routes");
        assert_eq!(t.local_ips.len(), 2);
        assert_eq!(t.port_macs[0], mac(0xe0));
    }

    #[test]
    fn answers_arp_requests() {
        let (mut r, mut mgr) = setup();
        let req = PacketBuilder::arp_request(mac(0xa1), ip("10.0.0.2"), ip("10.0.0.1"));
        r.chassis.send(0, req);
        mgr.run(&mut r, Time::from_us(60), Time::from_us(10));
        let out = r.chassis.recv(0);
        assert_eq!(out.len(), 1, "one ARP reply");
        let h = ParsedHeaders::parse(&out[0]);
        let arp = h.arp.unwrap();
        assert!(!arp.is_request);
        assert_eq!(arp.sender_mac, mac(0xe0));
        assert_eq!(arp.sender_ip, ip("10.0.0.1"));
        assert_eq!(h.eth_dst, mac(0xa1));
        assert_eq!(mgr.counters().arp_replies.get(), 1);
    }

    #[test]
    fn answers_ping() {
        let (mut r, mut mgr) = setup();
        let ping = PacketBuilder::new()
            .eth(mac(0xa1), mac(0xe0))
            .ipv4(ip("10.0.0.2"), ip("10.0.0.1"))
            .icmp(
                Icmpv4Repr {
                    message: Message::EchoRequest { ident: 7, seq: 1 },
                },
                b"ping data",
            )
            .build();
        r.chassis.send(0, ping);
        mgr.run(&mut r, Time::from_us(60), Time::from_us(10));
        let out = r.chassis.recv(0);
        assert_eq!(out.len(), 1);
        let h = ParsedHeaders::parse(&out[0]);
        let ipv4 = h.ipv4.unwrap();
        assert_eq!(ipv4.src, ip("10.0.0.1"));
        assert_eq!(ipv4.dst, ip("10.0.0.2"));
        assert_eq!(mgr.counters().echo_replies.get(), 1);
    }

    #[test]
    fn generates_ttl_exceeded() {
        let (mut r, mut mgr) = setup();
        // Pre-resolve host A so nothing else interferes.
        r.tables.borrow_mut().arp.insert(ip("10.0.1.2"), mac(0xb2));
        let pkt = PacketBuilder::new()
            .eth(mac(0xa1), mac(0xe0))
            .ipv4(ip("10.0.0.2"), ip("10.0.1.2"))
            .ttl(1)
            .udp(1, 2, b"dying")
            .build();
        r.chassis.send(0, pkt);
        mgr.run(&mut r, Time::from_us(60), Time::from_us(10));
        let out = r.chassis.recv(0);
        assert_eq!(out.len(), 1);
        let h = ParsedHeaders::parse(&out[0]);
        assert_eq!(h.ipv4.unwrap().src, ip("10.0.0.1"), "ICMP from router");
        assert_eq!(mgr.counters().icmp_ttl.get(), 1);
        // The ICMP body carries the original header.
        let eth = EthernetFrame::new_checked(&out[0][..]).unwrap();
        let ipp = Ipv4Packet::new_checked(eth.payload()).unwrap();
        let icmp = Icmpv4Packet::new_checked(ipp.payload()).unwrap();
        assert_eq!(icmp.icmp_type(), 11);
        assert!(icmp.verify_checksum());
    }

    #[test]
    fn generates_net_unreachable() {
        let (mut r, mut mgr) = setup();
        let pkt = PacketBuilder::new()
            .eth(mac(0xa1), mac(0xe0))
            .ipv4(ip("10.0.0.2"), ip("99.9.9.9"))
            .udp(1, 2, b"nowhere")
            .build();
        r.chassis.send(0, pkt);
        mgr.run(&mut r, Time::from_us(60), Time::from_us(10));
        let out = r.chassis.recv(0);
        assert_eq!(out.len(), 1);
        let eth = EthernetFrame::new_checked(&out[0][..]).unwrap();
        let ipp = Ipv4Packet::new_checked(eth.payload()).unwrap();
        let icmp = Icmpv4Packet::new_checked(ipp.payload()).unwrap();
        assert_eq!(icmp.icmp_type(), 3);
        assert_eq!(mgr.counters().icmp_unreachable.get(), 1);
    }

    /// The full ARP-resolution dance: first packet to an unresolved next
    /// hop triggers an ARP request; the reply releases the parked packet
    /// AND installs a hardware entry so later packets take the fast path.
    #[test]
    fn arp_miss_resolution_end_to_end() {
        let (mut r, mut mgr) = setup();
        let data = PacketBuilder::new()
            .eth(mac(0xa1), mac(0xe0))
            .ipv4(ip("10.0.0.2"), ip("10.0.1.2"))
            .udp(1000, 2000, b"first packet")
            .build();
        r.chassis.send(0, data);
        mgr.run(&mut r, Time::from_us(60), Time::from_us(10));
        // An ARP request for 10.0.1.2 must have gone out port 1.
        let out = r.chassis.recv(1);
        assert_eq!(out.len(), 1);
        let h = ParsedHeaders::parse(&out[0]);
        let arp = h.arp.unwrap();
        assert!(arp.is_request);
        assert_eq!(arp.target_ip, ip("10.0.1.2"));
        assert_eq!(mgr.counters().arp_requests.get(), 1);

        // Host B answers.
        let reply = PacketBuilder::arp_reply_to(&out[0], mac(0xb2), ip("10.0.1.2")).unwrap();
        r.chassis.send(1, reply);
        mgr.run(&mut r, Time::from_us(60), Time::from_us(10));
        // The parked packet was forwarded (slow path) out port 1.
        let released = r.chassis.recv(1);
        assert_eq!(released.len(), 1, "parked packet released");
        let h = ParsedHeaders::parse(&released[0]);
        assert_eq!(h.eth_dst, mac(0xb2));
        assert_eq!(h.ipv4.unwrap().ttl, 63);
        assert_eq!(mgr.counters().slow_path_forwards.get(), 1);
        assert_eq!(mgr.counters().arp_learned.get(), 1);

        // Second packet: pure hardware path, no new exceptions.
        let before = r.counters.forwarded.get();
        let data2 = PacketBuilder::new()
            .eth(mac(0xa1), mac(0xe0))
            .ipv4(ip("10.0.0.2"), ip("10.0.1.2"))
            .udp(1000, 2000, b"second packet")
            .build();
        r.chassis.send(0, data2);
        mgr.run(&mut r, Time::from_us(60), Time::from_us(10));
        assert_eq!(r.chassis.recv(1).len(), 1);
        assert_eq!(r.counters.forwarded.get(), before + 1, "fast path");
    }

    /// An attack stream of TTL-1 packets must not turn the router into an
    /// ICMP amplifier: the rate limiter caps responses at the burst size.
    #[test]
    fn icmp_error_rate_limited() {
        let (mut r, mut mgr) = setup();
        mgr.set_icmp_rate_limit(1_000.0, 5.0); // tiny burst for the test
        for i in 0..50u16 {
            let pkt = PacketBuilder::new()
                .eth(mac(0xa1), mac(0xe0))
                .ipv4(ip("10.0.0.2"), ip("10.0.1.2"))
                .ttl(1)
                .udp(30_000 + i, 1, b"attack")
                .build();
            r.chassis.send(0, pkt);
        }
        mgr.run(&mut r, Time::from_us(200), Time::from_us(50));
        let responses = r.chassis.recv(0).len();
        assert!(responses <= 6, "burst-limited: got {responses}");
        assert!(
            mgr.counters().icmp_suppressed.get() >= 40,
            "{:?}",
            mgr.counters()
        );
        assert_eq!(
            mgr.counters().icmp_ttl.get() + mgr.counters().icmp_suppressed.get(),
            50,
            "every exception accounted"
        );
    }

    #[test]
    fn static_route_via_gateway() {
        let (mut r, mut mgr) = setup();
        mgr.add_static_route("0.0.0.0/0".parse().unwrap(), ip("10.0.1.254"), 1);
        mgr.configure(&mut r);
        r.tables
            .borrow_mut()
            .arp
            .insert(ip("10.0.1.254"), mac(0xfe));
        let pkt = PacketBuilder::new()
            .eth(mac(0xa1), mac(0xe0))
            .ipv4(ip("10.0.0.2"), ip("8.8.8.8"))
            .udp(1, 53, b"dns")
            .build();
        r.chassis.send(0, pkt);
        mgr.run(&mut r, Time::from_us(60), Time::from_us(10));
        let out = r.chassis.recv(1);
        assert_eq!(out.len(), 1);
        assert_eq!(
            ParsedHeaders::parse(&out[0]).eth_dst,
            mac(0xfe),
            "to gateway"
        );
    }
}
