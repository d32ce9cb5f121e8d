//! The reference IPv4 router project.
//!
//! Pipeline: the [`ReferencePipeline`] with a CPU port (DMA into the
//! arbiter, out of the queues) and the router lookup. The lookup stage
//! does what the RTL core does: validate the IPv4 header, look up the
//! destination in the LPM table, resolve the next hop MAC in the ARP
//! table, rewrite addresses, decrement TTL with an incremental checksum
//! update — and push anything it cannot handle (ARP, packets for the
//! router, TTL expiry, table misses) up the **exception path** to the CPU,
//! where the management software (in `netfpga-host`) deals with it. That
//! hardware/software split is the signature of the design.

use crate::harness::{Chassis, ChassisConfig, ReferencePipeline};
use netfpga_core::board::BoardSpec;
use netfpga_core::hash::Fnv1a64;
use netfpga_core::pktbuf::PktBuf;
use netfpga_core::regs::{shared, RegisterSpace};
use netfpga_core::resources::ResourceCost;
use netfpga_core::stats::Counter;
use netfpga_core::stream::{Meta, PortMask};
use netfpga_core::telemetry::StatRegistry;
use netfpga_core::time::Time;
use netfpga_datapath::blocks;
use netfpga_datapath::lpm::{LpmTable, RouteEntry};
use netfpga_datapath::queues::QueueConfig;
use netfpga_datapath::sched::{Fifo, Scheduler};
use netfpga_datapath::stage::{PacketLogic, StageAction};
use netfpga_datapath::ParsedHeaders;
use netfpga_packet::ethernet::EthernetFrame;
use netfpga_packet::ipv4::Ipv4Packet;
use netfpga_packet::{EthernetAddress, Ipv4Address, Ipv4Cidr};
use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::rc::Rc;

/// Exception reasons carried in `meta.flags` on packets sent to the CPU.
pub mod exception {
    /// Not an IPv4 packet (ARP, unknown EtherType).
    pub const NON_IP: u16 = 1;
    /// Destined to one of the router's own addresses.
    pub const LOCAL: u16 = 2;
    /// TTL was 0 or 1 (software generates ICMP time-exceeded).
    pub const TTL_EXPIRED: u16 = 3;
    /// No LPM route (software generates ICMP net-unreachable).
    pub const NO_ROUTE: u16 = 4;
    /// Next hop has no ARP entry (software performs resolution).
    pub const ARP_MISS: u16 = 5;
}

/// Register base of the router control block.
pub const ROUTER_BASE: u32 = 0x2000;

/// Pipeline latency of the lookup stage (parse + TCAM/CAM access + rewrite).
const LOOKUP_LATENCY: u64 = 16;

/// The router's shared tables, visible to the datapath, the register block
/// and host software helpers.
#[derive(Debug, Default)]
pub struct RouterTables {
    /// The LPM route table.
    pub lpm: LpmTable,
    /// ARP cache: next-hop IP to MAC. Hashed with the workspace's own
    /// FNV-1a, not `RandomState`: seeded runs stay bit-identical.
    pub arp: HashMap<Ipv4Address, EthernetAddress, BuildHasherDefault<Fnv1a64>>,
    /// Addresses owned by the router (one per interface, typically).
    pub local_ips: Vec<Ipv4Address>,
    /// Per-port source MAC addresses.
    pub port_macs: Vec<EthernetAddress>,
}

/// Datapath counters of the lookup stage: shared cells the lookup
/// increments and the telemetry plane reads.
#[derive(Debug, Clone, Default)]
pub struct RouterCounters {
    /// Packets forwarded in hardware.
    pub forwarded: Counter,
    /// Packets punted to the CPU, by any reason.
    pub to_cpu: Counter,
    /// Packets dropped (bad checksum / malformed).
    pub dropped: Counter,
}

impl RouterCounters {
    /// Register every counter on `registry` under `prefix` (e.g.
    /// `router`): `forwarded`, `to_cpu`, `dropped`.
    pub fn register_stats(&self, registry: &StatRegistry, prefix: &str) {
        registry.register_counter(&format!("{prefix}.forwarded"), &self.forwarded);
        registry.register_counter(&format!("{prefix}.to_cpu"), &self.to_cpu);
        registry.register_counter(&format!("{prefix}.dropped"), &self.dropped);
    }
}

struct RouterLookup {
    tables: Rc<RefCell<RouterTables>>,
    counters: RouterCounters,
    cpu_port: u8,
}

impl RouterLookup {
    fn punt(&self, meta: &mut Meta, reason: u16) -> StageAction {
        meta.dst_ports = PortMask::single(self.cpu_port);
        meta.flags = reason;
        self.counters.to_cpu.incr();
        StageAction::Forward
    }
}

impl PacketLogic for RouterLookup {
    fn process(&mut self, packet: &mut PktBuf, meta: &mut Meta, _now: Time) -> StageAction {
        // Packets injected by the CPU carry their destination already and
        // bypass routing (the management software routed them itself).
        if meta.src_port == self.cpu_port {
            if meta.dst_ports.is_empty() {
                self.counters.dropped.incr();
                return StageAction::Drop;
            }
            self.counters.forwarded.incr();
            return StageAction::Forward;
        }

        let headers = ParsedHeaders::parse(packet);
        let Some(ip) = headers.ipv4 else {
            return self.punt(meta, exception::NON_IP);
        };
        if !ip.checksum_ok {
            self.counters.dropped.incr();
            return StageAction::Drop;
        }
        let tables = self.tables.borrow();
        if tables.local_ips.contains(&ip.dst) {
            drop(tables);
            return self.punt(meta, exception::LOCAL);
        }
        if ip.ttl <= 1 {
            drop(tables);
            return self.punt(meta, exception::TTL_EXPIRED);
        }
        let Some((next_hop, out_port)) = tables.lpm.next_hop(ip.dst) else {
            drop(tables);
            return self.punt(meta, exception::NO_ROUTE);
        };
        let Some(&next_mac) = tables.arp.get(&next_hop) else {
            drop(tables);
            return self.punt(meta, exception::ARP_MISS);
        };
        let src_mac = tables
            .port_macs
            .get(usize::from(out_port))
            .copied()
            .unwrap_or_default();
        drop(tables);

        // Rewrite: MAC addresses, TTL, checksum (incremental, like RTL).
        // `make_mut` triggers copy-on-write only if the buffer is shared
        // (e.g. a mirror holds a reference); the common case edits in place.
        {
            let data = packet.make_mut();
            let mut eth = EthernetFrame::new_unchecked(&mut data[..]);
            eth.set_dst_addr(next_mac);
            eth.set_src_addr(src_mac);
            let off = eth.header_len();
            let mut ipv4 = Ipv4Packet::new_unchecked(&mut data[off..]);
            ipv4.decrement_ttl();
        }
        meta.dst_ports = PortMask::single(out_port);
        meta.flags = 0;
        self.counters.forwarded.incr();
        StageAction::Forward
    }
}

/// Command codes of the router register block.
mod cmd {
    pub const ADD_ROUTE: u32 = 1;
    pub const DEL_ROUTE: u32 = 2;
    pub const ADD_ARP: u32 = 3;
    pub const DEL_ARP: u32 = 4;
    pub const ADD_LOCAL_IP: u32 = 5;
    pub const SET_PORT_MAC: u32 = 6;
    pub const CLEAR_TABLES: u32 = 7;
}

/// The router's register block: a staging-register + command protocol for
/// table management (word offsets):
///
/// | word | register |
/// |------|----------|
/// | 0 | command (write executes) |
/// | 1 | staged IPv4 address |
/// | 2 | staged prefix length |
/// | 3 | staged next hop |
/// | 4 | staged port |
/// | 5 | staged MAC high 16 bits |
/// | 6 | staged MAC low 32 bits |
/// | 16..18 | counters: forwarded, to_cpu, dropped (RO) |
/// | 19..20 | table sizes: routes, ARP entries (RO) |
///
/// A command whose staged port the board does not have is ignored, like a
/// write to an unmapped word.
pub struct RouterRegisters {
    tables: Rc<RefCell<RouterTables>>,
    counters: RouterCounters,
    stage: [u32; 8],
    cpu_port: u8,
}

impl RouterRegisters {
    fn staged_ip(&self) -> Ipv4Address {
        Ipv4Address::from_u32(self.stage[1])
    }

    fn staged_mac(&self) -> EthernetAddress {
        EthernetAddress::from_u64((u64::from(self.stage[5]) << 32) | u64::from(self.stage[6]))
    }

    fn execute(&mut self, command: u32) {
        let mut t = self.tables.borrow_mut();
        let port = self.stage[4];
        match command {
            // A route may leave by any Ethernet port or the CPU port.
            cmd::ADD_ROUTE if port <= u32::from(self.cpu_port) => {
                let prefix = Ipv4Cidr::new(self.staged_ip(), (self.stage[2] & 63).min(32) as u8);
                t.lpm.insert(
                    prefix,
                    RouteEntry {
                        next_hop: Ipv4Address::from_u32(self.stage[3]),
                        port: port as u8,
                    },
                );
            }
            cmd::DEL_ROUTE => {
                let prefix = Ipv4Cidr::new(self.staged_ip(), (self.stage[2] & 63).min(32) as u8);
                t.lpm.remove(prefix);
            }
            cmd::ADD_ARP => {
                let ip = self.staged_ip();
                let mac = self.staged_mac();
                t.arp.insert(ip, mac);
            }
            cmd::DEL_ARP => {
                let ip = self.staged_ip();
                t.arp.remove(&ip);
            }
            cmd::ADD_LOCAL_IP => {
                let ip = self.staged_ip();
                if !t.local_ips.contains(&ip) {
                    t.local_ips.push(ip);
                }
            }
            // Only the Ethernet ports have a MAC.
            cmd::SET_PORT_MAC if port < u32::from(self.cpu_port) => {
                let port = port as usize;
                let mac = self.staged_mac();
                if t.port_macs.len() <= port {
                    t.port_macs.resize(port + 1, EthernetAddress::default());
                }
                t.port_macs[port] = mac;
            }
            cmd::CLEAR_TABLES => {
                t.lpm.clear();
                t.arp.clear();
                t.local_ips.clear();
            }
            _ => {}
        }
    }
}

impl RegisterSpace for RouterRegisters {
    fn read(&mut self, offset: u32) -> u32 {
        let word = offset / 4;
        match word {
            0..=7 => self.stage[word as usize],
            16 => self.counters.forwarded.get() as u32,
            17 => self.counters.to_cpu.get() as u32,
            18 => self.counters.dropped.get() as u32,
            19 => self.tables.borrow().lpm.len() as u32,
            20 => self.tables.borrow().arp.len() as u32,
            _ => netfpga_core::regs::UNMAPPED_READ,
        }
    }

    fn write(&mut self, offset: u32, value: u32) {
        let word = offset / 4;
        match word {
            0 => self.execute(value),
            1..=7 => self.stage[word as usize] = value,
            _ => {}
        }
    }
}

/// The assembled reference router.
pub struct ReferenceRouter {
    /// The board with this project loaded.
    pub chassis: Chassis,
    /// Shared tables (host helpers and tests edit them via registers, but
    /// direct inspection is handy in tests).
    pub tables: Rc<RefCell<RouterTables>>,
    /// Lookup counters.
    pub counters: RouterCounters,
    /// The CPU exception port index (= number of Ethernet ports).
    pub cpu_port: u8,
}

impl ReferenceRouter {
    /// Build the router on `spec` with `nports` ports and the default FIFO
    /// output scheduler.
    pub fn new(spec: &BoardSpec, nports: usize) -> ReferenceRouter {
        let config = ChassisConfig::new(spec, nports);
        ReferenceRouter::build(&config, QueueConfig::default(), || Box::new(Fifo))
    }

    /// Build on the chassis `config` describes, with the given output-queue
    /// configuration and per-port scheduler — the §3 "add a new scheduling
    /// module to the existing reference router" extension point, used by
    /// the E4 ablation. A fault plan's stall/drop windows gate the DMA
    /// engine.
    pub fn build(
        config: &ChassisConfig,
        queues: QueueConfig,
        scheduler: impl FnMut() -> Box<dyn Scheduler> + 'static,
    ) -> ReferenceRouter {
        let cpu_port = config.nports as u8;
        let tables = Rc::new(RefCell::new(RouterTables::default()));
        let counters = RouterCounters::default();
        let lookup = RouterLookup {
            tables: tables.clone(),
            counters: counters.clone(),
            cpu_port,
        };
        let mut chassis = ReferencePipeline {
            cpu_port: true,
            queues,
            scheduler: Box::new(scheduler),
            ..ReferencePipeline::new("router_lookup", LOOKUP_LATENCY, lookup)
        }
        .build(config)
        .chassis;
        counters.register_stats(&chassis.telemetry, "router");
        chassis.map.mount(
            "router",
            ROUTER_BASE,
            0x100,
            shared(RouterRegisters {
                tables: tables.clone(),
                counters: counters.clone(),
                stage: [0; 8],
                cpu_port,
            }),
        );
        chassis.attach_mmio();

        ReferenceRouter {
            chassis,
            tables,
            counters,
            cpu_port,
        }
    }

    /// Approximate FPGA cost (experiment E7).
    pub fn resource_cost(nports: u64) -> ResourceCost {
        blocks::MAC_10G.times(nports)
            + blocks::PCIE_DMA
            + blocks::REG_INTERCONNECT
            + blocks::INPUT_ARBITER
            + blocks::ROUTER_LOOKUP
            + blocks::OUTPUT_QUEUES_PER_PORT.times(nports + 1)
    }

    /// Blocks this project instantiates (E7 reuse matrix row).
    pub fn block_names() -> &'static [&'static str] {
        &[
            "mac_10g",
            "pcie_dma",
            "reg_interconnect",
            "input_arbiter",
            "router_lookup",
            "output_queues",
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netfpga_packet::PacketBuilder;

    fn mac(x: u8) -> EthernetAddress {
        EthernetAddress::new(2, 0, 0, 0, 0, x)
    }

    fn ip(s: &str) -> Ipv4Address {
        s.parse().unwrap()
    }

    /// A two-interface router: 10.0.0.0/24 on port 0, 10.0.1.0/24 on
    /// port 1, with ARP entries for one host on each side.
    fn router() -> ReferenceRouter {
        let r = ReferenceRouter::new(&BoardSpec::sume(), 4);
        {
            let mut t = r.tables.borrow_mut();
            t.port_macs = (0..4).map(|i| mac(0xe0 + i)).collect();
            t.local_ips = vec![ip("10.0.0.1"), ip("10.0.1.1")];
            t.lpm.insert(
                "10.0.0.0/24".parse().unwrap(),
                RouteEntry {
                    next_hop: Ipv4Address::UNSPECIFIED,
                    port: 0,
                },
            );
            t.lpm.insert(
                "10.0.1.0/24".parse().unwrap(),
                RouteEntry {
                    next_hop: Ipv4Address::UNSPECIFIED,
                    port: 1,
                },
            );
            t.arp.insert(ip("10.0.0.2"), mac(0xa2));
            t.arp.insert(ip("10.0.1.2"), mac(0xb2));
        }
        r
    }

    fn ip_frame(src_ip: &str, dst_ip: &str, ttl: u8) -> Vec<u8> {
        PacketBuilder::new()
            .eth(mac(0xa2), mac(0xe0)) // host A -> router port 0 MAC
            .ipv4(ip(src_ip), ip(dst_ip))
            .ttl(ttl)
            .udp(1000, 2000, b"payload")
            .build()
    }

    #[test]
    fn forwards_between_subnets_with_rewrite() {
        let mut r = router();
        r.chassis.send(0, ip_frame("10.0.0.2", "10.0.1.2", 64));
        r.chassis.run_for(Time::from_us(10));
        let out = r.chassis.recv(1);
        assert_eq!(out.len(), 1, "forwarded out port 1");
        let h = ParsedHeaders::parse(&out[0]);
        assert_eq!(h.eth_src, mac(0xe1), "source MAC = egress port MAC");
        assert_eq!(h.eth_dst, mac(0xb2), "dest MAC = next hop");
        let ipv4 = h.ipv4.unwrap();
        assert_eq!(ipv4.ttl, 63, "TTL decremented");
        assert!(ipv4.checksum_ok, "incremental checksum update is valid");
        assert_eq!(r.counters.forwarded.get(), 1);
    }

    #[test]
    fn ttl_expiry_goes_to_cpu() {
        let mut r = router();
        r.chassis.send(0, ip_frame("10.0.0.2", "10.0.1.2", 1));
        r.chassis.run_for(Time::from_us(10));
        assert!(r.chassis.recv(1).is_empty(), "not forwarded");
        let dma = r.chassis.dma.clone().unwrap();
        let (pkt, meta) = dma.recv().expect("exception delivered");
        assert_eq!(meta.flags, exception::TTL_EXPIRED);
        assert_eq!(meta.src_port, 0, "ingress preserved for ICMP source");
        let h = ParsedHeaders::parse(&pkt);
        assert_eq!(h.ipv4.unwrap().ttl, 1, "packet not modified");
    }

    #[test]
    fn no_route_and_arp_miss_punt() {
        let mut r = router();
        r.chassis.send(0, ip_frame("10.0.0.2", "99.9.9.9", 64));
        r.chassis.run_for(Time::from_us(10));
        let dma = r.chassis.dma.clone().unwrap();
        let (_, meta) = dma.recv().expect("no-route exception");
        assert_eq!(meta.flags, exception::NO_ROUTE);

        r.chassis.send(0, ip_frame("10.0.0.2", "10.0.1.99", 64));
        r.chassis.run_for(Time::from_us(10));
        let (_, meta) = dma.recv().expect("arp-miss exception");
        assert_eq!(meta.flags, exception::ARP_MISS);
    }

    #[test]
    fn local_and_arp_packets_to_cpu() {
        let mut r = router();
        r.chassis.send(0, ip_frame("10.0.0.2", "10.0.0.1", 64));
        r.chassis.run_for(Time::from_us(10));
        let dma = r.chassis.dma.clone().unwrap();
        let (_, meta) = dma.recv().expect("local exception");
        assert_eq!(meta.flags, exception::LOCAL);

        let arp = PacketBuilder::arp_request(mac(0xa2), ip("10.0.0.2"), ip("10.0.0.1"));
        r.chassis.send(0, arp);
        r.chassis.run_for(Time::from_us(10));
        let (_, meta) = dma.recv().expect("ARP punted");
        assert_eq!(meta.flags, exception::NON_IP);
    }

    #[test]
    fn bad_checksum_dropped_silently() {
        let mut r = router();
        let mut frame = ip_frame("10.0.0.2", "10.0.1.2", 64);
        frame[24] ^= 0xff; // corrupt the IPv4 header checksum field
        r.chassis.send(0, frame);
        r.chassis.run_for(Time::from_us(10));
        assert!(r.chassis.recv(1).is_empty());
        let dma = r.chassis.dma.clone().unwrap();
        assert!(dma.recv().is_none());
        assert_eq!(r.counters.dropped.get(), 1);
    }

    #[test]
    fn cpu_injected_packets_bypass_routing() {
        let mut r = router();
        let dma = r.chassis.dma.clone().unwrap();
        let frame = PacketBuilder::arp_request(mac(0xe0), ip("10.0.0.1"), ip("10.0.0.9"));
        let meta = Meta {
            src_port: r.cpu_port,
            dst_ports: PortMask::single(0),
            ..Default::default()
        };
        assert!(dma.send_with_meta(frame.clone(), meta).is_ok());
        r.chassis.run_for(Time::from_us(10));
        assert_eq!(r.chassis.recv(0), vec![frame]);
    }

    #[test]
    fn table_management_via_registers() {
        let mut r = ReferenceRouter::new(&BoardSpec::sume(), 4);
        let base = ROUTER_BASE;
        // ADD_ROUTE 10.0.1.0/24 -> port 1, direct.
        r.chassis
            .write32(base + 4, u32::from_be_bytes([10, 0, 1, 0]));
        r.chassis.write32(base + 8, 24);
        r.chassis.write32(base + 12, 0);
        r.chassis.write32(base + 16, 1);
        r.chassis.write32(base, 1);
        assert_eq!(r.chassis.read32(base + 19 * 4), 1, "route count");
        // ADD_ARP 10.0.1.2 -> 02:..:b2
        r.chassis
            .write32(base + 4, u32::from_be_bytes([10, 0, 1, 2]));
        let m = mac(0xb2).to_u64();
        r.chassis.write32(base + 20, (m >> 32) as u32);
        r.chassis.write32(base + 24, m as u32);
        r.chassis.write32(base, 3);
        assert_eq!(r.chassis.read32(base + 20 * 4), 1, "arp count");
        assert_eq!(r.tables.borrow().arp.get(&ip("10.0.1.2")), Some(&mac(0xb2)));
        // SET_PORT_MAC port 1.
        r.chassis.write32(base + 16, 1);
        let pm = mac(0xe1).to_u64();
        r.chassis.write32(base + 20, (pm >> 32) as u32);
        r.chassis.write32(base + 24, pm as u32);
        r.chassis.write32(base, 6);
        assert_eq!(r.tables.borrow().port_macs[1], mac(0xe1));
        // Now hardware forwarding works end-to-end.
        r.chassis.send(0, ip_frame("10.0.0.2", "10.0.1.2", 64));
        r.chassis.run_for(Time::from_us(10));
        assert_eq!(r.chassis.recv(1).len(), 1);
        // CLEAR_TABLES removes everything.
        r.chassis.write32(base, 7);
        assert_eq!(r.chassis.read32(base + 19 * 4), 0);
        assert_eq!(r.chassis.read32(base + 20 * 4), 0);
    }

    /// Stage `words` and execute `command` over MMIO.
    fn command(r: &mut ReferenceRouter, command: u32, words: &[(u32, u32)]) {
        for &(word, value) in words {
            r.chassis.write32(ROUTER_BASE + word * 4, value);
        }
        r.chassis.write32(ROUTER_BASE, command);
    }

    /// A route towards a port the board does not have used to be stored and
    /// the first frame matching it aborted in `PortMask::single`.
    #[test]
    fn add_route_to_a_missing_port_is_refused() {
        let mut r = router();
        let net = u32::from_be_bytes([10, 7, 0, 0]);
        for port in [200, 5, 0x104] {
            command(
                &mut r,
                cmd::ADD_ROUTE,
                &[(1, net), (2, 16), (3, 0), (4, port)],
            );
        }
        assert_eq!(r.tables.borrow().lpm.len(), 2, "refused, tables as before");
        command(&mut r, cmd::ADD_ARP, &[(1, net | 9), (5, 0x0200), (6, 9)]);
        r.chassis.send(0, ip_frame("10.0.0.2", "10.7.0.9", 64));
        r.chassis.run_for(Time::from_us(10));
        let dma = r.chassis.dma.clone().unwrap();
        assert_eq!(dma.recv().expect("punted").1.flags, exception::NO_ROUTE);
        // The CPU port (4 on this board) is an egress like any other.
        command(&mut r, cmd::ADD_ROUTE, &[(4, 4)]);
        r.chassis.send(0, ip_frame("10.0.0.2", "10.7.0.9", 64));
        r.chassis.run_for(Time::from_us(10));
        assert_eq!(dma.recv().expect("routed to the CPU").1.flags, 0);
        assert_eq!(r.counters.forwarded.get(), 1);
    }

    /// `SET_PORT_MAC` used to grow `port_macs` to whatever index was staged:
    /// 4 Gi entries for `0xFFFF_FFFF`.
    #[test]
    fn set_port_mac_beyond_the_ports_is_refused() {
        let mut r = router();
        for port in [u32::from(r.cpu_port), 0xFFFF_FFFF] {
            command(&mut r, cmd::SET_PORT_MAC, &[(4, port), (5, 0x0200), (6, 1)]);
            assert_eq!(r.tables.borrow().port_macs.len(), 4, "port {port:#x}");
        }
        command(&mut r, cmd::SET_PORT_MAC, &[(4, 3), (5, 0x0200), (6, 1)]);
        assert_eq!(r.tables.borrow().port_macs[3], mac(1));
    }

    #[test]
    fn counters_via_registers() {
        let mut r = router();
        r.chassis.send(0, ip_frame("10.0.0.2", "10.0.1.2", 64));
        r.chassis.send(0, ip_frame("10.0.0.2", "10.0.0.1", 64));
        r.chassis.run_for(Time::from_us(20));
        assert_eq!(r.chassis.read32(ROUTER_BASE + 16 * 4), 1, "forwarded");
        assert_eq!(r.chassis.read32(ROUTER_BASE + 17 * 4), 1, "to_cpu");
    }

    #[test]
    fn resource_cost_largest_of_reference_designs() {
        let router = ReferenceRouter::resource_cost(4);
        assert!(router.fits(&BoardSpec::sume().resources));
        assert!(router.luts > crate::reference_switch::ReferenceSwitch::resource_cost(4).luts);
    }
}
