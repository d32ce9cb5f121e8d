//! `router_lpm_252`: the reference IPv4 router under a seeded route table.

use super::{chassis_raw, Edge, Kernel, Raw, Workload};
use crate::gen::{
    refresh_ipv4_checksum, udp_frame, Account, Rng, Timing, HOST_PORT, IP_OFF, TAG_OFF,
};
use crate::trace::Tracer;
use netfpga_core::board::BoardSpec;
use netfpga_core::pktbuf::PktBuf;
use netfpga_core::time::Time;
use netfpga_datapath::lpm::RouteEntry;
use netfpga_packet::{EthernetAddress, Ipv4Address, Ipv4Cidr};
use netfpga_projects::reference_router::exception;
use netfpga_projects::ReferenceRouter;

/// Frozen slice size: 256 frames per port, 4 of them (1 in 64) with TTL 1.
pub const FRAMES: usize = 1024;

const NPORTS: usize = 4;
const ROUTES: usize = 4096;
const GATEWAYS: usize = 256;
const FRAME_LEN: usize = 252;
/// Every 64th frame on a port arrives with TTL 1 and goes up the
/// exception path.
const PUNT_EVERY: u32 = 64;

/// One installed route, as the benchmark's own reference table keeps it.
struct Route {
    network: u32,
    len: u8,
    gateway: usize,
}

/// A destination with its independently computed forwarding decision.
#[derive(Clone, Copy)]
struct Destination {
    ip: u32,
    gateway: usize,
}

pub struct Router {
    router: ReferenceRouter,
    rng: Rng,
    edge: Edge,
    /// Destinations by the egress port the reference table sends them to.
    pool: Vec<Vec<Destination>>,
    templates: Vec<Vec<u8>>,
    frames: usize,
    scratch: Vec<u8>,
    expected: Vec<u8>,
    pending: Vec<(usize, PktBuf)>,
    /// Frames the CPU port handed up in the last slice: bytes, exception
    /// flags, ingress port, device time of the poll.
    punted: Vec<(Vec<u8>, u16, u8, Time)>,
    punts_offered: u64,
}

fn gateway_ip(g: usize) -> u32 {
    0xc0a8_0000 | ((g % NPORTS) as u32) << 8 | ((g / NPORTS) as u32 + 1)
}

fn gateway_mac(g: usize) -> [u8; 6] {
    [0x02, 0x00, 0x6a, (g % NPORTS) as u8, 0, (g / NPORTS) as u8]
}

fn port_mac(port: usize) -> [u8; 6] {
    [0x02, 0x00, 0x7e, 0, 0, port as u8]
}

fn prefix_mask(len: u8) -> u32 {
    if len == 0 {
        0
    } else {
        u32::MAX << (32 - u32::from(len))
    }
}

/// Longest-prefix match by exhaustive scan — slow and obviously right.
/// Among identical prefixes the last installed wins, as a table insert
/// replaces.
fn reference_lookup(routes: &[Route], ip: u32) -> Option<usize> {
    let mut best: Option<&Route> = None;
    for r in routes {
        if ip & prefix_mask(r.len) == r.network && best.is_none_or(|b| r.len >= b.len) {
            best = Some(r);
        }
    }
    best.map(|r| r.gateway)
}

impl Router {
    pub fn new(seed: u64, kernel: Kernel, frames: usize) -> Router {
        let mut router = ReferenceRouter::new(&BoardSpec::sume(), NPORTS);
        kernel.apply(&mut router.chassis);
        let mut rng = Rng::new(seed ^ 0x524f_5554_4552);

        // Seeded routes, /8 to /32, each through one of 256 gateways;
        // gateway g sits behind port g mod 4.
        let routes: Vec<Route> = (0..ROUTES)
            .map(|_| {
                let len = 8 + rng.below(25) as u8;
                // Keep clear of 192.168/16, where the gateways live.
                let network = loop {
                    let n = rng.next_u64() as u32 & prefix_mask(len);
                    if n >> 16 != 0xc0a8 && n >> 24 != 0 {
                        break n;
                    }
                };
                Route {
                    network,
                    len,
                    gateway: rng.below(GATEWAYS as u64) as usize,
                }
            })
            .collect();
        {
            let mut tables = router.tables.borrow_mut();
            tables.port_macs = (0..NPORTS)
                .map(|p| EthernetAddress::from_bytes(&port_mac(p)))
                .collect();
            for g in 0..GATEWAYS {
                tables.arp.insert(
                    Ipv4Address::from_u32(gateway_ip(g)),
                    EthernetAddress::from_bytes(&gateway_mac(g)),
                );
            }
            for r in &routes {
                tables.lpm.insert(
                    Ipv4Cidr::new(Ipv4Address::from_u32(r.network), r.len),
                    RouteEntry {
                        next_hop: Ipv4Address::from_u32(gateway_ip(r.gateway)),
                        port: (r.gateway % NPORTS) as u8,
                    },
                );
            }
        }

        // One destination inside every route, decided by the reference
        // scan (a longer route may shadow the one it was drawn from).
        let mut pool = vec![Vec::new(); NPORTS];
        for r in &routes {
            let ip = r.network | (rng.next_u64() as u32 & !prefix_mask(r.len));
            let gateway = reference_lookup(&routes, ip).expect("drawn inside a route");
            pool[gateway % NPORTS].push(Destination { ip, gateway });
        }
        assert!(
            pool.iter().all(|p| !p.is_empty()),
            "every port is routed to"
        );

        let templates = (0..NPORTS)
            .map(|p| {
                udp_frame(
                    FRAME_LEN,
                    [0x02, 0x00, 0x5e, p as u8, 0, 1],
                    port_mac(p),
                    0xac10_0001 | (p as u32) << 8,
                    0,
                    64,
                )
            })
            .collect();
        let edge = Edge::new(&router.chassis, false);
        Router {
            router,
            rng,
            edge,
            pool,
            templates,
            frames,
            scratch: Vec::new(),
            expected: Vec::new(),
            pending: Vec::new(),
            punted: Vec::new(),
            punts_offered: 0,
        }
    }

    fn generate(&mut self, port: usize, now: Time) {
        let seq = self.edge.ledger.next_seq(port);
        // Towards a route behind the mesh partner port: every egress port
        // has one source and runs at line rate without contention.
        let candidates = &self.pool[port ^ 1];
        let dst = candidates[self.rng.below(candidates.len() as u64) as usize];
        let punt = seq % PUNT_EVERY == PUNT_EVERY - 1;

        self.scratch.clear();
        self.scratch.extend_from_slice(&self.templates[port]);
        self.scratch[IP_OFF + 16..IP_OFF + 20].copy_from_slice(&dst.ip.to_be_bytes());
        self.scratch[IP_OFF + 8] = if punt { 1 } else { 64 };
        refresh_ipv4_checksum(&mut self.scratch);
        self.scratch[TAG_OFF] = port as u8;
        self.scratch[TAG_OFF + 1..TAG_OFF + 5].copy_from_slice(&seq.to_le_bytes());

        // What must come out: untouched on the CPU port for an expired
        // TTL; otherwise re-addressed, TTL − 1, checksum recomputed from
        // scratch (the device updates it incrementally).
        self.expected.clear();
        self.expected.extend_from_slice(&self.scratch);
        let expect = if punt {
            self.punts_offered += 1;
            1u16 << HOST_PORT
        } else {
            self.expected[0..6].copy_from_slice(&gateway_mac(dst.gateway));
            self.expected[6..12].copy_from_slice(&port_mac(dst.gateway % NPORTS));
            self.expected[IP_OFF + 8] = 63;
            refresh_ipv4_checksum(&mut self.expected);
            1u16 << (dst.gateway % NPORTS)
        };
        let done = self.edge.mirror.offer(port, FRAME_LEN, now);
        self.edge.ledger.offer(port, &self.expected, done, expect);
        // Each frame owns its buffer, so the router's in-place rewrite
        // never has to copy.
        self.pending.push((port, PktBuf::copy_from(&self.scratch)));
    }
}

impl Workload for Router {
    fn slice(&mut self, tr: &mut Tracer) {
        self.edge.ledger.begin_slice();
        let now = self.router.chassis.sim.now();
        for i in 0..self.frames {
            self.generate(i % NPORTS, now);
        }
        tr.lap("bench.gen");
        for (port, frame) in self.pending.drain(..) {
            self.router.chassis.send(port, frame);
        }
        tr.lap("projects.harness.send");
        let on_wire = (0..NPORTS)
            .map(|p| self.edge.mirror.busy_until(p))
            .max()
            .expect("four ports")
            .saturating_sub(now);
        let punted = &mut self.punted;
        self.edge.drain(
            &mut self.router.chassis,
            tr,
            on_wire + Time::from_us(2),
            Time::from_us(5),
            Some(self.frames),
            |chassis| {
                let dma = chassis.dma.as_ref().expect("router has a DMA engine");
                let before = punted.len();
                while let Some((frame, meta)) = dma.recv() {
                    punted.push((frame.to_vec(), meta.flags, meta.src_port, chassis.sim.now()));
                }
                punted.len() - before
            },
        );
    }

    fn verify(&mut self, acc: &mut Account) {
        self.edge.verify_wire(acc, Timing::Wire);
        for (bytes, flags, src_port, at) in self.punted.drain(..) {
            if flags != exception::TTL_EXPIRED || src_port != bytes[TAG_OFF] {
                acc.fail_check(format!(
                    "punted frame carries reason {flags} from port {src_port}, expected TTL expiry"
                ));
            }
            acc.deliver(
                &mut self.edge.ledger,
                HOST_PORT,
                &bytes,
                at,
                Timing::Untimed,
            );
        }
        acc.end_slice(&self.edge.ledger, 0);
    }

    fn counters(&mut self) -> Raw {
        let mut raw = chassis_raw(&self.router.chassis);
        raw.insert("bench.punts_offered", self.punts_offered);
        raw
    }

    fn bps(&self) -> u64 {
        self.edge.bps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_lookup_prefers_the_longest_then_the_latest() {
        let routes = [
            Route {
                network: 0x0a00_0000,
                len: 8,
                gateway: 1,
            },
            Route {
                network: 0x0a01_0000,
                len: 16,
                gateway: 2,
            },
            Route {
                network: 0x0a01_0000,
                len: 16,
                gateway: 3,
            },
        ];
        assert_eq!(reference_lookup(&routes, 0x0a09_0909), Some(1));
        assert_eq!(reference_lookup(&routes, 0x0a01_0203), Some(3));
        assert_eq!(reference_lookup(&routes, 0x0b00_0001), None);
    }
}
