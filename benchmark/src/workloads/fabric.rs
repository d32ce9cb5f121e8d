//! `fabric_leafspine`: eight reference switches as a leaf–spine fabric,
//! sharded over threads by the conservative-lookahead runner.
//!
//! A slice is one whole fabric run: build the eight chassis, offer every
//! host's frames at line rate from time zero, run to the horizon, harvest.
//! The nodes come from `LeafSpine::build_node(node, 0)` — pre-taught, no
//! traffic — and the benchmark offers its own seeded frames, so it knows
//! every ingress instant and can hold deliveries against a ledger like any
//! other workload.

use super::{chassis_raw, Raw, Workload};
use crate::gen::{udp_frame, Account, IngressMirror, Ledger, Rng, Timing, TAG_OFF};
use crate::trace::Tracer;
use netfpga_core::pktbuf::PktBuf;
use netfpga_core::time::Time;
use netfpga_fabric::{run_fabric, FabricConfig, FabricReport};
use netfpga_projects::fabric::{host_mac, LeafSpine};
use netfpga_projects::ReferenceSwitch;

/// Frozen slice size: frames each of the twelve hosts offers per run.
pub const FRAMES_PER_HOST: usize = 400;

/// Frame sizes drawn by seed, equally likely.
const SIZES: [usize; 3] = [60, 124, 252];
/// Time the last frame is given to cross three switches and two 2 µs
/// links after it has left its host.
const TAIL: Time = Time::from_us(30);

/// Shards for this host: the fabric never runs more threads than cores,
/// and never more than the two the reference host has.
pub fn shards_for_host() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// One leaf's harvest: what came out of its host ports, and its counters.
struct Harvest {
    deliveries: Vec<(usize, Time, Vec<u8>)>,
    raw: Raw,
}

pub struct Fabric {
    ls: LeafSpine,
    nshards: usize,
    epoch: Time,
    frames_per_host: usize,
    rng: Rng,
    ledger: Ledger,
    /// Per host: the slice's frames in offer order.
    frames: Vec<Vec<Vec<u8>>>,
    /// The last slice's run, kept for `verify`.
    last: Option<FabricReport<Harvest>>,
    totals: Raw,
    bps: u64,
}

impl Fabric {
    pub fn new(seed: u64, nshards: usize, frames_per_host: usize) -> Fabric {
        let ls = LeafSpine::bench();
        let probe = ls.build_node(0, 0);
        let bps = probe.chassis.port_rate(0).as_bps();
        Fabric {
            ls,
            nshards,
            epoch: ls.default_epoch(),
            frames_per_host,
            rng: Rng::new(seed ^ 0x4641_4252_4943),
            ledger: Ledger::new(ls.nhosts()),
            frames: vec![Vec::new(); ls.nhosts()],
            last: None,
            totals: Raw::new(),
            bps,
        }
    }
}

impl Workload for Fabric {
    fn slice(&mut self, tr: &mut Tracer) {
        let ls = self.ls;
        self.ledger.begin_slice();
        // Every run starts its chassis at time zero.
        let mut mirror = IngressMirror::new(ls.nhosts(), self.bps);
        for host in 0..ls.nhosts() {
            let peer = ls.peer(host);
            let frames = &mut self.frames[host];
            frames.clear();
            for _ in 0..self.frames_per_host {
                let len = SIZES[self.rng.below(SIZES.len() as u64) as usize];
                let mut f = udp_frame(
                    len,
                    *host_mac(host).as_bytes(),
                    *host_mac(peer).as_bytes(),
                    0x0a00_0000 | host as u32,
                    0x0a00_0000 | peer as u32,
                    64,
                );
                f[TAG_OFF] = host as u8;
                f[TAG_OFF + 1..TAG_OFF + 5]
                    .copy_from_slice(&self.ledger.next_seq(host).to_le_bytes());
                f[TAG_OFF + 5] = self.rng.next_u64() as u8;
                let done = mirror.offer(host, len, Time::ZERO);
                self.ledger.offer(host, &f, done, 1 << peer);
                frames.push(f);
            }
        }
        let horizon = (0..ls.nhosts())
            .map(|h| mirror.busy_until(h))
            .max()
            .expect("hosts exist")
            + TAIL;
        tr.lap("bench.gen");

        let frames = &self.frames;
        let report = run_fabric(
            &ls.topology(),
            &FabricConfig::new(self.nshards, self.epoch),
            horizon,
            |node| {
                let mut sw = ls.build_node(node, 0);
                if node < ls.leaves {
                    for port in 0..ls.host_ports {
                        for f in &frames[node * ls.host_ports + port] {
                            sw.chassis.send(port, PktBuf::copy_from(f));
                        }
                    }
                }
                sw
            },
            |node, sw: &mut ReferenceSwitch| {
                let mut deliveries = Vec::new();
                if node < ls.leaves {
                    for port in 0..ls.host_ports {
                        for (bytes, at) in sw.chassis.recv_timed(port) {
                            deliveries.push((port, at, bytes));
                        }
                    }
                }
                Harvest {
                    deliveries,
                    raw: chassis_raw(&sw.chassis),
                }
            },
        );
        self.last = Some(report);
        tr.lap("core.sim.run");
    }

    fn verify(&mut self, acc: &mut Account) {
        let report = self.last.take().expect("verify follows slice");
        let ls = self.ls;
        for (node, harvest) in report.results.into_iter().enumerate() {
            for (port, at, bytes) in harvest.deliveries {
                let host = (node * ls.host_ports + port) as u8;
                acc.deliver(&mut self.ledger, host, &bytes, at, Timing::Wire);
            }
            for (key, value) in harvest.raw {
                // The packet-buffer pool is per thread: nodes of one shard
                // all read the same counters, so take them from one node
                // per shard.
                if key.starts_with("pool.") && node >= self.nshards {
                    continue;
                }
                *self.totals.entry(key).or_insert(0) += value;
            }
        }
        acc.end_slice(&self.ledger, 0);

        let stats = &report.stats;
        let mut add = |key, value: u64| *self.totals.entry(key).or_insert(0) += value;
        add("fabric.epochs", stats.epochs);
        add("fabric.crossed", stats.crossed);
        add("fabric.blocked", stats.blocked);
        add(
            "fabric.stall_ns",
            stats.shard_stalls.iter().map(|d| d.as_nanos() as u64).sum(),
        );
        add(
            "fabric.shard_wall_ns",
            stats.wall.as_nanos() as u64 * self.nshards as u64,
        );
        let hw = self.totals.entry("fabric.merge_hw").or_insert(0);
        *hw = (*hw).max(stats.merge_high_water);
    }

    fn counters(&mut self) -> Raw {
        self.totals.clone()
    }

    fn bps(&self) -> u64 {
        self.bps
    }
}
