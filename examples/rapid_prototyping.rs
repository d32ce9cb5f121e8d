//! Rapid prototyping (the paper's demo, §3): build a **new** networking
//! device out of stock building blocks, writing only the logic that makes
//! it novel.
//!
//! The device here is a *packet-deduplicating middlebox*: a 4-port bump-
//! in-the-wire that suppresses duplicate packets seen within a window
//! (think: de-duplication in front of an IDS after port mirroring). The
//! only new code is the ~40-line `DedupLogic`; everything else — MACs,
//! arbiter, stage shell, output queues, scheduler, chassis — is reused
//! exactly as the reference projects use it.
//!
//! Run with: `cargo run -p netfpga-examples --bin rapid_prototyping`

use netfpga_core::board::BoardSpec;
use netfpga_core::pktbuf::PktBuf;
use netfpga_core::stream::{Meta, PortMask, Stream};
use netfpga_core::time::Time;
use netfpga_core::trace::{write_vcd, OccupancyProbe, Probe};
use netfpga_datapath::queues::{OutputQueues, QueueConfig};
use netfpga_datapath::sched::Fifo;
use netfpga_datapath::stage::{PacketLogic, StageAction};
use netfpga_datapath::{InputArbiter, PacketStage};
use netfpga_mem::AgingTable;
use netfpga_packet::{EthernetAddress, Ipv4Address, PacketBuilder};
use netfpga_projects::harness::{Chassis, ChassisConfig};

/// The one genuinely new block: remember a fingerprint of each packet for
/// `window`; drop re-appearances. Forwarding is port-paired (0<->1, 2<->3),
/// like a bump-in-the-wire.
struct DedupLogic {
    seen: AgingTable<u64, ()>,
    window: Time,
    duplicates: u64,
}

impl DedupLogic {
    fn fingerprint(packet: &[u8]) -> u64 {
        // FNV-1a over the whole frame: cheap and good enough for a demo.
        netfpga_core::hash::fnv1a64(packet)
    }
}

impl PacketLogic for DedupLogic {
    fn process(&mut self, packet: &mut PktBuf, meta: &mut Meta, now: Time) -> StageAction {
        let fp = Self::fingerprint(packet);
        if self.seen.lookup(&fp, now).is_some() {
            self.duplicates += 1;
            return StageAction::Drop;
        }
        self.seen.insert(fp, (), now);
        let _ = self.window; // window is the table's aging limit
        meta.dst_ports = PortMask::single(meta.src_port ^ 1); // pair ports
        StageAction::Forward
    }
}

/// Assemble the middlebox: this is the whole "new project". The returned
/// probes trace the arbiter-to-stage FIFO for waveform export — free
/// debugging, exactly like the platform's simulation flow.
fn build_dedup_box(spec: &BoardSpec, window: Time) -> (Chassis, Probe) {
    let (mut chassis, io) = Chassis::new(&ChassisConfig::new(spec, 4));
    let w = chassis.bus_width();
    let (arb_tx, arb_rx) = Stream::new(64, w);
    chassis.add_module(InputArbiter::new("input_arbiter", io.from_ports, arb_tx));
    let (probe_mod, probe) = OccupancyProbe::new("arb_to_dedup_occupancy", arb_rx.clone());
    chassis.add_module(probe_mod);
    let (stage_tx, stage_rx) = Stream::new(64, w);
    chassis.add_module(PacketStage::new(
        "dedup",
        arb_rx,
        stage_tx,
        8,
        DedupLogic {
            seen: AgingTable::new(4096, window),
            window,
            duplicates: 0,
        },
    ));
    chassis.add_module(OutputQueues::new(
        "output_queues",
        stage_rx,
        io.to_ports,
        QueueConfig::default(),
        || Box::new(Fifo),
    ));
    (chassis, probe)
}

fn main() {
    println!("Rapid prototyping: a packet-dedup middlebox from stock blocks");
    println!("==============================================================");
    let (mut device, probe) = build_dedup_box(&BoardSpec::sume(), Time::from_ms(1));
    println!("blocks reused: mac_10g x4, input_arbiter, stage shell, output_queues");
    println!("new code:      DedupLogic (~40 lines)\n");

    let frame = |seq: u8| {
        PacketBuilder::new()
            .eth(
                EthernetAddress::new(2, 0, 0, 0, 0, 1),
                EthernetAddress::new(2, 0, 0, 0, 0, 2),
            )
            .ipv4(Ipv4Address::new(10, 0, 0, 1), Ipv4Address::new(10, 0, 0, 2))
            .udp(5000, 6000, &[seq; 64])
            .build()
    };

    // Send three unique packets, each duplicated three times (as a mirror
    // port would), into port 0.
    for seq in 0..3u8 {
        for _ in 0..3 {
            device.send(0, frame(seq));
        }
    }
    device.run_for(Time::from_us(50));
    let out = device.recv(1);
    println!("in:  9 frames on port 0 (3 unique x 3 copies)");
    println!(
        "out: {} frames on port 1 (duplicates suppressed)",
        out.len()
    );
    assert_eq!(out.len(), 3, "exactly the unique packets must survive");

    // The window ages out: the same packet sent much later passes again.
    device.run_for(Time::from_ms(2));
    device.send(0, frame(0));
    device.run_for(Time::from_us(50));
    let late = device.recv(1);
    println!(
        "after the 1 ms window: the old packet forwards again ({} frame)",
        late.len()
    );
    assert_eq!(late.len(), 1);

    // Export the waveform of the internal FIFO, as the real simulation
    // flow would hand the developer.
    let out = std::env::temp_dir().join("dedup_box.vcd");
    let mut file = std::fs::File::create(&out).expect("create vcd");
    write_vcd(&mut file, "dedup_box", &[probe]).expect("write vcd");
    println!("waveform of the internal FIFO written to {}", out.display());

    println!("\nA new device, built in one sitting — that is the NetFPGA demo.");
}
