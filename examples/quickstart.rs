//! Quickstart: bring up a simulated NetFPGA SUME with the reference NIC
//! loaded, push traffic through both directions, and read the statistics
//! registers — the "hello world" of the platform.
//!
//! Run with: `cargo run -p netfpga-examples --bin quickstart`

use netfpga_core::board::BoardSpec;
use netfpga_core::time::Time;
use netfpga_host::{dump_stats, NicDriver};
use netfpga_packet::{EthernetAddress, Ipv4Address, PacketBuilder};
use netfpga_projects::ReferenceNic;

fn main() {
    // 1. Pick a board. The spec carries the real SUME component inventory:
    //    Virtex-7 690T, 30 serial lanes, QDRII+ + DDR3, PCIe Gen3 x8.
    let spec = BoardSpec::sume();
    println!("Board: {} ({})", spec.platform.name(), spec.fpga);
    println!(
        "  serial: {} lanes, {} aggregate",
        spec.serial_lanes.len(),
        spec.aggregate_serial_capacity()
    );
    println!(
        "  100 GbE feasible: {}",
        spec.supports_interface(netfpga_core::time::BitRate::gbps(100), 10)
    );

    // 2. Load the reference NIC project (4 SFP+ ports) and bind its driver.
    let mut nic = ReferenceNic::new(&spec, 4);
    let mut driver = NicDriver::bind(&nic);
    println!("\nReference NIC loaded: 4 ports, DMA + MMIO attached.");

    // 3. Receive path: a peer sends UDP frames into ports 0 and 2; the
    //    driver picks them up over DMA with their ingress port.
    let peer_frame = |tag: u8| {
        PacketBuilder::new()
            .eth(
                EthernetAddress::new(2, 0, 0, 0, 0, tag),
                EthernetAddress::new(2, 0, 0, 0, 0, 0xee),
            )
            .ipv4(Ipv4Address::new(10, 0, 0, 1), Ipv4Address::new(10, 0, 0, 2))
            .udp(4000, 9000, &[tag; 32])
            .build()
    };
    nic.chassis.send(0, peer_frame(0xa0));
    nic.chassis.send(2, peer_frame(0xc2));
    nic.chassis.run_for(Time::from_us(20));
    while let Some((port, frame)) = driver.receive() {
        println!(
            "  host <- port {port}: {}",
            netfpga_packet::hexdump::summarize(&frame)
        );
    }

    // 4. Transmit path: the host sends a frame out of port 3.
    let tx = PacketBuilder::new()
        .eth(
            EthernetAddress::new(2, 0, 0, 0, 0, 0xee),
            EthernetAddress::new(2, 0, 0, 0, 0, 0xa0),
        )
        .ipv4(Ipv4Address::new(10, 0, 0, 2), Ipv4Address::new(10, 0, 0, 1))
        .udp(9000, 4000, b"reply from host")
        .build();
    driver.transmit(3, tx).expect("TX ring has space");
    nic.chassis.run_for(Time::from_us(20));
    for frame in nic.chassis.recv(3) {
        println!(
            "  port 3 -> wire: {}",
            netfpga_packet::hexdump::summarize(&frame)
        );
    }

    // 5. Hardware statistics over MMIO — one register, then port 0's RX
    //    MAC counters found by name in the telemetry block — and software
    //    stats from the driver.
    println!("\nHW rx-packet counter: {}", driver.hw_rx_packets(&mut nic));
    println!("Driver stats: {:?}", driver.stats());
    for (path, value) in dump_stats(&mut nic.chassis) {
        if path.starts_with("port0.mac.rx.") {
            println!("  {path} = {value}");
        }
    }
    println!("\nquickstart done.");
}
