//! The buffer plane's promise at the host boundary: a frame costs one
//! allocation and no copy from `send` to `recv`. The vector the tester
//! hands in is the vector host software gets back — through
//! segmentation, reassembly and an in-place rewrite — and only a frame
//! that is still shared when it leaves (flood siblings) is copied.

use netfpga_core::board::BoardSpec;
use netfpga_core::pktbuf::pool_stats;
use netfpga_core::time::Time;
use netfpga_datapath::lpm::RouteEntry;
use netfpga_host::NicDriver;
use netfpga_packet::{EthernetAddress, Ipv4Address, PacketBuilder};
use netfpga_projects::{ReferenceNic, ReferenceRouter, ReferenceSwitch};

fn mac(x: u8) -> EthernetAddress {
    EthernetAddress::new(2, 0, 0, 0, 0, x)
}

fn frame(src: u8, dst: u8, len: usize) -> Vec<u8> {
    PacketBuilder::new()
        .eth(mac(src), mac(dst))
        .ipv4(
            Ipv4Address::new(10, 0, 0, src),
            Ipv4Address::new(10, 0, 0, dst),
        )
        .udp(1000, 2000, &[])
        .pad_to(len)
        .build()
}

fn switch(fast_path: bool) -> ReferenceSwitch {
    ReferenceSwitch::with_fast_path(&BoardSpec::sume(), 4, 64, Time::from_ms(100), fast_path)
}

#[test]
fn switch_unicast_returns_the_allocation_it_was_sent() {
    for fast_path in [false, true] {
        let mut sw = switch(fast_path);
        // Teach the switch where station 2 lives, so the next frame to it
        // is unicast.
        sw.chassis.send(1, frame(2, 1, 64));
        sw.chassis.run_for(Time::from_us(10));
        let sent = frame(1, 2, 300);
        let (bytes, at) = (sent.clone(), sent.as_ptr());
        sw.chassis.send(0, sent);
        sw.chassis.run_for(Time::from_us(10));
        let got = sw.chassis.recv_timed(1);
        assert_eq!(got.len(), 1, "fast_path {fast_path}");
        assert_eq!(got[0].0, bytes);
        assert_eq!(got[0].0.as_ptr(), at, "moved out, fast_path {fast_path}");
    }
}

#[test]
fn flood_siblings_leave_in_distinct_allocations_and_the_last_one_is_moved() {
    for fast_path in [false, true] {
        let mut sw = switch(fast_path);
        let cow_before = pool_stats().cow_copies;
        let sent = frame(1, 9, 300);
        let (bytes, at) = (sent.clone(), sent.as_ptr());
        sw.chassis.send(0, sent);
        sw.chassis.run_for(Time::from_us(10));
        let got: Vec<Vec<u8>> = (1..4).flat_map(|p| sw.chassis.recv(p)).collect();
        assert_eq!(got, vec![bytes; 3], "one copy per egress port");
        let ptrs: Vec<_> = got.iter().map(|f| f.as_ptr()).collect();
        assert!(ptrs[0] != ptrs[1] && ptrs[1] != ptrs[2] && ptrs[0] != ptrs[2]);
        // Two siblings were still shared when they left and were copied;
        // the last one standing owned the buffer and gave it up.
        assert_eq!(ptrs, [ptrs[0], ptrs[1], at], "fast_path {fast_path}");
        assert_eq!(
            pool_stats().cow_copies,
            cow_before,
            "a flood copies nothing"
        );
    }
}

#[test]
fn router_rewrites_in_place_and_returns_the_allocation_it_was_sent() {
    let mut r = ReferenceRouter::new(&BoardSpec::sume(), 4);
    {
        let mut t = r.tables.borrow_mut();
        t.port_macs = (0..4).map(|i| mac(0xe0 + i)).collect();
        t.lpm.insert(
            "10.0.0.0/24".parse().unwrap(),
            RouteEntry {
                next_hop: Ipv4Address::UNSPECIFIED,
                port: 2,
            },
        );
        t.arp.insert(Ipv4Address::new(10, 0, 0, 7), mac(0x77));
    }
    let cow_before = pool_stats().cow_copies;
    let sent = frame(1, 7, 200);
    let (bytes, at) = (sent.clone(), sent.as_ptr());
    r.chassis.send(0, sent);
    r.chassis.run_for(Time::from_us(50));
    let got = r.chassis.recv_timed(2);
    assert_eq!(got.len(), 1);
    assert_ne!(got[0].0, bytes, "TTL, checksum and MACs were rewritten");
    assert_eq!(got[0].0[..6], *mac(0x77).as_bytes());
    assert_eq!(got[0].0.as_ptr(), at, "rewritten in place, then moved out");
    assert_eq!(pool_stats().cow_copies, cow_before);
}

#[test]
fn nic_driver_receives_the_allocation_the_wire_delivered() {
    for fast_path in [false, true] {
        let mut nic = ReferenceNic::with_fast_path(&BoardSpec::sume(), 4, fast_path);
        let mut drv = NicDriver::bind(&nic);
        let sent = frame(1, 2, 508);
        let (bytes, at) = (sent.clone(), sent.as_ptr());
        nic.chassis.send(1, sent);
        nic.chassis.run_for(Time::from_us(10));
        let (port, got) = drv.receive().expect("frame up");
        assert_eq!((port, &got), (1, &bytes));
        assert_eq!(got.as_ptr(), at, "moved out, fast_path {fast_path}");
    }
}
