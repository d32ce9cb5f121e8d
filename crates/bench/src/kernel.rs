//! Kernel workloads: how many of a full reference-switch chassis' clock
//! edges the simulation kernel has to execute, comparing the
//! naive stepper (linear domain scan, every module ticked every edge, one
//! word per cycle) against the fast path (cached activity bounds, quiescence
//! skipping, time-blocked fast-forward, burst stream transfers).
//!
//! Three switch workloads bracket the design space:
//!
//! * **idle-heavy** — short traffic bursts separated by long silent gaps,
//!   the shape of protocol tests and latency experiments. The fast path
//!   should win big here: idle stretches fast-forward in O(domains).
//! * **saturated** — back-to-back frames at line rate, the shape of
//!   throughput experiments. Nothing is ever fully idle, so the win comes
//!   from time-blocked skipping (wire serialization and pipeline-latency
//!   windows) and burst transfers.
//! * **flood** — back-to-back unknown-unicast frames on an untaught
//!   switch, so every frame floods to all other ports: the alloc-heavy
//!   shape that stresses the packet-buffer plane. Flood copies are
//!   refcount bumps on a shared [`netfpga_core::pktbuf::PktBuf`], so the
//!   run's `cow_copies` stays at zero unless something actually rewrites
//!   a shared buffer.
//!
//! A fourth runs on the reference NIC instead, because no switch workload
//! has a host side:
//!
//! * **nic_bidir** — four ports towards the host at line rate while the
//!   host keeps its TX ring full: the DMA engine and the host rings carry
//!   every frame. The engine drains what four ports offer (a frame costs it
//!   the longer of bus and PCIe time, not their sum), and the fast kernel's
//!   win is the engine charging its bus in burst mode instead of ticking it
//!   a beat per cycle.
//!
//! And one runs the switch as users get it by default — word-level,
//! cycle-exact pacing — under *both* configs, so the pair isolates the
//! kernel:
//!
//! * **exact_imix** — IMIX 7:4:1 of 60/570/1514 B at line rate on the full
//!   mesh 0↔1, 2↔3 (mean 11.2 beats a frame). The word-level modules carry
//!   a frame across a hop as one beat-timed burst, so the fast kernel
//!   executes a handful of edges and module ticks per frame — not one per
//!   beat per module — while every beat keeps its cycle.
//!
//! Every figure a run reports is a counter, so a run repeats bit for bit;
//! what the same workloads cost in host time is the referee's to say
//! (`benchmark/`). Used by `exp10_kernel` (`BENCH_kernel.json`),
//! `exp15_reliability` and `prof_kernel`.

use netfpga_core::board::BoardSpec;
use netfpga_core::pktbuf;
use netfpga_core::sim::SchedulerMode;
use netfpga_core::stream::Stream;
use netfpga_core::time::Time;
use netfpga_host::{NicDriver, ReliableChannel, ReliableConfig};
use netfpga_packet::{EtherType, EthernetAddress, PacketBuilder};
use netfpga_pcie::SendError;
use netfpga_projects::flowmon::FlowmonConfig;
use netfpga_projects::{Chassis, ChassisConfig, ReferenceNic, ReferenceSwitch};

/// Which stepper configuration a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelConfig {
    /// Linear scan, no quiescence skipping, word-at-a-time transfers —
    /// the seed kernel, kept as the reference semantics.
    Naive,
    /// Auto scheduler (cached activity bounds), quiescence fast-forward,
    /// burst transfers end to end.
    Fast,
}

impl KernelConfig {
    /// Short label for tables and bench ids.
    pub fn label(self) -> &'static str {
        match self {
            KernelConfig::Naive => "naive",
            KernelConfig::Fast => "fast",
        }
    }
}

/// One run's counters: simulated edges, executed edges, delivered frames,
/// and what the packet-buffer plane and the activity cache did meanwhile.
#[derive(Debug, Clone, Copy)]
pub struct KernelRun {
    /// Core-clock edges the simulation advanced through.
    pub edges: u64,
    /// Edges the kernel actually executed (the rest were fast-forwarded).
    pub steps: u64,
    /// Frames delivered at the tester edge (work sanity check: both
    /// configs must deliver the same count).
    pub frames: u64,
    /// Copy-on-write materializations in the packet-buffer pool during the
    /// run: shared buffers that were actually rewritten. Pure forwarding
    /// and flooding keep this at zero.
    pub cow_copies: u64,
    /// Activity probes the kernel served from a clean cached bound instead
    /// of re-querying the module (the fused-dispatch win: on the naive
    /// scan this is always zero).
    pub probes_avoided: u64,
    /// Cache re-queries forced by an edge-triggered wake (pushes, host
    /// posts, injections landing on an idle module).
    pub invalidations: u64,
}

fn mac(x: u8) -> EthernetAddress {
    EthernetAddress::new(2, 0, 0, 0, 0, x)
}

fn frame(src: u8, dst: u8, len: usize) -> Vec<u8> {
    PacketBuilder::new()
        .eth(mac(src), mac(dst))
        .raw(EtherType::Ipv4, &[src; 46])
        .pad_to(len)
        .build()
}

impl KernelConfig {
    /// Whether the design's modules run in burst mode.
    fn fast_path(self) -> bool {
        matches!(self, KernelConfig::Fast)
    }

    /// A 4-port reference switch pinned to this config's stepper, its
    /// modules in burst mode or not.
    fn switch_paced(self, fast_path: bool) -> ReferenceSwitch {
        let mut sw = ReferenceSwitch::with_fast_path(
            &BoardSpec::sume(),
            4,
            1024,
            Time::from_ms(100),
            fast_path,
        );
        self.pin(&mut sw.chassis);
        sw
    }

    /// Pin a chassis' simulator to this config's stepper.
    fn pin(self, chassis: &mut Chassis) {
        let (mode, idle_skip) = match self {
            KernelConfig::Naive => (SchedulerMode::Scan, false),
            KernelConfig::Fast => (SchedulerMode::Auto, true),
        };
        chassis.sim.set_scheduler_mode(mode);
        chassis.sim.set_idle_skip(idle_skip);
    }
}

/// Build a 4-port reference switch pinned to the given kernel config.
fn switch(config: KernelConfig) -> ReferenceSwitch {
    config.switch_paced(config.fast_path())
}

/// Build a 4-port fast-path switch with the flow-monitoring plane spliced
/// into the datapath (tap + histograms + exporter) — the configuration the
/// `fast+tap` rows set against plain `Fast`.
fn tapped_switch() -> ReferenceSwitch {
    let mut sw = ReferenceSwitch::build(
        &ChassisConfig {
            fast_path: true,
            ..ChassisConfig::new(&BoardSpec::sume(), 4)
        },
        1024,
        Time::from_ms(100),
        Some(FlowmonConfig::default()),
    );
    KernelConfig::Fast.pin(&mut sw.chassis);
    sw
}

/// Teach a switch one station per port (so the measured phase is pure
/// unicast).
fn teach(sw: &mut ReferenceSwitch) {
    // Station `p + 1` lives on port `p`; one flood each teaches the table.
    for p in 0..4u8 {
        sw.chassis.send(usize::from(p), frame(p + 1, 0xee, 60));
        sw.chassis.run_for(Time::from_us(5));
    }
    for p in 0..4 {
        sw.chassis.recv(p);
    }
}

/// Build a switch and teach it one station per port.
fn learned_switch(config: KernelConfig) -> ReferenceSwitch {
    let mut sw = switch(config);
    teach(&mut sw);
    sw
}

/// Snapshot of the chassis state a measurement is deltaed against.
struct RunBase {
    cycles: u64,
    kernel: netfpga_core::sim::KernelStats,
    cow: u64,
}

impl RunBase {
    fn begin(chassis: &Chassis) -> RunBase {
        RunBase {
            cycles: chassis.sim.cycles(chassis.clk),
            kernel: chassis.sim.kernel_stats(),
            cow: pktbuf::pool_stats().cow_copies,
        }
    }

    fn finish(self, chassis: &Chassis, frames: u64) -> KernelRun {
        let k = chassis.sim.kernel_stats();
        KernelRun {
            edges: chassis.sim.cycles(chassis.clk) - self.cycles,
            steps: k.steps - self.kernel.steps,
            frames,
            cow_copies: pktbuf::pool_stats().cow_copies - self.cow,
            probes_avoided: k.probes_avoided - self.kernel.probes_avoided,
            invalidations: k.invalidations - self.kernel.invalidations,
        }
    }
}

/// One of the workloads, for callers that pick by value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// [`idle_heavy`]; `n` is rounds.
    IdleHeavy,
    /// [`saturated`]; `n` is frames per direction.
    Saturated,
    /// [`flood`]; `n` is frames.
    Flood,
    /// [`nic_bidir`]; `n` is frames per direction.
    NicBidir,
    /// [`exact_imix`]; `n` is frames per port, the frame length is the
    /// mix's own.
    ExactImix,
}

/// Frame length of the bracketing workloads, in bytes (10 beats of the
/// 32-byte bus).
pub const FRAME_LEN: usize = 300;

/// Frame length of [`nic_bidir`], in bytes (16 beats).
pub const NIC_FRAME_LEN: usize = 508;

/// Mean frame length of [`exact_imix`], in bytes: 60/570/1514 B at 7:4:1
/// (11 beats to the byte count, 11.2 to the beat count).
pub const IMIX_MEAN_LEN: usize = (7 * 60 + 4 * 570 + 1514) / 12;

/// Run `workload` at size `n` with `frame_len`-byte frames and hand back
/// the chassis it ran on as well, so the caller can look inside afterwards
/// — `prof_kernel` prints its
/// [`netfpga_core::sim::Simulator::module_ticks`] table from it, and
/// `exp10_kernel` sweeps the frame length to price a beat.
pub fn run_keeping_chassis(
    config: KernelConfig,
    workload: Workload,
    n: u32,
    frame_len: usize,
) -> (KernelRun, Chassis) {
    match workload {
        Workload::NicBidir => {
            let mut nic = ReferenceNic::with_fast_path(&BoardSpec::sume(), 4, config.fast_path());
            config.pin(&mut nic.chassis);
            (nic_bidir_on(&mut nic, n, frame_len), nic.chassis)
        }
        Workload::Flood => {
            let mut sw = switch(config);
            (flood_on(&mut sw, n, frame_len), sw.chassis)
        }
        Workload::IdleHeavy => {
            let mut sw = learned_switch(config);
            (idle_heavy_on(&mut sw, n, frame_len), sw.chassis)
        }
        Workload::Saturated => {
            let mut sw = learned_switch(config);
            (saturated_on(&mut sw, n, frame_len), sw.chassis)
        }
        Workload::ExactImix => {
            let mut sw = config.switch_paced(false);
            teach(&mut sw);
            (exact_imix_on(&mut sw, n), sw.chassis)
        }
    }
}

/// Word-level IMIX workload: `nframes` frames per port, 60/570/1514 B drawn
/// 7:4:1 from a fixed seed, on the full mesh 0↔1, 2↔3 at line rate through
/// the *word-level* switch — the same modules and pacing under either
/// kernel config, so `Naive` against `Fast` prices the kernel alone.
pub fn exact_imix(config: KernelConfig, nframes: u32) -> KernelRun {
    run_keeping_chassis(config, Workload::ExactImix, nframes, 0).0
}

fn exact_imix_on(sw: &mut ReferenceSwitch, nframes: u32) -> KernelRun {
    /// Frames per port offered at once: bounded, so the wires' queues stay
    /// small however long the run.
    const ROUND: u32 = 250;
    let templates: Vec<[pktbuf::PktBuf; 3]> = (0..4u8)
        .map(|p| [60, 570, 1514].map(|len| frame(p + 1, (p ^ 1) + 1, len).into()))
        .collect();
    let mut rng = netfpga_core::SimRng::new(0x1a11);
    let base = RunBase::begin(&sw.chassis);
    let mut frames = 0u64;
    let mut left = nframes;
    while left > 0 {
        let round = left.min(ROUND);
        left -= round;
        for _ in 0..round {
            for (p, by_len) in templates.iter().enumerate() {
                let pick = match rng.below(12) {
                    0..=6 => 0,
                    7..=10 => 1,
                    _ => 2,
                };
                sw.chassis.send(p, by_len[pick].clone());
            }
        }
        let expect = frames + 4 * u64::from(round);
        // A round is at most 250 × 1.23 µs of wire time per port.
        for _ in 0..40 {
            sw.chassis.run_for(Time::from_us(10));
            for p in 0..4 {
                frames += sw.chassis.recv(p).len() as u64;
            }
            if frames >= expect {
                break;
            }
        }
    }
    base.finish(&sw.chassis, frames)
}

/// Idle-heavy workload: `rounds` rounds of 4 unicast frames (one per
/// port) followed by a 50 µs silent gap — well over 90 % idle edges.
pub fn idle_heavy(config: KernelConfig, rounds: u32) -> KernelRun {
    run_keeping_chassis(config, Workload::IdleHeavy, rounds, FRAME_LEN).0
}

fn idle_heavy_on(sw: &mut ReferenceSwitch, rounds: u32, frame_len: usize) -> KernelRun {
    let base = RunBase::begin(&sw.chassis);
    let mut frames = 0u64;
    for _ in 0..rounds {
        for p in 0..4u8 {
            // Port p's station sends to the station on the next port.
            sw.chassis
                .send(usize::from(p), frame(p + 1, (p + 1) % 4 + 1, frame_len));
        }
        sw.chassis.run_for(Time::from_us(50));
        for p in 0..4 {
            frames += sw.chassis.recv(p).len() as u64;
        }
    }
    base.finish(&sw.chassis, frames)
}

/// Saturated workload: `nframes` [`FRAME_LEN`]-byte frames per direction on two
/// port pairs, injected back to back so the wires never go idle until the
/// tail drains.
pub fn saturated(config: KernelConfig, nframes: u32) -> KernelRun {
    run_keeping_chassis(config, Workload::Saturated, nframes, FRAME_LEN).0
}

fn saturated_on(sw: &mut ReferenceSwitch, nframes: u32, frame_len: usize) -> KernelRun {
    // One template frame per flow, cloned per injection: a tester feeding
    // the same stimulus at line rate bumps a refcount instead of building
    // and copying a fresh payload every time.
    let f01: pktbuf::PktBuf = frame(1, 2, frame_len).into(); // port 0 -> port 1
    let f23: pktbuf::PktBuf = frame(3, 4, frame_len).into(); // port 2 -> port 3
    let base = RunBase::begin(&sw.chassis);
    for _ in 0..nframes {
        sw.chassis.send(0, f01.clone());
        sw.chassis.send(2, f23.clone());
    }
    let expect = 2 * u64::from(nframes);
    let mut frames = 0u64;
    // Drain in slices; the deadline is generous (wire time for the whole
    // burst is ~nframes x 256 ns per pair at 300 B, x 1.23 us at 1514 B).
    for _ in 0..200 {
        sw.chassis
            .run_for(Time::from_us(u64::from(nframes) / 2 + 20));
        for p in 0..4 {
            frames += sw.chassis.recv(p).len() as u64;
        }
        if frames >= expect {
            break;
        }
    }
    base.finish(&sw.chassis, frames)
}

/// Flood workload: `nframes` back-to-back unknown-unicast frames into an
/// untaught switch, each flooded to the 3 other ports — the alloc-heavy
/// broadcast shape. One ingress frame becomes three egress frames whose
/// payloads share one refcounted buffer.
pub fn flood(config: KernelConfig, nframes: u32) -> KernelRun {
    run_keeping_chassis(config, Workload::Flood, nframes, FRAME_LEN).0
}

fn flood_on(sw: &mut ReferenceSwitch, nframes: u32, frame_len: usize) -> KernelRun {
    // Source MACs rotate over a reserved range never used as a
    // destination, keeping every lookup a miss; the destination station
    // 0xee does not exist anywhere. Template frames are cloned per
    // injection (refcount bumps), and each flood copy inside the switch
    // is another refcount bump on the same backing buffer.
    let templates: Vec<pktbuf::PktBuf> = (0..8u8)
        .map(|s| frame(0x40 + s, 0xee, frame_len).into())
        .collect();
    let base = RunBase::begin(&sw.chassis);
    for i in 0..nframes {
        sw.chassis
            .send((i % 4) as usize, templates[(i % 8) as usize].clone());
    }
    // Flooding oversubscribes the egress side 3:1, so the output queues
    // legitimately tail-drop under sustained load; drain until deliveries
    // stop growing rather than to an exact count.
    let mut frames = 0u64;
    loop {
        sw.chassis.run_for(Time::from_us(50));
        let before = frames;
        for p in 0..4 {
            frames += sw.chassis.recv(p).len() as u64;
        }
        if frames == before && sw.chassis.sim.all_quiescent() {
            break;
        }
    }
    base.finish(&sw.chassis, frames)
}

/// Bidirectional NIC workload: `nframes` [`NIC_FRAME_LEN`]-byte frames per
/// direction through the reference NIC and its host driver — the four
/// ports offer theirs towards the host at line rate while the host refills
/// its TX ring, round-robin over the ports, until the ring refuses. The
/// naive config is the word-level NIC on the stepper, the fast config the
/// burst-mode NIC (DMA engine included) on the fast kernel; both deliver
/// every frame.
pub fn nic_bidir(config: KernelConfig, nframes: u32) -> KernelRun {
    run_keeping_chassis(config, Workload::NicBidir, nframes, NIC_FRAME_LEN).0
}

fn nic_bidir_on(nic: &mut ReferenceNic, nframes: u32, frame_len: usize) -> KernelRun {
    /// Frames per direction offered at once, a quarter of them on each port.
    const ROUND: u32 = 500;
    /// The driver's poll interval: short enough that the 256-entry RX ring
    /// never overflows between polls.
    const QUANTUM: Time = Time::from_us(10);
    let mut driver = NicDriver::bind(nic);
    let to_host: pktbuf::PktBuf = frame(1, 2, frame_len).into();
    let to_wire = frame(3, 4, frame_len);
    let base = RunBase::begin(&nic.chassis);
    let mut frames = 0u64;
    let mut left = nframes;
    while left > 0 {
        let round = left.min(ROUND);
        left -= round;
        for i in 0..round {
            nic.chassis.send((i % 4) as usize, to_host.clone());
        }
        let expect = frames + 2 * u64::from(round);
        let mut posted = 0;
        // Both directions drain in well under 100 quanta; the cap only
        // keeps a broken build from spinning.
        for _ in 0..2000 {
            while posted < round {
                match driver.transmit((posted % 4) as u8, to_wire.clone()) {
                    Ok(()) => posted += 1,
                    Err(SendError::RingFull) => break,
                    Err(e) => panic!("TX ring refused for good: {e:?}"),
                }
            }
            nic.chassis.run_for(QUANTUM);
            while driver.receive().is_some() {
                frames += 1;
            }
            for p in 0..4 {
                frames += nic.chassis.recv(p).len() as u64;
            }
            if frames >= expect {
                break;
            }
        }
    }
    base.finish(&nic.chassis, frames)
}

/// Saturated workload on the fast kernel with the reliable host-I/O
/// plane attached on an inert fault plan — a sequenced DMA engine and
/// the retry channel's driver module riding along while the PHY-driven
/// stimulus of [`saturated`] runs. E15 requires the same frames over the
/// same edges as plain `Fast`: attached and idle, the plane is invisible
/// to the device.
pub fn saturated_reliable(nframes: u32) -> KernelRun {
    let mut sw = learned_switch(KernelConfig::Fast);
    // The DMA engine hangs off a detached host port: the streams exist
    // (held alive for the run) but the saturated stimulus never crosses
    // them, so the plane is attached-and-idle.
    let w = sw.chassis.bus_width();
    let (to_card_tx, _to_card_rx) = Stream::new(64, w);
    let (_from_card_tx, from_card_rx) = Stream::new(64, w);
    sw.chassis.attach_dma(to_card_tx, from_card_rx);
    let dma = sw.chassis.dma.clone().expect("DMA attached");
    let (driver, channel) = ReliableChannel::new("reliable", dma, ReliableConfig::default(), 0xE15);
    sw.chassis.add_module(driver);
    let run = saturated_on(&mut sw, nframes, FRAME_LEN);
    assert!(
        channel.idle(),
        "no host TX was offered, the channel stays idle"
    );
    run
}

/// Saturated workload on the fast kernel with the flow-monitoring tap
/// spliced in — same stimulus as [`saturated`] with
/// [`KernelConfig::Fast`], and the same deliveries.
pub fn saturated_tap(nframes: u32) -> KernelRun {
    let mut sw = tapped_switch();
    teach(&mut sw);
    saturated_on(&mut sw, nframes, FRAME_LEN)
}

/// Flood workload on the fast kernel with the flow-monitoring tap
/// spliced in. The exporter module never goes quiescent (it samples
/// forever), so unlike [`flood`] this cannot drain on
/// `all_quiescent()` — it stops once deliveries are stable across two
/// consecutive drain rounds.
pub fn flood_tap(nframes: u32) -> KernelRun {
    let mut sw = tapped_switch();
    let templates: Vec<pktbuf::PktBuf> = (0..8u8)
        .map(|s| frame(0x40 + s, 0xee, 300).into())
        .collect();
    let base = RunBase::begin(&sw.chassis);
    for i in 0..nframes {
        sw.chassis
            .send((i % 4) as usize, templates[(i % 8) as usize].clone());
    }
    let mut frames = 0u64;
    let mut stable = 0u32;
    while stable < 2 {
        sw.chassis.run_for(Time::from_us(50));
        let before = frames;
        for p in 0..4 {
            frames += sw.chassis.recv(p).len() as u64;
        }
        stable = if frames == before { stable + 1 } else { 0 };
    }
    base.finish(&sw.chassis, frames)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Both kernels must do the same simulated work: identical frame
    /// deliveries and identical edge counts (fast-forward advances cycle
    /// counters exactly as if every edge had been stepped).
    #[test]
    fn workloads_deliver_identically_under_both_kernels() {
        let naive = idle_heavy(KernelConfig::Naive, 3);
        let fast = idle_heavy(KernelConfig::Fast, 3);
        assert_eq!(naive.frames, fast.frames);
        assert_eq!(naive.edges, fast.edges);
        assert_eq!(naive.frames, 12);

        let naive = saturated(KernelConfig::Naive, 40);
        let fast = saturated(KernelConfig::Fast, 40);
        assert_eq!(naive.frames, fast.frames);
        assert_eq!(naive.frames, 80);
    }

    /// Flooding triples every frame and, being pure fan-out over shared
    /// refcounted buffers, performs no copy-on-write at all.
    #[test]
    fn flood_fans_out_without_cow() {
        let naive = flood(KernelConfig::Naive, 20);
        let fast = flood(KernelConfig::Fast, 20);
        assert_eq!(naive.frames, 60, "each frame floods to 3 ports");
        assert_eq!(naive.frames, fast.frames);
        assert_eq!(naive.cow_copies, 0);
        assert_eq!(fast.cow_copies, 0);
    }

    /// The tap is functionally invisible: the tapped workloads deliver
    /// exactly the same frame counts as their untapped twins, the flows
    /// really were accounted, and flood fan-out through the tap performs
    /// no copy-on-write.
    #[test]
    fn tapped_workloads_deliver_identically_and_copy_nothing() {
        let plain = saturated(KernelConfig::Fast, 40);
        let tapped = saturated_tap(40);
        assert_eq!(plain.frames, tapped.frames);
        assert_eq!(tapped.cow_copies, 0, "tap inspection must not copy");

        let plain = flood(KernelConfig::Fast, 20);
        let tapped = flood_tap(20);
        assert_eq!(plain.frames, tapped.frames);
        assert_eq!(tapped.cow_copies, 0, "tap inspection must not copy");
    }

    /// Stalled is not active, pinned with exact counters: under the 3:1
    /// oversubscribed flood the output queues sit behind full egress FIFOs
    /// whose TX MACs are time-blocked, so the fast kernel executes at most
    /// a quarter of the edges (26 007 of 40 000 before the stall rules).
    #[test]
    fn fast_kernel_skips_the_stalled_flood() {
        let fast = flood(KernelConfig::Fast, 700);
        assert_eq!(fast.frames, 2100);
        assert!(
            fast.steps <= fast.edges / 4,
            "stalled flood must not be stepped: {} of {} edges",
            fast.steps,
            fast.edges
        );
    }

    /// Charged, not ticked, pinned with exact counters: with the DMA engine
    /// in burst mode the bidirectional NIC steps at most a third of its
    /// edges (0.78 of them behind a word-level engine), and the burst-mode
    /// NIC delivers what the word-level one does.
    #[test]
    fn fast_kernel_skips_the_dma_bus() {
        let naive = nic_bidir(KernelConfig::Naive, 1000);
        let fast = nic_bidir(KernelConfig::Fast, 1000);
        assert_eq!(naive.frames, 2000);
        assert_eq!(naive.frames, fast.frames);
        assert_eq!(fast.cow_copies, 0);
        assert!(
            fast.steps <= fast.edges / 3,
            "the DMA bus must not be stepped: {} of {} edges",
            fast.steps,
            fast.edges
        );
    }

    /// The naive kernel steps every edge; the fast kernel must skip a
    /// strict majority even with the wires saturated.
    #[test]
    fn fast_kernel_skips_edges() {
        let naive = saturated(KernelConfig::Naive, 40);
        assert_eq!(naive.steps, naive.edges, "naive kernel steps everything");
        assert_eq!(
            naive.probes_avoided, 0,
            "the scan reference re-queries every module"
        );
        let fast = saturated(KernelConfig::Fast, 40);
        assert!(
            fast.steps < fast.edges / 2,
            "saturated fast path should skip most edges: {} of {}",
            fast.steps,
            fast.edges
        );
        assert!(
            fast.probes_avoided > 0,
            "fused dispatch must serve activity probes from cache"
        );
        assert!(fast.invalidations > 0, "pushes must wake cached modules");
    }
}
