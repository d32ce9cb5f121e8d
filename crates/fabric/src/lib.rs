//! The parallel fabric plane: deterministic multi-chassis simulation
//! sharded across cores.
//!
//! One simulated board saturates one host core no matter how many ports
//! it models — the kernel is single-threaded and `Rc`-based by design.
//! This crate scales *out* instead of up: a topology of boards (e.g. a
//! leaf–spine fabric of reference switches) is partitioned across
//! threads, one single-threaded chassis per shard, and the shards advance
//! in lock-step **epochs** under the classic conservative
//! parallel-discrete-event-simulation discipline:
//!
//! * Every inter-chassis link has a propagation delay `L`. A frame
//!   leaving node A during epoch `k` cannot arrive at node B before
//!   `send_time + L`, so as long as the epoch length satisfies
//!   `epoch + 2·clock_period ≤ L` for every link (the *lookahead
//!   invariant* — see [`FabricTopology::max_safe_epoch`]), nothing sent
//!   during an epoch can affect any other node within that same epoch.
//!   Shards therefore run a full epoch without communicating, exchange
//!   frames at a barrier, and never need rollback.
//! * Links are wires, not modules: the shard loop carries them (see
//!   [`runner`]). After each epoch it drains the source port's output
//!   wire up to the node's current time, stamps each frame's arrival
//!   instant (`ready_at + L`), detaches the payload from the source
//!   thread via [`PktBuf::into_owned`](netfpga_core::pktbuf::PktBuf::into_owned)
//!   and files it in the link's mailbox; after the barrier it pushes each
//!   mailbox straight onto the destination port's input wire. Such a frame
//!   arrives strictly after the destination's next clock edge, so the
//!   receiving MAC takes it on exactly the edge a local
//!   [`Link`](netfpga_phy::Link) would have given it.
//! * **Every** link goes through this hand-off, co-located or not — so
//!   the simulation a node observes is bit-identical whatever the shard
//!   count, including `nshards = 1`, which *is* the sequentialized
//!   single-thread reference run (on the calling thread). `run_fabric`
//!   with 1 shard and with N shards must produce identical traces; the
//!   property tests and `exp16_fabric` pin exactly that.
//!
//! Determinism argument, in short: a node's evolution is a function of
//! its own module set, its up-front stimulus, and the frames pushed onto
//! its wires at each epoch barrier — exactly the frames its neighbours'
//! wires released during that epoch, on any shard layout. Each wire is
//! fed by one link ([`FabricTopology::validate`]), whose frames arrive in
//! the order they left, and the receiving MAC takes each at its
//! `ready_at`. By induction over epochs every node computes the same
//! thing, `fabric.*` counters included; threads only change wall-clock
//! time. `Rc`-based buffers never cross a thread: payloads hop as plain
//! `Vec<u8>`.

mod barrier;
pub mod runner;
pub mod topo;

pub use runner::{
    run_fabric, FabricConfig, FabricFrame, FabricNode, FabricReport, FabricStats, NodeFabricStats,
};
pub use topo::{FabricTopology, LinkSpec};
