//! The parallel fabric plane: deterministic multi-chassis simulation
//! sharded across cores.
//!
//! One simulated board saturates one host core no matter how many ports
//! it models — the kernel is single-threaded and `Rc`-based by design.
//! This crate scales *out* instead of up: a topology of boards (e.g. a
//! leaf–spine fabric of reference switches) is partitioned across a
//! scoped thread pool, one single-threaded chassis per shard, and the
//! shards advance in lock-step **epochs** under the classic conservative
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
//! * Inter-shard links are a pair of simulator [`Module`] endpoints:
//!   a [`FabricEgress`] on the source chassis drains the port's output
//!   wire, stamps the link delay, detaches the payload from the source
//!   thread's packet-buffer pool via
//!   [`PktBuf::into_owned`](netfpga_core::pktbuf::PktBuf::into_owned)
//!   and appends it to the link's shard-local [`Outbox`]; the runner
//!   hands each epoch's outbox over whole at the barrier (see
//!   [`runner`]); a [`FabricIngress`] on the destination chassis merges
//!   arrivals in deterministic `(ready_at, src_node, seq)` order and
//!   re-wraps the bytes in the destination thread's pool.
//! * **Every** link goes through this machinery, co-located or not — so
//!   the simulation a node observes is bit-identical whatever the shard
//!   count, including `nshards = 1`, which *is* the sequentialized
//!   single-thread reference run. `run_fabric` with 1 shard and with N
//!   shards must produce identical traces; the property tests and
//!   `exp16_fabric` pin exactly that.
//!
//! Determinism argument, in short: a node's evolution is a function of
//! its own module set, its up-front stimulus, and the multiset of
//! fabric frames deposited at each epoch barrier — exactly the frames
//! its neighbours sent during that epoch, on any shard layout (delivery
//! to the wire is gated on each frame's `ready_at`, and the merge heap
//! fixes the order of same-barrier deposits). By induction over epochs
//! every node computes the same thing, `fabric.*` counters included;
//! threads only change wall-clock time.
//! Thread-local buffer pools never leak across the boundary because
//! payloads hop as plain `Vec<u8>`.

mod barrier;
pub mod endpoints;
pub mod runner;
pub mod topo;

pub use endpoints::{FabricEgress, FabricFrame, FabricIngress, IngressHandle, Outbox};
pub use runner::{
    run_fabric, FabricConfig, FabricNode, FabricReport, FabricStats, NodeFabricStats,
};
pub use topo::{FabricTopology, LinkSpec};

// Re-exported for implementors of [`FabricNode`].
pub use netfpga_core::sim::Module;
