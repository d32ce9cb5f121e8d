//! Fabric topology description: nodes, directed links, and the lookahead
//! math that bounds the epoch length.

use netfpga_core::time::Time;
use std::collections::HashMap;

/// One directed inter-chassis link: frames leaving `from_node`'s port
/// `from_port` arrive on `to_node`'s port `to_port` after `delay`.
///
/// `delay` is the propagation latency of the cable/backplane between the
/// two boards. It is also the link's *lookahead*: the guarantee that
/// nothing sent now can be observed at the far end for at least `delay`,
/// which is what lets shards run a whole epoch without communicating.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkSpec {
    /// Source node index.
    pub from_node: usize,
    /// Front-panel port on the source node whose output feeds the link.
    pub from_port: usize,
    /// Destination node index.
    pub to_node: usize,
    /// Front-panel port on the destination node the link feeds into.
    pub to_port: usize,
    /// Propagation delay (the link's lookahead). Must be positive.
    pub delay: Time,
}

/// A multi-chassis topology: `nnodes` boards and the directed links
/// between them.
#[derive(Debug, Clone, Default)]
pub struct FabricTopology {
    /// Number of nodes (boards). Node indices are `0..nnodes`.
    pub nnodes: usize,
    /// Directed links, at most one leaving and one entering any port
    /// ([`FabricTopology::validate`]).
    pub links: Vec<LinkSpec>,
}

impl FabricTopology {
    /// An empty topology over `nnodes` boards.
    pub fn new(nnodes: usize) -> FabricTopology {
        assert!(nnodes >= 1, "a fabric needs at least one node");
        FabricTopology {
            nnodes,
            links: Vec::new(),
        }
    }

    /// Add one directed link.
    pub fn link(
        mut self,
        from_node: usize,
        from_port: usize,
        to_node: usize,
        to_port: usize,
        delay: Time,
    ) -> FabricTopology {
        self.links.push(LinkSpec {
            from_node,
            from_port,
            to_node,
            to_port,
            delay,
        });
        self
    }

    /// Add a full-duplex link: one directed link each way between
    /// `(a, a_port)` and `(b, b_port)`, both with `delay`.
    pub fn duplex(
        self,
        a: usize,
        a_port: usize,
        b: usize,
        b_port: usize,
        delay: Time,
    ) -> FabricTopology {
        self.link(a, a_port, b, b_port, delay)
            .link(b, b_port, a, a_port, delay)
    }

    /// The minimum link delay — the fabric's global lookahead. `None`
    /// for a linkless topology (any epoch is safe then).
    pub fn min_delay(&self) -> Option<Time> {
        self.links.iter().map(|l| l.delay).min()
    }

    /// The longest epoch the lookahead invariant allows for nodes whose
    /// clock period is `period`.
    ///
    /// Derivation: `Simulator::run_until(deadline)` stops at the first
    /// edge at or after the deadline, so a node can overshoot an epoch
    /// boundary by strictly less than one period, and the runner drains
    /// a link's wire up to that overshoot edge. A frame drained at barrier
    /// `k` therefore left its wire after epoch `k − 1` ended
    /// (`ready_at > end_{k−1}`) and arrives at `ready_at + delay`; the
    /// destination, which the barrier finds before `end_k + period`, next
    /// steps less than `end_k + 2·period`. With `epoch + 2·period ≤ delay`
    /// for every link the frame lands strictly after that edge, where the
    /// receiving MAC would first look for it anyway. This returns
    /// `min_delay − 2·period`, saturating at zero when no safe epoch
    /// exists.
    pub fn max_safe_epoch(&self, period: Time) -> Time {
        let l = self.min_delay().unwrap_or(Time::from_ms(1_000));
        l.saturating_sub(Time::from_ps(2 * period.as_ps()))
    }

    /// Panic unless every link references valid nodes, carries a positive
    /// delay, and has its ports to itself: one cable per port. A second
    /// link leaving a port would find its wire drained by the first; a
    /// second one entering it would interleave two links' frames on one
    /// wire out of time order.
    pub fn validate(&self) {
        let mut leaving = HashMap::new();
        let mut entering = HashMap::new();
        for (i, l) in self.links.iter().enumerate() {
            assert!(
                l.from_node < self.nnodes && l.to_node < self.nnodes,
                "link {i} references node out of range: {l:?}"
            );
            assert!(
                l.delay > Time::ZERO,
                "link {i} needs a positive delay (lookahead): {l:?}"
            );
            if let Some(j) = leaving.insert((l.from_node, l.from_port), i) {
                panic!("link {i} leaves the port link {j} leaves (one cable per port): {l:?}");
            }
            if let Some(j) = entering.insert((l.to_node, l.to_port), i) {
                panic!("link {i} enters the port link {j} enters (one cable per port): {l:?}");
            }
        }
    }

    /// Indices of links originating at `node`, in link order.
    pub fn links_from(&self, node: usize) -> Vec<usize> {
        (0..self.links.len())
            .filter(|&i| self.links[i].from_node == node)
            .collect()
    }

    /// Indices of links terminating at `node`, in link order.
    pub fn links_into(&self, node: usize) -> Vec<usize> {
        (0..self.links.len())
            .filter(|&i| self.links[i].to_node == node)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplex_adds_both_directions() {
        let t = FabricTopology::new(2).duplex(0, 1, 1, 0, Time::from_us(1));
        assert_eq!(t.links.len(), 2);
        assert_eq!(t.links_from(0), vec![0]);
        assert_eq!(t.links_into(0), vec![1]);
        assert_eq!(t.min_delay(), Some(Time::from_us(1)));
        t.validate();
    }

    #[test]
    fn max_safe_epoch_subtracts_two_periods() {
        let t = FabricTopology::new(2).link(0, 0, 1, 0, Time::from_ns(1000));
        let period = Time::from_ns(5);
        assert_eq!(t.max_safe_epoch(period), Time::from_ns(990));
    }

    #[test]
    #[should_panic(expected = "positive delay")]
    fn zero_delay_link_rejected() {
        FabricTopology::new(2)
            .link(0, 0, 1, 0, Time::ZERO)
            .validate();
    }

    #[test]
    #[should_panic(expected = "link 1 leaves the port link 0 leaves")]
    fn two_links_leaving_one_port_rejected() {
        FabricTopology::new(3)
            .link(0, 1, 1, 0, Time::from_us(1))
            .link(0, 1, 2, 0, Time::from_us(1))
            .validate();
    }

    #[test]
    #[should_panic(expected = "link 1 enters the port link 0 enters")]
    fn two_links_entering_one_port_rejected() {
        FabricTopology::new(3)
            .link(0, 1, 2, 0, Time::from_us(1))
            .link(1, 1, 2, 0, Time::from_us(1))
            .validate();
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_link_rejected() {
        FabricTopology::new(2)
            .link(0, 0, 2, 0, Time::from_us(1))
            .validate();
    }
}
