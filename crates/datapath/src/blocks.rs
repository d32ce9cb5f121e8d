//! The resource-cost catalogue: approximate synthesis cost of each
//! building block, calibrated against published NetFPGA reference-design
//! utilization reports. Experiment E7 sums these per project to compare
//! design utilization, the comparison §1 of the paper says block reuse
//! enables.

use netfpga_core::resources::ResourceCost;

/// Cost of one 10G MAC + PHY wrapper instance.
pub const MAC_10G: ResourceCost = ResourceCost {
    luts: 2_500,
    ffs: 3_500,
    bram_kbits: 72,
    dsps: 0,
};

/// Cost of the PCIe endpoint + DMA engine.
pub const PCIE_DMA: ResourceCost = ResourceCost {
    luts: 14_000,
    ffs: 18_000,
    bram_kbits: 1_152,
    dsps: 0,
};

/// Cost of the MMIO/register interconnect.
pub const REG_INTERCONNECT: ResourceCost = ResourceCost {
    luts: 1_200,
    ffs: 1_500,
    bram_kbits: 0,
    dsps: 0,
};

/// Cost of one N-to-1 input arbiter (N = 5: four ports + DMA).
pub const INPUT_ARBITER: ResourceCost = ResourceCost {
    luts: 2_000,
    ffs: 2_400,
    bram_kbits: 288,
    dsps: 0,
};

/// Cost of the reference NIC's trivial lookup (port pairing).
pub const NIC_LOOKUP: ResourceCost = ResourceCost {
    luts: 300,
    ffs: 400,
    bram_kbits: 0,
    dsps: 0,
};

/// Cost of the learning-switch lookup (hash table + learning logic).
pub const SWITCH_LOOKUP: ResourceCost = ResourceCost {
    luts: 3_500,
    ffs: 3_000,
    bram_kbits: 576,
    dsps: 0,
};

/// Cost of the router lookup (LPM + ARP + TTL/checksum).
pub const ROUTER_LOOKUP: ResourceCost = ResourceCost {
    luts: 7_000,
    ffs: 6_000,
    bram_kbits: 1_440,
    dsps: 0,
};

/// Cost of one output-queues instance (per port, BRAM-buffered).
pub const OUTPUT_QUEUES_PER_PORT: ResourceCost = ResourceCost {
    luts: 1_200,
    ffs: 1_400,
    bram_kbits: 432,
    dsps: 0,
};

/// Cost of a scheduler beyond FIFO (DRR/WFQ arithmetic).
pub const SCHEDULER_EXTRA: ResourceCost = ResourceCost {
    luts: 900,
    ffs: 700,
    bram_kbits: 18,
    dsps: 2,
};

/// Cost of one BlueSwitch match-action table (TCAM slice + action RAM).
pub const MATCH_ACTION_TABLE: ResourceCost = ResourceCost {
    luts: 9_000,
    ffs: 5_000,
    bram_kbits: 864,
    dsps: 0,
};

/// Cost of OSNT's timestamping unit.
pub const TIMESTAMP_UNIT: ResourceCost = ResourceCost {
    luts: 800,
    ffs: 1_200,
    bram_kbits: 0,
    dsps: 0,
};

/// Cost of OSNT's rate-controlled generator core.
pub const GENERATOR_CORE: ResourceCost = ResourceCost {
    luts: 4_000,
    ffs: 3_500,
    bram_kbits: 720,
    dsps: 4,
};

/// Cost of OSNT's capture/filter core.
pub const CAPTURE_CORE: ResourceCost = ResourceCost {
    luts: 3_000,
    ffs: 2_800,
    bram_kbits: 1_008,
    dsps: 0,
};

/// Cost of a statistics stage.
pub const STATS_STAGE: ResourceCost = ResourceCost {
    luts: 600,
    ffs: 900,
    bram_kbits: 0,
    dsps: 0,
};

/// Cost of a rate limiter (token bucket).
pub const RATE_LIMITER: ResourceCost = ResourceCost {
    luts: 700,
    ffs: 800,
    bram_kbits: 0,
    dsps: 1,
};

/// Cost of a delay stage (packet buffer + timer).
pub const DELAY_STAGE: ResourceCost = ResourceCost {
    luts: 500,
    ffs: 600,
    bram_kbits: 288,
    dsps: 0,
};

#[cfg(test)]
mod tests {
    use super::*;
    use netfpga_core::board::BoardSpec;

    /// A fully-populated reference-router-class design must fit the SUME
    /// device with room to spare (the real one uses well under half).
    #[test]
    fn router_class_design_fits_sume() {
        let total = MAC_10G.times(4)
            + PCIE_DMA
            + REG_INTERCONNECT
            + INPUT_ARBITER
            + ROUTER_LOOKUP
            + OUTPUT_QUEUES_PER_PORT.times(5)
            + STATS_STAGE;
        let sume = BoardSpec::sume();
        assert!(total.fits(&sume.resources), "{total}");
        let util = total.utilization(&sume.resources);
        assert!(util[0] < 0.25, "LUT utilization {:.1}%", util[0] * 100.0);
    }

    /// The same design must NOT fit arbitrarily small budgets — the cost
    /// model has teeth.
    #[test]
    fn costs_are_nonzero() {
        for c in [
            MAC_10G,
            PCIE_DMA,
            INPUT_ARBITER,
            SWITCH_LOOKUP,
            ROUTER_LOOKUP,
            MATCH_ACTION_TABLE,
            GENERATOR_CORE,
            CAPTURE_CORE,
        ] {
            assert!(c.luts > 0 && c.ffs > 0);
        }
    }

    /// Ordering sanity: router lookup > switch lookup > NIC lookup.
    #[test]
    fn lookup_complexity_ordering() {
        let costs = [ROUTER_LOOKUP.luts, SWITCH_LOOKUP.luts, NIC_LOOKUP.luts];
        assert!(costs.windows(2).all(|w| w[0] > w[1]), "{costs:?}");
    }
}
