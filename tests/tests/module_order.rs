//! The order modules are registered in is the order they tick within an
//! edge, so it is part of every project's timing. Each build's
//! `module_ticks()` names, in registration order, are pinned here; the
//! builds themselves are `netfpga_integration::builds`.

use netfpga_integration::builds::project_chassis;

/// The edge MACs of a four-port chassis, registered first by every build.
const MACS: &str = "mac0_rx mac0_tx mac1_rx mac1_tx mac2_rx mac2_tx mac3_rx mac3_tx";
/// The fault plane of a plan with a recovery policy, right after the MACs.
const RECOVERY: &str = "fault_injector pcs0 pcs1 pcs2 pcs3 ecc_scrub";

#[test]
fn project_module_order_is_pinned() {
    let want = [
        (
            "switch",
            format!("{MACS} input_arbiter rx_stats switch_lookup output_queues mmio"),
        ),
        (
            "switch_flowmon",
            format!(
                "{MACS} flow_exporter input_arbiter rx_stats switch_lookup flow_tap \
                 output_queues mmio"
            ),
        ),
        (
            "switch_fast_path",
            format!("{MACS} input_arbiter rx_stats switch_lookup output_queues mmio"),
        ),
        (
            "switch_recovery",
            format!("{MACS} {RECOVERY} input_arbiter rx_stats switch_lookup output_queues mmio"),
        ),
        (
            "router",
            format!("{MACS} input_arbiter router_lookup output_queues dma mmio"),
        ),
        (
            "blueswitch",
            format!("{MACS} input_arbiter match_action output_queues dma mmio"),
        ),
        (
            "nic_fast_path",
            format!("{MACS} input_arbiter rx_stats output_queues dma mmio"),
        ),
        (
            "nic_recovery",
            format!("{MACS} {RECOVERY} input_arbiter rx_stats output_queues dma watchdog mmio"),
        ),
        (
            "osnt",
            "mac0_rx mac0_tx mac1_rx mac1_tx osnt_gen0 osnt_cap0 osnt_gen1 osnt_cap1 mmio".into(),
        ),
    ];
    let got: Vec<(&str, String)> = project_chassis()
        .into_iter()
        .map(|(label, chassis)| {
            let names: Vec<String> = chassis
                .sim
                .module_ticks()
                .into_iter()
                .map(|(n, _)| n)
                .collect();
            (label, names.join(" "))
        })
        .collect();
    assert_eq!(got.len(), want.len());
    for ((label, names), (want_label, want_names)) in got.iter().zip(&want) {
        assert_eq!(label, want_label);
        assert_eq!(names, want_names, "{label}");
    }
}
