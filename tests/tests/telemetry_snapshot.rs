//! Every project's whole telemetry tree, pinned: for each build of
//! `netfpga_integration::builds` after its fixed traffic, every
//! `telemetry.snapshot()` path and value must equal the fixture, captured
//! on a known commit. A change to how a count is kept must leave what it
//! counts alone.

use netfpga_core::pktbuf::with_fresh_pool;
use netfpga_integration::builds::{drive, project_chassis};

const FIXTURE: &str = include_str!("fixtures/telemetry_snapshot.golden");

#[test]
fn project_telemetry_snapshots_are_pinned() {
    let actual: Vec<String> = project_chassis()
        .into_iter()
        .flat_map(|(label, mut chassis)| {
            // The buffer pool's counts are per thread: count this run only.
            let snapshot = with_fresh_pool(|| {
                drive(&mut chassis);
                chassis.telemetry.snapshot()
            });
            snapshot
                .into_iter()
                .map(move |(path, value)| format!("{label} {path} = {value}"))
        })
        .collect();
    let want: Vec<&str> = FIXTURE
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .collect();
    if actual != want {
        // Capture: run against an empty fixture and paste what this prints.
        panic!(
            "snapshots differ from the fixture:\n{}\n",
            actual
                .iter()
                .map(|l| {
                    let mark = if want.contains(&l.as_str()) {
                        ""
                    } else {
                        "   # differs"
                    };
                    format!("{l}{mark}")
                })
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
