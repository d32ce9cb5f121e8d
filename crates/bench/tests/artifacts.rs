//! The committed `BENCH_*.json` artifacts are pure functions of the commit:
//! CI regenerates them and requires `git diff` to be empty. That only works
//! while no column depends on the host, so host-time columns are refused
//! here, where `cargo test` runs and CI does not.

use netfpga_bench::json::Value;

/// Columns that once carried wall-clock figures. Host time belongs to the
/// referee (`benchmark/`), never to an artifact.
const HOST_TIME_COLUMNS: [&str; 9] = [
    "wall_ms",
    "work_ms",
    "stall_ms",
    "stall_share",
    "edges_per_sec",
    "frames_per_sec",
    "ns_per_frame",
    "speedup",
    "cores",
];

#[test]
fn artifacts_are_tables_of_exact_columns() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut seen = 0;
    for entry in std::fs::read_dir(&root).expect("workspace root") {
        let path = entry.expect("directory entry").path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
            continue;
        }
        seen += 1;
        let text = std::fs::read_to_string(&path).expect("readable artifact");
        let doc = Value::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let Value::Array(rows) = doc else {
            panic!("{name}: not an array");
        };
        assert!(!rows.is_empty(), "{name}: no rows");
        for row in &rows {
            assert!(
                matches!(row, Value::Object(_)) && row["table"].as_str().is_some(),
                "{name}: every row is an object naming its table: {row}"
            );
            for column in HOST_TIME_COLUMNS {
                assert!(
                    row.get(column).is_none(),
                    "{name}: host-time column {column:?} in {row}"
                );
            }
        }
    }
    assert!(seen > 0, "no BENCH_*.json at the workspace root");
}
