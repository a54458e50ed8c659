//! Every `BENCH_*.json` at the repository root must name, in its
//! `generated_by` command, a report bin that still exists — a file whose
//! bin is gone can no longer be regenerated, so its numbers go stale.

use std::path::Path;

#[test]
fn every_bench_file_names_an_existing_report_bin() {
    let crate_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut checked = 0;
    for entry in std::fs::read_dir(crate_dir.join("../..")).expect("the repository root lists") {
        let path = entry.expect("a directory entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or_default().to_owned();
        if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("a BENCH file reads");
        let command = text
            .lines()
            .find_map(|line| line.trim().strip_prefix("\"generated_by\": \""))
            .unwrap_or_else(|| panic!("{name} has no generated_by command"));
        let bin = command.split("--bin ").nth(1).and_then(|rest| rest.split(['"', ' ']).next());
        let bin = bin.unwrap_or_else(|| panic!("{name}'s generated_by names no bin: {command}"));
        assert!(
            crate_dir.join("src/bin").join(format!("{bin}.rs")).is_file(),
            "{name} was generated by `{bin}`, which is not a bin under crates/bench/src/bin/: \
             regenerate the file with a bin that exists, or delete it"
        );
        checked += 1;
    }
    assert!(checked > 0, "no BENCH_*.json found at the repository root");
}
