//! Usage errors of the `report` bin exit 2 with the usage line before any
//! sweep runs.

use std::process::Command;

#[test]
fn flags_without_their_mode_are_usage_errors() {
    let out_path =
        std::env::temp_dir().join(format!("htvm-report-cli-{}.json", std::process::id()));
    let out_arg = out_path.to_str().expect("temp path is utf-8");
    for args in [
        // `--deploy` picks the configuration of a `--from-file` model; on
        // its own it used to be ignored by a full sweep.
        vec!["--deploy", "digital"],
        vec!["--calibration", "CALIBRATION.json"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_report"))
            .args(&args)
            .args(["--quiet", "--out", out_arg])
            .output()
            .expect("report runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.starts_with("usage: report"), "{args:?}: {stderr}");
        assert!(!out_path.exists(), "{args:?} wrote a report");
    }
}
