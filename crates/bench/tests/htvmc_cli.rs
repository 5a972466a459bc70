//! `htvmc --from-file` refuses a model file the importer refuses: a
//! typed message and exit 2, never a panic in the simulator.

use std::process::Command;

#[test]
fn a_cast_not_proven_in_range_is_refused_before_it_runs() {
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../frontend/tests/fixtures/unproven_narrowing.htf"
    );
    for deploy in ["cpu_tvm", "digital"] {
        let out = Command::new(env!("CARGO_BIN_EXE_htvmc"))
            .args(["--from-file", fixture, "--deploy", deploy])
            .output()
            .expect("htvmc runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{deploy}: {stderr}");
        assert!(
            stderr.contains("not proven to fit i8") && !stderr.contains("panicked"),
            "{deploy}: {stderr}"
        );
    }
}
