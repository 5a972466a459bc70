//! Usage errors of the `httpd` bin exit 2 before anything is bound.

use std::process::Command;

#[test]
fn megabyte_flags_that_overflow_are_usage_errors() {
    for flag in ["--cache-mb", "--max-body-mb"] {
        // The unbindable address keeps a regression (a wrapped shift
        // that parses fine) from starting a daemon the test would wait on.
        let out = Command::new(env!("CARGO_BIN_EXE_httpd"))
            .args([flag, &usize::MAX.to_string(), "--addr", "not-an-address"])
            .output()
            .expect("httpd runs");
        assert_eq!(out.status.code(), Some(2), "{flag}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(flag) && stderr.contains("too large"),
            "{stderr}"
        );
    }
}

#[test]
fn zero_counts_that_disable_the_service_are_usage_errors() {
    for flag in ["--workers", "--tenant-quota", "--max-connections"] {
        let out = Command::new(env!("CARGO_BIN_EXE_httpd"))
            .args([flag, "0", "--addr", "not-an-address"])
            .output()
            .expect("httpd runs");
        assert_eq!(out.status.code(), Some(2), "{flag}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(flag) && stderr.contains("must be positive"),
            "{stderr}"
        );
    }
    // Zero is a setting, not a disabled service, for these two: they
    // get past parsing and fail only on the unbindable address.
    for flag in ["--cache-mb", "--queue-budget"] {
        let out = Command::new(env!("CARGO_BIN_EXE_httpd"))
            .args([flag, "0", "--addr", "not-an-address"])
            .output()
            .expect("httpd runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("cannot bind"), "{flag}: {stderr}");
    }
}
