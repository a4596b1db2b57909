//! The serving bins' command lines: `--help` / `-h` print the usage text
//! to stdout and succeed, while an unknown flag fails with exit code 2
//! and a one-line error plus the usage on stderr.

use std::process::Command;

const BINS: [&str; 2] = [env!("CARGO_BIN_EXE_vpnm-serve"), env!("CARGO_BIN_EXE_vpnm-loadgen")];

#[test]
fn help_prints_usage_and_exits_zero() {
    for bin in BINS {
        for flag in ["--help", "-h"] {
            let out = Command::new(bin).arg(flag).output().expect("bin runs");
            assert_eq!(out.status.code(), Some(0), "{bin} {flag}");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(stdout.starts_with("usage: "), "{bin} {flag}: {stdout}");
            assert!(out.stderr.is_empty(), "{bin} {flag}: help goes to stdout");
        }
    }
}

#[test]
fn unknown_flag_exits_two_with_an_error() {
    for bin in BINS {
        let out = Command::new(bin).arg("--no-such-flag").output().expect("bin runs");
        assert_eq!(out.status.code(), Some(2), "{bin}");
        assert!(out.stdout.is_empty(), "{bin}: errors go to stderr");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.starts_with("error: unrecognized argument '--no-such-flag'\nusage: "),
            "{bin}: {stderr}"
        );
    }
}
