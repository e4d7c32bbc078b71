//! `dpmc` rejects out-of-range flags with a one-line error that names the
//! flag (exit status 1) instead of panicking (status 101), and keeps
//! accepting more than 64 disks where nothing needs a 64-bit disk mask.

use std::path::PathBuf;
use std::process::{Command, Output};

/// 72 stripe units of data at the default 32 KB unit, so a 72-disk
/// striping places some of it on disks 64..71.
const PROGRAM: &str = "program flags;
array A[576][512] : f64;
nest L { for i = 0 .. 575 { for j = 0 .. 511 { A[i][j] = A[i][j] + 1; } } }
";

/// A `.dpm` source file that lives as long as the value.
struct Source(PathBuf);

impl Source {
    fn new(tag: &str) -> Source {
        let path = std::env::temp_dir().join(format!("dpmc-{tag}-{}.dpm", std::process::id()));
        std::fs::write(&path, PROGRAM).unwrap();
        Source(path)
    }
}

impl Drop for Source {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn dpmc(command: &str, src: &Source, flags: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dpmc"))
        .arg(command)
        .arg(&src.0)
        .args(flags)
        .output()
        .unwrap()
}

#[test]
fn out_of_range_flags_exit_1_naming_the_flag() {
    let src = Source::new("bad");
    let cases: &[(&str, &[&str], &str)] = &[
        ("analyze", &["--disks", "0"], "--disks"),
        ("analyze", &["--stripe", "0"], "--stripe"),
        ("analyze", &["--start", "8"], "--start"),
        ("trace", &["--disks", "4", "--start", "4"], "--start"),
        (
            "trace",
            &["--procs", "0", "--transform", "parallel"],
            "--procs",
        ),
        (
            "simulate",
            &["--procs", "0", "--transform", "parallel-aware"],
            "--procs",
        ),
        (
            "trace",
            &["--disks", "72", "--transform", "reuse"],
            "--disks",
        ),
        (
            "trace",
            &["--disks", "72", "--transform", "parallel"],
            "--disks",
        ),
        (
            "simulate",
            &["--disks", "72", "--transform", "parallel-aware"],
            "--disks",
        ),
        ("emit", &["--disks", "72"], "--disks"),
    ];
    for &(command, flags, flag) in cases {
        let out = dpmc(command, &src, flags);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(1),
            "dpmc {command} {flags:?}: want exit 1, stderr:\n{stderr}"
        );
        assert_eq!(
            stderr.lines().count(),
            1,
            "dpmc {command} {flags:?}: want one line, got:\n{stderr}"
        );
        assert!(
            stderr.starts_with(flag),
            "dpmc {command} {flags:?}: stderr does not name {flag}:\n{stderr}"
        );
    }
}

#[test]
fn more_than_64_disks_stay_legal_without_disk_masks() {
    let src = Source::new("wide");
    for (command, flags) in [
        ("analyze", &["--disks", "72"][..]),
        ("emit", &["--disks", "72", "--symbolic"]),
        ("trace", &["--disks", "72", "--transform", "original"]),
        ("simulate", &["--disks", "72", "--transform", "original"]),
    ] {
        let out = dpmc(command, &src, flags);
        assert!(
            out.status.success(),
            "dpmc {command} {flags:?}: {:?}\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
    }
}
