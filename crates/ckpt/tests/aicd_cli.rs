//! `aicd` rejects flag values that would panic or wedge it.
//!
//! `--slots 0` and `--cores 0` trip `run_service`'s asserts in simulated
//! mode, and `--slots 0` in wall-clock mode serves a fleet whose every
//! JOIN waits forever on admission. `--overlap` above 100 is not a
//! percentage. Each must end the process with exit 1 and an `error:`
//! line, in both modes, well before the deadline; a child still running
//! at the deadline is killed and fails the test.

use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

const DEADLINE: Duration = Duration::from_secs(5);

fn socket_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("aicd-cli-{}-{tag}.sock", std::process::id()))
}

fn assert_rejected(args: &[&str]) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_aicd"))
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("aicd starts");
    let start = Instant::now();
    while child.try_wait().expect("poll aicd").is_none() {
        if start.elapsed() > DEADLINE {
            child.kill().expect("kill aicd");
            child.wait().expect("reap aicd");
            panic!("aicd {args:?} still running after {DEADLINE:?}");
        }
        thread::sleep(Duration::from_millis(20));
    }
    let out = child.wait_with_output().expect("collect aicd stderr");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "aicd {args:?}:\n{stderr}");
    assert!(
        stderr.lines().any(|l| l.starts_with("error:")),
        "aicd {args:?} printed no error line:\n{stderr}"
    );
}

/// Check `flag value` in simulated mode and in wall-clock mode.
fn assert_rejected_in_both_modes(flag: &str, value: &str) {
    assert_rejected(&[flag, value]);
    let sock = socket_path(&flag[2..]);
    let sock_str = sock.to_str().expect("UTF-8 temp path");
    assert_rejected(&["--wallclock", "--socket", sock_str, flag, value]);
    let _ = std::fs::remove_file(&sock);
}

#[test]
fn zero_slots_is_rejected() {
    assert_rejected_in_both_modes("--slots", "0");
}

#[test]
fn zero_cores_is_rejected() {
    assert_rejected_in_both_modes("--cores", "0");
}

#[test]
fn overlap_above_100_is_rejected() {
    assert_rejected_in_both_modes("--overlap", "101");
}
