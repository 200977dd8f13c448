//! Golden pins for the deterministic `aicctl` surfaces.
//!
//! Each test runs the `aicctl` binary on one command line and compares
//! its stdout byte for byte against `tests/golden/<name>.txt` at the
//! workspace root (the shared step in `tests/golden/check.rs`). `faults`
//! injects one failure at level L mid-run and recovers it, with the
//! synchronous commit path and with a write-behind L3 drain of depth 2;
//! `stats` prints one run's deterministic metric table. All of it runs on
//! the virtual clock.
//!
//! To re-bless after an *intentional* change (OPERATIONS.md §3: read the
//! diff first, and explain every changed line):
//!
//! ```text
//! BLESS=1 cargo test --release -p aic-ckpt --test golden_aicctl
//! ```

#[path = "../../../tests/golden/check.rs"]
mod golden;

fn aicctl(name: &str, args: &[&str]) {
    golden::check(env!("CARGO_BIN_EXE_aicctl"), name, args);
}

/// `aicctl faults --level L --seed 2 --secs 24`, plus `--write-behind 2`
/// when `write_behind` is set.
fn faults(level: &str, write_behind: bool) {
    let mut args = vec!["faults", "--level", level, "--seed", "2", "--secs", "24"];
    let mut name = format!("aicctl_faults_l{level}");
    if write_behind {
        args.extend(["--write-behind", "2"]);
        name.push_str("_wb2");
    }
    aicctl(&name, &args);
}

#[test]
fn faults_l1() {
    faults("1", false);
}

#[test]
fn faults_l1_write_behind() {
    faults("1", true);
}

#[test]
fn faults_l2() {
    faults("2", false);
}

#[test]
fn faults_l2_write_behind() {
    faults("2", true);
}

#[test]
fn faults_l3() {
    faults("3", false);
}

#[test]
fn faults_l3_write_behind() {
    faults("3", true);
}

#[test]
fn stats() {
    aicctl("aicctl_stats", &["stats", "--secs", "24", "--seed", "3"]);
}
