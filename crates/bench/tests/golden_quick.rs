//! Golden pins for the deterministic quick `repro` surfaces.
//!
//! Each test runs the `repro` binary on one quick command line and
//! compares its stdout byte for byte against `tests/golden/<name>.txt` at
//! the workspace root (the shared step in `tests/golden/check.rs`). Every
//! pinned surface is computed on the virtual clock, so a diff is a
//! behaviour change, never noise, and the bytes do not depend on the
//! host's core count. On a mismatch the failure prints the diverging
//! lines.
//!
//! To re-bless after an *intentional* change (OPERATIONS.md §3: read the
//! diff first, and explain every changed line):
//!
//! ```text
//! BLESS=1 cargo test --release -p aic-bench --test golden_quick
//! ```

#[path = "../../../tests/golden/check.rs"]
mod golden;

fn repro(name: &str, args: &[&str]) {
    golden::check(env!("CARGO_BIN_EXE_repro"), name, args);
}

/// `repro <exp> --quick` against `tests/golden/<exp>_quick.txt`.
fn quick(exp: &str) {
    repro(&format!("{exp}_quick"), &[exp, "--quick"]);
}

#[test]
fn pool_quick() {
    quick("pool");
}

#[test]
fn fig11_quick() {
    quick("fig11");
}

#[test]
fn fig12_quick() {
    quick("fig12");
}

#[test]
fn table3_quick() {
    quick("table3");
}

#[test]
fn ablation_quick() {
    quick("ablation");
}

#[test]
fn regret_quick() {
    quick("regret");
}

#[test]
fn mpi_quick() {
    quick("mpi");
}

#[test]
fn table1_quick() {
    quick("table1");
}

#[test]
fn fig2_quick() {
    quick("fig2");
}

#[test]
fn fig5_quick() {
    quick("fig5");
}

#[test]
fn fig6_quick() {
    quick("fig6");
}

#[test]
fn fig7_quick() {
    quick("fig7");
}

#[test]
fn validate_quick() {
    quick("validate");
}

#[test]
fn sharing_quick() {
    quick("sharing");
}

#[test]
fn faults_quick_csv() {
    repro("faults_quick_csv", &["faults", "--quick", "--csv"]);
}

#[test]
fn drain_quick() {
    quick("drain");
}

#[test]
fn compact_quick_crash2() {
    repro(
        "compact_quick_crash2",
        &["compact", "--quick", "--crash", "2"],
    );
}

#[test]
fn fleet_quick_csv() {
    repro("fleet_quick_csv", &["fleet", "--quick", "--csv"]);
}
