//! Golden pins for the deterministic quick `repro` surfaces.
//!
//! Each test runs the `repro` binary with `<exp> --quick` and compares its
//! stdout byte for byte against `tests/golden/<exp>_quick.txt` at the
//! workspace root. Every pinned surface is computed on the virtual clock,
//! so a diff is a behaviour change, never noise. On a mismatch the failure
//! prints the diverging lines.
//!
//! To re-bless after an *intentional* change (OPERATIONS.md §3: read the
//! diff first, and explain every changed line):
//!
//! ```text
//! BLESS=1 cargo test --release -p aic-bench --test golden_quick
//! ```

use std::fs;
use std::path::PathBuf;
use std::process::Command;

fn golden_path(exp: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(format!("{exp}_quick.txt"))
}

/// Line diff of the first few diverging lines, readable in a CI log.
fn diff_report(expected: &str, actual: &str) -> String {
    let (exp, act): (Vec<&str>, Vec<&str>) = (expected.lines().collect(), actual.lines().collect());
    let mut out = String::new();
    let diverging = (0..exp.len().max(act.len())).filter(|&i| exp.get(i) != act.get(i));
    for i in diverging.take(8) {
        out.push_str(&format!(
            "line {}:\n  golden: {}\n  actual: {}\n",
            i + 1,
            exp.get(i).unwrap_or(&"<missing>"),
            act.get(i).unwrap_or(&"<missing>")
        ));
    }
    if exp.len() != act.len() {
        out.push_str(&format!(
            "line counts differ: golden {}, actual {}\n",
            exp.len(),
            act.len()
        ));
    }
    out
}

fn check(exp: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args([exp, "--quick"])
        .output()
        .expect("repro runs");
    assert!(
        out.status.success(),
        "repro {exp} --quick failed ({}):\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let actual = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    let path = golden_path(exp);

    if std::env::var_os("BLESS").is_some() {
        fs::write(&path, &actual).unwrap();
        eprintln!("blessed {}", path.display());
        return;
    }

    let expected = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); bless it with \
             `BLESS=1 cargo test -p aic-bench --test golden_quick`",
            path.display()
        )
    });
    assert!(
        expected == actual,
        "repro {exp} --quick drifted from {}:\n{}",
        path.display(),
        diff_report(&expected, &actual)
    );
}

#[test]
fn pool_quick() {
    check("pool");
}

#[test]
fn fig11_quick() {
    check("fig11");
}

#[test]
fn fig12_quick() {
    check("fig12");
}

#[test]
fn table3_quick() {
    check("table3");
}

#[test]
fn ablation_quick() {
    check("ablation");
}

#[test]
fn regret_quick() {
    check("regret");
}

#[test]
fn mpi_quick() {
    check("mpi");
}
