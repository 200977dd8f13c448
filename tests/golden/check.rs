//! The compare/bless step every stdout golden shares.
//!
//! `crates/bench/tests/golden_quick.rs` (the `repro` surfaces) and
//! `crates/ckpt/tests/golden_aicctl.rs` (the `aicctl` surfaces) include
//! this file with `#[path]`. [`check`] runs a binary, and compares its
//! stdout byte for byte against `tests/golden/<name>.txt` at the
//! workspace root; on a mismatch the failure prints the diverging lines.
//! With `BLESS=1` in the environment it rewrites the file instead
//! (OPERATIONS.md §3: read the diff first, and explain every changed line).

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

fn golden_path(name: &str) -> PathBuf {
    // Both including crates sit at `crates/<name>`.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(format!("{name}.txt"))
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

/// Run `bin args…` and compare its stdout with `tests/golden/<name>.txt`
/// (or rewrite that file under `BLESS=1`). The run must exit 0.
pub fn check(bin: &str, name: &str, args: &[&str]) {
    let stem = Path::new(bin)
        .file_stem()
        .unwrap_or_default()
        .to_string_lossy();
    let shown = format!("{stem} {}", args.join(" "));
    let out = Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("{shown} does not start: {e}"));
    assert!(
        out.status.success(),
        "{shown} failed ({}):\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let actual = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    let path = golden_path(name);

    if std::env::var_os("BLESS").is_some() {
        fs::write(&path, &actual).unwrap();
        eprintln!("blessed {}", path.display());
        return;
    }

    let expected = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); bless it with BLESS=1 (OPERATIONS.md §3)",
            path.display()
        )
    });
    assert!(
        expected == actual,
        "{shown} drifted from {}:\n{}",
        path.display(),
        diff_report(&expected, &actual)
    );
}
