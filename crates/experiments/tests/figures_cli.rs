//! `figures --tsv FILE` writes the TSV of the one table sweep selected
//! (`--registry`, `--ksweep` or `--tiered`); with none or several
//! selected it is a usage error that writes nothing, and so is a figure
//! number outside 9–13.

use std::process::Command;

fn figures() -> Command {
    Command::new(env!("CARGO_BIN_EXE_figures"))
}

#[test]
fn tsv_needs_exactly_one_table_sweep() {
    let tsv = std::env::temp_dir().join("figures-cli-test.tsv");
    std::fs::remove_file(&tsv).ok();
    for selection in [
        &["--registry", "--ksweep"][..],
        &["--ksweep", "--tiered"],
        &["--all"],
        &[],
        &["--fig", "9"],
    ] {
        let out = figures()
            .args(selection)
            .args(["--tsv", tsv.to_str().unwrap()])
            .output()
            .expect("run figures");
        assert_eq!(out.status.code(), Some(2), "{selection:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("--tsv needs exactly one of"),
            "{selection:?}"
        );
        assert!(!tsv.exists(), "{selection:?} wrote the TSV");
    }

    let out = figures()
        .args(["--registry", "--tsv", tsv.to_str().unwrap()])
        .output()
        .expect("run figures");
    assert_eq!(out.status.code(), Some(0));
    let expected = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/registry_expected.tsv"
    );
    assert_eq!(
        std::fs::read_to_string(&tsv).unwrap(),
        std::fs::read_to_string(expected).unwrap()
    );
    std::fs::remove_file(&tsv).ok();
}

#[test]
fn fig_takes_only_the_papers_figures() {
    let dir = std::env::temp_dir().join(format!("figures-cli-fig-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    for fig in ["14", "8", "0", "nine"] {
        let out = figures()
            .args(["--fig", fig, "--json", dir.to_str().unwrap()])
            .output()
            .expect("run figures");
        assert_eq!(out.status.code(), Some(2), "--fig {fig}");
        assert!(
            out.stdout.is_empty(),
            "--fig {fig} did work before refusing"
        );
        assert!(
            String::from_utf8_lossy(&out.stderr)
                .starts_with(&format!("error: bad --fig value {fig}")),
            "--fig {fig}"
        );
        assert!(!dir.exists(), "--fig {fig} wrote {}", dir.display());
    }
}
