//! Fixture-driven tests: every rule fails on its violating sample and stays
//! quiet on its clean one, waivers parse in both positions, and the
//! string/comment cases never false-positive. Fixtures live under
//! `tests/fixtures/` and are scanned under a fake kernel-path location so
//! every rule is in scope.

use std::fs;
use std::path::{Path, PathBuf};

use sledlint::{scan_source, Finding};

/// Scanned-as path: a kernel crate's src/, where every rule applies.
const KERNEL_PATH: &str = "crates/fs/src/fixture.rs";

fn fixture(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn scan_fixture(name: &str) -> Vec<Finding> {
    scan_source(KERNEL_PATH, &fixture(name))
}

#[test]
fn every_rule_fires_on_violating_and_not_on_clean() {
    for rule in [
        "D001", "D002", "D003", "D004", "D005", "D006", "D007", "D009", "D013",
    ] {
        let lower = rule.to_lowercase();
        let bad = scan_fixture(&format!("{lower}_violating.rs"));
        assert!(
            !bad.is_empty(),
            "{rule}: violating sample produced no findings"
        );
        assert!(
            bad.iter().all(|f| f.rule == rule),
            "{rule}: violating sample produced other rules too: {bad:?}"
        );
        let good = scan_fixture(&format!("{lower}_clean.rs"));
        assert!(
            good.is_empty(),
            "{rule}: clean sample produced findings: {good:?}"
        );
    }
}

#[test]
fn violating_samples_report_the_expected_count() {
    // Spot-check multiplicity so a rule can't pass by firing once on a file
    // with several violations.
    assert_eq!(scan_fixture("d001_violating.rs").len(), 3);
    assert_eq!(scan_fixture("d002_violating.rs").len(), 2);
    assert_eq!(scan_fixture("d003_violating.rs").len(), 4);
    assert_eq!(scan_fixture("d004_violating.rs").len(), 2);
    assert_eq!(scan_fixture("d005_violating.rs").len(), 4);
    assert_eq!(scan_fixture("d006_violating.rs").len(), 4);
    assert_eq!(scan_fixture("d007_violating.rs").len(), 1);
    assert_eq!(scan_fixture("d009_violating.rs").len(), 4);
    assert_eq!(scan_fixture("d013_violating.rs").len(), 2);
}

#[test]
fn a_waiver_for_a_rule_now_carried_by_a_type_is_malformed() {
    // D008, D010–D012 and D014 left the rule table when their invariants
    // became types; a leftover waiver naming one must be loud, not silent.
    for code in ["D008", "D010", "D011", "D012", "D014"] {
        assert!(sledlint::rules::RULES.iter().all(|r| r.code != code));
        let src = format!("// sledlint::allow({code}, carried over)\nfn f() {{}}\n");
        let rules: Vec<&str> = scan_source(KERNEL_PATH, &src)
            .iter()
            .map(|f| f.rule)
            .collect();
        assert_eq!(rules, ["W001"], "{code}");
    }
    assert_eq!(sledlint::rules::RULES.len(), 11);
}

#[test]
fn waivers_suppress_in_both_positions() {
    let f = scan_fixture("waivers.rs");
    assert!(f.is_empty(), "waived findings leaked: {f:?}");
}

#[test]
fn waiver_without_reason_is_malformed_and_suppresses_nothing() {
    let f = scan_fixture("waiver_malformed.rs");
    let rules: Vec<&str> = f.iter().map(|f| f.rule).collect();
    assert!(rules.contains(&"W001"), "missing W001 in {rules:?}");
    assert!(rules.contains(&"D007"), "missing D007 in {rules:?}");
}

#[test]
fn unused_waiver_is_flagged() {
    let f = scan_fixture("waiver_unused.rs");
    assert_eq!(f.len(), 1, "expected exactly W002: {f:?}");
    assert_eq!(f[0].rule, "W002");
}

#[test]
fn strings_comments_and_lifetimes_do_not_false_positive() {
    let f = scan_fixture("false_positives.rs");
    assert!(f.is_empty(), "false positives: {f:?}");
}

#[test]
fn scope_exempts_bench_and_tests() {
    let src = fixture("d001_violating.rs");
    assert!(scan_source("crates/bench/src/micro.rs", &src).is_empty());
    let src = fixture("d005_violating.rs");
    assert!(scan_source("crates/fs/tests/kernel.rs", &src).is_empty());
    assert!(!scan_source("crates/fs/src/kernel.rs", &src).is_empty());
}

#[test]
fn workspace_is_clean() {
    // The acceptance gate, as a test: the tree this crate ships in has zero
    // unwaived findings.
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let root = sledlint::find_workspace_root(&manifest).expect("workspace root");
    let (files, findings) = sledlint::scan_workspace(&root).expect("scan");
    assert!(files > 50, "suspiciously few files scanned: {files}");
    assert!(
        findings.is_empty(),
        "workspace has unwaived findings:\n{}",
        findings
            .iter()
            .map(Finding::render)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn walk_covers_examples_and_tests_with_the_relaxed_profile() {
    // The walk reaches beyond crates/*/src: examples and integration tests
    // are scanned too, under the relaxed non-kernel profile — kernel-only
    // rules (D005, D013) are out of scope there, determinism rules (D003)
    // still apply.
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let root = sledlint::find_workspace_root(&manifest).expect("workspace root");
    let files = sledlint::workspace_files(&root).expect("walk");
    assert!(
        files.iter().any(|f| f.starts_with("examples/")),
        "walk misses examples/: {files:?}"
    );
    assert!(
        files.iter().any(|f| f.contains("/tests/")),
        "walk misses tests/: {files:?}"
    );

    let src = fixture("d013_violating.rs");
    assert!(
        scan_source("crates/fs/tests/kernel.rs", &src).is_empty(),
        "the flow rule must relax outside kernel src"
    );
    assert!(
        scan_source("examples/walkthrough.rs", &src).is_empty(),
        "the flow rule must relax in examples"
    );
    let src = fixture("d003_violating.rs");
    assert!(
        !scan_source("examples/walkthrough.rs", &src).is_empty(),
        "determinism rules still apply in examples"
    );
}

#[test]
fn fixture_dir_is_excluded_from_workspace_scan() {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let root = sledlint::find_workspace_root(&manifest).expect("workspace root");
    let marker = Path::new("crates/sledlint/tests/fixtures/d006_violating.rs");
    assert!(root.join(marker).is_file(), "fixture moved?");
    let (_, findings) = sledlint::scan_workspace(&root).expect("scan");
    assert!(findings
        .iter()
        .all(|f| !f.path.starts_with("crates/sledlint/tests/fixtures/")));
}

#[test]
fn trace_crate_is_kernel_path_and_clean() {
    // The tracer runs inside syscalls, so `crates/trace/src` is a kernel
    // path: the wall-clock rule (and the other kernel rules) must be in
    // scope there, and the shipped sources must satisfy them with no
    // waivers. `EventPhase::Mark` exists precisely so the crate never
    // needs a D001 waiver for a domain name.
    let src = fixture("d001_violating.rs");
    let f = scan_source("crates/trace/src/fixture.rs", &src);
    assert!(
        f.iter().any(|f| f.rule == "D001"),
        "D001 must apply under crates/trace/src: {f:?}"
    );
    let src = fixture("d005_violating.rs");
    assert!(
        !scan_source("crates/trace/src/fixture.rs", &src).is_empty(),
        "D005 must apply under crates/trace/src"
    );

    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let root = sledlint::find_workspace_root(&manifest).expect("workspace root");
    let dir = root.join("crates/trace/src");
    let mut scanned = 0;
    for entry in fs::read_dir(&dir).expect("read crates/trace/src") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_none_or(|e| e != "rs") {
            continue;
        }
        let rel = format!(
            "crates/trace/src/{}",
            path.file_name().expect("name").to_string_lossy()
        );
        let src = fs::read_to_string(&path).expect("read source");
        let f = scan_source(&rel, &src);
        assert!(f.is_empty(), "{rel} has findings: {f:?}");
        assert!(
            !src.contains("sledlint::allow"),
            "{rel} must stay waiver-free"
        );
        scanned += 1;
    }
    assert!(scanned >= 8, "expected the tracer's modules, got {scanned}");
}
