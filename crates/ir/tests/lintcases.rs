//! Seeded-defect lint fixtures: `programs/lintcases/slNNN.ir`.
//!
//! Each fixture declares the one rule it seeds in an `; expect: SLNNN`
//! header. The contract is exact: linting the fixture yields exactly
//! one diagnostic, of exactly that rule and of the severity the
//! catalogue (`lint::RULES`) gives it, and every catalogued rule has
//! its fixture — and on the shipping `programs/*.ir` kernels none of
//! the rules fires at all, except SL004 in its downgraded
//! (pipeline-folds-this) info form.

use semtm_ir::lint::{lint_function, Severity, RULES};
use semtm_ir::parser::parse_function_spanned;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// The catalogued rule ids, sorted.
fn rule_ids() -> Vec<&'static str> {
    let mut ids: Vec<&str> = RULES.iter().map(|r| r.0).collect();
    ids.sort_unstable();
    ids
}

fn lintcases_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../programs/lintcases")
}

fn fixtures() -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = std::fs::read_dir(lintcases_dir())
        .expect("programs/lintcases exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "ir"))
        .map(|p| {
            let src = std::fs::read_to_string(&p).expect("readable fixture");
            (p.file_name().unwrap().to_string_lossy().into_owned(), src)
        })
        .collect();
    out.sort();
    out
}

/// The `; expect: SLNNN` header of a fixture.
fn expected_rule(src: &str) -> &str {
    src.lines()
        .find_map(|l| l.trim().strip_prefix("; expect:"))
        .expect("fixture declares an `; expect:` rule")
        .trim()
}

#[test]
fn every_seeded_fixture_fires_exactly_its_rule() {
    let fixtures = fixtures();
    let rules = rule_ids();
    assert_eq!(
        fixtures.len(),
        rules.len(),
        "one fixture per catalogued rule"
    );
    let mut seen: Vec<&str> = Vec::new();
    for (name, src) in &fixtures {
        let expect = expected_rule(src);
        let (func, map) = parse_function_spanned(src)
            .unwrap_or_else(|e| panic!("{name}: parse error: {}", e.message));
        let diags = lint_function(&func, Some(&map));
        let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
        for d in &diags {
            *counts.entry(d.rule).or_insert(0) += 1;
        }
        assert_eq!(
            counts,
            BTreeMap::from([(expect, 1)]),
            "{name}: expected exactly one {expect} and nothing else, got {diags:?}"
        );
        let catalogued = RULES
            .iter()
            .find(|r| r.0 == expect)
            .unwrap_or_else(|| panic!("{name}: {expect} is not in RULES"))
            .1;
        assert_eq!(
            diags[0].severity, catalogued,
            "{name}: {expect} emitted at a severity RULES does not give it"
        );
        seen.push(diags[0].rule);
    }
    seen.sort_unstable();
    assert_eq!(seen, rules, "every catalogued rule has its fixture");
}

#[test]
fn seeded_rules_never_fire_on_shipping_kernels() {
    for (path, src) in semtm_ir::programs::sources() {
        let (func, map) = parse_function_spanned(src).expect("builtin parses");
        let diags = lint_function(&func, Some(&map));
        for d in &diags {
            // The pre-pass kernels deliberately carry duplicate loads
            // the pipeline folds — SL004 may appear, but only in its
            // downgraded info form (so `--deny warnings` stays green).
            if d.rule == "SL004" {
                assert_eq!(
                    d.severity,
                    Severity::Info,
                    "{path}: unfoldable duplicate load in a shipping kernel: {d:?}"
                );
                continue;
            }
            assert!(
                !rule_ids().contains(&d.rule),
                "{path}: seeded rule fired on a shipping kernel: {d:?}"
            );
        }
    }
}
