//! Coverage test for the workspace's environment flags.
//!
//! `gisolap_obs::config` is the single registry of `GISOLAP_*` runtime
//! knobs; this test keeps the registry, the docs and the one literal
//! copy outside the registry (the vendored rayon shim) in sync:
//!
//! 1. every flag in `config::ALL` is documented — name *and* stated
//!    default — in README.md or OBSERVABILITY.md, and every
//!    `GISOLAP_*` name the docs mention is in `config::ALL` (so no doc
//!    row outlives the flag it describes);
//! 2. the rayon shim's hand-written `"GISOLAP_THREADS"` literal matches
//!    `config::THREADS.name` (the shim mirrors the real crate's
//!    independence, so it cannot link against `gisolap-obs`);
//! 3. registry entries are well-formed (non-empty docs/defaults).

use gisolap_obs::config;

#[test]
fn every_flag_is_documented() {
    let readme = include_str!("../../README.md");
    let obs = include_str!("../../OBSERVABILITY.md");
    for flag in config::ALL {
        assert!(
            readme.contains(flag.name) || obs.contains(flag.name),
            "flag `{}` is in config::ALL but neither README.md nor \
             OBSERVABILITY.md mentions it",
            flag.name
        );
    }
    let docs = [
        ("README.md", readme),
        ("OBSERVABILITY.md", obs),
        ("DESIGN.md", include_str!("../../DESIGN.md")),
        ("docs/indexing.md", include_str!("../../docs/indexing.md")),
        ("EXPERIMENTS.md", include_str!("../../EXPERIMENTS.md")),
    ];
    for (file, text) in docs {
        for name in flag_names(text) {
            assert!(
                config::ALL.iter().any(|f| f.name == name),
                "{file} mentions `{name}`, which is not in config::ALL"
            );
        }
    }
}

/// Every `GISOLAP_[A-Z0-9_]+` name in `text` (the bare `GISOLAP_*`
/// family wildcard names no flag and is skipped).
fn flag_names(text: &str) -> Vec<&str> {
    const PREFIX: &str = "GISOLAP_";
    text.match_indices(PREFIX)
        .map(|(at, _)| {
            let tail = &text[at + PREFIX.len()..];
            let len = tail
                .find(|c: char| !(c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_'))
                .unwrap_or(tail.len());
            &text[at..at + PREFIX.len() + len]
        })
        .filter(|name| name.len() > PREFIX.len())
        .collect()
}

#[test]
fn rayon_shim_literal_matches_registry() {
    // The shim reads the variable by a literal string (it predates the
    // registry and must stay dependency-free); pin the two together so a
    // rename in either place fails loudly.
    let shim = include_str!("../../shims/rayon/src/lib.rs");
    assert!(
        shim.contains(&format!("\"{}\"", config::THREADS.name)),
        "shims/rayon reads a different variable than config::THREADS ({})",
        config::THREADS.name
    );
}

#[test]
fn registry_entries_are_well_formed() {
    for flag in config::ALL {
        assert!(flag.name.starts_with("GISOLAP_"), "{}", flag.name);
        assert!(!flag.doc.is_empty(), "{} has no doc", flag.name);
        assert!(!flag.default.is_empty(), "{} has no default", flag.name);
    }
}
