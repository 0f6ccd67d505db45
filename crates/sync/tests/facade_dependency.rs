//! Only the facade may depend on `parking_lot` or `crossbeam`. In real
//! builds `mt_sync::Mutex` *is* `parking_lot::Mutex`, so no type-based lint
//! can tell a direct use from a facade use; the dependency edge can. A
//! member that named either crate could lock around the facade, where the
//! `mt_check` model checker never sees the lock.

use std::fs;
use std::path::Path;

/// The crates only `mt-sync` may name.
const RAW: [&str; 2] = ["parking_lot", "crossbeam"];

/// The lines of `manifest`'s dependency tables (`[dependencies]`,
/// `[dev-dependencies]`, `[build-dependencies]`, their `target.…` forms and
/// `[dependencies.<name>]` subtables; not `[workspace.dependencies]`) that
/// name a [`RAW`] crate.
fn raw_dependencies(manifest: &str) -> Vec<String> {
    let mut in_dependencies = false;
    let mut found = Vec::new();
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('#') {
            continue;
        }
        if let Some(table) = line.strip_prefix('[') {
            let table = table.trim_matches(|c| c == '[' || c == ']').trim();
            in_dependencies = !table.starts_with("workspace")
                && table.split('.').any(|part| {
                    matches!(part, "dependencies" | "dev-dependencies" | "build-dependencies")
                });
        }
        if in_dependencies && RAW.iter().any(|name| line.contains(name)) {
            found.push(line.to_string());
        }
    }
    found
}

/// This crate's directory, `crates/sync`.
fn facade_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

#[test]
fn only_the_facade_depends_on_parking_lot_or_crossbeam() {
    let crates = facade_dir().parent().expect("crates/");
    let root = crates.parent().expect("the workspace root");
    let mut manifests = vec![root.join("Cargo.toml")];
    for entry in fs::read_dir(crates).expect("crates/ is readable") {
        let manifest = entry.expect("directory entry").path().join("Cargo.toml");
        if manifest.is_file() && !manifest.starts_with(facade_dir()) {
            manifests.push(manifest);
        }
    }
    assert!(manifests.len() > 10, "found only {manifests:?}");
    let offenders: Vec<String> = manifests
        .iter()
        .flat_map(|m| {
            raw_dependencies(&read(m)).into_iter().map(move |l| format!("{}: {l}", m.display()))
        })
        .collect();
    assert!(
        offenders.is_empty(),
        "only crates/sync may depend on {RAW:?}; synchronize through mt-sync instead:\n{}",
        offenders.join("\n")
    );
}

/// The scan is not blind: it finds the facade's own two edges.
#[test]
fn the_scan_sees_the_facade_edges() {
    let facade = read(&facade_dir().join("Cargo.toml"));
    assert_eq!(raw_dependencies(&facade).len(), RAW.len(), "{facade}");
}
