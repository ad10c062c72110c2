//! Size as a measured quantity: the product's line count per crate, and
//! DESIGN.md's, against the table below. A change that moves either
//! number edits the table, so its before/after sits in the diff.
//!
//! The product is `src/` plus `crates/*/src`, without the dev-only test
//! kit (`crates/testkit`) and the offline stand-ins (`crates/compat`);
//! each `.rs` file counts up to its first `#[cfg(test)]` line, so the
//! in-file unit tests are not product.

use std::path::Path;

/// Product lines per crate directory, `src` being the facade.
const PRODUCT: &[(&str, usize)] = &[
    ("src", 104),
    ("crates/baselines", 836),
    ("crates/bench", 3082),
    ("crates/cli", 2112),
    ("crates/core", 3250),
    ("crates/daemon", 839),
    ("crates/embedding", 1527),
    ("crates/graph", 3045),
    ("crates/scenarios", 1322),
    ("crates/sim", 962),
    ("crates/topologies", 216),
    ("crates/traffic", 1904),
];

/// The sum of [`PRODUCT`], the number ROADMAP.md tracks.
const PRODUCT_TOTAL: usize = 19_199;

/// Lines of DESIGN.md.
const DESIGN_LINES: usize = 2_607;

/// Crate directories that are not product.
const NOT_PRODUCT: &[&str] = &["crates/testkit", "crates/compat"];

/// Lines of a source file before its first `#[cfg(test)]`.
fn product_lines(text: &str) -> usize {
    text.lines().take_while(|line| !line.trim_start().starts_with("#[cfg(test)]")).count()
}

/// Product lines of every `.rs` file under `dir`.
fn lines_under(dir: &Path) -> usize {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).expect("readable directory") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            total += lines_under(&path);
        } else if path.extension().is_some_and(|e| e == "rs") {
            total += product_lines(&std::fs::read_to_string(&path).expect("UTF-8 source"));
        }
    }
    total
}

/// The product's crate directories, as `/`-separated paths from the
/// root, and each one's count.
fn measured(root: &Path) -> Vec<(String, usize)> {
    let mut crates = vec![("src".to_string(), lines_under(&root.join("src")))];
    for entry in std::fs::read_dir(root.join("crates")).expect("a crates directory") {
        let dir = entry.expect("directory entry").path();
        let name = format!("crates/{}", dir.file_name().and_then(|n| n.to_str()).expect("UTF-8"));
        if dir.join("src").is_dir() && !NOT_PRODUCT.contains(&name.as_str()) {
            crates.push((name, lines_under(&dir.join("src"))));
        }
    }
    crates.sort();
    crates
}

#[test]
fn the_product_and_design_md_are_the_size_the_table_says() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let crates = measured(root);
    let mut table: Vec<(String, usize)> =
        PRODUCT.iter().map(|&(c, n)| (c.to_string(), n)).collect();
    table.sort();
    let total: usize = crates.iter().map(|(_, n)| n).sum();
    let rows: String = crates.iter().map(|(c, n)| format!("    (\"{c}\", {n}),\n")).collect();
    assert_eq!(crates, table, "product lines per crate (total {total}); the table is now:\n{rows}");
    assert_eq!(total, PRODUCT_TOTAL, "the product is {total} lines");
    let design =
        std::fs::read_to_string(root.join("DESIGN.md")).expect("DESIGN.md").lines().count();
    assert_eq!(design, DESIGN_LINES, "DESIGN.md is {design} lines");
}

#[test]
fn a_file_counts_up_to_its_first_test_module() {
    assert_eq!(product_lines("fn a() {}\n\n#[cfg(test)]\nmod tests {}\n#[cfg(test)]\n"), 2);
    assert_eq!(product_lines("    #[cfg(test)]\nfn a() {}\n"), 0);
    assert_eq!(product_lines("fn a() {}\nfn b() {}"), 2);
}
