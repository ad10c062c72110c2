//! Size as a measured quantity: the product's line count per crate, the
//! test kit's and DESIGN.md's, against the table below. A change that
//! moves any of them edits the table, so its before/after sits in the
//! diff: code moved from the product to the kit reads as product −N
//! and kit +M.
//!
//! The product is `src/` plus `crates/*/src`, without the dev-only test
//! kit (`crates/testkit`) and the offline stand-ins (`crates/compat`);
//! each `.rs` file counts up to its first `#[cfg(test)]` at column 0,
//! its test module, so the in-file unit tests are not product. An
//! indented one guards a single statement and the file goes on.
//!
//! The census beside it holds every `pub fn` of the product to a caller
//! outside tests — product code, a bench, an example or `benchmark/` —
//! or to a line of [`TEST_ONLY`] saying why tests alone may call it.

use std::collections::HashSet;
use std::path::Path;

/// Product lines per crate directory, `src` being the facade.
const PRODUCT: &[(&str, usize)] = &[
    ("src", 101),
    ("crates/baselines", 680),
    ("crates/bench", 3795),
    ("crates/cli", 2118),
    ("crates/core", 3101),
    ("crates/daemon", 1339),
    ("crates/embedding", 1224),
    ("crates/graph", 2897),
    ("crates/scenarios", 1258),
    ("crates/topologies", 201),
    ("crates/traffic", 1816),
];

/// The sum of [`PRODUCT`], the number ROADMAP.md tracks.
const PRODUCT_TOTAL: usize = 18_530;

/// Lines of the dev-only test kit's sources (`crates/testkit/src`),
/// counted by the product's rule.
const KIT: usize = 2_093;

/// Lines of DESIGN.md.
const DESIGN_LINES: usize = 1_500;

/// Crate directories that are not product.
const NOT_PRODUCT: &[&str] = &["crates/testkit", "crates/compat"];

/// Lines of a source file before its test module, the first
/// `#[cfg(test)]` at column 0 — the line the census stops at too.
fn product_lines(text: &str) -> usize {
    text.lines().take_while(|line| !test_module(line)).count()
}

/// Whether `line` opens a product file's test module.
fn test_module(line: &str) -> bool {
    line.starts_with("#[cfg(test)]")
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
    let kit = lines_under(&root.join("crates/testkit/src"));
    assert_eq!(kit, KIT, "the test kit is {kit} lines");
    let design =
        std::fs::read_to_string(root.join("DESIGN.md")).expect("DESIGN.md").lines().count();
    assert_eq!(design, DESIGN_LINES, "DESIGN.md is {design} lines");
}

#[test]
fn a_file_counts_up_to_its_first_test_module() {
    assert_eq!(product_lines("fn a() {}\n\n#[cfg(test)]\nmod tests {}\n#[cfg(test)]\n"), 2);
    assert_eq!(product_lines("    #[cfg(test)]\nfn a() {}\n"), 2);
    assert_eq!(product_lines("fn a() {}\nfn b() {}"), 2);
}

/// Product `pub fn`s that no product code, bench, example or the
/// benchmark harness names, kept because tests need them:
/// `(file, fn, why)`. An entry whose fn is gone, or has found a caller,
/// fails the census as well, so the list never outlives its reasons.
#[rustfmt::skip]
const TEST_ONLY: &[(&str, &str, &str)] = &[
    ("crates/baselines/src/lfa.rs", "coverage", "tests read RFC 5286's coverage metric off LFA's private alternate table"),
    ("crates/baselines/src/notvia.rs", "protection_coverage", "tests read not-via's single-failure coverage off its private detour table"),
    ("crates/daemon/src/server.rs", "wait_for_addr_file", "the daemon's integration tests wait for a started daemon's addresses"),
    ("crates/daemon/src/twin.rs", "failed_set", "test-only accessor: the equivalence tests rebuild a twin's failed set cold"),
    ("crates/daemon/src/twin.rs", "uniform", "the daemon's tests start twins on unit demand, which works on any graph"),
    ("crates/embedding/src/embedding.rs", "complementary_cycle", "the paper's Table 1 tests read each dart's complementary cycle"),
    ("crates/graph/src/generators.rs", "ring", "the crates' own unit tests build rings, and a unit test cannot link the kit"),
    ("crates/scenarios/src/impairments.rs", "is_identity", "tests check which knobs impair nothing"),
    ("crates/traffic/src/replay.rs", "link_loads", "test-only accessor: the load vector is held to the oracle's, not only its peak"),
];

/// Directories whose sources are callers besides the product: the
/// examples and the benchmark harness (each crate's `benches` too).
const CALLERS: &[&str] = &["examples", "benchmark/src"];

/// Every `.rs` file under `dir`, skipping build output.
fn sources(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            if !path.ends_with("target") && !path.ends_with("out") {
                sources(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// What the census reads of a source: the text without comments,
/// string and char literals or `use` items. A product file is read up
/// to its test module, as [`product_lines`] counts it.
fn census_code(text: &str, product: bool) -> String {
    let mut kept = String::new();
    let mut in_use = false;
    for line in text.lines() {
        if product && test_module(line) {
            break;
        }
        let trimmed = line.trim_start();
        let trimmed =
            trimmed.strip_prefix("pub(crate) ").or(trimmed.strip_prefix("pub ")).unwrap_or(trimmed);
        if in_use || trimmed.starts_with("use ") {
            in_use = !line.trim_end().ends_with(';');
            continue;
        }
        kept.push_str(line);
        kept.push('\n');
    }
    let mut code = String::with_capacity(kept.len());
    let mut chars = kept.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '/' if chars.peek() == Some(&'/') => {
                chars.by_ref().take_while(|&c| c != '\n').for_each(drop);
                code.push('\n');
            }
            '/' if chars.peek() == Some(&'*') => {
                let mut last = ' ';
                for c in chars.by_ref() {
                    if last == '*' && c == '/' {
                        break;
                    }
                    last = c;
                }
                code.push(' ');
            }
            '"' => {
                let mut escaped = false;
                for c in chars.by_ref() {
                    match (escaped, c) {
                        (false, '\\') => escaped = true,
                        (false, '"') => break,
                        _ => escaped = false,
                    }
                }
                code.push_str("\"\"");
            }
            // A char literal ('x', '\n'); a lifetime has no closing quote.
            '\'' => {
                let ahead: Vec<char> = chars.clone().take(3).collect();
                let skip = match ahead.as_slice() {
                    ['\\', _, '\''] => 3,
                    [_, '\'', ..] => 2,
                    _ => 0,
                };
                chars.by_ref().take(skip).for_each(drop);
                code.push(' ');
            }
            c => code.push(c),
        }
    }
    code
}

/// The identifiers `code` names in call or path position — `name(`,
/// `name::<` or `::name`, so a method call `.name(` too — without those
/// a `fn` defines. A name seen only as a binding, a type or a field is
/// not a call: `let exhaustive = ..` and `self.k` call no `exhaustive`
/// and no `k`.
fn named(code: &str, out: &mut HashSet<String>) {
    let mut previous = "";
    let mut rest = code;
    while let Some(start) = rest.find(|c: char| c.is_ascii_alphabetic() || c == '_') {
        let before = rest[..start].trim_end();
        let word_len = rest[start..]
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .unwrap_or(rest.len() - start);
        let word = &rest[start..start + word_len];
        let after = rest[start + word_len..].trim_start();
        let called = after.starts_with('(') || after.starts_with("::<") || before.ends_with("::");
        if called && previous != "fn" {
            out.insert(word.to_string());
        }
        previous = word;
        rest = &rest[start + word_len..];
    }
}

/// The `pub fn`s a product file defines.
fn public_fns(code: &str) -> Vec<String> {
    code.lines()
        .filter_map(|line| {
            let rest = line.trim_start().strip_prefix("pub ")?;
            let rest =
                ["const ", "unsafe "].iter().fold(rest, |r, q| r.strip_prefix(q).unwrap_or(r));
            let name = rest.strip_prefix("fn ")?;
            Some(name.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_')).next()?.to_string())
        })
        .collect()
}

#[test]
fn every_public_product_fn_has_a_caller_outside_tests() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let relative = |p: &Path| {
        p.strip_prefix(root).expect("under the root").to_string_lossy().replace('\\', "/")
    };
    let mut product = Vec::new();
    for (dir, _) in measured(root) {
        sources(&root.join(&dir).join(if dir == "src" { "" } else { "src" }), &mut product);
    }
    let mut callers = Vec::new();
    for dir in CALLERS {
        sources(&root.join(dir), &mut callers);
    }
    for entry in std::fs::read_dir(root.join("crates")).expect("a crates directory") {
        sources(&entry.expect("directory entry").path().join("benches"), &mut callers);
    }
    let read = |p: &Path| std::fs::read_to_string(p).expect("UTF-8 source");
    let mut names = HashSet::new();
    let mut defined = Vec::new();
    for file in &product {
        let code = census_code(&read(file), true);
        named(&code, &mut names);
        defined.extend(public_fns(&code).into_iter().map(|f| (relative(file), f)));
    }
    for file in &callers {
        named(&census_code(&read(file), false), &mut names);
    }
    assert!(defined.len() > 450, "only {} pub fns: the census lost the product", defined.len());
    let uncalled: Vec<String> = defined
        .iter()
        .filter(|(file, f)| {
            !names.contains(f) && !TEST_ONLY.iter().any(|&(t, g, _)| (t, g) == (file, f))
        })
        .map(|(file, f)| format!("{file}: pub fn {f}"))
        .collect();
    assert!(uncalled.is_empty(), "pub fns only tests call, if any:\n{}", uncalled.join("\n"));
    let stale: Vec<String> = TEST_ONLY
        .iter()
        .filter(|&&(file, f, _)| {
            names.contains(f) || !defined.iter().any(|(d, g)| (d.as_str(), g.as_str()) == (file, f))
        })
        .map(|(file, f, _)| format!("{file}: {f}"))
        .collect();
    assert!(stale.is_empty(), "test-only entries gone or called now:\n{}", stale.join("\n"));
}

#[test]
fn the_census_reads_code_not_comments_strings_or_imports() {
    let text = "use a::{lonely,\n    also};\n/// calls docs()\nfn own() { called(\"quoted\"); } // trailing()\n\
                let c = '\"'; after();\npub fn kept() {}\n\
                let exhaustive = Exhaustive::new(x.field, y.method(), z::path, t::<u8>, g::<u8>());\n\
                #[cfg(test)]\nfn tested() { own() }\n";
    let mut names = HashSet::new();
    named(&census_code(text, true), &mut names);
    for seen in ["called", "after", "new", "method", "path", "t", "g"] {
        assert!(names.contains(seen), "{seen}");
    }
    let unseen = ["lonely", "also", "docs", "own", "quoted", "trailing", "kept", "tested", "c"];
    for unseen in
        unseen.into_iter().chain(["exhaustive", "Exhaustive", "field", "x", "y", "z", "u8"])
    {
        assert!(!names.contains(unseen), "{unseen}");
    }
    assert_eq!(public_fns(&census_code(text, true)), ["kept"]);
}
