//! The documents name only what the tree holds: every backticked repo
//! path in DESIGN.md, README.md and the verify skill resolves — as a
//! file or directory from the repo root, or as the suffix of a file in
//! the tree (`tests/kernel.rs`, `alloc_sweep.rs`). A brace form
//! (`benches/{a,b}.rs`) stands for each of its expansions, a `*` for
//! any run of characters within one path component, and a Rust item
//! after a path (`x.rs::test_name`) is not part of it. What no checkout
//! holds — generated output — is in [`GENERATED`].

use std::path::Path;

/// The documents checked, from the repo root.
const DOCS: [&str; 3] = ["DESIGN.md", "README.md", ".claude/skills/verify/SKILL.md"];

/// Paths a run writes rather than the tree holds: a path equal to one
/// of these, or under one ending in `/`, is not looked up.
const GENERATED: &[&str] = &["results/", "target/", "manifest.json"];

/// Directories the tree walk skips: build output, run output, history.
const SKIPPED: &[&str] = &[".git", "target", "results", "out", ".bench_build"];

/// Extensions that make a backticked word a file name.
const EXTENSIONS: &[&str] = &["rs", "md", "json", "toml", "yml", "topo", "csv", "lock"];

/// Every file under `dir`, as `/`-separated paths relative to `root`.
fn files(root: &Path, dir: &Path, out: &mut Vec<String>) {
    for entry in std::fs::read_dir(dir).expect("readable directory") {
        let path = entry.expect("directory entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).expect("UTF-8 file name");
        if path.is_dir() {
            if !SKIPPED.contains(&name) {
                files(root, &path, out);
            }
        } else {
            let relative = path.strip_prefix(root).expect("under the root");
            out.push(relative.to_str().expect("UTF-8 path").replace('\\', "/"));
        }
    }
}

/// The inline code spans of a Markdown text, with the line each starts
/// on; fenced blocks are not inline code.
fn code_spans(text: &str) -> Vec<(usize, String)> {
    let mut prose = String::new();
    let mut fenced = false;
    for line in text.lines() {
        fenced ^= line.trim_start().starts_with("```");
        prose.push_str(if fenced || line.trim_start().starts_with("```") { "" } else { line });
        prose.push('\n');
    }
    let mut spans = Vec::new();
    let mut rest = prose.as_str();
    while let Some(open) = rest.find('`') {
        let Some(close) = rest[open + 1..].find('`') else { break };
        let line = prose[..prose.len() - rest.len() + open].matches('\n').count() + 1;
        spans.push((line, rest[open + 1..open + 1 + close].to_string()));
        rest = &rest[open + close + 2..];
    }
    spans
}

/// The repo path a code span names, if it names one: a word of path
/// characters with a `/` in it or a known extension, not absolute.
fn as_path(span: &str) -> Option<&str> {
    let path = span.split("::").next().unwrap_or(span);
    let path_char = |c: char| c.is_ascii_alphanumeric() || "_-./{},*".contains(c);
    if path.is_empty() || path.starts_with(['/', '.', '-']) || !path.chars().all(path_char) {
        return None;
    }
    let extension = path.rsplit_once('.').map(|(stem, ext)| (!stem.is_empty(), ext));
    let named_file = extension.is_some_and(|(stem, ext)| stem && EXTENSIONS.contains(&ext));
    (named_file || path.contains('/')).then_some(path)
}

/// `path` with its first brace group expanded, recursively.
fn expand(path: &str) -> Vec<String> {
    let (Some(open), Some(close)) = (path.find('{'), path.find('}')) else {
        return vec![path.to_string()];
    };
    let (head, tail) = (&path[..open], &path[close + 1..]);
    path[open + 1..close].split(',').flat_map(|alt| expand(&format!("{head}{alt}{tail}"))).collect()
}

/// Whether `text` matches `pattern`, a `*` standing for any run of
/// characters other than `/`.
fn matches(pattern: &str, text: &str) -> bool {
    match pattern.split_once('*') {
        None => pattern == text,
        Some((head, tail)) => text.strip_prefix(head).is_some_and(|rest| {
            let run = rest.find('/').unwrap_or(rest.len());
            (0..=run).filter(|&i| rest.is_char_boundary(i)).any(|i| matches(tail, &rest[i..]))
        }),
    }
}

/// Whether `path` names a file or directory of the tree: from the root,
/// or as the suffix of a file — every suffix starting at a component,
/// and every directory on the way down it.
fn resolves(path: &str, tree: &[String]) -> bool {
    let path = path.trim_end_matches('/');
    tree.iter().any(|file| {
        let starts = std::iter::once(0).chain(file.match_indices('/').map(|(i, _)| i + 1));
        starts
            .flat_map(|start| {
                let suffix = &file[start..];
                let ends = suffix.match_indices('/').map(|(i, _)| i).chain([suffix.len()]);
                ends.map(move |end| &suffix[..end])
            })
            .any(|candidate| matches(path, candidate))
    })
}

fn generated(path: &str) -> bool {
    GENERATED.iter().any(|g| path == *g || (g.ends_with('/') && path.starts_with(g)))
}

#[test]
fn every_backticked_repo_path_in_the_docs_resolves() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut tree = Vec::new();
    files(root, root, &mut tree);
    let mut unresolved = Vec::new();
    let mut checked = 0;
    for doc in DOCS {
        let text = std::fs::read_to_string(root.join(doc)).expect("a checked document");
        for (line, span) in code_spans(&text) {
            let Some(path) = as_path(&span) else { continue };
            if generated(path) {
                continue;
            }
            for expanded in expand(path) {
                checked += 1;
                if !resolves(&expanded, &tree) {
                    unresolved.push(format!("{doc}:{line}: `{span}` ({expanded})"));
                }
            }
        }
    }
    assert!(checked > 100, "only {checked} paths checked: the scanner lost the docs");
    assert!(unresolved.is_empty(), "paths that name nothing:\n{}", unresolved.join("\n"));
}

#[test]
fn the_resolver_tells_a_stale_path_from_a_live_one() {
    let tree: Vec<String> =
        ["crates/bench/tests/kernel.rs", "crates/bench/benches/walks.rs", "BENCH_seed.json"]
            .map(String::from)
            .into();
    for live in ["tests/kernel.rs", "kernel.rs", "crates/bench", "crates/bench/", "BENCH_*.json"] {
        assert!(resolves(live, &tree), "{live}");
    }
    for stale in ["tests/walks.rs", "ench/tests/kernel.rs", "crates/be", "BENCH_*.csv"] {
        assert!(!resolves(stale, &tree), "{stale}");
    }
    assert_eq!(expand("benches/{walks,tables}.rs"), ["benches/walks.rs", "benches/tables.rs"]);
    let spans = code_spans("a `x.rs` b\n```sh\n`not.rs`\n```\n`crates/y`::z `two words`");
    let paths: Vec<_> = spans.iter().filter_map(|(_, s)| as_path(s)).collect();
    assert_eq!(paths, ["x.rs", "crates/y"]);
    assert_eq!(as_path("kernel.rs::a_test"), Some("kernel.rs"));
    for not_a_path in ["/metrics", "--threads", ".topo", "pr_core::walk_packet", "1 / 2"] {
        assert_eq!(as_path(not_a_path), None, "{not_a_path}");
    }
}
