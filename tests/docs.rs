//! The documents name only what the tree holds: every backticked repo
//! path in DESIGN.md, README.md and the verify skill resolves — as a
//! file or directory from the repo root, or as the suffix of a file in
//! the tree (`tests/kernel.rs`, `alloc_sweep.rs`). A brace form
//! (`benches/{a,b}.rs`) stands for each of its expansions, and a `*` for
//! any run of characters within one path component. A Rust item after
//! a path (`x.rs::test_name`) must be a `fn` of the file the path
//! names, and a bare `::test_name` — the claims ledger's continuation
//! form — one of the last path named on its line. What no checkout
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
        suffixes(file)
            .flat_map(|suffix| {
                let ends = suffix.match_indices('/').map(|(i, _)| i).chain([suffix.len()]);
                ends.map(move |end| &suffix[..end])
            })
            .any(|candidate| matches(path, candidate))
    })
}

/// Every suffix of `file` that starts at a path component, the whole
/// path first.
fn suffixes(file: &str) -> impl Iterator<Item = &str> {
    let starts = std::iter::once(0).chain(file.match_indices('/').map(|(i, _)| i + 1));
    starts.map(move |start| &file[start..])
}

/// The item a span names after a path, `x.rs::item` (`None`: no item,
/// or not a Rust identifier). A longer item path names its last
/// segment.
fn as_item(span: &str) -> Option<&str> {
    let item = span.split_once("::")?.1.rsplit("::").next()?;
    let ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    (!item.is_empty() && item.chars().all(ident)).then_some(item)
}

/// Whether some file of `tree` that `path` names — from the root, or
/// as a suffix starting at a component — defines `fn item`; `read`
/// gives a file's text.
fn defines(path: &str, item: &str, tree: &[String], read: impl Fn(&str) -> String) -> bool {
    let spelled = format!("fn {item}");
    tree.iter().filter(|file| suffixes(file).any(|suffix| matches(path, suffix))).any(|file| {
        let text = read(file);
        let mut at = text.match_indices(&spelled).map(|(i, _)| i + spelled.len());
        at.any(|end| text[end..].starts_with(['(', '<']))
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
    let read = |file: &str| std::fs::read_to_string(root.join(file)).expect("a readable file");
    let mut unresolved = Vec::new();
    let (mut checked, mut items) = (0, 0);
    for doc in DOCS {
        let text = read(doc);
        // The last path named on the current line, for `::item` spans.
        let mut last: Option<(usize, String)> = None;
        for (line, span) in code_spans(&text) {
            let path = match (as_path(&span), span.strip_prefix("::")) {
                (Some(path), _) => path.to_string(),
                (None, Some(_)) => match &last {
                    Some((at, path)) if *at == line => path.clone(),
                    _ => {
                        unresolved.push(format!("{doc}:{line}: `{span}` continues no path"));
                        continue;
                    }
                },
                (None, None) => continue,
            };
            if generated(&path) {
                continue;
            }
            for expanded in expand(&path) {
                checked += 1;
                if !resolves(&expanded, &tree) {
                    unresolved.push(format!("{doc}:{line}: `{span}` ({expanded})"));
                } else if let Some(item) = as_item(&span) {
                    items += 1;
                    if !defines(&expanded, item, &tree, read) {
                        unresolved.push(format!("{doc}:{line}: `{span}` (no fn {item})"));
                    }
                }
            }
            last = Some((line, path));
        }
    }
    assert!(checked > 100, "only {checked} paths checked: the scanner lost the docs");
    assert!(items > 5, "only {items} test names checked: the scanner lost the ledger");
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
    assert_eq!(as_item("kernel.rs::a_test"), Some("a_test"));
    assert_eq!(as_item("::a_test"), Some("a_test"));
    assert_eq!(as_item("x.rs::tests::a_test"), Some("a_test"));
    assert_eq!(as_item("kernel.rs"), None);
    let read = |file: &str| match file {
        "crates/bench/tests/kernel.rs" => "#[test]\nfn a_live_test() {}\nfn generic<T>() {}".into(),
        _ => String::new(),
    };
    for live in ["a_live_test", "generic"] {
        assert!(defines("tests/kernel.rs", live, &tree, read), "{live}");
    }
    for stale in ["a_stale_test", "a_live", "live_test"] {
        assert!(!defines("tests/kernel.rs", stale, &tree, read), "{stale}");
    }
    assert!(!defines("benches/walks.rs", "a_live_test", &tree, read), "in another file");
    for not_a_path in ["/metrics", "--threads", ".topo", "pr_core::walk_packet", "1 / 2"] {
        assert_eq!(as_path(not_a_path), None, "{not_a_path}");
    }
}
