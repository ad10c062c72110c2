//! The documents name only what the tree holds: every backticked repo
//! path in DESIGN.md, README.md and the verify skill resolves — as a
//! file or directory from the repo root, or as the suffix of a file in
//! the tree (`tests/kernel.rs`, `alloc_sweep.rs`). A brace form
//! (`benches/{a,b}.rs`) stands for each of its expansions, and a `*` for
//! any run of characters within one path component. A Rust item after
//! a path (`x.rs::test_name`) must be a `fn` of the file the path
//! names, and a bare `::test_name` — the claims ledger's continuation
//! form — one of the last path named on its line. A `Type::member`
//! span (`FlowScratch::unit`, `OpenCone::survivor(p)`) must name a `fn`
//! of an `impl` for `Type` or of `trait Type`, or a field of
//! `struct Type`, somewhere in the tree's sources; std types are in
//! [`STD_TYPES`]. What no checkout holds — generated output — is in
//! [`GENERATED`].
//!
//! Citations into DESIGN.md resolve too: in every Rust source, README.md
//! and the verify skill, `DESIGN.md §N` names a section that exists, a
//! section is cited by number and never by name, and a quoted title
//! after the citation (`DESIGN.md §8, "The episode chain"`,
//! `DESIGN.md, "allocator discipline"`) is the bold or italic lead of
//! a paragraph in that section, or anywhere when no section is given.
//! DESIGN.md's own `§N, "title"` references are held to the same leads.

use std::collections::HashSet;
use std::path::Path;

/// The documents checked, from the repo root.
const DOCS: [&str; 3] = ["DESIGN.md", "README.md", ".claude/skills/verify/SKILL.md"];

/// Paths a run writes rather than the tree holds: a path equal to one
/// of these, or under one ending in `/`, is not looked up.
const GENERATED: &[&str] = &["results/", "target/", "manifest.json"];

/// Directories the tree walk skips: build output, run output, history.
const SKIPPED: &[&str] = &[".git", "target", "results", "out", ".bench_build"];

/// Std types whose members the docs name: no source of the tree
/// defines them.
const STD_TYPES: &[&str] = &["Peekable"];

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

/// The `(Type, member)` a code span names, if it names one: an
/// upper-case type and a lower-case member, maybe behind a crate path
/// (`pr_core::FlowUnit::walk`) and before a call's arguments.
fn as_member(span: &str) -> Option<(&str, &str)> {
    let name = span.split('(').next()?;
    let ident = |s: &str| !s.is_empty() && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_');
    let lower = |s: &str| ident(s) && !s.starts_with(|c: char| c.is_ascii_uppercase());
    let mut segments = name.rsplit("::");
    let (member, ty) = (segments.next()?, segments.next()?);
    let typed = ident(ty) && ty.starts_with(|c: char| c.is_ascii_uppercase());
    (typed && lower(member) && segments.all(lower)).then_some((ty, member))
}

/// The type an `impl` header is for: the one after ` for `, else the
/// one after the generics, without its own generics or path.
fn impl_type(header: &str) -> Option<&str> {
    let rest = header.strip_prefix("impl")?;
    // Where the type starts: past the impl's generics and a trait.
    let (mut depth, mut start, mut previous) = (0, 0, ' ');
    for (i, c) in rest.char_indices() {
        match c {
            '<' => depth += 1,
            '>' if previous != '-' => depth -= 1,
            _ if depth == 0 && rest[i..].starts_with(" for ") => start = i + " for ".len(),
            _ if depth == 0 && start == 0 && c != ' ' => start = i,
            _ => {}
        }
        previous = c;
    }
    let target = rest[start..].trim_start().trim_start_matches(['&', ' ']);
    let target = target.strip_prefix("dyn ").unwrap_or(target);
    let path = target.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == ':'));
    path.take(1).flat_map(|p| p.rsplit("::").next()).find(|t| !t.is_empty())
}

/// `item` without its visibility.
fn unqualified(item: &str) -> &str {
    let visibilities = ["pub ", "pub(crate) ", "pub(super) "];
    visibilities.iter().find_map(|v| item.strip_prefix(v)).unwrap_or(item)
}

/// The identifier `text` starts with.
fn leading_word(text: &str) -> &str {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_')).next().unwrap_or("")
}

/// Every `(Type, member)` a source defines, read off rustfmt's layout:
/// an `impl`, `trait` or `struct` header at some indent opens a block
/// that a `}` at that indent closes, and the block's own items — the
/// `fn`s of an `impl` or `trait`, the fields of a `struct` — sit one
/// indent in.
fn members(text: &str, out: &mut HashSet<(String, String)>) {
    let lines: Vec<&str> = text.lines().collect();
    for (at, line) in lines.iter().enumerate() {
        let head = unqualified(line.trim_start());
        let is_impl = head.starts_with("impl<") || head.starts_with("impl ");
        let named = |keyword| head.strip_prefix(keyword).map(leading_word);
        let (trait_name, struct_name) = (named("trait "), named("struct "));
        if !is_impl && trait_name.is_none() && struct_name.is_none() {
            continue;
        }
        // The header runs to the line that opens its block; a `;`
        // first ends an item without one.
        let Some(open) = lines[at..].iter().position(|l| l.ends_with('{') || l.ends_with(';'))
        else {
            continue;
        };
        let header = lines[at..=at + open].join(" ");
        let owner =
            if is_impl { impl_type(header.trim_start()) } else { trait_name.or(struct_name) };
        let Some(owner) = owner.filter(|o| !o.is_empty() && header.ends_with('{')) else {
            continue;
        };
        let (fields, indent) = (struct_name.is_some(), line.len() - line.trim_start().len());
        let (end, inner) = (format!("{}}}", " ".repeat(indent)), " ".repeat(indent + 4));
        for item in lines[at + open + 1..].iter().take_while(|l| **l != end) {
            let Some(item) = item.strip_prefix(&inner).filter(|i| !i.starts_with(' ')) else {
                continue;
            };
            let item = unqualified(item);
            let name = if fields {
                item.split_once(':').map(|(name, _)| name)
            } else {
                let item = ["const ", "unsafe ", "async "]
                    .iter()
                    .fold(item, |item, q| item.strip_prefix(q).unwrap_or(item));
                item.strip_prefix("fn ").map(leading_word)
            };
            if let Some(name) = name.filter(|n| !n.is_empty() && *n == leading_word(n)) {
                out.insert((owner.to_string(), name.to_string()));
            }
        }
    }
}

/// Whether `(ty, member)` is one of `defined`, or of a std type.
fn resolves_member((ty, member): (&str, &str), defined: &HashSet<(String, String)>) -> bool {
    STD_TYPES.contains(&ty) || defined.contains(&(ty.to_string(), member.to_string()))
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
    let mut defined = HashSet::new();
    for file in tree.iter().filter(|file| file.ends_with(".rs")) {
        members(&read(file), &mut defined);
    }
    let mut unresolved = Vec::new();
    let (mut checked, mut items, mut named) = (0, 0, 0);
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
                (None, None) => {
                    if let Some(member) = as_member(&span) {
                        named += 1;
                        if !resolves_member(member, &defined) {
                            unresolved.push(format!("{doc}:{line}: `{span}` (no such member)"));
                        }
                    }
                    continue;
                }
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
    assert!(named > 90, "only {named} members checked: the scanner lost the docs");
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

#[test]
fn the_resolver_tells_a_stale_member_from_a_live_one() {
    let source = "\
pub struct FlowScratch<S> {
    walk: WalkScratch<S>,
    pub(crate) unit: u32,
}

impl<S> FlowScratch<S> {
    /// fn not_a_member() — a doc line.
    pub fn unit<'a, A: ForwardingAgent<State = S>>(&'a mut self) {
        fn nested() {}
    }
}

impl<A: ForwardingAgent> FlowUnit<'_, A>
where
    A::State: std::hash::Hash + Eq,
{
    pub(crate) fn point_of(&mut self) {}
}

pub trait Lane {
    fn detour(&self) -> Option<u64> {
        None
    }
}

impl<'a> Lane for FcpAgent<'a> {
    fn detour(&self) -> Option<u64> {
        None
    }
}

mod tests {
    impl Default for Stamp {
        fn default() -> Stamp {
            Stamp(0)
        }
    }
}
";
    let mut defined = HashSet::new();
    members(source, &mut defined);
    let live = [
        "FlowScratch::unit(graph, agent, tree, failed)",
        "FlowScratch::walk",
        "pr_core::FlowScratch::unit",
        "FlowUnit::point_of",
        "Lane::detour",
        "FcpAgent::detour",
        "Stamp::default()",
        "Peekable::next_if",
    ];
    for span in live {
        let member = as_member(span).unwrap_or_else(|| panic!("{span} names a member"));
        assert!(resolves_member(member, &defined), "{span}");
    }
    let stale = [
        "FlowScratch::begin_scenario",
        "FcpAgent::unit",
        "FlowScratch::nested",
        "Lane::not_a_member",
    ];
    for span in stale {
        let member = as_member(span).unwrap_or_else(|| panic!("{span} names a member"));
        assert!(!resolves_member(member, &defined), "{span}");
    }
    for not_a_member in
        ["PrMode::Basic", "x.rs::a_test", "pr_core::walk_packet", "::a_test", "Vec<u8>"]
    {
        assert_eq!(as_member(not_a_member), None, "{not_a_member}");
    }
    assert_eq!(impl_type("impl<A: ForwardingAgent<State: Hash + Eq>> Lane for &A {"), Some("A"));
    assert_eq!(impl_type("impl<F: Fn() -> u32> pr_graph::SpTree {"), Some("SpTree"));
}

/// A section of DESIGN.md: its number, its title and the bold or
/// italic leads of its paragraphs and list items.
struct Section {
    number: u32,
    title: String,
    leads: Vec<String>,
}

/// `text` with runs of whitespace collapsed to one space.
fn collapsed(text: &str) -> String {
    text.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// DESIGN.md's `## §N Title` sections and the leads each holds: a
/// paragraph or list item that opens with `**lead**` or `*lead*`, the
/// lead without its closing `.` or `:`.
fn sections(design: &str) -> Vec<Section> {
    let mut sections: Vec<Section> = Vec::new();
    let mut paragraph: Vec<&str> = Vec::new();
    let flush = |paragraph: &mut Vec<&str>, sections: &mut Vec<Section>| {
        let text = collapsed(&paragraph.join(" "));
        paragraph.clear();
        let Some(section) = sections.last_mut() else { return };
        let marker = if text.starts_with("**") { "**" } else { "*" };
        let Some(rest) = text.strip_prefix(marker).filter(|r| !r.starts_with(' ')) else {
            return;
        };
        if let Some(end) = rest.find(marker) {
            section.leads.push(rest[..end].trim_end_matches(['.', ':']).to_string());
        }
    };
    for line in design.lines() {
        let trimmed = line.trim_start();
        if let Some(heading) = line.strip_prefix("## §") {
            flush(&mut paragraph, &mut sections);
            let (number, title) = heading.split_once(' ').expect("a numbered title");
            let number = number.parse().expect("a section number");
            sections.push(Section { number, title: title.to_string(), leads: Vec::new() });
            continue;
        }
        let item = trimmed.strip_prefix("* ").or(trimmed.strip_prefix("- ")).or_else(|| {
            let digits = trimmed.find(|c: char| !c.is_ascii_digit())?;
            trimmed[digits..].strip_prefix(". ").filter(|_| digits > 0)
        });
        if trimmed.is_empty() || item.is_some() || line.starts_with('#') {
            flush(&mut paragraph, &mut sections);
        }
        if !trimmed.is_empty() && !line.starts_with('#') {
            paragraph.push(item.unwrap_or(trimmed));
        }
    }
    flush(&mut paragraph, &mut sections);
    sections
}

/// A source's text as prose: comment markers dropped, lines joined by
/// one space, so a citation a comment wraps reads as one phrase.
fn prose(text: &str) -> String {
    let lines = text.lines().map(|line| {
        let line = line.trim();
        ["//!", "///", "//"].iter().find_map(|m| line.strip_prefix(m)).unwrap_or(line).trim()
    });
    lines.collect::<Vec<_>>().join(" ")
}

/// The digits `text` starts with, as a number, and what follows them.
fn leading_number(text: &str) -> Option<(u32, &str)> {
    let end = text.find(|c: char| !c.is_ascii_digit()).unwrap_or(text.len());
    Some((text[..end].parse().ok()?, &text[end..]))
}

/// The quoted title `text` starts with (`, "title"`), if it does.
fn quoted_title(text: &str) -> Option<String> {
    let (title, _) = text.strip_prefix(", \"")?.split_once('"')?;
    Some(collapsed(title))
}

/// Whether `title` is a lead of `section`, or of any section.
fn is_lead(title: &str, section: Option<&Section>, all: &[Section]) -> bool {
    let mut leads = all.iter().filter(|s| section.is_none_or(|c| c.number == s.number));
    leads.any(|s| s.leads.iter().any(|lead| lead.eq_ignore_ascii_case(title)))
}

/// What is wrong with the citations into DESIGN.md of `text`, a prose
/// rendering: a section that does not exist or is named instead of
/// numbered, and a title that is no lead of its section. With `own`
/// set, `text` is DESIGN.md, whose `§N, "title"` references cite it.
fn citation_errors(text: &str, all: &[Section], own: bool) -> Vec<String> {
    let section = |n: u32| all.iter().find(|s| s.number == n);
    let mut errors = Vec::new();
    let check_title = |rest: &str, cited: Option<&Section>, errors: &mut Vec<String>| {
        if let Some(title) = quoted_title(rest) {
            if !is_lead(&title, cited, all) {
                let place = cited.map_or("DESIGN.md".into(), |s| format!("§{}", s.number));
                errors.push(format!("\"{title}\" is no paragraph lead of {place}"));
            }
        }
    };
    if own {
        for (at, _) in text.match_indices('§') {
            if let Some((n, rest)) = leading_number(&text[at + '§'.len_utf8()..]) {
                if rest.starts_with(", \"") {
                    check_title(rest, section(n), &mut errors);
                }
            }
        }
        return errors;
    }
    for (at, _) in text.match_indices("DESIGN.md") {
        let rest = text[at + "DESIGN.md".len()..].trim_start_matches('`');
        let Some(mut cited) = rest.trim_start().strip_prefix('§') else {
            check_title(rest, None, &mut errors);
            let word = rest.trim_start().split([' ', ')', ',', '.']).next().unwrap_or("");
            let named = all.iter().find(|s| {
                let first = s.title.split(' ').next().unwrap_or("");
                !first.eq_ignore_ascii_case("the") && first.eq_ignore_ascii_case(word)
            });
            if let Some(s) = named {
                errors.push(format!("DESIGN.md {word}: cite §{} by its number", s.number));
            }
            continue;
        };
        // A list (`§3, §6 and §10`) cites each of its sections.
        loop {
            let Some((n, rest)) = leading_number(cited) else {
                let name = cited.split([' ', ')', ',', '.']).next().unwrap_or("");
                errors.push(format!("DESIGN.md §{name}: a section is cited by its number"));
                break;
            };
            match section(n) {
                None => errors.push(format!("DESIGN.md §{n}: no such section")),
                Some(s) => check_title(rest, Some(s), &mut errors),
            }
            match [", §", " and §"].iter().find_map(|sep| rest.strip_prefix(sep)) {
                Some(next) => cited = next,
                None => break,
            }
        }
    }
    errors
}

#[test]
fn every_citation_into_design_md_resolves() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let read = |file: &str| std::fs::read_to_string(root.join(file)).expect("a readable file");
    let design = read("DESIGN.md");
    let all = sections(&design);
    assert_eq!(all.iter().map(|s| s.number).collect::<Vec<_>>(), (1..=17).collect::<Vec<_>>());
    assert!(all.iter().map(|s| s.leads.len()).sum::<usize>() > 50, "the lead scanner lost them");
    let mut tree = Vec::new();
    files(root, root, &mut tree);
    // This file spells bad citations on purpose, in its tests.
    let sources = tree.iter().filter(|f| f.ends_with(".rs") && *f != "tests/docs.rs");
    let (mut cited, mut unresolved) = (0, Vec::new());
    for file in sources.map(String::as_str).chain(["README.md", ".claude/skills/verify/SKILL.md"]) {
        let text = prose(&read(file));
        cited += text.matches("DESIGN.md").count();
        unresolved.extend(
            citation_errors(&text, &all, false).into_iter().map(|e| format!("{file}: {e}")),
        );
    }
    let own = citation_errors(&collapsed(&design), &all, true);
    unresolved.extend(own.into_iter().map(|e| format!("DESIGN.md: {e}")));
    assert!(cited > 30, "only {cited} citations read: the scanner lost the sources");
    assert!(unresolved.is_empty(), "citations that resolve to nothing:\n{}", unresolved.join("\n"));
}

#[test]
fn a_citation_names_a_section_by_number_and_a_lead_by_its_words() {
    let design = "# D\n\n## §1 Architecture\n\n**The split.** Offline.\n\n\
                  ## §2 The walker\n\n*The episode\nchain.* Priced.\n\n* *The TTL fallback.* x\n\
                  1. *Climb.* y\n\n**Allocator discipline.** z\n";
    let all = sections(design);
    let leads: Vec<_> = all.iter().map(|s| s.leads.clone()).collect();
    assert_eq!(
        leads,
        [
            vec!["The split"],
            vec!["The episode chain", "The TTL fallback", "Climb", "Allocator discipline"]
        ]
    );
    for good in [
        "see DESIGN.md §2, \"The episode chain\" and on",
        "(DESIGN.md §1, §2 and §2)",
        "DESIGN.md, \"allocator discipline\", says why",
        "see `DESIGN.md` for the architecture",
        "DESIGN.md §2's \"rows\" are rows",
    ] {
        assert_eq!(citation_errors(&prose(good), &all, false), Vec::<String>::new(), "{good}");
    }
    for bad in [
        "see DESIGN.md §Findings",
        "(see DESIGN.md architecture)",
        "DESIGN.md §3",
        "DESIGN.md §1, §3",
        "DESIGN.md §1, \"The episode chain\"",
        "DESIGN.md, \"The memo\"",
    ] {
        assert_eq!(citation_errors(&prose(bad), &all, false).len(), 1, "{bad}");
    }
    let wrapped = prose("/// (DESIGN.md §2, \"The episode\n/// chain\")");
    assert_eq!(citation_errors(&wrapped, &all, false), Vec::<String>::new());
    let own = collapsed("as §2, \"The episode chain\" shows, not §1, \"Climb\"; the paper's §4.2");
    assert_eq!(citation_errors(&own, &all, true).len(), 1);
}
