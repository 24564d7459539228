//! Docs stay navigable: every intra-repo markdown link in the top-level
//! documents resolves to a file that exists, the operator's guide
//! (OPERATORS.md) is reachable from the entry-point docs, and a
//! `CHANGES.md` entry stays short. CI runs this suite in the test step, so
//! a renamed file or a typo'd link fails the build instead of rotting
//! silently.

use std::path::{Path, PathBuf};

/// The documents whose links are checked (repo-root relative).
const DOCS: &[&str] = &[
    "README.md",
    "ARCHITECTURE.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "OPERATORS.md",
    "ROADMAP.md",
    "CHANGES.md",
];

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Extract `](target)` link targets from markdown, skipping fenced code
/// blocks (experiment tables quote `foo[i](x)`-style code there).
fn link_targets(markdown: &str) -> Vec<String> {
    let mut targets = Vec::new();
    let mut in_fence = false;
    for line in markdown.lines() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence {
            continue;
        }
        let mut rest = line;
        while let Some(open) = rest.find("](") {
            let tail = &rest[open + 2..];
            let Some(close) = tail.find(')') else { break };
            targets.push(tail[..close].to_string());
            rest = &tail[close + 1..];
        }
    }
    targets
}

/// True for link targets that do not name a repo file.
fn external(target: &str) -> bool {
    target.starts_with("http://")
        || target.starts_with("https://")
        || target.starts_with("mailto:")
        || target.starts_with('#')
}

#[test]
fn every_intra_repo_link_resolves() {
    let root = repo_root();
    let mut broken = Vec::new();
    for doc in DOCS {
        let path = root.join(doc);
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("top-level doc {doc} must exist: {e}"));
        let dir = path.parent().unwrap_or(Path::new("."));
        for target in link_targets(&text) {
            if external(&target) {
                continue;
            }
            // Strip a trailing #anchor; the file part is what must exist.
            let file_part = target.split('#').next().unwrap_or("");
            if file_part.is_empty() {
                continue;
            }
            if !dir.join(file_part).exists() {
                broken.push(format!("{doc}: ]({target})"));
            }
        }
    }
    assert!(
        broken.is_empty(),
        "broken intra-repo links:\n  {}",
        broken.join("\n  ")
    );
}

/// The regime map is discoverable: the entry-point docs link to
/// OPERATORS.md, and the regime map's own cross-references point back at
/// the experiment definitions.
#[test]
fn operators_guide_is_cross_linked() {
    let root = repo_root();
    for doc in ["README.md", "ARCHITECTURE.md", "EXPERIMENTS.md"] {
        let text = std::fs::read_to_string(root.join(doc)).expect("entry-point doc");
        assert!(
            text.contains("OPERATORS.md"),
            "{doc} does not link to the operator's guide"
        );
    }
    let ops = std::fs::read_to_string(root.join("OPERATORS.md")).expect("OPERATORS.md");
    for back in ["EXPERIMENTS.md", "bench_report.txt"] {
        assert!(ops.contains(back), "OPERATORS.md does not reference {back}");
    }
}

/// ROADMAP 10(b): a `CHANGES.md` entry says what changed and why in at
/// most 15 non-blank lines and 3 000 bytes; measurement tables belong
/// elsewhere. Entries numbered below `FIRST_BOUNDED` predate the rule and
/// are exempt.
#[test]
fn changes_entries_stay_short() {
    const FIRST_BOUNDED: u32 = 37;
    const MAX_LINES: usize = 15;
    const MAX_BYTES: usize = 3_000;
    let text = std::fs::read_to_string(repo_root().join("CHANGES.md")).expect("CHANGES.md");
    let mut entries: Vec<(u32, Vec<&str>)> = Vec::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        match (entry_number(line), entries.last_mut()) {
            (Some(pr), _) => entries.push((pr, vec![line])),
            (None, Some((_, lines))) => lines.push(line),
            (None, None) => {}
        }
    }
    let bounded: Vec<_> = entries
        .iter()
        .filter(|(pr, _)| *pr >= FIRST_BOUNDED)
        .collect();
    assert!(
        !bounded.is_empty(),
        "no CHANGES.md entry from PR {FIRST_BOUNDED} on"
    );
    for (pr, lines) in bounded {
        let bytes: usize = lines.iter().map(|l| l.len() + 1).sum();
        assert!(
            lines.len() <= MAX_LINES && bytes <= MAX_BYTES,
            "CHANGES.md entry PR {pr}: {} lines, {bytes} bytes (at most {MAX_LINES}, {MAX_BYTES})",
            lines.len()
        );
    }
}

/// The number an entry opens with — `PR <n>: …`, `- PR <n>: …` or
/// `- **PR <n> — …` — or `None` for an indented continuation line.
fn entry_number(line: &str) -> Option<u32> {
    let head = line.strip_prefix("- ").unwrap_or(line);
    let head = head.trim_start_matches('*').strip_prefix("PR ")?;
    let digits: String = head.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// ROADMAP 10(a): the two scores `tests/architecture.rs` holds the crates
/// to are quoted in ARCHITECTURE.md exactly as that file sets them, so a
/// PR that lowers one cannot leave the prose behind.
#[test]
fn architecture_quotes_the_committed_scores() {
    let rules = std::fs::read_to_string(repo_root().join("tests/architecture.rs"))
        .expect("tests/architecture.rs");
    let architecture =
        std::fs::read_to_string(repo_root().join("ARCHITECTURE.md")).expect("ARCHITECTURE.md");
    for score in ["CEILING", "PUBLIC_ITEMS"] {
        let declared = format!("const {score}: usize = ");
        let value = rules
            .lines()
            .find_map(|line| line.trim().strip_prefix(declared.as_str()))
            .and_then(|rest| rest.strip_suffix(';'))
            .unwrap_or_else(|| panic!("tests/architecture.rs sets no `{score}`"));
        let quote = format!("`{score} = {value}`");
        assert!(
            architecture.contains(&quote),
            "ARCHITECTURE.md does not quote {quote}"
        );
    }
}

/// ROADMAP 10(a): every verdict id the prose cites is one that
/// `bench_report.txt` prints, so a retired or renamed verdict cannot live
/// on in the docs.
#[test]
fn cited_verdict_ids_are_printed_by_the_report() {
    let read = |file: &str| {
        std::fs::read_to_string(repo_root().join(file)).unwrap_or_else(|e| panic!("{file}: {e}"))
    };
    let report = read("bench_report.txt");
    let printed: Vec<String> = report
        .lines()
        .filter_map(|l| l.strip_prefix("[PASS] ").or(l.strip_prefix("[FAIL] ")))
        .flat_map(|l| verdict_ids(l.split(':').next().unwrap_or("")))
        .collect();
    assert!(printed.len() >= 40, "bench_report.txt prints {printed:?}");
    let mut stale = Vec::new();
    for doc in [
        "README.md",
        "EXPERIMENTS.md",
        "OPERATORS.md",
        "DESIGN.md",
        "ARCHITECTURE.md",
    ] {
        for id in verdict_ids(&read(doc)) {
            if !printed.contains(&id) {
                stale.push(format!("{doc}: {id}"));
            }
        }
    }
    assert!(
        stale.is_empty(),
        "verdict ids that bench_report.txt does not print:\n  {}",
        stale.join("\n  ")
    );
}

/// Every match of `C\d[a-z]?-\d+|C\d[a-z]|E\d+[a-z]?-\d+` in `text`,
/// leftmost first, as a regex engine would find them.
fn verdict_ids(text: &str) -> Vec<String> {
    let b = text.as_bytes();
    let digits = |i: usize| {
        b[i.min(b.len())..]
            .iter()
            .take_while(|c| c.is_ascii_digit())
            .count()
    };
    let lower = |i: usize| usize::from(b.get(i).is_some_and(u8::is_ascii_lowercase));
    // The length of `-\d+` at `i`, or 0.
    let dashed = |i: usize| match (b.get(i), digits(i + 1)) {
        (Some(b'-'), n) if n > 0 => 1 + n,
        _ => 0,
    };
    // The length of the match starting at `i`, or 0.
    let at = |i: usize| match b[i] {
        b'C' if digits(i + 1) > 0 => {
            let letter = lower(i + 2);
            match dashed(i + 2 + letter) {
                0 => 3 * letter, // `C\d[a-z]`, or nothing
                n => 2 + letter + n,
            }
        }
        b'E' if digits(i + 1) > 0 => {
            let end = i + 1 + digits(i + 1);
            match dashed(end + lower(end)) {
                0 => 0,
                n => end + lower(end) + n - i,
            }
        }
        _ => 0,
    };
    let mut ids = Vec::new();
    let mut i = 0;
    while i < b.len() {
        match at(i) {
            0 => i += 1,
            n => {
                ids.push(text[i..i + n].to_string());
                i += n;
            }
        }
    }
    ids
}

#[test]
fn the_verdict_id_scanner_follows_its_pattern() {
    let text = "C2a–c, C3b-1, C4-3; E15-3 (C4) E12b/c E5b-2 C22-1 0xE15A E9-x C2-";
    assert_eq!(
        verdict_ids(text),
        ["C2a", "C3b-1", "C4-3", "E15-3", "E5b-2"]
    );
}
