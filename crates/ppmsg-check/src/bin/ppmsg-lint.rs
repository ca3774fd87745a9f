//! `ppmsg-lint`: source-level repo-invariant checker, run as a blocking CI
//! step.
//!
//! Enforced rules:
//!
//! * **safety_comment** — every unsafe block or unsafe impl must be preceded
//!   (by a comment block directly above, or on the same line) by a
//!   `// SAFETY:` comment justifying it.  Applies to every non-vendored
//!   `.rs` file.
//! * **raw_sync** — files whose locks must go through the instrumented
//!   `ppmsg_check::sync` wrapper (lockdep + model checking) may not name raw
//!   `std::sync` locks or `parking_lot`.
//! * **hot_path_alloc** — files opting in with a `deny(hot_path_alloc)`
//!   marker comment may not use `HashMap`/`BTreeMap` or common allocation
//!   idioms (`format!`, `vec![`, `.to_vec()`) outside their `#[cfg(test)]`
//!   tail.  `Vec::push` into pooled, capacity-retained buffers is the
//!   workspace's approved pattern and stays allowed; the dynamic counting
//!   allocator in `tests/zero_alloc.rs` enforces the runtime side of this
//!   invariant.
//! * **virtual_clock** — `crates/core` is sans-I/O and fully virtual-time
//!   (the chaos harness depends on it): no `Instant::now()` or
//!   `SystemTime::now()`.
//! * **telemetry_hot_path** — every file under `crates/core/src/telemetry/`
//!   runs on the steady-state send/recv path and must opt into the
//!   hot-path-alloc rule with the `deny(hot_path_alloc)` marker.
//! * **telemetry_clock** — only `telemetry/clock.rs` owns sanctioned clock
//!   reads; other telemetry files may not even carry the
//!   `allow(virtual_clock)` escape — they must stamp through the
//!   time-source abstraction (`clock::now_ns` / `clock::mono_ns`).
//!
//! A line can be exempted with a trailing `ppmsg-lint: allow(<rule>)`
//! comment (the two telemetry rules above are file-level and cannot be
//! waived).  Pattern strings below are assembled with `concat!` so this file
//! never matches its own rules.
//!
//! Every run also prints the non-test lines of code of each crate (every
//! line of its `src/` tree above the files' test tails), so design size is
//! tracked in the CI log alongside the rules.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Marker opting a file into the hot-path allocation rule.
const DENY_HOT_PATH: &str = concat!("ppmsg-lint: ", "deny(", "hot_path_alloc)");

/// Files that must use `ppmsg_check::sync` instead of raw lock types.
const RAW_SYNC_FILES: &[&str] = &[
    "crates/core/src/ops.rs",
    "crates/core/src/sharded.rs",
    "crates/ppmsg-host/src/reactor.rs",
    "crates/ppmsg-host/src/intranode.rs",
    "src/executor.rs",
    "src/timer.rs",
];

const SAFETY_MARK: &str = concat!("SAFETY", ":");

fn unsafe_patterns() -> [String; 3] {
    let kw = concat!("uns", "afe");
    [
        format!("{kw} {{"),
        format!("{kw} impl"),
        format!("{kw} extern"),
    ]
}

fn raw_sync_patterns() -> [String; 3] {
    [
        concat!("std::sync::", "Mutex").to_string(),
        concat!("std::sync::", "Condvar").to_string(),
        concat!("parking", "_lot").to_string(),
    ]
}

fn hot_path_patterns() -> [String; 5] {
    [
        concat!("Hash", "Map").to_string(),
        concat!("BTree", "Map").to_string(),
        concat!("format", "!(").to_string(),
        concat!("vec", "![").to_string(),
        concat!(".to_", "vec()").to_string(),
    ]
}

fn clock_patterns() -> [String; 2] {
    [
        concat!("Instant::", "now").to_string(),
        concat!("SystemTime::", "now").to_string(),
    ]
}

fn allow_marker(rule: &str) -> String {
    format!("ppmsg-lint{} allow({rule})", ':')
}

#[derive(Debug)]
struct Violation {
    file: String,
    line: usize,
    rule: &'static str,
    msg: String,
}

/// Strip line comments and track block-comment state across lines so rule
/// patterns in documentation don't fire.  `in_block` is carried between
/// lines by the caller.
fn strip_comments(line: &str, in_block: &mut bool) -> String {
    let mut out = String::with_capacity(line.len());
    let bytes = line.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if *in_block {
            if i + 1 < bytes.len() && bytes[i] == b'*' && bytes[i + 1] == b'/' {
                *in_block = false;
                i += 2;
            } else {
                i += 1;
            }
            continue;
        }
        if i + 1 < bytes.len() && bytes[i] == b'/' && bytes[i + 1] == b'*' {
            *in_block = true;
            i += 2;
            continue;
        }
        if i + 1 < bytes.len() && bytes[i] == b'/' && bytes[i + 1] == b'/' {
            break;
        }
        out.push(bytes[i] as char);
        i += 1;
    }
    out
}

/// Index of the first line of a file's test tail: a test-gated cfg line —
/// `#[cfg(test)]` or a compound like `#[cfg(all(test, feature =
/// "telemetry"))]` — above an inline `mod … {`.  A gated item or an
/// out-of-line `mod tests;` declaration does not start a tail.
fn test_tail(lines: &[&str]) -> usize {
    (0..lines.len())
        .find(|&i| {
            let t = lines[i].trim_start();
            t.starts_with("#[cfg(")
                && t.contains("(test")
                && lines[i + 1..]
                    .iter()
                    .map(|l| l.trim())
                    .find(|l| !l.starts_with("#["))
                    .is_some_and(|l| l.contains("mod ") && l.ends_with('{'))
        })
        .unwrap_or(lines.len())
}

/// The crate a source file belongs to (its directory relative to the
/// workspace root, `.` for the root package), or `None` for files outside
/// any `src/` tree (integration tests, benches, examples).
fn crate_of(rel_path: &str) -> Option<&str> {
    if rel_path.starts_with("src/") {
        return Some(".");
    }
    rel_path.find("/src/").map(|i| &rel_path[..i])
}

/// Non-test lines of a crate source file; an out-of-line `tests.rs`
/// module counts as test code entirely.
fn non_test_lines(rel_path: &str, content: &str) -> usize {
    if rel_path.ends_with("/tests.rs") {
        return 0;
    }
    test_tail(&content.lines().collect::<Vec<_>>())
}

fn check_source(rel_path: &str, content: &str, out: &mut Vec<Violation>) {
    let lines: Vec<&str> = content.lines().collect();
    let hot_path = content.contains(DENY_HOT_PATH);
    let raw_sync = RAW_SYNC_FILES.iter().any(|f| rel_path.ends_with(f));
    let core_engine = rel_path.contains("crates/core/src/");
    let telemetry_file = rel_path.contains("crates/core/src/telemetry/");

    if telemetry_file && !hot_path {
        out.push(Violation {
            file: rel_path.to_string(),
            line: 1,
            rule: "telemetry_hot_path",
            msg: format!(
                "telemetry files run on the steady-state path: add a `{DENY_HOT_PATH}` marker"
            ),
        });
    }
    let unsafe_pats = unsafe_patterns();
    let sync_pats = raw_sync_patterns();
    let alloc_pats = hot_path_patterns();
    let clock_pats = clock_patterns();

    // A file's test tail is exempt from the hot-path-alloc rule.
    let test_tail = test_tail(&lines);

    let mut in_block = false;
    for (idx, &line) in lines.iter().enumerate() {
        let code = strip_comments(line, &mut in_block);
        let lineno = idx + 1;

        if unsafe_pats.iter().any(|p| code.contains(p.as_str()))
            && !line.contains(&allow_marker("safety_comment"))
        {
            let mut justified = line.contains(SAFETY_MARK);
            // Scan back through the justifying comment block (which may be
            // several lines) and wrapped statement heads; a finished
            // previous statement ends the search.
            for back in 1..=12 {
                if justified || back > idx {
                    break;
                }
                let prev = lines[idx - back].trim();
                if prev.starts_with("//") {
                    if prev.contains(SAFETY_MARK) {
                        justified = true;
                    }
                } else if prev.is_empty() || prev.ends_with(';') || prev.ends_with('}') {
                    // The previous statement ended: a SAFETY comment above
                    // it does not belong to this unsafe.  Lines like
                    // `let n =` (a wrapped statement head) scan through.
                    break;
                }
            }
            if !justified {
                out.push(Violation {
                    file: rel_path.to_string(),
                    line: lineno,
                    rule: "safety_comment",
                    msg: "unsafe without a preceding `// SAFETY:` comment".to_string(),
                });
            }
        }

        if raw_sync && !line.contains(&allow_marker("raw_sync")) {
            for p in &sync_pats {
                if code.contains(p.as_str()) {
                    out.push(Violation {
                        file: rel_path.to_string(),
                        line: lineno,
                        rule: "raw_sync",
                        msg: format!(
                            "`{p}` in a file that must use the instrumented ppmsg_check::sync wrapper"
                        ),
                    });
                }
            }
        }

        if hot_path && idx < test_tail && !line.contains(&allow_marker("hot_path_alloc")) {
            for p in &alloc_pats {
                if code.contains(p.as_str()) {
                    out.push(Violation {
                        file: rel_path.to_string(),
                        line: lineno,
                        rule: "hot_path_alloc",
                        msg: format!("`{p}` in a file marked deny(hot_path_alloc)"),
                    });
                }
            }
        }

        if core_engine && !line.contains(&allow_marker("virtual_clock")) {
            for p in &clock_pats {
                if code.contains(p.as_str()) {
                    out.push(Violation {
                        file: rel_path.to_string(),
                        line: lineno,
                        rule: "virtual_clock",
                        msg: format!("`{p}` in sans-I/O engine code (must stay virtual-time)"),
                    });
                }
            }
        }

        // Only clock.rs owns sanctioned clock reads; elsewhere in the
        // telemetry module even the escape hatch is banned, so every stamp
        // goes through the time-source abstraction.
        if telemetry_file
            && !rel_path.ends_with("telemetry/clock.rs")
            && line.contains(&allow_marker("virtual_clock"))
        {
            out.push(Violation {
                file: rel_path.to_string(),
                line: lineno,
                rule: "telemetry_clock",
                msg: "only telemetry/clock.rs may read the wall clock; use clock::now_ns / \
                      clock::mono_ns"
                    .to_string(),
            });
        }
    }
}

fn collect_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return,
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "vendor" || name == "target" || name == ".git" {
                continue;
            }
            collect_files(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

fn workspace_root() -> PathBuf {
    // crates/ppmsg-check → workspace root is two levels up.
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .unwrap_or(manifest)
}

fn main() -> ExitCode {
    let root = std::env::args()
        .nth(1)
        .map(PathBuf::from)
        .unwrap_or_else(workspace_root);
    let mut files = Vec::new();
    collect_files(&root, &mut files);
    files.sort();
    let mut violations = Vec::new();
    let mut loc: BTreeMap<String, usize> = BTreeMap::new();
    let mut scanned = 0usize;
    for path in &files {
        let Ok(content) = std::fs::read_to_string(path) else {
            continue;
        };
        let rel = path
            .strip_prefix(&root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        scanned += 1;
        check_source(&rel, &content, &mut violations);
        if let Some(krate) = crate_of(&rel) {
            *loc.entry(krate.to_string()).or_default() += non_test_lines(&rel, &content);
        }
    }
    println!("ppmsg-lint: non-test lines of code per crate");
    for (krate, lines) in &loc {
        println!("  {krate:<24} {lines:>6}");
    }
    println!("  {:<24} {:>6}", "total", loc.values().sum::<usize>());
    if violations.is_empty() {
        println!("ppmsg-lint: {scanned} files clean");
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            eprintln!("{}:{}: [{}] {}", v.file, v.line, v.rule, v.msg);
        }
        eprintln!(
            "ppmsg-lint: {} violation(s) in {scanned} files",
            violations.len()
        );
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(rel: &str, src: &str) -> Vec<String> {
        let mut v = Vec::new();
        check_source(rel, src, &mut v);
        v.into_iter()
            .map(|x| format!("{}:{}", x.rule, x.line))
            .collect()
    }

    fn kw_unsafe() -> &'static str {
        concat!("uns", "afe")
    }

    #[test]
    fn test_tail_needs_an_inline_module() {
        let gated_fn = "fn a() {}\n#[cfg(test)]\nfn len() {}\nfn b() {}\n";
        assert_eq!(test_tail(&gated_fn.lines().collect::<Vec<_>>()), 4);
        let out_of_line = "#[cfg(test)]\nmod tests;\nfn b() {}\n";
        assert_eq!(test_tail(&out_of_line.lines().collect::<Vec<_>>()), 3);
        let inline =
            "fn a() {}\n#[cfg(all(test, feature = \"x\"))]\n#[allow(dead_code)]\nmod tests {\n}\n";
        assert_eq!(test_tail(&inline.lines().collect::<Vec<_>>()), 1);
        assert_eq!(non_test_lines("crates/core/src/a.rs", inline), 1);
        assert_eq!(
            non_test_lines("crates/core/src/engine/tests.rs", "fn t() {}\n"),
            0
        );
    }

    #[test]
    fn crates_are_keyed_by_their_src_tree() {
        assert_eq!(crate_of("src/timer.rs"), Some("."));
        assert_eq!(
            crate_of("crates/core/src/engine/mod.rs"),
            Some("crates/core")
        );
        assert_eq!(
            crate_of("crates/ppmsg-check/src/bin/ppmsg-lint.rs"),
            Some("crates/ppmsg-check")
        );
        assert_eq!(crate_of("tests/conformance.rs"), None);
        assert_eq!(crate_of("crates/core/tests/model_check.rs"), None);
    }

    #[test]
    fn safety_comment_required_and_satisfied() {
        let bad = format!("fn f() {{\n    {} {{ x() }}\n}}\n", kw_unsafe());
        assert_eq!(run("src/a.rs", &bad), vec!["safety_comment:2"]);

        let good = format!(
            "fn f() {{\n    // SAFETY: x is valid for the call.\n    {} {{ x() }}\n}}\n",
            kw_unsafe()
        );
        assert!(run("src/a.rs", &good).is_empty());

        let trailing = format!("let v = {} {{ y() }}; // SAFETY: y is pure\n", kw_unsafe());
        assert!(run("src/a.rs", &trailing).is_empty());
    }

    #[test]
    fn safety_comment_sees_through_attributes() {
        let src = format!(
            "// SAFETY: the impl upholds the contract.\n#[allow(dead_code)]\n{} impl Send for X {{}}\n",
            kw_unsafe()
        );
        assert!(run("src/a.rs", &src).is_empty());
    }

    #[test]
    fn unsafe_in_comments_is_ignored() {
        let src = format!("// talk about {} {{ blocks }} here\n", kw_unsafe());
        assert!(run("src/a.rs", &src).is_empty());
    }

    #[test]
    fn raw_sync_only_in_listed_files() {
        let src = format!(
            "use {}::{};\n",
            concat!("std", "::sync"),
            concat!("Mu", "tex")
        );
        // Reassemble the pattern so the fixture really contains it.
        let src = src.replace(
            &format!("{}::{}", concat!("std", "::sync"), concat!("Mu", "tex")),
            &format!("std::sync::{}", concat!("Mu", "tex")),
        );
        assert_eq!(run("crates/core/src/ops.rs", &src), vec!["raw_sync:1"]);
        assert!(run("crates/core/src/engine/mod.rs", &src).is_empty());
    }

    #[test]
    fn hot_path_alloc_requires_marker_and_skips_tests() {
        let marker = super::DENY_HOT_PATH;
        let map = concat!("Hash", "Map");
        let unmarked = format!("use std::collections::{map};\n");
        assert!(run("crates/core/src/engine/sender.rs", &unmarked).is_empty());

        let marked = format!("// {marker}\nuse std::collections::{map};\n");
        assert_eq!(
            run("crates/core/src/engine/sender.rs", &marked),
            vec!["hot_path_alloc:2"]
        );

        let in_tests = format!(
            "// {marker}\n#[cfg(test)]\nmod tests {{\n    use std::collections::{map};\n}}\n"
        );
        assert!(run("crates/core/src/engine/sender.rs", &in_tests).is_empty());
    }

    #[test]
    fn virtual_clock_rule_scoped_to_core() {
        let now = concat!("Instant::", "now");
        let src = format!("let t = std::time::{now}();\n");
        assert_eq!(
            run("crates/core/src/engine/mod.rs", &src),
            vec!["virtual_clock:1"]
        );
        assert!(run("crates/ppmsg-host/src/reactor.rs", &src).is_empty());
    }

    #[test]
    fn allow_marker_suppresses() {
        let now = concat!("Instant::", "now");
        let allow = super::allow_marker("virtual_clock");
        let src = format!("let t = std::time::{now}(); // {allow}\n");
        assert!(run("crates/core/src/engine/mod.rs", &src).is_empty());
    }

    #[test]
    fn telemetry_files_must_carry_the_hot_path_marker() {
        // Sabotage: a telemetry file without the marker fires at line 1...
        let bare = "pub fn event() {}\n";
        assert_eq!(
            run("crates/core/src/telemetry/recorder.rs", bare),
            vec!["telemetry_hot_path:1"]
        );
        // ...and the same content outside the telemetry dir is fine.
        assert!(run("crates/core/src/engine/mod.rs", bare).is_empty());

        let marked = format!("// {}\npub fn event() {{}}\n", super::DENY_HOT_PATH);
        assert!(run("crates/core/src/telemetry/recorder.rs", &marked).is_empty());
    }

    #[test]
    fn telemetry_clock_escape_is_clock_rs_only() {
        let now = concat!("Instant::", "now");
        let allow = super::allow_marker("virtual_clock");
        let src = format!(
            "// {}\nlet t = std::time::{now}(); // {allow}\n",
            super::DENY_HOT_PATH
        );
        // Sabotage: the virtual_clock escape hatch inside a non-clock
        // telemetry file is itself a violation...
        assert_eq!(
            run("crates/core/src/telemetry/recorder.rs", &src),
            vec!["telemetry_clock:2"]
        );
        // ...while clock.rs (the abstraction's owner) may use it.
        assert!(run("crates/core/src/telemetry/clock.rs", &src).is_empty());
    }
}
