//! CI checker for the experiments-artifact pipeline: verifies that
//! every bench target listed in EXPERIMENTS.md's table actually emitted
//! its CSV artifacts under `target/raptee-bench/`.
//!
//! ```text
//! check_artifacts <EXPERIMENTS.md> <csv-dir> [target-prefix ...]
//! ```
//!
//! With no prefixes, every table row that names CSV files is checked;
//! with prefixes (e.g. `fig`), only rows whose bench target starts with
//! one of them. A row whose CSV cell names no `.csv` file (wall-clock
//! benches) is skipped. `*` in a CSV name is a glob over the directory
//! listing (`fig_panels_*.csv`). A named CSV must exist **and** be
//! non-empty; otherwise the checker lists every violation and exits 1 —
//! that is what fails the CI `experiments` job when a bench target
//! silently stops emitting its figure data.

use std::path::Path;
use std::process::ExitCode;

/// One EXPERIMENTS.md table row: the bench target and the CSV names its
/// last cell promises.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Row {
    target: String,
    csvs: Vec<String>,
}

/// Extracts the backtick-quoted spans of one line.
fn backtick_spans(line: &str) -> Vec<String> {
    let mut spans = Vec::new();
    let mut rest = line;
    while let Some(open) = rest.find('`') {
        let tail = &rest[open + 1..];
        let Some(close) = tail.find('`') else { break };
        spans.push(tail[..close].to_string());
        rest = &tail[close + 1..];
    }
    spans
}

/// Parses the EXPERIMENTS.md paper-vs-measured table into rows. A table
/// row looks like `| \`target\` | paper claim | measured | \`a.csv\`,
/// \`b.csv\` — notes |`; the first backticked span of the first cell is
/// the target, and every backticked span of the *last* cell ending in
/// `.csv` is a promised artifact.
fn parse_rows(markdown: &str) -> Vec<Row> {
    let mut rows = Vec::new();
    for line in markdown.lines() {
        let line = line.trim();
        if !line.starts_with("| `") {
            continue;
        }
        let cells: Vec<&str> = line.trim_matches('|').split('|').collect();
        if cells.len() < 2 {
            continue;
        }
        let Some(target) = backtick_spans(cells[0]).into_iter().next() else {
            continue;
        };
        let csvs: Vec<String> = backtick_spans(cells[cells.len() - 1])
            .into_iter()
            .filter(|s| s.ends_with(".csv"))
            .collect();
        rows.push(Row { target, csvs });
    }
    rows
}

/// Whether `name` matches `pattern`, where `*` matches any (possibly
/// empty) substring — enough for the `prefix_*.csv` forms the table
/// uses.
fn glob_matches(pattern: &str, name: &str) -> bool {
    let parts: Vec<&str> = pattern.split('*').collect();
    if parts.len() == 1 {
        return pattern == name;
    }
    let mut rest = name;
    for (i, part) in parts.iter().enumerate() {
        if i == 0 {
            let Some(r) = rest.strip_prefix(part) else {
                return false;
            };
            rest = r;
        } else if i == parts.len() - 1 {
            return rest.ends_with(part);
        } else if let Some(pos) = rest.find(part) {
            rest = &rest[pos + part.len()..];
        } else {
            return false;
        }
    }
    true
}

/// Checks one row against the CSV directory listing; returns the
/// violations (missing or empty artifacts).
fn check_row(row: &Row, dir: &Path, listing: &[String]) -> Vec<String> {
    let mut problems = Vec::new();
    for csv in &row.csvs {
        if csv.contains('*') {
            // A glob row needs at least one match, and every match must
            // be non-empty (an emitted-but-truncated artifact is as
            // silent a regression as a missing one).
            let matches: Vec<&String> = listing.iter().filter(|f| glob_matches(csv, f)).collect();
            if matches.is_empty() {
                problems.push(format!("{}: no file matches `{csv}`", row.target));
            }
            for name in matches {
                if std::fs::metadata(dir.join(name)).is_ok_and(|m| m.len() == 0) {
                    problems.push(format!("{}: `{name}` (via `{csv}`) is empty", row.target));
                }
            }
            continue;
        }
        let path = dir.join(csv);
        match std::fs::metadata(&path) {
            Err(_) => problems.push(format!("{}: `{csv}` was not emitted", row.target)),
            Ok(m) if m.len() == 0 => {
                problems.push(format!("{}: `{csv}` is empty", row.target));
            }
            Ok(_) => {}
        }
    }
    problems
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [md_path, dir_path, prefixes @ ..] = args.as_slice() else {
        eprintln!("usage: check_artifacts <EXPERIMENTS.md> <csv-dir> [target-prefix ...]");
        return ExitCode::FAILURE;
    };
    let markdown = match std::fs::read_to_string(md_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {md_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let dir = Path::new(dir_path);
    let listing: Vec<String> = std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok())
                .map(|e| e.file_name().to_string_lossy().into_owned())
                .collect()
        })
        .unwrap_or_default();

    let rows: Vec<Row> = parse_rows(&markdown)
        .into_iter()
        .filter(|r| !r.csvs.is_empty())
        .filter(|r| prefixes.is_empty() || prefixes.iter().any(|p| r.target.starts_with(p)))
        .collect();
    if rows.is_empty() {
        eprintln!("no EXPERIMENTS.md rows matched — wrong file or prefixes?");
        return ExitCode::FAILURE;
    }

    let mut problems = Vec::new();
    for row in &rows {
        problems.extend(check_row(row, dir, &listing));
    }
    if problems.is_empty() {
        println!(
            "all {} bench targets emitted their promised CSVs under {}",
            rows.len(),
            dir.display()
        );
        ExitCode::SUCCESS
    } else {
        for p in &problems {
            eprintln!("MISSING ARTIFACT — {p}");
        }
        eprintln!(
            "{} violation(s) across {} checked targets",
            problems.len(),
            rows.len()
        );
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TABLE: &str = "\
# header
| Target | Paper value | Measured | CSV |
|---|---|---|---|
| `fig3_brahms_baseline` | claim | cell | `fig3a.csv`, `fig3b.csv` |
| `fig_panels` | claim | | `fig_panels_*.csv` |
| `table1_sgx_overhead` | claim | | — (printed) |
| `fig_basalt_comparison` | claim | cell | `fig_basalt_comparisona.csv` — panel (b) differs |
";

    #[test]
    fn parses_targets_and_csvs() {
        let rows = parse_rows(TABLE);
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].target, "fig3_brahms_baseline");
        assert_eq!(rows[0].csvs, vec!["fig3a.csv", "fig3b.csv"]);
        assert_eq!(rows[1].csvs, vec!["fig_panels_*.csv"]);
        assert!(rows[2].csvs.is_empty(), "wall-clock rows promise no CSV");
        assert_eq!(
            rows[3].csvs,
            vec!["fig_basalt_comparisona.csv"],
            "prose after the CSV names is ignored"
        );
    }

    #[test]
    fn globs_match_prefix_patterns() {
        assert!(glob_matches("fig_panels_*.csv", "fig_panels_deg.csv"));
        assert!(glob_matches("a.csv", "a.csv"));
        assert!(!glob_matches("fig_panels_*.csv", "fig3a.csv"));
        assert!(!glob_matches("a.csv", "b.csv"));
        assert!(glob_matches("*b*.csv", "abc.csv"));
    }

    #[test]
    fn check_row_reports_missing_and_empty() {
        let dir = std::env::temp_dir().join(format!("raptee-check-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("fig3a.csv"), "round,value\n1,2\n").unwrap();
        std::fs::write(dir.join("fig3b.csv"), "").unwrap();
        let row = Row {
            target: "fig3_brahms_baseline".into(),
            csvs: vec!["fig3a.csv".into(), "fig3b.csv".into(), "fig3c.csv".into()],
        };
        let listing = vec!["fig3a.csv".to_string(), "fig3b.csv".to_string()];
        let problems = check_row(&row, &dir, &listing);
        assert_eq!(problems.len(), 2);
        assert!(problems[0].contains("fig3b.csv") && problems[0].contains("empty"));
        assert!(problems[1].contains("fig3c.csv") && problems[1].contains("not emitted"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn glob_rows_need_at_least_one_match() {
        let dir = std::env::temp_dir();
        let row = Row {
            target: "fig_panels".into(),
            csvs: vec!["fig_panels_*.csv".into()],
        };
        let problems = check_row(&row, &dir, &[]);
        assert_eq!(problems.len(), 1);
        let ok = check_row(&row, &dir, &["fig_panels_deg.csv".to_string()]);
        assert!(ok.is_empty());
    }

    #[test]
    fn glob_matched_files_must_be_non_empty() {
        let dir = std::env::temp_dir().join(format!("raptee-glob-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("fig_panels_deg.csv"), "h\n1\n").unwrap();
        std::fs::write(dir.join("fig_panels_path.csv"), "").unwrap();
        let row = Row {
            target: "fig_panels".into(),
            csvs: vec!["fig_panels_*.csv".into()],
        };
        let listing = vec![
            "fig_panels_deg.csv".to_string(),
            "fig_panels_path.csv".to_string(),
        ];
        let problems = check_row(&row, &dir, &listing);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("fig_panels_path.csv") && problems[0].contains("empty"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
