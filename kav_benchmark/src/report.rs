//! Parsers for what `kav` prints: the per-key report table on stdout, the
//! progress records on stderr, and `/proc/<pid>/status` for its memory.

use std::fmt;

/// One key's verdict as `kav` prints it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Yes,
    No,
    Unknown,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Yes => "YES",
            Verdict::No => "NO",
            Verdict::Unknown => "UNKNOWN",
        })
    }
}

/// One row of the per-key table `kav stream` and `kav serve` print.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KeyRow {
    pub key: u64,
    pub ops: u64,
    pub segments: u64,
    pub verdict: Verdict,
}

/// The parts of a `kav` report the benchmark checks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Report {
    /// The per-key table, in printed order.
    pub rows: Vec<KeyRow>,
    /// `kav serve` certified the fleet's YES.
    pub fleet_certified: bool,
}

const TABLE_HEADER: &str = "key | ops | segments | reads";

/// Parses the per-key table out of a `kav stream` / `kav serve` stdout.
pub fn parse_report(stdout: &str) -> Result<Report, String> {
    let mut lines = stdout.lines();
    if !lines.by_ref().any(|line| line.starts_with(TABLE_HEADER)) {
        return Err("no per-key table in kav's output".into());
    }
    let mut rows = Vec::new();
    for line in lines {
        let cells: Vec<&str> = line.split('|').map(str::trim).collect();
        if cells.len() != 7 {
            break; // the table ends at the verdict summary line
        }
        let number = |i: usize| {
            cells[i]
                .parse::<u64>()
                .map_err(|_| format!("bad table cell {:?} in {line:?}", cells[i]))
        };
        let verdict = match cells[6] {
            "YES" => Verdict::Yes,
            "NO" => Verdict::No,
            "UNKNOWN" => Verdict::Unknown,
            other => return Err(format!("bad verdict {other:?} in {line:?}")),
        };
        rows.push(KeyRow {
            key: number(0)?,
            ops: number(1)?,
            segments: number(2)?,
            verdict,
        });
    }
    Ok(Report {
        rows,
        fleet_certified: stdout.contains("(fleet certified)"),
    })
}

/// The `lines` count of a `--progress-every` record, or `None` for any
/// other stderr line.
pub fn progress_lines(line: &str) -> Option<u64> {
    if !line.starts_with("{\"record\":\"progress\"") {
        return None;
    }
    let rest = &line[line.find("\"lines\":")? + "\"lines\":".len()..];
    let digits = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..digits].parse().ok()
}

/// The `RssAnon` field of a `/proc/<pid>/status` file, in kB: resident
/// anonymous memory, which leaves out mapped file pages such as an
/// mmap'd input.
pub fn rss_anon_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|line| line.starts_with("RssAnon:"))?;
    line["RssAnon:".len()..]
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    const STREAM_OUT: &str = "\
verified 12 ops across 3 keys (fzf, k=2, window 1024, 2 shards)
key | ops | segments | reads | depth mean/max | breach/orphan | verdict
  0 |     4 |        1 |     2 |    0.50/1    |      0/0      | YES
  1 |     4 |        1 |     2 |    0.00/0    |      0/0      | NO
 17 |     4 |        2 |     2 |    0.00/0    |      0/1      | UNKNOWN
";

    #[test]
    fn parses_the_key_table() {
        let report = parse_report(STREAM_OUT).unwrap();
        assert_eq!(report.rows.len(), 3);
        assert_eq!(
            report.rows[0],
            KeyRow {
                key: 0,
                ops: 4,
                segments: 1,
                verdict: Verdict::Yes
            }
        );
        assert_eq!(report.rows[1].verdict, Verdict::No);
        assert_eq!(
            report.rows[2],
            KeyRow {
                key: 17,
                ops: 4,
                segments: 2,
                verdict: Verdict::Unknown
            }
        );
        assert!(!report.fleet_certified);
    }

    #[test]
    fn table_ends_at_the_summary_and_sees_fleet_certification() {
        let serve = format!(
            "fleet: 2 workers (2 alive at the end), 2 ranges, 0 hand-offs (0 uncertified), \
             0 splits, 0 frames dropped\n{STREAM_OUT}YES: every key is 2-atomic (fleet certified)\n"
        );
        let report = parse_report(&serve).unwrap();
        assert_eq!(report.rows.len(), 3);
        assert!(report.fleet_certified);
    }

    #[test]
    fn rejects_output_without_a_table_or_with_a_bad_verdict() {
        assert!(parse_report("error: no such file\n").is_err());
        let bad = STREAM_OUT.replace("UNKNOWN", "MAYBE");
        assert!(parse_report(&bad).is_err());
    }

    #[test]
    fn reads_lines_from_progress_records_only() {
        let line = r#"{"record":"progress","lines":4096,"checkpoint_version":0,"ops_routed":4096}"#;
        assert_eq!(progress_lines(line), Some(4096));
        assert_eq!(progress_lines("warning: something"), None);
        assert_eq!(progress_lines(r#"{"record":"progress","ops":3}"#), None);
    }

    #[test]
    fn parses_rss_anon() {
        let status =
            "Name:\tkav\nVmRSS:\t   91236 kB\nRssAnon:\t   20480 kB\nRssFile:\t   70756 kB\n";
        assert_eq!(rss_anon_kb(status), Some(20480));
        assert_eq!(rss_anon_kb("Name:\tkav\nState:\tZ (zombie)\n"), None);
    }
}
