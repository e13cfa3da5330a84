//! End-to-end tests of the `kav` binary: spawn the real executable, drive
//! the documented workflows, and check the observable output.

use std::path::PathBuf;
use std::process::{Command, Output};

fn kav(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_kav"))
        .args(args)
        .output()
        .expect("kav binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn temp_file(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("kav_cli_tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn no_args_prints_usage() {
    let out = kav(&[]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("USAGE"));
}

#[test]
fn unknown_subcommand_fails_with_usage() {
    let out = kav(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown subcommand"));
}

#[test]
fn gen_verify_smallest_k_pipeline() {
    let path = temp_file("ladder3.json");
    let out = kav(&["gen", "--workload", "ladder", "--k", "3", "--out", path.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr(&out));

    let out = kav(&["verify", "--k", "2", path.to_str().unwrap()]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("NO"), "{}", stdout(&out));

    let out = kav(&["verify", "--k", "3", path.to_str().unwrap()]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("YES"), "{}", stdout(&out));

    let out = kav(&["smallest-k", path.to_str().unwrap()]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("smallest k = 3"), "{}", stdout(&out));
}

#[test]
fn verify_with_witness_prints_the_order() {
    let path = temp_file("serial.json");
    kav(&["gen", "--workload", "serial", "--n", "6", "--out", path.to_str().unwrap()]);
    let out = kav(&["verify", "--k", "2", "--algo", "lbt", "--witness", path.to_str().unwrap()]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("YES"));
    assert!(text.contains("witness order"), "{text}");
    assert!(text.contains("write(v1)"), "{text}");
}

#[test]
fn csv_roundtrip_through_the_cli() {
    let path = temp_file("hist.csv");
    let out = kav(&["gen", "--workload", "random", "--n", "40", "--out", path.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(text.starts_with("kind,value,start,finish,weight"), "{text}");

    let out = kav(&["stats", path.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("operations:             40"));
}

#[test]
fn diagnose_and_render() {
    let path = temp_file("figure3.json");
    kav(&["gen", "--workload", "figure3", "--out", path.to_str().unwrap()]);

    let out = kav(&["diagnose", path.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("staleness"), "{text}");
    assert!(text.contains("no viable order"), "{text}");

    let out = kav(&["render", "--width", "80", path.to_str().unwrap()]);
    assert!(out.status.success());
    let art = stdout(&out);
    assert_eq!(art.lines().count(), 23, "one row per operation");
    assert!(art.contains("W(1)"));
}

#[test]
fn sim_prints_per_key_staleness_table() {
    let out = kav(&["sim", "--clients", "3", "--ops", "15", "--keys", "2", "--seed", "5"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("simulated"), "{text}");
    assert!(text.contains("key | ops | c | smallest k"), "{text}");
    assert!(text.lines().count() >= 4, "{text}");
}

#[test]
fn reduce_decides_bin_packing() {
    let out = kav(&["reduce", "--sizes", "3,3,3", "--bins", "2", "--capacity", "5"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("k = 7"), "{text}");
    assert!(text.contains("k-WAV verdict: NO"), "{text}");
    assert!(text.contains("exact bin packing: NO"), "{text}");

    let out = kav(&["reduce", "--sizes", "3,2", "--bins", "2", "--capacity", "5"]);
    let text = stdout(&out);
    assert!(text.contains("k-WAV verdict: YES"), "{text}");
}

#[test]
fn malformed_input_is_reported() {
    let path = temp_file("garbage.json");
    std::fs::write(&path, "{ not json").unwrap();
    let out = kav(&["verify", "--k", "2", path.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("error"), "{}", stderr(&out));

    let out = kav(&["verify", "--k"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("requires a value"));
}

/// The two audit drivers, `kav stream` and `kav serve`, which share one
/// session: tests of that shared behaviour run against both.
const DRIVERS: [&[&str]; 2] = [&["stream"], &["serve", "--workers", "2"]];

/// `driver` followed by `rest`.
fn argv<'a>(driver: &[&'a str], rest: &[&'a str]) -> Vec<&'a str> {
    [driver, rest].concat()
}

fn kav_with_stdin(args: &[&str], stdin: impl AsRef<[u8]>) -> Output {
    use std::io::Write;
    use std::process::Stdio;
    let mut child = Command::new(env!("CARGO_BIN_EXE_kav"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("kav binary spawns");
    // A write error (EPIPE) is fine: kav exits without draining stdin
    // when its flags are rejected up front.
    let _ = child.stdin.take().unwrap().write_all(stdin.as_ref());
    child.wait_with_output().expect("kav binary runs")
}

#[test]
fn stream_pipeline_from_generated_file() {
    let path = temp_file("ops.ndjson");
    let out = kav(&[
        "gen", "--workload", "stream", "--keys", "3", "--n", "80", "--seed", "2", "--out",
        path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("wrote 240 stream records"), "{}", stdout(&out));

    let out = kav(&["stream", "--window", "64", "--shards", "2", path.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("verified 240 ops across 3 keys"), "{text}");
    assert!(text.contains("key | ops | segments"), "{text}");
    assert!(text.contains("YES: every key is 2-atomic"), "{text}");
}

#[test]
fn stream_reads_ndjson_from_stdin() {
    let gen = kav(&["gen", "--workload", "stream", "--keys", "2", "--n", "40"]);
    assert!(gen.status.success(), "{}", stderr(&gen));
    let ndjson = stdout(&gen);
    assert!(ndjson.lines().count() == 80, "one record per line");

    let out = kav_with_stdin(&["stream", "--window", "32", "-"], &ndjson);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("across 2 keys"), "{}", stdout(&out));
}

#[test]
fn stream_exits_one_on_violation() {
    // ladder(3) is not 2-atomic: three writes, then a read of the first.
    let ndjson = r#"
        {"key":5,"kind":"write","value":1,"start":0,"finish":10}
        {"key":5,"kind":"write","value":2,"start":12,"finish":20}
        {"key":5,"kind":"write","value":3,"start":22,"finish":30}
        {"key":5,"kind":"read","value":1,"start":32,"finish":40}
    "#;
    let out = kav_with_stdin(&["stream", "-"], ndjson);
    assert_eq!(out.status.code(), Some(1), "violations exit 1: {}", stderr(&out));
    assert!(stdout(&out).contains("| NO"), "{}", stdout(&out));
    assert!(stderr(&out).contains("NO: 1 keys are not 2-atomic"), "{}", stderr(&out));

    // The same stream passes at k = 1... it must not: it is not 1-atomic
    // either, and gk must also report the violation.
    let out = kav_with_stdin(&["stream", "--k", "1", "-"], ndjson);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(stderr(&out).contains("not 1-atomic"), "{}", stderr(&out));
}

#[test]
fn stream_exits_two_on_bad_records() {
    for driver in DRIVERS {
        // Malformed JSON lines: skipped but reported with line numbers, and
        // the run still completes (valid records verify) — exit code 2 says
        // "input was unusable", distinct from a verified violation's 1.
        let ndjson = "{\"kind\":\"write\"\n\
            {\"kind\":\"write\",\"value\":1,\"start\":0,\"finish\":10}\n\
            not json\n\
            {\"kind\":\"read\",\"value\":1,\"start\":12,\"finish\":20}\n";
        let out = kav_with_stdin(&argv(driver, &["-"]), ndjson);
        assert_eq!(out.status.code(), Some(2), "bad input exits 2: {}", stderr(&out));
        assert!(stderr(&out).contains("line 1"), "{}", stderr(&out));
        assert!(stderr(&out).contains("line 3"), "{}", stderr(&out));
        assert!(stderr(&out).contains("2 malformed records were skipped"), "{}", stderr(&out));
        assert!(stdout(&out).contains("verified 2 ops across 1 keys"), "{}", stdout(&out));
        assert!(stdout(&out).contains("| YES"), "{}", stdout(&out));

        // Well-formed JSON violating the schema rules (out of completion
        // order): the offending key is reported — still an input problem, 2.
        let ndjson = r#"
            {"key":1,"kind":"write","value":1,"start":0,"finish":10}
            {"key":1,"kind":"write","value":2,"start":2,"finish":8}
        "#;
        let out = kav_with_stdin(&argv(driver, &["-"]), ndjson);
        assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
        assert!(stderr(&out).contains("key 1"), "{}", stderr(&out));
        assert!(stderr(&out).contains("completion order"), "{}", stderr(&out));

        // Missing input argument.
        let out = kav(driver);
        assert!(!out.status.success());
        assert!(stderr(&out).contains("NDJSON"), "{}", stderr(&out));
    }
}

#[test]
fn stream_never_reports_io_or_usage_trouble_as_a_violation() {
    // Exit 1 is reserved for proven violations: an unreadable file and an
    // unparseable flag both verified nothing, so they take the bad-input
    // code instead of the generic 1.
    let out = kav(&["stream", "/nonexistent/ops.ndjson"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("/nonexistent/ops.ndjson: "), "{}", stderr(&out));
    // A directory opens, but every read of it fails.
    let dir = std::env::temp_dir();
    for format in ["ndjson", "binary"] {
        let out = kav(&["stream", "--format", format, dir.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
        assert!(stderr(&out).contains(&format!("{}: ", dir.display())), "{}", stderr(&out));
    }

    let out = kav(&["stream", "--window", "many", "-"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("window"), "{}", stderr(&out));
}

#[test]
fn an_empty_file_is_an_empty_record_stream_but_not_a_frame_stream() {
    let path = temp_file("empty_input.ndjson");
    std::fs::write(&path, "").unwrap();
    let out = kav(&["stream", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(stdout(&out).contains("verified 0 ops"), "{}", stdout(&out));
    assert!(stdout(&out).contains("YES"), "{}", stdout(&out));

    let out = kav(&["stream", "--format", "binary", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("not a kav binary frame stream"), "{}", stderr(&out));
}

#[test]
fn stream_violation_outranks_bad_records() {
    for driver in DRIVERS {
        // Both a malformed line AND a genuine violation: the violation wins
        // the exit code (1), while the malformed line is still reported.
        let ndjson = "not json\n\
            {\"key\":5,\"kind\":\"write\",\"value\":1,\"start\":0,\"finish\":10}\n\
            {\"key\":5,\"kind\":\"write\",\"value\":2,\"start\":12,\"finish\":20}\n\
            {\"key\":5,\"kind\":\"write\",\"value\":3,\"start\":22,\"finish\":30}\n\
            {\"key\":5,\"kind\":\"read\",\"value\":1,\"start\":32,\"finish\":40}\n";
        let out = kav_with_stdin(&argv(driver, &["-"]), ndjson);
        assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
        assert!(stderr(&out).contains("line 1"), "{}", stderr(&out));
        assert!(stderr(&out).contains("NO: 1 keys are not 2-atomic"), "{}", stderr(&out));
    }
}

#[test]
fn stream_strict_fails_fast_on_first_malformed_line() {
    for driver in DRIVERS {
        let ndjson = "{\"kind\":\"write\",\"value\":1,\"start\":0,\"finish\":10}\n\
            not json\n\
            {\"kind\":\"read\",\"value\":1,\"start\":12,\"finish\":20}\n";
        let out = kav_with_stdin(&argv(driver, &["--strict", "-"]), ndjson);
        assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
        assert!(stderr(&out).contains("--strict"), "{}", stderr(&out));
        assert!(stderr(&out).contains("line 2"), "{}", stderr(&out));
        // Fail-fast: no verification summary was printed.
        assert!(!stdout(&out).contains("verified"), "{}", stdout(&out));

        // The same input without --strict completes and verifies the good key.
        let out = kav_with_stdin(&argv(driver, &["-"]), ndjson);
        assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
        assert!(stdout(&out).contains("verified 2 ops"), "{}", stdout(&out));
    }
}

#[test]
fn strict_exits_at_a_malformed_first_line_while_stdin_stays_open() {
    // The input is still open when --strict stops the audit: leaving must
    // not wait on the thread blocked reading it.
    use std::io::Write;
    use std::process::Stdio;
    use std::time::{Duration, Instant};
    for driver in DRIVERS {
        let mut child = Command::new(env!("CARGO_BIN_EXE_kav"))
            .args(argv(driver, &["--strict", "-"]))
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("kav binary spawns");
        let mut stdin = child.stdin.take().unwrap();
        stdin.write_all(b"not json\n").unwrap();
        stdin.flush().unwrap();
        let started = Instant::now();
        while child.try_wait().unwrap().is_none() && started.elapsed() < Duration::from_secs(10) {
            std::thread::sleep(Duration::from_millis(10));
        }
        let waited = started.elapsed();
        if child.try_wait().unwrap().is_none() {
            child.kill().unwrap();
        }
        let out = child.wait_with_output().unwrap();
        drop(stdin);
        assert!(waited < Duration::from_secs(5), "{} took {waited:?} to exit", driver[0]);
        assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
        assert!(stderr(&out).contains("--strict: line 1"), "{}", stderr(&out));
    }
}

#[test]
fn a_line_over_the_cap_ends_the_audit_with_a_typed_error() {
    // 2 MiB with no newline: the reader stops at the 1 MiB line cap
    // rather than buffering the line whole.
    let input = vec![b'x'; 2 << 20];
    for driver in DRIVERS {
        let out = kav_with_stdin(&argv(driver, &["-"]), &input);
        assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
        let expected = "-: line 1: longer than the 1048576-byte line cap";
        assert!(stderr(&out).contains(expected), "{}", stderr(&out));
        assert!(!stderr(&out).contains("panicked"), "{}", stderr(&out));
    }
}

/// `lines` as an NDJSON document whose line 2 is not UTF-8: a key-7
/// record that would be well-formed but for one byte in an unknown field.
fn with_invalid_utf8_on_line_two(lines: &[&str]) -> Vec<u8> {
    let mut doc = format!("{}\n", lines[0]).into_bytes();
    doc.extend_from_slice(
        b"{\"key\":7,\"kind\":\"write\",\"value\":1,\"start\":0,\"finish\":1,\"note\":\"caf\xe9\"}\n",
    );
    for line in &lines[1..] {
        doc.extend_from_slice(format!("{line}\n").as_bytes());
    }
    doc
}

#[test]
fn invalid_utf8_is_a_malformed_record_from_a_file_or_stdin() {
    let clean = with_invalid_utf8_on_line_two(&[
        r#"{"key":1,"kind":"write","value":1,"start":0,"finish":10}"#,
        r#"{"key":1,"kind":"read","value":1,"start":12,"finish":20}"#,
    ]);
    let ladder = with_invalid_utf8_on_line_two(&[
        r#"{"key":5,"kind":"write","value":1,"start":0,"finish":10}"#,
        r#"{"key":5,"kind":"write","value":2,"start":12,"finish":20}"#,
        r#"{"key":5,"kind":"write","value":3,"start":22,"finish":30}"#,
        r#"{"key":5,"kind":"read","value":1,"start":32,"finish":40}"#,
    ]);
    let (clean_file, ladder_file) = (temp_file("bad_utf8.ndjson"), temp_file("bad_utf8_no.ndjson"));
    std::fs::write(&clean_file, &clean).unwrap();
    std::fs::write(&ladder_file, &ladder).unwrap();
    for driver in DRIVERS {
        let run = |input: &[u8], file: &PathBuf, rest: &[&str], from_stdin: bool| {
            if from_stdin {
                kav_with_stdin(&argv(driver, &[rest, &["-"]].concat()), input)
            } else {
                kav(&argv(driver, &[rest, &[file.to_str().unwrap()]].concat()))
            }
        };
        for from_stdin in [false, true] {
            // The bad line is skipped and reported with its number; the key
            // table still prints and the run completes with exit 2.
            let out = run(&clean, &clean_file, &[], from_stdin);
            assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
            assert!(stdout(&out).contains("verified 2 ops across 1 keys"), "{}", stdout(&out));
            assert!(stdout(&out).contains("| YES"), "{}", stdout(&out));
            let bad_line = "line 2: invalid stream record: invalid utf-8";
            assert!(stderr(&out).contains(bad_line), "{}", stderr(&out));
            assert!(stderr(&out).contains("1 malformed records were skipped"), "{}", stderr(&out));

            // A proven violation still outranks the bad line.
            let out = run(&ladder, &ladder_file, &[], from_stdin);
            assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
            assert!(stderr(&out).contains("line 2"), "{}", stderr(&out));
            assert!(stderr(&out).contains("NO: 1 keys are not 2-atomic"), "{}", stderr(&out));

            // --strict stops at the bad line and names it.
            let out = run(&clean, &clean_file, &["--strict"], from_stdin);
            assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
            assert!(stderr(&out).contains("--strict: line 2"), "{}", stderr(&out));
            assert!(!stdout(&out).contains("verified"), "{}", stdout(&out));
        }
    }
}

#[test]
fn stdin_and_file_checkpoints_are_byte_identical() {
    // The same bytes, one bad line included, checkpoint the same whether
    // they are read from a file or from stdin: one decoder reads both.
    let input = stream_fixture("ckpt_source_ops.ndjson");
    let mut doc = std::fs::read(&input).unwrap();
    doc.splice(0..0, b"{\"kind\":\xff}\n".iter().copied());
    std::fs::write(&input, &doc).unwrap();
    for driver in DRIVERS {
        let checkpoint = |from_stdin: bool| {
            let ckpt = temp_file(&format!("ckpt_source_{}_{from_stdin}.ckpt", driver[0]));
            std::fs::remove_file(&ckpt).ok();
            let flags = ["--window", "32", "--checkpoint", ckpt.to_str().unwrap()];
            let flags = [&flags[..], &["--checkpoint-every", "50"]].concat();
            let out = if from_stdin {
                kav_with_stdin(&argv(driver, &[&flags[..], &["-"]].concat()), &doc)
            } else {
                kav(&argv(driver, &[&flags[..], &[input.to_str().unwrap()]].concat()))
            };
            assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
            (stdout(&out), std::fs::read(&ckpt).unwrap())
        };
        let (file_out, file_ckpt) = checkpoint(false);
        let (stdin_out, stdin_ckpt) = checkpoint(true);
        assert_eq!(file_out, stdin_out);
        assert!(file_ckpt == stdin_ckpt, "{} checkpoints differ by source", driver[0]);
    }
}

#[test]
fn binary_stdin_and_file_runs_are_byte_identical() {
    // The frame twin of the test above: one reader takes frames from a
    // file or from stdin, so the table, the exit code and the checkpoint
    // match. One flipped kind byte makes a malformed frame.
    let input = temp_file("binary_source_ops.bin");
    let out = kav(&[
        "gen", "--workload", "stream", "--keys", "3", "--n", "200", "--format", "binary",
        "--out", input.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let mut frames = std::fs::read(&input).unwrap();
    frames[8 + 10 * 37 + 36] = 9;
    std::fs::write(&input, &frames).unwrap();
    for driver in DRIVERS {
        let run = |from_stdin: bool| {
            let ckpt = temp_file(&format!("binary_source_{}_{from_stdin}.ckpt", driver[0]));
            std::fs::remove_file(&ckpt).ok();
            let flags = ["--format", "binary", "--window", "32", "--checkpoint-every", "50"];
            let flags = [&flags[..], &["--checkpoint", ckpt.to_str().unwrap()]].concat();
            let out = if from_stdin {
                kav_with_stdin(&argv(driver, &[&flags[..], &["-"]].concat()), &frames)
            } else {
                kav(&argv(driver, &[&flags[..], &[input.to_str().unwrap()]].concat()))
            };
            assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
            assert!(stderr(&out).contains("line 11: "), "{}", stderr(&out));
            (stdout(&out), std::fs::read(&ckpt).unwrap())
        };
        let (file_out, file_ckpt) = run(false);
        let (stdin_out, stdin_ckpt) = run(true);
        assert!(file_out.contains("key | ops"), "{file_out}");
        assert_eq!(file_out, stdin_out);
        assert!(file_ckpt == stdin_ckpt, "{} checkpoints differ by source", driver[0]);
    }
}

#[test]
fn gen_binary_writes_the_same_frames_to_stdout_and_to_a_file() {
    // One rule picks the layout for both sinks: v1 for untagged streams,
    // v2 as soon as a record carries a client tag.
    for (workload, magic) in [("stream", b"KAVF0001"), ("causal-stream", b"KAVF0002")] {
        let path = temp_file(&format!("gen_binary_{workload}.bin"));
        let gen = ["gen", "--workload", workload, "--keys", "3", "--n", "40", "--seed", "9"];
        let gen = [&gen[..], &["--format", "binary"]].concat();
        let out = kav(&[&gen[..], &["--out", path.to_str().unwrap()]].concat());
        assert!(out.status.success(), "{}", stderr(&out));
        let file = std::fs::read(&path).unwrap();
        assert_eq!(&file[..8], magic, "{workload}");
        let out = kav(&gen);
        assert!(out.status.success(), "{}", stderr(&out));
        assert!(out.stdout == file, "{workload}: stdout and --out frames differ");
    }
}

#[test]
fn a_file_truncated_mid_run_ends_the_stream_with_a_report() {
    // copytruncate log rotation cuts the input to 0 bytes under a running
    // audit: the reader meets end of input, the torn buffered line is one
    // malformed record, and the run still reports.
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;
    let path = temp_file("truncated_mid_run.ndjson");
    let out = kav(&[
        "gen", "--workload", "stream", "--keys", "6", "--n", "25000", "--out",
        path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let mut child = Command::new(env!("CARGO_BIN_EXE_kav"))
        .args(["stream", "--progress-every", "1000", path.to_str().unwrap()])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("kav binary spawns");
    let (mut truncated, mut diagnostics) = (false, String::new());
    for line in BufReader::new(child.stderr.take().unwrap()).lines() {
        let line = line.unwrap();
        if !line.contains("\"record\":\"progress\"") {
            diagnostics.push_str(&line);
            diagnostics.push('\n');
        } else if !truncated {
            std::fs::OpenOptions::new().write(true).open(&path).unwrap().set_len(0).unwrap();
            truncated = true;
        }
    }
    let out = child.wait_with_output().unwrap();
    assert!(truncated, "no progress record arrived: {diagnostics}");
    assert!(out.status.code().is_some(), "kav died: {:?}\n{diagnostics}", out.status);
    assert!(stdout(&out).contains("key | ops"), "{}\n{diagnostics}", stdout(&out));
}

#[cfg(target_os = "linux")]
#[test]
fn a_pipe_given_as_the_file_argument_is_audited_as_it_arrives() {
    use std::io::{BufRead, BufReader, Write};
    use std::process::Stdio;
    use std::time::Duration;
    let mut child = Command::new(env!("CARGO_BIN_EXE_kav"))
        .args(["stream", "--progress-every", "100", "/dev/stdin"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("kav binary spawns");
    let (lines, received) = std::sync::mpsc::channel();
    let stderr_pipe = child.stderr.take().unwrap();
    let reader = std::thread::spawn(move || {
        for line in BufReader::new(stderr_pipe).lines().map_while(Result::ok) {
            let _ = lines.send(line);
        }
    });
    let mut stdin = child.stdin.take().unwrap();
    for i in 0..200u64 {
        let (start, finish) = (10 * i, 10 * i + 5);
        writeln!(stdin, r#"{{"kind":"write","value":{i},"start":{start},"finish":{finish}}}"#)
            .unwrap();
    }
    // The pipe stays open: a progress record must come before the end.
    let first = received.recv_timeout(Duration::from_secs(20));
    drop(stdin);
    let out = child.wait_with_output().unwrap();
    reader.join().unwrap();
    let first = first.expect("no progress record before the writer closed the pipe");
    assert!(first.contains("\"record\":\"progress\""), "{first}");
    assert_eq!(out.status.code(), Some(0), "{}", stdout(&out));
    assert!(stdout(&out).contains("YES"), "{}", stdout(&out));
}

#[test]
fn stream_honours_horizon_and_batch_flags() {
    // Window 1 with a huge horizon: the late read of value 1 is a certain
    // breach (its write sealed away) — UNKNOWN, but a *successful* run.
    let ndjson = r#"
        {"key":9,"kind":"write","value":1,"start":0,"finish":10}
        {"key":9,"kind":"write","value":2,"start":12,"finish":20}
        {"key":9,"kind":"write","value":3,"start":22,"finish":30}
        {"key":9,"kind":"read","value":1,"start":32,"finish":40}
        {"key":9,"kind":"write","value":4,"start":42,"finish":50}
    "#;
    let out = kav_with_stdin(
        &["stream", "--window", "1", "--horizon", "1000", "--batch", "2", "-"],
        ndjson,
    );
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(stdout(&out).contains("UNKNOWN"), "{}", stdout(&out));
    assert!(stdout(&out).contains("--horizon"), "{}", stdout(&out));
}

/// Generates a clean 3-key stream file and returns its path.
fn stream_fixture(name: &str) -> PathBuf {
    let path = temp_file(name);
    let out = kav(&[
        "gen", "--workload", "stream", "--keys", "3", "--n", "80", "--seed", "7", "--out",
        path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    path
}

/// Extracts the `"lines"` field of a checkpoint file (flat JSON scrape —
/// enough for tests).
fn checkpoint_lines(path: &PathBuf) -> usize {
    let text = std::fs::read_to_string(path).unwrap();
    let at = text.find("\"lines\":").expect("checkpoint records lines") + 8;
    text[at..].chars().take_while(char::is_ascii_digit).collect::<String>().parse().unwrap()
}

#[test]
fn stream_checkpointed_run_resumes_to_the_same_verdicts() {
    let input = stream_fixture("resume_ops.ndjson");
    let ckpt = temp_file("resume_ops.ckpt");
    std::fs::remove_file(&ckpt).ok();

    let uninterrupted = kav(&["stream", "--window", "32", input.to_str().unwrap()]);
    assert!(uninterrupted.status.success(), "{}", stderr(&uninterrupted));

    // A checkpointing run writes a monotonically versioned file and does
    // not change the verdicts.
    let checkpointed = kav(&[
        "stream", "--window", "32", "--checkpoint", ckpt.to_str().unwrap(),
        "--checkpoint-every", "50", input.to_str().unwrap(),
    ]);
    assert!(checkpointed.status.success(), "{}", stderr(&checkpointed));
    assert_eq!(stdout(&checkpointed), stdout(&uninterrupted));
    let text = std::fs::read_to_string(&ckpt).unwrap();
    assert!(text.contains("\"format\":1"), "{text}");
    assert!(text.contains("\"version\":4"), "240 records / 50 = 4 checkpoints: {text}");

    // Resuming from the checkpoint re-verifies the prefix fingerprint and
    // lands on exactly the uninterrupted verdicts.
    let resumed = kav(&["stream", "--resume", ckpt.to_str().unwrap(), input.to_str().unwrap()]);
    assert!(resumed.status.success(), "{}", stderr(&resumed));
    let resumed_out = stdout(&resumed);
    assert!(resumed_out.contains("resumed from checkpoint v4"), "{resumed_out}");
    assert!(resumed_out.contains("prefix verified"), "{resumed_out}");
    let tail = resumed_out.lines().skip(1).collect::<Vec<_>>().join("\n");
    let expected = stdout(&uninterrupted);
    assert_eq!(tail.trim_end(), expected.trim_end(), "verdicts must not depend on resume");
}

#[test]
fn checkpoint_to_a_bare_file_name_lands_in_the_working_directory() {
    // `Path::new("audit.ckpt").parent()` is `Some("")`: syncing the
    // checkpoint's directory after the rename must fall back to `.`. The
    // subprocess's `current_dir` keeps this test's own directory fixed.
    let input = stream_fixture("bare_name_ops.ndjson");
    let dir = temp_file("bare_name_dir");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_kav"))
        .current_dir(&dir)
        .args(["stream", "--window", "32", "--checkpoint", "audit.ckpt"])
        .args(["--checkpoint-every", "50", input.to_str().unwrap()])
        .output()
        .expect("kav binary runs");
    assert!(out.status.success(), "{}", stderr(&out));
    let checkpoint =
        kav_core::read_checkpoint(dir.join("audit.ckpt")).expect("the checkpoint reads back");
    assert_eq!(checkpoint.version, 4, "240 records / 50 = 4 checkpoints");
    assert_eq!(checkpoint.source.lines, 200);
    assert!(!dir.join("audit.ckpt.tmp").exists(), "temp file must be renamed away");
}

#[test]
fn stream_resume_rejects_a_diverged_prefix_and_conflicting_flags() {
    for driver in DRIVERS {
        let input = stream_fixture("tamper_ops.ndjson");
        let ckpt = temp_file(&format!("tamper_ops_{}.ckpt", driver[0]));
        std::fs::remove_file(&ckpt).ok();
        let out = kav(&argv(driver, &[
            "--window", "32", "--checkpoint", ckpt.to_str().unwrap(),
            "--checkpoint-every", "50", input.to_str().unwrap(),
        ]));
        assert!(out.status.success(), "{}", stderr(&out));

        // Changing an already-audited record breaks the fingerprint: resume
        // must refuse rather than silently continue a different audit.
        let original = std::fs::read_to_string(&input).unwrap();
        let tampered_input = temp_file("tampered_ops.ndjson");
        let mut lines: Vec<&str> = original.lines().collect();
        let swapped = lines[0].replace("\"start\":", "\"start\": ");
        lines[0] = &swapped;
        std::fs::write(&tampered_input, lines.join("\n") + "\n").unwrap();
        let out = kav(&argv(driver, &[
            "--resume", ckpt.to_str().unwrap(), tampered_input.to_str().unwrap(),
        ]));
        assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
        assert!(stderr(&out).contains("fingerprint mismatch"), "{}", stderr(&out));

        // Contradicting a checkpointed parameter is rejected, not silently
        // adopted.
        let out = kav(&argv(driver, &[
            "--resume", ckpt.to_str().unwrap(), "--window", "64", input.to_str().unwrap(),
        ]));
        assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
        assert!(stderr(&out).contains("conflicts with the checkpoint"), "{}", stderr(&out));

        // A checkpoint that is not a checkpoint.
        let garbled = temp_file("garbled.ckpt");
        std::fs::write(&garbled, "{ nope").unwrap();
        let out =
            kav(&argv(driver, &["--resume", garbled.to_str().unwrap(), input.to_str().unwrap()]));
        assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
        assert!(stderr(&out).contains("not a valid checkpoint"), "{}", stderr(&out));
    }
}

#[test]
fn extreme_window_and_batch_values_end_in_a_verdict() {
    // Windows and batches far beyond any stream (2^40, u64::MAX) must not
    // size channels or buffers from the flag: every run ends like the
    // default one, with a verdict, never an allocation abort or overflow.
    let input = temp_file("extreme_flags_ops.ndjson");
    let out = kav(&[
        "gen", "--workload", "stream", "--keys", "4", "--n", "25", "--out",
        input.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let input = input.to_str().unwrap();
    let ckpt = temp_file("extreme_flags.ckpt");
    std::fs::remove_file(&ckpt).ok();
    let ckpt = ckpt.to_str().unwrap();
    let default = kav(&["stream", "--checkpoint", ckpt, "--checkpoint-every", "50", input]);
    assert_eq!(default.status.code(), Some(0), "{}", stderr(&default));
    // A checkpoint is untrusted input: rewrite its window fields.
    let text = std::fs::read_to_string(ckpt).unwrap();
    assert!(text.contains("\"window\":1024"), "{text}");
    let rewritten = temp_file("extreme_flags_window.ckpt");
    std::fs::write(&rewritten, text.replace("\"window\":1024", "\"window\":1099511627776"))
        .unwrap();

    let runs: [&[&str]; 6] = [
        &["stream", "--window", "1099511627776", input],
        &["stream", "--window", "18446744073709551615", input],
        &["stream", "--batch", "1099511627776", input],
        &["stream", "--batch", "18446744073709551615", input],
        &["stream", "--resume", rewritten.to_str().unwrap(), input],
        &["serve", "--workers", "1", "--window", "1099511627776", input],
    ];
    for args in runs {
        let out = kav(args);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {}", stderr(&out));
        assert!(stdout(&out).contains("YES: every key is 2-atomic"), "{args:?}: {}", stdout(&out));
    }
}

#[test]
fn stream_resume_from_stdin_degrades_yes_to_unknown() {
    for driver in DRIVERS {
        let input = stream_fixture("stdin_resume_ops.ndjson");
        let ckpt = temp_file(&format!("stdin_resume_ops_{}.ckpt", driver[0]));
        std::fs::remove_file(&ckpt).ok();
        let out = kav(&argv(driver, &[
            "--window", "32", "--checkpoint", ckpt.to_str().unwrap(),
            "--checkpoint-every", "50", input.to_str().unwrap(),
        ]));
        assert!(out.status.success(), "{}", stderr(&out));

        // Feed exactly the unaudited remainder on stdin: the audit completes,
        // but without prefix verification YES degrades to UNKNOWN (exit 0 —
        // nothing is wrong with store or tap).
        let lines_done = checkpoint_lines(&ckpt);
        let remainder: String = std::fs::read_to_string(&input)
            .unwrap()
            .lines()
            .skip(lines_done)
            .map(|l| format!("{l}\n"))
            .collect();
        let out =
            kav_with_stdin(&argv(driver, &["--resume", ckpt.to_str().unwrap(), "-"]), &remainder);
        assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
        assert!(stdout(&out).contains("prefix unverified"), "{}", stdout(&out));
        assert!(stdout(&out).contains("UNKNOWN"), "{}", stdout(&out));
        assert!(stdout(&out).contains("resume chain"), "{}", stdout(&out));
        assert!(stderr(&out).contains("resuming from stdin"), "{}", stderr(&out));
    }
}

#[test]
fn stream_violation_after_resume_still_exits_one() {
    // The violating read arrives only after the checkpoint: the resumed
    // audit must still prove NO — even over an unverified (stdin) chain.
    let input = temp_file("violation_tail.ndjson");
    std::fs::write(
        &input,
        "{\"key\":5,\"kind\":\"write\",\"value\":1,\"start\":0,\"finish\":10}\n\
         {\"key\":5,\"kind\":\"write\",\"value\":2,\"start\":12,\"finish\":20}\n\
         {\"key\":5,\"kind\":\"write\",\"value\":3,\"start\":22,\"finish\":30}\n\
         {\"key\":5,\"kind\":\"write\",\"value\":4,\"start\":32,\"finish\":40}\n\
         {\"key\":5,\"kind\":\"read\",\"value\":1,\"start\":42,\"finish\":50}\n",
    )
    .unwrap();
    let ckpt = temp_file("violation_tail.ckpt");
    std::fs::remove_file(&ckpt).ok();
    let out = kav(&[
        "stream", "--checkpoint", ckpt.to_str().unwrap(), "--checkpoint-every", "2",
        input.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    let lines_done = checkpoint_lines(&ckpt);
    assert!((2..5).contains(&lines_done), "checkpoint predates the read");

    let out = kav(&["stream", "--resume", ckpt.to_str().unwrap(), input.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(stderr(&out).contains("not 2-atomic"), "{}", stderr(&out));

    let remainder: String = std::fs::read_to_string(&input)
        .unwrap()
        .lines()
        .skip(lines_done)
        .map(|l| format!("{l}\n"))
        .collect();
    let out = kav_with_stdin(&["stream", "--resume", ckpt.to_str().unwrap(), "-"], &remainder);
    assert_eq!(out.status.code(), Some(1), "NO is sound even unverified: {}", stderr(&out));
}

#[test]
fn stream_emits_ndjson_progress_records() {
    let input = stream_fixture("progress_ops.ndjson");
    let out = kav(&[
        "stream", "--window", "32", "--progress-every", "60", input.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let err = stderr(&out);
    let progress: Vec<&str> =
        err.lines().filter(|l| l.starts_with("{\"record\":\"progress\"")).collect();
    assert_eq!(progress.len(), 4, "240 records / 60: {err}");
    let last = progress.last().unwrap();
    assert!(last.contains("\"ops_routed\":240"), "{last}");
    assert!(last.contains("\"keys\":3"), "{last}");
    assert!(last.contains("\"violating_keys\":0"), "{last}");
    assert!(last.contains("\"depth_hist\":["), "{last}");
    assert!(last.contains("\"shards\":["), "{last}");
}

#[test]
fn stream_rejects_out_of_range_k_per_algo_with_exit_two() {
    // Every algorithm × bad-k combination must exit 2 (unusable input)
    // with a message naming the algorithm's supported range — never
    // panic, never silently clamp to a default k.
    let ndjson = "{\"kind\":\"write\",\"value\":1,\"start\":0,\"finish\":10}\n";
    let cases: &[(&[&str], &str)] = &[
        (&["--algo", "gk", "--k", "0"], "k must be at least 1"),
        (&["--algo", "gk", "--k", "2"], "decides k = 1 only"),
        (&["--algo", "gk", "--k", "3"], "decides k = 1 only"),
        (&["--algo", "fzf", "--k", "0"], "k must be at least 1"),
        (&["--algo", "fzf", "--k", "1"], "decides k = 2 only"),
        (&["--algo", "fzf", "--k", "3"], "decides k = 2 only"),
        (&["--algo", "lbt", "--k", "0"], "k must be at least 1"),
        (&["--algo", "lbt", "--k", "1"], "decides k = 2 only"),
        (&["--algo", "lbt", "--k", "4"], "decides k = 2 only"),
        (&["--algo", "genk", "--k", "0"], "k must be at least 1"),
        (&["--k", "0"], "k must be at least 1"),
        (&["--algo", "frobnicate", "--k", "2"], "unknown algorithm"),
    ];
    for (flags, needle) in cases {
        let mut args = vec!["stream"];
        args.extend_from_slice(flags);
        args.push("-");
        let out = kav_with_stdin(&args, ndjson);
        assert_eq!(out.status.code(), Some(2), "{flags:?}: {}", stderr(&out));
        let err = stderr(&out);
        assert!(err.contains(needle), "{flags:?}: missing {needle:?} in {err}");
        assert!(err.contains("supported:"), "{flags:?}: range listing missing in {err}");
    }
}

#[test]
fn stream_genk_verifies_deep_stale_at_k_three() {
    // The acceptance path: a deep-stale workload (true staleness 3)
    // verifies YES at k = 3 via genk — the default algorithm for k >= 3 —
    // and proves NO at k = 2.
    let path = temp_file("deep3.ndjson");
    let out = kav(&[
        "gen", "--workload", "deep-stale", "--keys", "3", "--n", "100", "--k", "3",
        "--seed", "9", "--out", path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));

    let out = kav(&["stream", "--k", "3", "--window", "64", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("(genk, k=3"), "genk is the k >= 3 default: {text}");
    assert!(text.contains("YES: every key is 3-atomic"), "{text}");

    let out = kav(&["stream", "--k", "2", "--window", "64", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "deep-stale is not 2-atomic: {}", stderr(&out));
    assert!(stderr(&out).contains("not 2-atomic"), "{}", stderr(&out));
}

#[test]
fn stream_genk_checkpoint_resume_round_trip() {
    // Soundness across snapshot/resume holds at general k: a genk audit
    // checkpointed mid-stream resumes to the uninterrupted verdicts, and
    // a conflicting --k or --algo on resume is rejected.
    let input = temp_file("genk_resume.ndjson");
    let out = kav(&[
        "gen", "--workload", "deep-stale", "--keys", "2", "--n", "120", "--k", "3",
        "--seed", "4", "--out", input.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let ckpt = temp_file("genk_resume.ckpt");
    std::fs::remove_file(&ckpt).ok();

    let uninterrupted =
        kav(&["stream", "--k", "3", "--window", "32", input.to_str().unwrap()]);
    assert_eq!(uninterrupted.status.code(), Some(0), "{}", stderr(&uninterrupted));

    let checkpointed = kav(&[
        "stream", "--k", "3", "--window", "32", "--checkpoint", ckpt.to_str().unwrap(),
        "--checkpoint-every", "60", input.to_str().unwrap(),
    ]);
    assert_eq!(checkpointed.status.code(), Some(0), "{}", stderr(&checkpointed));
    assert_eq!(stdout(&checkpointed), stdout(&uninterrupted));
    assert!(std::fs::read_to_string(&ckpt).unwrap().contains("\"algo\":\"genk\""));

    let resumed = kav(&["stream", "--resume", ckpt.to_str().unwrap(), input.to_str().unwrap()]);
    assert_eq!(resumed.status.code(), Some(0), "{}", stderr(&resumed));
    let resumed_out = stdout(&resumed);
    assert!(resumed_out.contains("prefix verified"), "{resumed_out}");
    let tail = resumed_out.lines().skip(1).collect::<Vec<_>>().join("\n");
    assert_eq!(tail.trim_end(), stdout(&uninterrupted).trim_end());

    // A mismatched k (or algo) on resume is a conflict, not a silent
    // parameter switch.
    let out = kav(&[
        "stream", "--resume", ckpt.to_str().unwrap(), "--k", "4", input.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("conflicts with the checkpoint"), "{}", stderr(&out));
    let out = kav(&[
        "stream", "--resume", ckpt.to_str().unwrap(), "--algo", "fzf", input.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("conflicts with the checkpoint"), "{}", stderr(&out));
}

#[test]
fn verify_genk_is_the_general_k_default() {
    let path = temp_file("ladder4.json");
    let out =
        kav(&["gen", "--workload", "ladder", "--k", "4", "--out", path.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr(&out));

    let out = kav(&["verify", "--k", "4", path.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("YES"), "{text}");
    assert!(text.contains("genk"), "genk is the k >= 3 default: {text}");

    let out = kav(&["verify", "--k", "3", path.to_str().unwrap()]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("NO"), "{}", stdout(&out));

    // The exhaustive search is a test oracle, not a CLI algorithm.
    let out = kav(&["verify", "--k", "4", "--algo", "search", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("unknown algorithm \"search\""), "{}", stderr(&out));

    // Out-of-range combinations fail with the range message there too.
    let out = kav(&["verify", "--k", "3", "--algo", "fzf", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("decides k = 2 only"), "{}", stderr(&out));
}

/// A write of weight 5 and its read: smallest k is 5 by the weighted
/// rule, which GK, FZF and LBT cannot see and hand to genk.
#[test]
fn weighted_histories_are_decided_by_the_weighted_rule() {
    let json = temp_file("weighted2.json");
    std::fs::write(
        &json,
        r#"{"ops":[{"kind":"write","value":1,"start":0,"finish":10,"weight":5},
                   {"kind":"read","value":1,"start":12,"finish":20}]}"#,
    )
    .unwrap();
    let ndjson = temp_file("weighted2.ndjson");
    std::fs::write(
        &ndjson,
        "{\"key\":0,\"kind\":\"write\",\"value\":1,\"start\":0,\"finish\":10,\"weight\":5}\n\
         {\"key\":0,\"kind\":\"read\",\"value\":1,\"start\":12,\"finish\":20}\n",
    )
    .unwrap();
    let json = json.to_str().unwrap();

    let out = kav(&["stream", "--k", "2", ndjson.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "a certified YES would be unsound: {}", stdout(&out));
    assert!(stderr(&out).contains("NO"), "{}", stderr(&out));

    let out = kav(&["smallest-k", json]);
    assert!(stdout(&out).contains("smallest k = 5"), "{}", stdout(&out));

    let out = kav(&["diagnose", json]);
    assert!(stdout(&out).contains("staleness: k = 5"), "{}", stdout(&out));
    let atomicity = stdout(&out).lines().find(|l| l.starts_with("atomicity:")).map(str::to_owned);
    assert!(
        atomicity.as_deref().is_some_and(|l| l != "atomicity: ok"),
        "a read of a weight-5 write is not 1-atomic: {}",
        stdout(&out)
    );

    for (k, algo) in [("1", "gk"), ("2", "fzf"), ("2", "lbt"), ("4", "genk")] {
        let out = kav(&["verify", "--k", k, "--algo", algo, json]);
        assert!(out.status.success(), "--k {k} --algo {algo}: {}", stderr(&out));
        assert!(stdout(&out).starts_with("NO"), "--k {k} --algo {algo}: {}", stdout(&out));
    }
    let out = kav(&["verify", "--k", "5", "--algo", "genk", json]);
    assert!(stdout(&out).starts_with("YES"), "{}", stdout(&out));
}

#[test]
fn repair_salvages_a_dirty_trace() {
    let path = temp_file("dirty.json");
    std::fs::write(
        &path,
        r#"{"ops":[
            {"kind":"write","value":1,"start":0,"finish":10},
            {"kind":"read","value":1,"start":12,"finish":20},
            {"kind":"read","value":9,"start":30,"finish":40}
        ]}"#,
    )
    .unwrap();
    let clean = temp_file("clean.json");
    let out = kav(&["repair", path.to_str().unwrap(), "--out", clean.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("dropped 1 operations"), "{text}");
    assert!(text.contains("2 operations survive"), "{text}");

    // The repaired file verifies.
    let out = kav(&["verify", "--k", "1", clean.to_str().unwrap()]);
    assert!(stdout(&out).contains("YES"), "{}", stdout(&out));
}

#[test]
fn gap_budget_flag_is_unified_across_subcommands() {
    // A ladder(3) history: NO at k = 2, YES at k = 3, smallest k = 3.
    let path = temp_file("gap_budget_ladder.json");
    let out = kav(&["gen", "--workload", "ladder", "--k", "3", "--out", path.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr(&out));
    let path = path.to_str().unwrap();

    // --gap-budget is the canonical spelling on verify...
    let out = kav(&["verify", "--k", "3", "--gap-budget", "100000", path]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("YES"), "{}", stdout(&out));

    // ... and on smallest-k.
    let out = kav(&["smallest-k", "--gap-budget", "100000", path]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("smallest k = 3"), "{}", stdout(&out));

    // The removed --budget alias is refused by name (exit 2, pointing at
    // --gap-budget) rather than silently ignored like unknown flags.
    let cases: &[&[&str]] = &[
        &["verify", "--k", "3", "--budget", "100000", path],
        &["smallest-k", "--budget", "100000", path],
        &["stream", "--k", "3", "--budget", "100000", "-"],
        &["serve", "--k", "3", "--budget", "100000", "-"],
        &["work", "--k", "3", "--budget", "100000"],
    ];
    for args in cases {
        let out = kav_with_stdin(args, "");
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr(&out));
        assert!(stderr(&out).contains("--gap-budget"), "{args:?}: {}", stderr(&out));
    }
}

#[test]
fn gap_budget_zero_is_rejected_with_exit_two() {
    let path = temp_file("gap_budget_zero.json");
    kav(&["gen", "--workload", "ladder", "--k", "3", "--out", path.to_str().unwrap()]);
    let path = path.to_str().unwrap();

    // Zero used to mean "instant UNKNOWN on any gap" — now a usage error.
    let out = kav(&["verify", "--k", "3", "--gap-budget", "0", path]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("UNKNOWN without searching"), "{}", stderr(&out));

    // Same on the streaming path (flag errors precede any input read).
    let out = kav_with_stdin(&["stream", "--k", "3", "--gap-budget", "0", "-"], "");
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("UNKNOWN without searching"), "{}", stderr(&out));

    // And on smallest-k.
    let out = kav(&["smallest-k", "--gap-budget", "0", path]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
}

#[test]
fn gap_budget_unbounded_is_expressible() {
    let path = temp_file("gap_budget_unbounded.json");
    kav(&["gen", "--workload", "ladder", "--k", "4", "--out", path.to_str().unwrap()]);
    let path = path.to_str().unwrap();

    let out = kav(&["verify", "--k", "4", "--gap-budget", "unbounded", path]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("YES"), "{}", stdout(&out));

    let out = kav(&["smallest-k", "--gap-budget", "unbounded", path]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("smallest k = 4"), "{}", stdout(&out));

    // Anything else non-numeric is a parse error, not a silent default.
    let out = kav(&["verify", "--k", "4", "--gap-budget", "lots", path]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unbounded"), "{}", stderr(&out));
}

#[test]
fn verify_constrained_algo_decides_any_k() {
    let path = temp_file("constrained_ladder.json");
    kav(&["gen", "--workload", "ladder", "--k", "4", "--out", path.to_str().unwrap()]);
    let path = path.to_str().unwrap();

    let out = kav(&["verify", "--k", "4", "--algo", "constrained", path]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("YES"), "{}", stdout(&out));

    let out = kav(&["verify", "--k", "3", "--algo", "constrained", path]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("NO"), "{}", stdout(&out));

    // Offline-only: the streaming path points back at genk.
    let out = kav_with_stdin(&["stream", "--k", "3", "--algo", "constrained", "-"], "");
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("offline-only"), "{}", stderr(&out));
    assert!(stderr(&out).contains("supported:"), "{}", stderr(&out));
}

// ---------------------------------------------------------------------------
// The audit fleet: `kav serve` / `kav work`.
// ---------------------------------------------------------------------------

/// The per-key report rows (and header) of a `kav stream` / `kav serve`
/// stdout — the part that must be identical between the two.
fn key_table(text: &str) -> Vec<String> {
    text.lines().filter(|line| line.contains(" | ")).map(str::to_owned).collect()
}

#[test]
fn serve_report_matches_stream_report() {
    let path = temp_file("fleet_clean.ndjson");
    let out = kav(&[
        "gen", "--workload", "stream", "--keys", "6", "--n", "150", "--k", "2",
        "--seed", "11", "--out", path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let path = path.to_str().unwrap();

    let single = kav(&["stream", "--k", "2", "--window", "64", path]);
    assert!(single.status.success(), "{}", stderr(&single));
    let baseline = key_table(&stdout(&single));
    assert!(!baseline.is_empty());

    for workers in ["1", "2", "3"] {
        let fleet = kav(&["serve", "--workers", workers, "--k", "2", "--window", "64", path]);
        assert_eq!(fleet.status.code(), Some(0), "{}", stderr(&fleet));
        let text = stdout(&fleet);
        assert_eq!(key_table(&text), baseline, "fleet of {workers} diverged");
        assert!(text.contains("fleet certified"), "{text}");
        assert!(text.contains("0 hand-offs"), "{text}");
    }

    // Splitting the hottest range mid-stream must not change the report.
    let split = kav(&[
        "serve", "--workers", "2", "--k", "2", "--window", "64",
        "--split-hottest", "300", path,
    ]);
    assert_eq!(split.status.code(), Some(0), "{}", stderr(&split));
    let text = stdout(&split);
    assert_eq!(key_table(&text), baseline, "split diverged");
    assert!(text.contains("1 splits"), "{text}");
}

#[test]
fn serve_absorbs_a_sigkilled_worker_via_checkpoint_hand_off() {
    let path = temp_file("fleet_stale.ndjson");
    kav(&[
        "gen", "--workload", "deep-stale", "--keys", "5", "--n", "120", "--k", "3",
        "--seed", "17", "--out", path.to_str().unwrap(),
    ]);
    let path = path.to_str().unwrap();
    let ckpt = temp_file("fleet_stale.ckpt");
    let ckpt = ckpt.to_str().unwrap();

    let single = kav(&["stream", "--algo", "genk", "--k", "2", "--window", "24", path]);
    assert_eq!(single.status.code(), Some(1), "{}", stderr(&single));
    let baseline = key_table(&stdout(&single));

    // SIGKILL worker 1 mid-stream; checkpoints every 100 records keep the
    // replay verifiable, so the hand-off must be invisible in the report
    // and the pre-kill violations must survive with the violation exit.
    // Then SIGKILL each worker at the last record, at batch 1 with no
    // checkpoint due there: only the FINISH round meets the dead worker,
    // and a worker that has already answered FINISH adopts its range.
    let mut runs = vec![["--batch", "256", "--checkpoint-every", "100", "--kill-worker", "1:300"]];
    for kill in ["0:600", "1:600", "2:600"] {
        runs.push(["--batch", "1", "--checkpoint-every", "128", "--kill-worker", kill]);
    }
    for flags in runs {
        let mut args = vec![
            "serve", "--workers", "3", "--algo", "genk", "--k", "2", "--window", "24",
            "--checkpoint", ckpt,
        ];
        args.extend(flags);
        args.push(path);
        let fleet = kav(&args);
        assert_eq!(fleet.status.code(), Some(1), "{flags:?}: {}", stderr(&fleet));
        let text = stdout(&fleet);
        assert_eq!(key_table(&text), baseline, "{flags:?}: hand-off changed the report");
        assert!(text.contains("(2 alive at the end)"), "{flags:?}: {text}");
        assert!(text.contains("(0 uncertified)"), "{flags:?}: {text}");
        assert!(!text.contains(" 0 hand-offs"), "{flags:?}: {text}");
        assert!(stderr(&fleet).contains("not 2-atomic"), "{flags:?}: {}", stderr(&fleet));
    }
}

#[test]
fn serve_degrades_yes_to_unknown_on_an_unverifiable_hand_off() {
    // No checkpoints and a tiny replay cap: the killed worker's range
    // cannot be handed off verifiably. Soundness discipline: no violation
    // may be invented (exit stays 0, no key fails), but certification is
    // refused. In the second run the stopped range is split later: both
    // halves stay stopped, so no key is fed across the gap.
    let runs: [(&str, &[&str], &[&str]); 2] = [
        (
            "fleet_degrade.ndjson",
            &["--keys", "6", "--n", "150", "--k", "2", "--seed", "11"],
            &["--workers", "3", "--k", "2", "--window", "64", "--replay-cap", "8",
              "--kill-worker", "1:600"],
        ),
        (
            "fleet_split_stopped.ndjson",
            &["--keys", "3", "--n", "40", "--seed", "1", "--spread", "4"],
            &["--workers", "2", "--window", "3", "--batch", "4", "--replay-cap", "2",
              "--kill-worker", "0:2", "--split-hottest", "69"],
        ),
    ];
    for (name, gen, serve) in runs {
        let path = temp_file(name);
        let path = path.to_str().unwrap();
        let out = kav(&[&["gen", "--workload", "stream", "--out", path], gen].concat());
        assert!(out.status.success(), "{}", stderr(&out));
        let fleet = kav(&[&["serve"], serve, &[path]].concat());
        assert_eq!(fleet.status.code(), Some(0), "{serve:?}: {}", stderr(&fleet));
        let text = stdout(&fleet);
        assert!(text.contains("UNKNOWN"), "{serve:?}: {text}");
        assert!(text.contains("lost their replay"), "{serve:?}: {text}");
        assert!(!text.contains("fleet certified"), "{serve:?}: {text}");
    }
}

#[test]
fn a_fleet_checkpoint_counts_every_routed_record() {
    // A replay cap of 8 under a checkpoint every 100 records makes the
    // hand-off at record 300 unverifiable, so the fleet writes no
    // checkpoint from then on. The last one it wrote, at record 200, is
    // the one `kav stream` writes over those 200 records, byte for byte:
    // it counts every record routed up to its cut.
    let path = temp_file("fleet_count.ndjson");
    let path = path.to_str().unwrap();
    let out = kav(&[
        "gen", "--workload", "deep-stale", "--keys", "5", "--n", "120", "--k", "3",
        "--seed", "17", "--out", path,
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = std::fs::read_to_string(path).unwrap();
    let prefix = temp_file("fleet_count_200.ndjson");
    std::fs::write(&prefix, text.lines().take(200).collect::<Vec<_>>().join("\n") + "\n").unwrap();
    let fleet_ckpt = temp_file("fleet_count_a.ckpt");
    let single_ckpt = temp_file("fleet_count_b.ckpt");
    let (fleet_ckpt, single_ckpt) = (fleet_ckpt.to_str().unwrap(), single_ckpt.to_str().unwrap());
    let audit = ["--algo", "genk", "--k", "2", "--window", "24", "--checkpoint-every", "100"];
    let fleet = kav(&[
        &["serve", "--workers", "3", "--replay-cap", "8", "--kill-worker", "1:300"][..],
        &audit,
        &["--checkpoint", fleet_ckpt, path],
    ]
    .concat());
    assert_eq!(fleet.status.code(), Some(1), "{}", stderr(&fleet));
    assert!(stdout(&fleet).contains("(1 uncertified)"), "{}", stdout(&fleet));
    assert!(stderr(&fleet).contains("keeps checkpoint v2"), "{}", stderr(&fleet));
    let single = kav(&[
        &["stream"][..],
        &audit,
        &["--checkpoint", single_ckpt, prefix.to_str().unwrap()],
    ]
    .concat());
    assert_eq!(single.status.code(), Some(1), "{}", stderr(&single));
    let fleet_bytes = std::fs::read_to_string(fleet_ckpt).unwrap();
    assert!(fleet_bytes.contains("\"ops_routed\":200,"), "{fleet_bytes}");
    assert_eq!(fleet_bytes, std::fs::read_to_string(single_ckpt).unwrap());
}

#[test]
fn a_fleet_writes_no_checkpoint_past_an_uncertified_hand_off() {
    // Worker 0 dies at record 50 with its replay cap (2) long overflowed,
    // so the hand-off stops its range's audit. The checkpoint due at
    // record 80 would hold that range at its last acked state, which a
    // resume would feed the rest of the input across the gap; the fleet
    // keeps the one from record 40 instead, and that one resumes to the
    // uninterrupted table.
    let path = temp_file("fleet_gap.ndjson");
    let path = path.to_str().unwrap();
    let out = kav(&[
        "gen", "--workload", "stream", "--keys", "3", "--n", "40", "--seed", "1", "--spread",
        "4", "--out", path,
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = std::fs::read_to_string(path).unwrap();
    let head = temp_file("fleet_gap_100.ndjson");
    std::fs::write(&head, text.lines().take(100).collect::<Vec<_>>().join("\n") + "\n").unwrap();
    let ckpt = temp_file("fleet_gap.ckpt");
    let _ = std::fs::remove_file(&ckpt);
    let ckpt = ckpt.to_str().unwrap();
    let audit = ["--window", "3", "--batch", "4"];
    let fleet = kav(&[
        &["serve", "--workers", "2", "--replay-cap", "2", "--kill-worker", "0:50"][..],
        &audit,
        &["--checkpoint", ckpt, "--checkpoint-every", "40", head.to_str().unwrap()],
    ]
    .concat());
    assert_eq!(fleet.status.code(), Some(0), "{}", stderr(&fleet));
    assert!(stdout(&fleet).contains("1 hand-offs (1 uncertified)"), "{}", stdout(&fleet));
    let warning = stderr(&fleet);
    assert!(warning.contains("no later checkpoint is written"), "{warning}");
    assert!(warning.contains("keeps checkpoint v1"), "{warning}");
    let saved = std::fs::read_to_string(ckpt).unwrap();
    assert!(saved.starts_with("{\"format\":1,\"version\":1,"), "{saved}");
    let resumed = kav(&[&["stream"][..], &audit, &["--resume", ckpt, path]].concat());
    assert_eq!(resumed.status.code(), Some(0), "{}", stderr(&resumed));
    let whole = kav(&[&["stream"][..], &audit, &[path]].concat());
    assert_eq!(whole.status.code(), Some(0), "{}", stderr(&whole));
    let table = |out: &Output| {
        let text = stdout(out);
        text.lines().filter(|line| line.contains(" | ")).map(str::to_owned).collect::<Vec<_>>()
    };
    assert_eq!(table(&resumed), table(&whole));
}

#[test]
fn an_unverified_fleet_resume_stays_unknown_through_a_hand_off() {
    // The checkpoint covers the first half; the second half arrives on
    // stdin, so the prefix cannot be re-read and every key is tainted.
    let path = temp_file("taint_full.ndjson");
    let out = kav(&[
        "gen", "--workload", "stream", "--keys", "6", "--n", "500", "--seed", "5",
        "--out", path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    let prefix = temp_file("taint_prefix.ndjson");
    std::fs::write(&prefix, lines[..1500].join("\n") + "\n").unwrap();
    let rest = lines[1500..].join("\n") + "\n";
    let ckpt = temp_file("taint.ckpt");
    let ckpt = ckpt.to_str().unwrap();
    let out = kav(&[
        "stream", "--checkpoint", ckpt, "--checkpoint-every", "1500", prefix.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));

    let single = kav_with_stdin(&["stream", "--resume", ckpt, "-"], &rest);
    assert_eq!(single.status.code(), Some(0), "{}", stderr(&single));
    let baseline = key_table(&stdout(&single));
    assert_eq!(baseline.len(), 1 + 6, "a header and six keys: {baseline:?}");
    assert!(baseline[1..].iter().all(|row| row.ends_with("UNKNOWN")), "{baseline:?}");
    // A hand-off before the range's first checkpoint probe, and after
    // some of its traffic: the taint travels in the range's snapshot.
    for worker in ["0", "1"] {
        for at in ["1", "10", "700", "1499"] {
            let kill = format!("{worker}:{at}");
            let fleet = kav_with_stdin(
                &["serve", "--workers", "2", "--resume", ckpt, "--kill-worker", &kill, "-"],
                &rest,
            );
            assert_eq!(fleet.status.code(), Some(0), "kill {kill}: {}", stderr(&fleet));
            let text = stdout(&fleet);
            assert!(text.contains("1 hand-offs"), "kill {kill}: {text}");
            assert_eq!(key_table(&text), baseline, "kill {kill}: {text}");
        }
    }
}

#[test]
fn an_unusable_checkpoint_path_is_refused_before_the_audit_starts() {
    let input = temp_file("ckpt_path.ndjson");
    let out = kav(&[
        "gen", "--workload", "stream", "--keys", "3", "--n", "40", "--out",
        input.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let input = input.to_str().unwrap();
    let missing = "/nonexistent/kav_dir/audit.ckpt";
    // Stdin never closes before the refusal: no record is read and no
    // worker started, however long the input.
    for driver in DRIVERS {
        let out = kav_with_stdin(&argv(driver, &["--checkpoint", missing, "-"]), "");
        assert_eq!(out.status.code(), Some(2), "{driver:?}: {}", stderr(&out));
        let err = stderr(&out);
        assert!(err.contains(&format!("--checkpoint {missing}: ")), "{driver:?}: {err}");
        assert!(stdout(&out).is_empty(), "{driver:?}: {}", stdout(&out));
    }
    // A write that fails later (here the path is a directory, which the
    // rename cannot replace) names the path too, and exits 2.
    let dir = temp_file("ckpt_path_is_a_dir");
    std::fs::create_dir_all(&dir).unwrap();
    let dir = dir.to_str().unwrap();
    for driver in DRIVERS {
        let out = kav(&argv(driver, &["--checkpoint", dir, "--checkpoint-every", "20", input]));
        assert_eq!(out.status.code(), Some(2), "{driver:?}: {}", stderr(&out));
        let err = stderr(&out);
        assert!(err.contains(&format!("--checkpoint {dir}: ")), "{driver:?}: {err}");
    }
}

#[test]
fn serve_and_stream_checkpoints_interchange() {
    let path = temp_file("fleet_interchange.ndjson");
    kav(&[
        "gen", "--workload", "stream", "--keys", "4", "--n", "150", "--k", "2",
        "--seed", "3", "--out", path.to_str().unwrap(),
    ]);
    let path = path.to_str().unwrap();

    // Fleet checkpoint -> single-process resume.
    let ckpt = temp_file("fleet_to_stream.ckpt");
    let ckpt = ckpt.to_str().unwrap();
    let fleet = kav(&[
        "serve", "--workers", "3", "--k", "2", "--window", "64",
        "--checkpoint", ckpt, "--checkpoint-every", "200", path,
    ]);
    assert_eq!(fleet.status.code(), Some(0), "{}", stderr(&fleet));
    let resumed = kav(&["stream", "--resume", ckpt, path]);
    assert_eq!(resumed.status.code(), Some(0), "{}", stderr(&resumed));
    let text = stdout(&resumed);
    assert!(text.contains("resumed from checkpoint"), "{text}");
    assert!(text.contains("prefix verified"), "{text}");

    // Single-process checkpoint -> fleet resume.
    let ckpt = temp_file("stream_to_fleet.ckpt");
    let ckpt = ckpt.to_str().unwrap();
    let single = kav(&[
        "stream", "--k", "2", "--window", "64",
        "--checkpoint", ckpt, "--checkpoint-every", "200", path,
    ]);
    assert_eq!(single.status.code(), Some(0), "{}", stderr(&single));
    let resumed = kav(&["serve", "--workers", "2", "--resume", ckpt, path]);
    assert_eq!(resumed.status.code(), Some(0), "{}", stderr(&resumed));
    let text = stdout(&resumed);
    assert!(text.contains("resumed fleet from checkpoint"), "{text}");
    assert!(text.contains("prefix verified"), "{text}");
    assert!(text.contains("fleet certified"), "{text}");
}

#[test]
fn work_rejects_garbage_with_the_bad_input_exit() {
    let out = kav_with_stdin(&["work", "--algo", "fzf", "--k", "2"], "this is not the protocol");
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("preamble"), "{}", stderr(&out));

    // A worker that cannot exist at all is bad input too.
    let out = kav_with_stdin(&["work", "--algo", "gk", "--k", "2"], "");
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("out of range"), "{}", stderr(&out));
}

#[test]
fn serve_validates_the_run_before_spawning_workers() {
    // Every check that needs no worker runs before any is spawned, so an
    // early error leaves no orphan to report a broken fleet transport.
    let out = kav_with_stdin(&["serve", "--workers", "2", "--format", "binary", "-"], "");
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("not a kav binary frame stream"), "{}", stderr(&out));
    assert!(!stderr(&out).contains("worker:"), "{}", stderr(&out));

    let input = stream_fixture("orphan_ops.ndjson");
    let ckpt = temp_file("orphan_ops.ckpt");
    std::fs::remove_file(&ckpt).ok();
    let out = kav(&[
        "serve", "--workers", "2", "--window", "32", "--checkpoint", ckpt.to_str().unwrap(),
        "--checkpoint-every", "50", input.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let tampered = temp_file("orphan_ops_tampered.ndjson");
    let original = std::fs::read_to_string(&input).unwrap();
    std::fs::write(&tampered, original.replacen("\"start\":", "\"start\": ", 1)).unwrap();
    let out = kav(&[
        "serve", "--workers", "2", "--resume", ckpt.to_str().unwrap(), tampered.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("fingerprint mismatch"), "{}", stderr(&out));
    assert!(!stderr(&out).contains("worker:"), "{}", stderr(&out));
}

#[test]
fn serve_refuses_progress_records() {
    // Progress records come from the in-process pipeline's probe, which a
    // fleet does not have: the flag is refused, not silently ignored.
    let input = stream_fixture("serve_progress_ops.ndjson");
    let out = kav(&["serve", "--workers", "2", "--progress-every", "60", input.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("`kav stream`-only"), "{}", stderr(&out));
    assert!(!stderr(&out).contains("\"record\":\"progress\""), "{}", stderr(&out));
}

#[test]
fn serve_rejects_bad_fleet_flags_with_exit_2() {
    let path = temp_file("fleet_flags.ndjson");
    kav(&[
        "gen", "--workload", "stream", "--keys", "2", "--n", "20", "--k", "2",
        "--seed", "1", "--out", path.to_str().unwrap(),
    ]);
    let path = path.to_str().unwrap();

    let out = kav(&["serve", "--workers", "0", path]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("--workers 0"), "{}", stderr(&out));

    let out = kav(&["serve", "--workers", "2", "--kill-worker", "5:10", path]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("--kill-worker"), "{}", stderr(&out));

    let out = kav(&["serve", "--workers", "2", "--kill-worker", "nonsense", path]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("idx:records"), "{}", stderr(&out));
}

#[test]
fn a_checkpoint_with_delta_hops_is_refused_and_serve_takes_no_shards() {
    // Older builds could append delta hops to a checkpoint; this build
    // cannot resolve them, so a file carrying any is unusable input.
    let input = stream_fixture("legacy_ops.ndjson");
    let ckpt = temp_file("legacy_ops.ckpt");
    std::fs::remove_file(&ckpt).ok();
    let out = kav(&[
        "stream", "--window", "32", "--checkpoint", ckpt.to_str().unwrap(),
        "--checkpoint-every", "50", input.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = std::fs::read_to_string(&ckpt).unwrap();
    assert!(text.ends_with("\"deltas\":[]}\n"), "full snapshots keep the empty key");
    let legacy = temp_file("legacy_ops_spliced.ckpt");
    std::fs::write(&legacy, text.replacen("\"deltas\":[]", "\"deltas\":[{}]", 1)).unwrap();
    for command in DRIVERS {
        let out =
            kav(&argv(command, &["--resume", legacy.to_str().unwrap(), input.to_str().unwrap()]));
        assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
        assert!(stderr(&out).contains("1 delta hop(s)"), "{}", stderr(&out));
        assert!(!stdout(&out).contains(" | "), "no key table: {}", stdout(&out));
        assert!(!stderr(&out).contains("worker:"), "{}", stderr(&out));
    }

    // A fleet worker is one process running one thread: a fleet's size is
    // --workers.
    let out = kav(&["serve", "--shards", "2", input.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("--workers"), "{}", stderr(&out));
    assert!(!stdout(&out).contains(" | "), "{}", stdout(&out));
}

#[test]
fn out_of_range_workers_and_shards_are_refused_before_anything_starts() {
    // Each worker is a process and each shard a thread: a value above the
    // bound is refused at flag resolution, never allocated or spawned.
    let input = stream_fixture("parallelism_ops.ndjson");
    let input = input.to_str().unwrap();
    for (command, flag) in [("serve", "--workers"), ("stream", "--shards")] {
        for value in ["1099511627776", "1025"] {
            let out = kav(&[command, flag, value, input]);
            assert_eq!(out.status.code(), Some(2), "{command} {flag} {value}: {}", stderr(&out));
            let message = stderr(&out);
            assert!(message.contains(flag) && message.contains("1024"), "{message}");
            assert!(!stdout(&out).contains(" | "), "{}", stdout(&out));
        }
    }
}

/// Rewrites the first `"field":<count>` of a checkpoint to u64::MAX.
fn max_out_count(text: &str, field: &str) -> String {
    let key = format!("\"{field}\":");
    let at = text.find(&key).unwrap_or_else(|| panic!("checkpoint has {key}")) + key.len();
    let digits = text[at..].chars().take_while(char::is_ascii_digit).count();
    format!("{}{}{}", &text[..at], u64::MAX, &text[at + digits..])
}

#[test]
fn checkpoint_counts_no_audit_reaches_are_refused() {
    // A count at or above 2^63 would overflow on the next record; resume
    // refuses it as unusable input, naming the field, and a fleet refuses
    // it before it spawns a worker.
    let input = temp_file("huge_counts_ops.ndjson");
    let out = kav(&[
        "gen", "--workload", "stream", "--keys", "2", "--n", "200", "--seed", "3", "--out",
        input.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = std::fs::read_to_string(&input).unwrap();
    let prefix = temp_file("huge_counts_prefix.ndjson");
    std::fs::write(&prefix, text.lines().take(200).map(|l| format!("{l}\n")).collect::<String>())
        .unwrap();
    let ckpt = temp_file("huge_counts.ckpt");
    std::fs::remove_file(&ckpt).ok();
    let out = kav(&[
        "stream", "--window", "16", "--checkpoint", ckpt.to_str().unwrap(),
        "--checkpoint-every", "200", prefix.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let checkpoint = std::fs::read_to_string(&ckpt).unwrap();
    for field in ["ops_routed", "ops", "segments_sealed"] {
        let rewritten = temp_file(&format!("huge_counts_{field}.ckpt"));
        std::fs::write(&rewritten, max_out_count(&checkpoint, field)).unwrap();
        for command in DRIVERS {
            let out = kav(&argv(
                command,
                &["--resume", rewritten.to_str().unwrap(), input.to_str().unwrap()],
            ));
            assert_eq!(out.status.code(), Some(2), "{field}: {}", stderr(&out));
            let named = format!("{field} = {}", u64::MAX);
            assert!(stderr(&out).contains(&named), "{field}: {}", stderr(&out));
            assert!(!stderr(&out).contains("worker:"), "{}", stderr(&out));
        }
    }
}

// ---------------------------------------------------------------------------
// The pluggable consistency-model layer: `--model`.
// ---------------------------------------------------------------------------

/// Generates a forced-apart model fixture and returns its path.
fn model_fixture(name: &str, workload: &str) -> PathBuf {
    let path = temp_file(name);
    let out = kav(&["gen", "--workload", workload, "--out", path.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr(&out));
    path
}

#[test]
fn verify_model_flag_dispatches_each_model() {
    // safe-only: a read the safe model leaves unconstrained but the
    // regular model refuses.
    let path = model_fixture("model_safe_only.json", "safe-only");
    let path = path.to_str().unwrap();
    let out = kav(&["verify", "--model", "regular", path]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("NO: history violates the regular model"), "{}", stdout(&out));
    let out = kav(&["verify", "--model", "safe", path]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("YES: history satisfies the safe model"), "{}", stdout(&out));

    // causal-violation: 2-atomic for the default path, refused as causal.
    let path = model_fixture("model_causal_violation.json", "causal-violation");
    let path = path.to_str().unwrap();
    let out = kav(&["verify", path]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("YES"), "{}", stdout(&out));
    let out = kav(&["verify", "--model", "causal", path]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("NO: history violates the causal model"), "{}", stdout(&out));
}

#[test]
fn model_flag_conflicts_exit_two() {
    let path = model_fixture("model_conflicts.json", "zone-conflict");
    let path = path.to_str().unwrap();

    // --k belongs to the k-atomic model.
    let out = kav(&["verify", "--model", "regular", "--k", "2", path]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("no staleness parameter"), "{}", stderr(&out));

    // --algo too.
    let out = kav(&["verify", "--model", "causal", "--algo", "fzf", path]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("applies to the k-atomic model"), "{}", stderr(&out));

    // Unknown models are bad input, not silent defaults.
    let out = kav(&["verify", "--model", "eventual", path]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("--model"), "{}", stderr(&out));

    // The worker protocol enforces the same exclusions.
    let out = kav_with_stdin(&["work", "--model", "causal", "--k", "2"], "");
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("no staleness parameter"), "{}", stderr(&out));
}

/// Generates a causal stream workload file and returns its path.
fn causal_stream_fixture(name: &str, workload: &str) -> PathBuf {
    let path = temp_file(name);
    let out = kav(&[
        "gen", "--workload", workload, "--keys", "2", "--n", "16", "--seed", "3",
        "--out", path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    path
}

#[test]
fn stream_model_separates_causal_from_k_atomic() {
    // Every key of the violation stream is 2-atomic: the default audit
    // certifies, the causal one proves NO with the violation exit.
    let path = causal_stream_fixture("model_stream_bad.ndjson", "causal-stream");
    let path = path.to_str().unwrap();
    let out = kav(&["stream", path]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(stdout(&out).contains("YES"), "{}", stdout(&out));
    let out = kav(&["stream", "--model", "causal", path]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(stderr(&out).contains("violate the causal model"), "{}", stderr(&out));
    assert!(stdout(&out).contains("model causal"), "{}", stdout(&out));

    // The clean stream satisfies every model.
    let path = causal_stream_fixture("model_stream_ok.ndjson", "causal-clean");
    let path = path.to_str().unwrap();
    for model in ["regular", "safe", "causal"] {
        let out = kav(&["stream", "--model", model, path]);
        assert_eq!(out.status.code(), Some(0), "model {model}: {}", stderr(&out));
        let text = stdout(&out);
        assert!(text.contains(&format!("satisfies the {model} model")), "{model}: {text}");
    }
}

#[test]
fn stream_model_checkpoints_resume_under_the_recorded_model() {
    let input = causal_stream_fixture("model_resume.ndjson", "causal-clean");
    let input = input.to_str().unwrap();
    let ckpt = temp_file("model_resume.ckpt");
    std::fs::remove_file(&ckpt).ok();

    let uninterrupted = kav(&["stream", "--model", "causal", input]);
    assert_eq!(uninterrupted.status.code(), Some(0), "{}", stderr(&uninterrupted));

    let checkpointed = kav(&[
        "stream", "--model", "causal", "--checkpoint", ckpt.to_str().unwrap(),
        "--checkpoint-every", "20", input,
    ]);
    assert_eq!(checkpointed.status.code(), Some(0), "{}", stderr(&checkpointed));
    assert_eq!(stdout(&checkpointed), stdout(&uninterrupted));
    let text = std::fs::read_to_string(&ckpt).unwrap();
    assert!(text.contains("\"model\":\"causal\""), "{text}");

    // Resume picks the model up from the checkpoint — no flag needed —
    // and lands on the uninterrupted verdicts.
    let resumed = kav(&["stream", "--resume", ckpt.to_str().unwrap(), input]);
    assert_eq!(resumed.status.code(), Some(0), "{}", stderr(&resumed));
    let resumed_out = stdout(&resumed);
    assert!(resumed_out.contains("resumed from checkpoint"), "{resumed_out}");
    assert!(resumed_out.contains("model causal"), "{resumed_out}");
    let tail = resumed_out.lines().skip(1).collect::<Vec<_>>().join("\n");
    assert_eq!(tail.trim_end(), stdout(&uninterrupted).trim_end());

    // Restating the same model is fine; contradicting it is a typed
    // rejection naming both models.
    let out = kav(&["stream", "--model", "causal", "--resume", ckpt.to_str().unwrap(), input]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let out = kav(&["stream", "--model", "regular", "--resume", ckpt.to_str().unwrap(), input]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("regular") && err.contains("causal"), "{err}");
    assert!(err.contains("conflicts with the checkpoint's model"), "{err}");
}

#[test]
fn default_model_checkpoints_stay_pre_refactor_compatible() {
    // A default-model audit writes checkpoints with no model field at
    // all — byte-compatible with pre-model-layer checkpoints — and such
    // checkpoints resume cleanly.
    let input = stream_fixture("model_default_ckpt.ndjson");
    let input = input.to_str().unwrap();
    let ckpt = temp_file("model_default_ckpt.ckpt");
    std::fs::remove_file(&ckpt).ok();
    let out = kav(&[
        "stream", "--window", "32", "--checkpoint", ckpt.to_str().unwrap(),
        "--checkpoint-every", "50", input,
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let text = std::fs::read_to_string(&ckpt).unwrap();
    assert!(!text.contains("\"model\""), "default model must stay implicit: {text}");
    let resumed = kav(&["stream", "--resume", ckpt.to_str().unwrap(), input]);
    assert_eq!(resumed.status.code(), Some(0), "{}", stderr(&resumed));
    assert!(stdout(&resumed).contains("prefix verified"), "{}", stdout(&resumed));
}

#[test]
fn serve_model_fleet_matches_stream_verdicts() {
    // The fleet audits the causal-violation stream under --model causal:
    // same per-key table as the single process, same violation exit.
    let path = causal_stream_fixture("model_fleet_bad.ndjson", "causal-stream");
    let path = path.to_str().unwrap();
    let single = kav(&["stream", "--model", "causal", path]);
    assert_eq!(single.status.code(), Some(1), "{}", stderr(&single));
    let baseline = key_table(&stdout(&single));
    assert!(!baseline.is_empty());

    let fleet = kav(&["serve", "--workers", "2", "--model", "causal", path]);
    assert_eq!(fleet.status.code(), Some(1), "{}", stderr(&fleet));
    assert_eq!(key_table(&stdout(&fleet)), baseline, "fleet diverged");
    assert!(stderr(&fleet).contains("violate the causal model"), "{}", stderr(&fleet));

    // And certifies the clean one.
    let path = causal_stream_fixture("model_fleet_ok.ndjson", "causal-clean");
    let path = path.to_str().unwrap();
    let fleet = kav(&["serve", "--workers", "2", "--model", "causal", path]);
    assert_eq!(fleet.status.code(), Some(0), "{}", stderr(&fleet));
    let text = stdout(&fleet);
    assert!(text.contains("fleet certified"), "{text}");
    assert!(text.contains("satisfies the causal model"), "{text}");
}
