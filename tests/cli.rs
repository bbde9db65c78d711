//! End-to-end tests of the `mstv` command-line binary.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

fn mstv() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mstv"))
}

/// A scratch directory of the named test's own: tests run in parallel,
/// so a shared directory would let one test overwrite another's inputs.
fn test_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mstv-cli-{}-{test}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `mstv args`, first writing each `(name, contents)` file into
/// `dir` and replacing `name` in `args` with its path; panics unless
/// the command succeeds, and returns its standard output.
fn run_ok(dir: &Path, args: &[&str], files: &[(&str, &str)]) -> String {
    let mut full_args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
    for (name, contents) in files {
        let p = dir.join(name);
        std::fs::write(&p, contents).unwrap();
        for a in full_args.iter_mut() {
            if a == name {
                *a = p.to_string_lossy().into_owned();
            }
        }
    }
    let out = mstv().args(&full_args).output().expect("binary runs");
    assert!(
        out.status.success(),
        "mstv {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

#[test]
fn gen_then_mst_then_verify_pipeline() {
    let dir = test_dir("gen_then_mst_then_verify_pipeline");
    let graph = run_ok(
        &dir,
        &[
            "gen",
            "--nodes",
            "20",
            "--extra",
            "30",
            "--max-weight",
            "99",
            "--seed",
            "5",
        ],
        &[],
    );
    assert!(graph.starts_with("nodes 20"));
    let tree = run_ok(&dir, &["mst", "g.txt"], &[("g.txt", &graph)]);
    assert!(tree.contains("# MST: 19 edges"));
    let tree_body: String = tree
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| format!("{l}\n"))
        .collect();
    let verdict = run_ok(
        &dir,
        &["verify", "g.txt", "t.txt"],
        &[("g.txt", &graph), ("t.txt", &tree_body)],
    );
    assert!(verdict.contains("sequential check: MST ✓"), "{verdict}");
    assert!(verdict.contains("accepted by all 20 nodes"), "{verdict}");
}

#[test]
fn verify_rejects_bad_tree() {
    let dir = test_dir("verify_rejects_bad_tree");
    // Triangle with the heavy edge forced into the tree.
    let graph = "0 1 1\n1 2 2\n2 0 9\n";
    let bad_tree = "0 1\n2 0\n";
    let verdict = run_ok(
        &dir,
        &["verify", "g.txt", "t.txt"],
        &[("g.txt", graph), ("t.txt", bad_tree)],
    );
    assert!(verdict.contains("not minimum ✗"), "{verdict}");
    assert!(verdict.contains("marker refuses"), "{verdict}");
}

#[test]
fn label_reports_sizes() {
    let dir = test_dir("label_reports_sizes");
    let graph = run_ok(&dir, &["gen", "--nodes", "16", "--seed", "1"], &[]);
    let out = run_ok(&dir, &["label", "g.txt"], &[("g.txt", &graph)]);
    assert!(out.contains("max label:"), "{out}");
    assert!(out.contains("accepted by all 16 nodes"), "{out}");
}

#[test]
fn sensitivity_lists_every_edge() {
    let dir = test_dir("sensitivity_lists_every_edge");
    let graph = "0 1 1\n1 2 2\n2 0 9\n";
    let out = run_ok(&dir, &["sensitivity", "g.txt"], &[("g.txt", graph)]);
    assert!(out.contains("0 1 1 tree +9"), "{out}");
    assert!(out.contains("1 2 2 tree +8"), "{out}");
    assert!(out.contains("2 0 9 alt -8"), "{out}");
}

#[test]
fn session_replays_script_and_prints_metrics() {
    let dir = test_dir("session_replays_script_and_prints_metrics");
    let graph = run_ok(
        &dir,
        &["gen", "--nodes", "14", "--extra", "10", "--seed", "9"],
        &[],
    );
    let script = "# corrupt one label, then heal it\n\
                  corrupt 3 7\n\
                  restore 3\n\
                  setweight 0 500000\n";
    let out = run_ok(
        &dir,
        &["session", "g.txt", "s.txt"],
        &[("g.txt", &graph), ("s.txt", script)],
    );
    assert!(out.contains("initial: accepted by all 14 nodes"), "{out}");
    assert!(out.contains("corrupt 3 7: rejected at"), "{out}");
    assert!(out.contains("restore 3: accepted by all 14 nodes"), "{out}");
    // The last line is the one-line metrics JSON with frontier sizes and
    // cache-skip counts.
    let json = out.lines().last().unwrap();
    assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
    assert!(json.contains("\"mutations_applied\":3"), "{json}");
    assert!(json.contains("\"frontier_sizes\":{"), "{json}");
    assert!(json.contains("\"nodes_skipped\":"), "{json}");
    assert!(json.contains("\"full_runs\":1"), "{json}");
}

#[test]
fn session_rejects_bad_script() {
    let dir = test_dir("session_rejects_bad_script");
    let graph = "0 1 1\n1 2 2\n";
    let out = mstv().args(["session", "g.txt", "s.txt"]).output().unwrap();
    // Missing files fail cleanly; a malformed line names its location.
    assert!(!out.status.success());
    let gp = dir.join("bad-g.txt");
    let sp = dir.join("bad-s.txt");
    std::fs::write(&gp, graph).unwrap();
    std::fs::write(&sp, "teleport 3\n").unwrap();
    let out = mstv()
        .args(["session", gp.to_str().unwrap(), sp.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("cannot parse mutation"), "{err}");
}

#[test]
fn dot_renders() {
    let dir = test_dir("dot_renders");
    let graph = "0 1 3\n1 2 4\n";
    let out = run_ok(&dir, &["dot", "g.txt"], &[("g.txt", graph)]);
    assert!(out.starts_with("graph g {"));
    assert!(out.contains("style=bold"));
}

#[test]
fn helpful_errors() {
    let out = mstv().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown command"));
    assert!(err.contains("usage:"));

    let out = mstv().args(["gen"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--nodes is required"));

    // Every other error is its one line: the usage text follows only a
    // missing or unknown command.
    let dir = test_dir("helpful_errors");
    let snap = dir.join("s.snap");
    let snap = snap.to_string_lossy();
    let graph = run_ok(
        &dir,
        &["gen", "--nodes", "30", "--extra", "30", "--seed", "1"],
        &[],
    );
    run_ok(
        &dir,
        &["snapshot", "write", "g.txt", &snap],
        &[("g.txt", &graph)],
    );
    let err = run_err(&["query", &snap, "max", "1", "99"]);
    assert_eq!(err.lines().count(), 1, "{err}");
    assert!(err.contains("node 99 is not labelled"), "{err}");
}

#[test]
fn net_runs_lossy_verification_and_replays_its_log() {
    let dir = test_dir("net_runs_lossy_verification_and_replays_its_log");
    let log_path = dir.join("run.log");
    let log_path = log_path.to_string_lossy();

    let out = run_ok(
        &dir,
        &[
            "net", "--nodes", "32", "--extra", "48", "--drop", "0.2", "--dup", "0.1", "--delay",
            "2", "--seed", "7", "--log", &log_path,
        ],
        &[],
    );
    assert!(out.contains("verdict: accepted by all 32 nodes"), "{out}");
    assert!(out.contains("cost: {\"msgs\":"), "{out}");

    let replayed = run_ok(&dir, &["net", "--replay", &log_path], &[]);
    assert!(
        replayed.contains("replay: matches the recorded run"),
        "{replayed}"
    );
    // The replay reprints the same verdict and cost lines it recomputed.
    for line in out.lines().take(2) {
        assert!(replayed.contains(line), "missing {line:?} in {replayed}");
    }

    // Logs from builds that recorded the scheduler in an `engine`
    // header still replay: headers are provenance only.
    let text = std::fs::read_to_string(&*log_path).unwrap();
    let old = text.replacen("\nh ", "\nh engine threads\nh ", 1);
    assert_ne!(old, text);
    let replayed = run_ok(&dir, &["net", "--replay", "old.log"], &[("old.log", &old)]);
    assert!(
        replayed.contains("replay: matches the recorded run"),
        "{replayed}"
    );
}

#[test]
fn net_replay_refuses_a_log_of_another_version() {
    let dir = test_dir("net_replay_refuses_a_log_of_another_version");
    // v1 counted retransmission generations; v2 acked every label; v3
    // construction logs carry the marker's retired walk.
    for (old, delivery) in [
        ("v1", "d 1 0 l 9 ff80"),
        ("v2", "d 0 2 0 a"),
        ("v3", "d 0 1 1 m 0 10 2a00"),
    ] {
        let path = dir.join(format!("{old}.log"));
        let log = format!("mstv-net-log {old}\nh nodes 4\ns 0\n{delivery}\n");
        std::fs::write(&path, log).unwrap();
        let out = mstv()
            .args(["net", "--replay", &path.to_string_lossy()])
            .output()
            .expect("binary runs");
        assert!(!out.status.success(), "a {old} log must be refused");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(stderr.lines().count(), 1, "{stderr}");
        assert!(
            stderr.contains(old),
            "the error must name the version: {stderr}"
        );
    }
}

#[test]
fn net_detects_injected_faults_on_the_wire() {
    let dir = test_dir("net_detects_injected_faults_on_the_wire");
    for fault in ["weight", "pointer", "label"] {
        let out = run_ok(
            &dir,
            &[
                "net", "--nodes", "24", "--drop", "0.15", "--seed", "3", "--fault", fault,
            ],
            &[],
        );
        assert!(
            out.contains("rejected at"),
            "fault {fault} went undetected: {out}"
        );
    }
}

#[test]
fn net_compute_builds_labels_replays_and_snapshots_byte_identically() {
    let dir = test_dir("net_compute_builds_labels_replays_and_snapshots_byte_identically");
    let log_path = dir.join("compute.log");
    let log_path = log_path.to_string_lossy();

    // Build the MST and its labels on the network, over a lossy link.
    let out = run_ok(
        &dir,
        &[
            "net",
            "--compute",
            "--nodes",
            "32",
            "--extra",
            "48",
            "--drop",
            "0.2",
            "--dup",
            "0.1",
            "--delay",
            "2",
            "--seed",
            "7",
            "--workers",
            "3",
            "--log",
            &log_path,
        ],
        &[],
    );
    assert!(out.contains("verdict: accepted by all 32 nodes"), "{out}");
    assert!(out.contains("mst: 31 edges"), "{out}");
    assert!(out.contains("phases: {\"ghs\":{\"msgs\":"), "{out}");

    // The log replays to the identical outcome, phase split included.
    let replayed = run_ok(&dir, &["net", "--replay", &log_path], &[]);
    assert!(
        replayed.contains("replay: matches the recorded run"),
        "{replayed}"
    );
    for line in out.lines().take(5) {
        assert!(replayed.contains(line), "missing {line:?} in {replayed}");
    }

    // One worker prints the same verdict, cost, and phase lines (the
    // pool size is unobservable; no --log, same link schedule).
    let single = run_ok(
        &dir,
        &[
            "net",
            "--compute",
            "--nodes",
            "32",
            "--extra",
            "48",
            "--drop",
            "0.2",
            "--dup",
            "0.1",
            "--delay",
            "2",
            "--seed",
            "7",
            "--workers",
            "1",
        ],
        &[],
    );
    for line in out.lines().take(5) {
        assert!(single.contains(line), "missing {line:?} in {single}");
    }

    // Snapshot the tree the network built; byte-identical to the
    // snapshot of the same graph's locally computed MST.
    let from_net = dir.join("from_net.snap");
    let from_net = from_net.to_string_lossy();
    let central = dir.join("central.snap");
    let central = central.to_string_lossy();
    run_ok(
        &dir,
        &["snapshot", "write", "--from-net", &log_path, &from_net],
        &[],
    );
    let graph = run_ok(
        &dir,
        &["gen", "--nodes", "32", "--extra", "48", "--seed", "7"],
        &[],
    );
    run_ok(
        &dir,
        &["snapshot", "write", "g.txt", &central],
        &[("g.txt", &graph)],
    );
    let a = std::fs::read(&*from_net).unwrap();
    let b = std::fs::read(&*central).unwrap();
    assert_eq!(a, b, "distributed and centralized snapshots differ");

    // A verification log is not a construction log.
    let verif_log = dir.join("verif.log");
    let verif_log = verif_log.to_string_lossy();
    run_ok(
        &dir,
        &["net", "--nodes", "8", "--seed", "1", "--log", &verif_log],
        &[],
    );
    let out = mstv()
        .args(["snapshot", "write", "--from-net", &verif_log, "x.snap"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("not a construction log"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn query_flags_may_precede_the_query_words() {
    let dir = test_dir("query_flags_may_precede_the_query_words");
    let snap = dir.join("q.snap");
    let snap = snap.to_string_lossy();

    let graph = run_ok(
        &dir,
        &["gen", "--nodes", "40", "--extra", "60", "--seed", "5"],
        &[],
    );
    run_ok(
        &dir,
        &["snapshot", "write", "--format", "v2", "g.txt", &snap],
        &[("g.txt", &graph)],
    );

    // Flag placement must not matter: `--mmap`/`--seed` before the
    // positional query words, or before the snapshot path itself,
    // parse the same as after them, and the zero-copy answer equals
    // the owned-path answer.
    let owned = run_ok(&dir, &["query", &snap, "max", "3", "17"], &[]);
    let flags_after = run_ok(&dir, &["query", &snap, "max", "3", "17", "--mmap"], &[]);
    let flags_before = run_ok(
        &dir,
        &["query", &snap, "--mmap", "--seed", "2", "max", "3", "17"],
        &[],
    );
    let flags_before_path = run_ok(
        &dir,
        &["query", "--mmap", "--seed", "2", &snap, "max", "3", "17"],
        &[],
    );
    assert_eq!(owned, flags_after);
    assert_eq!(owned, flags_before);
    assert_eq!(owned, flags_before_path);
}

#[test]
fn snapshot_fsck_and_inspect_take_flags_before_the_file() {
    let dir = test_dir("snapshot_fsck_and_inspect_take_flags_before_the_file");
    let snap = dir.join("s.snap");
    let snap = snap.to_string_lossy();
    let graph = run_ok(&dir, &["gen", "--nodes", "30", "--seed", "4"], &[]);
    run_ok(
        &dir,
        &["snapshot", "write", "g.txt", &snap],
        &[("g.txt", &graph)],
    );
    let after = run_ok(&dir, &["snapshot", "fsck", &snap, "--pairs", "9"], &[]);
    let before = run_ok(&dir, &["snapshot", "fsck", "--pairs", "9", &snap], &[]);
    assert!(after.contains("9 sampled answers"), "{after}");
    assert_eq!(before, after);
    let inspect = run_ok(&dir, &["snapshot", "inspect", &snap], &[]);
    assert!(inspect.contains("nodes:      30"), "{inspect}");
    assert!(run_err(&["snapshot", "fsck", "--pairs", "9"]).contains("missing snapshot file"));
}

#[test]
fn a_closed_stdout_ends_the_command_quietly() {
    // Twenty thousand nodes print far more than a pipe buffer holds, so
    // `gen` is still writing when the reader goes away, as under
    // `mstv gen … | head -1`.
    let mut child = mstv()
        .args(["gen", "--nodes", "20000", "--seed", "3"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let mut first = String::new();
    BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut first)
        .unwrap();
    assert_eq!(first, "nodes 20000\n");
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
    assert!(!stderr.contains("panicked"), "{stderr}");

    // Output is dropped, not the command's work: a run whose stdout is
    // closed before its first line still writes its log.
    let dir = test_dir("a_closed_stdout_ends_the_command_quietly");
    let log = dir.join("v.log");
    let log = log.to_string_lossy();
    let mut child = mstv()
        .args(["net", "--nodes", "24", "--seed", "11", "--log", &log])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    drop(child.stdout.take());
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
    assert!(!stderr.contains("panicked"), "{stderr}");
    let replay = run_ok(&dir, &["net", "--replay", &log], &[]);
    assert!(replay.contains("replay: matches"), "{replay}");
}

#[test]
fn query_and_serve_reject_unknown_flags() {
    let dir = test_dir("query_and_serve_reject_unknown_flags");
    let snap = dir.join("q.snap");
    let snap = snap.to_string_lossy();
    let graph = run_ok(&dir, &["gen", "--nodes", "12", "--seed", "2"], &[]);
    run_ok(
        &dir,
        &["snapshot", "write", "g.txt", &snap],
        &[("g.txt", &graph)],
    );

    // The retired cache-size and shard-count flags, spelled in two parts
    // so that a search for leftover uses of them finds none. They must be
    // refused rather than skipped with their value read as a query word.
    let cache = ["--", "cache"].concat();
    let shards = ["--", "shards"].concat();
    let cases: [(Vec<&str>, &str); 6] = [
        (vec!["query", &snap, &cache, "0", "max", "1", "2"], &cache),
        (vec!["query", &snap, &shards, "2", "max", "1", "2"], &shards),
        (vec!["query", &snap, "max", "1", "2", "--bogus"], "--bogus"),
        (
            vec!["query", "--connect", "127.0.0.1:1", &cache, "0", "--stats"],
            &cache,
        ),
        (vec!["serve", "--snapshot", &snap, &cache, "64"], &cache),
        (vec!["serve", "--snapshot", &snap, &shards, "4"], &shards),
    ];
    for (args, flag) in cases {
        let out = mstv().args(&args).output().unwrap();
        assert!(!out.status.success(), "mstv {args:?} succeeded");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!("unknown flag {flag}")),
            "mstv {args:?}: {err}"
        );
    }
}

#[test]
fn every_other_subcommand_rejects_unknown_flags() {
    let dir = test_dir("every_other_subcommand_rejects_unknown_flags");
    let graph = run_ok(&dir, &["gen", "--nodes", "12", "--seed", "2"], &[]);
    let g = dir.join("g.txt");
    std::fs::write(&g, &graph).unwrap();
    let g = g.to_string_lossy();
    let tree = dir.join("t.txt");
    std::fs::write(&tree, "0 1\n").unwrap();
    let tree = tree.to_string_lossy();
    let snap = dir.join("s.snap");
    let snap = snap.to_string_lossy();
    run_ok(&dir, &["snapshot", "write", &g, &snap], &[]);

    // The retired scheduler flag, spelled in two parts so that a search
    // for leftover uses of it finds none.
    let engine = ["--", "engine"].concat();
    let cases: [(Vec<&str>, &str); 14] = [
        (vec!["net", "--nodes", "64", &engine, "threads"], &engine),
        (vec!["net", "--nodes", "8", "--engin", "events"], "--engin"),
        (
            vec!["net", "--compute", "--nodes", "8", "--bogus"],
            "--bogus",
        ),
        (vec!["net", "--replay", "x.log", "--bogus"], "--bogus"),
        (vec!["gen", "--nodes", "10", "--sed", "3"], "--sed"),
        (vec!["mst", &g, "--bogus"], "--bogus"),
        (vec!["label", &g, "--bogus"], "--bogus"),
        (vec!["verify", &g, &tree, "--bogus"], "--bogus"),
        (vec!["sensitivity", &g, "--bogus"], "--bogus"),
        (vec!["session", &g, &tree, "--bogus"], "--bogus"),
        (vec!["dot", &g, "--bogus"], "--bogus"),
        (vec!["snapshot", "inspect", &snap, "--bogus"], "--bogus"),
        (vec!["snapshot", "fsck", &snap, "--pair", "9"], "--pair"),
        (vec!["snapshot", "fsck", &snap, "--bogus"], "--bogus"),
    ];
    for (args, flag) in cases {
        let err = run_err(&args);
        assert!(
            err.contains(&format!("unknown flag {flag}")),
            "mstv {args:?}: {err}"
        );
    }
    // The flags they do know still parse.
    run_ok(&dir, &["snapshot", "fsck", &snap, "--pairs", "9"], &[]);
}

#[test]
fn zero_counts_are_refused() {
    let dir = test_dir("zero_counts_are_refused");
    let graph = run_ok(&dir, &["gen", "--nodes", "12", "--seed", "2"], &[]);
    let g = dir.join("g.txt");
    std::fs::write(&g, &graph).unwrap();
    let g = g.to_string_lossy();
    // A server with no worker, connection slot or queue room would
    // start and then refuse every request. Each zero is refused before
    // the (absent) snapshot is opened, so no server starts, and the
    // error names the flag.
    let snap = dir.join("absent.snap");
    let snap = snap.to_string_lossy();
    let cases: [(Vec<&str>, &str); 5] = [
        (
            vec!["serve", "--snapshot", &snap, "--workers", "0"],
            "--workers",
        ),
        (
            vec!["serve", "--snapshot", &snap, "--queue-depth", "0"],
            "--queue-depth",
        ),
        (
            vec!["serve", "--snapshot", &snap, "--max-conns", "0"],
            "--max-conns",
        ),
        (vec!["net", "--nodes", "8", "--workers", "0"], "--workers"),
        (
            vec!["snapshot", "write", "--threads", "0", &g, "o.snap"],
            "--threads",
        ),
    ];
    for (args, flag) in cases {
        let err = run_err(&args);
        assert!(
            err.contains(&format!("{flag} must be a positive integer")),
            "mstv {args:?}: {err}"
        );
    }
}

/// Runs `mstv args` and returns its standard error, panicking unless the
/// command fails.
fn run_err(args: &[&str]) -> String {
    let out = mstv().args(args).output().unwrap();
    assert!(!out.status.success(), "mstv {args:?} succeeded");
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn dist_section_exists_only_when_the_tree_weight_fits_u64() {
    let dir = test_dir("dist_section_exists_only_when_the_tree_weight_fits_u64");
    let snap = dir.join("p.snap");
    let snap = snap.to_string_lossy();
    // A 5-node path of four 2^63 edges: every edge fits, the total 2^65
    // does not, so the tree has no distance labels.
    let path = "nodes 5\n0 1 9223372036854775808\n1 2 9223372036854775808\n\
                2 3 9223372036854775808\n3 4 9223372036854775808\n";
    run_ok(
        &dir,
        &["snapshot", "write", "g.txt", &snap],
        &[("g.txt", path)],
    );
    let inspect = run_ok(&dir, &["snapshot", "inspect", &snap], &[]);
    assert!(inspect.contains("dist:       absent"), "{inspect}");
    let fsck = run_ok(&dir, &["snapshot", "fsck", &snap], &[]);
    assert!(fsck.contains("(no dist section)"), "{fsck}");
    let err = run_err(&["query", &snap, "dist", "0", "2"]);
    assert!(err.contains("snapshot has no dist section"), "{err}");
    // MAX and FLOW are unaffected.
    let max = run_ok(&dir, &["query", &snap, "max", "0", "2"], &[]);
    assert_eq!(max.trim(), "9223372036854775808");
    let flow = run_ok(&dir, &["query", &snap, "flow", "4", "1"], &[]);
    assert_eq!(flow.trim(), "9223372036854775808");
    // The incremental marker refuses the tree with a typed error.
    let stream = dir.join("s.txt");
    std::fs::write(&stream, "set 0 1 5\n").unwrap();
    let journal = dir.join("j.jrnl");
    let err = run_err(&[
        "mutate",
        &dir.join("g.txt").to_string_lossy(),
        "--stream",
        &stream.to_string_lossy(),
        "--journal",
        &journal.to_string_lossy(),
    ]);
    assert!(err.contains("no distance labels"), "{err}");

    // A path minimum of 2^64 - 1 between distinct nodes is a number;
    // only FLOW(u, u), the empty path, is `inf`.
    let snap = dir.join("f.snap");
    let snap = snap.to_string_lossy();
    let heavy = "nodes 3\n0 1 18446744073709551615\n1 2 18446744073709551615\n";
    run_ok(
        &dir,
        &["snapshot", "write", "h.txt", &snap],
        &[("h.txt", heavy)],
    );
    let flow = run_ok(&dir, &["query", &snap, "flow", "0", "2"], &[]);
    assert_eq!(flow.trim(), "18446744073709551615");
    let flow = run_ok(&dir, &["query", &snap, "flow", "1", "1"], &[]);
    assert_eq!(flow.trim(), "inf");
}

#[test]
fn snapshot_write_and_mutate_reject_unknown_flags() {
    let dir = test_dir("snapshot_write_and_mutate_reject_unknown_flags");
    let graph = run_ok(&dir, &["gen", "--nodes", "12", "--seed", "2"], &[]);
    let g = dir.join("g.txt");
    std::fs::write(&g, &graph).unwrap();
    let g = g.to_string_lossy();
    let out = dir.join("o.snap");
    let out = out.to_string_lossy();

    let cases: [(Vec<&str>, &str); 4] = [
        (
            vec!["snapshot", "write", "--no-dsit", &g, &out],
            "--no-dsit",
        ),
        (
            vec!["snapshot", "write", "--thread", "2", &g, &out],
            "--thread",
        ),
        (vec!["mutate", &g, "--gen", "3", "--sed", "1"], "--sed"),
        (
            vec!["mutate", "--compact", &out, &out, &out, "--bogus"],
            "--bogus",
        ),
    ];
    for (args, flag) in cases {
        let err = run_err(&args);
        assert!(
            err.contains(&format!("unknown flag {flag}")),
            "mstv {args:?}: {err}"
        );
    }
    assert!(
        !dir.join("o.snap").exists(),
        "a refused write left a file behind"
    );
    // The flags they do know still parse.
    run_ok(
        &dir,
        &["snapshot", "write", "--no-dist", "--threads", "2", &g, &out],
        &[],
    );
    run_ok(&dir, &["mutate", &g, "--gen", "3", "--seed", "1"], &[]);
}

#[test]
fn numbers_wider_than_their_field_are_refused() {
    let dir = test_dir("numbers_wider_than_their_field_are_refused");
    let snap = dir.join("s.snap");
    let snap = snap.to_string_lossy();
    let graph = run_ok(
        &dir,
        &["gen", "--nodes", "30", "--extra", "30", "--seed", "1"],
        &[],
    );
    let g = dir.join("g.txt");
    std::fs::write(&g, &graph).unwrap();
    let g = g.to_string_lossy();
    run_ok(&dir, &["snapshot", "write", &g, &snap], &[]);

    // 2^32 + 1 cut to a u32 node id is node 1, which the snapshot holds:
    // the word must be refused, not answered as `max 1 2`.
    let wide = "4294967297";
    let err = run_err(&["query", &snap, "max", wide, "2"]);
    assert!(err.contains(&format!("bad number \"{wide}\"")), "{err}");
    let batch = dir.join("b.txt");
    std::fs::write(&batch, format!("max 1 2\nmax {wide} 2\n")).unwrap();
    let err = run_err(&["query", &snap, "--batch", &batch.to_string_lossy()]);
    assert!(err.contains("b.txt:2: bad number"), "{err}");

    let stream = dir.join("m.txt");
    std::fs::write(&stream, format!("set {wide} 2 5\n")).unwrap();
    let err = run_err(&[
        "mutate",
        &g,
        "--stream",
        &stream.to_string_lossy(),
        "--journal",
        &dir.join("j.jrnl").to_string_lossy(),
    ]);
    assert!(err.contains("m.txt:1: bad number"), "{err}");

    // 65536 cut to a u16 is port 0, an ephemeral port. The flag is
    // refused before the (absent) snapshot is opened, so no server starts.
    let err = run_err(&[
        "serve",
        "--snapshot",
        &dir.join("absent.snap").to_string_lossy(),
        "--port",
        "65536",
    ]);
    assert!(err.contains("--port: bad number"), "{err}");
}

#[test]
fn mutate_refuses_a_zero_weight_with_a_typed_error() {
    let dir = test_dir("mutate_refuses_a_zero_weight_with_a_typed_error");
    let graph = run_ok(
        &dir,
        &["gen", "--nodes", "20", "--extra", "20", "--seed", "3"],
        &[],
    );
    let g = dir.join("g.txt");
    std::fs::write(&g, &graph).unwrap();
    // The first edge of the generated graph, set to weight 0.
    let edge: Vec<&str> = graph
        .lines()
        .find(|l| !l.starts_with('#') && !l.starts_with("nodes"))
        .expect("the graph has edges")
        .split_whitespace()
        .collect();
    let stream = dir.join("s.txt");
    std::fs::write(&stream, format!("set {} {} 0\n", edge[0], edge[1])).unwrap();
    let out = mstv()
        .args([
            "mutate",
            &g.to_string_lossy(),
            "--stream",
            &stream.to_string_lossy(),
            "--journal",
            &dir.join("j.jrnl").to_string_lossy(),
        ])
        .output()
        .unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "a zero weight was applied");
    assert_ne!(out.status.code(), Some(101), "mstv panicked: {err}");
    assert_eq!(err.lines().count(), 1, "{err}");
    assert!(
        err.contains("s.txt:1: edge weight must be positive"),
        "{err}"
    );
}

#[test]
fn a_graph_with_no_nodes_is_refused_by_every_reader() {
    let dir = test_dir("a_graph_with_no_nodes_is_refused_by_every_reader");
    let graph = run_ok(&dir, &["gen", "--nodes", "12", "--seed", "2"], &[]);
    let g = dir.join("g.txt");
    std::fs::write(&g, &graph).unwrap();
    let snap = dir.join("s.snap");
    let snap = snap.to_string_lossy();
    run_ok(
        &dir,
        &["snapshot", "write", &g.to_string_lossy(), &snap],
        &[],
    );
    let (tree, script) = (dir.join("t.txt"), dir.join("script.txt"));
    std::fs::write(&tree, "").unwrap();
    std::fs::write(&script, "").unwrap();
    let (tree, script) = (tree.to_string_lossy(), script.to_string_lossy());
    let out_snap = dir.join("o.snap");
    let out_snap = out_snap.to_string_lossy();
    // An empty file and an explicit `nodes 0` both parse to a graph
    // that is vacuously connected but hangs no tree.
    for (name, text) in [("empty.txt", ""), ("zero.txt", "nodes 0\n")] {
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap();
        let path = path.to_string_lossy();
        let cases: [Vec<&str>; 9] = [
            vec!["mst", &path],
            vec!["label", &path],
            vec!["verify", &path, &tree],
            vec!["sensitivity", &path],
            vec!["session", &path, &script],
            vec!["dot", &path],
            vec!["snapshot", "write", &path, &out_snap],
            vec!["mutate", &path, "--gen", "4"],
            vec![
                "query",
                &snap,
                "--bench",
                "--queries",
                "8",
                "--verify-against",
                &path,
            ],
        ];
        for args in cases {
            let out = mstv().args(&args).output().unwrap();
            let err = String::from_utf8_lossy(&out.stderr);
            assert!(!out.status.success(), "mstv {args:?} accepted no nodes");
            assert!(!err.contains("panicked"), "mstv {args:?}: {err}");
            assert_eq!(err.lines().count(), 1, "mstv {args:?}: {err}");
            assert!(
                err.contains(&format!("{path}: graph has no nodes")),
                "mstv {args:?}: {err}"
            );
        }
    }
}
