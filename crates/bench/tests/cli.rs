//! Smoke tests for the reproduction binaries: a scaled-down parallel run
//! must succeed end-to-end and record its throughput artifact, and the
//! artifact caches must be invisible in the experiment outputs.

use std::path::Path;
use std::process::Command;

#[test]
fn table1_quick_parallel_smoke() {
    let results_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_smoke_results");
    let _ = std::fs::remove_dir_all(&results_dir);

    let output = Command::new(env!("CARGO_BIN_EXE_table1"))
        .args(["--quick", "--jobs", "2"])
        .env("RTLFIXER_RESULTS_DIR", &results_dir)
        .output()
        .expect("table1 binary runs");
    assert!(
        output.status.success(),
        "table1 --quick --jobs 2 failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );

    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("Prompt"), "table header missing:\n{stdout}");
    assert!(stdout.contains("eps/s"), "throughput column missing:\n{stdout}");
    // All 14 grid cells present in the JSON dump.
    assert_eq!(stdout.matches("\"fix_rate\"").count(), 14, "{stdout}");

    // The run recorded its throughput into bench_eval.json.
    let artifact = results_dir.join("bench_eval.json");
    let text = std::fs::read_to_string(&artifact).expect("bench_eval.json written");
    let json: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
    let entry = &json["table1"];
    assert_eq!(entry["jobs"].as_u64(), Some(2), "{text}");
    assert!(entry["episodes"].as_u64().unwrap_or(0) > 0, "{text}");
    assert!(entry["episodes_per_sec"].as_f64().unwrap_or(0.0) > 0.0, "{text}");
    // The entry carries the artifact-cache snapshot alongside throughput.
    assert!(
        entry["caches"]["outcomes"]["misses"].as_u64().unwrap_or(0) > 0,
        "cache counters missing: {text}"
    );
    // ... and the scheduler metadata: fingerprint batching folds each
    // entry's 3 repeats into one batch, so the 14 cells × 40 entries × 3
    // repeats form 560 batches with 1,120 episodes coalesced.
    let scheduler = &entry["scheduler"];
    assert_eq!(scheduler["batches"].as_u64(), Some(560), "{text}");
    assert_eq!(scheduler["coalesced"].as_u64(), Some(1_120), "{text}");
}

#[test]
fn figure4_quick_records_both_suites_scheduler_stats() {
    let results_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_figure4_results");
    let _ = std::fs::remove_dir_all(&results_dir);

    let output = Command::new(env!("CARGO_BIN_EXE_figure4"))
        .args(["--quick", "--jobs", "2"])
        .env_remove("RTLFIXER_FAULTS")
        .env_remove("RTLFIXER_TRACE")
        .env("RTLFIXER_RESULTS_DIR", &results_dir)
        .output()
        .expect("figure4 binary runs");
    assert!(
        output.status.success(),
        "figure4 --quick failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let text = std::fs::read_to_string(results_dir.join("bench_eval.json"))
        .expect("bench_eval.json written");
    let json: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
    let entry = &json["figure4"];
    // Two suites × 30 quick problems × 8 samples, and one batch per
    // problem: the record must cover both suites, not only the last.
    assert_eq!(entry["episodes"].as_u64(), Some(480), "{text}");
    assert_eq!(entry["scheduler"]["batches"].as_u64(), Some(60), "{text}");
}

#[test]
fn bench_eval_entries_record_peak_rss() {
    let results_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_peak_rss_results");
    let _ = std::fs::remove_dir_all(&results_dir);
    let output = Command::new(env!("CARGO_BIN_EXE_stats55"))
        .args(["--quick", "--jobs", "2"])
        .env("RTLFIXER_RESULTS_DIR", &results_dir)
        .output()
        .expect("stats55 binary runs");
    assert!(
        output.status.success(),
        "stats55 --quick failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let text = std::fs::read_to_string(results_dir.join("bench_eval.json"))
        .expect("bench_eval.json written");
    let json: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
    // The process's `VmHWM`, in MB: present wherever `/proc/self/status`
    // is readable, as it is on Linux.
    let peak = json["stats55"]["peak_rss_mb"].as_f64().unwrap_or(0.0);
    assert!(peak > 0.0, "{text}");
}

/// The scientific outputs of a `table1` run under the given environment:
/// every `fix_rate` line of the JSON cell dump, in order. Wall-clock fields
/// are deliberately excluded — they are the only thing caching is allowed
/// to change. `RTLFIXER_FAULTS` is scrubbed unless explicitly passed, so an
/// ambient spec cannot leak into the comparisons.
fn table1_fix_rates_with(jobs: &str, results_dir: &Path, envs: &[(&str, &str)]) -> Vec<String> {
    table1_fix_rates_full(jobs, results_dir, envs, &[])
}

/// [`table1_fix_rates_with`], plus extra CLI flags (e.g. `--telemetry`).
fn table1_fix_rates_full(
    jobs: &str,
    results_dir: &Path,
    envs: &[(&str, &str)],
    extra_args: &[&str],
) -> Vec<String> {
    let mut command = Command::new(env!("CARGO_BIN_EXE_table1"));
    command
        .args(["--quick", "--jobs", jobs])
        .args(extra_args)
        .env_remove("RTLFIXER_FAULTS")
        .env_remove("RTLFIXER_TRACE")
        .env("RTLFIXER_RESULTS_DIR", results_dir);
    for (key, value) in envs {
        command.env(key, value);
    }
    let output = command.output().expect("table1 binary runs");
    assert!(
        output.status.success(),
        "table1 --quick --jobs {jobs} ({envs:?}) failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    let rates: Vec<String> = stdout
        .lines()
        .filter(|line| line.contains("\"fix_rate\""))
        .map(str::to_owned)
        .collect();
    assert_eq!(rates.len(), 14, "expected all 14 grid cells:\n{stdout}");
    rates
}

fn table1_fix_rates(cache: &str, jobs: &str, results_dir: &Path) -> Vec<String> {
    table1_fix_rates_with(jobs, results_dir, &[("RTLFIXER_CACHE", cache)])
}

#[test]
fn table1_outputs_invariant_to_cache_and_jobs() {
    let results_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_invariance_results");
    let _ = std::fs::remove_dir_all(&results_dir);

    // Reference semantics: cache off, serial.
    let reference = table1_fix_rates("0", "1", &results_dir);
    for (cache, jobs) in [("0", "4"), ("1", "1"), ("1", "4")] {
        assert_eq!(
            table1_fix_rates(cache, jobs, &results_dir),
            reference,
            "fix rates diverged at RTLFIXER_CACHE={cache} --jobs {jobs}"
        );
    }
}

#[test]
fn faults_kill_switch_is_bit_identical_to_unset() {
    let results_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_faults_off_results");
    let _ = std::fs::remove_dir_all(&results_dir);

    // RTLFIXER_FAULTS unset is the reference; every spelling of "off" must
    // match it bit-for-bit, and so must a malformed spec (a typo in a
    // tuning variable disables faults, it does not change results or
    // abort the run).
    let unset = table1_fix_rates_with("2", &results_dir, &[]);
    for spec in ["off", "0", "false", "not-a-spec"] {
        assert_eq!(
            table1_fix_rates_with("2", &results_dir, &[("RTLFIXER_FAULTS", spec)]),
            unset,
            "fix rates diverged at RTLFIXER_FAULTS={spec}"
        );
    }
}

#[test]
fn faulted_outputs_are_jobs_invariant() {
    let results_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_faults_jobs_results");
    let _ = std::fs::remove_dir_all(&results_dir);

    // Fault placement derives from episode seeds, so a fixed spec is
    // bit-identical across worker counts — and visibly different from the
    // faultless run (the injection is not a no-op at 15%).
    let faults = [("RTLFIXER_FAULTS", "0.15")];
    let serial = table1_fix_rates_with("1", &results_dir, &faults);
    assert_eq!(
        table1_fix_rates_with("4", &results_dir, &faults),
        serial,
        "fix rates diverged across --jobs under RTLFIXER_FAULTS=0.15"
    );
    assert_ne!(
        table1_fix_rates_with("1", &results_dir, &[]),
        serial,
        "15% faults left every one of the 14 grid cells untouched"
    );
}

#[test]
fn chaos_quick_smoke_contains_its_panic_probe() {
    let results_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_chaos_results");
    let _ = std::fs::remove_dir_all(&results_dir);

    let output = Command::new(env!("CARGO_BIN_EXE_chaos"))
        .args(["--quick", "--jobs", "2"])
        .env_remove("RTLFIXER_FAULTS")
        .env("RTLFIXER_RESULTS_DIR", &results_dir)
        .output()
        .expect("chaos binary runs");
    assert!(
        output.status.success(),
        "chaos --quick --jobs 2 failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );

    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("fault rate") || stdout.contains("faults"), "{stdout}");

    // The JSON dump holds the full 4-variant × 5-rate sweep.
    let json_start = stdout.find('[').expect("JSON cell dump present");
    let cells: serde_json::Value =
        serde_json::from_str(&stdout[json_start..]).expect("valid cell JSON");
    let cells = cells.as_array().expect("array of cells");
    assert_eq!(cells.len(), 20, "expected 4 variants x 5 rates");

    // The deliberate panic probe is contained in the first cell and
    // reported as a failed episode; the rest of the sweep is clean.
    assert_eq!(cells[0]["failed_episodes"].as_u64(), Some(1), "{stdout}");
    assert!(cells[1..].iter().all(|c| c["failed_episodes"].as_u64() == Some(0)), "{stdout}");

    // Faulted cells report degradation activity; clean cells report none.
    for cell in cells {
        let rate = cell["fault_rate"].as_f64().expect("rate");
        let events = cell["fault_events"].as_u64().expect("events");
        if rate == 0.0 {
            assert_eq!(events, 0, "clean cell saw faults: {cell}");
        } else {
            assert!(events > 0, "faulted cell saw no faults: {cell}");
        }
    }

    // The run recorded its throughput, fault counters included.
    let text = std::fs::read_to_string(results_dir.join("bench_eval.json"))
        .expect("bench_eval.json written");
    let json: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
    let entry = &json["chaos"];
    assert!(entry["episodes"].as_u64().unwrap_or(0) > 0, "{text}");
    assert_eq!(entry["failed_episodes"].as_u64(), Some(1), "{text}");
    assert!(entry["faults"]["injected"].as_u64().unwrap_or(0) > 0, "{text}");
}

#[test]
fn telemetry_and_trace_are_out_of_band() {
    let results_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_obs_results");
    let _ = std::fs::remove_dir_all(&results_dir);
    std::fs::create_dir_all(&results_dir).expect("results dir");

    // Reference semantics: observability fully off.
    let reference = table1_fix_rates_with("1", &results_dir, &[]);

    // The explicit kill switch matches unset bit-for-bit.
    assert_eq!(table1_fix_rates_with("1", &results_dir, &[("RTLFIXER_TRACE", "0")]), reference);

    // JSONL tracing + --telemetry on, serial and parallel: the fix-rate
    // grid must stay bit-identical — observability is out-of-band.
    for jobs in ["1", "4"] {
        let trace_path = results_dir.join(format!("trace_jobs{jobs}.jsonl"));
        let trace = trace_path.to_string_lossy().into_owned();
        assert_eq!(
            table1_fix_rates_full(
                jobs,
                &results_dir,
                &[("RTLFIXER_TRACE", trace.as_str())],
                &["--telemetry"],
            ),
            reference,
            "fix rates diverged with telemetry + trace at --jobs {jobs}"
        );

        // The trace file is non-empty JSONL: every line parses and carries
        // the event tag.
        let text = std::fs::read_to_string(&trace_path).expect("trace file written");
        let lines: Vec<&str> = text.lines().collect();
        assert!(!lines.is_empty(), "trace file is empty at --jobs {jobs}");
        for line in &lines {
            let event: serde_json::Value =
                serde_json::from_str(line).unwrap_or_else(|e| panic!("bad JSONL `{line}`: {e}"));
            assert!(event.get("ev").is_some(), "missing ev tag: {line}");
        }
        // Per-episode summaries appear once per episode, independent of
        // worker count (merged in index order at the pool barrier).
        let episodes =
            lines.iter().filter(|l| l.contains("\"ev\":\"episode\"")).count();
        assert!(episodes > 0, "no episode summaries in trace at --jobs {jobs}");
    }

    // The --telemetry run recorded its aggregate block next to throughput.
    let text = std::fs::read_to_string(results_dir.join("bench_eval.json"))
        .expect("bench_eval.json written");
    let json: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
    let telemetry = &json["table1"]["telemetry"];
    assert!(
        telemetry["counters"]["agent.episodes"].as_u64().unwrap_or(0) > 0,
        "agent.episodes counter missing: {text}"
    );
    assert!(
        telemetry["spans"]["turn"]["count"].as_u64().unwrap_or(0) > 0,
        "turn span summary missing: {text}"
    );
    assert!(
        telemetry["spans"]["episode"]["p95_us"].as_u64().is_some(),
        "episode span percentiles missing: {text}"
    );
    assert!(
        telemetry["revisions_by_category"].is_object(),
        "revisions_by_category missing: {text}"
    );
}

#[test]
fn simbench_quick_smoke_records_throughput() {
    let results_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_simbench_results");
    let _ = std::fs::remove_dir_all(&results_dir);

    let output = Command::new(env!("CARGO_BIN_EXE_simbench"))
        .arg("--quick")
        .env("RTLFIXER_RESULTS_DIR", &results_dir)
        .output()
        .expect("simbench binary runs");
    assert!(
        output.status.success(),
        "simbench --quick failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );

    // Every design appears with both backend throughput columns.
    let stdout = String::from_utf8_lossy(&output.stdout);
    for design in [
        "cycle_small_comb",
        "cycle_medium_seq",
        "cycle_wide_256",
        "cycle_wide_128",
        "cycle_crc16_comb",
        "cycle_crc16_flat",
        "cycle_alu_seq",
    ] {
        assert!(stdout.contains(design), "{design} row missing:\n{stdout}");
    }
    assert!(stdout.contains("tree c/s"), "tree throughput column missing:\n{stdout}");
    assert!(stdout.contains("tape c/s"), "tape throughput column missing:\n{stdout}");
    assert!(stdout.contains("speedup"), "speedup column missing:\n{stdout}");
    assert!(stdout.contains("limbs"), "limb-class column missing:\n{stdout}");

    // The run recorded its aggregate cycle throughput (7 designs x 2
    // backends x 20k cycles) plus the per-design backend comparison and
    // tape compiler statistics.
    let text = std::fs::read_to_string(results_dir.join("bench_eval.json"))
        .expect("bench_eval.json written");
    let json: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
    let entry = &json["simbench"];
    assert_eq!(entry["episodes"].as_u64(), Some(280_000), "{text}");
    assert_eq!(entry["failed_episodes"].as_u64(), Some(0), "{text}");
    assert!(entry["episodes_per_sec"].as_f64().unwrap_or(0.0) > 0.0, "{text}");
    let crc = &entry["design.crc16_comb"];
    assert!(crc["tree_cycles_per_sec"].as_f64().unwrap_or(0.0) > 0.0, "{text}");
    assert!(crc["tape_cycles_per_sec"].as_f64().unwrap_or(0.0) > 0.0, "{text}");
    assert!(crc["speedup"].as_f64().unwrap_or(0.0) > 0.0, "{text}");
    // The CRC design's loop unrolls, its cone stays x-free (100% fast-path
    // hits) and the compiler reports emitted/folded/dead-eliminated ops.
    assert_eq!(crc["fast_hit_ratio"].as_f64(), Some(1.0), "{text}");
    assert!(crc["tape_ops_emitted"].as_u64().unwrap_or(0) > 0, "{text}");
    assert!(crc["tape_ops_folded"].as_u64().unwrap_or(0) > 0, "{text}");
    // The wide designs exceed the 64-bit word but stay on the multi-limb
    // two-state fast path: 4 limbs at 256 bits, 2 at 128, zero rejected
    // processes, 100% hits.
    for (design, limbs) in [("design.wide_256", 4), ("design.wide_128", 2)] {
        let wide = &entry[design];
        assert_eq!(wide["fast_hit_ratio"].as_f64(), Some(1.0), "{design}: {text}");
        assert_eq!(wide["limb_class"].as_u64(), Some(limbs), "{design}: {text}");
        assert_eq!(wide["fast_rejected_procs"].as_u64(), Some(0), "{design}: {text}");
    }
}

#[test]
fn rag_distill_spellings_are_bit_identical_on_batch_grids() {
    let results_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_rag_distill_results");
    let _ = std::fs::remove_dir_all(&results_dir);

    // Batch experiments never wire a distilled store, so the distillation
    // loop must be unobservable there under *every* spelling of the switch
    // — `RTLFIXER_RAG_DISTILL=0` reproducing the static-database results
    // bit for bit is the contract, and "on" spellings must not differ
    // either (there is no store to learn into).
    let unset = table1_fix_rates_with("2", &results_dir, &[]);
    for spec in ["0", "off", "false", "no", "1", "on"] {
        assert_eq!(
            table1_fix_rates_with("2", &results_dir, &[("RTLFIXER_RAG_DISTILL", spec)]),
            unset,
            "fix rates diverged at RTLFIXER_RAG_DISTILL={spec}"
        );
    }
}

#[test]
fn rag_hybrid_kill_switch_spellings_agree() {
    let results_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_rag_hybrid_results");
    let _ = std::fs::remove_dir_all(&results_dir);

    // Every "off" spelling restores the legacy default retriever — they
    // must agree with each other bit for bit; an unrecognized value is
    // treated as "on" and must match unset (hybrid is the default).
    let off = table1_fix_rates_with("2", &results_dir, &[("RTLFIXER_RAG_HYBRID", "0")]);
    for spec in ["off", "false", "no"] {
        assert_eq!(
            table1_fix_rates_with("2", &results_dir, &[("RTLFIXER_RAG_HYBRID", spec)]),
            off,
            "fix rates diverged at RTLFIXER_RAG_HYBRID={spec}"
        );
    }
    let unset = table1_fix_rates_with("2", &results_dir, &[]);
    assert_eq!(
        table1_fix_rates_with("2", &results_dir, &[("RTLFIXER_RAG_HYBRID", "not-a-spec")]),
        unset,
        "unrecognized RTLFIXER_RAG_HYBRID spelling must behave as unset (on)"
    );
}

#[test]
fn table_learning_quick_smoke_records_curve() {
    let results_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_learning_results");
    let _ = std::fs::remove_dir_all(&results_dir);

    let output = Command::new(env!("CARGO_BIN_EXE_table_learning"))
        .arg("--quick")
        .env_remove("RTLFIXER_FAULTS")
        .env_remove("RTLFIXER_TRACE")
        .env("RTLFIXER_RESULTS_DIR", &results_dir)
        .output()
        .expect("table_learning binary runs");
    assert!(
        output.status.success(),
        "table_learning --quick failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("Learning curve"), "{stdout}");

    let text = std::fs::read_to_string(results_dir.join("bench_eval.json"))
        .expect("bench_eval.json written");
    let json: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
    let curve = json["table_learning"]["curve"].as_array().expect("curve recorded");
    assert_eq!(curve.len(), 3, "{text}");
    let first = curve.first().unwrap()["fix_rate"].as_f64().unwrap();
    let last = curve.last().unwrap()["fix_rate"].as_f64().unwrap();
    assert!(last >= first, "learning curve regressed: {first} -> {last}\n{text}");
    assert!(
        curve.last().unwrap()["store_entries"].as_u64().unwrap() > 0,
        "no briefs distilled:\n{text}"
    );
}

#[test]
fn unknown_bench_arguments_exit_2_without_running() {
    let results_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_bad_args_results");
    let _ = std::fs::remove_dir_all(&results_dir);

    let output = Command::new(env!("CARGO_BIN_EXE_table1"))
        .args(["--quick", "--bogus-flag", "--jobs", "abc"])
        .env("RTLFIXER_RESULTS_DIR", &results_dir)
        .output()
        .expect("table1 binary runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("unknown argument `--bogus-flag`"), "{stderr}");
    assert!(output.stdout.is_empty(), "the run went ahead anyway");
    assert!(!results_dir.join("bench_eval.json").exists(), "a rejected run recorded results");
}

/// Spawns the serve daemon as a subprocess (via `servebench --daemon`,
/// since `CARGO_BIN_EXE_*` only covers this package's binaries) and
/// returns the child plus the ephemeral port it announced on stdout.
fn spawn_daemon(extra_args: &[&str]) -> (std::process::Child, u16) {
    use std::io::BufRead;
    let mut child = Command::new(env!("CARGO_BIN_EXE_servebench"))
        .arg("--daemon")
        .args(extra_args)
        .env_remove("RTLFIXER_FAULTS")
        .env_remove("RTLFIXER_TRACE")
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("daemon subprocess starts");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut line = String::new();
    std::io::BufReader::new(stdout).read_line(&mut line).expect("listening line");
    let announce: serde_json::Value =
        serde_json::from_str(line.trim()).expect("listening line is JSON");
    let port = announce["port"].as_u64().expect("announced port") as u16;
    (child, port)
}

/// A line-delimited JSON client for the daemon subprocess tests.
struct ServeClient {
    reader: std::io::BufReader<std::net::TcpStream>,
    writer: std::net::TcpStream,
}

impl ServeClient {
    fn connect(port: u16) -> ServeClient {
        let stream =
            std::net::TcpStream::connect(("127.0.0.1", port)).expect("connect to daemon");
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(30)))
            .expect("read timeout");
        let reader = std::io::BufReader::new(stream.try_clone().expect("clone stream"));
        ServeClient { reader, writer: stream }
    }

    fn send(&mut self, line: &str) {
        use std::io::Write;
        writeln!(self.writer, "{line}").expect("send request");
        self.writer.flush().expect("flush request");
    }

    fn recv(&mut self) -> serde_json::Value {
        use std::io::BufRead;
        let mut line = String::new();
        assert!(self.reader.read_line(&mut line).expect("read event") > 0, "daemon hung up");
        serde_json::from_str(line.trim()).unwrap_or_else(|e| panic!("bad event `{line}`: {e}"))
    }

    fn ev(value: &serde_json::Value) -> String {
        // The vendored Value has no as_str; round-trip the tag via JSON.
        serde_json::to_string(&value["ev"]).expect("ev tag").trim_matches('"').to_owned()
    }
}

const SERVE_BROKEN: &str = "module m(input [7:0] in, output reg [7:0] out);\n\
                            always @(posedge clk) out <= in;\nendmodule";

fn serve_fix_request(code: &str) -> String {
    format!("{{\"op\":\"fix\",\"code\":{}}}", rtlfixer_obs::json_string(code))
}

#[test]
fn serve_daemon_subprocess_fixes_over_the_wire() {
    let (mut child, port) = spawn_daemon(&[]);
    let mut client = ServeClient::connect(port);
    client.send("{\"op\":\"ping\"}");
    assert_eq!(ServeClient::ev(&client.recv()), "pong");
    client.send(&serve_fix_request(SERVE_BROKEN));
    let (mut accepted, mut traces) = (false, 0usize);
    loop {
        let event = client.recv();
        match ServeClient::ev(&event).as_str() {
            "accepted" => accepted = true,
            "trace" => traces += 1,
            "result" => {
                // The streamed trace ends in a fix that compiled.
                assert_eq!(serde_json::to_string(&event["success"]).unwrap(), "true", "{event:?}");
                break;
            }
            other => panic!("unexpected event `{other}`"),
        }
    }
    assert!(accepted && traces > 0, "accepted={accepted} traces={traces}");
    // A client-initiated shutdown drains the daemon to a clean exit.
    client.send("{\"op\":\"shutdown\"}");
    assert_eq!(ServeClient::ev(&client.recv()), "shutdown-ack");
    let status = child.wait().expect("daemon exits");
    assert!(status.success(), "daemon exit status {status:?}");
}

#[test]
fn serve_daemon_rejects_an_overflowing_service_floor_from_env() {
    // u64::MAX ms has no u64 microsecond value: the env var must fail to
    // parse rather than panic or wrap to a wrong floor.
    let output = Command::new(env!("CARGO_BIN_EXE_servebench"))
        .args(["--daemon", "--port", "0"])
        .env("RTLFIXER_SERVE_MIN_SERVICE_MS", u64::MAX.to_string())
        .output()
        .expect("daemon subprocess runs");
    assert_eq!(output.status.code(), Some(2), "{output:?}");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("RTLFIXER_SERVE_MIN_SERVICE_MS: cannot parse"), "{stderr}");
}

#[test]
fn serve_daemon_sigterm_drains_gracefully() {
    // A 400 ms service floor keeps the first request in flight while the
    // signal lands.
    let (mut child, port) = spawn_daemon(&["--workers", "1", "--min-service-ms", "400"]);
    let mut client = ServeClient::connect(port);
    client.send(&serve_fix_request(SERVE_BROKEN));
    let event = client.recv();
    assert_eq!(ServeClient::ev(&event), "accepted");

    let term = Command::new("/usr/bin/kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("kill -TERM runs");
    assert!(term.success(), "kill -TERM failed");
    // Give the daemon's 10 ms signal poll time to flip into draining.
    std::thread::sleep(std::time::Duration::from_millis(150));

    // A late request is rejected with `draining` — not silently dropped,
    // not a connection refusal.
    let late = SERVE_BROKEN.replace("module m(", "module late(");
    client.send(&serve_fix_request(&late));
    let mut saw_draining_reject = false;
    let mut saw_result = false;
    while !(saw_draining_reject && saw_result) {
        let event = client.recv();
        match ServeClient::ev(&event).as_str() {
            "trace" => {}
            "rejected" => {
                assert_eq!(
                    serde_json::to_string(&event["reason"]).unwrap(),
                    "\"draining\"",
                    "{event:?}"
                );
                saw_draining_reject = true;
            }
            "result" => {
                // The in-flight episode still completed: graceful drain.
                assert_eq!(serde_json::to_string(&event["success"]).unwrap(), "true", "{event:?}");
                saw_result = true;
            }
            other => panic!("unexpected event `{other}`"),
        }
    }
    let status = child.wait().expect("daemon exits after drain");
    assert!(status.success(), "daemon exit status {status:?}");
}

#[test]
fn servebench_quick_smoke_records_overload_curve() {
    let results_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_servebench_results");
    let _ = std::fs::remove_dir_all(&results_dir);

    let output = Command::new(env!("CARGO_BIN_EXE_servebench"))
        .arg("--quick")
        .env_remove("RTLFIXER_FAULTS")
        .env("RTLFIXER_RESULTS_DIR", &results_dir)
        .output()
        .expect("servebench binary runs");
    assert!(
        output.status.success(),
        "servebench --quick failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("byte-identical streams"), "{stdout}");
    assert!(stdout.contains("0 mismatches"), "{stdout}");

    let text = std::fs::read_to_string(results_dir.join("bench_eval.json"))
        .expect("bench_eval.json written");
    let json: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
    let entry = &json["servebench"];
    let levels = entry["overload"].as_array().expect("overload sweep");
    assert_eq!(levels.len(), 4, "{text}");
    // Bounded queue under 2x capacity: backpressure rises monotonically
    // and the top level actually rejects/sheds.
    let pressure: Vec<u64> = levels
        .iter()
        .map(|l| l["rejected"].as_u64().unwrap() + l["shed"].as_u64().unwrap())
        .collect();
    assert!(pressure.windows(2).all(|p| p[0] <= p[1]), "{pressure:?}");
    assert!(*pressure.last().unwrap() > 0, "{pressure:?}");
    // Accepted latency stays bounded and nothing panicked.
    assert!(entry["contract"]["p99_ratio"].as_f64().unwrap() <= 3.0, "{text}");
    assert_eq!(entry["contract"]["errors"].as_u64(), Some(0), "{text}");
    assert_eq!(entry["chaos"]["mismatches"].as_u64(), Some(0), "{text}");
    assert_eq!(serde_json::to_string(&entry["coalesce"]["byte_identical"]).unwrap(), "true", "{text}");
    // Malformed lines and a connection flood get explicit rejects, and the
    // daemon serves on after both.
    for (probe, field, reason) in [
        ("bad_request", "garbage", "bad-request"),
        ("bad_request", "oversized", "bad-request"),
        ("connection_flood", "refused", "too-many-connections"),
    ] {
        let got = serde_json::to_string(&entry[probe][field]).unwrap();
        assert_eq!(got, format!("\"{reason}\""), "{probe}.{field}: {text}");
        assert_eq!(serde_json::to_string(&entry[probe]["served_after"]).unwrap(), "true", "{text}");
    }
}

#[test]
fn sim_tape_kill_switch_is_bit_identical_to_unset() {
    let results_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_tape_off_results");
    let _ = std::fs::remove_dir_all(&results_dir);

    // RTLFIXER_SIM_TAPE unset runs the compiled tape; every spelling of
    // "off" must restore the tree-walking kernel bit-for-bit, and an
    // unrecognised spelling leaves the tape on — also bit-identical, since
    // the backends agree. This is the subprocess complement of the
    // in-process three-way matrix in `sim_kernel_invariance.rs`.
    let unset = table1_fix_rates_with("2", &results_dir, &[]);
    for spec in ["off", "0", "false", "not-a-spec"] {
        assert_eq!(
            table1_fix_rates_with("2", &results_dir, &[("RTLFIXER_SIM_TAPE", spec)]),
            unset,
            "fix rates diverged at RTLFIXER_SIM_TAPE={spec}"
        );
    }
    // Both kernel kill switches together: the original full-sweep walker.
    assert_eq!(
        table1_fix_rates_with(
            "2",
            &results_dir,
            &[("RTLFIXER_SIM_TAPE", "0"), ("RTLFIXER_SIM_EVENT", "0")],
        ),
        unset,
        "fix rates diverged with both sim kill switches off"
    );
}

#[test]
fn sim_wide_kill_switch_is_bit_identical_to_unset() {
    let results_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_wide_off_results");
    let _ = std::fs::remove_dir_all(&results_dir);

    // The multi-limb wide fast path is a pure execution strategy: every
    // spelling of its kill switch (and an unrecognised spelling, which
    // leaves it on) must reproduce the default run bit-for-bit.
    let unset = table1_fix_rates_with("2", &results_dir, &[]);
    for spec in ["off", "0", "false", "not-a-spec"] {
        assert_eq!(
            table1_fix_rates_with("2", &results_dir, &[("RTLFIXER_SIM_WIDE", spec)]),
            unset,
            "fix rates diverged at RTLFIXER_SIM_WIDE={spec}"
        );
    }
}
