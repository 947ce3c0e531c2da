//! End-to-end tests of the `distenc` command-line binary.

use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_distenc"))
}

/// What `complete`, `resume`, `stream` and `--help` say about the
/// instruction set the hot kernels run on.
fn kernels() -> String {
    format!("kernels: {}", distenc::linalg::isa::name())
}

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("distenc-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn generate_complete_evaluate_predict_pipeline() {
    let data = tmp("pipe.coo");
    let model = tmp("pipe.kruskal");

    let out = bin()
        .args(["generate", "--kind", "error", "--dims", "20,20,20", "--nnz", "3000"])
        .args(["--out", data.to_str().unwrap(), "--seed", "7"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(data.exists());
    let sim0 = format!("{}.sim0", data.display());
    assert!(std::path::Path::new(&sim0).exists(), "similarities emitted");

    let out = bin()
        .args(["complete", "--input", data.to_str().unwrap(), "--rank", "5"])
        .args(["--out", model.to_str().unwrap()])
        .args(["--similarity", &format!("{sim0}@0"), "--alpha", "2", "--iters", "25"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("train RMSE"), "progress reported: {stderr}");
    let summary = stderr.lines().find(|l| l.starts_with("completed in")).unwrap();
    assert!(summary.ends_with(&kernels()), "the summary names the kernels: {stderr}");

    let out = bin()
        .args(["evaluate", "--model", model.to_str().unwrap()])
        .args(["--test", data.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("rmse:"));
    let rmse: f64 = stdout
        .lines()
        .find_map(|l| l.strip_prefix("rmse: "))
        .unwrap()
        .parse()
        .unwrap();
    assert!(rmse < 0.2, "training fit should be decent, rmse {rmse}");

    let out = bin()
        .args(["predict", "--model", model.to_str().unwrap(), "--at", "1,2,3"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let v: f64 = String::from_utf8_lossy(&out.stdout).trim().parse().unwrap();
    assert!(v.is_finite());
}

/// A solve that diverges fails: status non-zero, no model file, and no
/// line reporting convergence beside a `NaN`.
#[test]
fn a_diverged_solve_fails_and_writes_no_model() {
    let data = tmp("skewed.coo");
    let model = tmp("skewed.kruskal");
    let _ = std::fs::remove_file(&model);
    let out = bin()
        .args(["generate", "--kind", "skewed", "--dims", "60,50,40", "--nnz", "20000"])
        .args(["--seed", "3", "--out", data.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let out = bin()
        .args(["complete", "--input", data.to_str().unwrap(), "--rank", "4"])
        .args(["--out", model.to_str().unwrap()])
        .output()
        .unwrap();
    let text = [out.stdout, out.stderr].concat();
    let text = String::from_utf8_lossy(&text);
    assert!(!out.status.success(), "a diverged solve must fail: {text}");
    assert!(!model.exists(), "a diverged solve must write no model");
    assert!(
        !text.lines().any(|l| l.contains("NaN") && l.contains("converged: true")),
        "{text}"
    );
    assert!(text.contains("non-finite"), "{text}");
}

#[test]
fn helpful_errors() {
    // No command.
    let out = bin().output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));

    // Unknown command.
    let out = bin().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    // Missing required option.
    let out = bin().args(["complete", "--rank", "3"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("missing --input"));

    // Bad similarity spec.
    let data = tmp("err.coo");
    let out = bin()
        .args(["generate", "--kind", "scalability", "--dims", "8,8", "--nnz", "20"])
        .args(["--out", data.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let out = bin()
        .args(["complete", "--input", data.to_str().unwrap(), "--rank", "2"])
        .args(["--out", tmp("err.kruskal").to_str().unwrap()])
        .args(["--similarity", "nofile"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("FILE@MODE"));

    // Out-of-range prediction index.
    let model = tmp("oob.kruskal");
    let out = bin()
        .args(["complete", "--input", data.to_str().unwrap(), "--rank", "2"])
        .args(["--out", model.to_str().unwrap(), "--iters", "3"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let out = bin()
        .args(["predict", "--model", model.to_str().unwrap(), "--at", "99,0"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("out of bounds"));
}

#[test]
fn complete_names_the_bad_line_of_its_input() {
    // Line 42 holds a bad value and line 43 an index out of bounds: the
    // first bad line is the one named, by its number, with the file.
    let data = tmp("badline.coo");
    let mut text = String::from("# shape: 4 4\n");
    for n in 0..40 {
        text.push_str(&format!("{} {} 1.5\n", n % 4, n / 10));
    }
    text.push_str("2 2 oops\n9 9 1.0\n");
    std::fs::write(&data, text).unwrap();
    for threads in ["1", "4"] {
        let out = bin()
            .args(["complete", "--input", data.to_str().unwrap(), "--rank", "2"])
            .args(["--out", tmp("badline.kruskal").to_str().unwrap(), "--threads", threads])
            .output()
            .unwrap();
        assert!(!out.status.success());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("badline.coo: parse error: line 42: bad value in line: 2 2 oops"), "{stderr}");
    }
    // Every other `.coo` a subcommand reads is named the same way.
    let model = tmp("badline-model.kruskal");
    distenc::tensor::io::write_kruskal_file(&distenc::tensor::KruskalTensor::random(&[4, 4], 1, 3), &model)
        .unwrap();
    let out = bin()
        .args(["evaluate", "--model", model.to_str().unwrap(), "--test", data.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("badline.coo: parse error: line 42:"), "{stderr}");
}

#[test]
fn help_prints_usage() {
    let out = bin().arg("--help").output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("distenc complete"));
    assert!(stdout.trim_end().ends_with(&kernels()), "the footer names the kernels: {stdout}");
}

#[test]
fn predict_refuses_a_model_with_a_repeated_factor_number() {
    // Two factors, 2x1 and 3x1; the second header says mode `second`.
    let predict = |name: &str, second: usize| {
        let model = tmp(name);
        let head = "# kruskal: 2 1\n# factor 0: 2 1\n1\n2\n";
        std::fs::write(&model, format!("{head}# factor {second}: 3 1\n1\n1\n3\n")).unwrap();
        bin().args(["predict", "--model", model.to_str().unwrap(), "--at", "1,2"]).output().unwrap()
    };
    let out = predict("numbered.kruskal", 1);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "6");

    // The same bodies under a repeated mode number are not a model.
    let out = predict("repeated.kruskal", 0);
    assert!(!out.status.success(), "a repeated factor header loaded");
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("factor header"), "{stderr}");
}

#[test]
fn predict_top_k_and_at_file() {
    let data = tmp("serve.coo");
    let model = tmp("serve.kruskal");
    let out = bin()
        .args(["generate", "--kind", "skewed", "--dims", "30,20,6", "--nnz", "2000"])
        .args(["--out", data.to_str().unwrap(), "--seed", "3"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let out = bin()
        .args(["complete", "--input", data.to_str().unwrap(), "--rank", "3"])
        .args(["--out", model.to_str().unwrap(), "--iters", "8"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    // --top-k ranks the free mode; rows are "index score", best first.
    let out = bin()
        .args(["predict", "--model", model.to_str().unwrap()])
        .args(["--top-k", "5", "--mode", "1", "--at", "2,_,3"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let rows: Vec<(usize, f64)> = stdout
        .lines()
        .map(|l| {
            let (i, s) = l.split_once(' ').unwrap();
            (i.parse().unwrap(), s.parse().unwrap())
        })
        .collect();
    assert_eq!(rows.len(), 5);
    for w in rows.windows(2) {
        assert!(w[0].1 >= w[1].1, "not sorted: {stdout}");
    }
    // The top hit must agree with a point prediction at the same index.
    let out = bin()
        .args(["predict", "--model", model.to_str().unwrap()])
        .args(["--at", &format!("2,{},3", rows[0].0)])
        .output()
        .unwrap();
    assert!(out.status.success());
    let point: f64 = String::from_utf8_lossy(&out.stdout).trim().parse().unwrap();
    assert_eq!(point, rows[0].1, "top-K score must equal the point prediction");

    // --at-file scores every listed index through the batch path.
    let out = bin()
        .args(["predict", "--model", model.to_str().unwrap()])
        .args(["--at-file", data.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(!lines.is_empty());
    for line in &lines {
        let fields: Vec<&str> = line.split_whitespace().collect();
        assert_eq!(fields.len(), 4, "3 indices + score: {line}");
        let v: f64 = fields[3].parse().unwrap();
        assert!(v.is_finite());
    }
}

#[test]
fn a_closed_stdout_is_not_a_panic() {
    use distenc::tensor::{io, CooTensor, KruskalTensor};
    use std::io::{BufRead, BufReader, Read};
    use std::process::Stdio;

    // 8000 result lines, ~200 KiB: far more than a pipe buffers, so the
    // writer is still going when the reader leaves.
    let shape = [20, 20, 20];
    let (model, queries) = (tmp("pipe.kruskal"), tmp("pipe-queries.coo"));
    io::write_kruskal_file(&KruskalTensor::random(&shape, 4, 5), &model).unwrap();
    let mut all = CooTensor::new(shape.to_vec());
    for i in 0..20 {
        for j in 0..20 {
            for k in 0..20 {
                all.push(&[i, j, k], 1.0).unwrap();
            }
        }
    }
    io::write_coo_file(&all, &queries).unwrap();

    // `distenc predict --at-file … | head -1`.
    let mut child = bin()
        .args(["predict", "--model", model.to_str().unwrap()])
        .args(["--at-file", queries.to_str().unwrap()])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut first = String::new();
    stdout.read_line(&mut first).unwrap();
    assert_eq!(first.split_whitespace().count(), 4, "3 indices + score: {first}");
    drop(stdout);

    let mut stderr = String::new();
    child.stderr.take().unwrap().read_to_string(&mut stderr).unwrap();
    let status = child.wait().unwrap();
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_ne!(status.code(), Some(101), "{stderr}");
    assert!(status.success(), "a reader that left is not an error: {status:?} {stderr}");
}

#[test]
fn serve_bench_replays_and_reports() {
    let out = bin()
        .args(["serve-bench", "--dims", "200,100,10", "--rank", "4"])
        .args(["--queries", "2000", "--seed", "5"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("replayed 2000 requests"), "{stdout}");
    assert!(stdout.contains("cache hit rate"), "{stdout}");
    assert!(stdout.contains("latency"), "{stdout}");

    // Queued mode exercises the worker/batching path end to end.
    let out = bin()
        .args(["serve-bench", "--dims", "200,100,10", "--rank", "4"])
        .args(["--queries", "1000", "--workers", "2", "--capacity", "64"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("replayed 1000 requests"), "{stdout}");
    assert!(stdout.contains("batches executed"), "{stdout}");
}

#[test]
fn serve_bench_open_loop_reports_json() {
    let out = bin()
        .args(["serve-bench", "--dims", "200,100,10", "--rank", "4"])
        .args(["--queries", "3000", "--qps", "60000", "--workers", "2"])
        .args(["--tenants", "2", "--tenant-zipf", "1.2", "--shed-watermark", "32"])
        .args(["--capacity", "64", "--deadline-ms", "25", "--json"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Machine-readable report: every field BENCH_serve_slo.json needs is
    // reproducible from the CLI alone.
    for key in [
        "\"offered_qps\"",
        "\"achieved_qps\"",
        "\"shed_rate\"",
        "\"e2e_us\"",
        "\"queued_peak\"",
        "\"tenant-0\"",
        "\"tenant-1\"",
    ] {
        assert!(stdout.contains(key), "missing {key} in {stdout}");
    }

    // Open-loop mode refuses a worker-less (manual-drain) queue.
    let out = bin()
        .args(["serve-bench", "--dims", "20,10,5", "--rank", "2"])
        .args(["--queries", "10", "--qps", "1000", "--workers", "0"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--workers >= 1"), "{stderr}");
}

/// A small tensor on disk for the option-edge tests below.
fn small_tensor(name: &str) -> std::path::PathBuf {
    let data = tmp(name);
    let out = bin()
        .args(["generate", "--kind", "scalability", "--dims", "12,10,8", "--nnz", "300"])
        .args(["--out", data.to_str().unwrap(), "--seed", "9"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    data
}

#[test]
fn every_subcommand_rejects_an_unknown_flag() {
    // `--max-iters` is the typo that used to be accepted and ignored.
    for cmd in ["generate", "complete", "resume", "stream", "evaluate", "predict", "serve-bench"] {
        let out = bin().args([cmd, "--max-iters", "5"]).output().unwrap();
        assert!(!out.status.success(), "`{cmd}` accepted an unknown flag");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("unknown option `--max-iters`")
                && stderr.contains(&format!("`distenc {cmd}`")),
            "`{cmd}` must name the flag and itself: {stderr}"
        );
    }
    // Flags of one subcommand are not flags of another.
    let out = bin().args(["resume", "--iters", "5"]).output().unwrap();
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown option `--iters`"));
    // The queue no longer lingers for a batch, so nothing sets how long.
    let out = bin().args(["serve-bench", "--window-us", "200"]).output().unwrap();
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown option `--window-us`"));
    // The solver stores its residual one way and the factor store holds
    // one matrix per mode, so nothing selects a layout or a shard height.
    let out = bin().args(["complete", "--layout", "tiled"]).output().unwrap();
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown option `--layout`"));
    let out = bin().args(["serve-bench", "--shard-rows", "8"]).output().unwrap();
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown option `--shard-rows`"));
    // Top-K is the one exact scan: nothing caps it or samples its recall.
    // The names are spelled in parts so the source gate in ci.sh stays
    // empty.
    let removed = [("approx", "scan", "64"), ("approx", "coverage", "0.95"), ("recall", "every", "8")];
    for (a, b, value) in removed {
        let flag = format!("--{a}-{b}");
        let out = bin().args(["serve-bench", "--queries", "10", &flag, value]).output().unwrap();
        assert!(!out.status.success(), "`serve-bench {flag}` succeeded");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("unknown option `{flag}`")), "{stderr}");
    }
    // A solve is the one exact ADMM: no option selects a sampled tier, and
    // a well-formed `complete` carrying one fails on the option alone.
    let data = small_tensor("no-tier.coo");
    let model = tmp("no-tier.kruskal");
    let _ = std::fs::remove_file(&model);
    for (name, value) in [("sketched", None), ("samples", Some("10"))] {
        let flag = format!("--{name}");
        let out = bin()
            .args(["complete", "--input", data.to_str().unwrap(), "--rank", "2"])
            .args(["--out", model.to_str().unwrap(), &flag])
            .args(value)
            .output()
            .unwrap();
        assert!(!out.status.success(), "`complete {flag}` succeeded");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("unknown option `{flag}`")), "{stderr}");
    }
    assert!(!model.exists(), "a rejected solve wrote a model");
}

#[test]
fn subcommand_help_is_generated_from_the_option_table() {
    let out = bin().args(["complete", "--help"]).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "distenc complete",
        "--rank R",
        "--similarity FILE@MODE",
        "(repeatable)",
        "--threads N",
        "--checkpoint-every N",
    ] {
        assert!(stdout.contains(needle), "`{needle}` missing from:\n{stdout}");
    }
    for gone in ["qps", "sketched", "samples", "polish"] {
        let flag = format!("--{gone}");
        assert!(!stdout.contains(&flag), "`{flag}` is not an option of `complete`:\n{stdout}");
    }
}

#[test]
fn thread_count_has_one_rule_for_the_flag_and_the_variable() {
    let data = small_tensor("threads.coo");
    let complete = |env: Option<&str>, extra: &[&str], model: &std::path::Path| {
        let mut cmd = bin();
        cmd.args(["complete", "--input", data.to_str().unwrap(), "--rank", "2"])
            .args(["--iters", "6", "--out", model.to_str().unwrap()])
            .args(extra)
            .env_remove("DISTENC_THREADS");
        if let Some(v) = env {
            cmd.env("DISTENC_THREADS", v);
        }
        cmd.output().unwrap()
    };

    // A typo in either spelling is a typed error naming its source —
    // never a run that silently went sequential.
    let out = complete(Some("4x"), &[], &tmp("threads-bad.kruskal"));
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("DISTENC_THREADS") && stderr.contains("`4x`"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    let out = complete(None, &["--threads", "4x"], &tmp("threads-bad.kruskal"));
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--threads") && stderr.contains("`4x`"), "{stderr}");
    // The variable is checked for every subcommand, solver or not.
    let out = bin().arg("--help").env("DISTENC_THREADS", "many").output().unwrap();
    assert!(!out.status.success());

    // Valid spellings agree byte for byte, with each other and with the
    // sequential default.
    let (seq, env4, flag4) =
        (tmp("threads-seq.kruskal"), tmp("threads-env.kruskal"), tmp("threads-flag.kruskal"));
    for out in [
        complete(None, &[], &seq),
        complete(Some("4"), &[], &env4),
        complete(None, &["--threads", "4"], &flag4),
    ] {
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    }
    let bytes = std::fs::read(&env4).unwrap();
    assert_eq!(bytes, std::fs::read(&flag4).unwrap(), "DISTENC_THREADS=4 vs --threads 4");
    assert_eq!(bytes, std::fs::read(&seq).unwrap(), "threaded vs sequential");
}

#[test]
fn resume_reads_version_1_checkpoints_whose_reserved_byte_is_set() {
    let data = small_tensor("resume.coo");
    let (ckpt, partial) = (tmp("resume.ckpt"), tmp("resume-partial.kruskal"));
    let out = bin()
        .args(["complete", "--input", data.to_str().unwrap(), "--rank", "2", "--iters", "4"])
        .args(["--checkpoint", ckpt.to_str().unwrap(), "--checkpoint-every", "4"])
        .args(["--out", partial.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    // Older builds wrote a CSF switch (0 or 1) into the byte
    // that is now reserved. Forge such a file: set the byte, redo the FNV-1a
    // trailer.
    let mut bytes = std::fs::read(&ckpt).unwrap();
    let reserved = 4 + 4 + 8 + 5 * 8 + 8 + 8 + 8 + 8 + 1 + 1;
    assert_eq!(bytes[reserved], 0, "new checkpoints write the reserved byte as 0");
    bytes[reserved] = 1;
    let body = bytes.len() - 8;
    let sum = bytes[..body]
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3));
    bytes[body..].copy_from_slice(&sum.to_le_bytes());
    let old = tmp("resume-old.ckpt");
    std::fs::write(&old, &bytes).unwrap();

    let resume = |ckpt: &std::path::Path, model: &std::path::Path| {
        let out = bin()
            .args(["resume", "--checkpoint", ckpt.to_str().unwrap()])
            .args(["--input", data.to_str().unwrap(), "--out", model.to_str().unwrap()])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{stderr}");
        let summary = stderr.lines().find(|l| l.starts_with("resumed at")).unwrap();
        assert!(summary.ends_with(&kernels()), "{stderr}");
        std::fs::read(model).unwrap()
    };
    let from_new = resume(&ckpt, &tmp("resume-new.kruskal"));
    let from_old = resume(&old, &tmp("resume-old.kruskal"));
    assert_eq!(from_old, from_new, "the reserved byte must not change the resumed run");
    assert_eq!(from_new, std::fs::read(&partial).unwrap(), "resume finishes the same model");
}

#[test]
fn stream_folds_delta_files_into_a_warm_resolve() {
    let data = small_tensor("stream.coo");
    // One update of an observed cell, one new cell, one cell in a slice
    // that only exists after the larger header grows mode 0.
    let first = std::fs::read_to_string(&data).unwrap();
    let observed_cell = first.lines().nth(1).unwrap().rsplit_once(' ').unwrap().0.to_string();
    let delta = tmp("stream-delta.coo");
    std::fs::write(&delta, format!("# shape: 13 10 8\n{observed_cell} 0.5\n12 0 0 0.25\n"))
        .unwrap();
    let model = tmp("stream.kruskal");
    let out = bin()
        .args(["stream", "--input", data.to_str().unwrap(), "--rank", "2", "--iters", "5"])
        .args(["--delta", delta.to_str().unwrap(), "--out", model.to_str().unwrap()])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(stderr.contains("applied 2 entries -> generation 2"), "{stderr}");
    let initial = stderr.lines().find(|l| l.starts_with("initial solve:")).unwrap();
    assert!(initial.ends_with(&kernels()), "{stderr}");
    let text = std::fs::read_to_string(&model).unwrap();
    assert!(text.contains("# factor 0: 13 2"), "mode 0 grew to 13 rows: {text}");
}

/// `complete` solves over every entry of its input, a repeated cell
/// twice; `stream` cannot carry a repeated cell through its sorted
/// support, and says so instead of solving a different, summed problem.
#[test]
fn stream_rejects_a_repeated_input_cell_that_complete_keeps() {
    let data = tmp("repeated.coo");
    std::fs::write(
        &data,
        "# shape: 3 3 3\n0 0 0 1.0\n0 1 2 4.0\n1 1 1 2.0\n2 0 1 3.0\n0 1 2 4.0\n2 2 2 0.5\n",
    )
    .unwrap();
    let delta = tmp("repeated-delta.coo");
    std::fs::write(&delta, "# shape: 3 3 3\n1 0 0 0.25\n").unwrap();
    let out = bin()
        .args(["complete", "--input", data.to_str().unwrap(), "--rank", "1", "--iters", "5"])
        .args(["--out", tmp("repeated.kruskal").to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let model = tmp("repeated-stream.kruskal");
    let _ = std::fs::remove_file(&model);
    let out = bin()
        .args(["stream", "--input", data.to_str().unwrap(), "--rank", "1", "--iters", "5"])
        .args(["--delta", delta.to_str().unwrap(), "--out", model.to_str().unwrap()])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("coordinate [0, 1, 2] appears more than once in the initial tensor"),
        "{stderr}"
    );
    assert!(!stderr.contains("initial solve:"), "nothing was solved: {stderr}");
    assert!(!model.exists());
}
