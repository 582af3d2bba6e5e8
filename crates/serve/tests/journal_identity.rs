//! Cross-path journal identity: one workload and seed, journaled by
//! every path that executes campaigns — plain in-process campaigns on
//! both engines and several thread counts, a sectional campaign, and
//! plain and sectional daemon jobs at two chunk sizes — must produce
//! the same journal lines. Line order may differ where workers race;
//! where it cannot (one thread), the bytes must match too.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use ipas_core::jobspec::{JobKind, JobSpec};
use ipas_faultsim::sections::run_campaign_sectional;
use ipas_faultsim::{run_campaign_with, CampaignConfig, CampaignOptions, Engine, Workload};
use ipas_serve::{run_daemon, Client, DaemonConfig};

/// Two functions with loops, so the sectional paths span several
/// sections.
const SOURCE: &str = "fn scale(n: int) -> int {
    let s: int = 0;
    for (let i: int = 0; i < n; i = i + 1) { s = s + i * 3; }
    return s;
}
fn main() -> int {
    output_i(scale(40));
    let b: int = 0;
    for (let j: int = 0; j < 25; j = j + 1) { b = b + j * j; }
    output_i(b);
    return 0;
}";
const NAME: &str = "identity";
const RUNS: usize = 60;
const SEED: u64 = 13;

fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("ipas-journal-identity-tests")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn line_set(journal: &str) -> BTreeSet<String> {
    journal.lines().map(str::to_string).collect()
}

/// Drops the section tag records carry on sectional paths.
fn untagged(journal: &str) -> String {
    journal
        .lines()
        .map(|line| match line.find(",\"sec\":") {
            Some(at) => format!("{}}}\n", &line[..at]),
            None => format!("{line}\n"),
        })
        .collect()
}

/// Runs one in-process campaign with a journal and returns its bytes.
fn cli_journal(dir: &Path, tag: &str, threads: usize, engine: Engine, sectional: bool) -> String {
    let module = ipas_lang::compile(SOURCE).expect("compiles");
    let workload = Workload::serial(NAME, module, 0.0).expect("prepares");
    let config = CampaignConfig {
        runs: RUNS,
        seed: SEED,
        threads,
        engine,
        ..CampaignConfig::default()
    };
    let path = dir.join(format!("{tag}.jsonl"));
    let options = CampaignOptions {
        journal: Some(path.clone()),
        ..CampaignOptions::default()
    };
    if sectional {
        run_campaign_sectional(&workload, &config, &options).expect("sectional campaign");
    } else {
        run_campaign_with(&workload, &config, &options).expect("campaign");
    }
    read(&path)
}

/// Runs a plain and a sectional campaign job on a two-worker daemon
/// with the given chunk size and returns both journals.
fn daemon_journals(dir: &Path, chunk: usize) -> (String, String) {
    let config = DaemonConfig {
        socket: dir.join(format!("chunk{chunk}.sock")),
        state_dir: dir.join(format!("state-chunk{chunk}")),
        threads: 2,
        shards: 2,
        chunk,
        quota_runs: 0,
    };
    let socket = config.socket.clone();
    let journals = config.state_dir.join("journals");
    let daemon = std::thread::spawn(move || run_daemon(config).expect("daemon runs"));
    let client = Client::new(&socket);
    let deadline = Instant::now() + Duration::from_secs(10);
    while !(socket.exists() && client.stats().is_ok()) {
        assert!(Instant::now() < deadline, "daemon never came up");
        std::thread::sleep(Duration::from_millis(10));
    }
    let mut texts = Vec::new();
    for sections in [false, true] {
        let mut spec = JobSpec::new(JobKind::Campaign, "acme", NAME, SOURCE);
        spec.runs = RUNS;
        spec.seed = SEED;
        spec.sections = sections;
        let (mut out, mut log) = (Vec::new(), Vec::new());
        let outcome = client
            .submit(&spec, true, &mut out, &mut log)
            .expect("job completes");
        texts.push(read(&journals.join(format!("{}.jsonl", outcome.id))));
    }
    client.shutdown().unwrap();
    daemon.join().unwrap();
    let sectional = texts.pop().unwrap();
    (texts.pop().unwrap(), sectional)
}

#[test]
fn every_execution_path_writes_the_same_journal() {
    let dir = test_dir("paths");
    let mut plain = Vec::new();
    for engine in [Engine::Reference, Engine::Compiled] {
        for threads in [1, 4] {
            let tag = format!("plain-{engine:?}-{threads}");
            plain.push((tag.clone(), cli_journal(&dir, &tag, threads, engine, false)));
        }
    }
    let sectional_one = cli_journal(&dir, "sectional-1", 1, Engine::Compiled, true);
    let sectional_four = cli_journal(&dir, "sectional-4", 4, Engine::Reference, true);
    let mut sectional = vec![
        ("sectional-1".to_string(), sectional_one.clone()),
        ("sectional-4".to_string(), sectional_four),
    ];
    for chunk in [1, 7] {
        let (daemon_plain, daemon_sectional) = daemon_journals(&dir, chunk);
        plain.push((format!("daemon-plain-chunk{chunk}"), daemon_plain));
        sectional.push((format!("daemon-sectional-chunk{chunk}"), daemon_sectional));
    }

    let reference = &plain[0].1;
    assert_eq!(
        reference.lines().count(),
        1 + RUNS,
        "header plus one line per plan"
    );
    assert!(
        !reference.contains("\"sec\":"),
        "plain journals carry no tags"
    );
    assert!(
        sectional_one.contains("\"sec\":"),
        "sectional journals carry tags"
    );

    // Deterministic order: one thread appends in plan order, so the
    // bytes match across engines, and a sectional journal equals the
    // plain one once its section tags are dropped.
    let one_thread: Vec<&String> = plain
        .iter()
        .filter(|(tag, _)| tag.ends_with("-1") && tag.starts_with("plain"))
        .map(|(_, text)| text)
        .collect();
    assert_eq!(one_thread.len(), 2);
    assert_eq!(
        one_thread[0], one_thread[1],
        "engines write identical bytes"
    );
    assert_eq!(&untagged(&sectional_one), reference);

    // Any order: every path journals the same line set.
    for (tag, text) in &plain {
        assert_eq!(
            line_set(text),
            line_set(reference),
            "{tag} vs plain reference"
        );
    }
    for (tag, text) in &sectional {
        assert_eq!(
            line_set(text),
            line_set(&sectional_one),
            "{tag} vs sectional reference"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
