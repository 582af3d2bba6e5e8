//! An adaptive campaign journals one header whichever path runs it: a
//! daemon `--adaptive` job and the in-process driver
//! (`run_campaign_adaptive`, which `ipas campaign --adaptive` calls)
//! must write the same header line for the same workload and config —
//! static-site sampling, because every adaptive round draws sites — so
//! either journal resumes the other.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use ipas_core::adaptive::{run_campaign_adaptive, AdaptiveParams};
use ipas_core::jobspec::{JobKind, JobSpec};
use ipas_faultsim::{CampaignOptions, Workload};
use ipas_serve::{run_daemon, Client, DaemonConfig};

const SOURCE: &str = "fn main() -> int {
    let s: int = 0;
    for (let i: int = 0; i < 60; i = i + 1) { s = s + i * 3 - i / 2; }
    output_i(s);
    return 0;
}";
const NAME: &str = "adaptive-header";
const RUNS: usize = 48;
const SEED: u64 = 21;

fn test_dir() -> PathBuf {
    let dir = std::env::temp_dir()
        .join("ipas-adaptive-header-tests")
        .join(format!("{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn header(journal: &str) -> &str {
    journal.lines().next().expect("journal has a header")
}

#[test]
fn daemon_adaptive_job_writes_the_core_drivers_header() {
    let dir = test_dir();
    let config = DaemonConfig {
        socket: dir.join("daemon.sock"),
        state_dir: dir.join("state"),
        threads: 2,
        shards: 2,
        chunk: 8,
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
    let mut spec = JobSpec::new(JobKind::Campaign, "acme", NAME, SOURCE);
    spec.runs = RUNS;
    spec.seed = SEED;
    spec.adaptive = true;
    let (mut out, mut log) = (Vec::new(), Vec::new());
    let outcome = client
        .submit(&spec, true, &mut out, &mut log)
        .expect("job completes");
    client.shutdown().unwrap();
    daemon.join().unwrap();
    let daemon_path = journals.join(format!("{}.jsonl", outcome.id));
    let daemon_journal = std::fs::read_to_string(&daemon_path).unwrap();

    // The in-process driver, same workload and config, fresh journal.
    let module = ipas_lang::compile(SOURCE).expect("compiles");
    let workload = Workload::serial(NAME, module, spec.tolerance).expect("prepares");
    let campaign = spec.campaign_config();
    let params = AdaptiveParams::for_budget(RUNS);
    let core_path = dir.join("core.jsonl");
    let options = CampaignOptions {
        journal: Some(core_path.clone()),
        ..spec.campaign_options()
    };
    run_campaign_adaptive(&workload, &campaign, &options, &params).expect("core campaign");
    let core_journal = std::fs::read_to_string(&core_path).unwrap();
    assert!(header(&core_journal).contains("\"sampling\":\"static\""));
    assert_eq!(header(&daemon_journal), header(&core_journal));

    // The daemon's journal resumes under the core driver: the header
    // decodes equal (a mismatch would be a typed journal error), and
    // every plan is recovered rather than re-executed.
    let resumed = dir.join("resumed.jsonl");
    std::fs::copy(&daemon_path, &resumed).unwrap();
    let options = CampaignOptions {
        journal: Some(resumed.clone()),
        ..spec.campaign_options()
    };
    let result = run_campaign_adaptive(&workload, &campaign, &options, &params)
        .expect("the daemon's journal resumes under the core driver");
    assert_eq!(result.result.resumed, result.result.records.len());
    let _ = std::fs::remove_dir_all(&dir);
}
