//! The `serve` workload: a fresh daemon child driven by closed-loop
//! clients.
//!
//! Two clients, each on its own connection, submit campaigns and wait
//! for their artifacts before sending the next one. Requests come in
//! blocks of ten, shuffled per block from a seeded generator: three hot
//! resubmissions of campaigns primed into the daemon's cache during
//! set-up, five cold-small campaigns and two cold-large ones. Cold
//! campaigns carry a seed unique to (workload seed, client, request),
//! so no rerun against a fresh daemon is served from its cache. A large
//! campaign is long enough for the daemon to journal mid-job
//! checkpoints. Clients stop at a block boundary, so every run issues
//! exactly 30/50/20 per cent of each class.
//!
//! After the measured window every served result is checked byte for
//! byte against a local `run_campaign` of the same spec.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use nosq_check::sync::StdSync;
use nosq_core::{SimReport, Simulator, StopCondition};
use nosq_lab::json::Json;
use nosq_lab::{
    artifacts, parallel_map_indexed, run_campaign, run_campaign_serial, synthesize_programs,
    Campaign, ProgressCounters, RunOptions, WorkerContext,
};
use nosq_serve::{campaign_fingerprint, CheckpointEntry, ClientError, Journal, ServeClient};
use nosq_trace::TraceBuffer;

use crate::metrics::{Outcome, Values};
use crate::spans::{min_coverage_pct, Recorder};
use crate::stats::{artifacts_digest, chain, derive, median, peak_rss_mb, quantile, Rng};

/// Closed-loop clients.
pub const CLIENTS: usize = 2;
/// Distinct hot campaigns primed during set-up.
pub const HOT_SPECS: usize = 3;
/// Per-job budget of hot and cold-small campaigns.
pub const SMALL_INSTS: u64 = 4_000;
/// Per-job budget of cold-large campaigns: more than twice the
/// daemon's default 50k-instruction checkpoint cadence.
pub const LARGE_INSTS: u64 = 120_000;
/// The daemon's default mid-job checkpoint cadence.
const CKPT_EVERY: u64 = 50_000;
/// Times the daemon is set up per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Request class.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Class {
    /// Resubmission of a primed campaign, served from the cache.
    Hot,
    /// A unique campaign of a few thousand instructions.
    Small,
    /// A unique campaign with journaled mid-job checkpoints.
    Large,
}

/// The class make-up of one block.
pub const BLOCK: [Class; 10] = [
    Class::Hot,
    Class::Hot,
    Class::Hot,
    Class::Small,
    Class::Small,
    Class::Small,
    Class::Small,
    Class::Small,
    Class::Large,
    Class::Large,
];

fn spec(name: &str, profile: &str, max_insts: u64, seed: u64) -> String {
    format!(
        "name = {name}\nconfigs = nosq\nprofiles = {profile}\nmax_insts = {max_insts}\nseed = {seed}\n"
    )
}

/// The `i`-th hot campaign at a workload seed.
pub fn hot_spec(seed: u64, i: usize) -> String {
    spec(
        &format!("hot-{i}"),
        "gzip",
        SMALL_INSTS,
        derive(seed, 0x4077 + i as u64),
    )
}

/// A cold campaign, unique to (workload seed, client, request number).
pub fn cold_spec(seed: u64, client: usize, n: u64, class: Class) -> String {
    let unique = derive(derive(seed, 0xc01d + client as u64), n);
    match class {
        Class::Large => spec(&format!("large-{client}-{n}"), "gcc", LARGE_INSTS, unique),
        _ => spec(&format!("small-{client}-{n}"), "gzip", SMALL_INSTS, unique),
    }
}

/// One client's seeded request stream.
pub struct Schedule {
    seed: u64,
    client: usize,
    rng: Rng,
    issued: u64,
}

impl Schedule {
    /// The stream of client `client` at a workload seed.
    pub fn new(seed: u64, client: usize) -> Schedule {
        Schedule {
            seed,
            client,
            rng: Rng::new(derive(seed, 0xb10c + client as u64)),
            issued: 0,
        }
    }

    /// The next block of ten requests, in shuffled order.
    pub fn next_block(&mut self) -> Vec<(Class, String)> {
        let mut classes = BLOCK;
        self.rng.shuffle(&mut classes);
        classes
            .into_iter()
            .map(|class| {
                let n = self.issued;
                self.issued += 1;
                let text = match class {
                    Class::Hot => {
                        hot_spec(self.seed, (self.rng.next_u64() % HOT_SPECS as u64) as usize)
                    }
                    _ => cold_spec(self.seed, self.client, n, class),
                };
                (class, text)
            })
            .collect()
    }
}

/// A daemon child process, killed and reaped on drop.
struct Daemon {
    child: Child,
    addr: String,
    journal: PathBuf,
}

impl Daemon {
    /// Starts a daemon with a fresh journal in `dir` and waits until it
    /// listens.
    fn spawn(dir: &Path) -> Result<Daemon, String> {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let journal = dir.join("serve.journal");
        let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
        let mut child = Command::new(exe)
            .arg("daemon")
            .arg("--journal")
            .arg(&journal)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("starting the daemon: {e}"))?;
        let mut line = String::new();
        let stdout = child.stdout.take().expect("stdout is piped");
        let read = BufReader::new(stdout).read_line(&mut line);
        let mut daemon = Daemon {
            child,
            addr: String::new(),
            journal,
        };
        match (read, line.trim().strip_prefix("listening on ")) {
            (Ok(_), Some(addr)) => daemon.addr = addr.to_owned(),
            _ => return Err(format!("daemon did not start (said {line:?})")),
        }
        Ok(daemon)
    }

    /// Asks the daemon to drain and waits for it to exit.
    fn stop(mut self) -> Result<(), String> {
        let asked = ServeClient::connect(&self.addr).and_then(|mut c| c.shutdown());
        let deadline = Instant::now() + Duration::from_secs(20);
        while Instant::now() < deadline {
            if let Ok(Some(status)) = self.child.try_wait() {
                return match (asked, status.success()) {
                    (Ok(()), true) => Ok(()),
                    (asked, _) => Err(format!("daemon exit: {status}, shutdown: {asked:?}")),
                };
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err("daemon did not exit after shutdown".to_owned())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Starts a daemon and primes the hot campaigns into its cache.
fn set_up(dir: &Path, seed: u64) -> Result<Daemon, String> {
    let daemon = Daemon::spawn(dir)?;
    let mut client = ServeClient::connect(&daemon.addr).map_err(|e| e.msg)?;
    for i in 0..HOT_SPECS {
        client.run_spec(&hot_spec(seed, i)).map_err(|e| e.msg)?;
    }
    Ok(daemon)
}

/// One request as a client saw it.
struct Record {
    class: Class,
    spec: String,
    /// Submit → artifacts, seconds.
    latency: f64,
    /// Submit → acknowledgement, seconds.
    ack: f64,
    /// Acknowledgement → first progress event with work done, seconds.
    first_event: Option<f64>,
    /// Digest of the served artifacts; `None` if the request failed.
    digest: Option<u64>,
    /// Served artifact bytes.
    bytes: usize,
    busy: bool,
    traced: bool,
}

/// What one client did.
struct ClientLog {
    records: Vec<Record>,
    /// Per block: wall seconds and whether it was traced.
    blocks: Vec<(f64, bool)>,
    rec: Recorder,
}

/// One request; failures are returned, never raised.
fn request(
    conn: &mut ServeClient,
    rec: &mut Recorder,
    op: u64,
    class: Class,
    spec: String,
) -> Result<Record, (ClientError, String)> {
    let root = rec.open(op, None, "request");
    let t0 = Instant::now();
    let submitted = rec.span(op, root, "serve.ServeClient::submit", || conn.submit(&spec));
    let ack = t0.elapsed().as_secs_f64();
    let reply = match submitted {
        Ok(reply) => reply,
        Err(e) => {
            rec.close(root);
            return Err((e, spec));
        }
    };
    let acked = Instant::now();
    let mut first_event = None;
    let waited = rec.span(op, root, "serve.ServeClient::wait_with", || {
        conn.wait_with(&reply.job, |_, _, insts| {
            // The daemon answers `wait` with the job's current progress
            // at once; the first event with work done marks its start.
            if insts > 0 {
                first_event.get_or_insert_with(|| acked.elapsed().as_secs_f64());
            }
        })
    });
    let latency = t0.elapsed().as_secs_f64();
    rec.close(root);
    match waited {
        Ok(outcome) => Ok(Record {
            class,
            latency,
            ack,
            first_event,
            digest: Some(artifacts_digest(&outcome.artifacts)),
            bytes: outcome.artifacts.iter().map(|a| a.contents.len()).sum(),
            busy: false,
            traced: rec.enabled(),
            spec,
        }),
        Err(e) => Err((e, spec)),
    }
}

/// Runs one closed-loop client until `deadline`, finishing its block.
fn client(
    addr: &str,
    seed: u64,
    id: usize,
    deadline: Instant,
    traced: bool,
    epoch: Instant,
) -> ClientLog {
    let mut rec = Recorder::new(epoch, (id as u64) << 40);
    let mut schedule = Schedule::new(seed, id);
    let mut log = ClientLog {
        records: Vec::new(),
        blocks: Vec::new(),
        rec: Recorder::new(epoch, 0),
    };
    let mut conn = ServeClient::connect(addr).ok();
    let mut block = 0u64;
    while block == 0 || Instant::now() < deadline {
        let traced_block = traced && block % 2 == 1;
        rec.set_enabled(traced_block);
        let t0 = Instant::now();
        for (class, spec) in schedule.next_block() {
            let op = ((id as u64) << 32) | log.records.len() as u64;
            let outcome = match conn.as_mut() {
                Some(c) => request(c, &mut rec, op, class, spec),
                None => Err((ClientError::new("not connected"), spec)),
            };
            match outcome {
                Ok(record) => log.records.push(record),
                Err((e, spec)) => {
                    eprintln!("perfbench: client {id}: {e}");
                    log.records.push(Record {
                        class,
                        spec,
                        latency: 0.0,
                        ack: 0.0,
                        first_event: None,
                        digest: None,
                        bytes: 0,
                        busy: e.busy(),
                        traced: traced_block,
                    });
                    if !e.busy() {
                        // The connection may be gone; start a new one.
                        conn = ServeClient::connect(addr).ok();
                    }
                }
            }
        }
        log.blocks.push((t0.elapsed().as_secs_f64(), traced_block));
        block += 1;
    }
    rec.set_enabled(false);
    log.rec = rec;
    log
}

/// Requests that failed, were refused, or were served artifacts that
/// differ from the local reference run of their spec.
fn failures(records: &[&Record], local: &BTreeMap<&str, (u64, Vec<SimReport>)>) -> u64 {
    let mut failed = 0;
    for r in records {
        let expected = local.get(r.spec.as_str()).map(|(digest, _)| *digest);
        match r.digest {
            Some(d) if Some(d) == expected => {}
            Some(_) => {
                eprintln!("perfbench: served artifacts differ for\n{}", r.spec);
                failed += 1;
            }
            None => failed += 1,
        }
    }
    failed
}

/// Local reference run of a spec: artifact digest and reports.
fn reference(spec: &str) -> Result<(u64, Vec<SimReport>), String> {
    let campaign = Campaign::from_spec(spec).map_err(|e| e.msg)?;
    let opts = RunOptions {
        threads: 1,
        ..RunOptions::default()
    };
    let result = run_campaign(&campaign, &opts);
    Ok((artifacts_digest(&artifacts(&result)), result.reports))
}

/// Runs the `serve` workload for `seconds` and reports its metrics.
pub fn run(
    seed: u64,
    seconds: u64,
    traced: bool,
    expected: Option<u64>,
    out: &Path,
    rec: &mut Recorder,
) -> Result<Outcome, String> {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut daemon = None;
    for i in 0..SETUPS {
        if let Some(previous) = daemon.take() {
            Daemon::stop(previous)?;
        }
        let t0 = Instant::now();
        daemon = Some(set_up(&out.join(format!("daemon-{i}")), seed)?);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let daemon = daemon.expect("set up at least once");

    let started = Instant::now();
    let deadline = started + Duration::from_secs(seconds);
    let epoch = rec.epoch();
    let mut logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|id| {
                let addr = daemon.addr.as_str();
                s.spawn(move || client(addr, seed, id, deadline, traced, epoch))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let window = started.elapsed().as_secs_f64();
    for log in &mut logs {
        rec.absorb(std::mem::replace(&mut log.rec, Recorder::new(epoch, 0)));
    }

    rec.set_enabled(traced);
    let status = rec
        .span(u64::MAX, None, "serve.ServeClient::status", || {
            ServeClient::connect(&daemon.addr).and_then(|mut c| c.status())
        })
        .map_err(|e| format!("daemon status: {e}"))?;
    rec.set_enabled(false);
    let rss = peak_rss_mb(Some(daemon.child.id()));
    let journal_bytes = std::fs::metadata(&daemon.journal).map_or(0, |m| m.len());
    daemon.stop()?;
    for i in 0..SETUPS {
        let _ = std::fs::remove_dir_all(out.join(format!("daemon-{i}")));
    }

    // Check every served result against a local run of its spec.
    let mut specs: Vec<&str> = logs
        .iter()
        .flat_map(|l| l.records.iter().map(|r| r.spec.as_str()))
        .collect();
    specs.sort_unstable();
    specs.dedup();
    let refs = parallel_map_indexed(specs.len(), CLIENTS, |i| reference(specs[i]));
    let mut local = BTreeMap::new();
    for (spec, r) in specs.iter().zip(refs) {
        local.insert(*spec, r?);
    }
    let records: Vec<&Record> = logs.iter().flat_map(|l| l.records.iter()).collect();
    let mut failed = failures(&records, &local);

    // The deterministic part of the run: each client's first block.
    let first_blocks: Vec<&Record> = logs
        .iter()
        .flat_map(|l| l.records.iter().take(BLOCK.len()))
        .collect();
    let digest = first_blocks
        .iter()
        .fold(0, |acc, r| chain(acc, r.digest.unwrap_or(0)));
    if let Some(want) = expected {
        if want != digest {
            eprintln!("perfbench: digest {digest:016x} differs from the recorded {want:016x}");
            failed += 1;
        }
    }

    let served: Vec<&Record> = records
        .iter()
        .filter(|r| r.digest.is_some())
        .copied()
        .collect();
    let latencies = |traced: bool, class: Option<Class>| -> Vec<f64> {
        served
            .iter()
            .filter(|r| r.traced == traced && class.is_none_or(|c| r.class == c))
            .map(|r| r.latency)
            .collect()
    };
    let block_wall = |traced: bool| {
        median(
            &logs
                .iter()
                .flat_map(|l| l.blocks.iter().filter(|b| b.1 == traced).map(|b| b.0))
                .collect::<Vec<_>>(),
        )
    };
    let mut values = Values::new();
    values.insert("setup_s", median(&setups));
    values.insert("jobs_per_s", served.len() as f64 / window);
    values.insert("p50_ms", 1e3 * median(&latencies(false, None)));
    values.insert("p90_ms", 1e3 * quantile(&latencies(false, None), 0.9));
    values.insert("peak_rss_mb", rss);
    values.insert(
        "error_pct",
        crate::metrics::error_pct(records.len() as u64, failed),
    );

    if traced {
        let traced_served = || served.iter().filter(|r| r.traced);
        let class_ms = |class: Class| 1e3 * median(&latencies(true, Some(class)));
        values.insert(
            "serve.ack_ms",
            1e3 * median(&traced_served().map(|r| r.ack).collect::<Vec<_>>()),
        );
        values.insert("serve.cold_ms", class_ms(Class::Small));
        values.insert("serve.large_ms", class_ms(Class::Large));
        values.insert("serve.hot_ms", class_ms(Class::Hot));
        values.insert(
            "serve.first_event_ms",
            1e3 * median(
                &traced_served()
                    .filter(|r| r.class == Class::Large)
                    .filter_map(|r| r.first_event)
                    .collect::<Vec<_>>(),
            ),
        );
        values.insert(
            "serve.done_kb",
            median(
                &traced_served()
                    .filter(|r| r.class == Class::Small)
                    .map(|r| r.bytes as f64 / 1024.0)
                    .collect::<Vec<_>>(),
            ),
        );
        let field = |k: &str| status.get(k).and_then(Json::as_u64).unwrap_or(0) as f64;
        let (hits, misses) = (field("cache_hits"), field("cache_misses"));
        values.insert(
            "serve.cache_hit_pct",
            100.0 * hits / (hits + misses).max(1.0),
        );
        values.insert(
            "serve.busy_refusals",
            records.iter().filter(|r| r.busy).count() as f64,
        );
        values.insert(
            "journal.bytes_per_job",
            journal_bytes as f64 / field("jobs_run").max(1.0),
        );
        let first_reports: Vec<SimReport> = first_blocks
            .iter()
            .flat_map(|r| local[r.spec.as_str()].1.iter().copied())
            .collect();
        crate::offline::sim_counts(&first_reports, &mut values);
        values.insert(
            "trace_overhead_pct",
            100.0 * (block_wall(true) - block_wall(false)) / block_wall(false),
        );
        values.insert("span_coverage_pct", min_coverage_pct(rec.spans()));
        rec.set_enabled(true);
        probes(seed, out, rec, &mut values)?;
        rec.set_enabled(false);
    }
    Ok(Outcome {
        attempted: records.len() as u64,
        failed,
        digest,
        values,
    })
}

/// Times, from the benchmark, the layer calls the daemon makes for each
/// job: the serial campaign run of one worker, checkpoint capture and
/// encoding, and journal appends on the same disk as the daemon's.
fn probes(seed: u64, out: &Path, rec: &mut Recorder, values: &mut Values) -> Result<(), String> {
    const PROBES: u64 = 5;
    let op = u64::MAX;
    let opts = RunOptions {
        threads: 1,
        ..RunOptions::default()
    };
    let mut ctx = WorkerContext::new();
    let mut serial_ms = Vec::new();
    let mut results = Vec::new();
    for n in 0..PROBES {
        let spec = cold_spec(seed, CLIENTS, n, Class::Small);
        let campaign = Campaign::from_spec(&spec).map_err(|e| e.msg)?;
        let t0 = Instant::now();
        let files = rec.span(op, None, "lab.run_campaign_serial", || {
            let programs = synthesize_programs(&campaign, 1);
            let progress = ProgressCounters::<StdSync>::new();
            artifacts(&run_campaign_serial(
                &campaign, &programs, &opts, &mut ctx, &progress,
            ))
        });
        serial_ms.push(1e3 * t0.elapsed().as_secs_f64());
        results.push((campaign, spec, files));
    }
    values.insert("lab.serial_ms", median(&serial_ms));

    let mut encode_ms = Vec::new();
    let mut ckpts = Vec::new();
    for n in 0..2 {
        let campaign = Campaign::from_spec(&cold_spec(seed, CLIENTS, PROBES + n, Class::Large))
            .map_err(|e| e.msg)?;
        let program = synthesize_programs(&campaign, 1).remove(0);
        let cfg = campaign.configs[0].config.clone();
        let trace = TraceBuffer::record(&program, cfg.max_insts);
        let mut sim = Simulator::replay(&program, cfg, &trace);
        while !sim.run_until(StopCondition::Insts(sim.stats().insts + CKPT_EVERY)) {
            let t0 = Instant::now();
            let bytes = rec.span(op, None, "core.Simulator::checkpoint+to_bytes", || {
                sim.checkpoint().to_bytes()
            });
            encode_ms.push(1e3 * t0.elapsed().as_secs_f64());
            ckpts.push(bytes);
        }
    }
    values.insert("core.ckpt_encode_ms", median(&encode_ms));
    values.insert(
        "core.ckpt_kb",
        median(
            &ckpts
                .iter()
                .map(|b| b.len() as f64 / 1024.0)
                .collect::<Vec<_>>(),
        ),
    );

    let path = out.join("probe.journal");
    let _ = std::fs::remove_file(&path);
    let (mut journal, _) = Journal::open(&path).map_err(|e| format!("probe journal: {e}"))?;
    let mut append_ms = Vec::new();
    for (campaign, _, files) in &results {
        let t0 = Instant::now();
        rec.span(op, None, "journal.Journal::append", || {
            journal.append(campaign_fingerprint(campaign), &campaign.name, files)
        })
        .map_err(|e| format!("journal append: {e}"))?;
        append_ms.push(1e3 * t0.elapsed().as_secs_f64());
    }
    let mut ckpt_ms = Vec::new();
    let mut record_kb = Vec::new();
    let (campaign, spec, _) = &results[0];
    for bytes in ckpts {
        let before = std::fs::metadata(&path).map_or(0, |m| m.len());
        let entry = CheckpointEntry {
            fingerprint: campaign_fingerprint(campaign),
            name: campaign.name.clone(),
            spec: spec.clone(),
            job_index: 0,
            completed: Vec::new(),
            state: Some(bytes),
        };
        let t0 = Instant::now();
        rec.span(op, None, "journal.Journal::append_checkpoint", || {
            journal.append_checkpoint(&entry)
        })
        .map_err(|e| format!("journal checkpoint append: {e}"))?;
        ckpt_ms.push(1e3 * t0.elapsed().as_secs_f64());
        let after = std::fs::metadata(&path).map_or(0, |m| m.len());
        record_kb.push((after - before) as f64 / 1024.0);
    }
    drop(journal);
    let _ = std::fs::remove_file(&path);
    values.insert("journal.append_ms", median(&append_ms));
    values.insert("journal.ckpt_append_ms", median(&ckpt_ms));
    values.insert("journal.ckpt_record_kb", median(&record_kb));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_specs() {
        let block = |seed, client| Schedule::new(seed, client).next_block();
        assert_eq!(block(7, 0), block(7, 0));
        assert_ne!(block(7, 0), block(8, 0));
        assert_ne!(block(7, 0), block(7, 1));
        assert_eq!(hot_spec(7, 1), hot_spec(7, 1));
        for kind in [
            crate::offline::Kind::Sweep,
            crate::offline::Kind::Table5,
            crate::offline::Kind::Sampled,
        ] {
            let a = crate::offline::campaign(kind, 7);
            let b = crate::offline::campaign(kind, 7);
            assert_eq!(campaign_fingerprint(&a), campaign_fingerprint(&b));
            assert_ne!(
                campaign_fingerprint(&a),
                campaign_fingerprint(&crate::offline::campaign(kind, 8))
            );
        }
    }

    #[test]
    fn serve_mix_is_30_50_20() {
        let mut schedule = Schedule::new(3, 0);
        let mut counts = [0usize; 3];
        let mut cold = std::collections::BTreeSet::new();
        for _ in 0..20 {
            for (class, spec) in schedule.next_block() {
                counts[class as usize] += 1;
                if class != Class::Hot {
                    assert!(cold.insert(spec), "cold specs are unique");
                }
            }
        }
        assert_eq!(counts, [60, 100, 40]);
    }

    #[test]
    fn refused_requests_count_as_failed() {
        use std::io::Write;
        // A daemon stand-in that refuses every request as busy.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            let mut writer = stream;
            let mut line = String::new();
            while reader.read_line(&mut line).is_ok_and(|n| n > 0) {
                let busy = nosq_serve::protocol::busy_line(5);
                if writeln!(writer, "{busy}").is_err() {
                    break;
                }
                line.clear();
            }
        });
        let now = Instant::now();
        let log = client(&addr, 1, 0, now, false, now);
        assert_eq!(log.records.len(), BLOCK.len());
        assert!(log.records.iter().all(|r| r.busy && r.digest.is_none()));
        let records: Vec<&Record> = log.records.iter().collect();
        let failed = failures(&records, &BTreeMap::new());
        assert_eq!(failed, BLOCK.len() as u64);
        assert_eq!(
            crate::metrics::error_pct(records.len() as u64, failed),
            100.0
        );
        drop(log);
        server
            .join()
            .expect("stand-in exits when the client hangs up");
    }

    #[test]
    fn mismatched_artifacts_count_as_failed() {
        let record = |digest| Record {
            class: Class::Small,
            spec: "s".to_owned(),
            latency: 0.0,
            ack: 0.0,
            first_event: None,
            digest: Some(digest),
            bytes: 0,
            busy: false,
            traced: false,
        };
        let local = BTreeMap::from([("s", (7u64, Vec::new()))]);
        let (good, bad) = (record(7), record(8));
        assert_eq!(failures(&[&good, &bad], &local), 1);
    }

    #[test]
    fn specs_parse_and_large_jobs_checkpoint() {
        let large = Campaign::from_spec(&cold_spec(1, 0, 0, Class::Large)).expect("parses");
        assert!(large.configs[0].config.max_insts >= 2 * CKPT_EVERY);
        assert_eq!(large.jobs(), 1);
        Campaign::from_spec(&hot_spec(1, 0)).expect("parses");
    }
}
