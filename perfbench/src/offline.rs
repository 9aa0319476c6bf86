//! The in-process workloads: `sweep`, `table5` and `sampled`.
//!
//! Each run sets up its inputs several times (campaigns from the seed,
//! a warm-up grid at a small budget), then repeats rounds until the
//! measuring time is used. A round runs one campaign from spec to
//! artifacts, the unit a user of `nosq run` waits for; on `sampled` the
//! round then makes the sampled estimate of the same profiles, timed
//! on its own. Every round's outputs are digested and must match the
//! first round's byte for byte.

use std::time::{Duration, Instant};

use nosq_core::{sampled_replay_with_arena, SamplePlan, SimArena, SimReport};
use nosq_isa::Program;
use nosq_lab::reports::{table5_json, Table5Row};
use nosq_lab::{
    artifacts, parallel_map_indexed, run_campaign_on, synthesize_programs, Campaign,
    CampaignResult, Preset, RunOptions,
};
use nosq_trace::{analyze_program, DynInst, TraceBuffer};

use crate::metrics::Values;
use crate::spans::{min_coverage_pct, op_total, Recorder};
use crate::stats::{artifacts_digest, chain, derive, median, peak_rss_mb, quantile};

/// The four profiles of the `sweep` and `sampled` workloads.
pub const PROFILES: [&str; 4] = ["gzip", "gcc", "applu", "gsm.e"];
/// Per-job budget of the `sweep` workload.
pub const SWEEP_INSTS: u64 = 500_000;
/// Per-job budget of the `table5` workload.
pub const TABLE5_INSTS: u64 = 100_000;
/// Per-job budget of the `sampled` workload.
pub const SAMPLED_INSTS: u64 = 2_000_000;
/// The fixed sampling plan of the `sampled` workload.
pub const SAMPLE_PLAN: &str = "200000:10000:20";
/// Worker threads of every in-process campaign.
pub const THREADS: usize = 2;
/// Times the inputs are set up per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Least per-job budget of the set-up's warm-up grid.
const WARM_UP_INSTS: u64 = 10_000;
/// Least instructions the whole warm-up grid simulates, so that a
/// set-up of a small grid is not a few milliseconds of thread start-up.
const WARM_UP_TOTAL: u64 = 200_000;

/// Which in-process workload.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Kind {
    /// All five presets over four profiles at a large budget.
    Sweep,
    /// The paper's Table 5 campaign with its trace-analysis pass.
    Table5,
    /// One `nosq` campaign in full detail, then sampled.
    Sampled,
}

/// The campaign a workload runs at a workload seed.
pub fn campaign(kind: Kind, seed: u64) -> Campaign {
    let budget = match kind {
        Kind::Sweep => SWEEP_INSTS,
        Kind::Table5 => TABLE5_INSTS,
        Kind::Sampled => SAMPLED_INSTS,
    };
    campaign_at(kind, seed, budget)
}

/// The workload's campaign grid at another per-job budget.
fn campaign_at(kind: Kind, seed: u64, budget: u64) -> Campaign {
    let builder = match kind {
        Kind::Sweep => Preset::all()
            .into_iter()
            .fold(Campaign::builder("sweep"), |b, p| b.preset(p))
            .profiles(PROFILES),
        Kind::Table5 => Campaign::builder("table5")
            .preset(Preset::NosqNoDelay)
            .preset(Preset::Nosq)
            .all_profiles(),
        Kind::Sampled => Campaign::builder("sampled")
            .preset(Preset::Nosq)
            .profiles(PROFILES),
    };
    builder
        .max_insts(budget)
        .seed(derive(seed, kind as u64))
        .build()
        .expect("benchmark campaigns are valid")
}

/// One set-up: derive the campaign from the seed, synthesize its
/// programs, and run its grid once at a small budget so that lazy
/// initialisation and first-touch allocation happen before timing.
fn set_up(kind: Kind, seed: u64) -> Campaign {
    let full = campaign(kind, seed);
    let per_job = WARM_UP_INSTS.max(WARM_UP_TOTAL / full.jobs() as u64);
    let warm = campaign_at(kind, seed, per_job);
    let opts = RunOptions {
        threads: THREADS,
        ..RunOptions::default()
    };
    std::hint::black_box(artifacts(&nosq_lab::run_campaign(&warm, &opts)));
    full
}

/// What one round produced.
struct Round {
    op: u64,
    /// Whole round, seconds.
    wall: f64,
    /// The campaign, spec to artifacts, seconds.
    campaign_wall: f64,
    digest: u64,
    result: CampaignResult,
    /// Sampled half of a `sampled` round.
    sampled: Option<Sampled>,
}

struct Sampled {
    secs: f64,
    ipc_err_pct: f64,
    detail_pct: f64,
    buffer_mb: f64,
}

/// Runs one round as operation `op`, recording spans when `rec` is on.
fn round(kind: Kind, campaign: &Campaign, rec: &mut Recorder, op: u64) -> Round {
    let opts = RunOptions {
        threads: THREADS,
        ..RunOptions::default()
    };
    let started = Instant::now();
    let root = rec.open(op, None, "round");
    let programs = rec.span(op, root, "lab.synthesize_programs", || {
        synthesize_programs(campaign, THREADS)
    });
    let comm = (kind == Kind::Table5).then(|| {
        rec.span(op, root, "trace.analyze_program", || {
            parallel_map_indexed(programs.len(), THREADS, |i| {
                analyze_program(&programs[i], campaign.configs[0].config.max_insts, 128)
            })
        })
    });
    let result = rec.span(op, root, "lab.run_campaign_on", || {
        run_campaign_on(campaign, &programs, &opts)
    });
    let files = rec.span(op, root, "lab.artifacts", || artifacts(&result));
    let mut digest = artifacts_digest(&files);
    if let Some(comm) = comm {
        let table = rec.span(op, root, "lab.table5_json", || {
            table5_json(&table5_rows(&result, &comm))
        });
        digest = chain(digest, nosq_serve::fnv1a(table.as_bytes()));
    }
    let campaign_wall = started.elapsed().as_secs_f64();
    let sampled = (kind == Kind::Sampled).then(|| {
        let t0 = Instant::now();
        let (estimates, buffer_mb) = sampled_estimates(campaign, &programs, rec, op, root);
        let secs = t0.elapsed().as_secs_f64();
        let mut errs = Vec::new();
        let (mut measured, mut total) = (0u64, 0u64);
        for (p, est) in estimates.iter().enumerate() {
            digest = chain(digest, est.windows);
            digest = chain(digest, est.measured_insts);
            digest = chain(digest, est.measured_cycles);
            digest = chain(digest, est.total_insts);
            let full = result.report(p, 0).ipc();
            errs.push(100.0 * (est.ipc() - full).abs() / full);
            measured += est.measured_insts;
            total += est.total_insts;
        }
        Sampled {
            secs,
            ipc_err_pct: errs.iter().sum::<f64>() / errs.len().max(1) as f64,
            detail_pct: 100.0 * measured as f64 / total.max(1) as f64,
            buffer_mb,
        }
    });
    rec.close(root);
    Round {
        op,
        wall: started.elapsed().as_secs_f64(),
        campaign_wall,
        digest,
        result,
        sampled,
    }
}

/// The sampled estimate of every profile, the way `nosq run --sample`
/// makes it: record each profile's trace, then replay the fixed plan
/// over it. Returns the estimates and the largest trace's size in MiB.
fn sampled_estimates(
    campaign: &Campaign,
    programs: &[Program],
    rec: &mut Recorder,
    op: u64,
    root: Option<u64>,
) -> (Vec<nosq_core::SampledReport>, f64) {
    let plan = SamplePlan::parse(SAMPLE_PLAN).expect("fixed plan parses");
    let cfg = campaign.configs[0].config.clone();
    let mut arena = SimArena::new();
    let mut buffer_mb: f64 = 0.0;
    let estimates = programs
        .iter()
        .map(|program| {
            let trace = rec.span(op, root, "trace.TraceBuffer::record_with_arena", || {
                TraceBuffer::record_with_arena(program, cfg.max_insts, &mut arena.trace)
            });
            buffer_mb = buffer_mb.max(trace_mb(trace.len()));
            rec.span(op, root, "core.sampled_replay_with_arena", || {
                sampled_replay_with_arena(program, cfg.clone(), &trace, &plan, &mut arena)
            })
        })
        .collect();
    (estimates, buffer_mb)
}

/// Memory held by a recorded trace of `len` instructions, in MiB.
fn trace_mb(len: usize) -> f64 {
    (len * std::mem::size_of::<DynInst>()) as f64 / (1024.0 * 1024.0)
}

/// The rows `nosq_lab::reports::table5` builds. The benchmark runs that
/// function's stages itself so that each stage gets its own span.
fn table5_rows(result: &CampaignResult, comm: &[nosq_trace::CommStats]) -> Vec<Table5Row> {
    let nd = result.campaign.config_index("nosq-nd").expect("nosq-nd");
    let d = result.campaign.config_index("nosq").expect("nosq");
    result
        .campaign
        .profiles
        .iter()
        .enumerate()
        .map(|(p, profile)| Table5Row {
            profile,
            comm_pct: comm[p].comm_pct(),
            partial_pct: comm[p].partial_pct(),
            no_delay: *result.report(p, nd),
            delay: *result.report(p, d),
        })
        .collect()
}

/// Modelled-design counts summed over a campaign's reports.
pub fn sim_counts(reports: &[SimReport], values: &mut Values) {
    let sum = |f: fn(&SimReport) -> u64| reports.iter().map(f).sum::<u64>() as f64;
    let insts = sum(|r| r.insts);
    let cycles = sum(|r| r.cycles);
    let loads = sum(|r| r.memory.loads).max(1.0);
    values.insert("sim.insts", insts);
    values.insert("sim.cycles", cycles);
    values.insert("sim.ipc", insts / cycles.max(1.0));
    values.insert(
        "sim.bypassed_pct",
        100.0 * sum(|r| r.memory.bypassed_loads) / loads,
    );
    values.insert(
        "sim.mispredicts_per_10k",
        1e4 * sum(|r| r.verification.bypass_mispredicts) / loads,
    );
    values.insert(
        "sim.reexec_rate",
        sum(|r| r.verification.backend_dcache_reads) / loads,
    );
}

/// Runs an in-process workload for `seconds` and reports its metrics.
/// With `traced`, rounds alternate between untraced and traced, the
/// traced ones supply the per-layer metrics, and the difference
/// between the two kinds is the tracing overhead.
pub fn run(
    kind: Kind,
    seed: u64,
    seconds: u64,
    traced: bool,
    expected: Option<u64>,
    rec: &mut Recorder,
) -> crate::metrics::Outcome {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut prepared = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        prepared = Some(set_up(kind, seed));
        setups.push(t0.elapsed().as_secs_f64());
    }
    let campaign = prepared.expect("set up at least once");
    eprintln!("set-up times (s): {setups:?}");

    let mut deadline = Instant::now() + Duration::from_secs(seconds);
    let mut rounds: Vec<(bool, Round)> = Vec::new();
    let mut failed = 0u64;
    let mut first_digest = None;
    // Round 0 brings the heap and caches to the full-size working set
    // and is left out of every metric (its outputs are still checked);
    // a traced run then alternates untraced and traced rounds.
    let min_rounds = if traced { 3 } else { 2 };
    while rounds.len() < min_rounds || Instant::now() < deadline {
        let op = rounds.len() as u64;
        let traced_round = traced && op > 0 && op.is_multiple_of(2);
        rec.set_enabled(traced_round);
        let r = round(kind, &campaign, rec, op);
        rec.set_enabled(false);
        if op == 0 {
            deadline = Instant::now() + Duration::from_secs(seconds);
        }
        eprintln!(
            "round {op}: {:.4} s, campaign {:.4} s{}",
            r.wall,
            r.campaign_wall,
            if traced_round { " (traced)" } else { "" }
        );
        match first_digest {
            None => first_digest = Some(r.digest),
            Some(d) if d != r.digest => {
                eprintln!("perfbench: round {op} digest differs from round 0");
                failed += 1;
            }
            Some(_) => {}
        }
        rounds.push((traced_round, r));
    }
    let digest = first_digest.expect("at least one round");
    if let Some(want) = expected {
        if want != digest {
            eprintln!("perfbench: digest {digest:016x} differs from the recorded {want:016x}");
            failed += 1;
        }
    }

    let mut values = Values::new();
    let measured = &rounds[1..];
    let plain: Vec<&Round> = measured
        .iter()
        .filter(|(t, _)| !t)
        .map(|(_, r)| r)
        .collect();
    values.insert("setup_s", median(&setups));
    // The campaign is the timed operation; the sampled estimate that
    // follows it on `sampled` is reported per layer as `sampled_s`.
    let campaigns: Vec<f64> = plain.iter().map(|r| r.campaign_wall).collect();
    let jobs: usize = plain.iter().map(|r| r.result.reports.len()).sum();
    values.insert("jobs_per_s", jobs as f64 / campaigns.iter().sum::<f64>());
    values.insert("p50_ms", 1e3 * median(&campaigns));
    values.insert("p90_ms", 1e3 * quantile(&campaigns, 0.9));
    values.insert("peak_rss_mb", peak_rss_mb(None));

    if traced {
        layer_metrics(kind, measured, rec, &mut values);
    }
    values.insert(
        "error_pct",
        crate::metrics::error_pct(rounds.len() as u64, failed),
    );
    crate::metrics::Outcome {
        attempted: rounds.len() as u64,
        failed,
        digest,
        values,
    }
}

/// Per-layer metrics from the traced rounds' spans and job timings.
fn layer_metrics(kind: Kind, rounds: &[(bool, Round)], rec: &Recorder, values: &mut Values) {
    let spans = rec.spans();
    let traced: Vec<&Round> = rounds.iter().filter(|(t, _)| *t).map(|(_, r)| r).collect();
    let per_round = |f: &dyn Fn(u64, &Round) -> f64| {
        median(&traced.iter().map(|r| f(r.op, r)).collect::<Vec<_>>())
    };
    let span = |name: &'static str| per_round(&|op, _| op_total(spans, op, name));
    let trace_secs = |r: &Round| r.result.timings.iter().map(|t| t.trace_secs).sum::<f64>();
    let sim_secs = |r: &Round| r.result.timings.iter().map(|t| t.sim_secs).sum::<f64>();
    let insts = |r: &Round| r.result.timings.iter().map(|t| t.insts).sum::<u64>() as f64;
    let cycles = |r: &Round| r.result.timings.iter().map(|t| t.cycles).sum::<u64>() as f64;

    values.insert("trace.synth_s", span("lab.synthesize_programs"));
    values.insert(
        "trace.record_s",
        per_round(&|op, r| {
            trace_secs(r) + op_total(spans, op, "trace.TraceBuffer::record_with_arena")
        }),
    );
    values.insert("trace.analyze_s", span("trace.analyze_program"));
    values.insert(
        "trace.buffer_mb",
        per_round(&|_, r| match &r.sampled {
            Some(s) => s.buffer_mb,
            // Replaying workers each hold one profile's trace, as long
            // as the longest job; single-config grids trace live.
            None if r.result.campaign.configs.len() > 1 => {
                let longest = r.result.timings.iter().map(|t| t.insts).max().unwrap_or(0);
                trace_mb(longest as usize) * r.result.threads as f64
            }
            None => 0.0,
        }),
    );
    values.insert("core.sim_s", per_round(&|_, r| sim_secs(r)));
    values.insert(
        "core.sim_mips",
        per_round(&|_, r| insts(r) / sim_secs(r) / 1e6),
    );
    values.insert(
        "core.ns_per_cycle",
        per_round(&|_, r| 1e9 * sim_secs(r) / cycles(r)),
    );
    values.insert("lab.campaign_s", span("lab.run_campaign_on"));
    values.insert(
        "lab.pool_util",
        per_round(&|op, r| {
            (trace_secs(r) + sim_secs(r))
                / (r.result.threads as f64 * op_total(spans, op, "lab.run_campaign_on"))
        }),
    );
    values.insert("lab.artifacts_s", span("lab.artifacts"));
    if kind == Kind::Sampled {
        values.insert("core.sample_s", span("core.sampled_replay_with_arena"));
        values.insert(
            "sampled_s",
            per_round(&|_, r| r.sampled.as_ref().map_or(0.0, |s| s.secs)),
        );
        values.insert(
            "ipc_err_pct",
            per_round(&|_, r| r.sampled.as_ref().map_or(0.0, |s| s.ipc_err_pct)),
        );
        values.insert(
            "core.sample_detail_pct",
            per_round(&|_, r| r.sampled.as_ref().map_or(0.0, |s| s.detail_pct)),
        );
    }
    sim_counts(&rounds[0].1.result.reports, values);

    let wall = |want: bool| {
        median(
            &rounds
                .iter()
                .filter(|(t, _)| *t == want)
                .map(|(_, r)| r.wall)
                .collect::<Vec<_>>(),
        )
    };
    values.insert(
        "trace_overhead_pct",
        100.0 * (wall(true) - wall(false)) / wall(false),
    );
    values.insert("span_coverage_pct", min_coverage_pct(spans));
}
