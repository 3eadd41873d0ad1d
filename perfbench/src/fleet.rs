//! `fleet_lazic`: a 64-zone row-topology site with one
//! `LazicController` per zone, two scheduler workers, and a site power
//! budget set to 75% of the calibrated uncapped peak so arbitration
//! binds. It is stepped with `Fleet::step_minute`. Plant physics, the
//! workload, telemetry sanitising, the work-stealing scheduler, the
//! coordinator and the inter-pod bleed carry the time; BO and the GP do
//! nothing, so this is the workload on which decide-path changes should
//! show no change.

use crate::spans::Tracer;
use crate::stats::{best_of_passes, OpCounts, Samples, MIN_P99_SAMPLES, MIN_PASSES};
use crate::{digest, mix_seed, obs_counter, obs_hist, RunArgs, RunOutput};
use std::time::Instant;
use tesla_core::dataset::{generate_sweep_trace, DatasetConfig};
use tesla_core::{Controller, EpisodeConfig, LazicController};
use tesla_fleet::{Fleet, FleetConfig, FleetReport, FleetTopology};
use tesla_forecast::Trace;
use tesla_units::{Kilowatts, ZoneId};

/// Zones on the site.
pub const ZONES: usize = 64;

/// Scheduler workers (the benchmark host budget is two cores).
pub const WORKERS: usize = 2;

/// Metered minutes per fleet episode.
pub const EPISODE_MINUTES: usize = 720;

/// Minutes of the uncapped calibration run that sizes the budget.
const CALIBRATION_MINUTES: usize = 30;

/// Site budget as a share of the calibrated uncapped peak.
const BUDGET_SHARE: f64 = 0.75;

/// Days of sweep data the Lazic models are fitted on.
const TRAIN_DAYS: f64 = 0.3;

fn controllers(train: &Trace) -> Result<Vec<Box<dyn Controller + Send>>, String> {
    (0..ZONES)
        .map(|_| {
            LazicController::new(train, Default::default())
                .map(|c| Box::new(c) as Box<dyn Controller + Send>)
                .map_err(|e| format!("lazic fit: {e}"))
        })
        .collect()
}

fn fleet_config(seed: u64, budget_kw: f64) -> Result<FleetConfig, String> {
    Ok(FleetConfig {
        topology: FleetTopology::row(ZONES, Kilowatts::new(125.0), 0.4)
            .map_err(|e| format!("topology: {e}"))?,
        zone: EpisodeConfig {
            minutes: EPISODE_MINUTES,
            warmup_minutes: 3,
            seed,
            ..EpisodeConfig::default()
        },
        site_budget_kw: Kilowatts::new(budget_kw),
        workers: WORKERS,
        ..FleetConfig::default()
    })
}

/// The site's inputs: the Lazic training sweep and the site budget
/// calibrated on seed-derived zones.
struct Site {
    train: Trace,
    budget_kw: f64,
}

fn setup(seed: u64) -> Result<Site, String> {
    let train = generate_sweep_trace(&DatasetConfig {
        days: TRAIN_DAYS,
        seed: mix_seed(crate::TRAINING_SEED, 2),
        ..DatasetConfig::default()
    })
    .map_err(|e| format!("sweep generation: {e}"))?;
    let mut free = Fleet::new(
        fleet_config(mix_seed(seed, 3), f64::INFINITY)?,
        controllers(&train)?,
        None,
    )
    .map_err(|e| format!("calibration fleet: {e}"))?;
    for _ in 0..CALIBRATION_MINUTES {
        free.step_minute()
            .map_err(|e| format!("calibration: {e}"))?;
    }
    let report = free.into_report().map_err(|e| e.to_string())?;
    Ok(Site {
        budget_kw: BUDGET_SHARE * report.site_peak_kw.value(),
        train,
    })
}

fn build(site: &Site, seed: u64) -> Result<Fleet, String> {
    Fleet::new(
        fleet_config(mix_seed(seed, 200), site.budget_kw)?,
        controllers(&site.train)?,
        None,
    )
    .map_err(|e| format!("fleet: {e}"))
}

/// Simulated outcome of one full fleet episode.
struct Episode {
    report: FleetReport,
    digest: u64,
}

impl Episode {
    fn ce_kwh(&self) -> f64 {
        self.report.zones.iter().map(|z| z.cooling_energy_kwh).sum()
    }

    fn mean(&self, f: impl Fn(&tesla_core::EvalResult) -> f64) -> f64 {
        self.report.zones.iter().map(f).sum::<f64>() / self.report.zones.len().max(1) as f64
    }
}

fn finish(fleet: Fleet) -> Result<Episode, String> {
    let mut setpoints = Vec::new();
    for z in 0..fleet.n_zones() {
        setpoints.extend(fleet.zone_setpoints(ZoneId::new(z)));
    }
    let report = fleet.into_report().map_err(|e| e.to_string())?;
    Ok(Episode {
        report,
        digest: digest(setpoints),
    })
}

/// Steps `minutes` site minutes, timing each.
fn step(
    fleet: &mut Fleet,
    minutes: usize,
    times: &mut Samples,
    ops: &mut OpCounts,
) -> Result<(), String> {
    for _ in 0..minutes {
        let t = Instant::now();
        let r = fleet.step_minute();
        times.push(t.elapsed().as_secs_f64());
        ops.record(r.is_ok());
        r.map_err(|e| format!("step_minute: {e}"))?;
    }
    Ok(())
}

fn config_line() -> String {
    format!(
        "fleet_lazic zones={ZONES} topology=row(125kW,0.4kW/K) workers={WORKERS} \
         minutes={EPISODE_MINUTES} warmup=3 budget={BUDGET_SHARE}*peak({CALIBRATION_MINUTES}min uncapped) \
         train_days={TRAIN_DAYS} controller=lazic(default) supervisor=default"
    )
}

/// Runs the workload; see the module docs.
pub fn run(args: &RunArgs) -> Result<RunOutput, String> {
    let mut out = RunOutput {
        config: config_line(),
        ..RunOutput::default()
    };
    let repeats = if args.trace {
        1
    } else {
        crate::SHORT_SETUP_REPEATS
    };
    let mut site = None;
    for _ in 0..repeats {
        let t = Instant::now();
        site = Some(setup(args.seed)?);
        out.setup_s.push(t.elapsed().as_secs_f64());
    }
    let site = site.expect("at least one set-up");
    if args.trace {
        traced(args, &site, &mut out)?;
    } else {
        measured(args, &site, &mut out)?;
    }
    Ok(out)
}

fn check_episode(out: &mut RunOutput, ep: &Episode, requested: usize) {
    out.check(
        "reported_minutes_equal_requested",
        ep.report.minutes == requested,
    );
    out.check(
        "arbitration_engaged",
        ep.report.budget_exceeded_minutes > 0 && ep.report.relaxations > 0,
    );
}

/// The end-to-end run: the seed's episode, stepped in full pass after
/// pass until the window is over and at least [`MIN_PASSES`] passes are
/// done. Every pass makes the same decisions, which is checked, so each
/// site minute's best time over the passes is its cost without the
/// host's interference ([`best_of_passes`]); the gated latency and
/// throughput are read from those. Quantiles over every timed call are
/// reported beside them.
fn measured(args: &RunArgs, site: &Site, out: &mut RunOutput) -> Result<(), String> {
    let mut all = Samples::with_capacity(32 * EPISODE_MINUTES);
    let mut passes: Vec<Vec<f64>> = Vec::new();
    let mut digests = Vec::new();
    let mut ops = OpCounts::default();
    let mut first = None;
    let mut minutes_ok = true;
    let started = Instant::now();
    while passes.len() < MIN_PASSES || started.elapsed() < args.seconds {
        let mut times = Samples::with_capacity(EPISODE_MINUTES);
        let mut fleet = build(site, args.seed)?;
        step(&mut fleet, EPISODE_MINUTES, &mut times, &mut ops)?;
        let ep = finish(fleet)?;
        minutes_ok &= ep.report.minutes == EPISODE_MINUTES;
        digests.push(ep.digest);
        first.get_or_insert(ep);
        for &v in times.values() {
            all.push(v);
        }
        passes.push(times.values().to_vec());
    }
    let first = first.expect("one pass at least");
    check_episode(out, &first, EPISODE_MINUTES);
    out.check("every_pass_reports_requested_minutes", minutes_ok);
    out.check(
        "passes_decide_identically",
        digests.iter().all(|&d| d == digests[0]),
    );
    out.check("p99_has_1000_samples", all.len() >= MIN_P99_SAMPLES);
    let q = all
        .quantiles(&[0.5, 0.9, 0.99])
        .expect("minutes were timed");
    let best_minutes = best_of_passes(&passes);
    let best = Samples::from(best_minutes.clone())
        .quantiles(&[0.5, 0.9])
        .expect("minutes were timed");
    out.ops = ops;
    out.digest = Some(first.digest);
    out.metric("site_minute_p50_s", q[0], "s");
    out.metric("site_minute_p90_s", q[1], "s");
    out.metric("site_minute_p99_s", q[2], "s");
    out.metric("site_minute_samples", all.len() as f64, "count");
    out.metric("site_minute_best_p50_s", best[0], "s");
    out.metric("site_minute_best_p90_s", best[1], "s");
    out.metric("passes", passes.len() as f64, "count");
    out.metric(
        "zone_minutes_per_s",
        (all.len() * ZONES) as f64 / all.sum(),
        "1/s",
    );
    out.metric(
        "zone_minutes_per_s_best",
        (best_minutes.len() * ZONES) as f64 / best_minutes.iter().sum::<f64>(),
        "1/s",
    );
    out.metric("cooling_energy_kwh", first.ce_kwh(), "kWh");
    out.metric("tsv_pct", first.mean(|z| z.tsv_percent), "%");
    out.metric("ci_pct", first.mean(|z| z.ci_percent), "%");
    out.metric(
        "violation_zone_minutes",
        first.report.violation_minutes() as f64,
        "count",
    );
    out.metric(
        "budget_exceeded_minutes",
        first.report.budget_exceeded_minutes as f64,
        "count",
    );
    Ok(())
}

/// The traced run: the seed's episode untraced (the overhead
/// reference), then the same episode with `tesla-obs` on, reading the
/// fleet's own phase histograms and counters as exact counts and sums.
fn traced(args: &RunArgs, site: &Site, out: &mut RunOutput) -> Result<(), String> {
    let mut tracer = Tracer::new(true);
    let mut ops = OpCounts::default();

    // The untraced reference runs the episode once before and once after
    // the traced pass, so warm-up and drift weigh on both sides alike.
    let mut plain = Samples::with_capacity(2 * EPISODE_MINUTES);
    let untraced_pass = |plain: &mut Samples, ops: &mut OpCounts| -> Result<Episode, String> {
        let mut fleet = build(site, args.seed)?;
        step(&mut fleet, EPISODE_MINUTES, plain, ops)?;
        finish(fleet)
    };
    let untraced = untraced_pass(&mut plain, &mut ops)?;

    let mut fleet = build(site, args.seed)?;
    tesla_obs::set_enabled(true);
    let decide0 = obs_hist("tesla_fleet_zone_decide_seconds");
    let advance0 = obs_hist("tesla_fleet_zone_advance_seconds");
    let coord0 = obs_hist("tesla_fleet_coordinator_seconds");
    let steals0 = obs_counter("tesla_fleet_steals_total");
    let evals0 = obs_counter("bo_acquisition_evaluations_total");
    let mut times = Samples::with_capacity(EPISODE_MINUTES);
    for m in 0..EPISODE_MINUTES {
        let span = tracer.enter("fleet.step_minute");
        let t = Instant::now();
        let r = fleet.step_minute();
        times.push(t.elapsed().as_secs_f64());
        tracer.exit(span);
        ops.record(r.is_ok());
        r.map_err(|e| format!("step_minute {m}: {e}"))?;
    }
    let delta = |name: &'static str, before: (u64, f64)| {
        let now = obs_hist(name);
        (now.0 - before.0, now.1 - before.1)
    };
    let decide = delta("tesla_fleet_zone_decide_seconds", decide0);
    let advance = delta("tesla_fleet_zone_advance_seconds", advance0);
    let coord = delta("tesla_fleet_coordinator_seconds", coord0);
    let steals = obs_counter("tesla_fleet_steals_total") - steals0;
    let evals = obs_counter("bo_acquisition_evaluations_total") - evals0;
    tesla_obs::set_enabled(false);
    let ep = finish(fleet)?;
    let untraced_after = untraced_pass(&mut plain, &mut ops)?;

    check_episode(out, &ep, EPISODE_MINUTES);
    out.check(
        "traced_decisions_match_untraced",
        ep.digest == untraced.digest && untraced_after.digest == untraced.digest,
    );
    out.check("no_bo_evaluations", evals == 0);
    let phase_busy = decide.1 + advance.1;
    out.ops = ops;
    out.digest = Some(ep.digest);

    let untraced_zmps = (plain.len() * ZONES) as f64 / plain.sum();
    let traced_zmps = (EPISODE_MINUTES * ZONES) as f64 / times.sum();
    out.metric("fleet.decide_phase.busy_s", decide.1, "s");
    out.metric("fleet.decide_phase.calls", decide.0 as f64, "count");
    out.metric("fleet.advance_phase.busy_s", advance.1, "s");
    out.metric("fleet.advance_phase.calls", advance.0 as f64, "count");
    out.metric("fleet.advance_phase.share", advance.1 / phase_busy, "ratio");
    out.metric("fleet.coordinator.busy_s", coord.1, "s");
    out.metric("fleet.steals", steals as f64, "count");
    out.metric(
        "fleet.parallel_efficiency",
        phase_busy / (WORKERS as f64 * times.sum()),
        "ratio",
    );
    out.metric("fleet.relaxations", ep.report.relaxations as f64, "count");
    out.metric(
        "fleet.budget_exceeded_minutes",
        ep.report.budget_exceeded_minutes as f64,
        "count",
    );
    out.metric("sim.cooling_energy_kwh", ep.ce_kwh(), "kWh");
    out.metric("sim.tsv_pct", ep.mean(|z| z.tsv_percent), "%");
    out.metric("sim.ci_pct", ep.mean(|z| z.ci_percent), "%");
    out.metric("zone_minutes_per_s.untraced", untraced_zmps, "1/s");
    out.metric("zone_minutes_per_s.traced", traced_zmps, "1/s");
    out.metric(
        "trace.overhead_pct",
        100.0 * (1.0 - traced_zmps / untraced_zmps),
        "%",
    );
    out.spans = Some(tracer);
    Ok(())
}
