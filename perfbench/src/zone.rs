//! `zone_tesla`: one supervised TESLA zone at medium load, fault-free,
//! stepped minute by minute through `ZoneEpisode::{warmup, decide,
//! advance}` with `TeslaConfig::default()` (one worker). This is the
//! paper's controller on the paper's 12-hour §5.3 episode; BO and the GP
//! hyper-search do almost all of its work, so it is the workload for
//! decide-path changes.
//!
//! The traced run replays every real decision through the forecast, GP
//! and BO layers' public functions with the recorded inputs, so each
//! layer gets its own spans without instrumenting the program.

use crate::spans::Tracer;
use crate::stats::{best_of_passes, OpCounts, Samples, MIN_P99_SAMPLES, MIN_PASSES};
use crate::{digest, mix_seed, obs_counter, obs_hist, RunArgs, RunOutput};
use std::time::Instant;
use tesla_bo::{BoConfig, BoOutcome, PredictionErrorMonitor};
use tesla_core::dataset::{generate_sweep_trace, DatasetConfig};
use tesla_core::objective::{constraint, objective};
use tesla_core::{
    Controller, EpisodeConfig, Supervisor, SupervisorConfig, TeslaConfig, TeslaController,
    ZoneEpisode,
};
use tesla_forecast::DcTimeSeriesModel;
use tesla_gp::{FixedNoiseGp, Matern52, MaternHyperSearch};
use tesla_sim::Testbed;
use tesla_units::Celsius;
use tesla_workload::LoadSetting;

/// Days of §5.1 sweep data the model is trained on.
pub const TRAIN_DAYS: f64 = 1.5;

/// Metered minutes per episode (the paper's 12 hours).
pub const EPISODE_MINUTES: usize = 720;

/// Warm-start hints TESLA adds to the BO initial design (inlet − 2κ,
/// inlet, inlet + κ, + 2κ, + 4κ, and the current set-point).
const TESLA_HINTS: usize = 6;

/// Trains the zone's DC time-series model on the fixed training sweep.
fn setup(tracer: &mut Tracer) -> Result<DcTimeSeriesModel, String> {
    let train = generate_sweep_trace(&DatasetConfig {
        days: TRAIN_DAYS,
        seed: mix_seed(crate::TRAINING_SEED, 1),
        ..DatasetConfig::default()
    })
    .map_err(|e| format!("sweep generation: {e}"))?;
    let span = tracer.enter("forecast.fit");
    let model = DcTimeSeriesModel::fit(&train, TeslaConfig::default().model)
        .map_err(|e| format!("model fit: {e}"));
    tracer.exit(span);
    model
}

fn episode_config(seed: u64) -> EpisodeConfig {
    EpisodeConfig {
        setting: LoadSetting::Medium,
        minutes: EPISODE_MINUTES,
        seed: mix_seed(seed, 100),
        ..EpisodeConfig::default()
    }
}

/// A zone ready to step: the same sequence `run_supervised_episode`
/// performs before its first metered minute.
struct Zone {
    episode: ZoneEpisode<Testbed>,
    controller: TeslaController,
    supervisor: Supervisor,
    config: EpisodeConfig,
}

fn start_zone(model: &DcTimeSeriesModel, seed: u64) -> Result<Zone, String> {
    let config = episode_config(seed);
    let mut controller = TeslaController::with_model(model.clone(), TeslaConfig::default())
        .map_err(|e| format!("controller: {e}"))?;
    let mut supervisor = Supervisor::new(SupervisorConfig::default());
    let mut testbed = Testbed::new(config.sim.clone(), config.seed).map_err(|e| e.to_string())?;
    testbed.set_fault_plan(config.faults.clone());
    controller.reset();
    supervisor.reset();
    let mut episode = ZoneEpisode::new(testbed, &config);
    episode.warmup().map_err(|e| format!("warm-up: {e}"))?;
    Ok(Zone {
        episode,
        controller,
        supervisor,
        config,
    })
}

/// Per-minute timings and outcomes of stepping zones. A minute fails
/// when its set-point is not finite or not inside the ACU range.
#[derive(Default)]
struct Stepping {
    decide: Samples,
    advance: Samples,
    ops: OpCounts,
}

/// True when the decided set-point is finite and inside the ACU's
/// specification range. The check reads what the supervisor hands the
/// plant: the plant clamps every write to its range, so the executed
/// set-point would pass whatever the controller decided.
fn setpoint_ok(zone: &Zone, decided: Celsius) -> bool {
    let sim = &zone.config.sim;
    (sim.setpoint_min.value()..=sim.setpoint_max.value()).contains(&decided.value())
}

impl Stepping {
    fn with_capacity(n: usize) -> Self {
        Stepping {
            decide: Samples::with_capacity(n),
            advance: Samples::with_capacity(n),
            ..Stepping::default()
        }
    }

    /// Steps minute `m`: one timed decide, one timed advance, and the
    /// range check on the decided set-point.
    fn minute(&mut self, zone: &mut Zone, m: usize) -> Result<(), String> {
        let t0 = Instant::now();
        let sp = zone
            .episode
            .decide(&mut zone.supervisor, &mut zone.controller);
        let t1 = Instant::now();
        zone.episode
            .advance(m, sp, &mut zone.supervisor, false)
            .map_err(|e| format!("advance: {e}"))?;
        let t2 = Instant::now();
        self.decide.push((t1 - t0).as_secs_f64());
        self.advance.push((t2 - t1).as_secs_f64());
        self.ops.record(setpoint_ok(zone, sp));
        Ok(())
    }

    /// Host seconds spent inside decide and advance.
    fn busy_s(&self) -> f64 {
        self.decide.sum() + self.advance.sum()
    }

    /// Host seconds of each minute, decide and advance together.
    fn minute_busy(&self) -> Vec<f64> {
        self.decide
            .values()
            .iter()
            .zip(self.advance.values())
            .map(|(d, a)| d + a)
            .collect()
    }

    /// Appends another pass's timings and tallies to these.
    fn absorb(&mut self, pass: Stepping) {
        for &v in pass.decide.values() {
            self.decide.push(v);
        }
        for &v in pass.advance.values() {
            self.advance.push(v);
        }
        self.ops.merge(pass.ops);
    }
}

/// Simulated outcome of one full episode.
struct Episode {
    ce_kwh: f64,
    tsv_pct: f64,
    ci_pct: f64,
    digest: u64,
    minutes: usize,
    watchdog: u64,
}

fn finish(zone: Zone) -> Episode {
    let watchdog = zone.supervisor.watchdog_trips() + zone.supervisor.decision_timeouts();
    let result = zone.episode.finish("tesla", &zone.supervisor);
    Episode {
        ce_kwh: result.cooling_energy_kwh,
        tsv_pct: result.tsv_percent,
        ci_pct: result.ci_percent,
        digest: digest(result.setpoints.iter().copied()),
        minutes: result.setpoints.len(),
        watchdog,
    }
}

fn config_line() -> String {
    let t = TeslaConfig::default();
    format!(
        "zone_tesla setting=medium minutes={EPISODE_MINUTES} warmup={} train_days={TRAIN_DAYS} \
         workers={} bo.n_init={} bo.n_iter={} bo.n_mc={} bo.n_grid={} horizon={} \
         supervisor=default faults=none",
        EpisodeConfig::default().warmup_minutes,
        t.parallel_workers,
        t.bo.n_init,
        t.bo.n_iter,
        t.bo.n_mc,
        t.bo.n_grid,
        t.model.horizon,
    )
}

/// Runs the workload; see the module docs.
pub fn run(args: &RunArgs) -> Result<RunOutput, String> {
    let mut out = RunOutput {
        config: config_line(),
        ..RunOutput::default()
    };
    let mut tracer = Tracer::new(args.trace);
    let repeats = if args.trace { 1 } else { crate::SETUP_REPEATS };
    let mut model = None;
    for _ in 0..repeats {
        let t = Instant::now();
        model = Some(setup(&mut tracer)?);
        out.setup_s.push(t.elapsed().as_secs_f64());
    }
    let model = model.expect("at least one set-up");
    if args.trace {
        traced(args, &model, tracer, &mut out)?;
    } else {
        measured(args, &model, &mut out)?;
    }
    Ok(out)
}

/// The end-to-end run: the seed's episode, stepped in full pass after
/// pass until the window is over and at least [`MIN_PASSES`] passes are
/// done. Every pass makes the same decisions, which is checked, so each
/// minute's best time over the passes is its cost without the host's
/// interference ([`best_of_passes`]); the gated latency and throughput
/// are read from those. Quantiles over every timed call are reported
/// beside them.
fn measured(args: &RunArgs, model: &DcTimeSeriesModel, out: &mut RunOutput) -> Result<(), String> {
    let mut all = Stepping::with_capacity(8 * EPISODE_MINUTES);
    let mut decide_passes = Vec::new();
    let mut minute_passes = Vec::new();
    let mut episodes = Vec::new();
    let started = Instant::now();
    while episodes.len() < MIN_PASSES || started.elapsed() < args.seconds {
        let mut pass = Stepping::with_capacity(EPISODE_MINUTES);
        let mut zone = start_zone(model, args.seed)?;
        for m in 0..EPISODE_MINUTES {
            pass.minute(&mut zone, m)?;
        }
        episodes.push(finish(zone));
        minute_passes.push(pass.minute_busy());
        decide_passes.push(pass.decide.values().to_vec());
        all.absorb(pass);
    }
    let first = &episodes[0];
    let watchdog: u64 = episodes.iter().map(|e| e.watchdog).sum();
    let q = all
        .decide
        .quantiles(&[0.5, 0.9, 0.99])
        .expect("decisions were timed");
    let best = Samples::from(best_of_passes(&decide_passes))
        .quantiles(&[0.5, 0.9])
        .expect("decisions were timed");
    let best_minutes = best_of_passes(&minute_passes);

    out.ops = all.ops;
    out.ops.failed += watchdog;
    out.digest = Some(first.digest);
    out.check("setpoints_finite_and_in_acu_range", all.ops.failed == 0);
    out.check("no_watchdog_or_deadline_trips", watchdog == 0);
    out.check(
        "episode_minutes_complete",
        episodes.iter().all(|e| e.minutes == EPISODE_MINUTES),
    );
    out.check(
        "passes_decide_identically",
        episodes.iter().all(|e| e.digest == first.digest),
    );
    out.check("p99_has_1000_samples", all.decide.len() >= MIN_P99_SAMPLES);
    out.metric("decide_p50_s", q[0], "s");
    out.metric("decide_p90_s", q[1], "s");
    out.metric("decide_p99_s", q[2], "s");
    out.metric("decide_samples", all.decide.len() as f64, "count");
    out.metric("decide_best_p50_s", best[0], "s");
    out.metric("decide_best_p90_s", best[1], "s");
    out.metric("passes", episodes.len() as f64, "count");
    out.metric(
        "zone_minutes_per_s",
        all.decide.len() as f64 / all.busy_s(),
        "1/s",
    );
    out.metric(
        "zone_minutes_per_s_best",
        best_minutes.len() as f64 / best_minutes.iter().sum::<f64>(),
        "1/s",
    );
    out.metric("cooling_energy_kwh", first.ce_kwh, "kWh");
    out.metric("tsv_pct", first.tsv_pct, "%");
    out.metric("ci_pct", first.ci_pct, "%");
    Ok(())
}

/// The traced run: the seed's episode untraced (the overhead
/// reference), then the same episode again with `tesla-obs` on and
/// every decision replayed through the layers it used.
fn traced(
    args: &RunArgs,
    model: &DcTimeSeriesModel,
    mut tracer: Tracer,
    out: &mut RunOutput,
) -> Result<(), String> {
    let cfg = TeslaConfig::default();
    let seed = args.seed;

    // The untraced reference runs the episode once before and once after
    // the traced pass, so warm-up and drift weigh on both sides alike.
    let mut plain = Stepping::with_capacity(2 * EPISODE_MINUTES);
    let untraced_pass = |plain: &mut Stepping| -> Result<Episode, String> {
        let mut zone = start_zone(model, seed)?;
        for m in 0..EPISODE_MINUTES {
            plain.minute(&mut zone, m)?;
        }
        Ok(finish(zone))
    };
    let untraced = untraced_pass(&mut plain)?;

    tesla_obs::set_enabled(true);
    let evals_before = obs_counter("bo_acquisition_evaluations_total");
    let iters_before = obs_hist("bo_iterations_to_converge_iterations");
    let bo_before = obs_hist("bo_decision_seconds");

    let mut steps = Stepping::with_capacity(EPISODE_MINUTES);
    let mut replay = Replay::default();
    let mut zone = start_zone(model, seed)?;
    let mut last_step = 0;
    let mut failure: Option<String> = None;
    for m in 0..EPISODE_MINUTES {
        let span = tracer.enter("zone.minute");
        let decide_span = tracer.enter("core.decide");
        let t0 = Instant::now();
        let sp = zone
            .episode
            .decide(&mut zone.supervisor, &mut zone.controller);
        let t1 = Instant::now();
        tracer.exit(decide_span);
        // Replays run outside the minute's timings.
        let state = zone.controller.save_state().and_then(|b| decode_state(&b));
        if let (Some((step, pairs)), Some(outcome)) = (state, zone.controller.last_outcome()) {
            if step != last_step {
                last_step = step;
                if let Err(e) = replay.decision(
                    &mut tracer,
                    model,
                    &cfg,
                    &zone.episode,
                    outcome,
                    step,
                    &pairs,
                ) {
                    failure.get_or_insert(e);
                }
            }
        }
        let advance_span = tracer.enter("core.advance");
        let t2 = Instant::now();
        zone.episode
            .advance(m, sp, &mut zone.supervisor, false)
            .map_err(|e| format!("advance: {e}"))?;
        let t3 = Instant::now();
        tracer.exit(advance_span);
        tracer.exit(span);
        steps.decide.push((t1 - t0).as_secs_f64());
        steps.advance.push((t3 - t2).as_secs_f64());
        steps.ops.record(setpoint_ok(&zone, sp));
    }
    let traced_ep = finish(zone);
    let evals = obs_counter("bo_acquisition_evaluations_total") - evals_before;
    let iters = obs_hist("bo_iterations_to_converge_iterations");
    let bo = obs_hist("bo_decision_seconds");
    tesla_obs::set_enabled(false);
    let untraced_after = untraced_pass(&mut plain)?;
    let (iter_count, iter_sum) = (iters.0 - iters_before.0, iters.1 - iters_before.1);
    let (bo_calls, bo_busy) = (bo.0 - bo_before.0, bo.1 - bo_before.1);

    let totals = tracer.totals();
    let t = |name: &str| totals.get(name).copied().unwrap_or_default();
    let decisions = replay.decisions as f64;
    let gp_bo_children = [
        "gp.hyper_new",
        "gp.hyper_append",
        "gp.hyper_select",
        "gp.posterior",
        "bo.nei",
        "forecast.predict",
    ]
    .iter()
    .map(|n| t(n).busy_s)
    .sum::<f64>();
    let decide_busy = steps.decide.sum();
    let untraced_zmps = plain.decide.len() as f64 / plain.busy_s();
    let traced_zmps = EPISODE_MINUTES as f64 / steps.busy_s();

    out.ops = steps.ops;
    out.ops.merge(plain.ops);
    out.digest = Some(traced_ep.digest);
    if let Some(e) = &failure {
        eprintln!("replay failure: {e}");
    }
    out.check("replay_ran", failure.is_none());
    out.check(
        "traced_decisions_match_untraced",
        traced_ep.digest == untraced.digest && untraced_after.digest == untraced.digest,
    );
    out.check(
        "forecast_replay_bit_exact",
        replay.forecast_mismatches == 0 && replay.forecast_pairs > 0,
    );
    out.check(
        "bo_replay_matches_outcomes",
        replay.bo_mismatches == 0 && replay.decisions > 0,
    );
    out.check(
        "bo_evals_match_program_counter",
        evals == replay.evaluations,
    );
    out.check(
        "bo_iterations_match_program_histogram",
        iter_count == replay.decisions && iter_sum == replay.iterations as f64,
    );
    out.check(
        "bo_decisions_match_program_histogram",
        bo_calls == replay.decisions,
    );
    out.check(
        "setpoints_finite_and_in_acu_range",
        steps.ops.failed == 0 && plain.ops.failed == 0,
    );

    let fit = t("forecast.fit");
    let prepare = t("forecast.prepare");
    let predict = t("forecast.predict");
    out.metric("core.decide.busy_s", decide_busy, "s");
    out.metric("core.decide.calls", steps.decide.len() as f64, "count");
    out.metric(
        "core.decide.self_s",
        decide_busy - prepare.busy_s - bo_busy,
        "s",
    );
    out.metric(
        "core.decide.host_share",
        decide_busy / steps.busy_s(),
        "ratio",
    );
    out.metric("core.advance.busy_s", steps.advance.sum(), "s");
    out.metric("core.advance.calls", steps.advance.len() as f64, "count");
    out.metric("forecast.fit.busy_s", fit.busy_s, "s");
    out.metric("forecast.prepare.busy_s", prepare.busy_s, "s");
    out.metric("forecast.prepare.calls", prepare.calls as f64, "count");
    out.metric("forecast.predict.busy_s", predict.busy_s, "s");
    out.metric("forecast.predict.calls", predict.calls as f64, "count");
    out.metric("bo.bootstrap.busy_s", t("bo.bootstrap").busy_s, "s");
    out.metric(
        "bo.bootstrap.calls",
        t("bo.bootstrap").calls as f64,
        "count",
    );
    out.metric("bo.optimize.busy_s", bo_busy, "s");
    out.metric("bo.optimize.calls", bo_calls as f64, "count");
    out.metric("bo.optimize.self_s", bo_busy - gp_bo_children, "s");
    out.metric("bo.nei.busy_s", t("bo.nei").busy_s, "s");
    out.metric("bo.nei.calls", t("bo.nei").calls as f64, "count");
    out.metric(
        "bo.evals_per_decision",
        replay.evaluations as f64 / decisions.max(1.0),
        "count",
    );
    out.metric(
        "bo.iterations_per_decision",
        replay.iterations as f64 / decisions.max(1.0),
        "count",
    );
    out.metric(
        "bo.fallback_ratio",
        replay.fallbacks as f64 / decisions.max(1.0),
        "ratio",
    );
    for name in [
        "gp.hyper_new",
        "gp.hyper_append",
        "gp.hyper_select",
        "gp.posterior",
    ] {
        out.metric(&format!("{name}.busy_s"), t(name).busy_s, "s");
        out.metric(&format!("{name}.calls"), t(name).calls as f64, "count");
    }
    out.metric("sim.cooling_energy_kwh", traced_ep.ce_kwh, "kWh");
    out.metric("sim.tsv_pct", traced_ep.tsv_pct, "%");
    out.metric("sim.ci_pct", traced_ep.ci_pct, "%");
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

/// Decodes the step counter and the monitor's error pairs from a
/// `TeslaController::save_state` blob (version 1: step, fallbacks,
/// retrains, smoothing buffer, pending predictions, error pairs; all
/// little-endian).
fn decode_state(bytes: &[u8]) -> Option<(u64, Vec<(f64, f64)>)> {
    let mut pos = 0usize;
    let mut take = |n: usize| -> Option<&[u8]> {
        let s = bytes.get(pos..pos + n)?;
        pos += n;
        Some(s)
    };
    if take(1)? != [1] {
        return None;
    }
    let u64_at = |s: &[u8]| u64::from_le_bytes(s.try_into().expect("8 bytes"));
    let u32_at = |s: &[u8]| u32::from_le_bytes(s.try_into().expect("4 bytes")) as usize;
    let step = u64_at(take(8)?);
    take(16)?; // fallbacks, retrains
    let buffer = u32_at(take(4)?);
    take(8 * buffer)?;
    let pending = u32_at(take(4)?);
    take(40 * pending)?;
    let n_pairs = u32_at(take(4)?);
    let mut pairs = Vec::with_capacity(n_pairs);
    for _ in 0..n_pairs {
        let o = f64::from_bits(u64_at(take(8)?));
        let c = f64::from_bits(u64_at(take(8)?));
        pairs.push((o, c));
    }
    Some((step, pairs))
}

/// Tallies of the per-decision replay.
#[derive(Default)]
struct Replay {
    decisions: u64,
    evaluations: u64,
    iterations: u64,
    fallbacks: u64,
    forecast_pairs: u64,
    forecast_mismatches: u64,
    bo_mismatches: u64,
}

impl Replay {
    /// Replays one decision: the noise bootstrap, the forecast's prepare
    /// and predict for every evaluated set-point (checked bit for bit
    /// against the recorded objective and constraint), then the GP
    /// hyper-search, NEI and posterior calls in the optimizer's order.
    #[allow(clippy::too_many_arguments)]
    fn decision(
        &mut self,
        tracer: &mut Tracer,
        model: &DcTimeSeriesModel,
        cfg: &TeslaConfig,
        episode: &ZoneEpisode<Testbed>,
        outcome: &BoOutcome,
        step: u64,
        pairs: &[(f64, f64)],
    ) -> Result<(), String> {
        self.decisions += 1;
        self.evaluations += outcome.evaluated.len() as u64;
        self.fallbacks += u64::from(outcome.fallback);

        let span = tracer.enter("bo.bootstrap");
        let mut monitor = PredictionErrorMonitor::new(cfg.monitor_window, cfg.prior_noise);
        monitor.restore_error_pairs(pairs);
        let noise = monitor.bootstrap_variances(cfg.n_bootstrap, cfg.seed ^ step);
        tracer.exit(span);

        let history = episode.trace();
        let l = cfg.model.horizon;
        let window = history
            .window_at(history.len() - 1, l)
            .map_err(|e| format!("window: {e}"))?;
        let d_eff = cfg.d_allowed - cfg.safety_margin;
        let span = tracer.enter("forecast.prepare");
        let prepared = model
            .prepare(&window)
            .map_err(|e| format!("prepare: {e}"))?;
        tracer.exit(span);
        for &(s, o, c) in &outcome.evaluated {
            let span = tracer.enter("forecast.predict");
            let pred = prepared.predict(Celsius::new(s));
            tracer.exit(span);
            let pair = match pred {
                Ok(pred) => (
                    objective(&pred, Celsius::new(s), cfg.kappa, cfg.interruption_weight),
                    constraint(&pred, &cfg.cold_sensors, d_eff),
                ),
                Err(_) => (f64::MIN / 2.0, f64::MAX / 2.0),
            };
            self.forecast_pairs += 1;
            if pair.0.to_bits() != o.to_bits() || pair.1.to_bits() != c.to_bits() {
                self.forecast_mismatches += 1;
            }
        }

        let bo_seed = cfg.seed ^ (step << 17);
        let n0 = (cfg.bo.n_init + TESLA_HINTS).min(outcome.evaluated.len());
        let (iterations, agrees) = replay_bo(tracer, &cfg.bo, outcome, noise, bo_seed, n0)?;
        self.iterations += iterations;
        if !agrees {
            self.bo_mismatches += 1;
        }
        Ok(())
    }
}

/// Replays `BayesianOptimizer::optimize_batched`'s GP and acquisition
/// calls for one recorded decision, feeding the recorded evaluations in
/// order. Returns the NEI call count and whether every NEI argmax, the
/// final posterior means and the chosen set-point agree with the record.
fn replay_bo(
    tracer: &mut Tracer,
    bo: &BoConfig,
    outcome: &BoOutcome,
    noise: (f64, f64),
    seed: u64,
    n0: usize,
) -> Result<(u64, bool), String> {
    let gp_err = |e: tesla_gp::GpError| format!("gp: {e}");
    let (lo, hi) = bo.bounds;
    let span_w = hi - lo;
    let xs: Vec<f64> = outcome.evaluated.iter().map(|e| e.0).collect();
    let ys_o: Vec<f64> = outcome.evaluated.iter().map(|e| e.1).collect();
    let ys_c: Vec<f64> = outcome.evaluated.iter().map(|e| e.2).collect();
    let grid: Vec<f64> = (0..bo.n_grid)
        .map(|i| lo + span_w * i as f64 / (bo.n_grid - 1) as f64)
        .collect();
    let mut pts: Vec<Vec<f64>> = grid.iter().chain(&xs[..n0]).map(|&s| vec![s]).collect();
    let (nv_o, nv_c) = (noise.0.max(1e-9), noise.1.max(1e-9));
    let os_grid = |ys: &[f64]| {
        let var = tesla_linalg::stats::variance(ys).max(1e-6);
        vec![var * 0.3, var, var * 3.0]
    };
    let mut new_search = |ys: &[f64], nv: f64| {
        let span = tracer.enter("gp.hyper_new");
        let s = MaternHyperSearch::new(
            pts[grid.len()..].to_vec(),
            ys[..n0].to_vec(),
            vec![nv; n0],
            &bo.lengthscales,
            &os_grid(&ys[..n0]),
        );
        tracer.exit(span);
        s.map_err(gp_err)
    };
    let mut search_o = new_search(&ys_o, nv_o)?;
    let mut search_c = new_search(&ys_c, nv_c)?;
    let select = |tracer: &mut Tracer, s: &MaternHyperSearch| {
        let span = tracer.enter("gp.hyper_select");
        let gp = s.select();
        tracer.exit(span);
        gp.map_err(gp_err)
    };
    let mut gp: (FixedNoiseGp<Matern52>, FixedNoiseGp<Matern52>) =
        (select(tracer, &search_o)?, select(tracer, &search_c)?);

    let appended = xs.len() - n0;
    let iterations = if appended >= bo.n_iter {
        bo.n_iter
    } else {
        appended + 1
    };
    let mut agrees = true;
    for it in 0..iterations {
        let span = tracer.enter("bo.nei");
        let scores = tesla_bo::acquisition::constrained_nei_prelifted(
            &gp.0,
            &gp.1,
            &pts,
            grid.len(),
            bo.n_mc,
            seed ^ (it as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        tracer.exit(span);
        let scores = scores.map_err(|e| format!("nei: {e}"))?;
        let seen = &xs[..n0 + it];
        let mut best: Option<(usize, f64)> = None;
        for (i, &sc) in scores.iter().enumerate() {
            if seen.iter().any(|&e| (e - grid[i]).abs() < span_w * 1e-6) {
                continue;
            }
            if best.is_none_or(|(_, b)| sc > b) {
                best = Some((i, sc));
            }
        }
        if it < appended {
            let s = xs[n0 + it];
            agrees &= best.is_some_and(|(i, sc)| sc > 0.0 && grid[i].to_bits() == s.to_bits());
            pts.push(vec![s]);
            for (search, y, nv) in [
                (&mut search_o, ys_o[n0 + it], nv_o),
                (&mut search_c, ys_c[n0 + it], nv_c),
            ] {
                let span = tracer.enter("gp.hyper_append");
                let r = search.append(vec![s], y, nv);
                tracer.exit(span);
                r.map_err(gp_err)?;
            }
            gp = (select(tracer, &search_o)?, select(tracer, &search_c)?);
        } else {
            agrees &= best.is_none_or(|(_, sc)| sc <= 0.0);
        }
    }

    let span = tracer.enter("gp.posterior");
    let post_o = gp.0.posterior(&pts[..grid.len()]);
    tracer.exit(span);
    let span = tracer.enter("gp.posterior");
    let post_c = gp.1.posterior(&pts);
    tracer.exit(span);
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    agrees &= bits(&post_o.mean) == bits(&outcome.objective_mean);
    agrees &= bits(&post_c.mean[..grid.len()]) == bits(&outcome.constraint_mean);
    let mut chosen: Option<(f64, f64)> = None;
    for i in 0..xs.len() {
        let sigma = post_c.var[grid.len() + i].sqrt().max(1e-9);
        let p_feasible = tesla_gp::normal_cdf(-post_c.mean[grid.len() + i] / sigma);
        if p_feasible >= bo.feasibility_threshold && chosen.is_none_or(|(_, b)| ys_o[i] > b) {
            chosen = Some((xs[i], ys_o[i]));
        }
    }
    let (setpoint, fallback) = chosen.map_or((lo, true), |(s, _)| (s, false));
    agrees &= setpoint.to_bits() == outcome.setpoint.to_bits() && fallback == outcome.fallback;
    Ok((iterations as u64, agrees))
}
