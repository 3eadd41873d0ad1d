//! Benchmark entry point: runs one workload, prints every metric by name and
//! unit, checks the program's outputs, stamps and saves the result, and
//! ends its output with one JSON line. Also compares two saved results.
//!
//! ```text
//! tesla-perfbench --workload <name> --seed <n|default|heldout> --seconds <s> --trace <0|1>
//! tesla-perfbench compare <base.json> <candidate.json>
//! ```
//!
//! Exit codes: 0 on success, 1 when a correctness check fails, 2 on a
//! usage or run error, 3 when `compare` refuses two results.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;
use tesla_perfbench::record::{json_number, write_json_string, Record};
use tesla_perfbench::stats::median;
use tesla_perfbench::{
    fleet, headline, ingest, parse_seed, peak_rss_mb, zone, RunArgs, RunOutput, END_TO_END,
    PER_LAYER, WORKLOADS,
};

/// Where runs keep their scratch files, result records and span dumps,
/// relative to the directory the benchmark is started from.
const WORK_DIR: &str = ".perfbench";

struct Cli {
    workload: String,
    args: RunArgs,
}

fn parse_cli(argv: &[String]) -> Result<Cli, String> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        flags.insert(name, value);
    }
    let get = |name: &str| {
        flags
            .get(name)
            .copied()
            .ok_or_else(|| format!("missing --{name}"))
    };
    let workload = get("workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; choose one of {WORKLOADS:?}"
        ));
    }
    let seconds: u64 = get("seconds")?
        .parse()
        .map_err(|_| "--seconds wants a whole number".to_string())?;
    let trace = match get("trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace wants 0 or 1, got {t:?}")),
    };
    let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
    Ok(Cli {
        workload,
        args: RunArgs {
            seed: parse_seed(get("seed")?)?,
            seconds: Duration::from_secs(seconds.max(1)),
            trace,
            work_dir: cwd.join(WORK_DIR),
        },
    })
}

fn run(cli: &Cli) -> Result<RunOutput, String> {
    std::fs::create_dir_all(&cli.args.work_dir).map_err(|e| e.to_string())?;
    match cli.workload.as_str() {
        "zone_tesla" => zone::run(&cli.args),
        "fleet_lazic" => fleet::run(&cli.args),
        _ => ingest::run(&cli.args),
    }
}

/// The metrics of the final JSON line: the end-to-end set, or the
/// per-layer set with 0 for layers the workload does not exercise.
fn result_metrics(cli: &Cli, out: &RunOutput) -> Result<Vec<(String, f64, String)>, String> {
    let by_name = out.metric_map();
    if cli.args.trace {
        return Ok(PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let v = by_name.get(name).map_or(0.0, |m| m.value);
                (name.to_string(), v, unit.to_string())
            })
            .collect());
    }
    let [tail, rate] = headline(&cli.workload);
    let value = |name: &str| {
        by_name
            .get(name)
            .map(|m| m.value)
            .ok_or_else(|| format!("workload did not report {name}"))
    };
    let values = [
        value(tail)?,
        value(rate)?,
        median(&out.setup_s),
        out.peak_rss_mb.unwrap_or_else(peak_rss_mb),
    ];
    Ok(END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name.to_string(), v, unit.to_string()))
        .collect())
}

fn save(cli: &Cli, out: &RunOutput, metrics: &[(String, f64, String)]) -> Result<PathBuf, String> {
    let mut rec = Record::default();
    rec.stamp_host();
    rec.set_str("workload", &cli.workload);
    rec.set_num("seed", cli.args.seed as f64);
    rec.set_num("seconds", cli.args.seconds.as_secs_f64());
    rec.set_num("trace", f64::from(u8::from(cli.args.trace)));
    rec.set_str("config", &out.config);
    rec.set_num("attempted", out.ops.attempted as f64);
    rec.set_num("failed", out.ops.failed as f64);
    rec.set_str("correct", if out.correct() { "true" } else { "false" });
    if let Some(d) = out.digest {
        rec.set_str("setpoint_digest", format!("{d:016x}"));
    }
    for m in &out.metrics {
        rec.set_num(&format!("workload.{}", m.name), m.value);
    }
    for (name, v, _) in metrics {
        rec.set_num(&format!("metric.{name}"), *v);
    }
    let dir = cli.args.work_dir.join("results");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let stem = format!(
        "{}-seed{}-trace{}",
        cli.workload,
        cli.args.seed,
        u8::from(cli.args.trace)
    );
    let path = dir.join(format!("{stem}.json"));
    std::fs::write(&path, rec.to_json() + "\n").map_err(|e| e.to_string())?;
    if let Some(tracer) = &out.spans {
        std::fs::write(dir.join(format!("{stem}.spans.jsonl")), tracer.to_jsonl())
            .map_err(|e| e.to_string())?;
    }
    Ok(path)
}

fn print_report(cli: &Cli, out: &RunOutput, metrics: &[(String, f64, String)]) {
    println!(
        "workload {} seed {} seconds {} trace {}",
        cli.workload,
        cli.args.seed,
        cli.args.seconds.as_secs(),
        u8::from(cli.args.trace)
    );
    println!("config   {}", out.config);
    println!(
        "ops      attempted {} failed {} ({:.4}% of attempted)",
        out.ops.attempted,
        out.ops.failed,
        out.ops.failed_pct()
    );
    if let Some(d) = out.digest {
        println!("digest   set-points {d:016x}");
    }
    println!("setup    {} runs: {:?} s", out.setup_s.len(), out.setup_s);
    for m in &out.metrics {
        println!(
            "metric   {:<34} {:>16} {}",
            m.name,
            format!("{:.6}", m.value),
            m.unit
        );
    }
    if !cli.args.trace {
        println!(
            "metric   {:<34} {:>16} %",
            "failed_ops_pct",
            format!("{:.6}", out.ops.failed_pct())
        );
    }
    for (name, v, unit) in metrics {
        println!("result   {name:<34} {:>16} {unit}", format!("{v:.6}"));
    }
    for (name, ok) in &out.checks {
        println!("check    {name:<40} {}", if *ok { "ok" } else { "FAILED" });
    }
}

fn result_line(out: &RunOutput, metrics: &[(String, f64, String)]) -> String {
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.correct(),
        out.ops.attempted.max(1),
        out.ops.failed
    );
    for (i, (name, v, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            line.push_str(", ");
        }
        write_json_string(&mut line, name);
        line.push_str(&format!(": {{\"value\": {}, \"unit\": ", json_number(*v)));
        write_json_string(&mut line, unit);
        line.push('}');
    }
    line.push_str("}}");
    line
}

/// `compare <base> <candidate>`: refuses results from different hosts or
/// configurations; otherwise prints each shared metric's ratio and
/// whether simulated outcomes and set-point digests repeat.
fn compare(base: &str, cand: &str) -> ExitCode {
    let load = |p: &str| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{p}: {e}"))
            .and_then(|t| Record::from_json(&t).map_err(|e| format!("{p}: {e}")))
    };
    let (a, b) = match (load(base), load(cand)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if let Err(refusal) = a.comparable_with(&b) {
        eprintln!("{refusal}");
        return ExitCode::from(3);
    }
    for (key, va) in a.fields() {
        let (Some(x), Some(y)) = (a.num(key), b.num(key)) else {
            if key == "setpoint_digest" {
                let same = b.get(key) == Some(va);
                println!("{key:<44} {}", if same { "identical" } else { "DIFFERENT" });
            }
            continue;
        };
        if key.starts_with("metric.") || key.starts_with("workload.") {
            let ratio = if x != 0.0 { y / x } else { f64::NAN };
            println!("{key:<44} {x:>16.6} {y:>16.6} x{ratio:.4}");
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        if argv.len() != 3 {
            eprintln!("usage: tesla-perfbench compare <base.json> <candidate.json>");
            return ExitCode::from(2);
        }
        return compare(&argv[1], &argv[2]);
    }
    let cli = match parse_cli(&argv) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: tesla-perfbench --workload <{}> --seed <n|default|heldout> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let out = match run(&cli) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("error: {} run failed: {e}", cli.workload);
            return ExitCode::from(2);
        }
    };
    let metrics = match result_metrics(&cli, &out) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    print_report(&cli, &out, &metrics);
    match save(&cli, &out, &metrics) {
        Ok(path) => println!("saved    {}", path.display()),
        Err(e) => eprintln!("warning: result not saved: {e}"),
    }
    println!("{}", result_line(&out, &metrics));
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
