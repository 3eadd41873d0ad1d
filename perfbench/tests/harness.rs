//! Tests of the benchmark's own bookkeeping: exact quantiles, failure
//! ratios, result stamps and the comparison refusal, span self time, and
//! the metric catalog against `BENCHMARK.json`.

use tesla_perfbench::record::Record;
use tesla_perfbench::spans::Tracer;
use tesla_perfbench::stats::{best_of_passes, median, nearest_rank, OpCounts, Samples};
use tesla_perfbench::{digest, parse_seed, DEFAULT_SEED, END_TO_END, HELDOUT_SEED, PER_LAYER};

#[test]
fn nearest_rank_quantiles_are_exact() {
    let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(nearest_rank(&sorted, 0.5), 50.0);
    assert_eq!(nearest_rank(&sorted, 0.99), 99.0);
    assert_eq!(nearest_rank(&sorted, 0.991), 100.0);
    assert_eq!(nearest_rank(&sorted, 1.0), 100.0);
    assert_eq!(nearest_rank(&sorted, 0.0), 1.0);
    assert_eq!(nearest_rank(&[7.0], 0.99), 7.0);
}

#[test]
fn samples_quantiles_read_the_raw_buffer_in_any_order() {
    let mut s = Samples::with_capacity(1000);
    // 1000 values pushed in a scrambled order: p99 has ten values beyond it.
    for i in 0..1000u32 {
        s.push(f64::from((i * 7919) % 1000) * 1e-3);
    }
    let q = s.quantiles(&[0.5, 0.99]).expect("non-empty");
    assert_eq!(q, vec![0.499, 0.989]);
    assert_eq!(s.len(), 1000);
    assert!(Samples::default().quantiles(&[0.5]).is_none());
}

#[test]
fn median_takes_the_lower_middle_of_an_even_count() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
}

#[test]
fn best_of_passes_keeps_each_operations_fastest_time() {
    // Three passes over four operations; each pass is slowed somewhere.
    let passes = vec![
        vec![2.0, 1.0, 3.0, 4.0],
        vec![1.0, 5.0, 3.0, 8.0],
        vec![1.5, 1.0, 6.0, 4.5],
    ];
    assert_eq!(best_of_passes(&passes), vec![1.0, 1.0, 3.0, 4.0]);
    assert!(best_of_passes(&[]).is_empty());
    // The best times feed the exact quantiles like any other buffer.
    let q = Samples::from(best_of_passes(&passes)).quantiles(&[0.5]);
    assert_eq!(q, Some(vec![1.0]));
}

#[test]
fn failure_ratio_counts_against_attempts() {
    let mut ops = OpCounts::default();
    assert_eq!(ops.failed_pct(), 0.0);
    for i in 0..200 {
        ops.record(i % 50 != 0);
    }
    assert_eq!((ops.attempted, ops.failed), (200, 4));
    assert_eq!(ops.failed_pct(), 2.0);
    let mut more = OpCounts::default();
    more.record(false);
    ops.merge(more);
    assert_eq!((ops.attempted, ops.failed), (201, 5));
}

fn stamped(cpu: &str, config: &str) -> Record {
    let mut r = Record::default();
    r.set_num("host.nproc", 2.0);
    r.set_str("host.cpu", cpu);
    r.set_str("host.rustc", "rustc 1.95.0");
    r.set_str("workload", "zone_tesla");
    r.set_num("seconds", 10.0);
    r.set_num("trace", 0.0);
    r.set_str("config", config);
    r.set_num("metric.op_latency_s", 0.009_199_135);
    r
}

#[test]
fn records_round_trip_through_json() {
    let mut r = stamped("Xeon \"quoted\" \\ model", "a=1 b=2");
    r.set_str("note", "line\nbreak");
    let back = Record::from_json(&r.to_json()).expect("parses");
    assert_eq!(back, r);
    assert_eq!(back.num("metric.op_latency_s"), Some(0.009_199_135));
}

#[test]
fn comparison_refuses_a_different_host_or_config() {
    let base = stamped("Xeon", "workers=1");
    assert!(base.comparable_with(&stamped("Xeon", "workers=1")).is_ok());

    let refusal = base
        .comparable_with(&stamped("EPYC", "workers=1"))
        .expect_err("different CPU");
    assert_eq!(refusal.differing, vec!["host.cpu".to_string()]);

    let refusal = base
        .comparable_with(&stamped("EPYC", "workers=2"))
        .expect_err("different CPU and config");
    assert_eq!(
        refusal.differing,
        vec!["host.cpu".to_string(), "config".to_string()]
    );

    let mut unstamped = stamped("Xeon", "workers=1");
    unstamped =
        Record::from_json(&unstamped.to_json().replace("\"host.rustc\"", "\"x\"")).expect("parses");
    assert!(base.comparable_with(&unstamped).is_err());
}

#[test]
fn self_time_excludes_direct_children() {
    let mut t = Tracer::new(true);
    let outer = t.enter("outer");
    let inner = t.enter("inner");
    std::thread::sleep(std::time::Duration::from_millis(5));
    t.exit(inner);
    t.exit(outer);
    let totals = t.totals();
    let (o, i) = (totals["outer"], totals["inner"]);
    assert_eq!((o.calls, i.calls), (1, 1));
    assert!(i.busy_s >= 0.005);
    assert!(o.busy_s >= i.busy_s);
    assert!((o.self_s - (o.busy_s - i.busy_s)).abs() < 1e-12);
    assert_eq!(t.spans()[1].parent, Some(0));

    let mut off = Tracer::new(false);
    let s = off.enter("x");
    off.exit(s);
    assert!(off.spans().is_empty());
}

#[test]
fn seeds_parse_by_number_or_name() {
    assert_eq!(parse_seed("default"), Ok(DEFAULT_SEED));
    assert_eq!(parse_seed("heldout"), Ok(HELDOUT_SEED));
    assert_eq!(parse_seed("42"), Ok(42));
    assert!(parse_seed("-1").is_err());
    assert_ne!(DEFAULT_SEED, HELDOUT_SEED);
}

#[test]
fn digest_sees_a_one_bit_change() {
    let a = [23.0_f64, 24.5, 25.0];
    let mut b = a;
    b[1] = f64::from_bits(b[1].to_bits() ^ 1);
    assert_eq!(digest(a), digest(a));
    assert_ne!(digest(a), digest(b));
}

#[test]
fn catalog_matches_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let compact: String = text.split_whitespace().collect();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\"");
        assert!(
            compact.contains(&entry),
            "{name} ({unit}) missing from BENCHMARK.json"
        );
    }
    let listed = compact.matches("{\"name\":").count();
    assert_eq!(
        listed,
        END_TO_END.len() + PER_LAYER.len() + 3,
        "workloads + metrics"
    );
}
