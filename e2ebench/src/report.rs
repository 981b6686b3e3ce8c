//! Metric names, how each is computed from the passes, and the output
//! format.  The names and units here are the ones `BENCHMARK.json` lists;
//! a test keeps the two equal.

use crate::pass::Pass;
use crate::probes::Probes;
use crate::stats::percentile;
use crate::trace::SpanLog;

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
/// p90 latency is printed too but not gated: on a noisy host it did not
/// repeat within the largest allowed bound (see README.md).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("latency_us_p50", "us"),
    ("ops_per_s", "1/s"),
    ("cpu_us_per_op", "us"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("sort.seq.partition_ns_per_elem", "ns"),
    ("sort.seq.leaf_ns_per_elem", "ns"),
    ("sort.seqqs_ms", "ms"),
    ("sort.std_ms", "ms"),
    ("sort.parallel_partition_ms", "ms"),
    ("sort.parallel_partition_speedup", "x"),
    ("sort.speedup_vs_std", "x"),
    ("sort.work_inflation", "x"),
    ("core.tasks_spawned", "count"),
    ("core.steals", "count"),
    ("core.failed_steal_rounds", "count"),
    ("core.teams_built", "count"),
    ("core.team_reuses", "count"),
    ("core.registrations", "count"),
    ("core.parks", "count"),
    ("core.wakeups", "count"),
    ("core.spurious_wakes", "count"),
    ("core.liveness_resyncs", "count"),
    ("core.cas_failures", "count"),
    ("core.tasks_injected", "count"),
    ("core.wake_latency_us_p50", "us"),
    ("core.team_reuse_ratio", "x"),
    ("core.steal_success_ratio", "x"),
    ("core.run_empty_us", "us"),
    ("core.run_team2_empty_us", "us"),
    ("service.submit_ns_p50", "ns"),
    ("service.submit_ns_p90", "ns"),
    ("service.queue_us_p50", "us"),
    ("service.run_us_p50", "us"),
    ("service.gen_late_us_p90", "us"),
    ("service.latency_us_p99", "us"),
    ("service.drain_ms", "ms"),
    ("service.offered", "count"),
    ("service.admitted", "count"),
    ("service.rejected", "count"),
    ("service.shed", "count"),
    ("service.completed", "count"),
    ("service.admission.acquire_ns", "ns"),
    ("service.gate.enter_exit_ns", "ns"),
    ("deque.injector.push_pop_ns", "ns"),
    ("core.cancel.claim_ns", "ns"),
    ("util.eventcount.notify_idle_ns", "ns"),
    ("util.epoch.pin_unpin_ns", "ns"),
    ("service.ledger_unattributed_ns", "ns"),
    ("alloc.per_sort", "count"),
    ("alloc.per_task", "count"),
    ("trace.overhead.latency_us_p50", "us"),
    ("trace.overhead.latency_us_p90", "us"),
    ("trace.overhead.ops_per_s", "1/s"),
    ("trace.overhead.cpu_us_per_op", "us"),
];

/// One printed metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Pairs `values` with the names and units of `table`, in order.
fn tabulate(table: &[(&'static str, &'static str)], values: &[f64]) -> Vec<Metric> {
    assert_eq!(table.len(), values.len(), "one value per metric");
    table
        .iter()
        .zip(values)
        .map(|(&(name, unit), &value)| Metric { name, value, unit })
        .collect()
}

/// The four end-to-end values a pass yields by itself.
fn pass_values(pass: &Pass) -> [f64; 4] {
    [
        pass.latency_us(0.5),
        pass.latency_us(0.9),
        pass.ops_per_s(),
        pass.cpu_ns_per_op() / 1e3,
    ]
}

/// End-to-end metrics of an untraced run.
pub fn end_to_end(setup_s: f64, peak_rss_mb: f64, pass: &Pass) -> Vec<Metric> {
    let [p50, _, ops, cpu] = pass_values(pass);
    tabulate(&END_TO_END, &[setup_s, peak_rss_mb, p50, ops, cpu])
}

/// `num / den`, or 0 when nothing was counted.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Percentile `p` of the durations (ns) of the spans called `name`.
fn span_ns(spans: &SpanLog, name: &str, p: f64) -> f64 {
    percentile(&mut spans.durations(name), p) as f64
}

/// The passes a traced run measured.
pub struct Traced<'a> {
    /// The workload without tracing, run just before `traced`.
    pub plain: &'a Pass,
    /// The workload with tracing.
    pub traced: &'a Pass,
    /// A traced sort pass (the workload's own, or the companion's).
    pub sort: &'a Pass,
    /// A traced service pass (the workload's own, or the companion's).
    pub service: &'a Pass,
    pub probes: &'a Probes,
}

/// Per-layer metrics of a traced run.
pub fn per_layer(t: &Traced<'_>) -> Vec<Metric> {
    let p = t.probes;
    let core = &t.traced.core;
    let per_op = |count: u64| ratio(count as f64, t.traced.ops as f64);
    let counts = t.service.service.unwrap_or_default();
    let submit_p50 = span_ns(&t.service.spans, "submit", 0.5);
    let plain = pass_values(t.plain);
    let traced = pass_values(t.traced);
    let values = [
        p.partition_ns_per_elem,
        p.leaf_ns_per_elem,
        p.seqqs_ms,
        p.std_ms,
        p.parallel_partition_ms,
        p.parallel_partition_speedup,
        ratio(p.std_ms, t.sort.latency_us(0.5) / 1e3),
        ratio(t.sort.cpu_ns_per_op() / 1e6, p.seqqs_ms),
        per_op(core.tasks_spawned),
        per_op(core.steals),
        per_op(core.failed_steal_rounds),
        per_op(core.teams_built),
        per_op(core.team_reuses),
        per_op(core.registrations),
        per_op(core.parks),
        per_op(core.wakeups),
        per_op(core.spurious_wakes),
        per_op(core.liveness_resyncs),
        per_op(core.cas_failures),
        per_op(core.tasks_injected),
        core.wake_latency.percentile_bound_us(0.5).unwrap_or(0) as f64,
        ratio(
            core.team_reuses as f64,
            (core.team_reuses + core.teams_built) as f64,
        ),
        ratio(
            core.steals as f64,
            (core.steals + core.failed_steal_rounds) as f64,
        ),
        p.run_empty_us,
        p.run_team2_empty_us,
        submit_p50,
        span_ns(&t.service.spans, "submit", 0.9),
        span_ns(&t.service.spans, "queue", 0.5) / 1e3,
        span_ns(&t.service.spans, "body", 0.5) / 1e3,
        span_ns(&t.service.spans, "late", 0.9) / 1e3,
        t.service.pooled_latency_us(0.99),
        counts.drain_ms,
        counts.offered as f64,
        counts.admitted as f64,
        counts.rejected as f64,
        counts.shed as f64,
        counts.completed as f64,
        p.acquire_ns,
        p.gate_ns,
        p.injector_ns,
        p.claim_ns,
        p.notify_ns,
        p.pin_ns,
        submit_p50 - p.ledger_sum_ns(),
        ratio(t.sort.allocations as f64, t.sort.ops as f64),
        ratio(t.service.allocations as f64, t.service.ops as f64),
        traced[0] - plain[0],
        traced[1] - plain[1],
        traced[2] - plain[2],
        traced[3] - plain[3],
    ];
    tabulate(&PER_LAYER, &values)
}

/// A number as JSON: finite values with all their digits, anything else 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The result line: the last line a run prints.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probes::Probes;
    use teamsteal_bench::report::JsonValue;

    fn parse(text: &str) -> JsonValue {
        JsonValue::parse(text).expect("valid JSON")
    }

    fn field<'a>(value: &'a JsonValue, key: &str) -> &'a JsonValue {
        value.get(key).unwrap_or_else(|| panic!("missing `{key}`"))
    }

    fn listed(spec: &JsonValue, key: &str) -> Vec<(String, String)> {
        field(spec, key)
            .as_array()
            .expect("an array")
            .iter()
            .map(|m| {
                let text = |k| field(m, k).as_str().expect("a string").to_string();
                (text("name"), text("unit"))
            })
            .collect()
    }

    fn emitted(metrics: &[Metric]) -> Vec<(String, String)> {
        metrics
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect()
    }

    #[test]
    fn emitted_metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the root"));
        let pass = Pass::default();
        assert_eq!(
            emitted(&end_to_end(0.5, 10.0, &pass)),
            listed(&spec, "end_to_end")
        );
        let probes = Probes::default();
        let traced = Traced {
            plain: &pass,
            traced: &pass,
            sort: &pass,
            service: &pass,
            probes: &probes,
        };
        assert_eq!(emitted(&per_layer(&traced)), listed(&spec, "per_layer"));
        let workloads: Vec<&str> = field(&spec, "workloads")
            .as_array()
            .expect("an array")
            .iter()
            .map(|w| field(w, "name").as_str().expect("a string"))
            .collect();
        let known: Vec<&str> = crate::Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, known);
    }

    #[test]
    fn result_line_carries_failures_and_every_metric() {
        let metrics = vec![Metric {
            name: "ops_per_s",
            value: 12.5,
            unit: "1/s",
        }];
        let line = parse(&result_json(false, 40, 3, &metrics));
        assert_eq!(field(&line, "correct").as_bool(), Some(false));
        assert_eq!(field(&line, "attempted").as_f64(), Some(40.0));
        assert_eq!(field(&line, "failed").as_f64(), Some(3.0));
        let ops = field(field(&line, "metrics"), "ops_per_s");
        assert_eq!(field(ops, "value").as_f64(), Some(12.5));
        assert_eq!(field(ops, "unit").as_str(), Some("1/s"));
        let nan = vec![Metric {
            name: "x",
            value: f64::NAN,
            unit: "s",
        }];
        parse(&result_json(true, 0, 0, &nan));
    }
}
