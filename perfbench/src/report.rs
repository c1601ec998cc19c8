//! Metric catalogue, summary statistics, the environment stamp, and
//! the result line.

/// `(name, unit)` of every end-to-end metric, as `BENCHMARK.json` lists
/// them. Every untraced run reports all of them.
pub const END_TO_END: [(&str, &str); 7] = [
    ("solve_s", "s"),
    ("build_s", "s"),
    ("query_mqps", "Mq/s"),
    ("batch_min_ms", "ms"),
    ("batch_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// `(name, unit)` of every per-layer metric. Every traced run reports
/// all of them; a layer the workload does not run reports 0.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("engine.graph_build_s", "s"),
    ("engine.tree_build_s", "s"),
    ("engine.tree_build_max_s", "s"),
    ("approx.s", "s"),
    ("approx.hierarchy_s", "s"),
    ("approx.layer_solves_s", "s"),
    ("approx.layer_solve_max_s", "s"),
    ("approx.layers", "count"),
    ("approx.layer_chosen", "index"),
    ("approx.p_changed", "flag"),
    ("sparsify.skeleton_s", "s"),
    ("sparsify.skeleton_p", "p"),
    ("sparsify.skeleton_retries", "count"),
    ("sparsify.kept_frac", "frac"),
    ("sparsify.certificate_s", "s"),
    ("sparsify.certificate_weight", "weight"),
    ("packing.s", "s"),
    ("packing.trees", "count"),
    ("packing.mst_edges", "count"),
    ("two_respect.s", "s"),
    ("two_respect.max_s", "s"),
    ("two_respect.cut_queries", "count"),
    ("two_respect.interest_queries", "count"),
    ("two_respect.monge_entries", "count"),
    ("two_respect.trees_at_min_frac", "frac"),
    ("cutquery.range_nodes_per_query", "nodes/query"),
    ("cutquery.lca_steps_per_query", "steps/query"),
    ("cutquery.distinct_pair_frac", "frac"),
    ("rayon.threads", "count"),
    ("rayon.speedup_1t", "x"),
    ("rayon.workers_quarantined", "count"),
    ("oracle.stoer_wagner_s", "s"),
    ("oracle.solve_ratio", "x"),
    ("trace.coverage", "frac"),
    ("trace.overhead", "x"),
    ("trace.untraced_s", "s"),
    ("trace.traced_s", "s"),
    ("trace.traced_1t_s", "s"),
    ("trace.runs", "count"),
    ("check.fail_frac", "frac"),
];

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `q` in `(0, 1]`, and how many samples lie
/// beyond it.
pub fn percentile(values: &[f64], q: f64) -> (f64, usize) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len().max(1));
    (
        v.get(rank - 1).copied().unwrap_or(f64::NAN),
        v.len().saturating_sub(rank),
    )
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The commit the benchmark was built from, read from `.git` without
/// running git; "unknown" outside a git checkout.
pub fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    std::fs::read_to_string(format!(".git/{reference}"))
        .ok()
        .or_else(|| {
            let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .map(|l| l[..l.len() - reference.len()].to_string())
        })
        .map_or("unknown".into(), |c| c.trim().to_string())
}

/// A JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `{"key": value, ...}` from already-encoded JSON values.
pub fn object(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", quote(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// A finite metric value as JSON; non-finite values (which JSON cannot
/// carry) are an error in the benchmark itself.
pub fn number(v: f64) -> Result<String, String> {
    if v.is_finite() {
        Ok(format!("{v:?}"))
    } else {
        Err(format!("non-finite value {v}"))
    }
}

/// The result line: `correct`, `attempted`, `failed`, and `metrics`
/// holding exactly `catalogue`, in its order.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    catalogue: &[(&str, &str)],
    values: &std::collections::BTreeMap<&str, f64>,
) -> Result<String, String> {
    let mut metrics = Vec::new();
    for &(name, unit) in catalogue {
        let v = values
            .get(name)
            .copied()
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        let value = number(v).map_err(|e| format!("{name}: {e}"))?;
        metrics.push((name, object(&[("value", value), ("unit", quote(unit))])));
    }
    Ok(object(&[
        ("correct", correct.to_string()),
        ("attempted", attempted.to_string()),
        ("failed", failed.to_string()),
        ("metrics", object(&metrics)),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=1100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), (1089.0, 11));
        assert_eq!(percentile(&v, 0.5), (550.0, 550));
    }

    #[test]
    fn result_line_lists_the_catalogue_in_order() {
        let values = [("a", 1.5), ("b", 2.0), ("extra", 9.0)]
            .into_iter()
            .collect();
        let line = result_line(true, 3, 0, &[("a", "s"), ("b", "ms")], &values).unwrap();
        assert_eq!(
            line,
            r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"a": {"value": 1.5, "unit": "s"}, "b": {"value": 2.0, "unit": "ms"}}}"#
        );
        assert!(result_line(true, 1, 0, &[("missing", "s")], &values).is_err());
        let nan = [("a", f64::NAN)].into_iter().collect();
        assert!(result_line(true, 1, 0, &[("a", "s")], &nan).is_err());
    }

    /// `BENCHMARK.json` and this catalogue must name the same metrics
    /// with the same units, in the same order.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let declared = |section: &str| -> Vec<(String, String)> {
            let start = json
                .find(&format!("\"{section}\""))
                .expect("section present");
            let body = &json[start
                ..json[start..]
                    .find(']')
                    .map(|e| start + e)
                    .expect("section end")];
            body.split("\"name\": \"")
                .skip(1)
                .map(|row| {
                    let name = row.split('"').next().expect("name").to_string();
                    let unit = row
                        .split("\"unit\": \"")
                        .nth(1)
                        .expect("unit")
                        .split('"')
                        .next()
                        .expect("unit");
                    (name, unit.to_string())
                })
                .collect()
        };
        let ours = |c: &[(&str, &str)]| -> Vec<(String, String)> {
            c.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), ours(&END_TO_END));
        assert_eq!(declared("per_layer"), ours(&PER_LAYER));
    }
}
