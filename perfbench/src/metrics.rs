//! The metric vocabulary: every name the ledger prints, with its unit,
//! and the one JSON result line.

/// End-to-end metrics (`--trace 0`), as listed in `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("dos_wall_s", "s"),
    ("curve_s", "s"),
    ("dos_err", "ln_g"),
    ("peak_rss_mb", "MB"),
    ("serve_max_rps", "1/s"),
];

/// Per-layer metrics (`--trace 1`), as listed in `BENCHMARK.json`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("lattice.neighbor_table_s", "s"),
    ("hamiltonian.resolve_s", "s"),
    ("hamiltonian.energy_eval_s", "s"),
    ("hamiltonian.energy_eval_n", "count"),
    ("wanglandau.range_s", "s"),
    ("wanglandau.move_self_s", "s"),
    ("wanglandau.sweeps", "count"),
    ("wanglandau.moves_per_s", "1/s"),
    ("proposal.inference_s", "s"),
    ("proposal.inference_n", "count"),
    ("proposal.accept_local", "ratio"),
    ("proposal.accept_deep", "ratio"),
    ("nn.train_s", "s"),
    ("nn.train_rounds", "count"),
    ("rewl.sample_s", "s"),
    ("rewl.exchange_s", "s"),
    ("rewl.exchange_accept", "ratio"),
    ("rewl.round_trips", "count"),
    ("rewl.gather_s", "s"),
    ("rewl.checkpoint_s", "s"),
    ("rewl.checkpoint_bytes", "bytes"),
    ("rewl.checkpoint_files", "count"),
    ("hpc.allreduce_s", "s"),
    ("hpc.msgs", "count"),
    ("hpc.bytes", "bytes"),
    ("hpc.max_rank_busy_s", "s"),
    ("hpc.train_share_measured", "ratio"),
    ("hpc.train_share_modeled", "ratio"),
    ("thermo.evaluate_s", "s"),
    ("thermo.curve_us", "us"),
    ("serve.export_s", "s"),
    ("serve.load_s", "s"),
    ("serve.start_s", "s"),
    ("serve.p50_ms", "ms"),
    ("serve.p99_ms", "ms"),
    ("serve.parse_us", "us"),
    ("serve.handle_hit_us", "us"),
    ("serve.handle_miss_us", "us"),
    ("serve.predict_us", "us"),
    ("serve.serialize_us", "us"),
    ("serve.transport_us", "us"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.coalesced", "count"),
    ("serve.rejected_429", "count"),
    ("serve.expired_503", "count"),
    ("serve.gen_late_ms", "ms"),
    ("telemetry.overhead_frac", "ratio"),
];

/// Named values collected during a run.
#[derive(Debug, Default)]
pub struct Metrics {
    values: Vec<(&'static str, f64)>,
}

impl Metrics {
    /// Record `name = value` (the last write wins).
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.retain(|(n, _)| *n != name);
        self.values.push((name, value));
    }

    /// A recorded value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// The result line: every metric of `table`, in table order, with
    /// its unit. A metric the run could not measure is an error.
    ///
    /// # Errors
    /// The first metric of `table` with no finite value.
    pub fn result_line(
        &self,
        table: &[(&str, &str)],
        correct: bool,
        attempted: usize,
        failed: usize,
    ) -> Result<String, String> {
        let mut body = Vec::with_capacity(table.len());
        for (name, unit) in table {
            let v = self
                .get(name)
                .filter(|v| v.is_finite())
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            body.push(format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}"));
        }
        Ok(format!(
            "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
            body.join(",")
        ))
    }
}

/// CPU time (user + system, every thread, exited ones included) this
/// process has used, from `/proc/self/stat`; 10 ms resolution.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return f64::NAN;
    };
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields overall, in clock ticks of 1/100 s.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return f64::NAN;
    };
    let f: Vec<&str> = rest.split_whitespace().collect();
    match (
        f.get(11).and_then(|x| x.parse::<f64>().ok()),
        f.get(12).and_then(|x| x.parse::<f64>().ok()),
    ) {
        (Some(u), Some(s)) => (u + s) / 100.0,
        _ => f64::NAN,
    }
}

/// Peak resident set of this process (MB), from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepthermo::telemetry::{parse_json, JsonValue};

    fn names(v: &JsonValue, key: &str) -> Vec<(String, String)> {
        v.get(key)
            .and_then(JsonValue::as_array)
            .unwrap()
            .iter()
            .map(|m| {
                (
                    m.get("name")
                        .and_then(JsonValue::as_str)
                        .unwrap()
                        .to_string(),
                    m.get("unit")
                        .and_then(JsonValue::as_str)
                        .unwrap()
                        .to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn tables_match_the_benchmark_manifest() {
        let manifest = parse_json(include_str!("../../BENCHMARK.json")).unwrap();
        let owned = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names(&manifest, "end_to_end"), owned(END_TO_END));
        assert_eq!(names(&manifest, "per_layer"), owned(PER_LAYER));
    }

    #[test]
    fn result_line_is_json_with_every_metric() {
        let mut m = Metrics::default();
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            m.set(name, 1.5 + i as f64);
        }
        let line = m.result_line(END_TO_END, true, 10, 0).unwrap();
        let v = parse_json(&line).unwrap();
        assert_eq!(v.get("attempted").and_then(JsonValue::as_u64), Some(10));
        let got = v.get("metrics").unwrap().get("dos_err").unwrap();
        assert_eq!(got.get("unit").and_then(JsonValue::as_str), Some("ln_g"));
        m.set("dos_err", f64::NAN);
        assert!(m.result_line(END_TO_END, true, 10, 0).is_err());
    }
}
