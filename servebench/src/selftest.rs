//! The benchmark's self-test, at a tiny size: every workload the benchmark
//! has (including any `BENCHMARK.json` leaves out), untraced and traced,
//! must emit exactly the metrics `BENCHMARK.json` names, each with its
//! unit, and answer correctly; and a run with one deliberately corrupted
//! answer must be counted as failed.

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::{self, Value};
use crate::workload::{Workload, ALL, K_RAND_SEED, TINY};
use crate::Ctx;

const SECONDS: f64 = 1.0;

pub fn run(hubserve: &Path) -> Result<(), String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json: {e}"))?;
    let spec = json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let e2e = named_units(&spec, "end_to_end")?;
    let per_layer = named_units(&spec, "per_layer")?;
    let workloads: Vec<&str> = spec
        .get("workloads")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no workloads")?
        .iter()
        .filter_map(|w| w.get("name").and_then(Value::as_str))
        .collect();
    if let Some(unknown) = workloads.iter().find(|w| Workload::parse(w).is_none()) {
        return Err(format!(
            "BENCHMARK.json names workload {unknown}, which the benchmark lacks"
        ));
    }

    for w in ALL {
        for (trace, expect) in [(false, &e2e), (true, &per_layer)] {
            let ctx = Ctx::new(
                hubserve.to_path_buf(),
                "selftest",
                &TINY,
                K_RAND_SEED,
                SECONDS,
            )?;
            let out = crate::run(&ctx, w, trace)?;
            let line = out.render();
            let what = format!("{} --trace {}", w.name(), u8::from(trace));
            let v = json::parse(&line).map_err(|e| format!("{what}: bad result line: {e}"))?;
            if v.get("correct") != Some(&Value::Bool(true))
                || v.get("failed") != Some(&Value::Num(0.0))
            {
                return Err(format!(
                    "{what}: run not correct: {line}\n{:?}",
                    out.problems
                ));
            }
            check_metrics(&v, expect).map_err(|e| format!("{what}: {e}"))?;
            println!(
                "selftest: {what}: {} metrics, all with their units",
                expect.len()
            );
        }

        let mut ctx = Ctx::new(
            hubserve.to_path_buf(),
            "selftest",
            &TINY,
            K_RAND_SEED,
            SECONDS,
        )?;
        ctx.corrupt = true;
        let out = crate::run(&ctx, w, false)?;
        let v = json::parse(&out.render()).map_err(|e| e.to_string())?;
        let failed = v.get("failed").and_then(Value::as_f64).unwrap_or(0.0);
        if failed < 1.0 || v.get("correct") != Some(&Value::Bool(false)) {
            return Err(format!(
                "{}: a corrupted answer was not counted as a failure: {}",
                w.name(),
                out.render()
            ));
        }
        println!(
            "selftest: {}: corrupted answer counted ({failed} failed)",
            w.name()
        );
    }
    println!("selftest: ok");
    Ok(())
}

fn named_units(spec: &Value, key: &str) -> Result<BTreeMap<String, String>, String> {
    spec.get(key)
        .and_then(Value::as_array)
        .ok_or_else(|| format!("BENCHMARK.json has no {key}"))?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str);
            let unit = m.get("unit").and_then(Value::as_str);
            match (name, unit) {
                (Some(n), Some(u)) => Ok((n.to_string(), u.to_string())),
                _ => Err(format!("a {key} entry lacks a name or unit")),
            }
        })
        .collect()
}

fn check_metrics(result: &Value, expect: &BTreeMap<String, String>) -> Result<(), String> {
    let got = result
        .get("metrics")
        .and_then(Value::as_object)
        .ok_or("no metrics object")?;
    for (name, unit) in expect {
        let m = got
            .get(name)
            .ok_or_else(|| format!("metric {name} missing"))?;
        if m.get("unit").and_then(Value::as_str) != Some(unit.as_str()) {
            return Err(format!("metric {name} lacks unit {unit}"));
        }
        if !m
            .get("value")
            .and_then(Value::as_f64)
            .is_some_and(f64::is_finite)
        {
            return Err(format!("metric {name} has no numeric value"));
        }
    }
    if let Some(extra) = got.keys().find(|k| !expect.contains_key(*k)) {
        return Err(format!("metric {extra} is not named in BENCHMARK.json"));
    }
    Ok(())
}
