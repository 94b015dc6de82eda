//! `corpus-cold`: the paper's traffic. The seven Figure 6 programs and
//! their seven seeded bugs, each checked cold by `check_program` at one
//! worker with its own VC cache, in a seed-shuffled round-robin order so
//! that host drift hits every input alike.

use std::collections::BTreeSet;
use std::time::Instant;

use rsc_core::check_program;

use crate::common::{self, Counters, Outcome, Settings};
use perfbench::trace::Attribution;

struct Input {
    name: String,
    text: String,
    expect: BTreeSet<String>,
}

/// The error codes a golden diagnostic file pins (`error[R0008] …`).
pub fn golden_codes(path: &str) -> Result<BTreeSet<String>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let codes: BTreeSet<String> = text
        .lines()
        .filter_map(|l| l.strip_prefix("error[")?.split(']').next())
        .map(str::to_string)
        .collect();
    if codes.is_empty() {
        return Err(format!("{path} pins no error code"));
    }
    Ok(codes)
}

/// The corpus program `name`, read from the checkout.
pub fn corpus_text(name: &str) -> Result<String, String> {
    let path = format!("benchmarks/{name}.rsc");
    std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))
}

/// Clean programs are safe; each seeded bug carries the codes its golden
/// file pins.
fn load_inputs() -> Result<Vec<Input>, String> {
    let mut inputs = Vec::new();
    for name in rsc_bench::benchmark_names() {
        inputs.push(Input {
            name: name.to_string(),
            text: corpus_text(name)?,
            expect: BTreeSet::new(),
        });
    }
    for &(name, from, to) in rsc_bench::seeded_mutations() {
        let clean = corpus_text(name)?;
        if !clean.contains(from) {
            return Err(format!("{name}: seeded-bug site `{from}` not found"));
        }
        inputs.push(Input {
            name: format!("{name}+bug"),
            text: clean.replacen(from, to, 1),
            expect: golden_codes(&format!("tests/golden/seeded-{name}.diag"))?,
        });
    }
    Ok(inputs)
}

/// One cold check with its verdict compared to the known answer.
fn check(input: &Input, counters: &mut Counters) -> Result<(), String> {
    let r = common::guarded(|| check_program(&input.text, common::options()))
        .map_err(|e| format!("{}: {e}", input.name))?;
    common::count_check(counters, &r);
    common::verdict(&common::error_codes(&r), &input.expect, &input.name)
}

pub fn run(settings: &Settings) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut inputs = Vec::new();
    let repeats = if settings.trace {
        1
    } else {
        common::SETUP_REPEATS
    };
    for _ in 0..repeats {
        let t = Instant::now();
        inputs = load_inputs()?;
        for input in &inputs {
            out.op(check(input, &mut Counters::new()));
        }
        setups.push(t.elapsed().as_secs_f64());
    }
    let loc: usize = inputs.iter().map(|i| rsc_bench::count_loc(&i.text)).sum();
    let mut order: Vec<usize> = (0..inputs.len()).collect();
    common::Rng::new(settings.seed, 1).shuffle(&mut order);

    let mut by_input: Vec<Vec<f64>> = vec![Vec::new(); inputs.len()];
    let mut walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut first: Option<Counters> = None;
    let mut layers = Attribution::default();
    let mut spans_per_pass = Counters::new();
    let passes = common::timed_passes(settings, inputs.len(), |pass, tracing| {
        let mut counters = Counters::new();
        if tracing {
            common::begin_traced_pass();
        }
        let t = Instant::now();
        for &i in &order {
            let op = Instant::now();
            let _sp = tracing.then(|| rsc_obs::span(common::OP_SPAN));
            let result = check(&inputs[i], &mut counters);
            drop(_sp);
            if !tracing {
                by_input[i].push(op.elapsed().as_secs_f64() * 1e3);
            }
            out.op(result);
        }
        let wall = t.elapsed().as_secs_f64();
        if tracing {
            let pt = common::end_traced_pass();
            layers.add(&pt.attribution);
            if traced_walls.is_empty() {
                spans_per_pass = pt.counts;
            }
            traced_walls.push(wall);
        } else {
            walls.push(wall);
        }
        match &first {
            None => first = Some(counters),
            Some(f) => common::same_counters(f, &counters, pass, &mut out),
        }
    });

    let counters = first.unwrap_or_default();
    out.note("workers", 1);
    out.note("inputs", inputs.len());
    out.note("loc_per_pass", loc);
    out.note("passes", passes);
    out.note(
        "order",
        order
            .iter()
            .map(|&i| inputs[i].name.as_str())
            .collect::<Vec<_>>()
            .join(","),
    );
    out.note("counters_per_pass", format!("{counters:?}"));
    if settings.trace {
        let mut c = counters;
        c.extend(spans_per_pass);
        common::report_counters(&mut out, &c, passes);
        // Each check owns its VC cache, so there is no size to report.
        let get = |k: &str| c.get(k).copied().unwrap_or(0);
        common::report_cache(&mut out, get("cache_hits"), get("cache_misses"), 0);
        common::report_layers(&mut out, &layers, traced_walls.len(), &traced_walls, &walls);
    } else {
        let names: Vec<String> = inputs.iter().map(|i| i.name.clone()).collect();
        common::report_latency(&mut out, &by_input, &names);
        common::report_pass_rate(&mut out, loc, &walls, &setups);
    }
    Ok(out)
}
