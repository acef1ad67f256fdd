//! `sstsp-sim` — run one synchronization scenario from the command line.
//!
//! ```text
//! sstsp-sim --protocol sstsp --nodes 100 --duration 60 --seed 1 --chart
//! sstsp-sim --protocol tsf --nodes 300 --duration 1000 --csv out.csv
//! sstsp-sim --protocol sstsp --nodes 500 --m 4 --attack 400,600,30 --chart
//! sstsp-sim trace "n=12 dur=30 seed=7 m=4 delta=300 plan=3 burst@40..90:p=0.85" --out run.jsonl
//! sstsp-sim replay run.jsonl --strict
//! ```
//!
//! Flags:
//!
//! | flag | meaning | default |
//! |------|---------|---------|
//! | `--protocol tsf\|atsp\|tatsp\|satsf\|asp\|rk\|sstsp` | protocol | sstsp |
//! | `--nodes N` | station count | 50 |
//! | `--duration S` | simulated seconds | 60 |
//! | `--seed N` | master seed | 1 |
//! | `--m N` / `--l N` | SSTSP parameters | 4 / 1 |
//! | `--guard US` | fine guard time δ in µs | 300 |
//! | `--per P` | packet error rate | 1e-4 |
//! | `--churn PERIOD,FRACTION,ABSENCE` | station churn | off |
//! | `--ref-leaves T1,T2,...` | reference departure times (s) | none |
//! | `--attack START,END,ERROR_US` | fast-beacon attacker (a coalition of one) | off |
//! | `--campaign SPEC` | coordinated-adversary campaign: `coalition:K:ERR:DELAY:START:END`, `sybil:K:ERR:START:END`, `jamref:K:START:END` | off |
//! | `--jam START,END` | jamming window (repeatable) | none |
//! | `--mesh SPEC` | mesh topology: `line`, `ring`, `grid:C:R`, `rgg:SIDE:RANGE`, `bridged:D:C:R` | off |
//! | `--chart` | print the ASCII spread chart | off |
//! | `--csv PATH` | write the spread series as CSV | off |
//!
//! A `grid` mesh fixes the station count to `C·R` and a `bridged` one to
//! `D·C·R + D − 1` (islands plus gateways), overriding `--nodes`; a
//! `bridged` mesh also switches SSTSP to per-domain reference election,
//! and the run report then includes one line per collision domain.
//!
//! One function, `ScenarioConfig::check`, judges every value, here and in
//! `trace` case specs, and a value it rejects exits 2 naming its flag. A
//! run needs ≥ 2 stations; a positive duration whose µTESLA interval count
//! fits a `u32` (~4.29e8 s); m ≥ 1; δ > 0; PER in [0, 1); a churn period of
//! ≥ 1 BP (0.05 s), fraction in [0, 1], absence ≥ 0; reference departures
//! at a BP of the run (1 up to the last); jam, attack and campaign windows
//! with 0 ≤ start < end that hold the start of a BP of the run (BP k
//! starts at k·0.1 s, so a 60 s run's BPs start at 0.1 s up to 60 s, and
//! `59.95,60` holds none); an attack error ≥ 0 µs (the attacker's clock
//! runs slow); a campaign that leaves an honest island station and two
//! honest stations; `D` ≥ 2, `C`, `R` ≥ 1 within `u32`; `SIDE` and
//! `RANGE` > 0 with a connected placement at the seed; a `ring` of ≥ 3.
//! Every number must be finite. A `trace` spec's fault events must also
//! fit its run: each window starts at a BP of the run and ends no earlier,
//! each `node` is one of its stations, each `p` lies in [0, 1], a `step`'s
//! `us` is finite and an `exhaust`'s `at` is a BP of the run; a spec that
//! breaks one exits 2 naming its token.
//!
//! The `trace` subcommand runs a fault-plan case spec — the same one-line
//! format the scenario fuzzer prints for failing cases — under trace
//! recording, and emits a self-contained JSONL trace file (a versioned
//! `meta` header with the case spec, then the structured event stream:
//! beacon tx/rx, receiver verdicts, hook drops, reference changes, per-BP
//! spreads, invariant violations) to stdout or `--out PATH`. The merged
//! telemetry metrics snapshot goes to stderr.
//!
//! The `replay` subcommand is its inverse: `sstsp-sim replay FILE` parses
//! a recorded trace, re-executes its case, and diffs the live model's
//! event stream against the recording, for any topology. The first
//! divergence prints as `first divergence: BP <n> [<kind>]: expected ...,
//! recorded ...`, named by the live model's event kind (the recording's
//! past the end of the live stream); past it the streams no longer line
//! up, so nothing further is reported. Flags: `--strict` exits 1 on a
//! divergence, `--out PATH` writes the regenerated trace (byte-identical
//! to the input for a faithful recording). Unreadable or
//! schema-mismatched traces, and a case spec the trace header carries that
//! `trace` would reject, exit 2.

use sstsp::scenario::{AttackerSpec, ChurnConfig, JamWindow, ScenarioField, TopologySpec};
use sstsp::{Network, ProtocolKind, ScenarioConfig};
use sstsp_faults::plan::FuzzCase;
use sstsp_faults::{replay_trace, run_case_traced, to_replayable_jsonl};

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}\nsee `sstsp-sim` source header for flags");
    std::process::exit(2)
}

fn parse_list(s: &str, n: usize, flag: &str) -> Vec<f64> {
    let parts: Vec<f64> = s
        .split(',')
        .map(|p| {
            p.trim()
                .parse()
                .unwrap_or_else(|_| usage(&format!("bad number '{p}' in {flag}")))
        })
        .collect();
    if n > 0 && parts.len() != n {
        usage(&format!("{flag} expects {n} comma-separated numbers"));
    }
    parts
}

/// `sstsp-sim trace <SPEC>... [--out PATH]` — replay a fuzzer case spec with
/// trace recording and dump the run as JSONL. Unquoted specs arrive as
/// several argv words; all non-flag arguments are joined back with spaces.
fn run_trace(args: &[String]) -> ! {
    let mut spec_parts: Vec<&str> = Vec::new();
    let mut out = None::<String>;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => {
                out = Some(
                    it.next()
                        .unwrap_or_else(|| usage("--out needs a value"))
                        .clone(),
                )
            }
            other if other.starts_with("--") => usage(&format!("unknown trace flag '{other}'")),
            other => spec_parts.push(other),
        }
    }
    if spec_parts.is_empty() {
        usage("trace needs a case spec, e.g. `trace \"n=12 dur=30 seed=7 m=4 delta=300 plan=3 burst@40..90:p=0.85\"`");
    }
    let spec = spec_parts.join(" ");
    let case = spec
        .parse::<FuzzCase>()
        .unwrap_or_else(|e| usage(&e.to_string()));

    let guard = sstsp_telemetry::recording();
    let outcome = run_case_traced(&case);
    let snap = sstsp_telemetry::snapshot();
    drop(guard);

    let jsonl = to_replayable_jsonl(&case, &outcome.events).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    match out {
        Some(path) => {
            std::fs::write(&path, &jsonl).unwrap_or_else(|e| {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            });
            eprintln!(
                "wrote {} events (+ meta header) to {path}",
                outcome.events.len()
            );
        }
        None => print!("{jsonl}"),
    }

    eprintln!("case:       {case}");
    eprintln!(
        "result:     peak spread {:.1} µs, {} tx ok, {} guard / {} µTESLA rejections",
        outcome.result.peak_spread_us,
        outcome.result.tx_successes,
        outcome.result.guard_rejections,
        outcome.result.mutesla_rejections,
    );
    eprintln!("violations: {}", outcome.violations.len());
    for v in &outcome.violations {
        eprintln!("  {v}");
    }
    eprintln!("--- telemetry ---\n{}", snap.render_text());
    std::process::exit(if outcome.violations.is_empty() { 0 } else { 1 })
}

/// `sstsp-sim replay FILE [--strict] [--out PATH]` — re-execute a
/// recorded trace and diff it against the live model.
fn run_replay(args: &[String]) -> ! {
    let mut file = None::<String>;
    let mut strict = false;
    let mut out = None::<String>;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--strict" => strict = true,
            "--out" => {
                out = Some(
                    it.next()
                        .unwrap_or_else(|| usage("--out needs a value"))
                        .clone(),
                )
            }
            other if other.starts_with("--") => usage(&format!("unknown replay flag '{other}'")),
            other if file.is_none() => file = Some(other.to_string()),
            other => usage(&format!("replay takes one trace file, got extra '{other}'")),
        }
    }
    let file = file
        .unwrap_or_else(|| usage("replay needs a trace file (from `sstsp-sim trace --out ...`)"));
    let input = std::fs::read_to_string(&file).unwrap_or_else(|e| {
        eprintln!("cannot read {file}: {e}");
        std::process::exit(2);
    });

    let guard = sstsp_telemetry::recording();
    let report = replay_trace(&input).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    let snap = sstsp_telemetry::snapshot();
    drop(guard);

    if let Some(path) = out {
        let jsonl = report.to_jsonl().unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(1);
        });
        std::fs::write(&path, &jsonl).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        eprintln!(
            "wrote {} regenerated events (+ meta header) to {path}",
            report.events.len()
        );
    }

    eprintln!("case:       {}", report.case);
    eprintln!(
        "result:     peak spread {:.1} µs, {} tx ok, {} guard / {} µTESLA rejections",
        report.result.peak_spread_us,
        report.result.tx_successes,
        report.result.guard_rejections,
        report.result.mutesla_rejections,
    );
    eprintln!("violations: {}", report.violations.len());
    match &report.divergence {
        None => println!(
            "replay faithful: {} events byte-identical",
            report.events.len()
        ),
        Some(d) => println!("first divergence: {d}"),
    }
    eprintln!("--- telemetry ---\n{}", snap.render_text());
    std::process::exit(if strict && !report.is_faithful() {
        1
    } else {
        0
    })
}

/// The flag that sets a scenario field.
fn flag_for(field: ScenarioField) -> &'static str {
    match field {
        ScenarioField::Nodes => "--nodes",
        ScenarioField::Duration => "--duration",
        ScenarioField::M => "--m",
        ScenarioField::Guard => "--guard",
        ScenarioField::Per => "--per",
        ScenarioField::Churn => "--churn",
        ScenarioField::RefLeaves => "--ref-leaves",
        ScenarioField::Attack => "--attack",
        ScenarioField::Jam => "--jam",
        ScenarioField::Campaign => "--campaign",
        ScenarioField::Topology => "--mesh",
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("trace") {
        run_trace(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("replay") {
        run_replay(&args[1..]);
    }
    let mut cfg = ScenarioConfig::new(ProtocolKind::Sstsp, 50, 60.0, 1);
    let mut mesh = None::<TopologySpec>;
    let mut chart = false;
    let mut csv = None::<String>;

    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut val = || {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
                .clone()
        };
        match flag.as_str() {
            "--protocol" => cfg.protocol = val().parse().unwrap_or_else(|e: String| usage(&e)),
            "--nodes" => cfg.n_nodes = val().parse().unwrap_or_else(|_| usage("bad --nodes")),
            "--duration" => {
                cfg = cfg.with_duration(val().parse().unwrap_or_else(|_| usage("bad --duration")))
            }
            "--seed" => cfg.seed = val().parse().unwrap_or_else(|_| usage("bad --seed")),
            "--m" => cfg.protocol_config.m = val().parse().unwrap_or_else(|_| usage("bad --m")),
            "--l" => cfg.protocol_config.l = val().parse().unwrap_or_else(|_| usage("bad --l")),
            "--guard" => {
                cfg.protocol_config.guard_fine_us =
                    val().parse().unwrap_or_else(|_| usage("bad --guard"))
            }
            "--per" => cfg.per = val().parse().unwrap_or_else(|_| usage("bad --per")),
            "--churn" => {
                let v = parse_list(&val(), 3, "--churn");
                cfg.churn = Some(ChurnConfig {
                    period_s: v[0],
                    fraction: v[1],
                    absence_s: v[2],
                });
            }
            "--ref-leaves" => cfg.ref_leaves_s = parse_list(&val(), 0, "--ref-leaves"),
            "--attack" => {
                let v = parse_list(&val(), 3, "--attack");
                cfg.attacker = Some(AttackerSpec {
                    start_s: v[0],
                    end_s: v[1],
                    error_us: v[2],
                });
            }
            "--campaign" => {
                cfg.campaign = Some(
                    val()
                        .parse()
                        .unwrap_or_else(|e| usage(&format!("bad --campaign: {e}"))),
                )
            }
            "--jam" => {
                let v = parse_list(&val(), 2, "--jam");
                cfg.jam_windows.push(JamWindow {
                    start_s: v[0],
                    end_s: v[1],
                });
            }
            "--mesh" => {
                mesh = Some(
                    val()
                        .parse()
                        .unwrap_or_else(|e| usage(&format!("bad --mesh: {e}"))),
                )
            }
            "--chart" => chart = true,
            "--csv" => csv = Some(val()),
            other => usage(&format!("unknown flag '{other}'")),
        }
    }

    if let Some(mesh) = mesh {
        cfg = cfg.with_topology(mesh);
    }
    if let Err(e) = cfg.check() {
        usage(&format!("{}: {}", flag_for(e.field), e.reason));
    }

    eprintln!(
        "running {} × {} stations for {} s (seed {})...",
        cfg.protocol.name(),
        cfg.n_nodes,
        cfg.duration_s,
        cfg.seed
    );
    let r = Network::build(&cfg).run();

    if chart {
        println!("{}", sstsp::report::render_series_chart(&r.spread, 72, 12));
    }
    println!("protocol:            {}", r.protocol);
    println!("stations:            {}", r.n_nodes);
    println!(
        "sync latency:        {}",
        r.sync_latency_s
            .map_or("never".into(), |v| format!("{v:.2} s"))
    );
    println!(
        "steady error:        {}",
        r.steady_error_us
            .map_or("-".into(), |v| format!("{v:.1} µs"))
    );
    println!("peak spread:         {:.1} µs", r.peak_spread_us);
    println!(
        "beacons:             {} ok / {} collided / {} silent / {} jammed",
        r.tx_successes, r.tx_collisions, r.silent_windows, r.jammed_windows
    );
    println!("reference changes:   {}", r.reference_changes);
    if let Some(report) = &r.domain_report {
        for d in report {
            println!(
                "domain {}:            {} stations, reference {}, end spread {}",
                d.domain,
                d.nodes,
                d.final_reference.map_or("none".into(), |id| id.to_string()),
                d.end_spread_us.map_or("-".into(), |v| format!("{v:.1} µs")),
            );
        }
    }
    if cfg.attacker.is_some() || cfg.campaign.is_some() {
        println!("attacker became ref: {}", r.attacker_became_reference);
    }
    if r.guard_rejections + r.mutesla_rejections > 0 {
        println!(
            "rejected beacons:    {} guard / {} µTESLA",
            r.guard_rejections, r.mutesla_rejections
        );
    }
    if r.alerts > 0 {
        println!("attack alerts:       {}", r.alerts);
    }

    if let Some(path) = csv {
        std::fs::write(&path, r.spread.to_csv()).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        eprintln!("wrote {} samples to {path}", r.spread.len());
    }
}
