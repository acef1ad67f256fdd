//! `sstsp-sim` — run one synchronization scenario from the command line.
//!
//! ```text
//! sstsp-sim --protocol sstsp --nodes 100 --duration 60 --seed 1 --chart
//! sstsp-sim --protocol tsf --nodes 300 --duration 1000 --csv out.csv
//! sstsp-sim --protocol sstsp --nodes 500 --m 4 --attack 400,600,30 --chart
//! sstsp-sim trace "n=12 dur=30 seed=7 m=4 delta=300 plan=3 burst@40..90:p=0.85" --out run.jsonl
//! sstsp-sim replay run.jsonl --strict --report
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
//! | `--attack START,END,ERROR_US` | fast-beacon attacker | off |
//! | `--campaign SPEC` | coordinated-adversary campaign: `coalition:K:ERR:DELAY:START:END`, `sybil:K:ERR:START:END`, `jamref:K:START:END` | off |
//! | `--jam START,END` | jamming window (repeatable) | none |
//! | `--mesh SPEC` | mesh topology: `line`, `ring`, `rgg:SIDE:RANGE`, `bridged:D:C:R` | off |
//! | `--chart` | print the ASCII spread chart | off |
//! | `--csv PATH` | write the spread series as CSV | off |
//!
//! A `bridged` mesh fixes the station count to `D·C·R + D − 1` (islands
//! plus gateways), overriding `--nodes`, and switches SSTSP to per-domain
//! reference election; the run report then includes one line per collision
//! domain.
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
//! a recorded trace, re-executes the case with the engine driven from the
//! recorded beacon schedule, and cross-checks every event against the live
//! model. Divergences print as `BP <n> [<kind>]: expected ..., recorded
//! ...` lines. Flags: `--report` prints every divergence (default: first
//! only), `--strict` exits 1 when any divergence is found, `--out PATH`
//! writes the regenerated trace (byte-identical to the input for a
//! faithful recording). Unreadable or schema-mismatched traces exit 2.

use sstsp::scenario::{AttackerSpec, CampaignSpec, ChurnConfig, JamWindow};
use sstsp::{Network, ProtocolKind, ScenarioConfig};
use sstsp_faults::plan::{FuzzCase, MeshSpec};
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

/// `sstsp-sim replay FILE [--strict] [--report] [--out PATH]` — re-execute
/// a recorded trace and cross-check it against the live model.
fn run_replay(args: &[String]) -> ! {
    let mut file = None::<String>;
    let mut strict = false;
    let mut report_all = false;
    let mut out = None::<String>;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--strict" => strict = true,
            "--report" => report_all = true,
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
    match report.divergences.len() {
        0 => println!(
            "replay faithful: {} events byte-identical",
            report.events.len()
        ),
        n => {
            println!("{n} divergence(s); first:");
            let shown = if report_all { n } else { 1 };
            for d in report.divergences.iter().take(shown) {
                println!("  {d}");
            }
        }
    }
    eprintln!("--- telemetry ---\n{}", snap.render_text());
    std::process::exit(if strict && !report.is_faithful() {
        1
    } else {
        0
    })
}

/// Reject a malformed `start..end` sim-time window: non-finite bounds,
/// negative start, or an empty/inverted window.
fn validate_window(flag: &str, start: f64, end: f64) {
    if !start.is_finite() || !end.is_finite() {
        usage(&format!(
            "{flag}: window bounds must be finite (got {start}..{end})"
        ));
    }
    if start < 0.0 {
        usage(&format!("{flag}: window start must be >= 0 (got {start})"));
    }
    if end <= start {
        usage(&format!(
            "{flag}: window must satisfy end > start (got {start}..{end})"
        ));
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
    let mut protocol = ProtocolKind::Sstsp;
    let mut nodes = 50u32;
    let mut duration = 60.0f64;
    let mut seed = 1u64;
    let mut m = None::<u32>;
    let mut l = None::<u32>;
    let mut guard = None::<f64>;
    let mut per = None::<f64>;
    let mut churn = None::<ChurnConfig>;
    let mut ref_leaves: Vec<f64> = Vec::new();
    let mut attack = None::<AttackerSpec>;
    let mut campaign = None::<CampaignSpec>;
    let mut jams: Vec<JamWindow> = Vec::new();
    let mut mesh = None::<MeshSpec>;
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
            "--protocol" => {
                protocol = match val().to_lowercase().as_str() {
                    "tsf" => ProtocolKind::Tsf,
                    "atsp" => ProtocolKind::Atsp,
                    "tatsp" => ProtocolKind::Tatsp,
                    "satsf" => ProtocolKind::Satsf,
                    "asp" => ProtocolKind::Asp,
                    "rk" => ProtocolKind::Rk,
                    "sstsp" => ProtocolKind::Sstsp,
                    other => usage(&format!("unknown protocol '{other}'")),
                }
            }
            "--nodes" => nodes = val().parse().unwrap_or_else(|_| usage("bad --nodes")),
            "--duration" => duration = val().parse().unwrap_or_else(|_| usage("bad --duration")),
            "--seed" => seed = val().parse().unwrap_or_else(|_| usage("bad --seed")),
            "--m" => m = Some(val().parse().unwrap_or_else(|_| usage("bad --m"))),
            "--l" => l = Some(val().parse().unwrap_or_else(|_| usage("bad --l"))),
            "--guard" => guard = Some(val().parse().unwrap_or_else(|_| usage("bad --guard"))),
            "--per" => per = Some(val().parse().unwrap_or_else(|_| usage("bad --per"))),
            "--churn" => {
                let v = parse_list(&val(), 3, "--churn");
                if !v.iter().all(|x| x.is_finite()) {
                    usage("--churn: values must be finite");
                }
                if v[0] <= 0.0 {
                    usage(&format!("--churn: period must be > 0 (got {})", v[0]));
                }
                if !(0.0..=1.0).contains(&v[1]) {
                    usage(&format!(
                        "--churn: fraction must be in [0, 1] (got {})",
                        v[1]
                    ));
                }
                if v[2] < 0.0 {
                    usage(&format!("--churn: absence must be >= 0 (got {})", v[2]));
                }
                churn = Some(ChurnConfig {
                    period_s: v[0],
                    fraction: v[1],
                    absence_s: v[2],
                });
            }
            "--ref-leaves" => ref_leaves = parse_list(&val(), 0, "--ref-leaves"),
            "--attack" => {
                let v = parse_list(&val(), 3, "--attack");
                validate_window("--attack", v[0], v[1]);
                if !v[2].is_finite() {
                    usage(&format!("--attack: error_us must be finite (got {})", v[2]));
                }
                attack = Some(AttackerSpec {
                    start_s: v[0],
                    end_s: v[1],
                    error_us: v[2],
                });
            }
            "--campaign" => {
                campaign = Some(
                    val()
                        .parse()
                        .unwrap_or_else(|e| usage(&format!("bad --campaign: {e}"))),
                )
            }
            "--jam" => {
                let v = parse_list(&val(), 2, "--jam");
                validate_window("--jam", v[0], v[1]);
                jams.push(JamWindow {
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

    if !duration.is_finite() || duration <= 0.0 {
        usage(&format!(
            "--duration must be a finite positive number of seconds (got {duration})"
        ));
    }
    if nodes < 2 {
        usage(&format!(
            "--nodes must be at least 2, a network needs two stations (got {nodes})"
        ));
    }

    let mut cfg = ScenarioConfig::new(protocol, nodes, duration, seed);
    if let Some(m) = m {
        cfg = cfg.with_m(m);
    }
    if let Some(l) = l {
        cfg = cfg.with_l(l);
    }
    if let Some(g) = guard {
        cfg.protocol_config.guard_fine_us = g;
    }
    if let Some(p) = per {
        cfg.per = p;
    }
    cfg.churn = churn;
    cfg.ref_leaves_s = ref_leaves;
    cfg.attacker = attack;
    cfg.jam_windows = jams;
    if let Some(m) = mesh {
        let topo = m.topology();
        if let Some(required) = topo.required_nodes() {
            cfg.n_nodes = required;
        }
        cfg.topology = Some(topo);
    }
    if let Some(c) = campaign {
        cfg.campaign = Some(c);
        // Validate the coalition against the (possibly mesh-derived)
        // station budget here so a bad flag is a usage error, not an
        // engine assertion.
        let island = match cfg.topology {
            Some(sstsp::scenario::TopologySpec::Bridged {
                domains,
                cols,
                rows,
            }) => domains * cols * rows,
            _ => cfg.n_nodes,
        };
        if c.attackers >= island || c.attackers + 2 > cfg.n_nodes {
            usage(&format!(
                "--campaign: `attackers` = {} needs more stations than the \
                 scenario provides ({} total, {island} compromisable)",
                c.attackers, cfg.n_nodes
            ));
        }
    }

    eprintln!(
        "running {} × {} stations for {} s (seed {seed})...",
        cfg.protocol.name(),
        cfg.n_nodes,
        cfg.duration_s
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
