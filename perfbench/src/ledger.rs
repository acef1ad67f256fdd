//! The traced run: the per-layer ledger.
//!
//! Three kinds of measurement, each inside spans recorded around the layer
//! calls:
//!
//! * **Engine stage split.** Each scenario runs in three legs per round —
//!   plain, telemetry recording, and traced (recording plus the engine's
//!   own `SSTSP_PROF` stage timer, collected through the log capture sink).
//!   Every leg must reproduce the plain run's digest.
//! * **Counters.** Snapshots of the telemetry registry from the traced leg.
//! * **Kernels.** Public kernel calls timed on inputs shaped like the
//!   workloads', best batch of several.

use std::hint::black_box;
use std::time::{Duration, Instant};

use clocks::{DriftModel, Oscillator};
use mac80211::ContentionWindow;
use protocols::api::{AnchorRegistry, BeaconIntent, NodeCtx, ProtocolConfig, ReceivedBeacon};
use protocols::{SstspNode, SyncProtocol};
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha12Rng;
use rayon::ThreadPool;
use simcore::rng::StreamDomain;
use simcore::{RngStreams, SimControl, SimDuration, SimTime, Simulator};
use sstsp::{InvariantChecker, Network, TraceRecorder};
use sstsp_crypto::chain::{chain_step, chain_step_n};
use sstsp_crypto::hmac::hmac_sha256_128;
use sstsp_crypto::{IntervalSchedule, MuTeslaSigner, MuTeslaVerifier};
use sstsp_telemetry as telemetry;
use sync_analysis::SpreadTracker;
use wireless::{Channel, MeshResolver, MhAttempt, Topology, TxAttempt};

use crate::digest::{run_digest, windows_add_up};
use crate::estimate::{best, median, Tally};
use crate::plain::pool_threads;
use crate::report::{Metric, Outcome};
use crate::spans::Tracer;
use crate::workload::{fidelity, paper_seed, Size, Workload, EXPERIMENTS};

/// Timed rounds of the three legs, whatever the budget.
const MIN_LEG_ROUNDS: usize = 2;

/// The engine's stage names in `engine.prof` order, and the ledger's.
const STAGES: [(&str, &str); 6] = [
    ("events", "core.stage.events_ns"),
    ("intent", "core.stage.intent_ns"),
    ("window+rx", "core.stage.window_rx_ns"),
    ("bp_end", "core.stage.bp_end_ns"),
    ("metrics", "core.stage.metrics_ns"),
    ("tail", "core.stage.tail_ns"),
];

/// Totals parsed from `engine.prof` log lines.
#[derive(Debug, Default)]
struct Prof {
    stage_ms: [f64; 6],
    init_ms: f64,
    runs: u64,
    /// Σ nodes × BPs over the profiled runs, recovered from each run's
    /// largest stage line (`ms` over `ns/node/bp`), since experiments do not
    /// expose every run they make.
    node_bps: f64,
}

impl Prof {
    fn absorb(&mut self, events: &[telemetry::log::CapturedEvent]) {
        let mut largest = (0.0f64, 0.0f64);
        for (_, target, msg) in events {
            let Some((name, values)) = (*target == "engine.prof")
                .then(|| msg.strip_prefix("prof"))
                .flatten()
                .and_then(|rest| rest.split_once(':'))
            else {
                continue;
            };
            let mut nums = values
                .split_whitespace()
                .filter_map(|t| t.parse::<f64>().ok());
            let ms = nums.next().unwrap_or(0.0);
            let name = name.trim();
            if name == "init" {
                self.init_ms += ms;
                self.runs += 1;
                continue;
            }
            let Some(i) = STAGES.iter().position(|(s, _)| *s == name) else {
                continue;
            };
            self.stage_ms[i] += ms;
            if let Some(per) = nums.next().filter(|&p| p > 0.0 && ms > largest.0) {
                largest = (ms, ms * 1e6 / per);
            }
            if i == STAGES.len() - 1 {
                self.node_bps += largest.1;
                largest = (0.0, 0.0);
            }
        }
    }
}

/// Counter totals from the traced leg's telemetry snapshots.
#[derive(Debug, Default)]
struct Counts {
    totals: std::collections::BTreeMap<&'static str, u64>,
    runs: u64,
    bps: u64,
    /// `engine.sim.events` is a high-water gauge, so it is read only from
    /// sessions holding exactly one run.
    single_run_events: u64,
    single_run_bps: u64,
}

const COUNTERS: [&str; 14] = [
    "engine.path.fast",
    "engine.path.slow",
    "engine.window.silent",
    "engine.window.jammed",
    "engine.window.collision",
    "engine.window.success",
    "engine.beacon.rx_delivered",
    "mutesla.verify.ok",
    "mutesla.verify.wrong_interval",
    "mutesla.verify.bad_key",
    "mutesla.verify.forged_prev",
    "sstsp.accept",
    "sstsp.reject.guard",
    "campaign.tx",
];

impl Counts {
    fn absorb(&mut self, snap: &telemetry::Snapshot) {
        for key in COUNTERS {
            *self.totals.entry(key).or_insert(0) += snap.counter(key);
        }
        let runs = snap.counter("engine.path.fast") + snap.counter("engine.path.slow");
        let bps = snap.dists.get("engine.spread_us").map_or(0, |h| h.count());
        self.runs += runs;
        self.bps += bps;
        if runs == 1 {
            self.single_run_events += snap.gauge("engine.sim.events").unwrap_or(0);
            self.single_run_bps += bps;
        }
    }

    fn get(&self, key: &str) -> f64 {
        self.totals.get(key).copied().unwrap_or(0) as f64
    }

    fn per_run(&self, key: &str) -> f64 {
        ratio(self.get(key), self.runs as f64)
    }
}

/// `num / den`, or 0 when nothing was counted.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// One scenario of the traced run: executes once and returns its output
/// digest and the seconds spent in the layer being timed (`run()` for an
/// engine scenario, the whole experiment for `paper_repro`).
type Unit = Box<dyn Fn(&mut Tracer) -> Result<(u64, f64), String>>;

fn units(workload: Workload, seed: u64, size: Size) -> Vec<Unit> {
    if workload == Workload::PaperRepro {
        let fid = fidelity(size);
        let seed = workload.seeds(seed, size)[0];
        return EXPERIMENTS
            .iter()
            .map(|exp| {
                Box::new(move |t: &mut Tracer| {
                    let (out, secs) = t.span("core.experiment", |_| (exp.run)(fid, seed));
                    if out.shape_holds {
                        Ok((out.digest, secs))
                    } else {
                        Err(format!("{}: shape_holds() is false", exp.name))
                    }
                }) as Unit
            })
            .collect();
    }
    workload
        .seeds(seed, size)
        .into_iter()
        .map(|s| {
            let cfg = workload.scenario(s, size).expect("engine workload");
            Box::new(move |t: &mut Tracer| {
                let (net, _) = t.span("core.build", |_| Network::build(&cfg));
                let (r, secs) = t.span("core.run", |_| net.run());
                if windows_add_up(&cfg, &r) {
                    Ok((run_digest(&r), secs))
                } else {
                    Err(format!(
                        "seed {}: windows do not add up to the BP count",
                        cfg.seed
                    ))
                }
            }) as Unit
        })
        .collect()
}

/// The engine's stage timer, on while this guard lives: `SSTSP_PROF` set
/// and the log capture sink collecting its lines. Dropping it (a panicking
/// run included) turns both off again.
struct Profiling;

impl Profiling {
    fn start() -> Self {
        std::env::set_var("SSTSP_PROF", "1");
        telemetry::log::capture_start();
        Profiling
    }

    fn finish(self) -> Vec<telemetry::log::CapturedEvent> {
        telemetry::log::capture_take()
    }
}

impl Drop for Profiling {
    fn drop(&mut self) {
        std::env::remove_var("SSTSP_PROF");
        let _ = telemetry::log::capture_take();
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Leg {
    Plain,
    Recording,
    Traced,
}

/// What the three legs measured.
#[derive(Default)]
struct Legs {
    /// Per unit, per leg, the timed seconds of every round.
    secs: Vec<[Vec<f64>; 3]>,
    /// Reference digest per unit (`None` once the unit failed).
    digests: Vec<Option<u64>>,
    prof: Prof,
    counts: Counts,
}

fn run_legs(units: &[Unit], budget: Duration, tally: &mut Tally, t: &mut Tracer) -> Legs {
    let start = Instant::now();
    let mut legs = Legs {
        secs: vec![Default::default(); units.len()],
        digests: vec![None; units.len()],
        ..Legs::default()
    };
    // Warm-up and reference digests.
    for (i, unit) in units.iter().enumerate() {
        match tally.attempt(|| t.span("leg.warmup", |t| unit(t)).0) {
            Some(Ok((digest, _))) => legs.digests[i] = Some(digest),
            Some(Err(why)) => tally.reject(&why),
            None => {}
        }
    }
    let mut rounds = 0;
    loop {
        let round_start = Instant::now();
        for (i, unit) in units.iter().enumerate() {
            for leg in [Leg::Plain, Leg::Recording, Leg::Traced] {
                let Some(want) = legs.digests[i] else { break };
                let done = tally.attempt(|| match leg {
                    Leg::Plain => (t.span("leg.plain", |t| unit(t)).0, None),
                    Leg::Recording => {
                        let _rec = telemetry::recording();
                        (t.span("leg.recording", |t| unit(t)).0, None)
                    }
                    Leg::Traced => {
                        let prof = Profiling::start();
                        let rec = telemetry::recording();
                        let out = t.span("leg.traced", |t| unit(t)).0;
                        drop(rec);
                        let lines = prof.finish();
                        (out, Some((telemetry::snapshot(), lines)))
                    }
                });
                let Some((out, traced)) = done else {
                    legs.digests[i] = None;
                    break;
                };
                match out {
                    Ok((digest, secs)) if digest == want => {
                        legs.secs[i][leg as usize].push(secs);
                        if let Some((snap, lines)) = traced {
                            legs.counts.absorb(&snap);
                            legs.prof.absorb(&lines);
                        }
                    }
                    Ok(_) => {
                        tally.reject("a traced or recording leg changed the run's output");
                        legs.digests[i] = None;
                    }
                    Err(why) => {
                        tally.reject(&why);
                        legs.digests[i] = None;
                    }
                }
            }
        }
        rounds += 1;
        if rounds >= MIN_LEG_ROUNDS && start.elapsed() + round_start.elapsed() > budget {
            break;
        }
    }
    eprintln!(
        "{rounds} rounds of plain/recording/traced legs over {} units",
        units.len()
    );
    legs
}

/// `(slow / fast - 1) * 100`.
fn overhead_pct(slow: f64, fast: f64) -> f64 {
    (ratio(slow, fast) - 1.0) * 100.0
}

/// Time `body` in batches for about `budget` (at least three batches, each
/// on a fresh `setup()` state that is not timed); `body` returns the number
/// of calls it made. Returns the best batch's seconds per call.
fn kernel<S>(
    t: &mut Tracer,
    name: &'static str,
    budget: Duration,
    mut setup: impl FnMut() -> S,
    mut body: impl FnMut(&mut S) -> u64,
) -> f64 {
    t.span(name, |_| {
        let start = Instant::now();
        let mut per_call = f64::INFINITY;
        let mut batches = 0;
        while batches < 3 || start.elapsed() < budget {
            let mut state = setup();
            let t0 = Instant::now();
            let calls = body(&mut state);
            per_call = per_call.min(t0.elapsed().as_secs_f64() / calls.max(1) as f64);
            batches += 1;
        }
        per_call
    })
    .0
}

/// Kernel input sizes.
struct KernelInputs {
    budget: Duration,
    /// µTESLA schedule length for the sign/verify kernels (the paper's
    /// 1000 s run: 10 000 intervals + 64 spare).
    intervals: usize,
    /// Members listening to the reference in the protocol kernel.
    members: usize,
    /// BPs per protocol-kernel batch.
    protocol_bps: u64,
    /// `(domains, cols, rows)` of the mesh kernels: `mesh_n1003`'s mesh.
    mesh: (u32, u32, u32),
    /// Simulated seconds of the mesh run whose trace the telemetry
    /// kernels encode and parse.
    trace_secs: f64,
}

impl KernelInputs {
    fn for_size(size: Size) -> Self {
        match size {
            Size::Full => KernelInputs {
                budget: Duration::from_millis(150),
                intervals: 10_064,
                members: 99,
                protocol_bps: 400,
                mesh: (4, 25, 10),
                trace_secs: 3.0,
            },
            Size::Tiny => KernelInputs {
                budget: Duration::from_millis(1),
                intervals: 64,
                members: 4,
                protocol_bps: 20,
                mesh: (2, 2, 2),
                trace_secs: 1.0,
            },
        }
    }
}

/// The SSTSP protocol kernel: one elected reference beaconing to
/// `members` listeners, as on the single-hop channel. Returns seconds per
/// `on_beacon` and per `on_bp_end` call, best batch of several, and
/// whether the listeners accepted the stream.
fn protocol_kernel(t: &mut Tracer, k: &KernelInputs, seed: u64) -> (f64, f64, bool) {
    t.span("kernel.protocols.sstsp", |_| {
        let start = Instant::now();
        let (mut on_beacon, mut on_bp_end) = (f64::INFINITY, f64::INFINITY);
        let mut accepted_all = true;
        let mut batches = 0;
        while batches < 2 || start.elapsed() < k.budget {
            let n = k.members + 1;
            let mut config = ProtocolConfig::paper().with_contend_prob(1.0);
            config.total_intervals = k.protocol_bps as usize + 64;
            let mut rng = ChaCha12Rng::seed_from_u64(seed);
            let oscs: Vec<Oscillator> = DriftModel::paper().sample_population(&mut rng, n);
            let mut rngs: Vec<ChaCha12Rng> = (0..n)
                .map(|i| ChaCha12Rng::seed_from_u64(seed ^ (i as u64 + 1)))
                .collect();
            let mut nodes: Vec<SstspNode> = (0..n).map(|_| SstspNode::founding()).collect();
            let mut anchors = AnchorRegistry::new();
            let bp = |x: f64| SimTime::from_secs_f64(x * config.bp_us / 1e6);
            macro_rules! ctx {
                ($i:expr, $real:expr) => {
                    &mut NodeCtx {
                        id: $i as u32,
                        local_us: oscs[$i].local_us($real),
                        rng: &mut rngs[$i],
                        anchors: &mut anchors,
                        config: &config,
                    }
                };
            }
            for i in 0..n {
                nodes[i].init(ctx!(i, SimTime::ZERO));
            }
            // Elect node 0: founding nodes contend after l+1 silent BPs.
            for _ in 0..=config.l {
                nodes[0].on_bp_end(ctx!(0, bp(0.5)));
            }
            let intent = nodes[0].intent(ctx!(0, bp(1.0)));
            let _ = nodes[0].make_beacon(ctx!(0, bp(1.0)));
            accepted_all &= intent == BeaconIntent::Contend && nodes[0].is_reference();

            let (mut beacon_ns, mut end_ns) = (0u128, 0u128);
            for k_bp in 2..k.protocol_bps {
                let t_tx = bp(k_bp as f64);
                let t_rx = t_tx + SimDuration::from_us_f64(config.t_p_us);
                let _ = nodes[0].intent(ctx!(0, t_tx));
                let payload = nodes[0].make_beacon(ctx!(0, t_tx));
                nodes[0].on_tx_outcome(ctx!(0, t_tx), false);
                let t0 = Instant::now();
                for i in 1..n {
                    let local_rx_us = oscs[i].local_us(t_rx);
                    nodes[i].on_beacon(
                        ctx!(i, t_rx),
                        ReceivedBeacon {
                            payload,
                            local_rx_us,
                        },
                    );
                }
                let t1 = Instant::now();
                for i in 0..n {
                    nodes[i].on_bp_end(ctx!(i, t_rx));
                }
                let t2 = Instant::now();
                beacon_ns += (t1 - t0).as_nanos();
                end_ns += (t2 - t1).as_nanos();
            }
            accepted_all &= nodes[1..].iter().all(|m| m.stats.accepted > 0);
            let bps = (k.protocol_bps - 2) as f64;
            on_beacon = on_beacon.min(beacon_ns as f64 * 1e-9 / (bps * k.members as f64));
            on_bp_end = on_bp_end.min(end_ns as f64 * 1e-9 / (bps * n as f64));
            batches += 1;
        }
        (on_beacon, on_bp_end, accepted_all)
    })
    .0
}

/// All kernel timings, in `PER_LAYER` units.
fn kernels(
    workload: Workload,
    seed: u64,
    size: Size,
    tally: &mut Tally,
    t: &mut Tracer,
) -> Vec<(&'static str, f64)> {
    let k = KernelInputs::for_size(size);
    let b = k.budget;
    let mut out = Vec::new();
    let key: [u8; 16] = [0x5A; 16];

    let s = kernel(
        t,
        "kernel.crypto.chain_step",
        b,
        || key,
        |x| {
            for _ in 0..10_000 {
                *x = chain_step(black_box(x));
            }
            10_000
        },
    );
    out.push(("crypto.chain_step_ns", s * 1e9));

    // A secured beacon is 92 bytes on the wire.
    let s = kernel(
        t,
        "kernel.crypto.hmac128",
        b,
        || [0u8; 92],
        |msg| {
            for i in 0..10_000u32 {
                msg[..4].copy_from_slice(&i.to_le_bytes());
                black_box(hmac_sha256_128(&key, black_box(&msg[..])));
            }
            10_000
        },
    );
    out.push(("crypto.hmac128_ns", s * 1e9));

    let schedule = IntervalSchedule::new(0.0, 100_000.0, k.intervals);
    let payload = [0x42u8; 56];
    let s = kernel(
        t,
        "kernel.crypto.sign",
        b,
        || MuTeslaSigner::new(key, schedule),
        |signer| {
            for j in 1..=k.intervals {
                black_box(signer.sign(&payload, j));
            }
            k.intervals as u64
        },
    );
    out.push(("crypto.sign_ns", s * 1e9));

    let mut signer = MuTeslaSigner::new(key, schedule);
    let anchor = signer.anchor();
    let auths: Vec<_> = (1..=k.intervals)
        .map(|j| signer.sign(&payload, j))
        .collect();
    let mut verified = true;
    let s = kernel(
        t,
        "kernel.crypto.verify",
        b,
        || MuTeslaVerifier::new(anchor, schedule),
        |v| {
            for (j, auth) in auths.iter().enumerate() {
                let now_us = (j + 1) as f64 * schedule.bp_us;
                verified &= v.observe(&payload, auth, now_us).is_ok();
            }
            auths.len() as u64
        },
    );
    if !verified {
        tally.reject("µTESLA verifier rejected a correctly signed stream");
    }
    out.push(("crypto.verify_ns", s * 1e9));

    // `paper_repro`'s chains cover the paper's 1000 s runs, as
    // `paper_fig4`'s do.
    let intervals = workload
        .scenario(seed, size)
        .or_else(|| Workload::PaperFig4.scenario(seed, size))
        .expect("engine workload")
        .protocol_config
        .total_intervals;
    // A fresh seed per batch: `chain_step_n` memoizes its last call.
    let mut fresh = 0u8;
    let next_seed = || {
        fresh = fresh.wrapping_add(1);
        [fresh; 16]
    };
    let s = kernel(t, "kernel.crypto.anchor", b, next_seed, |seed| {
        black_box(chain_step_n(black_box(seed), intervals));
        1
    });
    out.push(("crypto.anchor_us", s * 1e6));

    let (on_beacon, on_bp_end, accepted) = protocol_kernel(t, &k, seed);
    if !accepted {
        tally.reject("protocol kernel: a listener never accepted the reference's beacons");
    }
    out.push(("protocols.sstsp.on_beacon_ns", on_beacon * 1e9));
    out.push(("protocols.sstsp.on_bp_end_ns", on_bp_end * 1e9));

    let channel = Channel::paper();
    let mut rng = ChaCha12Rng::seed_from_u64(seed);
    let window = ContentionWindow::paper();
    let lone = [TxAttempt {
        station: 0,
        slot: 0,
    }];
    let crowd: Vec<TxAttempt> = (0..5000)
        .map(|station| TxAttempt {
            station,
            slot: window.draw_slot(&mut rng),
        })
        .collect();
    for (name, metric, attempts) in [
        (
            "kernel.wireless.resolve_window.k1",
            "wireless.resolve_window_ns.k1",
            &lone[..],
        ),
        (
            "kernel.wireless.resolve_window.k5000",
            "wireless.resolve_window_ns.k5000",
            &crowd[..],
        ),
    ] {
        let s = kernel(
            t,
            name,
            b,
            || (),
            |_| {
                for _ in 0..100 {
                    black_box(channel.resolve_window(black_box(attempts)));
                }
                100
            },
        );
        out.push((metric, s * 1e9));
    }

    // `paper_fig4`'s fan-out: one beacon to 999 receivers at n=1000.
    let s = kernel(
        t,
        "kernel.wireless.deliver_batch",
        b,
        || (rng.clone(), Vec::new()),
        |(r, fates)| {
            for _ in 0..100 {
                channel.deliver_batch(r, 999, fates);
                black_box(&fates);
            }
            100 * 999
        },
    );
    out.push(("wireless.deliver_batch_ns_per_rx", s * 1e9));

    let (domains, cols, rows) = k.mesh;
    let (topology, decomp) = Topology::bridged(domains, cols, rows);
    // Steady state of an elected mesh: one reference per domain at its
    // staggered slot, every gateway relaying after them.
    let stride = 8;
    let mut attempts: Vec<MhAttempt> = decomp
        .domains
        .iter()
        .enumerate()
        .map(|(d, members)| MhAttempt {
            station: members[0],
            slot: d as u32 * stride,
            relay: false,
        })
        .collect();
    attempts.extend(
        decomp
            .bridges
            .iter()
            .enumerate()
            .map(|(i, &station)| MhAttempt {
                station,
                slot: (domains + i as u32) * stride,
                relay: true,
            }),
    );
    let s = kernel(
        t,
        "kernel.wireless.mesh_resolve",
        b,
        || MeshResolver::new(&topology, &decomp),
        |r| {
            for _ in 0..100 {
                black_box(r.resolve(&topology, &attempts, 7));
            }
            100
        },
    );
    out.push(("wireless.mesh_resolve_us", s * 1e6));

    let s = kernel(
        t,
        "kernel.wireless.mesh_setup",
        b,
        || (),
        |_| {
            let (topology, decomp) = Topology::bridged(domains, cols, rows);
            black_box(MeshResolver::new(&topology, &decomp));
            1
        },
    );
    out.push(("wireless.mesh_setup_ms", s * 1e3));

    let s = kernel(
        t,
        "kernel.mac.draw_slot",
        b,
        || rng.clone(),
        |r| {
            let mut acc = 0u32;
            for _ in 0..10_000 {
                acc ^= window.draw_slot(r);
            }
            black_box(acc);
            10_000
        },
    );
    out.push(("mac.draw_slot_ns", s * 1e9));

    let osc = Oscillator::new(1.0 + 5e-5, 37.0);
    let s = kernel(
        t,
        "kernel.clocks.local_us",
        b,
        || 0.0f64,
        |acc| {
            for i in 0..10_000u64 {
                *acc += osc.local_us(black_box(SimTime::from_us(i * 100_003)));
            }
            black_box(*acc);
            10_000
        },
    );
    out.push(("clocks.local_us_ns", s * 1e9));

    let s = kernel(
        t,
        "kernel.simcore.event",
        b,
        || Simulator::<u64>::new(SimTime::from_secs(1_000_000)),
        |sim| {
            sim.schedule_at(SimTime::from_us(1), 0);
            sim.run(|sim, ev| {
                if ev.payload < 10_000 {
                    sim.schedule_after(SimDuration::from_us(100), ev.payload + 1);
                }
                SimControl::Continue
            });
            10_001
        },
    );
    out.push(("simcore.event_ns", s * 1e9));

    let streams = RngStreams::new(seed);
    let s = kernel(
        t,
        "kernel.simcore.rng_u64",
        b,
        || streams.stream(StreamDomain::ChannelError, 0),
        |r| {
            let mut acc = 0u64;
            for _ in 0..10_000 {
                acc ^= r.next_u64();
            }
            black_box(acc);
            10_000
        },
    );
    out.push(("simcore.rng_u64_ns", s * 1e9));

    let n = workload.nodes(size) as usize;
    let clocks: Vec<f64> = (0..n).map(|i| (i as f64 * 7.31).sin() * 100.0).collect();
    let s = kernel(
        t,
        "kernel.analysis.spread_sample",
        b,
        || SpreadTracker::new("bench"),
        |tracker| {
            for i in 0..100u64 {
                tracker.sample(SimTime::from_ms(i * 100), black_box(&clocks));
            }
            100 * n as u64
        },
    );
    out.push(("analysis.spread_sample_ns_per_node", s * 1e9));

    // Encode and parse a recorded `mesh_n1003`-shaped trace.
    let mut cfg = Workload::MeshN1003
        .scenario(seed, size)
        .expect("engine workload");
    cfg.duration_s = k.trace_secs;
    let recorded = tally.attempt(|| {
        let mut recorder = TraceRecorder::new();
        t.span("core.run_recorded", |_| {
            Network::build(&cfg).run_with_hook(&mut recorder)
        });
        recorder.into_events()
    });
    let events = recorded.unwrap_or_default();
    let count = events.len().max(1) as u64;
    let jsonl = telemetry::trace::to_jsonl(&events).unwrap_or_default();
    if telemetry::parse_events(&jsonl).ok().as_ref() != Some(&events) {
        tally.reject("trace JSONL does not parse back to the recorded events");
    }
    let s = kernel(
        t,
        "kernel.telemetry.encode",
        b,
        || (),
        |_| {
            black_box(
                telemetry::trace::to_jsonl(black_box(&events))
                    .map(|s| s.len())
                    .ok(),
            );
            count
        },
    );
    out.push(("telemetry.encode_ns_per_event", s * 1e9));
    let s = kernel(
        t,
        "kernel.telemetry.parse",
        b,
        || (),
        |_| {
            black_box(
                telemetry::parse_events(black_box(&jsonl))
                    .map(|e| e.len())
                    .ok(),
            );
            count
        },
    );
    out.push(("telemetry.parse_ns_per_event", s * 1e9));
    out
}

/// `run_checked`'s overhead: `paper_fig4`'s scenario with and
/// without the invariant checker attached (best of two each). Violations
/// are not the benchmark's to judge here; the outputs must still match.
///
/// This and [`sweep_speedup`] measure `paper_repro`'s slow-path costs.
/// Like the kernels they do not depend on the workload: every traced run
/// makes the same measurement, so every workload's ledger carries them.
fn checker_overhead(seed: u64, size: Size, tally: &mut Tally, t: &mut Tracer) -> f64 {
    let cfg = Workload::PaperFig4
        .scenario(seed, size)
        .expect("engine workload");
    let mut plain = Vec::new();
    let mut checked = Vec::new();
    for _ in 0..2 {
        let done = tally.attempt(|| {
            let net = Network::build(&cfg);
            let (a, plain_s) = t.span("core.run", |_| net.run());
            let mut checker = InvariantChecker::for_scenario(&cfg);
            let net = Network::build(&cfg);
            let (b, checked_s) = t.span("core.run_checked", |_| net.run_with_hook(&mut checker));
            (run_digest(&a) == run_digest(&b), plain_s, checked_s)
        });
        match done {
            Some((true, p, c)) => {
                plain.push(p);
                checked.push(c);
            }
            Some((false, ..)) => tally.reject("the invariant checker changed the run's output"),
            None => {}
        }
    }
    if plain.is_empty() {
        return 0.0;
    }
    overhead_pct(best(&checked), best(&plain))
}

/// The sweep pool's speed-up: Table 1, `paper_repro`'s parameter sweep at
/// its experiment seed, on a one-thread pool over the same on the
/// benchmark's pool. Outputs must match across pool sizes.
fn sweep_speedup(seed: u64, size: Size, tally: &mut Tally, t: &mut Tracer) -> f64 {
    let table1 = EXPERIMENTS
        .iter()
        .find(|e| e.name == "table1")
        .expect("table1 is a paper experiment");
    let (fid, seed) = (fidelity(size), paper_seed(seed));
    let sweep =
        |threads: usize| ThreadPool::new(threads).install(|| (table1.run)(fid, seed).digest);
    let done = tally.attempt(|| {
        let (one, one_s) = t.span("sweep.1t", |_| sweep(1));
        let (many, many_s) = t.span("sweep.pool", |_| sweep(pool_threads()));
        (one == many, one_s, many_s)
    });
    match done {
        Some((true, one_s, many_s)) => ratio(one_s, many_s),
        Some((false, ..)) => {
            tally.reject("sweep output depends on the pool size");
            0.0
        }
        None => 0.0,
    }
}

/// The traced run of `workload` at `seed`: every per-layer metric.
pub fn ledger(
    workload: Workload,
    seed: u64,
    size: Size,
    budget: Duration,
    t: &mut Tracer,
) -> Outcome {
    let mut tally = Tally::default();
    let units = units(workload, seed, size);
    // One thread, so the engine's stage lines arrive run by run.
    let legs = t
        .span("legs", |t| {
            ThreadPool::new(1).install(|| run_legs(&units, budget, &mut tally, t))
        })
        .0;

    let alive: Vec<&[Vec<f64>; 3]> = legs
        .secs
        .iter()
        .zip(&legs.digests)
        .filter(|(_, d)| d.is_some())
        .map(|(s, _)| s)
        .collect();
    if alive.is_empty() {
        return Outcome::new(tally, None);
    }
    let leg_best = |leg: Leg| -> f64 { alive.iter().map(|s| best(&s[leg as usize])).sum() };
    let (plain, recording, traced) = (
        leg_best(Leg::Plain),
        leg_best(Leg::Recording),
        leg_best(Leg::Traced),
    );
    let plain_medians: Vec<f64> = alive
        .iter()
        .map(|s| median(&s[Leg::Plain as usize]))
        .collect();
    let plain_bests: Vec<f64> = alive
        .iter()
        .map(|s| best(&s[Leg::Plain as usize]))
        .collect();
    let traced_total: f64 = alive
        .iter()
        .map(|s| s[Leg::Traced as usize].iter().sum::<f64>())
        .sum();

    let p = &legs.prof;
    let c = &legs.counts;
    let mut values: Vec<(&'static str, f64)> = STAGES
        .iter()
        .zip(p.stage_ms)
        .map(|(&(_, name), ms)| (name, ratio(ms * 1e6, p.node_bps)))
        .collect();
    values.push(("core.init_ms", ratio(p.init_ms, p.runs as f64)));
    let profiled_ms = p.stage_ms.iter().sum::<f64>() + p.init_ms;
    values.push((
        "core.stage_coverage",
        ratio(profiled_ms, traced_total * 1e3),
    ));
    values.push((
        "core.fastpath_share",
        ratio(c.get("engine.path.fast"), c.runs as f64),
    ));
    values.push((
        "core.checker_overhead_pct",
        checker_overhead(seed, size, &mut tally, t),
    ));
    values.push((
        "core.sweep_speedup_2t",
        sweep_speedup(seed, size, &mut tally, t),
    ));
    values.push(("crypto.verify_ok", c.per_run("mutesla.verify.ok")));
    let rejected = c.get("mutesla.verify.wrong_interval")
        + c.get("mutesla.verify.bad_key")
        + c.get("mutesla.verify.forged_prev");
    values.push(("crypto.verify_rejected", ratio(rejected, c.runs as f64)));
    values.push((
        "protocols.sstsp.accept_ratio",
        ratio(c.get("sstsp.accept"), c.get("engine.beacon.rx_delivered")),
    ));
    values.push((
        "protocols.sstsp.guard_rejects",
        c.per_run("sstsp.reject.guard"),
    ));
    let windows: f64 = ["silent", "jammed", "collision", "success"]
        .iter()
        .map(|w| c.get(&format!("engine.window.{w}")))
        .sum();
    values.push((
        "wireless.window_success_ratio",
        ratio(c.get("engine.window.success"), windows),
    ));
    values.push((
        "wireless.rx_per_bp",
        ratio(c.get("engine.beacon.rx_delivered"), c.bps as f64),
    ));
    values.push((
        "simcore.events_per_bp",
        ratio(c.single_run_events as f64, c.single_run_bps as f64),
    ));
    values.push(("attacks.campaign_tx", c.per_run("campaign.tx")));
    values.push((
        "telemetry.recording_overhead_pct",
        overhead_pct(recording, plain),
    ));
    values.push(("bench.trace_overhead_pct", overhead_pct(traced, plain)));
    values.push((
        "bench.host_noise",
        ratio(median(&plain_medians), median(&plain_bests)),
    ));
    values.extend(kernels(workload, seed, size, &mut tally, t));

    let metrics = crate::report::PER_LAYER
        .iter()
        .map(|decl| {
            let value = values
                .iter()
                .find(|(name, _)| *name == decl.name)
                .map_or(f64::NAN, |&(_, v)| v);
            Metric::new(decl.name, decl.unit, value)
        })
        .collect();
    Outcome::new(tally, Some(metrics))
}
