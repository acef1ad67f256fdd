//! Fault plans and the one-line replayable case spec.
//!
//! A [`FaultPlan`] is a list of sim-time-scheduled [`FaultEvent`]s plus the
//! seed of the fault layer's own RNG stream (per-delivery corruption draws
//! never touch the engine's streams). A [`FuzzCase`] bundles a plan with the
//! scenario dimensions the fuzzer sweeps (N, duration, seed, m, δ) and
//! serializes to a single whitespace-separated line that parses back
//! losslessly — every reported reproducer is replayable from its printed
//! spec alone.

use std::fmt;
use std::str::FromStr;

use sstsp::scenario::{CampaignSpec, ProtocolKind, ScenarioConfig, ScenarioField, TopologySpec};

/// Which field of a secured beacon a corruption fault damages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptField {
    /// Flip a mid-weight bit of the TSF timestamp.
    Timestamp,
    /// Flip bits of the µTESLA MAC.
    Mac,
    /// Flip bits of the disclosed chain element.
    Disclosed,
    /// Truncate the frame: the µTESLA trailer is lost and the beacon
    /// degrades to a plain TSF beacon.
    Truncate,
}

impl CorruptField {
    fn token(self) -> &'static str {
        match self {
            CorruptField::Timestamp => "ts",
            CorruptField::Mac => "mac",
            CorruptField::Disclosed => "key",
            CorruptField::Truncate => "trunc",
        }
    }

    fn parse(s: &str) -> Result<Self, SpecError> {
        Ok(match s {
            "ts" => CorruptField::Timestamp,
            "mac" => CorruptField::Mac,
            "key" => CorruptField::Disclosed,
            "trunc" => CorruptField::Truncate,
            _ => return Err(SpecError(format!("unknown corrupt field `{s}`"))),
        })
    }
}

/// One class of injectable fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Extra packet loss composed with the channel PER over the window.
    BurstLoss {
        /// Added loss probability in `[0, 1]`.
        p: f64,
    },
    /// Per-delivery beacon corruption over the window.
    Corrupt {
        /// Which field gets damaged.
        field: CorruptField,
        /// Per-delivery corruption probability in `[0, 1]`.
        p: f64,
    },
    /// Crash a station at the window start.
    Crash {
        /// Station to crash.
        node: u32,
        /// BPs until it reboots and rejoins; `None` = permanent.
        rejoin_after_bps: Option<u64>,
    },
    /// Crash whichever station holds the reference role at the window
    /// start.
    KillReference {
        /// BPs until it reboots and rejoins; `None` = permanent.
        rejoin_after_bps: Option<u64>,
    },
    /// Step a station's hardware clock at the window start.
    ClockStep {
        /// Affected station.
        node: u32,
        /// Signed step, µs.
        delta_us: f64,
    },
    /// Freeze a station's hardware clock for the window.
    ClockFreeze {
        /// Affected station.
        node: u32,
    },
    /// Drop secured beacons at receivers over the window — the µTESLA
    /// disclosure-loss fault (disclosures ride in the next beacon, so
    /// losing beacons is losing disclosures; the verifier's chain-walk
    /// recovery must absorb it).
    DisclosureLoss {
        /// Per-delivery drop probability in `[0, 1]`.
        p: f64,
    },
    /// Jam the channel for the window.
    Jam,
    /// Crash every non-gateway member of one collision domain at the
    /// window start (mesh cases with a bridged topology only; no-op
    /// otherwise). The index wraps modulo the domain count so shrunk
    /// cases stay valid.
    CrashDomain {
        /// Collision-domain index.
        domain: u32,
        /// BPs until the members reboot; `None` = permanent.
        rejoin_after_bps: Option<u64>,
    },
    /// Crash one gateway (bridge) station of a bridged mesh at the window
    /// start (no-op without a decomposition). Wraps modulo bridge count.
    KillBridge {
        /// Bridge index.
        bridge: u32,
        /// BPs until the gateway reboots; `None` = permanent.
        rejoin_after_bps: Option<u64>,
    },
    /// Shorten every station's hash chain to `intervals` so the chains
    /// exhaust mid-run (EXPERIMENTS.md deviation #5: the paper never
    /// discusses re-keying). Applied before the network is built; the
    /// event window starts at the exhaustion BP.
    ChainExhaust {
        /// Chain length in intervals (= the exhaustion BP index).
        intervals: u64,
    },
}

/// A fault with its activation window (BP indices, inclusive on both ends;
/// point events have `start_bp == end_bp`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// First BP the fault is active in.
    pub start_bp: u64,
    /// Last BP the fault is active in.
    pub end_bp: u64,
    /// What happens.
    pub kind: FaultKind,
}

impl FaultEvent {
    /// Whether the fault is active at `bp`.
    pub fn active_at(&self, bp: u64) -> bool {
        bp >= self.start_bp && bp <= self.end_bp
    }

    /// Whether the event can act in a run of `total_bps` BPs on `n_nodes`
    /// stations: its window starts at a BP of the run (they count from 1)
    /// and does not end before it starts, its station is one of the run's,
    /// its probability lies in [0, 1], its clock step is finite, and its
    /// chain exhausts at a BP of the run.
    fn check(&self, n_nodes: u32, total_bps: u64) -> Result<(), SpecError> {
        let err = |msg: String| Err(SpecError(msg));
        let (start, end) = (self.start_bp, self.end_bp);
        if start == 0 || start > total_bps {
            return err(format!(
                "the window must start at a BP of the run, 1..={total_bps}; got {start}"
            ));
        }
        if end < start {
            return err(format!("the window ends at BP {end}, before it starts"));
        }
        match self.kind {
            FaultKind::Crash { node, .. }
            | FaultKind::ClockStep { node, .. }
            | FaultKind::ClockFreeze { node }
                if node >= n_nodes =>
            {
                err(format!(
                    "`node` {node} is not one of the run's {n_nodes} stations"
                ))
            }
            FaultKind::BurstLoss { p }
            | FaultKind::Corrupt { p, .. }
            | FaultKind::DisclosureLoss { p }
                if !(0.0..=1.0).contains(&p) =>
            {
                err(format!("`p` must be in [0, 1], got {p}"))
            }
            FaultKind::ClockStep { delta_us, .. } if !delta_us.is_finite() => {
                err(format!("`us` must be finite, got {delta_us}"))
            }
            FaultKind::ChainExhaust { intervals } if intervals == 0 || intervals > total_bps => {
                err(format!(
                    "`at` must be a BP of the run, 1..={total_bps}; got {intervals}"
                ))
            }
            _ => Ok(()),
        }
    }
}

/// A composable, deterministic fault schedule.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed of the fault layer's own RNG stream (corruption/loss draws).
    pub seed: u64,
    /// The scheduled faults.
    pub events: Vec<FaultEvent>,
}

/// A fuzzer case: scenario dimensions plus the fault plan. `Display`
/// produces the one-line spec; `FromStr` parses it back (round-trip exact —
/// floats print in shortest-round-trip form).
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzCase {
    /// Network size.
    pub n: u32,
    /// Simulated duration, seconds.
    pub duration_s: f64,
    /// Scenario master seed.
    pub seed: u64,
    /// SSTSP aggressiveness parameter m.
    pub m: u32,
    /// Fine guard time δ, µs.
    pub guard_fine_us: f64,
    /// Topology dimension (`None` = single-hop IBSS). A grid or bridged
    /// mesh fixes the station count and overrides `n`.
    pub mesh: Option<TopologySpec>,
    /// Coordinated-adversary campaign (`None` = all stations honest).
    pub campaign: Option<CampaignSpec>,
    /// The fault schedule.
    pub plan: FaultPlan,
}

impl FuzzCase {
    /// A fault-free case at the repo's quick-check dimensions.
    pub fn base(n: u32, duration_s: f64, seed: u64) -> Self {
        FuzzCase {
            n,
            duration_s,
            seed,
            m: 4,
            guard_fine_us: 300.0,
            mesh: None,
            campaign: None,
            plan: FaultPlan::default(),
        }
    }

    /// Number of beacon periods this case simulates.
    pub fn total_bps(&self) -> u64 {
        self.scenario().total_bps()
    }

    /// Materialize the scenario: single-hop SSTSP with the case's
    /// dimensions, no scripted churn or departures (the fault plan supplies
    /// all disturbances), and the chain shortened if the plan carries a
    /// [`FaultKind::ChainExhaust`] event.
    pub fn scenario(&self) -> ScenarioConfig {
        let mut cfg = ScenarioConfig::new(ProtocolKind::Sstsp, self.n, self.duration_s, self.seed);
        if let Some(mesh) = self.mesh {
            cfg = cfg.with_topology(mesh);
        }
        cfg.campaign = self.campaign;
        cfg.protocol_config.m = self.m;
        cfg.protocol_config.guard_fine_us = self.guard_fine_us;
        for ev in &self.plan.events {
            if let FaultKind::ChainExhaust { intervals } = ev.kind {
                cfg.protocol_config.total_intervals = intervals as usize;
            }
        }
        cfg
    }
}

impl fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", kind_token(&self.kind))?;
        write!(f, "@{}..{}", self.start_bp, self.end_bp)?;
        match self.kind {
            FaultKind::BurstLoss { p } | FaultKind::DisclosureLoss { p } => write!(f, ":p={p}"),
            FaultKind::Corrupt { field, p } => write!(f, ":field={},p={p}", field.token()),
            FaultKind::Crash {
                node,
                rejoin_after_bps,
            } => write!(f, ":node={node},rejoin={}", rejoin_token(rejoin_after_bps)),
            FaultKind::KillReference { rejoin_after_bps } => {
                write!(f, ":rejoin={}", rejoin_token(rejoin_after_bps))
            }
            FaultKind::ClockStep { node, delta_us } => write!(f, ":node={node},us={delta_us}"),
            FaultKind::ClockFreeze { node } => write!(f, ":node={node}"),
            FaultKind::Jam => Ok(()),
            FaultKind::CrashDomain {
                domain,
                rejoin_after_bps,
            } => write!(
                f,
                ":domain={domain},rejoin={}",
                rejoin_token(rejoin_after_bps)
            ),
            FaultKind::KillBridge {
                bridge,
                rejoin_after_bps,
            } => write!(
                f,
                ":bridge={bridge},rejoin={}",
                rejoin_token(rejoin_after_bps)
            ),
            FaultKind::ChainExhaust { intervals } => write!(f, ":at={intervals}"),
        }
    }
}

fn kind_token(kind: &FaultKind) -> &'static str {
    match kind {
        FaultKind::BurstLoss { .. } => "burst",
        FaultKind::Corrupt { .. } => "corrupt",
        FaultKind::Crash { .. } => "crash",
        FaultKind::KillReference { .. } => "killref",
        FaultKind::ClockStep { .. } => "step",
        FaultKind::ClockFreeze { .. } => "freeze",
        FaultKind::DisclosureLoss { .. } => "discloss",
        FaultKind::Jam => "jam",
        FaultKind::CrashDomain { .. } => "crashdom",
        FaultKind::KillBridge { .. } => "killbridge",
        FaultKind::ChainExhaust { .. } => "exhaust",
    }
}

fn rejoin_token(r: Option<u64>) -> String {
    match r {
        Some(bps) => bps.to_string(),
        None => "never".to_string(),
    }
}

impl fmt::Display for FuzzCase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} dur={} seed={} m={} delta={} plan={}",
            self.n, self.duration_s, self.seed, self.m, self.guard_fine_us, self.plan.seed
        )?;
        if let Some(mesh) = self.mesh {
            write!(f, " mesh={mesh}")?;
        }
        if let Some(campaign) = self.campaign {
            write!(f, " campaign={campaign}")?;
        }
        for ev in &self.plan.events {
            write!(f, " {ev}")?;
        }
        Ok(())
    }
}

/// A malformed case spec.
#[derive(Debug, Clone)]
pub struct SpecError(pub String);

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad case spec: {}", self.0)
    }
}

impl std::error::Error for SpecError {}

fn parse_num<T: FromStr>(key: &str, v: &str) -> Result<T, SpecError> {
    v.parse()
        .map_err(|_| SpecError(format!("bad value `{v}` for `{key}`")))
}

fn split_kv<'a>(token: &'a str, what: &str) -> Result<(&'a str, &'a str), SpecError> {
    token
        .split_once('=')
        .ok_or_else(|| SpecError(format!("expected key=value in {what}, got `{token}`")))
}

fn parse_rejoin(v: &str) -> Result<Option<u64>, SpecError> {
    if v == "never" {
        Ok(None)
    } else {
        parse_num("rejoin", v).map(Some)
    }
}

impl FromStr for FaultEvent {
    type Err = SpecError;

    fn from_str(s: &str) -> Result<Self, SpecError> {
        let (head, args) = match s.split_once(':') {
            Some((h, a)) => (h, Some(a)),
            None => (s, None),
        };
        let (kind_tok, window) = head
            .split_once('@')
            .ok_or_else(|| SpecError(format!("expected kind@start..end in `{s}`")))?;
        let (start, end) = window
            .split_once("..")
            .ok_or_else(|| SpecError(format!("expected start..end in `{s}`")))?;
        let start_bp: u64 = parse_num("start", start)?;
        let end_bp: u64 = parse_num("end", end)?;

        // Collect the comma-separated key=value arguments.
        let mut node: Option<u32> = None;
        let mut p: Option<f64> = None;
        let mut field: Option<CorruptField> = None;
        let mut rejoin: Option<Option<u64>> = None;
        let mut us: Option<f64> = None;
        let mut at: Option<u64> = None;
        let mut domain: Option<u32> = None;
        let mut bridge: Option<u32> = None;
        for token in args.unwrap_or("").split(',').filter(|t| !t.is_empty()) {
            let (k, v) = split_kv(token, "event args")?;
            match k {
                "node" => node = Some(parse_num(k, v)?),
                "p" => p = Some(parse_num(k, v)?),
                "field" => field = Some(CorruptField::parse(v)?),
                "rejoin" => rejoin = Some(parse_rejoin(v)?),
                "us" => us = Some(parse_num(k, v)?),
                "at" => at = Some(parse_num(k, v)?),
                "domain" => domain = Some(parse_num(k, v)?),
                "bridge" => bridge = Some(parse_num(k, v)?),
                _ => return Err(SpecError(format!("unknown event arg `{k}`"))),
            }
        }
        let missing = |what: &str| SpecError(format!("`{kind_tok}` needs `{what}`"));
        let kind = match kind_tok {
            "burst" => FaultKind::BurstLoss {
                p: p.ok_or_else(|| missing("p"))?,
            },
            "corrupt" => FaultKind::Corrupt {
                field: field.ok_or_else(|| missing("field"))?,
                p: p.ok_or_else(|| missing("p"))?,
            },
            "crash" => FaultKind::Crash {
                node: node.ok_or_else(|| missing("node"))?,
                rejoin_after_bps: rejoin.ok_or_else(|| missing("rejoin"))?,
            },
            "killref" => FaultKind::KillReference {
                rejoin_after_bps: rejoin.ok_or_else(|| missing("rejoin"))?,
            },
            "step" => FaultKind::ClockStep {
                node: node.ok_or_else(|| missing("node"))?,
                delta_us: us.ok_or_else(|| missing("us"))?,
            },
            "freeze" => FaultKind::ClockFreeze {
                node: node.ok_or_else(|| missing("node"))?,
            },
            "discloss" => FaultKind::DisclosureLoss {
                p: p.ok_or_else(|| missing("p"))?,
            },
            "jam" => FaultKind::Jam,
            "crashdom" => FaultKind::CrashDomain {
                domain: domain.ok_or_else(|| missing("domain"))?,
                rejoin_after_bps: rejoin.ok_or_else(|| missing("rejoin"))?,
            },
            "killbridge" => FaultKind::KillBridge {
                bridge: bridge.ok_or_else(|| missing("bridge"))?,
                rejoin_after_bps: rejoin.ok_or_else(|| missing("rejoin"))?,
            },
            "exhaust" => FaultKind::ChainExhaust {
                intervals: at.ok_or_else(|| missing("at"))?,
            },
            _ => return Err(SpecError(format!("unknown fault kind `{kind_tok}`"))),
        };
        Ok(FaultEvent {
            start_bp,
            end_bp,
            kind,
        })
    }
}

impl FromStr for FuzzCase {
    type Err = SpecError;

    fn from_str(s: &str) -> Result<Self, SpecError> {
        let mut n = None;
        let mut dur = None;
        let mut seed = None;
        let mut m = None;
        let mut delta = None;
        let mut plan_seed = None;
        let mut mesh = None;
        let mut campaign = None;
        let mut events = Vec::new();
        // Name the offending token in every error: a failing reproducer
        // spec is a long line, and "bad value" without the token forces a
        // manual bisection.
        let in_token = |token: &str| {
            let token = token.to_string();
            move |SpecError(msg)| SpecError(format!("in `{token}`: {msg}"))
        };
        for token in s.split_whitespace() {
            if token.contains('@') {
                events.push(token.parse().map_err(in_token(token))?);
                continue;
            }
            let (k, v) = split_kv(token, "case dims")?;
            match k {
                "n" => n = Some(parse_num(k, v)?),
                "dur" => dur = Some(parse_num(k, v)?),
                "seed" => seed = Some(parse_num(k, v)?),
                "m" => m = Some(parse_num(k, v)?),
                "delta" => delta = Some(parse_num(k, v)?),
                "plan" => plan_seed = Some(parse_num(k, v)?),
                "mesh" => {
                    mesh = Some(
                        v.parse::<TopologySpec>()
                            .map_err(SpecError)
                            .map_err(in_token(token))?,
                    )
                }
                "campaign" => {
                    campaign = Some(
                        v.parse::<CampaignSpec>()
                            .map_err(SpecError)
                            .map_err(in_token(token))?,
                    )
                }
                _ => return Err(SpecError(format!("unknown case dim `{k}` in `{token}`"))),
            }
        }
        let need = |what: &str| SpecError(format!("missing `{what}`"));
        let case = FuzzCase {
            n: n.ok_or_else(|| need("n"))?,
            duration_s: dur.ok_or_else(|| need("dur"))?,
            seed: seed.ok_or_else(|| need("seed"))?,
            m: m.ok_or_else(|| need("m"))?,
            guard_fine_us: delta.ok_or_else(|| need("delta"))?,
            mesh,
            campaign,
            plan: FaultPlan {
                seed: plan_seed.ok_or_else(|| need("plan"))?,
                events,
            },
        };
        // The scenario check owns every value rule; name the token that set
        // the field it rejects.
        case.scenario().check().map_err(|e| {
            let key = match e.field {
                ScenarioField::Nodes => "n",
                ScenarioField::Duration => "dur",
                ScenarioField::M => "m",
                ScenarioField::Guard => "delta",
                ScenarioField::Campaign => "campaign",
                ScenarioField::Topology => "mesh",
                // A case spec sets no other field.
                _ => return SpecError(e.to_string()),
            };
            // The last token with the key set the value, as in the loop above.
            let token = s
                .split_whitespace()
                .rfind(|t| t.split_once('=').is_some_and(|(k, _)| k == key))
                .unwrap_or(key);
            in_token(token)(SpecError(e.reason))
        })?;
        // A fault plan acts on the run the dimensions describe.
        let scenario = case.scenario();
        let event_tokens = s.split_whitespace().filter(|t| t.contains('@'));
        for (token, ev) in event_tokens.zip(&case.plan.events) {
            ev.check(scenario.n_nodes, scenario.total_bps())
                .map_err(in_token(token))?;
        }
        Ok(case)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_case() -> FuzzCase {
        let mut case = FuzzCase::base(12, 30.0, 7);
        case.plan.seed = 3;
        case.plan.events = vec![
            FaultEvent {
                start_bp: 40,
                end_bp: 90,
                kind: FaultKind::BurstLoss { p: 0.85 },
            },
            FaultEvent {
                start_bp: 60,
                end_bp: 60,
                kind: FaultKind::Crash {
                    node: 3,
                    rejoin_after_bps: Some(50),
                },
            },
            FaultEvent {
                start_bp: 100,
                end_bp: 100,
                kind: FaultKind::KillReference {
                    rejoin_after_bps: None,
                },
            },
            FaultEvent {
                start_bp: 120,
                end_bp: 160,
                kind: FaultKind::Corrupt {
                    field: CorruptField::Disclosed,
                    p: 0.5,
                },
            },
            FaultEvent {
                start_bp: 170,
                end_bp: 170,
                kind: FaultKind::ClockStep {
                    node: 2,
                    delta_us: -137.25,
                },
            },
            FaultEvent {
                start_bp: 180,
                end_bp: 220,
                kind: FaultKind::ClockFreeze { node: 5 },
            },
            FaultEvent {
                start_bp: 200,
                end_bp: 210,
                kind: FaultKind::Jam,
            },
            FaultEvent {
                start_bp: 230,
                end_bp: 260,
                kind: FaultKind::DisclosureLoss { p: 0.9 },
            },
            FaultEvent {
                start_bp: 262,
                end_bp: 262,
                kind: FaultKind::CrashDomain {
                    domain: 1,
                    rejoin_after_bps: Some(40),
                },
            },
            FaultEvent {
                start_bp: 270,
                end_bp: 270,
                kind: FaultKind::KillBridge {
                    bridge: 0,
                    rejoin_after_bps: None,
                },
            },
            FaultEvent {
                start_bp: 280,
                end_bp: 300,
                kind: FaultKind::ChainExhaust { intervals: 280 },
            },
        ];
        case
    }

    #[test]
    fn spec_round_trips_every_fault_kind() {
        let case = sample_case();
        let spec = case.to_string();
        let parsed: FuzzCase = spec.parse().expect("spec parses");
        assert_eq!(parsed, case, "round-trip mismatch for `{spec}`");
        // And the spec is genuinely one line.
        assert!(!spec.contains('\n'));
    }

    #[test]
    fn exhaust_event_shortens_the_chain() {
        let case = sample_case();
        assert_eq!(case.scenario().protocol_config.total_intervals, 280);
        let base = FuzzCase::base(8, 20.0, 1);
        assert!(base.scenario().protocol_config.total_intervals > 200);
    }

    #[test]
    fn malformed_specs_are_rejected() {
        for bad in [
            "n=8",                                                  // missing dims
            "n=8 dur=20 seed=1 m=4 delta=300 plan=0 zap@1..2",      // unknown kind
            "n=8 dur=20 seed=1 m=4 delta=300 plan=0 crash@1..2",    // missing args
            "n=8 dur=20 seed=1 m=4 delta=300 plan=0 burst@5:p=0.5", // no window
            "n=8 dur=x seed=1 m=4 delta=300 plan=0",                // bad number
        ] {
            assert!(bad.parse::<FuzzCase>().is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn mesh_dims_round_trip_and_materialize() {
        for mesh in [
            TopologySpec::Line,
            TopologySpec::Ring,
            TopologySpec::Grid { cols: 3, rows: 3 },
            TopologySpec::RandomDisk {
                side: 4.5,
                range: 1.25,
            },
            TopologySpec::Bridged {
                domains: 2,
                cols: 3,
                rows: 2,
            },
        ] {
            let mut case = FuzzCase::base(9, 20.0, 3);
            case.mesh = Some(mesh);
            let spec = case.to_string();
            let parsed: FuzzCase = spec.parse().expect("mesh spec parses");
            assert_eq!(parsed, case, "round-trip mismatch for `{spec}`");
        }
        // Bridged overrides n with the derived station count (2·3·2 + 1).
        let mut case = FuzzCase::base(9, 20.0, 3);
        case.mesh = Some(TopologySpec::Bridged {
            domains: 2,
            cols: 3,
            rows: 2,
        });
        let cfg = case.scenario();
        assert_eq!(cfg.n_nodes, 13);
        assert!(matches!(
            cfg.topology,
            Some(TopologySpec::Bridged {
                domains: 2,
                cols: 3,
                rows: 2
            })
        ));
        // Non-derived meshes keep the case's n.
        let mut case = FuzzCase::base(9, 20.0, 3);
        case.mesh = Some(TopologySpec::Ring);
        assert_eq!(case.scenario().n_nodes, 9);
        // Malformed mesh tokens are rejected.
        for bad in [
            "mesh=hex",
            "mesh=rgg:4.5",
            "mesh=bridged:2:3:2:9",
            "mesh=x=y",
        ] {
            let spec = format!("n=8 dur=20 seed=1 m=4 delta=300 plan=0 {bad}");
            assert!(spec.parse::<FuzzCase>().is_err(), "accepted `{bad}`");
        }
    }

    /// Degenerate mesh values parse numerically but would panic the
    /// topology generators; they must be named-token parse errors instead.
    #[test]
    fn degenerate_mesh_values_are_rejected_with_named_tokens() {
        for (bad, token) in [
            ("bridged:0:3:2", "domains"),
            ("bridged:1:3:2", "domains"),
            ("bridged:2:0:2", "cols"),
            ("bridged:2:3:0", "rows"),
            ("rgg:0:1", "side"),
            ("rgg:-3:1", "side"),
            ("rgg:inf:1", "side"),
            ("rgg:100:0", "range"),
            ("rgg:100:NaN", "range"),
            ("bridged:2:65536:65536", "bridged:2:65536:65536"),
            ("bridged:4294967295:1:1", "bridged:4294967295:1:1"),
        ] {
            let spec = format!("n=8 dur=20 seed=1 m=4 delta=300 plan=0 mesh={bad}");
            let SpecError(msg) = spec.parse::<FuzzCase>().unwrap_err();
            assert!(
                msg.contains(&format!("`{token}`")),
                "error for `{bad}` does not name `{token}`: {msg}"
            );
        }
        // The smallest legal shapes and the largest count still parse: as
        // syntax only, since the check builds a case's mesh and the largest
        // is too large to build.
        for ok in ["bridged:2:1:1", "rgg:0.5:0.5", "bridged:2:2147483647:1"] {
            ok.parse::<TopologySpec>()
                .unwrap_or_else(|e| panic!("rejected `{ok}`: {e:?}"));
        }
    }

    #[test]
    fn parse_errors_name_the_offending_token() {
        for (spec, token) in [
            (
                "n=8 dur=20 seed=1 m=4 delta=300 plan=0 crash@1..2:node=3,rejoin=zz",
                "crash@1..2:node=3,rejoin=zz",
            ),
            (
                "n=8 dur=20 seed=1 m=4 delta=300 plan=0 zap@1..2",
                "zap@1..2",
            ),
            (
                "n=8 dur=20 seed=1 m=4 delta=300 plan=0 mesh=rgg:4.5",
                "mesh=rgg:4.5",
            ),
            ("n=8 dur=20 seed=1 m=4 delta=300 plan=0 bogus=7", "bogus=7"),
            // Degenerate dimensions that used to parse and then panic the
            // scenario constructor.
            ("n=1 dur=20 seed=1 m=4 delta=300 plan=0", "n=1"),
            ("n=0 dur=20 seed=1 m=4 delta=300 plan=0", "n=0"),
            ("n=8 dur=0 seed=1 m=4 delta=300 plan=0", "dur=0"),
            ("n=8 dur=-3 seed=1 m=4 delta=300 plan=0", "dur=-3"),
            ("n=8 dur=inf seed=1 m=4 delta=300 plan=0", "dur=inf"),
            ("n=8 dur=NaN seed=1 m=4 delta=300 plan=0", "dur=NaN"),
            // Values that parsed and then hung, aborted or silently
            // disabled the protocol: a duration whose µTESLA interval
            // count overflows u32, m < 1, and a non-finite or
            // non-positive guard time.
            ("n=8 dur=1e300 seed=1 m=4 delta=300 plan=0", "dur=1e300"),
            ("n=8 dur=1e12 seed=1 m=4 delta=300 plan=0", "dur=1e12"),
            ("n=8 dur=20 seed=1 m=0 delta=300 plan=0", "m=0"),
            ("n=8 dur=20 seed=1 m=4 delta=nan plan=0", "delta=nan"),
            ("n=8 dur=20 seed=1 m=4 delta=inf plan=0", "delta=inf"),
            ("n=8 dur=20 seed=1 m=4 delta=0 plan=0", "delta=0"),
            ("n=8 dur=20 seed=1 m=4 delta=-300 plan=0", "delta=-300"),
            // Bridged meshes whose station count overflows u32 (`cols·rows`
            // wraps to 0, or the gateway term wraps the total) panicked,
            // hung or aborted; a ring under 3 stations panicked.
            (
                "n=8 dur=20 seed=1 m=4 delta=300 plan=0 mesh=bridged:2:65536:65536",
                "mesh=bridged:2:65536:65536",
            ),
            (
                "n=8 dur=20 seed=1 m=4 delta=300 plan=0 mesh=bridged:4294967295:1:1",
                "mesh=bridged:4294967295:1:1",
            ),
            (
                "n=2 dur=5 seed=7 m=4 delta=300 plan=0 mesh=ring",
                "mesh=ring",
            ),
            // A random geometric graph with no connected placement at the
            // case's seed panicked the engine's topology build.
            (
                "n=8 dur=5 seed=7 m=4 delta=300 plan=0 mesh=rgg:1000:1",
                "mesh=rgg:1000:1",
            ),
            (
                "n=8 dur=5 seed=7 m=4 delta=300 plan=0 mesh=rgg:100:5",
                "mesh=rgg:100:5",
            ),
            // A bridged mesh fixes the station count (13) before the fault
            // plan's station ids are checked against it.
            (
                "n=99 dur=5 seed=7 m=4 delta=300 plan=0 mesh=bridged:2:3:2 \
                 crash@10..10:node=13,rejoin=never",
                "crash@10..10:node=13,rejoin=never",
            ),
        ] {
            let SpecError(msg) = spec.parse::<FuzzCase>().unwrap_err();
            assert!(
                msg.contains(&format!("`{token}`")),
                "error for `{spec}` does not name `{token}`: {msg}"
            );
        }
        // Fault values that parsed and then panicked the engine (a
        // zero-length chain, a station past the count, a probability or
        // clock step the channel, RNG or oscillator refuses), a chain too
        // long to build, and windows that never fire or end before they
        // start, on a run of 50 BPs and 8 stations.
        for event in [
            "exhaust@0..0:at=0",
            "exhaust@10..10:at=0",
            "exhaust@10..10:at=1000000000000",
            "crash@10..10:node=99,rejoin=never",
            "step@10..10:node=8,us=5",
            "freeze@10..12:node=50",
            "burst@10..20:p=nan",
            "burst@10..20:p=1.5",
            "corrupt@10..20:field=mac,p=-0.1",
            "discloss@10..20:p=2",
            "step@10..10:node=2,us=inf",
            "step@10..10:node=2,us=nan",
            "burst@0..10:p=0.5",
            "burst@40..10:p=0.5",
            "burst@51..60:p=0.5",
        ] {
            let spec = format!("n=8 dur=5 seed=7 m=4 delta=300 plan=0 {event}");
            let SpecError(msg) = spec.parse::<FuzzCase>().unwrap_err();
            assert!(
                msg.contains(&format!("`{event}`")),
                "error for `{spec}` does not name `{event}`: {msg}"
            );
        }
        // The last BP, the last station and the unit probability pass.
        for event in [
            "burst@50..60:p=1",
            "crash@50..50:node=7,rejoin=never",
            "exhaust@50..50:at=50",
        ] {
            let spec = format!("n=8 dur=5 seed=7 m=4 delta=300 plan=0 {event}");
            spec.parse::<FuzzCase>()
                .unwrap_or_else(|e| panic!("rejected `{spec}`: {e}"));
        }
    }

    #[test]
    fn campaign_dims_round_trip_and_materialize() {
        use sstsp::scenario::CampaignKind;
        for (campaign, mesh) in [
            (
                CampaignSpec {
                    kind: CampaignKind::Coalition {
                        error_us: 800.0,
                        delay_bps: 2,
                    },
                    attackers: 3,
                    start_s: 10.0,
                    end_s: 25.5,
                },
                None,
            ),
            (
                CampaignSpec {
                    kind: CampaignKind::SybilFlood { error_us: 1500.0 },
                    attackers: 2,
                    start_s: 8.0,
                    end_s: 20.0,
                },
                Some(TopologySpec::Bridged {
                    domains: 2,
                    cols: 3,
                    rows: 2,
                }),
            ),
            (
                CampaignSpec {
                    kind: CampaignKind::RefSlotJam,
                    attackers: 1,
                    start_s: 5.25,
                    end_s: 18.0,
                },
                Some(TopologySpec::Bridged {
                    domains: 2,
                    cols: 2,
                    rows: 2,
                }),
            ),
        ] {
            let mut case = FuzzCase::base(10, 30.0, 3);
            case.mesh = mesh;
            case.campaign = Some(campaign);
            let spec = case.to_string();
            let parsed: FuzzCase = spec.parse().expect("campaign spec parses");
            assert_eq!(parsed, case, "round-trip mismatch for `{spec}`");
            assert_eq!(case.scenario().campaign, Some(campaign));
        }
    }

    #[test]
    fn malformed_campaigns_are_named_token_errors() {
        for (bad, token) in [
            ("campaign=coalition:1:30:2:20:40", "attackers"),
            ("campaign=sybil:0:30:20:40", "attackers"),
            ("campaign=coalition:2:nan:2:20:40", "error_us"),
            ("campaign=jamref:2:40:20", "end_s"),
            ("campaign=warp:2:20:40", "warp"),
        ] {
            let spec = format!("n=8 dur=20 seed=1 m=4 delta=300 plan=0 {bad}");
            let SpecError(msg) = spec.parse::<FuzzCase>().unwrap_err();
            assert!(
                msg.contains(&format!("`{token}`")),
                "error for `{bad}` does not name `{token}`: {msg}"
            );
            assert!(
                msg.contains(bad),
                "error for `{bad}` omits the token: {msg}"
            );
        }
        // A campaign that parses alone but compromises too much of this
        // case's station budget is also rejected with the field named.
        for spec in [
            // Single-hop: 8 stations cannot spare 7 attackers.
            "n=8 dur=20 seed=1 m=4 delta=300 plan=0 campaign=coalition:7:30:2:5:15",
            // Bridged: the 4-station island caps compromisable stations.
            "n=8 dur=20 seed=1 m=4 delta=300 plan=0 mesh=bridged:2:2:1 \
             campaign=sybil:4:30:5:15",
        ] {
            let SpecError(msg) = spec.parse::<FuzzCase>().unwrap_err();
            assert!(
                msg.contains("`attackers`"),
                "error for `{spec}` does not name `attackers`: {msg}"
            );
        }
    }

    #[test]
    fn float_dims_round_trip() {
        let mut case = FuzzCase::base(6, 12.5, 9);
        case.guard_fine_us = 287.125;
        let parsed: FuzzCase = case.to_string().parse().unwrap();
        assert_eq!(parsed, case);
    }
}
