//! Scenario configuration.
//!
//! Every experiment in the paper is a point in this configuration space.
//! The `paper_*` constructors reproduce the setups of Sec. 5 exactly:
//! 1000 s runs, BP = 0.1 s, w = 30, l = 1, drift ±0.01 %, PER 0.01 %,
//! initial offsets ±112 µs, 5 % of the stations leaving at k·200 s for
//! 50 s, and the reference leaving at 300 s, 500 s and 800 s.

use std::fmt;
use std::str::FromStr;

use clocks::DriftModel;
use protocols::api::ProtocolConfig;
use serde::{Deserialize, Serialize};
use simcore::rng::StreamDomain;
use simcore::{RngStreams, SimDuration, SimTime};
use wireless::{DomainDecomposition, Topology, RANDOM_DISK_ATTEMPTS};

pub use attacks::campaign::{CampaignKind, CampaignSpec};

/// Which synchronization protocol the (honest) stations run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProtocolKind {
    /// IEEE 802.11 TSF (baseline).
    Tsf,
    /// ATSP (Lai & Zhou 2003).
    Atsp,
    /// TATSP (tiered ATSP).
    Tatsp,
    /// SATSF (Zhou & Lai 2005).
    Satsf,
    /// Single-hop ASP (Sheu, Chao & Sun 2004).
    Asp,
    /// Rentel & Kunz controlled-clock mechanism (2004).
    Rk,
    /// SSTSP (the paper's contribution).
    Sstsp,
}

impl ProtocolKind {
    /// Every protocol, in declaration order.
    pub const ALL: [ProtocolKind; 7] = [
        ProtocolKind::Tsf,
        ProtocolKind::Atsp,
        ProtocolKind::Tatsp,
        ProtocolKind::Satsf,
        ProtocolKind::Asp,
        ProtocolKind::Rk,
        ProtocolKind::Sstsp,
    ];

    /// Whether this protocol transmits µTESLA-secured beacons.
    pub fn secured(self) -> bool {
        matches!(self, ProtocolKind::Sstsp)
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            ProtocolKind::Tsf => "TSF",
            ProtocolKind::Atsp => "ATSP",
            ProtocolKind::Tatsp => "TATSP",
            ProtocolKind::Satsf => "SATSF",
            ProtocolKind::Asp => "ASP",
            ProtocolKind::Rk => "RK",
            ProtocolKind::Sstsp => "SSTSP",
        }
    }
}

/// Parses a [`name`](ProtocolKind::name) in any case (`tsf`, `Sstsp`, …).
impl FromStr for ProtocolKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        let token = s.to_lowercase();
        Self::ALL
            .into_iter()
            .find(|kind| kind.name().to_lowercase() == token)
            .ok_or_else(|| format!("unknown protocol '{s}'"))
    }
}

/// Station churn: a fraction of stations leaves periodically and returns.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ChurnConfig {
    /// Departure period in seconds (paper: every 200 s).
    pub period_s: f64,
    /// Fraction of stations leaving each time (paper: 5 %).
    pub fraction: f64,
    /// Absence duration in seconds (paper: 50 s).
    pub absence_s: f64,
}

impl ChurnConfig {
    /// The paper's churn: 5 % leave at k·200 s, return after 50 s.
    pub fn paper() -> Self {
        ChurnConfig {
            period_s: 200.0,
            fraction: 0.05,
            absence_s: 50.0,
        }
    }
}

/// The attacker wired into the scenario (one attacker station, Figs. 3–4).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct AttackerSpec {
    /// Attack window start, seconds (paper: 400 s).
    pub start_s: f64,
    /// Attack window end, seconds (paper: 600 s).
    pub end_s: f64,
    /// How much slower than the attacker's clock the forged timestamps
    /// are, µs. Chosen below δ so SSTSP's guard check passes (paper).
    pub error_us: f64,
}

impl AttackerSpec {
    /// The paper's attacker: active 400 s – 600 s; 30 µs of timestamp
    /// error (under the default δ = 50 µs).
    pub fn paper() -> Self {
        AttackerSpec {
            start_s: 400.0,
            end_s: 600.0,
            error_us: 30.0,
        }
    }

    /// The attacker as the engine runs it: the leader of a coalition of one
    /// (which the campaign grammar refuses), whose turn comes every BP.
    pub fn campaign(&self) -> CampaignSpec {
        CampaignSpec {
            kind: CampaignKind::Coalition {
                error_us: self.error_us,
                delay_bps: 1,
            },
            attackers: 1,
            start_s: self.start_s,
            end_s: self.end_s,
        }
    }
}

/// Topology for the multi-hop extension. `None` = the paper's single-hop
/// IBSS (full connectivity, fast-path channel model).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TopologySpec {
    /// A path of stations: worst case for per-hop error accumulation.
    Line,
    /// A cols × rows grid with 4-neighborhood.
    Grid {
        /// Grid columns.
        cols: u32,
        /// Grid rows.
        rows: u32,
    },
    /// Unit-disk graph in a square area (re-sampled until connected).
    RandomDisk {
        /// Square side length.
        side: f64,
        /// Radio range.
        range: f64,
    },
    /// A cycle of stations (two disjoint timing paths between any pair).
    Ring,
    /// `domains` full-mesh islands of `cols × rows` stations each, chained
    /// by gateway stations that hear two adjacent islands in full — the
    /// canonical multi-collision-domain mesh. Station count is derived:
    /// `domains·cols·rows + domains − 1`. SSTSP runs with per-domain
    /// reference election on this topology.
    Bridged {
        /// Number of collision-domain islands.
        domains: u32,
        /// Island grid columns.
        cols: u32,
        /// Island grid rows.
        rows: u32,
    },
}

impl TopologySpec {
    /// The station count this spec requires, when it determines one.
    ///
    /// # Panics
    /// Panics if that count overflows `u32`; see [`TopologySpec::fits`].
    pub fn required_nodes(&self) -> Option<u32> {
        self.checked_required_nodes()
            .expect("topology station count overflows u32")
    }

    /// Whether the station count this spec requires, if any, fits a `u32`.
    /// [`ScenarioConfig::check`] rejects a spec for which it does not.
    pub fn fits(&self) -> bool {
        self.checked_required_nodes().is_some()
    }

    /// The stations a campaign may compromise on a bridged mesh: its
    /// `domains·cols·rows` island stations, gateways excluded. `None` for
    /// other topologies.
    pub fn island_nodes(&self) -> Option<u32> {
        match *self {
            TopologySpec::Bridged { domains, .. } => Some(self.required_nodes()? - (domains - 1)),
            _ => None,
        }
    }

    /// [`required_nodes`](Self::required_nodes), or `None` on overflow.
    fn checked_required_nodes(&self) -> Option<Option<u32>> {
        match *self {
            TopologySpec::Grid { cols, rows } => cols.checked_mul(rows).map(Some),
            TopologySpec::Bridged {
                domains,
                cols,
                rows,
            } => Topology::bridged_len(domains, cols, rows).map(Some),
            _ => Some(None),
        }
    }
}

/// `line`, `ring`, `grid:C:R`, `rgg:SIDE:RANGE` or `bridged:D:C:R`; the
/// inverse of [`TopologySpec::from_str`].
impl fmt::Display for TopologySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            TopologySpec::Line => write!(f, "line"),
            TopologySpec::Ring => write!(f, "ring"),
            TopologySpec::Grid { cols, rows } => write!(f, "grid:{cols}:{rows}"),
            TopologySpec::RandomDisk { side, range } => write!(f, "rgg:{side}:{range}"),
            TopologySpec::Bridged {
                domains,
                cols,
                rows,
            } => write!(f, "bridged:{domains}:{cols}:{rows}"),
        }
    }
}

/// Parses the [`Display`](fmt::Display) grammar. Syntax only: whether the
/// values can run is [`ScenarioConfig::check`]'s to say.
impl FromStr for TopologySpec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        let mut parts = s.split(':');
        let head = parts.next().unwrap_or("");
        let mut arg = |what: &str| {
            parts
                .next()
                .ok_or_else(|| format!("`{head}` mesh needs `{what}`"))
        };
        fn num<T: FromStr>(what: &str, v: &str) -> Result<T, String> {
            v.parse()
                .map_err(|_| format!("bad value `{v}` for `{what}`"))
        }
        let spec = match head {
            "line" => TopologySpec::Line,
            "ring" => TopologySpec::Ring,
            "grid" => TopologySpec::Grid {
                cols: num("cols", arg("cols")?)?,
                rows: num("rows", arg("rows")?)?,
            },
            "rgg" => TopologySpec::RandomDisk {
                side: num("side", arg("side")?)?,
                range: num("range", arg("range")?)?,
            },
            "bridged" => TopologySpec::Bridged {
                domains: num("domains", arg("domains")?)?,
                cols: num("cols", arg("cols")?)?,
                rows: num("rows", arg("rows")?)?,
            },
            _ => return Err(format!("unknown mesh kind `{head}`")),
        };
        if parts.next().is_some() {
            return Err(format!("trailing mesh args in `{s}`"));
        }
        Ok(spec)
    }
}

/// A jamming window: the channel destroys every transmission inside it.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct JamWindow {
    /// Start, seconds.
    pub start_s: f64,
    /// End, seconds.
    pub end_s: f64,
}

/// The scenario field a [`ScenarioError`] rejects. Each front end maps it
/// to the token that sets the field (`--guard`, `delta=`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioField {
    /// `n_nodes`.
    Nodes,
    /// `duration_s`.
    Duration,
    /// `protocol_config.m`.
    M,
    /// `protocol_config.guard_fine_us` (δ).
    Guard,
    /// `per`.
    Per,
    /// `churn`.
    Churn,
    /// `ref_leaves_s`.
    RefLeaves,
    /// `attacker`.
    Attack,
    /// `jam_windows`.
    Jam,
    /// `campaign`.
    Campaign,
    /// `topology`.
    Topology,
}

/// A scenario no run can take: the field at fault and the rule it breaks.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioError {
    /// The offending field.
    pub field: ScenarioField,
    /// The rule it breaks, with the offending value.
    pub reason: String,
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}: {}", self.field, self.reason)
    }
}

/// A complete scenario.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScenarioConfig {
    /// Protocol run by honest stations.
    pub protocol: ProtocolKind,
    /// Number of stations (including the attacker if present).
    pub n_nodes: u32,
    /// Simulated duration in seconds.
    pub duration_s: f64,
    /// Master seed; every run is a pure function of it.
    pub seed: u64,
    /// Oscillator population model.
    pub drift: DriftModel,
    /// Packet error rate.
    pub per: f64,
    /// Protocol parameters (BP, w, l, m, δ, ...).
    pub protocol_config: ProtocolConfig,
    /// Periodic station churn, if any.
    pub churn: Option<ChurnConfig>,
    /// Instants (seconds) at which the current reference node leaves; it
    /// returns `ref_absence_s` later.
    pub ref_leaves_s: Vec<f64>,
    /// How long a departed reference stays away.
    pub ref_absence_s: f64,
    /// The attacker, if any (station id = n_nodes - 1).
    pub attacker: Option<AttackerSpec>,
    /// A coordinated multi-attacker campaign, if any (see
    /// [`campaign_member_ids`](Self::campaign_member_ids) for which
    /// stations are compromised).
    pub campaign: Option<CampaignSpec>,
    /// Jamming windows.
    pub jam_windows: Vec<JamWindow>,
    /// Optional multi-hop topology (the paper's future-work extension).
    pub topology: Option<TopologySpec>,
    /// Sub-µs timestamping jitter bound (uniform `[0, bound]`), µs.
    pub timestamp_jitter_us: f64,
}

impl ScenarioConfig {
    /// Whether a scenario can run for `duration_s` seconds: the duration
    /// is finite and positive, and the run's µTESLA interval count,
    /// `ceil(duration / BP) + 64`, fits the `u32` interval index. At the
    /// paper's 0.1 s BP that allows up to about 4.29·10⁸ s.
    fn duration_fits(duration_s: f64) -> bool {
        let bp_s = ProtocolConfig::paper().bp_us / 1e6;
        duration_s.is_finite()
            && duration_s > 0.0
            && (duration_s / bp_s).ceil() + 64.0 <= f64::from(u32::MAX)
    }

    /// A minimal scenario: no churn, no reference departures, no attacker.
    /// Takes any values; [`check`](Self::check) says whether they can run.
    pub fn new(protocol: ProtocolKind, n_nodes: u32, duration_s: f64, seed: u64) -> Self {
        ScenarioConfig {
            protocol,
            n_nodes,
            duration_s,
            seed,
            drift: DriftModel::paper(),
            per: 1e-4,
            protocol_config: ProtocolConfig::paper(),
            churn: None,
            ref_leaves_s: Vec::new(),
            ref_absence_s: 50.0,
            attacker: None,
            campaign: None,
            jam_windows: Vec::new(),
            topology: None,
            timestamp_jitter_us: 1.0,
        }
        .with_duration(duration_s)
    }

    /// Run for `duration_s` seconds, on hash chains 64 intervals longer.
    pub fn with_duration(mut self, duration_s: f64) -> Self {
        let bps = (duration_s / (self.protocol_config.bp_us / 1e6)).ceil() as usize;
        self.protocol_config.total_intervals = bps.saturating_add(64);
        self.duration_s = duration_s;
        self
    }

    /// The paper's Sec. 5 setup: 1000 s, churn at k·200 s, reference
    /// leaving at 300/500/800 s.
    pub fn paper(protocol: ProtocolKind, n_nodes: u32, seed: u64) -> Self {
        let mut cfg = Self::new(protocol, n_nodes, 1000.0, seed);
        cfg.churn = Some(ChurnConfig::paper());
        cfg.ref_leaves_s = vec![300.0, 500.0, 800.0];
        cfg
    }

    /// The paper's hostile setup (Figs. 3–4): the Sec. 5 scenario plus the
    /// fast-beacon attacker active 400 s – 600 s. To isolate the attack
    /// effect the reference-departure schedule is kept (the 500 s departure
    /// lands inside the attack window, exactly as in the paper).
    pub fn paper_with_attacker(protocol: ProtocolKind, n_nodes: u32, seed: u64) -> Self {
        let mut cfg = Self::paper(protocol, n_nodes, seed);
        cfg.attacker = Some(AttackerSpec::paper());
        cfg
    }

    /// Aggressiveness parameter sweep entry (Table 1).
    pub fn with_m(mut self, m: u32) -> Self {
        self.protocol_config.m = m;
        self
    }

    /// Override the loss-tolerance parameter `l`.
    pub fn with_l(mut self, l: u32) -> Self {
        self.protocol_config.l = l;
        self
    }

    /// Run on `topology`. A spec that fixes the station count (grid,
    /// bridged) sets `n_nodes`; one whose count overflows `u32` leaves it
    /// for [`check`](Self::check) to reject.
    pub fn with_topology(mut self, topology: TopologySpec) -> Self {
        if let Some(Some(n)) = topology.checked_required_nodes() {
            self.n_nodes = n;
        }
        self.topology = Some(topology);
        self
    }

    /// Number of beacon periods in the run.
    pub fn total_bps(&self) -> u64 {
        (self.duration_s / (self.protocol_config.bp_us / 1e6)).floor() as u64
    }

    /// The number of BPs nearest `seconds`: the engine's BP index of a
    /// scheduled instant, and its length in BPs of a scheduled span.
    pub fn bps(&self, seconds: f64) -> u64 {
        (seconds * 1e6 / self.protocol_config.bp_us).round() as u64
    }

    /// The attacker's station id, if an attacker is configured.
    pub fn attacker_id(&self) -> Option<u32> {
        self.attacker.map(|_| self.n_nodes - 1)
    }

    /// The contiguous id range compromised by the campaign (empty without
    /// one). The campaign takes the *highest-id island stations*: the tail
    /// of the last island on a bridged mesh — so gateways keep relaying
    /// and a small coalition is confined to one collision domain, while a
    /// coalition larger than an island spans domains — and the tail of
    /// the whole id space otherwise.
    pub fn campaign_member_ids(&self) -> std::ops::Range<u32> {
        let Some(c) = &self.campaign else { return 0..0 };
        assert!(
            c.attackers <= self.max_attackers(),
            "campaign must leave honest island stations ({} attackers, {} stations)",
            c.attackers,
            self.n_nodes
        );
        let top = self.compromisable();
        top - c.attackers..top
    }

    /// The stations a campaign may compromise: a bridged mesh's island
    /// stations, gateways excluded, and every station otherwise.
    fn compromisable(&self) -> u32 {
        self.topology
            .and_then(|t| t.island_nodes())
            .unwrap_or(self.n_nodes)
    }

    /// The largest coalition the scenario can field: it must leave one
    /// honest island station, and two honest stations in all.
    pub fn max_attackers(&self) -> u32 {
        self.compromisable()
            .saturating_sub(1)
            .min(self.n_nodes.saturating_sub(2))
    }

    /// The one scenario check: tests every rule a run relies on, then
    /// builds the multi-hop topology with the collision-domain
    /// decomposition a bridged mesh carries (`Ok(None)` for the single-hop
    /// IBSS). [`Network::build`](crate::Network::build) calls it once, and
    /// each front end calls it to name the token that set the
    /// [`ScenarioField`] at fault. A random geometric graph draws its
    /// placements from scenario stream 1.
    ///
    /// # Errors
    /// The first rule the scenario breaks.
    pub fn check(&self) -> Result<Option<(Topology, Option<DomainDecomposition>)>, ScenarioError> {
        use ScenarioField as F;
        macro_rules! ensure {
            ($ok:expr, $field:expr, $($reason:tt)+) => {
                if !$ok {
                    let reason = format!($($reason)+);
                    return Err(ScenarioError { field: $field, reason });
                }
            };
        }
        let (n, pc) = (self.n_nodes, &self.protocol_config);
        let positive = |v: f64| v > 0.0 && v.is_finite();
        // The mesh first: a grid or bridged mesh fixes the station count.
        if let Some(spec) = self.topology {
            let mesh = F::Topology;
            match spec {
                TopologySpec::Ring => {
                    ensure!(n >= 3, mesh, "a `ring` needs at least 3 stations, got {n}")
                }
                TopologySpec::RandomDisk { side, range } => {
                    for (what, v) in [("side", side), ("range", range)] {
                        ensure!(
                            positive(v),
                            mesh,
                            "rgg `{what}` must be finite and positive, got `{v}`"
                        );
                    }
                }
                TopologySpec::Bridged {
                    domains,
                    cols,
                    rows,
                } => {
                    for (what, v, min) in [
                        ("domains", domains, 2),
                        ("cols", cols, 1),
                        ("rows", rows, 1),
                    ] {
                        ensure!(
                            v >= min,
                            mesh,
                            "bridged `{what}` must be at least {min}, got `{v}`"
                        );
                    }
                }
                TopologySpec::Line | TopologySpec::Grid { .. } => {}
            }
            ensure!(
                spec.fits(),
                mesh,
                "mesh `{spec}` has more than u32::MAX stations"
            );
            if let Some(count) = spec.required_nodes() {
                ensure!(
                    count >= 2,
                    mesh,
                    "mesh `{spec}` has {count} stations, a network needs two"
                );
                ensure!(
                    count == n,
                    mesh,
                    "mesh `{spec}` has {count} stations, the scenario {n}"
                );
            }
        }
        ensure!(
            n >= 2,
            F::Nodes,
            "a network needs at least two stations, got {n}"
        );
        ensure!(
            Self::duration_fits(self.duration_s),
            F::Duration,
            "{:?} s is not positive, or its µTESLA interval count overflows u32 (past ~4.29e8 s)",
            self.duration_s
        );
        ensure!(pc.m >= 1, F::M, "the aggressiveness m must be at least 1");
        ensure!(
            positive(pc.guard_fine_us),
            F::Guard,
            "the guard time δ must be positive, got {:?} µs",
            pc.guard_fine_us
        );
        ensure!(
            (0.0..1.0).contains(&self.per),
            F::Per,
            "the packet error rate must be in [0, 1), got {:?}",
            self.per
        );
        if let Some(c) = self.churn {
            // A period of 0 BPs would schedule departures without end.
            let period_ok = c.period_s.is_finite() && self.bps(c.period_s) >= 1;
            ensure!(
                period_ok
                    && (0.0..=1.0).contains(&c.fraction)
                    && (0.0..f64::INFINITY).contains(&c.absence_s),
                F::Churn,
                "needs a period of at least one BP (0.05 s), a fraction in [0, 1] and an \
                 absence >= 0, all finite; got {:?},{:?},{:?}",
                c.period_s,
                c.fraction,
                c.absence_s
            );
        }
        for &t in &self.ref_leaves_s {
            // BPs count from 1: a departure at BP 0, or past the last BP,
            // would never fire.
            let last = self.total_bps();
            ensure!(
                t.is_finite() && (1..=last).contains(&self.bps(t)),
                F::RefLeaves,
                "a departure must be finite and round to a BP of the run, 1..={last}; \
                 got {t:?} s"
            );
        }
        // The engine tests a window at BP starts only, reading BP k's start
        // as `Run::events` does, so a window must hold the start of one of
        // the run's BPs, 1..=last, or it would never fire.
        let bp = SimDuration::from_us_f64(pc.bp_us);
        let last = self.total_bps();
        let bp_start = |k: u64| (SimTime::ZERO + bp.saturating_mul(k)).as_secs_f64();
        let window = |start: f64, end: f64| {
            if !(start >= 0.0 && end > start && end.is_finite()) {
                return false;
            }
            // The first BP starting at or after `start`: an estimate,
            // corrected for rounding.
            let mut k = ((start / bp.as_secs_f64()).ceil() as u64).clamp(1, last.saturating_add(1));
            while k > 1 && bp_start(k - 1) >= start {
                k -= 1;
            }
            while k <= last && bp_start(k) < start {
                k += 1;
            }
            k <= last && bp_start(k) < end
        };
        let rule = || {
            format!(
                "a finite window 0 <= start < end holding a BP start (BP k starts at k·{} s, \
                 k = 1..={last})",
                bp.as_secs_f64()
            )
        };
        if let Some(a) = self.attacker {
            ensure!(
                window(a.start_s, a.end_s),
                F::Attack,
                "needs {}; got {:?},{:?}",
                rule(),
                a.start_s,
                a.end_s
            );
            ensure!(
                a.error_us.is_finite() && a.error_us >= 0.0,
                F::Attack,
                "the timestamp error must be finite and >= 0 µs (a slower clock); got {:?}",
                a.error_us
            );
        }
        for w in &self.jam_windows {
            ensure!(
                window(w.start_s, w.end_s),
                F::Jam,
                "needs {}; got {:?},{:?}",
                rule(),
                w.start_s,
                w.end_s
            );
        }
        if let Some(c) = self.campaign {
            let field = F::Campaign;
            c.validate()
                .map_err(|reason| ScenarioError { field, reason })?;
            ensure!(
                window(c.start_s, c.end_s),
                field,
                "campaign needs {}; got {},{}",
                rule(),
                c.start_s,
                c.end_s
            );
            ensure!(
                c.attackers <= self.max_attackers(),
                field,
                "campaign `attackers` = {} needs more stations than the scenario provides \
                 ({n} total, {} compromisable)",
                c.attackers,
                self.compromisable()
            );
        }

        let Some(spec) = self.topology else {
            return Ok(None);
        };
        Ok(Some(match spec {
            TopologySpec::Line => (Topology::line(n), None),
            TopologySpec::Ring => (Topology::ring(n), None),
            TopologySpec::Grid { cols, rows } => (Topology::grid(cols, rows), None),
            TopologySpec::RandomDisk { side, range } => {
                let mut rng = RngStreams::new(self.seed).stream(StreamDomain::Scenario, 1);
                let topo =
                    Topology::try_random_disk(n, side, range, &mut rng, RANDOM_DISK_ATTEMPTS);
                let Some(topo) = topo else {
                    let reason = format!(
                        "no connected placement of {n} stations in a {side} × {side} area at \
                         range {range} ({RANDOM_DISK_ATTEMPTS} draws at seed {})",
                        self.seed
                    );
                    return Err(ScenarioError {
                        field: F::Topology,
                        reason,
                    });
                };
                (topo, None)
            }
            TopologySpec::Bridged {
                domains,
                cols,
                rows,
            } => {
                let (topo, decomp) = Topology::bridged(domains, cols, rows);
                (topo, Some(decomp))
            }
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Network;

    #[test]
    fn paper_scenario_matches_section5() {
        let cfg = ScenarioConfig::paper(ProtocolKind::Sstsp, 500, 1);
        assert_eq!(cfg.n_nodes, 500);
        assert_eq!(cfg.duration_s, 1000.0);
        assert_eq!(cfg.total_bps(), 10_000);
        assert!(cfg.protocol_config.total_intervals >= 10_000);
        let churn = cfg.churn.unwrap();
        assert_eq!(churn.period_s, 200.0);
        assert_eq!(churn.fraction, 0.05);
        assert_eq!(churn.absence_s, 50.0);
        assert_eq!(cfg.ref_leaves_s, vec![300.0, 500.0, 800.0]);
        assert!(cfg.attacker.is_none());
    }

    #[test]
    fn attacker_scenario_sets_window() {
        let cfg = ScenarioConfig::paper_with_attacker(ProtocolKind::Tsf, 100, 1);
        let atk = cfg.attacker.unwrap();
        assert_eq!(atk.start_s, 400.0);
        assert_eq!(atk.end_s, 600.0);
        assert_eq!(cfg.attacker_id(), Some(99));
        assert_eq!(
            atk.campaign(),
            CampaignSpec {
                kind: CampaignKind::Coalition {
                    error_us: 30.0,
                    delay_bps: 1,
                },
                attackers: 1,
                start_s: 400.0,
                end_s: 600.0,
            }
        );
    }

    #[test]
    fn chain_length_covers_run() {
        let cfg = ScenarioConfig::new(ProtocolKind::Sstsp, 10, 123.0, 0);
        assert!(cfg.protocol_config.total_intervals as u64 >= cfg.total_bps());
    }

    #[test]
    fn m_and_l_overrides() {
        let cfg = ScenarioConfig::new(ProtocolKind::Sstsp, 10, 10.0, 0)
            .with_m(2)
            .with_l(3);
        assert_eq!(cfg.protocol_config.m, 2);
        assert_eq!(cfg.protocol_config.l, 3);
    }

    #[test]
    fn protocol_kind_properties() {
        assert!(ProtocolKind::Sstsp.secured());
        assert!(!ProtocolKind::Tsf.secured());
        assert_eq!(ProtocolKind::Atsp.name(), "ATSP");
        for kind in ProtocolKind::ALL {
            assert_eq!(kind.name().parse(), Ok(kind));
            assert_eq!(kind.name().to_lowercase().parse(), Ok(kind));
        }
        assert_eq!(
            "bogus".parse::<ProtocolKind>(),
            Err("unknown protocol 'bogus'".to_string())
        );
    }

    #[test]
    #[should_panic(expected = "two stations")]
    fn single_node_rejected() {
        let cfg = ScenarioConfig::new(ProtocolKind::Tsf, 1, 1.0, 0);
        assert_eq!(cfg.check().unwrap_err().field, ScenarioField::Nodes);
        let _ = Network::build(&cfg);
    }

    #[test]
    fn duration_must_fit_the_u32_interval_index() {
        // ceil(dur / 0.1 s) + 64 <= u32::MAX puts the limit near 4.295e8 s.
        assert!(ScenarioConfig::duration_fits(4.29e8));
        for bad in [4.3e8, 1e12, 1e300, f64::INFINITY, f64::NAN, 0.0, -300.0] {
            assert!(!ScenarioConfig::duration_fits(bad), "{bad} accepted");
        }
    }

    #[test]
    #[should_panic(expected = "overflows u32")]
    fn overlong_duration_rejected() {
        let cfg = ScenarioConfig::new(ProtocolKind::Sstsp, 4, 1e12, 0);
        assert_eq!(cfg.check().unwrap_err().field, ScenarioField::Duration);
        let _ = Network::build(&cfg);
    }

    /// A small valid scenario with `edit` applied.
    fn edited(edit: impl FnOnce(&mut ScenarioConfig)) -> ScenarioConfig {
        let mut cfg = ScenarioConfig::new(ProtocolKind::Sstsp, 8, 5.0, 7);
        edit(&mut cfg);
        cfg
    }

    #[test]
    fn check_rules_hold_at_their_boundaries() {
        use ScenarioField as F;
        let campaign = |spec: &str| Some(spec.parse::<CampaignSpec>().unwrap());
        let window = |start_s, end_s| JamWindow { start_s, end_s };
        let attack = |start_s, end_s| AttackerSpec {
            start_s,
            end_s,
            error_us: 30.0,
        };
        let attack_error = |error_us| AttackerSpec {
            error_us,
            ..attack(1.0, 2.0)
        };
        let churn = |period_s, fraction, absence_s| ChurnConfig {
            period_s,
            fraction,
            absence_s,
        };
        let rgg = |side, range| Some(TopologySpec::RandomDisk { side, range });
        // (field, the boundary value, the first value past it)
        let table: Vec<(F, ScenarioConfig, ScenarioConfig)> = vec![
            (
                F::Nodes,
                edited(|c| c.n_nodes = 2),
                edited(|c| c.n_nodes = 1),
            ),
            (
                F::Duration,
                edited(|c| c.duration_s = 4.29e8),
                edited(|c| c.duration_s = 4.3e8),
            ),
            (
                F::M,
                edited(|c| c.protocol_config.m = 1),
                edited(|c| c.protocol_config.m = 0),
            ),
            (
                F::Guard,
                edited(|c| c.protocol_config.guard_fine_us = f64::MIN_POSITIVE),
                edited(|c| c.protocol_config.guard_fine_us = 0.0),
            ),
            (F::Per, edited(|c| c.per = 0.0), edited(|c| c.per = 1.0)),
            (
                F::Churn,
                edited(|c| c.churn = Some(churn(0.05, 0.5, 1.0))),
                edited(|c| c.churn = Some(churn(0.049, 0.5, 1.0))),
            ),
            (
                F::Churn,
                edited(|c| c.churn = Some(churn(1.0, 1.0, 0.0))),
                edited(|c| c.churn = Some(churn(1.0, 1.0 + f64::EPSILON, 0.0))),
            ),
            (
                F::Churn,
                edited(|c| c.churn = Some(churn(1.0, 0.5, 0.0))),
                edited(|c| c.churn = Some(churn(1.0, 0.5, -1e-9))),
            ),
            (
                F::RefLeaves,
                edited(|c| c.ref_leaves_s = vec![2.0, 0.05]),
                edited(|c| c.ref_leaves_s = vec![2.0, 0.049]),
            ),
            // The 5 s run's last BP is BP 50.
            (
                F::RefLeaves,
                edited(|c| c.ref_leaves_s = vec![2.0, 5.0]),
                edited(|c| c.ref_leaves_s = vec![2.0, 5.1]),
            ),
            // BP 1 starts at 0.1 s: the narrowest window holding its start.
            (
                F::Attack,
                edited(|c| c.attacker = Some(attack(0.1, 0.1 + 1e-9))),
                edited(|c| c.attacker = Some(attack(0.0, 0.0))),
            ),
            (
                F::Jam,
                edited(|c| c.jam_windows = vec![window(0.1, 0.1 + 1e-9)]),
                edited(|c| c.jam_windows = vec![window(-1e-9, 1.0)]),
            ),
            // A window must hold a BP start: one starting just after BP 1's
            // and ending at BP 2's holds none.
            (
                F::Attack,
                edited(|c| c.attacker = Some(attack(0.1, 0.2))),
                edited(|c| c.attacker = Some(attack(0.1 + 1e-9, 0.2))),
            ),
            (
                F::Jam,
                edited(|c| c.jam_windows = vec![window(0.1, 0.2)]),
                edited(|c| c.jam_windows = vec![window(0.1 + 1e-9, 0.2)]),
            ),
            (
                F::Campaign,
                edited(|c| c.campaign = campaign("jamref:1:0.1:0.2")),
                edited(|c| c.campaign = campaign("jamref:1:0.100000001:0.2")),
            ),
            // The attacker's timestamps run slow, never fast.
            (
                F::Attack,
                edited(|c| c.attacker = Some(attack_error(0.0))),
                edited(|c| c.attacker = Some(attack_error(-1e-9))),
            ),
            // The 5 s run's last BP, BP 50, starts at 5 s.
            (
                F::Attack,
                edited(|c| c.attacker = Some(attack(5.0, 6.0))),
                edited(|c| c.attacker = Some(attack(5.0 + 1e-9, 6.0))),
            ),
            (
                F::Jam,
                edited(|c| c.jam_windows = vec![window(5.0, 6.0)]),
                edited(|c| c.jam_windows = vec![window(5.0 + 1e-9, 6.0)]),
            ),
            (
                F::Campaign,
                edited(|c| c.campaign = campaign("coalition:2:30:2:5:6")),
                edited(|c| c.campaign = campaign("coalition:2:30:2:5.000000001:6")),
            ),
            // 8 stations field 6 attackers and keep 2 honest.
            (
                F::Campaign,
                edited(|c| c.campaign = campaign("coalition:6:30:2:1:3")),
                edited(|c| c.campaign = campaign("coalition:7:30:2:1:3")),
            ),
            // On 2 × 2 × 1 islands the island stations cap the coalition.
            (
                F::Campaign,
                edited(|c| {
                    *c = c.clone().with_topology(bridged(2, 2, 1));
                    c.campaign = campaign("sybil:3:30:1:3");
                }),
                edited(|c| {
                    *c = c.clone().with_topology(bridged(2, 2, 1));
                    c.campaign = campaign("sybil:4:30:1:3");
                }),
            ),
            (
                F::Topology,
                edited(|c| {
                    c.n_nodes = 3;
                    c.topology = Some(TopologySpec::Ring);
                }),
                edited(|c| {
                    c.n_nodes = 2;
                    c.topology = Some(TopologySpec::Ring);
                }),
            ),
            // A mesh that fixes the station count must hold a network.
            (
                F::Topology,
                edited(|c| {
                    *c = c
                        .clone()
                        .with_topology(TopologySpec::Grid { cols: 2, rows: 1 })
                }),
                edited(|c| {
                    *c = c
                        .clone()
                        .with_topology(TopologySpec::Grid { cols: 1, rows: 1 })
                }),
            ),
            (
                F::Topology,
                edited(|c| c.topology = rgg(f64::MIN_POSITIVE, 1.0)),
                edited(|c| c.topology = rgg(0.0, 1.0)),
            ),
            (
                F::Topology,
                edited(|c| c.topology = rgg(1.0, 2.0)),
                edited(|c| c.topology = rgg(1.0, 0.0)),
            ),
            // Connectivity: a range past the diagonal connects any
            // placement, and 8 stations 1000 apart at range 1 never do.
            (
                F::Topology,
                edited(|c| c.topology = rgg(1000.0, 1415.0)),
                edited(|c| c.topology = rgg(1000.0, 1.0)),
            ),
            (
                F::Topology,
                edited(|c| *c = c.clone().with_topology(bridged(2, 1, 1))),
                edited(|c| *c = c.clone().with_topology(bridged(1, 1, 1))),
            ),
            (
                F::Topology,
                edited(|c| *c = c.clone().with_topology(bridged(2, 1, 1))),
                edited(|c| *c = c.clone().with_topology(bridged(2, 0, 1))),
            ),
            (
                F::Topology,
                edited(|c| *c = c.clone().with_topology(bridged(2, 1, 1))),
                edited(|c| *c = c.clone().with_topology(bridged(2, 1, 0))),
            ),
            // Cover: the mesh's station count is the scenario's.
            (
                F::Topology,
                edited(|c| {
                    c.n_nodes = 12;
                    c.topology = Some(TopologySpec::Grid { cols: 4, rows: 3 });
                }),
                edited(|c| {
                    c.n_nodes = 13;
                    c.topology = Some(TopologySpec::Grid { cols: 4, rows: 3 });
                }),
            ),
            (
                F::Topology,
                edited(|c| {
                    c.n_nodes = 13;
                    c.topology = Some(bridged(2, 3, 2));
                }),
                edited(|c| {
                    c.n_nodes = 14;
                    c.topology = Some(bridged(2, 3, 2));
                }),
            ),
        ];
        for (field, ok, bad) in table {
            if let Err(e) = ok.check() {
                panic!("boundary of {field:?} rejected: {e}");
            }
            assert_eq!(bad.check().map(|_| ()).unwrap_err().field, field, "{bad:?}");
        }
        // The u32 bound on a bridged mesh's station count. The largest
        // count that fits is too large to build, so the check meets only
        // the first count past it.
        assert!(bridged(2, 2_147_483_647, 1).fits());
        let past = edited(|c| *c = c.clone().with_topology(bridged(2, 2_147_483_648, 1)));
        assert_eq!(past.check().map(|_| ()).unwrap_err().field, F::Topology);
    }

    fn bridged(domains: u32, cols: u32, rows: u32) -> TopologySpec {
        TopologySpec::Bridged {
            domains,
            cols,
            rows,
        }
    }

    #[test]
    fn topology_station_counts_are_checked() {
        let mesh = bridged(4, 25, 10);
        assert!(mesh.fits());
        assert_eq!(mesh.required_nodes(), Some(1003));
        assert_eq!(mesh.island_nodes(), Some(1000));
        assert_eq!(TopologySpec::Ring.required_nodes(), None);
        assert_eq!(TopologySpec::Ring.island_nodes(), None);
        let grid = TopologySpec::Grid { cols: 4, rows: 3 };
        assert_eq!(
            (grid.required_nodes(), grid.island_nodes()),
            (Some(12), None)
        );
        // These used to wrap: cols·rows to 0, and the gateway term past
        // u32::MAX.
        for wraps in [
            bridged(2, 65536, 65536),
            bridged(u32::MAX, 1, 1),
            TopologySpec::Grid {
                cols: 65536,
                rows: 65536,
            },
        ] {
            assert!(!wraps.fits(), "{wraps:?} fits");
        }
    }

    #[test]
    #[should_panic(expected = "overflows u32")]
    fn overflowing_topology_count_rejected() {
        let _ = bridged(u32::MAX, 1, 1).required_nodes();
    }
}
