//! Scenario configuration.
//!
//! Every experiment in the paper is a point in this configuration space.
//! The `paper_*` constructors reproduce the setups of Sec. 5 exactly:
//! 1000 s runs, BP = 0.1 s, w = 30, l = 1, drift ±0.01 %, PER 0.01 %,
//! initial offsets ±112 µs, 5 % of the stations leaving at k·200 s for
//! 50 s, and the reference leaving at 300 s, 500 s and 800 s.

use clocks::DriftModel;
use protocols::api::ProtocolConfig;
use serde::{Deserialize, Serialize};
use simcore::rng::StreamDomain;
use simcore::RngStreams;
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
}

/// Topology for the multi-hop extension. `None` = the paper's single-hop
/// IBSS (full connectivity, fast-path channel model).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
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
    /// Panics if that count overflows `u32`; parsers reject such specs
    /// through [`TopologySpec::fits`].
    pub fn required_nodes(&self) -> Option<u32> {
        self.checked_required_nodes()
            .expect("topology station count overflows u32")
    }

    /// Whether the station count this spec requires, if any, fits a `u32`.
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

/// A jamming window: the channel destroys every transmission inside it.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct JamWindow {
    /// Start, seconds.
    pub start_s: f64,
    /// End, seconds.
    pub end_s: f64,
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
    pub fn duration_fits(duration_s: f64) -> bool {
        let bp_s = ProtocolConfig::paper().bp_us / 1e6;
        duration_s.is_finite()
            && duration_s > 0.0
            && (duration_s / bp_s).ceil() + 64.0 <= f64::from(u32::MAX)
    }

    /// A minimal scenario: no churn, no reference departures, no attacker.
    pub fn new(protocol: ProtocolKind, n_nodes: u32, duration_s: f64, seed: u64) -> Self {
        assert!(n_nodes >= 2, "a network needs at least two stations");
        assert!(
            Self::duration_fits(duration_s),
            "duration {duration_s} s is not positive, or its µTESLA interval count overflows u32"
        );
        let mut pc = ProtocolConfig::paper();
        pc.total_intervals = (duration_s / (pc.bp_us / 1e6)).ceil() as usize + 64;
        ScenarioConfig {
            protocol,
            n_nodes,
            duration_s,
            seed,
            drift: DriftModel::paper(),
            per: 1e-4,
            protocol_config: pc,
            churn: None,
            ref_leaves_s: Vec::new(),
            ref_absence_s: 50.0,
            attacker: None,
            campaign: None,
            jam_windows: Vec::new(),
            topology: None,
            timestamp_jitter_us: 1.0,
        }
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

    /// Number of beacon periods in the run.
    pub fn total_bps(&self) -> u64 {
        (self.duration_s / (self.protocol_config.bp_us / 1e6)).floor() as u64
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
        let top = self
            .topology
            .and_then(|t| t.island_nodes())
            .unwrap_or(self.n_nodes);
        assert!(
            c.attackers < top && c.attackers <= self.n_nodes - 2,
            "campaign must leave honest island stations ({} attackers, {} stations)",
            c.attackers,
            self.n_nodes
        );
        top - c.attackers..top
    }

    /// Builds the multi-hop topology, with the collision-domain
    /// decomposition a bridged mesh carries; `Ok(None)` for the single-hop
    /// IBSS. A random geometric graph draws its placements from scenario
    /// stream 1, so this one construction serves both
    /// [`Network::build`](crate::Network::build) and the input validators
    /// that must reject a spec before the engine meets it.
    ///
    /// # Errors
    /// A random geometric graph with no connected placement among the
    /// [`RANDOM_DISK_ATTEMPTS`] this seed draws.
    ///
    /// # Panics
    /// A grid or bridged mesh that does not cover `n_nodes` stations, or a
    /// ring under 3 stations; parsers reject both.
    pub fn build_topology(
        &self,
    ) -> Result<Option<(Topology, Option<DomainDecomposition>)>, String> {
        let Some(spec) = self.topology else {
            return Ok(None);
        };
        let n = self.n_nodes;
        let built = match spec {
            TopologySpec::Line => (Topology::line(n), None),
            TopologySpec::Ring => (Topology::ring(n), None),
            TopologySpec::Grid { cols, rows } => {
                assert_eq!(cols * rows, n, "grid must cover all stations");
                (Topology::grid(cols, rows), None)
            }
            TopologySpec::RandomDisk { side, range } => {
                let mut rng = RngStreams::new(self.seed).stream(StreamDomain::Scenario, 1);
                let Some(topo) =
                    Topology::try_random_disk(n, side, range, &mut rng, RANDOM_DISK_ATTEMPTS)
                else {
                    return Err(format!(
                        "no connected placement of {n} stations in a {side} × {side} area \
                         at range {range} ({RANDOM_DISK_ATTEMPTS} draws at seed {})",
                        self.seed
                    ));
                };
                (topo, None)
            }
            TopologySpec::Bridged {
                domains,
                cols,
                rows,
            } => {
                let (topo, decomp) = Topology::bridged(domains, cols, rows);
                assert_eq!(topo.len(), n, "bridged mesh must cover all stations");
                (topo, Some(decomp))
            }
        };
        Ok(Some(built))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    }

    #[test]
    #[should_panic(expected = "two stations")]
    fn single_node_rejected() {
        let _ = ScenarioConfig::new(ProtocolKind::Tsf, 1, 1.0, 0);
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
        let _ = ScenarioConfig::new(ProtocolKind::Sstsp, 4, 1e12, 0);
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
