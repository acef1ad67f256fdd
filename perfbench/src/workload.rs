//! The five workloads and the inputs each derives from `--seed`.
//!
//! Why each workload exists (which layers it stresses, which it bypasses)
//! is recorded in `BENCHMARK.json` and README.md.

use sstsp::experiments::{fig1, fig2, fig3, fig4, table1, Fidelity};
use sstsp::scenario::TopologySpec;
use sstsp::{ProtocolKind, RunResult, ScenarioConfig};

use crate::digest::Digest;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's hostile scenario: Fig. 4's setup at n=100 on the fast path.
    PaperFig4,
    /// One 5000-station collision domain, 200 BPs.
    LargeN5000,
    /// A 4-domain bridged mesh (n=1003), 300 BPs.
    MeshN1003,
    /// `MeshN1003` under a coordinated coalition campaign (slow path).
    HostileMesh,
    /// The five paper experiments at paper fidelity, invariant-checked.
    PaperRepro,
}

/// Input scale. `Full` is the benchmark; `Tiny` keeps every mechanism of a
/// workload but shrinks it so debug-build tests finish in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's inputs.
    Full,
    /// Shrunk inputs for tests.
    Tiny,
}

/// The experiment seeds `paper_repro` draws from: 2006, the seed of the
/// repository's figures, then every seed in 0-59 at which all five paper
/// experiments pass `run_checked` and `shape_holds()`. The other 24 seeds
/// of 0-59 fail one (README, "Findings"); they stay out of the benchmark
/// until that is fixed, because a workload must not fail on unchanged code.
pub const PAPER_SEEDS: [u64; 37] = [
    2006, 0, 1, 2, 5, 7, 8, 9, 10, 14, 15, 16, 17, 18, 19, 21, 23, 24, 25, 26, 27, 33, 35, 36, 37,
    38, 39, 40, 41, 42, 44, 50, 51, 55, 56, 57, 59,
];

/// The experiment seed `paper_repro` runs at for `--seed seed`: seed 2006
/// gives 2006, and each following seed the next entry of [`PAPER_SEEDS`],
/// cyclically.
pub fn paper_seed(seed: u64) -> u64 {
    let offset =
        (i128::from(seed) - i128::from(PAPER_SEEDS[0])).rem_euclid(PAPER_SEEDS.len() as i128);
    PAPER_SEEDS[offset as usize]
}

/// The coalition campaign of `hostile_mesh`: four colluders, 200 µs
/// timestamp error, 2-BP replay delay, active 10-20 s.
const HOSTILE_CAMPAIGN: &str = "coalition:4:200:2:10:20";

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 5] = [
        Workload::PaperFig4,
        Workload::LargeN5000,
        Workload::MeshN1003,
        Workload::HostileMesh,
        Workload::PaperRepro,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperFig4 => "paper_fig4",
            Workload::LargeN5000 => "large_n5000",
            Workload::MeshN1003 => "mesh_n1003",
            Workload::HostileMesh => "hostile_mesh",
            Workload::PaperRepro => "paper_repro",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's scenario seeds: `seed, seed+1, ...`, enough that one
    /// seed's scenario content (churn draws, election timing) barely moves
    /// an aggregate, few enough that every seed is repeated often within
    /// the time budget. `paper_repro` runs its five experiments at one
    /// seed, [`paper_seed`].
    pub fn seeds(self, seed: u64, size: Size) -> Vec<u64> {
        let count = match (self, size) {
            (Workload::PaperRepro, _) => return vec![paper_seed(seed)],
            (_, Size::Tiny) => 2,
            (Workload::PaperFig4 | Workload::HostileMesh, Size::Full) => 8,
            (Workload::LargeN5000 | Workload::MeshN1003, Size::Full) => 12,
        };
        (0..count).map(|i| seed.wrapping_add(i)).collect()
    }

    /// The scenario an engine workload runs at `seed`; `None` for
    /// `paper_repro`, which runs the experiment modules instead.
    pub fn scenario(self, seed: u64, size: Size) -> Option<ScenarioConfig> {
        let tiny = size == Size::Tiny;
        let bridged = |seed| {
            let (domains, cols, rows, secs) = if tiny {
                (2, 2, 2, 3.0)
            } else {
                (4, 25, 10, 30.0)
            };
            let mut cfg = ScenarioConfig::new(
                ProtocolKind::Sstsp,
                domains * cols * rows + domains - 1,
                secs,
                seed,
            );
            cfg.topology = Some(TopologySpec::Bridged {
                domains,
                cols,
                rows,
            });
            cfg
        };
        Some(match self {
            Workload::PaperFig4 if tiny => {
                let mut cfg = ScenarioConfig::new(ProtocolKind::Sstsp, 8, 5.0, seed);
                cfg.attacker = Some(sstsp::AttackerSpec {
                    start_s: 1.0,
                    end_s: 3.0,
                    error_us: 30.0,
                });
                cfg
            }
            Workload::PaperFig4 => {
                ScenarioConfig::paper_with_attacker(ProtocolKind::Sstsp, 100, seed)
            }
            Workload::LargeN5000 => {
                let n = if tiny { 40 } else { 5000 };
                ScenarioConfig::new(ProtocolKind::Sstsp, n, if tiny { 2.0 } else { 20.0 }, seed)
            }
            Workload::MeshN1003 => bridged(seed),
            Workload::HostileMesh => {
                let mut cfg = bridged(seed);
                let spec = if tiny {
                    "coalition:2:200:2:1:2"
                } else {
                    HOSTILE_CAMPAIGN
                };
                cfg.campaign = Some(spec.parse().expect("campaign spec is valid"));
                cfg
            }
            Workload::PaperRepro => return None,
        })
    }

    /// Station count of the workload's scenarios (the paper experiments'
    /// largest network for `paper_repro`).
    pub fn nodes(self, size: Size) -> u32 {
        match self.scenario(0, size) {
            Some(cfg) => cfg.n_nodes,
            None => fidelity(size).n(500),
        }
    }
}

/// Experiment scale for `paper_repro`.
pub fn fidelity(size: Size) -> Fidelity {
    match size {
        Size::Full => Fidelity::Paper,
        Size::Tiny => Fidelity::Quick,
    }
}

/// What the benchmark keeps of one experiment's output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExperimentOutput {
    /// Digest of every run (or table row) the experiment produced.
    pub digest: u64,
    /// The experiment's own `shape_holds()` verdict.
    pub shape_holds: bool,
    /// Beacon periods simulated.
    pub bps: u64,
}

/// One paper experiment as `paper_repro` runs it.
pub struct Experiment {
    /// Short name (`fig1` ... `table1`).
    pub name: &'static str,
    /// Run the experiment at a fidelity and seed.
    pub run: fn(Fidelity, u64) -> ExperimentOutput,
}

fn runs_output<'a>(
    runs: impl IntoIterator<Item = &'a RunResult>,
    shape_holds: bool,
) -> ExperimentOutput {
    let mut digest = Digest::default();
    let mut bps = 0;
    for r in runs {
        digest.run(r);
        bps += r.spread.len() as u64;
    }
    ExperimentOutput {
        digest: digest.finish(),
        shape_holds,
        bps,
    }
}

/// The five experiments `paper_repro` runs, in order.
pub static EXPERIMENTS: [Experiment; 5] = [
    Experiment {
        name: "fig1",
        run: |fid, seed| {
            let f = fig1::run(fid, seed);
            runs_output(&f.runs, f.shape_holds())
        },
    },
    Experiment {
        name: "fig2",
        run: |fid, seed| {
            let f = fig2::run(fid, seed);
            runs_output([&f.run], f.shape_holds())
        },
    },
    Experiment {
        name: "fig3",
        run: |fid, seed| {
            let f = fig3::run(fid, seed);
            runs_output([&f.run], f.shape_holds())
        },
    },
    Experiment {
        name: "fig4",
        run: |fid, seed| {
            let f = fig4::run(fid, seed);
            runs_output([&f.run], f.shape_holds())
        },
    },
    Experiment {
        name: "table1",
        run: |fid, seed| {
            let t = table1::run(fid, seed);
            let mut digest = Digest::default();
            for row in &t.rows {
                digest
                    .u64(row.m.into())
                    .opt_f64(row.latency_s)
                    .opt_f64(row.error_us);
            }
            // Table 1 exposes rows, not runs: one run per m = 1..=5, each
            // the clean-room 400 s scenario `table1::run` builds.
            let per_run =
                ScenarioConfig::new(ProtocolKind::Sstsp, fid.n(500), fid.secs(400.0), seed)
                    .total_bps();
            ExperimentOutput {
                digest: digest.finish(),
                shape_holds: t.shape_holds(),
                bps: per_run * t.rows.len() as u64,
            }
        },
    },
];

/// The main network of each paper experiment, for timing `paper_repro`'s
/// set-up (the experiments build their networks internally).
pub fn experiment_setups(fid: Fidelity, seed: u64) -> Vec<ScenarioConfig> {
    vec![
        ScenarioConfig::paper(ProtocolKind::Tsf, fid.n(300), seed),
        ScenarioConfig::paper(ProtocolKind::Sstsp, fid.n(500), seed).with_m(4),
        ScenarioConfig::paper_with_attacker(ProtocolKind::Tsf, fid.n(100), seed),
        ScenarioConfig::paper_with_attacker(ProtocolKind::Sstsp, fid.n(500), seed).with_m(4),
        ScenarioConfig::new(ProtocolKind::Sstsp, fid.n(500), fid.secs(400.0), seed),
    ]
}
