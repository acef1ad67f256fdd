//! Output checks: a digest of everything a run reports, plus the
//! single-hop window identity.
//!
//! The benchmark pins no golden values (the test suite's goldens own
//! behaviour). It checks self-consistency instead: a scenario's digest must
//! be identical across every repetition, across thread counts, and between
//! the plain and the traced run.

use sstsp::{RunResult, ScenarioConfig};
use sstsp_crypto::Sha256;

/// Accumulates fields into a SHA-256 state and folds it to 64 bits.
#[derive(Default)]
pub struct Digest(Sha256);

impl Digest {
    /// Absorb an integer.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.0.update(&v.to_le_bytes());
        self
    }

    /// Absorb a float by its exact bit pattern.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// Absorb an optional float (absence is distinct from every value).
    pub fn opt_f64(&mut self, v: Option<f64>) -> &mut Self {
        match v {
            Some(x) => self.u64(1).f64(x),
            None => self.u64(0),
        }
    }

    /// Absorb an optional station id.
    pub fn opt_u32(&mut self, v: Option<u32>) -> &mut Self {
        self.u64(v.map_or(u64::MAX, u64::from))
    }

    /// Absorb a string, length-prefixed.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.u64(s.len() as u64);
        self.0.update(s.as_bytes());
        self
    }

    /// The first eight bytes of the SHA-256 of everything absorbed.
    pub fn finish(&self) -> u64 {
        let bytes = self.0.clone().finalize();
        u64::from_le_bytes(bytes[..8].try_into().expect("digest has 32 bytes"))
    }

    /// Absorb every field of a [`RunResult`]: the full spread series bit
    /// for bit, every summary counter, and the per-hop and per-domain
    /// reports.
    pub fn run(&mut self, r: &RunResult) -> &mut Self {
        self.str(r.protocol).u64(r.n_nodes.into()).u64(r.seed);
        self.u64(r.spread.len() as u64);
        for &v in r.spread.values() {
            self.f64(v);
        }
        self.opt_f64(r.sync_latency_s)
            .opt_f64(r.steady_error_us)
            .f64(r.peak_spread_us);
        for c in [
            r.tx_successes,
            r.tx_collisions,
            r.silent_windows,
            r.jammed_windows,
            r.reference_changes,
            r.guard_rejections,
            r.mutesla_rejections,
            r.retargets,
            r.alerts,
            u64::from(r.attacker_became_reference),
        ] {
            self.u64(c);
        }
        self.opt_u32(r.final_reference);
        match &r.hop_profile {
            Some(hops) => {
                self.u64(hops.len() as u64);
                for &(h, err) in hops {
                    self.u64(h.into()).f64(err);
                }
            }
            None => {
                self.u64(u64::MAX);
            }
        }
        match &r.domain_report {
            Some(domains) => {
                self.u64(domains.len() as u64);
                for d in domains {
                    self.u64(d.domain.into())
                        .u64(d.nodes.into())
                        .opt_u32(d.final_reference)
                        .opt_f64(d.end_spread_us);
                }
            }
            None => {
                self.u64(u64::MAX);
            }
        }
        self
    }
}

/// Digest of one run.
pub fn run_digest(r: &RunResult) -> u64 {
    Digest::default().run(r).finish()
}

/// One spread sample per BP and, on the single-hop channel, every window
/// accounted for exactly once: `silent + jammed + collision + success`
/// equals the BP count. (Mesh runs resolve one window per domain, so only
/// the sample count applies there.)
pub fn windows_add_up(cfg: &ScenarioConfig, r: &RunResult) -> bool {
    let bps = cfg.total_bps();
    let samples_ok = r.spread.len() as u64 == bps;
    let windows = r.silent_windows + r.jammed_windows + r.tx_collisions + r.tx_successes;
    samples_ok && (cfg.topology.is_some() || windows == bps)
}
