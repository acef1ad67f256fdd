//! External forger.
//!
//! An attacker *without* cryptographic credentials (no authenticated hash
//! chain in the registry) that fabricates secured-looking beacons, possibly
//! impersonating a legitimate station's id. SSTSP receivers reject these at
//! the µTESLA stage: either the claimed source has no published anchor, or
//! the forged disclosed key fails to hash to the genuine anchor, or the
//! MAC of the buffered beacon fails once a genuine key discloses.

use mac80211::frame::BeaconBody;
use protocols::api::{
    BeaconIntent, BeaconPayload, NodeCtx, NodeId, ReceivedBeacon, RxVerdict, SyncProtocol,
};
use rand::Rng;
use sstsp_crypto::BeaconAuth;

/// A credential-less forger of secured beacons.
pub struct ExternalForger {
    /// Station id the forger impersonates (`None` = its own id).
    pub impersonate: Option<NodeId>,
    /// Timestamp bias applied to the forged clock value, µs (positive =
    /// claims a faster clock).
    pub bias_us: f64,
    /// Attack window in the forger's local clock, µs.
    pub start_us: f64,
    /// Window end.
    pub end_us: f64,
    seq: u32,
    /// Forged beacons transmitted.
    pub forgeries_sent: u64,
}

impl ExternalForger {
    /// Forge beacons during `[start_us, end_us)`, biasing timestamps by
    /// `bias_us`, impersonating `impersonate` if given.
    pub fn new(impersonate: Option<NodeId>, bias_us: f64, start_us: f64, end_us: f64) -> Self {
        ExternalForger {
            impersonate,
            bias_us,
            start_us,
            end_us,
            seq: 0,
            forgeries_sent: 0,
        }
    }

    fn active(&self, local_us: f64) -> bool {
        local_us >= self.start_us && local_us < self.end_us
    }
}

impl SyncProtocol for ExternalForger {
    fn intent(&mut self, ctx: &mut NodeCtx<'_>) -> BeaconIntent {
        if self.active(ctx.local_us) {
            BeaconIntent::FixedSlot(0)
        } else {
            BeaconIntent::Silent
        }
    }

    fn make_beacon(&mut self, ctx: &mut NodeCtx<'_>) -> BeaconPayload {
        self.seq = self.seq.wrapping_add(1);
        self.forgeries_sent += 1;
        let body = BeaconBody {
            src: self.impersonate.unwrap_or(ctx.id),
            seq: self.seq,
            timestamp_us: (ctx.local_us + self.bias_us).max(0.0) as u64,
            root: self.impersonate.unwrap_or(ctx.id),
            hop: 0,
        };
        // Without the chain the best the forger can do is random or reused
        // values — cryptographically worthless against the anchor check.
        let mut mac = [0u8; 16];
        let mut disclosed = [0u8; 16];
        ctx.rng.fill(&mut mac);
        ctx.rng.fill(&mut disclosed);
        let j = ((ctx.local_us / ctx.config.bp_us).round().max(1.0) as usize)
            .min(ctx.config.total_intervals);
        BeaconPayload::Secured(
            body,
            BeaconAuth {
                interval: j as u32,
                mac,
                disclosed,
            },
        )
    }

    fn on_beacon(&mut self, _ctx: &mut NodeCtx<'_>, _rx: ReceivedBeacon) -> RxVerdict {
        RxVerdict::Ignored
    }

    fn clock_us(&self, local_us: f64) -> f64 {
        local_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use protocols::api::{AnchorRegistry, ProtocolConfig};
    use protocols::SstspNode;
    use rand_chacha::rand_core::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    struct Env {
        config: ProtocolConfig,
        anchors: AnchorRegistry,
        rng: ChaCha12Rng,
    }
    impl Env {
        fn new() -> Self {
            Env {
                config: ProtocolConfig::paper(),
                anchors: AnchorRegistry::new(),
                rng: ChaCha12Rng::seed_from_u64(13),
            }
        }
        fn ctx(&mut self, id: u32, local_us: f64) -> NodeCtx<'_> {
            NodeCtx {
                id,
                local_us,
                rng: &mut self.rng,
                anchors: &mut self.anchors,
                config: &self.config,
            }
        }
    }

    #[test]
    fn forges_during_window_only() {
        let mut f = ExternalForger::new(None, 1_000.0, 100e6, 200e6);
        let mut env = Env::new();
        assert_eq!(f.intent(&mut env.ctx(7, 50e6)), BeaconIntent::Silent);
        assert_eq!(f.intent(&mut env.ctx(7, 150e6)), BeaconIntent::FixedSlot(0));
        let b = f.make_beacon(&mut env.ctx(7, 150e6));
        assert!(b.is_secured());
        assert_eq!(b.body().timestamp_us, 150_001_000);
    }

    #[test]
    fn impersonation_uses_victim_id() {
        let mut f = ExternalForger::new(Some(3), 0.0, 0.0, 1e9);
        let mut env = Env::new();
        let b = f.make_beacon(&mut env.ctx(7, 1e6));
        assert_eq!(b.src(), 3);
    }

    #[test]
    fn sstsp_node_rejects_forgery_without_anchor() {
        let mut f = ExternalForger::new(None, 500.0, 0.0, 1e9);
        let mut env = Env::new();
        let forged = f.make_beacon(&mut env.ctx(7, 100_000.0));

        let mut victim = SstspNode::founding();
        let mut ctx = env.ctx(1, 100_000.0);
        let verdict = victim.on_beacon(
            &mut ctx,
            ReceivedBeacon {
                payload: forged,
                local_rx_us: 100_000.0,
            },
        );
        assert_eq!(verdict, RxVerdict::UnknownAnchor);
        assert_eq!(victim.stats.unknown_anchor, 1);
        assert_eq!(victim.reference(), None);
    }

    #[test]
    fn sstsp_node_rejects_impersonation_of_known_reference() {
        let mut env = Env::new();
        // Legitimate node 3 has a published anchor.
        env.anchors.publish(3, [0x77; 16]);

        // Bias the timestamp so `ts + t_p` lands within the victim's guard
        // time — the forgery must reach (and fail) the µTESLA stage.
        let t_p = env.config.t_p_us;
        let mut f = ExternalForger::new(Some(3), -t_p, 0.0, 1e9);
        let forged = f.make_beacon(&mut env.ctx(7, 100_000.0));

        let mut victim = SstspNode::founding();
        let mut ctx = env.ctx(1, 100_000.0);
        let verdict = victim.on_beacon(
            &mut ctx,
            ReceivedBeacon {
                payload: forged,
                local_rx_us: 100_000.0,
            },
        );
        // The random disclosed key cannot hash to node 3's anchor.
        assert_eq!(verdict, RxVerdict::MuteslaReject);
        assert_eq!(victim.stats.guard_rejections, 0);
        assert_eq!(victim.stats.mutesla_rejections, 1);
    }
}
