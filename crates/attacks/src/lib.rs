//! # attacks — adversary models against 802.11 time synchronization
//!
//! The paper's security analysis (Sec. 4) and hostile-environment
//! evaluation (Figs. 3–4) consider:
//!
//! * **internal fast-beacon attacker** ([`fast_beacon`]) — a compromised
//!   station that transmits a beacon at the start of every BP *without
//!   random delay*, carrying an erroneous time value slower than its local
//!   clock, crafted to pass SSTSP's guard-time check. Against TSF this
//!   wins every contention, suppresses all legitimate beacons and
//!   desynchronizes the network; against SSTSP it can at most become the
//!   reference of a slightly skewed virtual clock.
//! * **replay** — recording legitimate beacons and re-transmitting them
//!   later to magnify the offset between declared and actual time
//!   (µTESLA's interval check defeats it); the coalition campaign's
//!   amplifiers ([`campaign`]) are the replay attacker;
//! * **external forger** ([`forger`]) — fabricates secured-looking beacons
//!   without possessing any authenticated hash chain (the anchor registry
//!   defeats it).
//! * **jamming** — the channel's jamming switch, driven by scenario jam
//!   windows and by the campaign's reference-slot jammer; pulse-delay
//!   (jam-then-relay) is not modeled.
//! * **coordinated campaigns** ([`campaign`]) — colluding coalitions of
//!   the above, Sybil-style candidacy flooding against per-domain
//!   reference election, and a reactive jammer keyed to the sitting
//!   reference's beacon slot, all driven by one shared plan.
//!
//! All attackers implement the same [`protocols::SyncProtocol`] trait as
//! honest stations, so the engine treats them uniformly.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod campaign;
pub mod fast_beacon;
pub mod forger;

pub use campaign::{CampaignKind, CampaignMember, CampaignRole, CampaignSpec};
pub use fast_beacon::{AttackWindow, FastBeaconAttacker};
pub use forger::ExternalForger;
