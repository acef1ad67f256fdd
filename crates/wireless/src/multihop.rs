//! Multi-hop beacon-window resolution with carrier sensing and hidden
//! terminals.
//!
//! The single-hop model ([`crate::Channel`]) can decide the whole window
//! from the earliest occupied slot because everyone hears everyone. In a
//! multi-hop graph three effects appear that the resolution must model:
//!
//! * **local carrier sense** — a station defers only to transmissions it
//!   can hear (a neighbor that started earlier);
//! * **hidden terminals** — two transmitters out of each other's range can
//!   overlap in time and garble a receiver in range of both;
//! * **sequential reuse** — transmissions far enough apart in time (or in
//!   space) can both be decoded in the same window, which is what lets
//!   relays forward a beacon within one beacon period.
//!
//! With the full graph this resolution degenerates exactly to the
//! single-hop rules (verified by a test below).

use crate::topology::{DomainDecomposition, DomainOrder, Topology};
use serde::{Deserialize, Serialize};

/// A station's declared behaviour in a multi-hop beacon window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MhAttempt {
    /// Station id.
    pub station: u32,
    /// Slot the delay timer expires in.
    pub slot: u32,
    /// Relay attempt: a forwarding transmission. Unlike contention
    /// attempts it does **not** cancel-on-hear (hearing upstream traffic is
    /// the point); it defers only while the channel is busy at its slot.
    pub relay: bool,
}

/// One successful beacon decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MhDelivery {
    /// Receiving station.
    pub rx: u32,
    /// Transmitting station.
    pub tx: u32,
    /// Slot the transmission started in.
    pub slot: u32,
}

/// Resolved multi-hop window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MhOutcome {
    /// Stations that actually transmitted, with their start slots,
    /// slot-ordered.
    pub transmissions: Vec<(u32, u32)>,
    /// Successful decodes, ordered by start slot then receiver id.
    pub deliveries: Vec<MhDelivery>,
}

/// Whether intervals `[a, a+len)` and `[b, b+len)` overlap.
#[inline]
fn overlaps(a: u32, b: u32, len: u32) -> bool {
    a < b + len && b < a + len
}

/// Resolve one beacon window on `topology`, with beacons lasting
/// `airtime_slots` slots.
///
/// Rules, applied in slot order:
///
/// 1. a non-relay attempt transmits unless a *neighbor* started a
///    transmission in a strictly earlier slot (cancel-on-hear);
/// 2. a relay attempt does not cancel-on-hear; it defers only if a heard
///    transmission is still on the air at its slot (channel busy);
/// 3. a receiver decodes a neighbor's transmission iff no other heard
///    transmission overlaps it in time and the receiver itself was not
///    transmitting an overlapping interval (half-duplex).
pub fn resolve_multihop(
    topology: &Topology,
    attempts: &[MhAttempt],
    airtime_slots: u32,
) -> MhOutcome {
    assert!(airtime_slots > 0, "beacons occupy at least one slot");
    let mut sorted: Vec<MhAttempt> = attempts.to_vec();
    sorted.sort_by_key(|a| (a.slot, a.station));

    // Decided transmissions (station, start slot), in slot order.
    let mut txs: Vec<(u32, u32)> = Vec::new();

    let hears_earlier = |txs: &[(u32, u32)], station: u32, slot: u32| {
        txs.iter()
            .any(|&(u, s)| s < slot && topology.are_neighbors(station, u))
    };
    // A relay does not cancel-on-hear; it defers only while the channel is
    // busy at its slot.
    let busy_at = |txs: &[(u32, u32)], station: u32, slot: u32| {
        txs.iter().any(|&(u, s)| {
            topology.are_neighbors(station, u) && s <= slot && slot < s + airtime_slots
        })
    };

    for a in &sorted {
        if a.relay {
            if busy_at(&txs, a.station, a.slot) {
                continue;
            }
        } else if hears_earlier(&txs, a.station, a.slot) {
            continue; // cancel-on-hear
        }
        txs.push((a.station, a.slot));
    }

    // Deliveries.
    let mut deliveries = Vec::new();
    for rx in 0..topology.len() {
        deliveries_for_rx(topology, rx, &txs, airtime_slots, &mut deliveries);
    }
    deliveries.sort_by_key(|d| (d.slot, d.rx));

    MhOutcome {
        transmissions: txs,
        deliveries,
    }
}

/// Apply rule 3 (decode iff heard, not half-duplex-blocked, not garbled)
/// for one receiver against a decided-transmission list, appending any
/// decodes to `out`. `txs` must contain every transmission audible at
/// `rx` (extra inaudible entries are harmless — each check is gated on
/// `are_neighbors`).
fn deliveries_for_rx(
    topology: &Topology,
    rx: u32,
    txs: &[(u32, u32)],
    airtime_slots: u32,
    out: &mut Vec<MhDelivery>,
) {
    let own_tx: Option<u32> = txs.iter().find(|&&(u, _)| u == rx).map(|&(_, s)| s);
    for &(tx, s) in txs {
        if tx == rx || !topology.are_neighbors(rx, tx) {
            continue;
        }
        // Half-duplex: own transmission overlapping the interval.
        if let Some(os) = own_tx {
            if overlaps(s, os, airtime_slots) {
                continue;
            }
        }
        // Any other heard transmission overlapping the interval.
        let garbled = txs.iter().any(|&(v, s2)| {
            v != tx && v != rx && topology.are_neighbors(rx, v) && overlaps(s, s2, airtime_slots)
        });
        if !garbled {
            out.push(MhDelivery { rx, tx, slot: s });
        }
    }
}

/// Allocation-free per-domain window resolver: the rules of
/// [`resolve_multihop`], with the work bucketed by a collision-domain
/// decomposition and every buffer reused across windows.
///
/// Each decided transmission is published only into the domains that can
/// hear it (the transmitter's own domain plus every domain holding one of
/// its neighbors; these audible-domain sets are invariant over a run and
/// precomputed once). The carrier-sense checks for a station consult only
/// its home domain's bucket, and rule 3 runs per domain over that domain's
/// members against its bucket. Because every predicate in
/// [`resolve_multihop`] is gated on `are_neighbors`, and a station's home
/// bucket holds every decided transmission of its neighbors, the outcome is
/// **bit-identical to [`resolve_multihop`] for any partition** — the
/// decomposition only shrinks the candidate sets, never the audible ones.
/// Differential tests pin this for clique, per-node, one-domain and
/// arbitrary partitions, so the engine can call it every beacon period on
/// any topology without perturbing goldens or allocating.
///
/// Deliveries are produced domain-by-domain over the contiguous ranges of
/// a domain-major [`DomainOrder`], bucketed by the rank of their slot among
/// the window's distinct transmission slots, and merged into the
/// reference's `(slot, rx)` order.
pub struct MeshResolver {
    order: DomainOrder,
    /// Station id → home-domain index.
    home: Vec<u32>,
    /// Concatenated per-station audible-domain lists.
    audible: Vec<u32>,
    /// Station id → `(start, end)` range into [`audible`](Self::audible).
    audible_ranges: Vec<(u32, u32)>,
    sorted: Vec<MhAttempt>,
    by_domain: Vec<Vec<(u32, u32)>>,
    /// Station id → bitmask over the home bucket: bit `i` set iff the
    /// station hears bucket transmission `i`. Rebuilt (cleared + scattered
    /// from each transmitter's adjacency list) per domain per window.
    hear: Vec<u64>,
    /// The window's distinct transmission slots, ascending.
    slots: Vec<u32>,
    /// Deliveries bucketed by the rank of their slot in `slots` (reused
    /// across windows; ranks, unlike raw slot numbers, stay few even when
    /// candidacy slots run into the thousands). Concatenating the buckets
    /// in rank order after a stable per-bucket sort by receiver reproduces
    /// the reference's stable `(slot, rx)` sort at a fraction of the cost:
    /// each bucket is a concatenation of per-domain receiver-ascending
    /// runs, which the adaptive stable sort merges in near-linear time.
    per_rank: Vec<Vec<MhDelivery>>,
    /// Staging for over-wide buckets before rank routing.
    spill: Vec<MhDelivery>,
    out: MhOutcome,
}

impl MeshResolver {
    /// Build a resolver for one `(topology, decomposition)` pair.
    ///
    /// # Panics
    /// Panics if `decomp` does not cover exactly `topology.len()` stations.
    pub fn new(topology: &Topology, decomp: &DomainDecomposition) -> Self {
        assert_eq!(
            decomp.domain_of.len(),
            topology.len() as usize,
            "decomposition does not match the topology"
        );
        let mut audible = Vec::new();
        let mut audible_ranges = Vec::with_capacity(topology.len() as usize);
        let mut doms: Vec<u32> = Vec::new();
        for s in 0..topology.len() {
            doms.clear();
            doms.push(decomp.domain_of(s));
            doms.extend(topology.neighbors(s).iter().map(|&v| decomp.domain_of(v)));
            doms.sort_unstable();
            doms.dedup();
            let start = audible.len() as u32;
            audible.extend_from_slice(&doms);
            audible_ranges.push((start, audible.len() as u32));
        }
        MeshResolver {
            order: DomainOrder::new(decomp),
            home: decomp.domain_of.clone(),
            audible,
            audible_ranges,
            sorted: Vec::new(),
            by_domain: vec![Vec::new(); decomp.len()],
            hear: vec![0; topology.len() as usize],
            slots: Vec::new(),
            per_rank: Vec::new(),
            spill: Vec::new(),
            out: MhOutcome {
                transmissions: Vec::new(),
                deliveries: Vec::new(),
            },
        }
    }

    /// The domain-major order the resolver iterates deliveries in.
    pub fn order(&self) -> &DomainOrder {
        &self.order
    }

    /// Resolve one beacon window; the returned outcome is valid until the
    /// next call. `topology` must be the one the resolver was built for.
    pub fn resolve(
        &mut self,
        topology: &Topology,
        attempts: &[MhAttempt],
        airtime_slots: u32,
    ) -> &MhOutcome {
        assert!(airtime_slots > 0, "beacons occupy at least one slot");
        self.sorted.clear();
        self.sorted.extend_from_slice(attempts);
        self.sorted.sort_by_key(|a| (a.slot, a.station));
        self.out.transmissions.clear();
        self.out.deliveries.clear();
        for bucket in &mut self.by_domain {
            bucket.clear();
        }

        for a in &self.sorted {
            let home = &self.by_domain[self.home[a.station as usize] as usize];
            let blocked = if a.relay {
                home.iter().any(|&(u, s)| {
                    topology.are_neighbors(a.station, u)
                        && s <= a.slot
                        && a.slot < s + airtime_slots
                })
            } else {
                home.iter()
                    .any(|&(u, s)| s < a.slot && topology.are_neighbors(a.station, u))
            };
            if blocked {
                continue;
            }
            self.out.transmissions.push((a.station, a.slot));
            let (start, end) = self.audible_ranges[a.station as usize];
            for i in start..end {
                let d = self.audible[i as usize];
                self.by_domain[d as usize].push((a.station, a.slot));
            }
        }

        // Transmissions were decided in slot order, so their distinct
        // slots come out ascending.
        self.slots.clear();
        for &(_, s) in &self.out.transmissions {
            if self.slots.last() != Some(&s) {
                self.slots.push(s);
            }
        }
        if self.per_rank.len() < self.slots.len() {
            self.per_rank.resize_with(self.slots.len(), Vec::new);
        }
        let slots = &self.slots;
        let rank = |slot: u32| slots.binary_search(&slot).expect("decided slot");

        for d in 0..self.order.num_domains() {
            let bucket = &self.by_domain[d];
            let members = self.order.members(d);
            if bucket.is_empty() {
                continue;
            }
            if bucket.len() > 64 {
                // Bucket too wide for the bitmask kernel (adversarial
                // attempt storms); fall back to the exact per-member scan,
                // routed through the same rank buckets.
                self.spill.clear();
                for &rx in members {
                    deliveries_for_rx(topology, rx, bucket, airtime_slots, &mut self.spill);
                }
                for &del in &self.spill {
                    self.per_rank[rank(del.slot)].push(del);
                }
                continue;
            }

            // Bitmask delivery kernel, replacing the per-member
            // `are_neighbors` binary searches with one adjacency-list
            // scatter per bucket transmission. Bit `i` of `hear[rx]`
            // means rx is a neighbor of bucket tx `i` (bits for rx's own
            // transmissions can never be set — adjacency has no
            // self-loops — which encodes rule 3's `v != rx` exemption
            // for free). Decoding a member is then pure bit arithmetic;
            // ascending bit order equals bucket order, so deliveries are
            // pushed exactly as `deliveries_for_rx` would push them.
            for &rx in members {
                self.hear[rx as usize] = 0;
            }
            let mut garble = [0u64; 64];
            let mut ranks = [0usize; 64];
            for (i, &(u, si)) in bucket.iter().enumerate() {
                ranks[i] = rank(si);
                let bit = 1u64 << i;
                for &v in topology.neighbors(u) {
                    if self.home[v as usize] as usize == d {
                        self.hear[v as usize] |= bit;
                    }
                }
                // Garble mask: every other-station transmission whose
                // airtime overlaps tx `i` (rule 3's `v != tx` is a
                // station-id comparison, so same-station duplicates are
                // excluded at any index).
                for (j, &(uj, sj)) in bucket.iter().enumerate() {
                    if uj != u && overlaps(si, sj, airtime_slots) {
                        garble[i] |= 1u64 << j;
                    }
                }
            }
            for &rx in members {
                let mask = self.hear[rx as usize];
                if mask == 0 {
                    continue;
                }
                // Half-duplex: first own transmission in the bucket, as
                // `deliveries_for_rx` finds it.
                let own: Option<u32> = bucket.iter().find(|&&(u, _)| u == rx).map(|&(_, s)| s);
                let mut m = mask;
                while m != 0 {
                    let i = m.trailing_zeros() as usize;
                    m &= m - 1;
                    let (tx, s) = bucket[i];
                    if let Some(os) = own {
                        if overlaps(s, os, airtime_slots) {
                            continue;
                        }
                    }
                    if mask & garble[i] == 0 {
                        self.per_rank[ranks[i]].push(MhDelivery { rx, tx, slot: s });
                    }
                }
            }
        }
        for bucket in &mut self.per_rank[..self.slots.len()] {
            bucket.sort_by_key(|d| d.rx);
            self.out.deliveries.extend_from_slice(bucket);
            bucket.clear();
        }
        &self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plain(station: u32, slot: u32) -> MhAttempt {
        MhAttempt {
            station,
            slot,
            relay: false,
        }
    }

    fn relay(station: u32, slot: u32) -> MhAttempt {
        MhAttempt {
            station,
            slot,
            relay: true,
        }
    }

    const A: u32 = 7; // secured beacon airtime in slots

    #[test]
    fn full_graph_matches_single_hop_semantics() {
        let t = Topology::full(5);
        // Earliest slot wins; later attempts cancel.
        let out = resolve_multihop(&t, &[plain(0, 3), plain(1, 1), plain(2, 9)], A);
        assert_eq!(out.transmissions, vec![(1, 1)]);
        assert_eq!(out.deliveries.len(), 4, "all others decode the winner");

        // Equal earliest slots collide: both transmit, nobody decodes.
        let out = resolve_multihop(&t, &[plain(0, 2), plain(1, 2), plain(2, 8)], A);
        assert_eq!(out.transmissions, vec![(0, 2), (1, 2)]);
        assert!(out.deliveries.is_empty());
    }

    #[test]
    fn hidden_terminals_garble_the_middle() {
        // 0 — 1 — 2: 0 and 2 cannot hear each other.
        let t = Topology::line(3);
        let out = resolve_multihop(&t, &[plain(0, 0), plain(2, 2)], A);
        // Both transmit (no carrier sense across two hops)...
        assert_eq!(out.transmissions, vec![(0, 0), (2, 2)]);
        // ...and station 1, hearing both overlapped, decodes neither.
        assert!(out.deliveries.is_empty());
    }

    #[test]
    fn spatial_reuse_decodes_both_ends() {
        // 0 — 1 — 2 — 3 — 4: 0 and 4 are far enough apart that their
        // transmissions coexist: 1 decodes 0, 3 decodes 4.
        let t = Topology::line(5);
        let out = resolve_multihop(&t, &[plain(0, 0), plain(4, 0)], A);
        assert_eq!(out.transmissions.len(), 2);
        assert_eq!(
            out.deliveries,
            vec![
                MhDelivery {
                    rx: 1,
                    tx: 0,
                    slot: 0
                },
                MhDelivery {
                    rx: 3,
                    tx: 4,
                    slot: 0
                },
            ]
        );
    }

    #[test]
    fn sequential_transmissions_both_decoded() {
        let t = Topology::full(3);
        // Station 2 would defer (hears station 0)... give it a relay-free
        // window: only station 0 at slot 0; station 1 decodes.
        let out = resolve_multihop(&t, &[plain(0, 0)], A);
        assert_eq!(out.deliveries.len(), 2);
        // Two sequential non-overlapping transmissions (hidden from each
        // other) are both decodable by a common neighbor.
        let t = Topology::line(3);
        let out = resolve_multihop(&t, &[plain(0, 0), plain(2, 8)], A);
        assert_eq!(
            out.deliveries,
            vec![
                MhDelivery {
                    rx: 1,
                    tx: 0,
                    slot: 0
                },
                MhDelivery {
                    rx: 1,
                    tx: 2,
                    slot: 8
                },
            ]
        );
    }

    #[test]
    fn relay_does_not_cancel_on_hear() {
        let t = Topology::line(4);
        // Reference 0 at slot 0; station 1 relays at slot 8 (after the
        // 7-slot airtime) even though it heard station 0 start earlier;
        // station 2 decodes the relay.
        let out = resolve_multihop(&t, &[plain(0, 0), relay(1, 8)], A);
        assert_eq!(out.transmissions, vec![(0, 0), (1, 8)]);
        assert!(out.deliveries.contains(&MhDelivery {
            rx: 2,
            tx: 1,
            slot: 8
        }));

        // A relay with no upstream traffic still transmits (it forwards
        // its own disciplined clock).
        let out = resolve_multihop(&t, &[relay(1, 8)], A);
        assert_eq!(out.transmissions, vec![(1, 8)]);
    }

    #[test]
    fn relay_defers_while_channel_busy() {
        let t = Topology::line(3);
        // Relay slot 5 < airtime 7: the upstream transmission still holds
        // the channel, so the relay defers this window.
        let out = resolve_multihop(&t, &[plain(0, 0), relay(1, 5)], A);
        assert_eq!(out.transmissions, vec![(0, 0)]);
    }

    #[test]
    fn relay_chain_propagates_across_hops() {
        // 0 — 1 — 2 — 3 with relays staggered one airtime apart: the
        // beacon crosses three hops in one window.
        let t = Topology::line(4);
        let out = resolve_multihop(&t, &[plain(0, 0), relay(1, 8), relay(2, 16)], A);
        assert_eq!(out.transmissions, vec![(0, 0), (1, 8), (2, 16)]);
        assert!(out.deliveries.contains(&MhDelivery {
            rx: 3,
            tx: 2,
            slot: 16
        }));
    }

    #[test]
    fn half_duplex_blocks_reception_during_own_tx() {
        let t = Topology::line(3);
        // 0 and 1 both transmit at slot 0: 1 cannot decode 0 (own tx), and
        // 0 cannot decode 1. Station 2 hears only 1 and decodes it.
        let out = resolve_multihop(&t, &[plain(0, 0), plain(1, 0)], A);
        assert_eq!(
            out.deliveries,
            vec![MhDelivery {
                rx: 2,
                tx: 1,
                slot: 0
            }]
        );
    }

    #[test]
    fn deterministic_for_any_input_order() {
        let t = Topology::grid(3, 3);
        let a = [plain(0, 2), plain(8, 1), relay(4, 9), plain(2, 2)];
        let mut b = a;
        b.reverse();
        assert_eq!(resolve_multihop(&t, &a, A), resolve_multihop(&t, &b, A));
    }

    /// One window through a fresh resolver bucketed by `d`.
    fn mesh(t: &Topology, d: &DomainDecomposition, attempts: &[MhAttempt]) -> MhOutcome {
        MeshResolver::new(t, d).resolve(t, attempts, A).clone()
    }

    /// The partitions the differential tests sweep: greedy cliques, one
    /// domain per station, and a single domain.
    fn partitions(t: &Topology) -> [DomainDecomposition; 3] {
        [
            t.clique_domains(),
            DomainDecomposition::from_partition((0..t.len()).map(|i| vec![i]).collect(), t),
            DomainDecomposition::from_partition(vec![(0..t.len()).collect()], t),
        ]
    }

    #[test]
    fn mesh_resolution_matches_global_on_bridged_graph() {
        let (t, d) = Topology::bridged(2, 3, 2);
        let attempts = [
            plain(0, 0),
            plain(7, 0),
            relay(12, 8),
            plain(3, 5),
            plain(11, 16),
        ];
        let global = resolve_multihop(&t, &attempts, A);
        assert_eq!(mesh(&t, &d, &attempts), global);
        // Both islands transmit in parallel: spatial reuse across domains.
        assert!(global.transmissions.contains(&(0, 0)));
        assert!(global.transmissions.contains(&(7, 0)));
    }

    #[test]
    fn mesh_resolver_matches_global_across_reused_windows() {
        // One resolver, many windows with different attempt mixes: every
        // outcome must be bit-identical to a fresh global resolution
        // (proving the scratch buffers fully reset between windows).
        let (t, d) = Topology::bridged(3, 3, 2);
        let mut r = MeshResolver::new(&t, &d);
        let windows: [&[MhAttempt]; 5] = [
            &[plain(0, 0), plain(7, 0), relay(18, 8), plain(3, 5)],
            &[],
            &[
                plain(2, 2),
                plain(9, 2),
                plain(16, 2),
                relay(19, 10),
                relay(18, 10),
            ],
            &[plain(0, 0)],
            &[
                relay(18, 0),
                relay(19, 0),
                plain(5, 3),
                plain(12, 3),
                plain(17, 16),
            ],
        ];
        for attempts in windows {
            assert_eq!(
                r.resolve(&t, attempts, A),
                &resolve_multihop(&t, attempts, A)
            );
        }
    }

    #[test]
    fn mesh_resolution_is_partition_independent() {
        // Any partition — even a deliberately bad one that splits cliques —
        // must produce the identical outcome.
        let t = Topology::grid(3, 3);
        let attempts = [plain(0, 0), plain(8, 0), relay(4, 9), plain(2, 3)];
        let global = resolve_multihop(&t, &attempts, A);
        for d in partitions(&t) {
            assert_eq!(mesh(&t, &d, &attempts), global);
        }
    }

    #[test]
    fn over_wide_buckets_take_the_exact_spill_path() {
        // 70 simultaneous transmitters put more than 64 entries in a
        // bucket, past the bitmask kernel's width, under every partition
        // (each station's home bucket hears all of them). The relays after
        // the slot-0 pile-up are decodable, so the spill path must also
        // reproduce non-empty deliveries in the reference order.
        let t = Topology::full(100);
        let mut attempts: Vec<MhAttempt> = (0..70).map(|s| plain(s, 0)).collect();
        attempts.extend([relay(80, A), relay(90, 2 * A), plain(95, 1)]);
        let global = resolve_multihop(&t, &attempts, A);
        assert_eq!(
            global.transmissions.len(),
            72,
            "slot-0 pile-up plus two relays"
        );
        assert!(!global.deliveries.is_empty(), "the relays are decodable");
        for d in partitions(&t) {
            assert_eq!(mesh(&t, &d, &attempts), global);
        }
        // Reusing a resolver across a spill window and a kernel window
        // leaves no residue in either direction.
        let d = t.clique_domains();
        let mut r = MeshResolver::new(&t, &d);
        let narrow = [plain(3, 4), relay(7, 4 + A)];
        for window in [&attempts[..], &narrow[..], &attempts[..]] {
            assert_eq!(r.resolve(&t, window, A), &resolve_multihop(&t, window, A));
        }
    }
}
