//! Property tests for the mesh-topology layer: generator invariants,
//! seeded reproducibility, domain-decomposition coverage, and the
//! differential pin `MeshResolver == resolve_multihop` for any partition.

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;
use wireless::{
    resolve_multihop, DomainDecomposition, DomainOrder, MeshResolver, MhAttempt, MhOutcome,
    Topology,
};

/// Symmetric (j ∈ adj(i) ⇔ i ∈ adj(j)) and irreflexive (i ∉ adj(i)).
fn assert_symmetric_irreflexive(t: &Topology) {
    for i in 0..t.len() {
        prop_assert!(!t.are_neighbors(i, i), "self-loop at {i}");
        for &j in t.neighbors(i) {
            prop_assert!(j < t.len(), "neighbor {j} out of range");
            prop_assert!(t.are_neighbors(j, i), "asymmetric edge {i}-{j}");
        }
    }
}

/// One window through a fresh [`MeshResolver`] bucketed by `d`.
fn resolve_with(
    t: &Topology,
    d: &DomainDecomposition,
    attempts: &[MhAttempt],
    airtime: u32,
) -> MhOutcome {
    MeshResolver::new(t, d)
        .resolve(t, attempts, airtime)
        .clone()
}

/// Identical adjacency structure.
fn same_graph(a: &Topology, b: &Topology) -> bool {
    a.len() == b.len() && (0..a.len()).all(|i| a.neighbors(i) == b.neighbors(i))
}

/// Partition covers every station exactly once; every edge is inside one
/// domain or bridges exactly the two domains of its endpoints.
fn assert_valid_decomposition(t: &Topology, d: &DomainDecomposition) {
    let mut seen = vec![0u32; t.len() as usize];
    for (idx, members) in d.domains.iter().enumerate() {
        prop_assert!(!members.is_empty(), "empty domain {idx}");
        for &m in members {
            seen[m as usize] += 1;
            prop_assert_eq!(d.domain_of(m), idx as u32);
        }
    }
    prop_assert!(
        seen.iter().all(|&c| c == 1),
        "decomposition is not a partition"
    );
    for i in 0..t.len() {
        for &j in t.neighbors(i) {
            // An edge touches the domains of its two endpoints and no
            // others: either inside one domain or bridging exactly two.
            let di = d.domain_of(i);
            let dj = d.domain_of(j);
            let touched = if di == dj { 1 } else { 2 };
            prop_assert!(touched <= 2, "edge {i}-{j} spans too many domains");
        }
    }
}

proptest! {
    /// Every generator yields a symmetric, irreflexive graph.
    #[test]
    fn generators_are_symmetric_and_irreflexive(
        seed in any::<u64>(),
        cols in 1u32..6,
        rows in 1u32..6,
        ring_n in 3u32..40,
        domains in 2u32..5,
    ) {
        assert_symmetric_irreflexive(&Topology::grid(cols, rows));
        assert_symmetric_irreflexive(&Topology::ring(ring_n));
        let (mesh, _) = Topology::bridged(domains, cols, rows);
        assert_symmetric_irreflexive(&mesh);
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        if let Some(t) = Topology::try_random_disk(16, 100.0, 45.0, &mut rng, 16) {
            assert_symmetric_irreflexive(&t);
        }
    }

    /// Seeded generators are reproducible: same seed, same graph.
    #[test]
    fn seeded_generators_reproduce(seed in any::<u64>()) {
        let gen = |s: u64| {
            let mut rng = ChaCha12Rng::seed_from_u64(s);
            Topology::try_random_disk(20, 100.0, 45.0, &mut rng, 32)
        };
        match (gen(seed), gen(seed)) {
            (Some(a), Some(b)) => prop_assert!(same_graph(&a, &b), "same seed, different graph"),
            (None, None) => {}
            _ => prop_assert!(false, "same seed, different rejection outcome"),
        }
    }

    /// Random geometric graphs are connected, or the draw is explicitly
    /// rejected (`None`) — a disconnected graph is never returned.
    #[test]
    fn random_disk_connected_or_rejected(seed in any::<u64>(), n in 4u32..24) {
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        // A deliberately tight range so both outcomes occur across seeds.
        if let Some(t) = Topology::try_random_disk(n, 100.0, 38.0, &mut rng, 4) {
            prop_assert!(t.is_connected(), "accepted draw must be connected");
        }
    }

    /// Clique decomposition of an arbitrary connected mesh: partition
    /// covers all nodes, every domain is a clique, every edge inside or
    /// bridging exactly two domains.
    #[test]
    fn clique_decomposition_covers_random_meshes(seed in any::<u64>()) {
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let t = Topology::random_disk(20, 100.0, 45.0, &mut rng);
        let d = t.clique_domains();
        assert_valid_decomposition(&t, &d);
        for members in &d.domains {
            for &a in members {
                for &b in members {
                    prop_assert!(a == b || t.are_neighbors(a, b), "domain is not a clique");
                }
            }
        }
    }

    /// The bridged generator's ground-truth decomposition is valid, its
    /// bridge set is exactly the appended gateway stations, and every
    /// bridge can hear both adjacent islands in full.
    #[test]
    fn bridged_decomposition_ground_truth(
        domains in 2u32..5,
        cols in 1u32..4,
        rows in 1u32..4,
    ) {
        let (t, d) = Topology::bridged(domains, cols, rows);
        assert_valid_decomposition(&t, &d);
        let island = cols * rows;
        let expected: Vec<u32> = (0..domains - 1).map(|j| domains * island + j).collect();
        prop_assert_eq!(&d.bridges, &expected);
        for (j, &b) in d.bridges.iter().enumerate() {
            for k in [j as u32, j as u32 + 1] {
                for i in k * island..(k + 1) * island {
                    prop_assert!(t.are_neighbors(b, i), "bridge {b} cannot hear {i}");
                }
            }
        }
        prop_assert!(t.is_connected());
    }

    /// Differential pin: per-domain window resolution agrees with the
    /// naive O(n²) global reference on randomized meshes (n ≤ 32), for the
    /// clique decomposition, the per-node partition the engine uses for
    /// undecomposed topologies, a single domain, and an arbitrary
    /// partition.
    #[test]
    fn mesh_resolution_matches_naive_reference(
        seed in any::<u64>(),
        n in 8u32..=32,
        raw in proptest::collection::vec((0u32..32, 0u32..31, any::<bool>()), 0..24),
        assignment in proptest::collection::vec(0u32..5, 32..33),
    ) {
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let t = Topology::random_disk(n, 100.0, 52.0, &mut rng);
        let mut attempts: Vec<MhAttempt> = raw
            .into_iter()
            .filter(|&(station, _, _)| station < n)
            .map(|(station, slot, relay)| MhAttempt { station, slot, relay })
            .collect();
        attempts.sort_by_key(|a| a.station);
        attempts.dedup_by_key(|a| a.station);

        let airtime = 7;
        let reference = resolve_multihop(&t, &attempts, airtime);
        let mut groups: Vec<Vec<u32>> = vec![Vec::new(); 5];
        for i in 0..n {
            groups[assignment[i as usize] as usize].push(i);
        }
        groups.retain(|g| !g.is_empty());
        for (name, d) in [
            ("cliques", t.clique_domains()),
            (
                "per-node",
                DomainDecomposition::from_partition((0..n).map(|i| vec![i]).collect(), &t),
            ),
            ("one-domain", DomainDecomposition::from_partition(vec![(0..n).collect()], &t)),
            ("arbitrary", DomainDecomposition::from_partition(groups, &t)),
        ] {
            let got = resolve_with(&t, &d, &attempts, airtime);
            prop_assert!(got == reference, "{name} partition: {got:?} != {reference:?}");
        }
    }

    /// The domain-major permutation round-trips node ids for arbitrary
    /// decompositions: `id_at(pos_of(id)) == id` and `pos_of(id_at(p)) == p`
    /// for every station/position, each domain's contiguous slice equals
    /// the decomposition's member list, and the ranges tile `0..n` exactly.
    #[test]
    fn domain_order_round_trips_arbitrary_decompositions(
        seed in any::<u64>(),
        n in 2u32..=32,
        assignment in proptest::collection::vec(0u32..6, 32..33),
    ) {
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let t = Topology::random_disk(n, 100.0, 52.0, &mut rng);
        // An arbitrary partition: group stations by their drawn label,
        // dropping empty groups (from_partition rejects those).
        let mut groups: Vec<Vec<u32>> = vec![Vec::new(); 6];
        for i in 0..n {
            groups[assignment[i as usize] as usize].push(i);
        }
        groups.retain(|g| !g.is_empty());
        let d = DomainDecomposition::from_partition(groups, &t);
        let order = DomainOrder::new(&d);

        prop_assert_eq!(order.num_domains(), d.len());
        prop_assert_eq!(order.perm().len(), n as usize);
        for id in 0..n {
            prop_assert_eq!(order.id_at(order.pos_of(id)), id);
        }
        for pos in 0..n {
            prop_assert_eq!(order.pos_of(order.id_at(pos)), pos);
        }
        let mut next = 0u32;
        for (di, members) in d.domains.iter().enumerate() {
            prop_assert_eq!(order.members(di), members.as_slice());
            for &id in members {
                prop_assert_eq!(order.pos_of(id), next);
                next += 1;
            }
        }
        prop_assert_eq!(next, n);
    }

    /// The reusable resolver stays bit-identical to the naive reference
    /// across repeated windows through one resolver instance.
    #[test]
    fn mesh_resolver_matches_reference_across_reused_windows(
        seed in any::<u64>(),
        n in 8u32..=32,
        raw in proptest::collection::vec((0u32..32, 0u32..31, any::<bool>()), 0..24),
    ) {
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let t = Topology::random_disk(n, 100.0, 52.0, &mut rng);
        let mut attempts: Vec<MhAttempt> = raw
            .into_iter()
            .filter(|&(station, _, _)| station < n)
            .map(|(station, slot, relay)| MhAttempt { station, slot, relay })
            .collect();
        attempts.sort_by_key(|a| a.station);
        attempts.dedup_by_key(|a| a.station);

        let airtime = 7;
        let cliques = t.clique_domains();
        let mut resolver = MeshResolver::new(&t, &cliques);
        // Two windows: full attempt set, then a prefix — the second call
        // must not see residue from the first.
        prop_assert_eq!(
            resolver.resolve(&t, &attempts, airtime),
            &resolve_multihop(&t, &attempts, airtime)
        );
        let half = &attempts[..attempts.len() / 2];
        prop_assert_eq!(
            resolver.resolve(&t, half, airtime),
            &resolve_multihop(&t, half, airtime)
        );
    }

    /// The same differential pin on the explicit bridged union the engine
    /// runs, with relay attempts at the gateways.
    #[test]
    fn mesh_resolution_matches_reference_on_bridged(
        domains in 2u32..4,
        cols in 1u32..4,
        rows in 1u32..4,
        raw in proptest::collection::vec((0u32..40, 0u32..31), 0..20),
    ) {
        let (t, d) = Topology::bridged(domains, cols, rows);
        let n = t.len();
        let mut attempts: Vec<MhAttempt> = raw
            .into_iter()
            .filter(|&(station, _)| station < n)
            .map(|(station, slot)| MhAttempt {
                station,
                slot,
                relay: d.is_bridge(station),
            })
            .collect();
        attempts.sort_by_key(|a| a.station);
        attempts.dedup_by_key(|a| a.station);

        let airtime = 7;
        prop_assert_eq!(
            resolve_with(&t, &d, &attempts, airtime),
            resolve_multihop(&t, &attempts, airtime)
        );
    }
}
