//! Cross-crate crypto interoperability: beacons produced by the protocol
//! layer must verify with the standalone µTESLA primitives, survive the
//! wire format, and behave identically across chain-storage strategies.

use mac80211::frame::{BeaconBody, SecuredBeacon};
use sstsp_crypto::{
    sign_with_chain, FractalTraverser, HashChain, IntervalSchedule, MuTeslaSigner, MuTeslaVerifier,
};

const BP_US: f64 = 100_000.0;

#[test]
fn protocol_beacon_verifies_after_wire_roundtrip() {
    let sched = IntervalSchedule::new(0.0, BP_US, 1_000);
    let mut signer = MuTeslaSigner::new([42u8; 16], sched);
    let mut verifier = MuTeslaVerifier::new(signer.anchor(), sched);

    for j in 1..=5usize {
        let body = BeaconBody {
            src: 7,
            seq: j as u32,
            timestamp_us: (j as f64 * BP_US) as u64,
            root: 7,
            hop: 0,
        };
        let auth = signer.sign(&body.auth_bytes(), j);
        // Serialize to the 92-byte wire image and decode on the receiver.
        let wire = SecuredBeacon { body, auth }.encode();
        assert_eq!(wire.len(), 92);
        let decoded = SecuredBeacon::decode(wire).expect("valid frame");
        assert_eq!(decoded.body, body);

        let out = verifier
            .observe(
                &decoded.body.auth_bytes(),
                &decoded.auth,
                sched.expected_emission_us(j),
            )
            .expect("authentic beacon accepted");
        if j >= 2 {
            let released = out.expect("previous beacon released");
            assert_eq!(released as usize, j - 1);
        }
    }
}

#[test]
fn bitflip_anywhere_in_frame_is_caught() {
    let sched = IntervalSchedule::new(0.0, BP_US, 100);
    let mut signer = MuTeslaSigner::new([1u8; 16], sched);

    let body = BeaconBody {
        src: 3,
        seq: 1,
        timestamp_us: 100_000,
        root: 3,
        hop: 0,
    };
    let auth1 = signer.sign(&body.auth_bytes(), 1);

    // Tamper with the timestamp inside the wire image of beacon 1.
    let wire = SecuredBeacon { body, auth: auth1 }.encode();
    let mut tampered_bytes = wire.to_vec();
    tampered_bytes[24] ^= 0x01; // first byte of the timestamp field
    let tampered = SecuredBeacon::decode(bytes::Bytes::from(tampered_bytes)).unwrap();

    let mut verifier = MuTeslaVerifier::new(signer.anchor(), sched);
    verifier
        .observe(
            &tampered.body.auth_bytes(),
            &tampered.auth,
            sched.expected_emission_us(1),
        )
        .expect("buffered; tampering only detectable at key disclosure");

    // Beacon 2 discloses interval 1's key: the tampered beacon must fail.
    let body2 = BeaconBody {
        src: 3,
        seq: 2,
        timestamp_us: 200_000,
        root: 3,
        hop: 0,
    };
    let auth2 = signer.sign(&body2.auth_bytes(), 2);
    let err = verifier
        .observe(&body2.auth_bytes(), &auth2, sched.expected_emission_us(2))
        .unwrap_err();
    assert_eq!(err, sstsp_crypto::VerifyError::PreviousBeaconForged);
}

#[test]
fn fractal_traversal_signs_identically_to_store_all() {
    // A reference node could hold its chain either way; the beacons must be
    // byte-identical.
    let seed = [9u8; 16];
    let n = 256;
    let chain = HashChain::generate(seed, n);
    let mut trav = FractalTraverser::new(seed, n);

    // The traverser yields h^{n-1}, h^{n-2}, ... — i.e. the key of interval
    // 1, then interval 2, ... (key of interval j is h^{n-j}).
    let payload = b"beacon";
    for j in 1..=8usize {
        let key_from_traversal = trav.next_element().unwrap();
        assert_eq!(key_from_traversal, chain.interval_key(j));
        let auth = sign_with_chain(&chain, payload, j);
        assert_eq!(auth.interval, j as u32);
        // MAC with the traversal key matches the store-all MAC.
        let mut msg = payload.to_vec();
        msg.extend_from_slice(&(j as u32).to_le_bytes());
        let mac = sstsp_crypto::hmac::hmac_sha256_128(&key_from_traversal, &msg);
        assert_eq!(mac, auth.mac);
    }
}

#[test]
fn anchor_published_by_engine_node_verifies_its_beacons() {
    // Drive the protocol node directly and verify its emissions with a
    // fresh standalone verifier fed only the registry anchor — exactly what
    // a late-joining receiver does.
    use protocols::api::{AnchorRegistry, BeaconPayload, NodeCtx, ProtocolConfig, SyncProtocol};
    use rand_chacha::rand_core::SeedableRng;

    let config = ProtocolConfig::paper();
    let mut anchors = AnchorRegistry::new();
    let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(8);
    let mut node = protocols::SstspNode::founding();

    let mut ctx = NodeCtx {
        id: 4,
        local_us: 0.0,
        rng: &mut rng,
        anchors: &mut anchors,
        config: &config,
    };
    node.init(&mut ctx);
    let anchor = anchors.get(4).expect("anchor published at init");

    let sched = IntervalSchedule::new(0.0, config.bp_us, config.total_intervals);
    let mut verifier = MuTeslaVerifier::new(anchor, sched);

    for k in 3..=6u64 {
        let t = k as f64 * config.bp_us;
        let mut ctx = NodeCtx {
            id: 4,
            local_us: t,
            rng: &mut rng,
            anchors: &mut anchors,
            config: &config,
        };
        let BeaconPayload::Secured(body, auth) = node.make_beacon(&mut ctx) else {
            panic!("SSTSP emits secured beacons");
        };
        verifier
            .observe(&body.auth_bytes(), &auth, t)
            .expect("engine-node beacon verifies against registry anchor");
    }
}
