//! Property-based tests for the transport simulator.

use lumen_chat::channel::{ChannelConfig, NetworkChannel};
use lumen_chat::packet::FramePacket;
use lumen_chat::scenario::ScenarioBuilder;
use proptest::prelude::*;

proptest! {
    #[test]
    fn packet_roundtrip(seq in any::<u64>(), ts in 0.0f64..1e6, luma in 0.0f64..255.0) {
        let p = FramePacket::new(seq, ts, luma);
        prop_assert_eq!(FramePacket::decode(&p.encode()), Some(p));
    }

    #[test]
    fn decode_never_panics_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
        let _ = FramePacket::decode(&bytes);
    }

    #[test]
    fn lossless_channel_delivers_everything_in_order(
        n in 1usize..120,
        delay in 0.0f64..0.5,
        jitter in 0.0f64..0.1,
        seed in 0u64..50,
    ) {
        let mut ch = NetworkChannel::new(
            ChannelConfig { base_delay: delay, jitter, drop_prob: 0.0 },
            seed,
        )
        .unwrap();
        for i in 0..n as u64 {
            ch.send(FramePacket::new(i, i as f64 * 0.1, 0.0), i as f64 * 0.1);
        }
        let out = ch.poll(1e9);
        prop_assert_eq!(out.len(), n);
        for w in out.windows(2) {
            prop_assert!(w[1].seq > w[0].seq);
        }
    }

    #[test]
    fn channel_never_duplicates(
        n in 1usize..80,
        drop_prob in 0.0f64..0.9,
        seed in 0u64..50,
    ) {
        let mut ch = NetworkChannel::new(
            ChannelConfig { base_delay: 0.05, jitter: 0.02, drop_prob },
            seed,
        )
        .unwrap();
        for i in 0..n as u64 {
            ch.send(FramePacket::new(i, i as f64 * 0.1, 0.0), i as f64 * 0.1);
        }
        let out = ch.poll(1e9);
        prop_assert!(out.len() <= n);
        let mut seen = std::collections::HashSet::new();
        for p in &out {
            prop_assert!(seen.insert(p.seq));
        }
    }

    #[test]
    fn poll_is_monotone_in_time(seed in 0u64..30, t1 in 0.0f64..2.0, dt in 0.0f64..2.0) {
        let mut a = NetworkChannel::new(ChannelConfig::default(), seed).unwrap();
        let mut b = NetworkChannel::new(ChannelConfig::default(), seed).unwrap();
        for i in 0..30u64 {
            let pkt = FramePacket::new(i, i as f64 * 0.1, 1.0);
            a.send(pkt, i as f64 * 0.1);
            b.send(pkt, i as f64 * 0.1);
        }
        let early = a.poll(t1).len();
        let late = b.poll(t1 + dt).len();
        prop_assert!(late >= early);
    }

    #[test]
    fn scenarios_always_produce_aligned_traces(user in 0usize..10, seed in 0u64..40) {
        let b = ScenarioBuilder::default();
        let legit = b.legitimate(user, seed).unwrap();
        prop_assert_eq!(legit.tx.len(), legit.rx.len());
        prop_assert_eq!(legit.tx.sample_rate(), legit.rx.sample_rate());
        prop_assert!(legit.rx.samples().iter().all(|&v| (0.0..=255.0).contains(&v)));
        let attack = b.reenactment(user, seed).unwrap();
        prop_assert_eq!(attack.tx.len(), attack.rx.len());
    }
}
