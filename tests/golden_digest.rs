//! Golden digest of the detector's outputs.
//!
//! About 250 seeded clips run through one trained [`Detector`]:
//! legitimate calls, reenactment, replay, the adaptive forger at 0 ms and
//! 100 ms, gated clips with gaps, a flatline or a hold, and a `stream`
//! class fed sample by sample through an ungated and a gated
//! [`StreamingDetector`]. The test hashes the exact bits of every result
//! (z1–z4, the LOF score and the vote, or the abstention's reason and
//! payload; for a streamed clip also its clip index, the fused status and
//! the retrigger flag) with FNV-1a and compares the result with a
//! committed constant. A kernel rewrite that claims to change no output
//! bit must leave the digest unchanged; a change that moves it on purpose
//! must say why and update the tables below, which the failure message
//! prints in full.
//!
//! On a mismatch the test prints one sub-digest per class, the first clip
//! whose bits differ, and whether the simulated input traces still hash to
//! [`INPUTS_GOLDEN`]. A libm that rounds differently on another host moves
//! the inputs too; a change to the detector's arithmetic leaves them in
//! place.

use lumen::chat::fault::{BurstLoss, FaultPlan};
use lumen::chat::scenario::ScenarioBuilder;
use lumen::chat::trace::TracePair;
use lumen::core::detector::{ClipOutcome, Detector};
use lumen::core::quality::{GateDecision, InconclusiveReason, QualityGate};
use lumen::core::stream::{ClipVerdict, SessionStatus, StreamingDetector};
use lumen::core::Config;
use lumen::dsp::Signal;

/// FNV-1a digest of every clip's record, in run order.
const GOLDEN: u64 = 0xc9a5_f9d3_d763_bab7;

/// FNV-1a digest of the `to_bits` of every transmitted and received
/// sample fed to the detector, in run order.
const INPUTS_GOLDEN: u64 = 0x391c_7523_37b9_d9d4;

/// FNV-1a digest of each class's clip records, in run order.
const CLASS_GOLDEN: [(&str, u64); 9] = [
    ("legitimate", 0xfc56_be26_def6_195a),
    ("reenactment", 0x0c65_2c50_7e65_2e87),
    ("replay", 0xbf97_92fe_e49a_7869),
    ("adaptive_0ms", 0xee6a_8d01_78c1_bcb5),
    ("adaptive_100ms", 0xa29c_71e1_938d_84aa),
    ("gaps", 0x53fe_eccc_9d6c_a593),
    ("flatline", 0xe72c_fc5b_56f5_0da5),
    ("hold", 0x977a_94a7_b0ff_5903),
    ("stream", 0x8495_c8ed_873d_6d1d),
];

/// The low 32 bits of each clip record's own FNV-1a digest, in run order.
const CLIP_GOLDEN: [u32; 253] = [
    0xbd06f470, 0xc68fb7d0, 0x77c6ff60, 0xbfe48e28, 0x463b0184, 0xf385959d, 0xec76678e, 0xdd389ede,
    0x3de97ef9, 0x1603d54d, 0x689e8ade, 0x424d3d54, 0x3807168e, 0xeaa7a7b3, 0x5ca51e21, 0x4171746d,
    0xa43328a8, 0x9507bb7c, 0x39f597c6, 0x7df37964, 0xf52594ce, 0xa277c1da, 0xcb58e5fc, 0x2bd04266,
    0xc90eca59, 0xe1fa2bc9, 0x5a686bb7, 0xcfdaf2e0, 0xabbf82dc, 0xd65b8915, 0xb60124d8, 0x8b376fe2,
    0xea42e9c9, 0x094e40ed, 0x85e18986, 0x8500d1c0, 0x373983b5, 0x74bfc8bf, 0x8cc4965c, 0x7b0e60f1,
    0xa2f681c5, 0x6d789029, 0xfce36046, 0x2e25022c, 0x8c4ddde2, 0x167e8697, 0xd2fae6b2, 0x2a8f81ac,
    0x12a50896, 0x60039247, 0x3889aafd, 0x6ffea920, 0xec4d4198, 0xf3df98db, 0x633fad5d, 0xe3993693,
    0x27044a94, 0x73fa31a4, 0x44f0c0c9, 0x901438a0, 0x294b00c5, 0x61a5b9c1, 0x3ab8374e, 0x686aeeeb,
    0x7a37a69c, 0x7d73c4e5, 0xd3f9f942, 0xda3c8bba, 0x4edbb379, 0x16a32a5c, 0x80fee68e, 0x5f9499dc,
    0xd14b07fc, 0x52143883, 0x8312565d, 0xfcd11f0d, 0x81942a9d, 0xaf4ad924, 0x224ac63d, 0x53030b47,
    0xa70848b0, 0x8890f6f2, 0xda30f96a, 0x01d0ff6c, 0xd3c71865, 0x868b0971, 0x4ee421c1, 0x08daadf4,
    0xb71c9b24, 0xd5ebd582, 0x1fcbd3b9, 0x265382b8, 0x3828c465, 0x558b66ed, 0x619b7944, 0xe9e76f83,
    0xa34c5698, 0x8fe99376, 0xdd3a22c6, 0x73bea007, 0x26259e65, 0x2456b5ed, 0x0ef653b3, 0xa775e659,
    0x82d05dda, 0x664e62d7, 0x6d38b85b, 0xdde51772, 0x837f7251, 0xff0babf5, 0x6eeca6d3, 0x48533245,
    0xdae385cc, 0x8d04c856, 0xeba99b32, 0xe04ec853, 0xa2e185b1, 0x955371b6, 0x10294d67, 0xa0765953,
    0x85e19ec6, 0xa860d62b, 0x74f82470, 0x087998e8, 0x4a533d97, 0x92122e33, 0x6a0871aa, 0x0122409e,
    0x28c6b386, 0x71a1fdc4, 0x033daa75, 0x6422379a, 0x3b0dd18a, 0xf9e91d7e, 0x7a4df373, 0xc5b92b63,
    0xb43ddaf8, 0xd86082cb, 0x8df4922c, 0xf39aaa80, 0x0741a3e4, 0x22d5bbc2, 0xdefe8523, 0x288c93c9,
    0x6de4df8d, 0x631b54f2, 0xddac0407, 0x01172dfe, 0xfc86dee7, 0x9cc85d2c, 0xe8fc8586, 0xb60baab7,
    0x1067fa33, 0xfbf4f7e4, 0x27f975a3, 0x3affb91c, 0x21de6dc6, 0xb91ad4bf, 0xfb072753, 0xe1eb1bf8,
    0x90e54785, 0x915dc740, 0xf147494b, 0x222c6165, 0x96415534, 0x6cbd853d, 0x08e1233c, 0xeff0452b,
    0xc96a1f66, 0x11adf530, 0xca40d2eb, 0xf4999883, 0x9d934b60, 0x99ffbf2f, 0x74de362d, 0x79015824,
    0x4c07271d, 0xa69c1778, 0xefcb5abb, 0x611ff761, 0x55e750e5, 0x55e750e5, 0x55e750e5, 0x55e750e5,
    0x55e750e5, 0x55e750e5, 0x808dc843, 0xf33e2d09, 0x3175168f, 0x015b931a, 0xe4aaee71, 0x3175168f,
    0x88523b2b, 0x6b19661a, 0x406df3c9, 0x8a17e799, 0x7207e9c0, 0x0981505a, 0x9203ece8, 0x00f01e7b,
    0xb45d8d0b, 0xd6d81dcc, 0xec571476, 0x2ddcc248, 0x451f44df, 0x276e8356, 0xa385e6b6, 0xfda02394,
    0x43bc53e2, 0x5b707300, 0x9853d786, 0xa2354b21, 0x03a253f4, 0x9c846f79, 0xdabc20c9, 0xfae73e36,
    0x1f8b3ab1, 0x354714ac, 0x9a26c947, 0x04cb97f8, 0xad031578, 0x8fa53042, 0x20368536, 0xd95898bb,
    0xfae7f123, 0xb328f712, 0x3221043d, 0x3576dee7, 0x028c7ab4, 0xd53daab7, 0x953e2172, 0x88fc4707,
    0xcd699f36, 0x9c642204, 0x0aabb5ab, 0xd3080942, 0x107c3b9c, 0xc6491b7e, 0x96d307b5, 0xb4e85c33,
    0x92e887e3, 0x9de0e291, 0xf09129df, 0x5d29e555, 0x4b6565ee, 0xab1ab8dd, 0x964c272d, 0xa1b0c143,
    0xa10b40b0, 0xd7b25756, 0x0965dd10, 0x72262331, 0x8439b1d2,
];

/// 64-bit FNV-1a.
#[derive(Debug, Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn samples(&mut self, samples: &[f64]) {
        for s in samples {
            self.word(s.to_bits());
        }
    }

    /// Hashes one clip's record: its result and, for a streamed clip, the
    /// stream's clip index, fused status and retrigger flag.
    fn record(&mut self, clip: &Clip) {
        self.outcome(&clip.outcome);
        if let Some(s) = &clip.streamed {
            self.word(s.clip_index as u64);
            self.word(match s.status {
                SessionStatus::Gathering => 0,
                SessionStatus::Trusted => 1,
                SessionStatus::Alert => 2,
            });
            self.word(u64::from(s.retrigger));
        }
    }

    /// Hashes the exact bits of one clip's result.
    fn outcome(&mut self, outcome: &ClipOutcome) {
        match outcome {
            ClipOutcome::Conclusive(d) => {
                self.word(0);
                for z in d.features.as_array() {
                    self.word(z.to_bits());
                }
                self.word(d.score.to_bits());
                self.word(u64::from(d.accepted));
            }
            ClipOutcome::Inconclusive(reason) => {
                let (variant, payload) = match *reason {
                    InconclusiveReason::TooShort { len } => (0, len as u64),
                    InconclusiveReason::Flatline => (1, 0),
                    InconclusiveReason::ExcessiveGaps { gap_fraction } => {
                        (2, gap_fraction.to_bits())
                    }
                    InconclusiveReason::LongFreeze { run } => (3, run as u64),
                    InconclusiveReason::LowEffectiveRate { rate } => (4, rate.to_bits()),
                    InconclusiveReason::NonFinite { count } => (5, count as u64),
                    InconclusiveReason::Withheld => (6, 0),
                };
                self.word(1);
                self.word(variant);
                self.word(payload);
            }
        }
    }
}

/// One judged clip.
struct Clip {
    class: &'static str,
    seed: u64,
    outcome: ClipOutcome,
    /// Whether the gate bridged gaps in the clip before it was scored.
    repaired: bool,
    /// What the stream reported with the clip, for the `stream` class.
    streamed: Option<Streamed>,
}

/// The stream's side of a [`ClipVerdict`].
struct Streamed {
    clip_index: usize,
    status: SessionStatus,
    retrigger: bool,
}

impl Clip {
    fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.record(self);
        h.0
    }
}

/// Collects the clips of every class, in run order.
struct Corpus {
    detector: Detector,
    gate: QualityGate,
    clips: Vec<Clip>,
    inputs: Fnv,
    /// Streamed samples outside the 8-bit range, which the stream clamps.
    clamped: usize,
}

impl Corpus {
    fn detect(&mut self, class: &'static str, seed: u64, pair: &TracePair) {
        self.inputs.samples(pair.tx.samples());
        self.inputs.samples(pair.rx.samples());
        let d = self
            .detector
            .detect(pair)
            .unwrap_or_else(|e| panic!("{class} clip {seed}: {e}"));
        self.clips.push(Clip {
            class,
            seed,
            outcome: ClipOutcome::Conclusive(d),
            repaired: false,
            streamed: None,
        });
    }

    fn detect_gated(&mut self, class: &'static str, seed: u64, pair: &TracePair) {
        self.inputs.samples(pair.tx.samples());
        self.inputs.samples(pair.rx.samples());
        let screened = self.gate.screen(pair.rx.samples(), pair.rx.sample_rate());
        let repaired =
            matches!(screened.decision, GateDecision::Pass { repaired, .. } if repaired > 0);
        let outcome = self
            .detector
            .detect_gated(pair, &self.gate)
            .unwrap_or_else(|e| panic!("{class} clip {seed}: {e}"));
        self.clips.push(Clip {
            class,
            seed,
            outcome,
            repaired,
            streamed: None,
        });
    }

    /// Feeds every clip sample by sample into `stream`, one verdict per
    /// clip.
    fn stream(&mut self, stream: &mut StreamingDetector, clips: &[(u64, TracePair)]) {
        for (seed, pair) in clips {
            self.inputs.samples(pair.tx.samples());
            self.inputs.samples(pair.rx.samples());
            let samples = pair.tx.samples().iter().zip(pair.rx.samples());
            let mut verdicts: Vec<ClipVerdict> = Vec::new();
            for (&tx, &rx) in samples {
                self.clamped += [tx, rx]
                    .iter()
                    .filter(|v| !(0.0..=255.0).contains(*v))
                    .count();
                let pushed = stream
                    .push(tx, rx)
                    .unwrap_or_else(|e| panic!("stream clip {seed}: {e}"));
                verdicts.extend(pushed);
            }
            let [v] = &verdicts[..] else {
                panic!("stream clip {seed}: {} verdicts", verdicts.len());
            };
            self.clips.push(Clip {
                class: "stream",
                seed: *seed,
                outcome: v.outcome,
                repaired: false,
                streamed: Some(Streamed {
                    clip_index: v.clip_index,
                    status: v.status,
                    retrigger: v.retrigger,
                }),
            });
        }
    }
}

/// Every clip in run order, and the digest of their input traces.
fn corpus() -> (Vec<Clip>, u64) {
    let chats = ScenarioBuilder::default();
    let training: Vec<_> = (0..20)
        .map(|i| chats.legitimate(0, 90_000 + i).unwrap())
        .collect();
    let mut c = Corpus {
        detector: Detector::train_from_traces(&training, Config::default()).unwrap(),
        gate: QualityGate::default(),
        clips: Vec::new(),
        inputs: Fnv::new(),
        clamped: 0,
    };
    // Victims rotate over four volunteers; the detector was enrolled on
    // volunteer 0 only, so the others also exercise cross-user scores.
    let user = |seed: u64| (seed % 4) as usize;
    for seed in 91_000..91_040 {
        c.detect(
            "legitimate",
            seed,
            &chats.legitimate(user(seed), seed).unwrap(),
        );
    }
    for seed in 92_000..92_040 {
        c.detect(
            "reenactment",
            seed,
            &chats.reenactment(user(seed), seed).unwrap(),
        );
    }
    for seed in 93_000..93_030 {
        c.detect("replay", seed, &chats.replay(user(seed), seed).unwrap());
    }
    for seed in 94_000..94_025 {
        c.detect(
            "adaptive_0ms",
            seed,
            &chats.adaptive(user(seed), 0.0, seed).unwrap(),
        );
    }
    for seed in 95_000..95_025 {
        c.detect(
            "adaptive_100ms",
            seed,
            &chats.adaptive(user(seed), 0.1, seed).unwrap(),
        );
    }
    // Gilbert–Elliott burst loss: the gate bridges short gaps and passes
    // the clip, and abstains on clips that lost too much.
    let burst = |p_enter, mean_burst, loss_bad| {
        chats.clone().with_faults(FaultPlan {
            burst: BurstLoss::bursty(p_enter, mean_burst, loss_bad),
            ..FaultPlan::none()
        })
    };
    let gaps = burst(0.08, 4.0, 0.9);
    for seed in 96_000..96_020 {
        c.detect_gated("gaps", seed, &gaps.legitimate(user(seed), seed).unwrap());
    }
    // A receiver frozen on one frame for the whole clip.
    for seed in 97_000..97_006 {
        let mut pair = chats.legitimate(user(seed), seed).unwrap();
        let level = 60.0 + (seed % 97) as f64;
        pair.rx = Signal::new(vec![level; pair.rx.len()], pair.rx.sample_rate()).unwrap();
        c.detect_gated("flatline", seed, &pair);
    }
    // Link freezes of 1, 2 and 4 s: the receiver holds its last frame.
    for (i, seed) in (98_000..98_021).enumerate() {
        let holds = chats.clone().with_faults(FaultPlan {
            freeze_prob: 0.01,
            freeze_duration: [1.0, 2.0, 4.0][i % 3],
            ..FaultPlan::none()
        });
        c.detect_gated("hold", seed, &holds.legitimate(user(seed), seed).unwrap());
    }
    // The streaming path: clean calls, reenactment, light and heavy burst
    // loss, and calls whose received luminance is lifted 200 grey levels
    // past the 8-bit range, fed sample by sample into an ungated and a
    // gated stream.
    let heavy = burst(0.1, 6.0, 0.95);
    let mut streamed: Vec<(u64, TracePair)> = Vec::new();
    for seed in 99_000..99_005 {
        streamed.push((seed, chats.legitimate(user(seed), seed).unwrap()));
    }
    for seed in 99_100..99_105 {
        streamed.push((seed, chats.reenactment(user(seed), seed).unwrap()));
    }
    for seed in 99_200..99_204 {
        streamed.push((seed, gaps.legitimate(user(seed), seed).unwrap()));
    }
    for seed in 99_300..99_305 {
        streamed.push((seed, heavy.legitimate(user(seed), seed).unwrap()));
    }
    for seed in 99_400..99_404 {
        let mut pair = chats.legitimate(user(seed), seed).unwrap();
        let lifted = pair.rx.samples().iter().map(|v| v + 200.0).collect();
        pair.rx = Signal::new(lifted, pair.rx.sample_rate()).unwrap();
        streamed.push((seed, pair));
    }
    let ungated = StreamingDetector::new(c.detector.clone(), 15.0, 5).unwrap();
    let gated = ungated.clone().with_quality_gate(QualityGate::default());
    for mut stream in [ungated, gated] {
        c.stream(&mut stream, &streamed);
    }
    assert!(c.clamped > 0, "stream: no sample left the 8-bit range");
    (c.clips, c.inputs.0)
}

fn class_digests(clips: &[Clip]) -> Vec<(&'static str, usize, u64)> {
    let mut out: Vec<(&'static str, usize, Fnv)> = Vec::new();
    for clip in clips {
        if out.last().map(|(class, ..)| *class) != Some(clip.class) {
            out.push((clip.class, 0, Fnv::new()));
        }
        let (_, count, h) = out.last_mut().unwrap();
        *count += 1;
        h.record(clip);
    }
    out.into_iter().map(|(c, n, h)| (c, n, h.0)).collect()
}

/// The tables above as they would read for `clips`.
fn tables(total: u64, inputs: u64, classes: &[(&str, usize, u64)], clips: &[Clip]) -> String {
    let mut s = format!("const GOLDEN: u64 = {total:#018x};\n");
    s += &format!("const INPUTS_GOLDEN: u64 = {inputs:#018x};\n");
    s += &format!("const CLASS_GOLDEN: [(&str, u64); {}] = [\n", classes.len());
    for (class, _, d) in classes {
        s += &format!("    ({class:?}, {d:#018x}),\n");
    }
    s += &format!("];\nconst CLIP_GOLDEN: [u32; {}] = [\n", clips.len());
    for clip in clips {
        s += &format!("    {:#010x},\n", clip.digest() as u32);
    }
    s + "];\n"
}

#[test]
fn detector_outputs_match_the_golden_digest() {
    let (clips, inputs) = corpus();

    // Every class must reach the paths it is there for.
    let count = |class: &str, pred: &dyn Fn(&Clip) -> bool| {
        clips.iter().filter(|c| c.class == class && pred(c)).count()
    };
    for class in ["gaps", "hold"] {
        assert!(
            count(class, &|c| c.repaired && !c.outcome.is_inconclusive()) > 0,
            "{class}: no clip was repaired and then passed"
        );
        assert!(
            count(class, &|c| c.outcome.is_inconclusive()) > 0,
            "{class}: no clip abstained"
        );
    }
    assert_eq!(
        count("flatline", &|c| matches!(
            c.outcome,
            ClipOutcome::Inconclusive(InconclusiveReason::Flatline)
        )),
        6
    );

    let stream = |pred: &dyn Fn(&Streamed) -> bool| {
        count("stream", &|c| c.streamed.as_ref().is_some_and(pred))
    };
    assert!(stream(&|s| s.retrigger) > 0, "stream: no retrigger");
    for status in [SessionStatus::Trusted, SessionStatus::Alert] {
        assert!(
            stream(&|s| s.status == status) > 0,
            "stream: never {status:?}"
        );
    }

    let mut h = Fnv::new();
    for clip in &clips {
        h.record(clip);
    }
    let total = h.0;
    if total == GOLDEN {
        return;
    }

    let classes = class_digests(&clips);
    let mut report = format!("golden digest moved: expected {GOLDEN:#018x}, got {total:#018x}\n");
    report += if inputs == INPUTS_GOLDEN {
        "the input traces are unchanged, so the detector's arithmetic moved\n"
    } else {
        "the input traces moved too (simulator or libm), not only the detector\n"
    };
    for (class, n, got) in &classes {
        let expected = CLASS_GOLDEN
            .iter()
            .find(|(c, _)| c == class)
            .map(|(_, d)| *d);
        let verdict = if expected == Some(*got) {
            "same"
        } else {
            "MOVED"
        };
        report += &format!(
            "  {class:<15} {n:>3} clips  expected {}  got {got:#018x}  {verdict}\n",
            expected.map_or("(none)".to_string(), |d| format!("{d:#018x}"))
        );
    }
    let first = clips
        .iter()
        .enumerate()
        .find(|(i, c)| CLIP_GOLDEN.get(*i) != Some(&(c.digest() as u32)));
    if let Some((i, clip)) = first {
        report += &format!(
            "first clip whose bits differ: #{i}, {} seed {}: {:?}\n",
            clip.class, clip.seed, clip.outcome
        );
    }
    report += "\nregenerated tables:\n";
    report += &tables(total, inputs, &classes, &clips);
    panic!("{report}");
}
