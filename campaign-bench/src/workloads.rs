//! The named workloads: each is a campaign spec generated from a seed.
//!
//! The program under test only ever receives the generated spec text.  The
//! `--seed` argument drives the campaign seed (and so every cell's adversary
//! and node randomness) and the flood-broadcast value; graph topologies use
//! the zoo's fixed topology seed, so `network_rounds` is a property of the
//! code under test rather than of the seed.

/// The topology seed of the program's standard graph zoo
/// (`graph_zoo_defs(2024)`); the expander uses it as is, the small world
/// mixes it with `0x5A11`, exactly as the zoo does.
pub const ZOO_TOPOLOGY_SEED: u64 = 2024;

/// The topology seeds of the two randomized graph families.
const EXPANDER_SEED: u64 = ZOO_TOPOLOGY_SEED;
const SMALL_WORLD_SEED: u64 = ZOO_TOPOLOGY_SEED ^ 0x5A11;

/// Worker threads of every workload: the machine's cores, at most two.
pub fn threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(2)
}

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 384 small byzantine cells: per-cell overhead, correction, cache hits.
    ResilientZoo,
    /// 18 cells on 128-node graphs: round exchange and correction on many arcs.
    ResilientLarge,
    /// 72 eavesdropper cells: key schedule, secrecy, the async executor.
    SecureZoo,
    /// The `resilient-zoo` spec submitted to an in-process `campaignd`.
    ServerZoo,
}

/// The payload a workload runs, as the oracles need it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Answer {
    /// Leader election: every node learns the largest node id.
    LeaderElection,
    /// Flood broadcast of `value` from `source`: every node learns `value`.
    FloodBroadcast {
        /// The originating node.
        source: usize,
        /// The broadcast word.
        value: u64,
    },
    /// Token dissemination (node `v` starts with token `v`): every node
    /// learns all `n` tokens.
    TokenDissemination {
        /// Tokens forwarded per edge per round.
        batch: usize,
    },
}

impl Workload {
    /// Every workload, in the order of `BENCHMARK.json`.
    pub const ALL: [Workload; 4] = [
        Workload::ResilientZoo,
        Workload::ResilientLarge,
        Workload::SecureZoo,
        Workload::ServerZoo,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ResilientZoo => "resilient-zoo",
            Workload::ResilientLarge => "resilient-large",
            Workload::SecureZoo => "secure-zoo",
            Workload::ServerZoo => "server-zoo",
        }
    }

    /// Look a workload up by its command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the load goes through `campaignd` rather than the in-process
    /// engine.
    pub fn via_server(self) -> bool {
        self == Workload::ServerZoo
    }

    /// The payload and its seed-derived parameters.
    pub fn answer(self, seed: u64) -> Answer {
        match self {
            Workload::ResilientZoo | Workload::ServerZoo => Answer::LeaderElection,
            Workload::ResilientLarge => Answer::FloodBroadcast {
                source: 0,
                // Any 32-bit word works; keep it seed-dependent so a
                // compiler cannot pass by replaying a constant.
                value: mix(seed, 0xF100D) & 0xFFFF_FFFF,
            },
            Workload::SecureZoo => Answer::TokenDissemination { batch: 2 },
        }
    }

    /// The campaign spec for `seed`, as JSON text.
    pub fn spec_json(self, seed: u64) -> String {
        let tree_packing = r#"{"id":"tree-packing","f":1,"seed":5,"packing":"v2"}"#;
        let (graphs, adversaries, compilers, repetitions, salt) = match self {
            Workload::ResilientZoo | Workload::ServerZoo => (
                vec![
                    r#"{"family":"complete","n":12}"#.to_string(),
                    r#"{"family":"circulant","n":18,"k":4}"#.to_string(),
                    expander(24, 8),
                    small_world(24, 6),
                ],
                BYZANTINE_ZOO.to_vec(),
                vec![tree_packing, r#"{"id":"cycle-cover","f":1}"#],
                8,
                1,
            ),
            Workload::ResilientLarge => (
                vec![
                    r#"{"family":"circulant","n":128,"k":4}"#.to_string(),
                    expander(128, 8),
                    small_world(128, 8),
                ],
                vec![
                    r#"{"kind":"random-mobile","f":1}"#,
                    r#"{"kind":"adaptive-heaviest","f":1}"#,
                ],
                vec![tree_packing],
                // Three repetitions, not one: with six cells the two
                // circulant stragglers alone set the time, and medians of
                // separate runs spread by 8–14 %.
                3,
                2,
            ),
            Workload::SecureZoo => (
                vec![
                    r#"{"family":"complete","n":12}"#.to_string(),
                    r#"{"family":"circulant","n":18,"k":4}"#.to_string(),
                    r#"{"family":"grid","n":4,"cols":4}"#.to_string(),
                    r#"{"family":"torus","n":4,"cols":5}"#.to_string(),
                    expander(24, 8),
                    small_world(24, 6),
                ],
                vec![
                    r#"{"kind":"eavesdropper","f":1}"#,
                    r#"{"kind":"eavesdropper","f":2}"#,
                ],
                vec![
                    r#"{"id":"static-to-mobile","t":8,"words":16,"seed":5}"#,
                    r#"{"id":"congestion-sensitive","f":2,"words":16,"seed":5}"#,
                    r#"{"id":"async","latency":"uniform","min":0,"max":3,"reorder":2}"#,
                ],
                2,
                3,
            ),
        };
        let payload = match self.answer(seed) {
            Answer::LeaderElection => r#"{"kind":"leader-election"}"#.to_string(),
            Answer::FloodBroadcast { source, value } => {
                format!(r#"{{"kind":"flood-broadcast","source":{source},"value":{value}}}"#)
            }
            Answer::TokenDissemination { batch } => {
                format!(r#"{{"kind":"token-dissemination","batch":{batch}}}"#)
            }
        };
        let list = |items: Vec<String>| items.join(",\n      ");
        format!(
            "{{\n  \"kind\": \"campaign-spec\",\n  \"seed\": {},\n  \"repetitions\": {repetitions},\n  \"grid\": {{\n    \"graphs\": [\n      {}\n    ],\n    \"adversaries\": [\n      {}\n    ],\n    \"compilers\": [\n      {}\n    ],\n    \"payload\": {payload}\n  }}\n}}\n",
            mix(seed, salt),
            list(graphs),
            list(adversaries.into_iter().map(String::from).collect()),
            list(compilers.into_iter().map(String::from).collect()),
        )
    }
}

/// The six byzantine strategies of the program's adversary zoo at `f = 1`
/// (the zoo's seventh member is an eavesdropper).
const BYZANTINE_ZOO: [&str; 6] = [
    r#"{"kind":"random-mobile","f":1}"#,
    r#"{"kind":"sweep-mobile","f":1}"#,
    r#"{"kind":"greedy-heaviest","f":1,"mode":"flip-low-bit"}"#,
    r#"{"kind":"adaptive-heaviest","f":1}"#,
    r#"{"kind":"eclipse","node":0,"f":1,"mode":"drop"}"#,
    r#"{"kind":"burst","quiet":6,"burst":2,"per_round":4,"total":12}"#,
];

/// A random `d`-regular expander on the zoo's topology seed.
fn expander(n: usize, d: usize) -> String {
    format!(r#"{{"family":"expander-d-regular","n":{n},"d":{d},"seed":{EXPANDER_SEED}}}"#)
}

/// A Watts–Strogatz small world (rewiring 0.2) on the zoo's topology seed.
fn small_world(n: usize, k: usize) -> String {
    format!(r#"{{"family":"watts-strogatz","n":{n},"k":{k},"beta":0.2,"seed":{SMALL_WORLD_SEED}}}"#)
}

/// SplitMix64 of `seed` salted with `salt`: seed-derived parameters that
/// differ per workload and per use.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(salt.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) & ((1 << 53) - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobile_congest::harness::CampaignSpec;

    #[test]
    fn every_generated_workload_has_zero_cells_skipped_at_validation() {
        for workload in Workload::ALL {
            for seed in [0, 1, 2, 977, u64::MAX] {
                let spec = CampaignSpec::from_json(&workload.spec_json(seed)).unwrap();
                for def in &spec.grid.graphs {
                    let graph = def.build().unwrap();
                    for adversary in &spec.grid.adversaries {
                        for compiler in &spec.grid.compilers {
                            let verdict = compiler.build().validate(&graph, adversary.role());
                            assert!(
                                verdict.is_ok(),
                                "{} seed {seed}: {} / {} / {} skipped: {verdict:?}",
                                workload.name(),
                                def.display_name(),
                                adversary.display_name(),
                                compiler.label()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn specs_are_a_pure_function_of_the_seed() {
        for workload in Workload::ALL {
            assert_eq!(workload.spec_json(7), workload.spec_json(7));
            assert_ne!(workload.spec_json(7), workload.spec_json(8));
        }
    }

    #[test]
    fn workloads_have_the_documented_shape() {
        let cells = |w: Workload| {
            CampaignSpec::from_json(&w.spec_json(1))
                .unwrap()
                .cell_count()
        };
        assert_eq!(cells(Workload::ResilientZoo), 384);
        assert_eq!(cells(Workload::ResilientLarge), 18);
        assert_eq!(cells(Workload::SecureZoo), 72);
        assert_eq!(
            Workload::ServerZoo.spec_json(5),
            Workload::ResilientZoo.spec_json(5),
            "server-zoo submits the resilient-zoo grid"
        );
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
    }
}
