//! Seeded input generation: the set-up phase of every workload.
//!
//! Set-up generates the circuits and serialises them to binary AIGER bytes
//! (plus, for `simulate-klut`, the simulation pattern sets).  The timed
//! section starts from those bytes, so the program under test only ever sees
//! generated inputs.  The same seed gives byte-identical inputs; seed
//! [`DEFAULT_SEED`] reproduces the repository's own suites
//! (`hwmcc_suite(Scale::Small)`, `epfl_suite(Scale::Large)`, and the
//! sequential machines with the generator seeds listed below).  Other seeds
//! move only a few circuits of each suite (see each suite), so that the
//! spread of a timing across seeds stays that of the code, not the inputs.

use bitsim::PatternSet;
use netlist::aiger::write_aiger_binary_bytes;
use netlist::Aig;
use workloads::generators as gen;
use workloads::inject_redundancy;
use workloads::sequential::{random_sequential_aig, sequential_miter, with_duplicate_latches};

/// The seed whose inputs equal the repository suites.
pub const DEFAULT_SEED: u64 = 0;

/// Patterns of the `simulate-klut` workload (the Table I analog).
pub const KLUT_PATTERNS: usize = 1 << 18;

/// The four workloads of `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The Table II suite swept by the paper's STP engine.
    SweepStp,
    /// The same suite swept by the FRAIG-style baseline engine.
    SweepBaseline,
    /// The Table I suite: LUT mapping, bitwise and STP simulation.
    SimulateKlut,
    /// Sequential machines with planted latch equivalences.
    SweepSeq,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::SweepStp,
        Workload::SweepBaseline,
        Workload::SimulateKlut,
        Workload::SweepSeq,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SweepStp => "sweep-stp",
            Workload::SweepBaseline => "sweep-baseline",
            Workload::SimulateKlut => "simulate-klut",
            Workload::SweepSeq => "sweep-seq",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One generated circuit as the timed section receives it.
#[derive(Debug, Clone, PartialEq)]
pub struct Circuit {
    /// Name of the circuit within its suite.
    pub name: String,
    /// The circuit as binary AIGER bytes.
    pub aiger: Vec<u8>,
    /// Simulation patterns (`simulate-klut` only).
    pub patterns: Option<PatternSet>,
    /// Planted equivalent latch pairs, as latch indices (`sweep-seq` only).
    pub planted: Vec<(usize, usize)>,
}

/// Mixes the workload seed into a generator seed.  [`DEFAULT_SEED`] keeps
/// the generator seed unchanged, so the default inputs are the repository's
/// own suites.
pub fn derive(base: u64, seed: u64) -> u64 {
    if seed == DEFAULT_SEED {
        base
    } else {
        splitmix64(base ^ splitmix64(seed))
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn circuit(name: &str, aig: &Aig) -> Circuit {
    Circuit {
        name: name.to_string(),
        aiger: write_aiger_binary_bytes(aig),
        patterns: None,
        planted: Vec::new(),
    }
}

/// The 15-circuit Table II analog suite at Small scale; the same circuits
/// and order as `workloads::hwmcc_suite(Scale::Small)` for the default seed.
///
/// The seed moves two small random-control circuits (`6s203b41` and
/// `6s342rb122`, about 0.2 s of the suite's 7 s).  Every other circuit and
/// every redundancy-injection seed stay fixed: the sweep time of an
/// arithmetic circuit swings by ±20% with the injected redundancy, and that
/// of a large random-control circuit (`b19`, `6s100`) by up to 40% with its
/// structure, so moving them would make the seed, not the code, dominate
/// the spread of `wall_s`.
pub fn sweep_suite(seed: u64) -> Vec<(&'static str, Aig)> {
    let f = 2; // Scale::Small
    let s = |base: u64| derive(base, seed);
    let build =
        |name, base: Aig, fraction, inject: u64| (name, inject_redundancy(&base, fraction, inject));
    vec![
        build(
            "6s100",
            gen::random_control(24, 500 * f, 40, 0x6100),
            0.25,
            1,
        ),
        build("6s20", gen::polynomial_datapath(4 * f, 3), 0.30, 2),
        build(
            "6s203b41",
            gen::random_control(32, 420 * f, 32, s(0x6203)),
            0.25,
            3,
        ),
        build("6s281b35", gen::hypotenuse(4 * f), 0.35, 4),
        build(
            "6s342rb122",
            gen::random_control(20, 300 * f, 24, s(0x6342)),
            0.20,
            5,
        ),
        build(
            "6s350rb46",
            gen::random_control(28, 550 * f, 36, 0x6350),
            0.20,
            6,
        ),
        build("6s382r", gen::restoring_divider(5 * f), 0.30, 7),
        build("6s392r", gen::array_multiplier(4 * f), 0.30, 8),
        build("beemfwt4b1", gen::barrel_shifter(8 * f), 0.40, 9),
        build("beemfwt5b3", gen::max_unit(12 * f), 0.40, 10),
        build("oski15a07b0s", gen::priority_encoder(24 * f), 0.45, 11),
        build("oski2b1i", gen::restoring_sqrt(4 * f), 0.45, 12),
        build("b18", gen::random_control(18, 350 * f, 20, 0xB18), 0.30, 13),
        build("b19", gen::random_control(22, 700 * f, 24, 0xB19), 0.30, 14),
        build("leon2", gen::ripple_carry_adder(24 * f), 0.35, 15),
    ]
}

/// The 20-circuit EPFL analog suite at Large scale; the same circuits and
/// order as `workloads::epfl_suite(Scale::Large)` for the default seed (the
/// arithmetic circuits have no seed; the control circuits' seeds move).
pub fn klut_suite(seed: u64) -> Vec<(&'static str, Aig)> {
    let f = 4; // Scale::Large
    let s = |base: u64| derive(base, seed);
    vec![
        ("adder", gen::ripple_carry_adder(16 * f)),
        ("bar", gen::barrel_shifter(16 * f)),
        ("div", gen::restoring_divider(6 * f)),
        ("hyp", gen::hypotenuse(5 * f)),
        ("log2", gen::polynomial_datapath(5 * f, 3)),
        ("max", gen::max_unit(16 * f)),
        ("multiplier", gen::array_multiplier(5 * f)),
        ("sin", gen::polynomial_datapath(4 * f, 4)),
        ("sqrt", gen::restoring_sqrt(5 * f)),
        ("square", gen::squarer(6 * f)),
        ("arbiter", gen::round_robin_arbiter(16)),
        ("cavlc", gen::random_control(10, 160 * f, 11, s(0xCA71C))),
        ("ctrl", gen::random_control(7, 40 * f, 25, s(0xC721))),
        ("dec", gen::decoder(7)),
        ("i2c", gen::random_control(16, 300 * f, 15, s(0x12C))),
        ("int2float", gen::random_control(11, 60 * f, 7, s(0x1F10A7))),
        ("mem_ctrl", gen::random_control(24, 900 * f, 22, s(0xE3C7))),
        ("priority", gen::priority_encoder(32 * f)),
        ("router", gen::crossbar_router(4, 4 * f)),
        ("voter", gen::majority_voter(8 * f + 1)),
    ]
}

/// Latches of each sequential base machine.
pub const SEQ_BASE_LATCHES: usize = 150;
/// Primary inputs of each sequential base machine.  With few inputs, random
/// next-state cones often coincide, and classes of three or more equal
/// latches can leave a planted pair unproved.
const SEQ_INPUTS: usize = 16;

/// A sequential machine: name, network, planted latch pairs.
pub type SeqMachine = (String, Aig, Vec<(usize, usize)>);

/// Five machines with planted duplicate latches (two of them with `X`
/// initial values in the base machine) and two self-miters, each with about
/// 300 latches.  Returns each machine with its planted latch pairs.
///
/// The seed moves only the last self-miter.  The sweep time of a machine
/// depends on its random structure, so moving all seven would make the seed,
/// not the code, dominate the spread of `wall_s` (as in [`sweep_suite`]).
pub fn seq_suite(seed: u64) -> Vec<SeqMachine> {
    let mut suite = Vec::new();
    for (i, &base_seed) in [3u64, 17, 42, 64, 99].iter().enumerate() {
        let base = random_sequential_aig(SEQ_INPUTS, SEQ_BASE_LATCHES, 12, i % 2 == 1, base_seed);
        let workload = with_duplicate_latches(&base, SEQ_BASE_LATCHES);
        let pairs = workload
            .equivalent_pairs
            .iter()
            .map(|&(dup, orig, _)| (dup, orig))
            .collect();
        suite.push((format!("dup_s{base_seed}"), workload.aig, pairs));
    }
    for (base_seed, generator_seed) in [(7u64, 7), (23, derive(23, seed))] {
        let base = random_sequential_aig(SEQ_INPUTS, SEQ_BASE_LATCHES, 8, false, generator_seed);
        let n = base.num_latches();
        let pairs = (0..n).map(|l| (l, n + l)).collect();
        suite.push((
            format!("miter_s{base_seed}"),
            sequential_miter(&base, &base),
            pairs,
        ));
    }
    suite
}

/// Generates and serialises the inputs of one workload.
pub fn generate(workload: Workload, seed: u64) -> Vec<Circuit> {
    match workload {
        Workload::SweepStp | Workload::SweepBaseline => sweep_suite(seed)
            .iter()
            .map(|(name, aig)| circuit(name, aig))
            .collect(),
        Workload::SimulateKlut => klut_suite(seed)
            .iter()
            .map(|(name, aig)| {
                let patterns =
                    PatternSet::random(aig.num_inputs(), KLUT_PATTERNS, derive(0xEB5, seed))
                        .expect("the pattern count is nonzero");
                Circuit {
                    patterns: Some(patterns),
                    ..circuit(name, aig)
                }
            })
            .collect(),
        Workload::SweepSeq => seq_suite(seed)
            .into_iter()
            .map(|(name, aig, planted)| Circuit {
                planted,
                ..circuit(&name, &aig)
            })
            .collect(),
    }
}
