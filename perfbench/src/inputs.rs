//! Seeded inputs of every workload.
//!
//! Everything a run feeds the system is generated here. The `--seed`
//! argument draws the order of the in-process (program, policy) list, the
//! planted attack secrets, the serve-hits pass order, and the keys of the
//! endless, never-repeating serve-miss request stream. The work itself
//! (program set, serve-hits list, serve-miss shape) is the same for every
//! seed. The same seed gives the same inputs; the system under test only
//! ever sees the generated requests.

use dbt_riscv::Program;
use dbt_serve::{ProgramSource, Request, RunKnobs};
use dbt_workloads::{pointer_matmul, suite, WorkloadSize, SUITE_NAMES};
use ghostbusters::MitigationPolicy;
use std::collections::HashSet;

/// Problem-size preset of every workload.
pub const SIZE: WorkloadSize = WorkloadSize::Small;

/// Label of [`SIZE`] in recorded results.
pub const SIZE_LABEL: &str = "small";

/// Length of every planted secret, in bytes.
pub const SECRET_LEN: usize = 12;

/// The text-assembly Spectre v1 gadget whose data variants `serve-miss`
/// uploads.
const GADGET: &str = include_str!("../../examples/spectre_v1_gadget.s");

/// The gadget's secret line; variants replace the quoted bytes.
const GADGET_SECRET_LINE: &str = ".ascii secret, \"GhostBusters\"";

/// splitmix64: a tiny, well-mixed deterministic generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for `tag` under `seed`, so adding a draw to
    /// one stream never shifts another.
    pub fn stream(seed: u64, tag: u64) -> Rng {
        let mut base = Rng(seed ^ tag.wrapping_mul(0xa076_1d64_78bd_642f));
        Rng(base.next_u64())
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform draw from `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// `len` alphanumeric characters, the first drawn from `first` (which
    /// lets callers partition the secret space between clients).
    fn token(&mut self, first: &[u8], len: usize) -> String {
        const ALNUM: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789";
        let mut out = String::with_capacity(len);
        out.push(first[self.below(first.len())] as char);
        for _ in 1..len {
            out.push(ALNUM[self.below(ALNUM.len())] as char);
        }
        out
    }
}

/// One guest program of the in-process workloads.
#[derive(Debug, Clone)]
pub struct GuestProgram {
    /// Registry label.
    pub name: String,
    /// The assembled program.
    pub program: Program,
    /// The planted secret (attack proofs of concept only).
    pub secret: Option<Vec<u8>>,
}

/// The in-process program set: the 15 registry kernels at [`SIZE`] and
/// both Spectre proofs of concept with seeded 12-byte secrets.
pub fn in_process_programs(seed: u64) -> Result<Vec<GuestProgram>, String> {
    let mut programs: Vec<GuestProgram> = suite(SIZE)
        .into_iter()
        .chain([pointer_matmul(SIZE)])
        .map(|w| GuestProgram { name: w.name.to_string(), program: w.program, secret: None })
        .collect();
    let mut rng = Rng::stream(seed, 1);
    let build = [
        ("spectre-v1", dbt_attacks::spectre_v1::build as fn(&[u8]) -> _),
        ("spectre-v4", dbt_attacks::spectre_v4::build),
    ];
    for (name, build) in build {
        let secret = rng.token(ALPHA, SECRET_LEN).into_bytes();
        let program = build(&secret).map_err(|e| format!("{name} does not assemble: {e}"))?;
        programs.push(GuestProgram { name: name.to_string(), program, secret: Some(secret) });
    }
    Ok(programs)
}

/// Letters, the alphabet of a secret's first character when no client
/// partition applies.
const ALPHA: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz";

/// The seeded order of every (program index, policy) pair.
pub fn run_list(seed: u64, programs: usize) -> Vec<(usize, MitigationPolicy)> {
    let mut list: Vec<_> = (0..programs)
        .flat_map(|p| MitigationPolicy::ALL.into_iter().map(move |policy| (p, policy)))
        .collect();
    Rng::stream(seed, 2).shuffle(&mut list);
    list
}

/// Registry scenarios in the serve-hits mix: the ones `lab loadgen` runs
/// (and through it CI and `BENCH_serve-throughput.json`), the in-repo
/// traffic a serving change is judged by.
pub const HIT_SCENARIOS: [&str; 4] = [
    "figure4/gemm/our-approach/default",
    "figure4/gemm/selective/default",
    "figure4/atax/fence/default",
    "attack-table/spectre-v1/selective/default",
];

/// The sweep `lab loadgen` sends alongside [`HIT_SCENARIOS`].
pub const HIT_SWEEP: &str = "ptr-matmul";

/// The distinct serve-hits requests: `lab loadgen`'s mix, the
/// [`HIT_SCENARIOS`] as `run`s plus one [`HIT_SWEEP`] at the default
/// thread count. Every one is answered once in set-up, so every timed
/// request is a run-memo hit. The set is fixed, so every seed measures the
/// same work; the seed orders it ([`hit_pass_order`]).
pub fn serve_hit_requests() -> Vec<Request> {
    HIT_SCENARIOS
        .iter()
        .map(|scenario| Request::Run { scenario: scenario.to_string() })
        .chain([Request::Sweep { name: HIT_SWEEP.to_string(), threads: 0 }])
        .collect()
}

/// The order in which `client` walks the serve-hits list on its `pass`-th
/// pass (indices into [`serve_hit_requests`]).
pub fn hit_pass_order(seed: u64, client: usize, pass: u64, len: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..len).collect();
    Rng::stream(seed ^ pass.wrapping_mul(0x2545_f491_4f6c_dd1d), 16 + client as u64)
        .shuffle(&mut order);
    order
}

/// What one serve-miss request exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MissKind {
    /// Ad-hoc `spectre-v1`/`spectre-v4` run with a fresh planted secret.
    Attack,
    /// Ad-hoc kernel run with seeded `hot_threshold`/`issue_width` knobs.
    Kernel,
    /// Upload of a data variant of the text-assembly gadget.
    Upload,
    /// `run fp:…` of the variant uploaded just before.
    UploadedRun,
}

/// One generated serve-miss request.
#[derive(Debug, Clone)]
pub struct MissOp {
    /// Which part of the mix it belongs to.
    pub kind: MissKind,
    /// The request frame.
    pub request: Request,
    /// Its identity; never repeats within a run. The policy is not part of
    /// it: a run under a countermeasure also simulates its `unsafe`
    /// baseline, so two runs differing only in policy would share that
    /// baseline's memo entry.
    pub key: String,
    /// For uploads, the fingerprint the daemon must answer; empty
    /// otherwise.
    pub expect: String,
}

/// Seeded rounds over a fixed set: each round is a fresh permutation of
/// the set, so any stretch of draws holds every item a near-equal number
/// of times, whatever the seed.
#[derive(Debug)]
struct Rounds<T> {
    items: Vec<T>,
    left: Vec<T>,
}

impl<T: Copy> Rounds<T> {
    fn new(items: Vec<T>) -> Rounds<T> {
        Rounds { items, left: Vec::new() }
    }

    fn next(&mut self, rng: &mut Rng) -> T {
        if self.left.is_empty() {
            self.left = self.items.clone();
            rng.shuffle(&mut self.left);
        }
        self.left.pop().expect("a round is never empty")
    }
}

/// The endless serve-miss stream of one client. The `i`-th request of
/// client `c` depends only on (seed, c, i); keys never repeat within the
/// stream and the two clients' key spaces are disjoint (secrets start with
/// an upper-case letter on client 0 and a lower-case one on client 1,
/// kernel hot thresholds have the client's parity).
///
/// The shape of the stream (the part of the mix, the attack program, the
/// kernel and the policy of each request) is drawn in [`Rounds`] from a
/// generator that is the same for every seed. The seed draws the keys
/// (secrets and knob values). So every seed measures the same work, as on
/// `serve-hits`. This matters because kernels differ in guest instructions
/// by orders of magnitude, and a countermeasure costs a second simulation
/// (the `unsafe` baseline).
#[derive(Debug)]
pub struct MissStream {
    rng: Rng,
    shape: Rng,
    client: usize,
    seen: HashSet<String>,
    pending: Option<MissOp>,
    parts: Rounds<MissKind>,
    attacks: Rounds<&'static str>,
    kernels: Rounds<&'static str>,
    policies: Rounds<MitigationPolicy>,
}

/// Registry kernels the serve-miss stream runs ad hoc.
pub fn miss_kernels() -> Vec<&'static str> {
    SUITE_NAMES.iter().copied().chain(["ptr-matmul"]).collect()
}

impl MissStream {
    /// The stream of `client` (0 or 1) under `seed`.
    pub fn new(seed: u64, client: usize) -> MissStream {
        assert!(client < 2, "the key partition covers two clients");
        MissStream {
            rng: Rng::stream(seed, 8 + client as u64),
            shape: Rng::stream(0, 12 + client as u64),
            client,
            seen: HashSet::new(),
            pending: None,
            parts: Rounds::new(vec![MissKind::Attack, MissKind::Kernel, MissKind::Upload]),
            attacks: Rounds::new(vec!["spectre-v1", "spectre-v4"]),
            kernels: Rounds::new(miss_kernels()),
            policies: Rounds::new(MitigationPolicy::ALL.to_vec()),
        }
    }

    fn policy(&mut self) -> String {
        self.policies.next(&mut self.shape).label().to_string()
    }

    fn secret(&mut self) -> String {
        let first: &[u8] = if self.client == 0 {
            b"ABCDEFGHIJKLMNOPQRSTUVWXYZ"
        } else {
            b"abcdefghijklmnopqrstuvwxyz"
        };
        self.rng.token(first, SECRET_LEN)
    }

    /// Draws with `draw` until the key is new to this stream. `draw` takes
    /// only seeded values, so a redraw never shifts the stream's shape.
    fn fresh(&mut self, mut draw: impl FnMut(&mut MissStream) -> MissOp) -> MissOp {
        loop {
            let op = draw(self);
            if self.seen.insert(op.key.clone()) {
                return op;
            }
        }
    }

    /// The next request. The three parts of the mix get equal shares: no
    /// in-repo caller sends miss traffic, so there is no measured mix to
    /// follow. An upload draw yields two requests, the upload and the run
    /// of its fingerprint.
    pub fn next_op(&mut self) -> MissOp {
        if let Some(op) = self.pending.take() {
            return op;
        }
        match self.parts.next(&mut self.shape) {
            MissKind::Attack => {
                let program = self.attacks.next(&mut self.shape);
                let policy = self.policy();
                self.fresh(|s| {
                    let secret = s.secret();
                    MissOp {
                        kind: MissKind::Attack,
                        key: format!("attack/{program}/{secret}"),
                        request: Request::RunProgram {
                            program: program.to_string(),
                            policy: policy.clone(),
                            knobs: RunKnobs { secret: Some(secret), ..RunKnobs::default() },
                        },
                        expect: String::new(),
                    }
                })
            }
            MissKind::Kernel => {
                let program = self.kernels.next(&mut self.shape);
                let policy = self.policy();
                self.fresh(|s| {
                    let hot_threshold = 2 + 2 * s.rng.below(128) as u64 + s.client as u64;
                    let issue_width = [2u64, 4, 8][s.rng.below(3)];
                    MissOp {
                        kind: MissKind::Kernel,
                        key: format!("kernel/{program}/{hot_threshold}/{issue_width}"),
                        request: Request::RunProgram {
                            program: program.to_string(),
                            policy: policy.clone(),
                            knobs: RunKnobs {
                                hot_threshold: Some(hot_threshold),
                                issue_width: Some(issue_width),
                                ..RunKnobs::default()
                            },
                        },
                        expect: String::new(),
                    }
                })
            }
            MissKind::Upload | MissKind::UploadedRun => {
                let upload = self.fresh(|s| {
                    let secret = s.secret();
                    let text = gadget_variant(&secret);
                    let fingerprint = dbt_riscv::parse_asm(&text)
                        .expect("gadget variants assemble")
                        .fingerprint();
                    MissOp {
                        kind: MissKind::Upload,
                        key: format!("upload/{secret}"),
                        request: Request::Upload { source: ProgramSource::Asm(text) },
                        expect: format!("fp:{fingerprint:016x}"),
                    }
                });
                let policy = self.policy();
                let run = MissOp {
                    kind: MissKind::UploadedRun,
                    key: format!("run/{}/{policy}", upload.expect),
                    request: Request::RunProgram {
                        program: upload.expect.clone(),
                        policy,
                        knobs: RunKnobs::default(),
                    },
                    expect: String::new(),
                };
                assert!(self.seen.insert(run.key.clone()), "a fresh upload is run once");
                self.pending = Some(run);
                upload
            }
        }
    }
}

/// The gadget source with its planted secret replaced by `secret`
/// (alphanumeric, so no quoting is needed).
pub fn gadget_variant(secret: &str) -> String {
    assert!(GADGET.contains(GADGET_SECRET_LINE), "the gadget plants its secret on one line");
    GADGET.replacen(GADGET_SECRET_LINE, &format!(".ascii secret, \"{secret}\""), 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(seed: u64, client: usize, n: usize) -> Vec<String> {
        let mut stream = MissStream::new(seed, client);
        (0..n).map(|_| stream.next_op().key).collect()
    }

    #[test]
    fn the_same_seed_gives_the_same_inputs() {
        assert_eq!(keys(7, 0, 200), keys(7, 0, 200));
        assert_eq!(run_list(7, 17), run_list(7, 17));
        assert_eq!(hit_pass_order(7, 1, 3, 26), hit_pass_order(7, 1, 3, 26));
        let secrets = |seed| -> Vec<Option<Vec<u8>>> {
            in_process_programs(seed).unwrap().into_iter().map(|p| p.secret).collect()
        };
        assert_eq!(secrets(7), secrets(7));
    }

    #[test]
    fn a_different_seed_gives_different_miss_keys() {
        let a: HashSet<String> = keys(1, 0, 200).into_iter().collect();
        let b: HashSet<String> = keys(2, 0, 200).into_iter().collect();
        // Kernel keys live in a finite space, so a few may coincide; the
        // streams as a whole must differ almost everywhere.
        assert!(a.intersection(&b).count() < 20, "{}", a.intersection(&b).count());
        assert_ne!(run_list(1, 17), run_list(2, 17));
        assert_ne!(hit_pass_order(1, 0, 0, 26), hit_pass_order(2, 0, 0, 26));
    }

    #[test]
    fn every_seed_sends_a_miss_stream_of_the_same_shape() {
        let shape = |seed| -> Vec<(MissKind, String, String)> {
            let mut stream = MissStream::new(seed, 1);
            (0..300)
                .map(|_| match stream.next_op() {
                    MissOp { kind: MissKind::UploadedRun, request, .. } => match request {
                        Request::RunProgram { policy, .. } => {
                            (MissKind::UploadedRun, "fp".to_string(), policy)
                        }
                        other => panic!("expected a run, got {other:?}"),
                    },
                    MissOp {
                        kind, request: Request::RunProgram { program, policy, .. }, ..
                    } => (kind, program, policy),
                    op => (op.kind, String::new(), String::new()),
                })
                .collect()
        };
        assert_eq!(shape(1), shape(2));
    }

    #[test]
    fn miss_keys_never_repeat_within_a_run() {
        let mut all = HashSet::new();
        for client in 0..2 {
            for key in keys(42, client, 3000) {
                assert!(all.insert(key.clone()), "repeated key {key}");
            }
        }
    }

    #[test]
    fn uploads_are_followed_by_a_run_of_their_fingerprint() {
        let mut stream = MissStream::new(5, 1);
        let mut uploads = 0;
        for _ in 0..200 {
            let op = stream.next_op();
            if op.kind == MissKind::Upload {
                uploads += 1;
                let run = stream.next_op();
                assert_eq!(run.kind, MissKind::UploadedRun);
                match run.request {
                    Request::RunProgram { program, .. } => assert_eq!(program, op.expect),
                    other => panic!("expected a run, got {other:?}"),
                }
            }
        }
        assert!(uploads > 10, "the mix uploads: {uploads}");
    }

    #[test]
    fn gadget_variants_plant_the_secret() {
        let text = gadget_variant("Abcdefghijk1");
        let program = dbt_riscv::parse_asm(&text).unwrap();
        let addr = program.symbol("secret").unwrap();
        let memory = program.build_memory().unwrap();
        assert_eq!(memory.read_bytes(addr, SECRET_LEN).unwrap(), b"Abcdefghijk1");
    }

    #[test]
    fn the_serve_hit_mix_is_distinct_registry_runs_plus_a_sweep() {
        let requests = serve_hit_requests();
        assert_eq!(requests.len(), HIT_SCENARIOS.len() + 1);
        let distinct: HashSet<String> = requests.iter().map(Request::encode).collect();
        assert_eq!(distinct.len(), requests.len());
        let registry = dbt_lab::Registry::standard(SIZE);
        for scenario in HIT_SCENARIOS {
            assert!(registry.find_scenario(scenario).is_some(), "{scenario}");
        }
        assert!(registry.find(HIT_SWEEP).is_some());
    }

    #[test]
    fn the_miss_mix_draws_its_parts_and_kernels_in_even_rounds() {
        for seed in [3, 4] {
            let mut stream = MissStream::new(seed, 0);
            let mut parts = [0usize; 3];
            let mut kernels: std::collections::HashMap<String, usize> = Default::default();
            // A stretch a 15-second window might send: 130 requests.
            for _ in 0..130 {
                let op = stream.next_op();
                match op.kind {
                    MissKind::Attack => parts[0] += 1,
                    MissKind::Kernel => parts[1] += 1,
                    MissKind::Upload => parts[2] += 1,
                    MissKind::UploadedRun => {}
                }
                if let (MissKind::Kernel, Request::RunProgram { program, .. }) =
                    (op.kind, &op.request)
                {
                    *kernels.entry(program.clone()).or_default() += 1;
                }
            }
            let spread = |counts: &mut dyn Iterator<Item = usize>| {
                let counts: Vec<usize> = counts.collect();
                counts.iter().max().unwrap() - counts.iter().min().unwrap()
            };
            assert!(spread(&mut parts.into_iter()) <= 1, "{parts:?}");
            assert_eq!(kernels.len(), miss_kernels().len(), "{kernels:?}");
            assert!(spread(&mut kernels.into_values()) <= 1);
        }
    }
}
