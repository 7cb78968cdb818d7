//! The scenario model: what to run (program), how to harden it (policy),
//! on which machine (platform overrides) and what to measure (kind).

use dbt_cache::CacheConfig;
use dbt_platform::PlatformConfig;
use dbt_riscv::Program;
use dbt_serve::ProgramSource;
use dbt_workloads::{pointer_matmul, workload, WorkloadSize};
use ghostbusters::MitigationPolicy;
use std::sync::Arc;

/// What a scenario measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioKind {
    /// Cycle counts and slowdown relative to the unprotected baseline.
    Perf,
    /// Secret-recovery rate of a Spectre proof-of-concept.
    Attack,
}

impl ScenarioKind {
    /// Lower-case label used in scenario names and JSON.
    pub fn label(self) -> &'static str {
        match self {
            ScenarioKind::Perf => "perf",
            ScenarioKind::Attack => "attack",
        }
    }
}

/// Which Spectre proof-of-concept program to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackVariant {
    /// Bounds-check bypass via trace-scheduling speculation.
    SpectreV1,
    /// Store-bypass via Memory Conflict Buffer speculation.
    SpectreV4,
}

impl AttackVariant {
    /// Label used in tables and scenario names.
    pub fn label(self) -> &'static str {
        match self {
            AttackVariant::SpectreV1 => "spectre-v1",
            AttackVariant::SpectreV4 => "spectre-v4",
        }
    }
}

/// A recipe for building one guest program.
///
/// Programs are described declaratively so scenarios can be listed, named
/// and expanded without assembling anything; the executor builds the actual
/// [`Program`] only when the job runs. Beyond the in-repo recipes, a spec
/// can carry an *ad-hoc* program, already built ([`ProgramSpec::Stored`]):
/// one resident in a [`ProgramStore`](dbt_platform::ProgramStore), or one
/// [`build_source`] parsed from a file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramSpec {
    /// A kernel from the Polybench-style suite, by name.
    Workload {
        /// Kernel name as reported by [`dbt_workloads::suite`].
        name: &'static str,
        /// Problem-size preset.
        size: WorkloadSize,
    },
    /// The pointer-array matrix multiplication experiment.
    PointerMatmul {
        /// Problem-size preset.
        size: WorkloadSize,
    },
    /// A Spectre proof-of-concept program with a planted secret.
    Attack {
        /// Which variant to build.
        variant: AttackVariant,
        /// The secret the victim holds (and the attacker tries to leak).
        secret: Vec<u8>,
    },
    /// An already-built program (resolved from a program store).
    Stored {
        /// Row label (usually the program ref that named it).
        label: String,
        /// The program itself, shared with the store.
        program: Arc<Program>,
        /// Optional secret planted in guest memory before the run — set
        /// when an ad-hoc request asks for attack-style measurement of a
        /// stored program.
        secret: Option<Vec<u8>>,
    },
}

impl ProgramSpec {
    /// Short display label (the row name in tables).
    pub fn label(&self) -> String {
        match self {
            ProgramSpec::Workload { name, .. } => (*name).to_string(),
            ProgramSpec::PointerMatmul { .. } => "ptr-matmul".to_string(),
            ProgramSpec::Attack { variant, .. } => variant.label().to_string(),
            ProgramSpec::Stored { label, .. } => label.clone(),
        }
    }

    /// The planted secret, for [`ScenarioKind::Attack`] scenarios.
    pub fn secret(&self) -> Option<&[u8]> {
        match self {
            ProgramSpec::Attack { secret, .. } => Some(secret),
            ProgramSpec::Stored { secret, .. } => secret.as_deref(),
            _ => None,
        }
    }

    /// Assembles the guest program. A stored program without a secret is
    /// handed out as is, not copied.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message if the kernel name is unknown,
    /// assembly fails, or a secret cannot be planted.
    pub fn build(&self) -> Result<Arc<Program>, String> {
        let program = match self {
            ProgramSpec::Workload { name, size } => workload(name, *size)
                .map(|w| w.program)
                .ok_or_else(|| format!("unknown workload `{name}`")),
            ProgramSpec::PointerMatmul { size } => Ok(pointer_matmul(*size).program),
            ProgramSpec::Attack { variant, secret } => match variant {
                AttackVariant::SpectreV1 => dbt_attacks::spectre_v1::build(secret)
                    .map_err(|e| format!("spectre-v1 does not assemble: {e}")),
                AttackVariant::SpectreV4 => dbt_attacks::spectre_v4::build(secret)
                    .map_err(|e| format!("spectre-v4 does not assemble: {e}")),
            },
            ProgramSpec::Stored { program, secret, .. } => match secret {
                None => return Ok(Arc::clone(program)),
                Some(secret) => plant_secret(program, secret),
            },
        };
        program.map(Arc::new)
    }
}

/// Builds the program of an ad-hoc source: text assembly
/// ([`dbt_riscv::parse_asm`]) or a program-image document
/// ([`Program::from_image`]).
///
/// # Errors
///
/// Returns the parser's message if the source does not build.
pub fn build_source(source: &ProgramSource) -> Result<Program, String> {
    match source {
        ProgramSource::Asm(text) => dbt_riscv::parse_asm(text).map_err(|e| e.to_string()),
        ProgramSource::Image(text) => Program::from_image(text).map_err(|e| e.to_string()),
    }
}

/// Rebuilds `program` with `secret` written into its data section at the
/// `secret` symbol. The planted bytes are program content — the patched
/// program's [`Program::fingerprint`] differs from the original's, so
/// run-memo entries never mix runs of different secrets.
///
/// # Errors
///
/// The program must define a `secret` data symbol with room for the
/// planted bytes (the convention the in-repo attack builders follow).
fn plant_secret(program: &Program, secret: &[u8]) -> Result<Program, String> {
    let addr = program
        .symbol("secret")
        .ok_or_else(|| "program defines no `secret` symbol to plant into".to_string())?;
    let offset = addr
        .checked_sub(program.data_base())
        .ok_or_else(|| "`secret` symbol lies outside the data section".to_string())?
        as usize;
    let mut data = program.data().to_vec();
    let end =
        offset.checked_add(secret.len()).filter(|&end| end <= data.len()).ok_or_else(|| {
            format!(
                "`secret` buffer too small: {} byte(s) do not fit at data offset {offset} \
                 (data section is {} bytes)",
                secret.len(),
                data.len()
            )
        })?;
    data[offset..end].copy_from_slice(secret);
    Ok(Program::new(
        program.code_base(),
        program.code().to_vec(),
        program.data_base(),
        data,
        program.entry(),
        program.memory_size(),
        program.symbols().map(|(name, addr)| (name.to_string(), addr)).collect(),
    ))
}

/// Sparse overrides on top of the per-policy default platform.
///
/// `None` fields keep the value of [`PlatformConfig::for_policy`]; `Some`
/// fields replace it. This is the "platform axis" of a sweep: issue width,
/// cache geometry, speculation toggles.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PlatformOverrides {
    /// VLIW issue width (applied to both the scheduler and the core).
    pub issue_width: Option<usize>,
    /// Hot threshold of the DBT profiler.
    pub hot_threshold: Option<u64>,
    /// Enable/disable branch (trace-scheduling) speculation.
    pub branch_speculation: Option<bool>,
    /// Enable/disable memory (MCB) speculation.
    pub memory_speculation: Option<bool>,
    /// Data-cache geometry and latencies.
    pub cache: Option<CacheConfig>,
    /// Memory Conflict Buffer capacity.
    pub mcb_capacity: Option<usize>,
    /// Rollback penalty in cycles.
    pub rollback_penalty: Option<u64>,
    /// Block budget of one run.
    pub max_blocks: Option<u64>,
}

impl PlatformOverrides {
    /// Materialises the platform configuration for `policy` with these
    /// overrides applied.
    pub fn apply(&self, policy: MitigationPolicy) -> PlatformConfig {
        let mut config = PlatformConfig::for_policy(policy);
        if let Some(w) = self.issue_width {
            config.dbt.issue_width = w;
            config.core.issue_width = w;
        }
        if let Some(t) = self.hot_threshold {
            config.dbt.hot_threshold = t;
        }
        if let Some(b) = self.branch_speculation {
            config.dbt.speculation.branch_speculation = b;
        }
        if let Some(m) = self.memory_speculation {
            config.dbt.speculation.memory_speculation = m;
        }
        if let Some(c) = self.cache {
            config.core.cache = c;
        }
        if let Some(m) = self.mcb_capacity {
            config.core.mcb_capacity = m;
        }
        if let Some(p) = self.rollback_penalty {
            config.core.rollback_penalty = p;
        }
        if let Some(b) = self.max_blocks {
            config.max_blocks = b;
        }
        config
    }
}

/// A named point on the platform axis.
#[derive(Debug, Clone, PartialEq)]
pub struct PlatformVariant {
    /// Short name ("default", "issue-2", "no-branch-spec", ...).
    pub name: String,
    /// The overrides this variant applies.
    pub overrides: PlatformOverrides,
}

impl PlatformVariant {
    /// The default platform: no overrides.
    pub fn default_platform() -> PlatformVariant {
        PlatformVariant { name: "default".to_string(), overrides: PlatformOverrides::default() }
    }

    /// A named variant with the given overrides.
    pub fn new(name: &str, overrides: PlatformOverrides) -> PlatformVariant {
        PlatformVariant { name: name.to_string(), overrides }
    }
}

/// One fully-specified experiment: a program, a mitigation policy, a
/// platform and what to measure. This is the unit of work of the executor.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Globally unique name: `sweep/program/policy/platform`.
    pub name: String,
    /// Row label of the program (may differ from the spec's default label,
    /// e.g. "gemm (flat)" vs "gemm (ptr rows)").
    pub program_label: String,
    /// How to build the guest program.
    pub program: ProgramSpec,
    /// The countermeasure the DBT engine applies.
    pub policy: MitigationPolicy,
    /// The simulated machine.
    pub platform: PlatformVariant,
    /// What to measure.
    pub kind: ScenarioKind,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_specs_build() {
        let spec = ProgramSpec::Workload { name: "gemm", size: WorkloadSize::Mini };
        assert_eq!(spec.label(), "gemm");
        assert!(spec.build().is_ok());
        let bad = ProgramSpec::Workload { name: "nope", size: WorkloadSize::Mini };
        assert!(bad.build().is_err());
    }

    #[test]
    fn attack_specs_build_and_expose_the_secret() {
        for variant in [AttackVariant::SpectreV1, AttackVariant::SpectreV4] {
            let spec = ProgramSpec::Attack { variant, secret: b"GB".to_vec() };
            assert!(spec.build().is_ok(), "{} must assemble", variant.label());
            assert_eq!(spec.secret(), Some(&b"GB"[..]));
        }
    }

    #[test]
    fn stored_specs_are_not_copied_and_both_source_forms_build_one_program() {
        let text = "li a0, 9\necall\n";
        let program = Arc::new(dbt_riscv::parse_asm(text).expect("tiny program parses"));
        let stored = ProgramSpec::Stored {
            label: "fp:whatever".to_string(),
            program: Arc::clone(&program),
            secret: None,
        };
        assert_eq!(stored.label(), "fp:whatever");
        assert_eq!(stored.secret(), None);
        assert!(Arc::ptr_eq(&stored.build().unwrap(), &program), "stored programs are not copied");

        let asm = build_source(&ProgramSource::Asm(text.to_string())).unwrap();
        let image = build_source(&ProgramSource::Image(program.to_image())).unwrap();
        assert_eq!(asm, *program, "assembly builds the program");
        assert_eq!(image, *program, "its image builds the same program");
        assert!(build_source(&ProgramSource::Asm("frobnicate a0".to_string())).is_err());
        assert!(build_source(&ProgramSource::Image("{}".to_string())).is_err());
    }

    #[test]
    fn stored_specs_plant_secrets_as_program_content() {
        // Patching a stored attack image reproduces what the builder
        // would have produced for that secret — byte for byte.
        let base = Arc::new(dbt_attacks::spectre_v1::build(b"AA").unwrap());
        let spec = ProgramSpec::Stored {
            label: "v1".to_string(),
            program: Arc::clone(&base),
            secret: Some(b"GB".to_vec()),
        };
        let planted = spec.build().unwrap();
        assert_eq!(*planted, dbt_attacks::spectre_v1::build(b"GB").unwrap());
        assert_ne!(planted.fingerprint(), base.fingerprint(), "the secret is program content");
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        std::hash::Hash::hash(&*planted, &mut hasher);
        assert_eq!(
            planted.fingerprint(),
            std::hash::Hasher::finish(&hasher),
            "planting hashes the patched content"
        );

        // Programs without a secret buffer reject planting; oversized
        // secrets are caught instead of clobbering neighbouring data.
        let plain = Arc::new(dbt_riscv::parse_asm("li a0, 9\necall\n").unwrap());
        let no_buffer = ProgramSpec::Stored {
            label: "plain".to_string(),
            program: plain,
            secret: Some(b"GB".to_vec()),
        };
        assert!(no_buffer.build().unwrap_err().contains("no `secret` symbol"));
        let oversized = ProgramSpec::Stored {
            label: "v1".to_string(),
            program: base,
            secret: Some(vec![0u8; 1 << 20]),
        };
        assert!(oversized.build().unwrap_err().contains("too small"));
    }

    #[test]
    fn overrides_apply_on_top_of_the_policy_defaults() {
        let overrides = PlatformOverrides {
            issue_width: Some(2),
            branch_speculation: Some(false),
            ..PlatformOverrides::default()
        };
        let config = overrides.apply(MitigationPolicy::Unprotected);
        assert_eq!(config.dbt.issue_width, 2);
        assert_eq!(config.core.issue_width, 2);
        assert!(!config.dbt.speculation.branch_speculation);
        assert!(config.dbt.speculation.memory_speculation, "untouched field keeps its default");
    }
}
