//! Guest workloads for the performance evaluation (the paper's Figure 4).
//!
//! The paper runs Polybench kernels on Hybrid-DBT. Polybench is a C/float
//! suite; here each kernel is hand-written against the [`dbt_riscv`]
//! assembler with **integer** arrays, preserving what matters for the
//! experiment: the loop nests, the memory-access patterns and therefore the
//! scheduling/speculation opportunities the DBT engine sees. Every kernel
//! accumulates a checksum into the guest symbol `"checksum"` so that
//! differential tests can verify that translation (with or without
//! speculation and mitigation) preserves the architectural result.
//!
//! [`ptr_matmul`] additionally provides the pointer-array 2-D matrix
//! multiplication the paper uses to stress the countermeasures: every row
//! access goes through a pointer load (double indirection), so speculative
//! loads with attacker-influencable addresses — the Spectre pattern — occur
//! in the hot loop.

pub mod kernels;
pub mod ptr_matmul;

use dbt_riscv::Program;

/// A named guest workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Short kernel name (matches the Polybench kernel it mirrors).
    pub name: &'static str,
    /// The assembled guest program.
    pub program: Program,
}

/// Problem-size preset for the workload suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadSize {
    /// Very small instances, for unit tests.
    Mini,
    /// The default instances used by the benchmark harness.
    Small,
}

impl WorkloadSize {
    /// Matrix dimension used by the dense-linear-algebra kernels.
    pub fn n(self) -> u64 {
        match self {
            WorkloadSize::Mini => 6,
            WorkloadSize::Small => 14,
        }
    }

    /// Vector length / time steps used by the stencil kernels.
    pub fn stencil_n(self) -> u64 {
        match self {
            WorkloadSize::Mini => 32,
            WorkloadSize::Small => 160,
        }
    }

    /// Number of stencil time steps.
    pub fn steps(self) -> u64 {
        match self {
            WorkloadSize::Mini => 2,
            WorkloadSize::Small => 6,
        }
    }
}

/// Assembles one kernel at a given size.
type KernelBuilder = fn(WorkloadSize) -> Program;

/// The suite's kernel table, in suite order: each kernel's name and how to
/// assemble it at a given size.
const KERNELS: [(&str, KernelBuilder); 14] = [
    ("gemm", |size| kernels::gemm(size.n())),
    ("2mm", |size| kernels::two_mm(size.n())),
    ("3mm", |size| kernels::three_mm(size.n())),
    ("atax", |size| kernels::atax(size.n())),
    ("bicg", |size| kernels::bicg(size.n())),
    ("mvt", |size| kernels::mvt(size.n())),
    ("gesummv", |size| kernels::gesummv(size.n())),
    ("syrk", |size| kernels::syrk(size.n())),
    ("trisolv", |size| kernels::trisolv(size.n())),
    ("doitgen", |size| kernels::doitgen(size.n())),
    ("jacobi-1d", |size| kernels::jacobi_1d(size.steps(), size.stencil_n())),
    ("jacobi-2d", |size| kernels::jacobi_2d(size.steps(), size.n() + 4)),
    ("histogram", |size| kernels::histogram(size.steps() + 1, size.stencil_n(), 16)),
    ("stream-lut", |size| kernels::stream_lut(size.steps() + 1, size.stencil_n())),
];

/// The kernel names of [`suite`], in suite order — for name validation and
/// listings without assembling any guest program.
pub const SUITE_NAMES: [&str; 14] = {
    let mut names = [""; 14];
    let mut i = 0;
    while i < names.len() {
        names[i] = KERNELS[i].0;
        i += 1;
    }
    names
};

/// Assembles the suite kernel `name` at the given size, and nothing else;
/// `None` if `name` is not one of [`SUITE_NAMES`].
pub fn workload(name: &str, size: WorkloadSize) -> Option<Workload> {
    KERNELS
        .iter()
        .find(|(known, _)| *known == name)
        .map(|&(name, build)| Workload { name, program: build(size) })
}

/// Builds the whole Polybench-style suite at the given size.
///
/// The returned list matches the kernels reported in the paper's Figure 4 as
/// closely as this integer re-implementation allows.
pub fn suite(size: WorkloadSize) -> Vec<Workload> {
    SUITE_NAMES
        .iter()
        .map(|name| workload(name, size).expect("every suite name has a kernel"))
        .collect()
}

/// The pointer-array matrix multiplication used in the paper's last
/// experiment (fine-grained vs fence overhead when the Spectre pattern is
/// frequent).
pub fn pointer_matmul(size: WorkloadSize) -> Workload {
    Workload { name: "ptr-matmul", program: ptr_matmul::build(size.n()) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbt_riscv::{ExitReason, Interpreter};

    #[test]
    fn suite_has_fourteen_distinct_kernels() {
        let suite = suite(WorkloadSize::Mini);
        assert_eq!(suite.len(), 14);
        let names: std::collections::BTreeSet<_> = suite.iter().map(|w| w.name).collect();
        assert_eq!(names.len(), 14);
        let listed: Vec<&str> = suite.iter().map(|w| w.name).collect();
        assert_eq!(listed, SUITE_NAMES, "SUITE_NAMES must mirror the built suite");
    }

    #[test]
    fn workload_builds_the_suite_entry_of_its_name() {
        for size in [WorkloadSize::Mini, WorkloadSize::Small] {
            for entry in suite(size) {
                let one = workload(entry.name, size).expect("every suite name resolves");
                assert_eq!(one.name, entry.name);
                assert_eq!(one.program, entry.program, "{} at {size:?}", entry.name);
            }
            assert!(workload("no-such-kernel", size).is_none());
            assert!(workload("ptr-matmul", size).is_none(), "not a suite kernel");
        }
    }

    #[test]
    fn every_kernel_terminates_and_produces_a_checksum() {
        for workload in suite(WorkloadSize::Mini) {
            let mut interp = Interpreter::new(&workload.program);
            assert_eq!(
                interp.run(200_000_000).unwrap(),
                ExitReason::Ecall,
                "{} did not terminate",
                workload.name
            );
            let checksum_addr = workload.program.symbol("checksum").unwrap();
            let checksum = interp.memory().load_u64(checksum_addr).unwrap();
            assert_ne!(checksum, 0, "{} produced a zero checksum", workload.name);
        }
    }

    #[test]
    fn pointer_matmul_terminates() {
        let workload = pointer_matmul(WorkloadSize::Mini);
        let mut interp = Interpreter::new(&workload.program);
        assert_eq!(interp.run(200_000_000).unwrap(), ExitReason::Ecall);
        let checksum_addr = workload.program.symbol("checksum").unwrap();
        assert_ne!(interp.memory().load_u64(checksum_addr).unwrap(), 0);
    }

    #[test]
    fn sizes_scale() {
        assert!(WorkloadSize::Small.n() > WorkloadSize::Mini.n());
        assert!(WorkloadSize::Small.stencil_n() > WorkloadSize::Mini.stencil_n());
    }
}
