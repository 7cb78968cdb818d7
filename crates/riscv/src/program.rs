//! Loadable guest programs: code, data image and symbol table.

use crate::decode::{decode, DecodeError};
use crate::encode::encode;
use crate::inst::Inst;
use crate::memory::GuestMemory;
use std::collections::BTreeMap;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Error produced when building or loading a [`Program`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramError {
    /// The program counter fell outside the code section.
    PcOutOfRange {
        /// Faulting program counter.
        pc: u64,
    },
    /// The fetched word failed to decode.
    Decode(DecodeError),
    /// The requested memory image is too small to hold code and data.
    ImageTooSmall {
        /// Required size in bytes.
        required: u64,
        /// Provided size in bytes.
        provided: u64,
    },
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::PcOutOfRange { pc } => write!(f, "program counter {pc:#x} outside code"),
            ProgramError::Decode(e) => write!(f, "{e}"),
            ProgramError::ImageTooSmall { required, provided } => {
                write!(f, "memory image of {provided:#x} bytes cannot hold {required:#x} bytes")
            }
        }
    }
}

impl std::error::Error for ProgramError {}

impl From<DecodeError> for ProgramError {
    fn from(e: DecodeError) -> Self {
        ProgramError::Decode(e)
    }
}

/// A complete guest program: code section, initial data image, entry point
/// and symbol table.
///
/// Programs are usually produced by the [`Assembler`](crate::Assembler) and
/// consumed either by the reference [`Interpreter`](crate::Interpreter) or by
/// the DBT platform. A program never changes after [`Program::new`], its
/// only constructor, so the content hash is taken there once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    /// Guest address of the first code byte.
    code_base: u64,
    /// Decoded instructions, contiguous from `code_base`.
    code: Vec<Inst>,
    /// Guest address of the first data byte.
    data_base: u64,
    /// Initial contents of the data section.
    data: Vec<u8>,
    /// Entry point (guest address).
    entry: u64,
    /// Total guest memory size required to run the program.
    memory_size: u64,
    /// Named addresses (data symbols and code labels).
    symbols: BTreeMap<String, u64>,
    /// [`Program::fingerprint`], computed by [`Program::new`].
    fingerprint: u64,
}

impl Hash for Program {
    /// Hashes the program's content; the stored fingerprint is derived
    /// from it and left out.
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.code_base.hash(state);
        self.code.hash(state);
        self.data_base.hash(state);
        self.data.hash(state);
        self.entry.hash(state);
        self.memory_size.hash(state);
        self.symbols.hash(state);
    }
}

impl Program {
    /// Creates a program from its parts.
    ///
    /// `memory_size` is rounded up so that both the code and data sections
    /// fit.
    pub fn new(
        code_base: u64,
        code: Vec<Inst>,
        data_base: u64,
        data: Vec<u8>,
        entry: u64,
        memory_size: u64,
        symbols: BTreeMap<String, u64>,
    ) -> Program {
        let code_end = code_base + 4 * code.len() as u64;
        let data_end = data_base + data.len() as u64;
        let memory_size = memory_size.max(code_end).max(data_end);
        let mut program = Program {
            code_base,
            code,
            data_base,
            data,
            entry,
            memory_size,
            symbols,
            fingerprint: 0,
        };
        // DefaultHasher with the default keys is deterministic within a
        // process, which is the only scope the fingerprint is used in.
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        program.hash(&mut hasher);
        program.fingerprint = hasher.finish();
        program
    }

    /// Guest address of the first instruction.
    pub fn code_base(&self) -> u64 {
        self.code_base
    }

    /// The decoded code section.
    pub fn code(&self) -> &[Inst] {
        &self.code
    }

    /// Guest address one past the last instruction.
    pub fn code_end(&self) -> u64 {
        self.code_base + 4 * self.code.len() as u64
    }

    /// Guest address of the first data byte.
    pub fn data_base(&self) -> u64 {
        self.data_base
    }

    /// Initial contents of the data section.
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Entry point.
    pub fn entry(&self) -> u64 {
        self.entry
    }

    /// Total guest memory footprint in bytes.
    pub fn memory_size(&self) -> u64 {
        self.memory_size
    }

    /// Looks up a named symbol (data buffer or code label).
    pub fn symbol(&self, name: &str) -> Option<u64> {
        self.symbols.get(name).copied()
    }

    /// All symbols, sorted by name.
    pub fn symbols(&self) -> impl Iterator<Item = (&str, u64)> {
        self.symbols.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Fetches the instruction at guest address `pc`.
    ///
    /// # Errors
    ///
    /// Returns [`ProgramError::PcOutOfRange`] if `pc` is outside the code
    /// section or not 4-byte aligned.
    pub fn fetch(&self, pc: u64) -> Result<Inst, ProgramError> {
        if pc < self.code_base || pc >= self.code_end() || !(pc - self.code_base).is_multiple_of(4)
        {
            return Err(ProgramError::PcOutOfRange { pc });
        }
        let index = ((pc - self.code_base) / 4) as usize;
        Ok(self.code[index])
    }

    /// Builds the initial guest memory image: code encoded at `code_base`,
    /// data copied at `data_base`, everything else zero.
    ///
    /// # Errors
    ///
    /// Returns [`ProgramError::ImageTooSmall`] if the program's own
    /// `memory_size` is inconsistent (cannot happen for programs built by
    /// the assembler).
    pub fn build_memory(&self) -> Result<GuestMemory, ProgramError> {
        let mut mem = GuestMemory::new(self.memory_size as usize);
        for (i, inst) in self.code.iter().enumerate() {
            let addr = self.code_base + 4 * i as u64;
            mem.store_u32(addr, encode(inst)).map_err(|_| ProgramError::ImageTooSmall {
                required: self.code_end(),
                provided: self.memory_size,
            })?;
        }
        mem.write_bytes(self.data_base, &self.data).map_err(|_| ProgramError::ImageTooSmall {
            required: self.data_base + self.data.len() as u64,
            provided: self.memory_size,
        })?;
        Ok(mem)
    }

    /// Re-decodes the code section out of a memory image (used by the DBT
    /// engine, which — like the real system — reads guest binaries from
    /// memory rather than from a structured program).
    ///
    /// # Errors
    ///
    /// Returns a [`ProgramError::Decode`] error if a word in the given range
    /// is not a valid instruction.
    pub fn decode_range(
        mem: &GuestMemory,
        base: u64,
        len_words: usize,
    ) -> Result<Vec<Inst>, ProgramError> {
        let mut out = Vec::with_capacity(len_words);
        for i in 0..len_words {
            let word = mem
                .load_u32(base + 4 * i as u64)
                .map_err(|_| ProgramError::PcOutOfRange { pc: base + 4 * i as u64 })?;
            out.push(decode(word)?);
        }
        Ok(out)
    }

    /// A stable 64-bit fingerprint of the program's entire content: code,
    /// data image, section bases, entry point, memory footprint and
    /// symbol table.
    ///
    /// Two programs with equal fingerprints are identical: they assemble
    /// byte-identical guest images *and* locate observables (the symbol
    /// table is how a run's outputs — e.g. the attacks' `recovered`
    /// buffer — are read back) at the same names. This makes the
    /// fingerprint a sound content address everywhere one is needed: the
    /// program half of the run-memo key, and the identity the
    /// `ProgramStore` deduplicates uploads by.
    ///
    /// It is the [`Hash`] of the program under a default
    /// [`DefaultHasher`](std::collections::hash_map::DefaultHasher),
    /// taken once by [`Program::new`], so reading it costs nothing.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Number of instructions in the code section.
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// Returns `true` if the program has no code.
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "; entry {:#x}, {} instructions", self.entry, self.code.len())?;
        for (i, inst) in self.code.iter().enumerate() {
            writeln!(f, "{:#8x}: {inst}", self.code_base + 4 * i as u64)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::AluImmOp;
    use crate::reg::Reg;

    fn sample_program() -> Program {
        let code = vec![
            Inst::AluImm { op: AluImmOp::Addi, rd: Reg::A0, rs1: Reg::ZERO, imm: 7 },
            Inst::Ecall,
        ];
        Program::new(0x1000, code, 0x2000, vec![1, 2, 3], 0x1000, 0x4000, BTreeMap::new())
    }

    #[test]
    fn fetch_in_and_out_of_range() {
        let p = sample_program();
        assert!(p.fetch(0x1000).is_ok());
        assert!(p.fetch(0x1004).is_ok());
        assert!(p.fetch(0x1008).is_err());
        assert!(p.fetch(0x0ffc).is_err());
        assert!(p.fetch(0x1002).is_err());
    }

    #[test]
    fn memory_image_contains_code_and_data() {
        let p = sample_program();
        let mem = p.build_memory().unwrap();
        assert_eq!(mem.len(), 0x4000);
        assert_eq!(decode(mem.load_u32(0x1000).unwrap()).unwrap(), p.code()[0]);
        assert_eq!(mem.load_u8(0x2000).unwrap(), 1);
        assert_eq!(mem.load_u8(0x2002).unwrap(), 3);
    }

    #[test]
    fn decode_range_roundtrips_code() {
        let p = sample_program();
        let mem = p.build_memory().unwrap();
        let insts = Program::decode_range(&mem, p.code_base(), p.len()).unwrap();
        assert_eq!(insts, p.code());
    }

    #[test]
    fn memory_size_is_grown_to_fit() {
        let code = vec![Inst::Ecall];
        let p = Program::new(0, code, 0x100, vec![0; 64], 0, 0, BTreeMap::new());
        assert!(p.memory_size() >= 0x140);
    }

    #[test]
    fn fingerprint_tracks_translation_relevant_content() {
        let a = sample_program();
        let b = sample_program();
        assert_eq!(a.fingerprint(), b.fingerprint(), "equal programs share a fingerprint");
        let code = vec![
            Inst::AluImm { op: AluImmOp::Addi, rd: Reg::A0, rs1: Reg::ZERO, imm: 8 },
            Inst::Ecall,
        ];
        let c = Program::new(0x1000, code, 0x2000, vec![1, 2, 3], 0x1000, 0x4000, BTreeMap::new());
        assert_ne!(a.fingerprint(), c.fingerprint(), "code changes change the fingerprint");
        let d = Program::new(
            0x1000,
            a.code().to_vec(),
            0x2000,
            vec![1, 2, 4],
            0x1000,
            0x4000,
            BTreeMap::new(),
        );
        assert_ne!(a.fingerprint(), d.fingerprint(), "data changes change the fingerprint");
        let mut symbols = BTreeMap::new();
        symbols.insert("out".to_string(), 0x2000);
        let e =
            Program::new(0x1000, a.code().to_vec(), 0x2000, vec![1, 2, 3], 0x1000, 0x4000, symbols);
        assert_ne!(
            a.fingerprint(),
            e.fingerprint(),
            "symbols locate a run's observables, so they are identity too"
        );
    }

    /// The program's hash, computed afresh from its content.
    fn fresh_hash(program: &Program) -> u64 {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        program.hash(&mut hasher);
        hasher.finish()
    }

    #[test]
    fn the_stored_fingerprint_is_the_content_hash() {
        let built = sample_program();
        let parsed = crate::parse_asm(".data buf, 16\nli a0, 7\necall\n").unwrap();
        let reloaded = Program::from_image(&parsed.to_image()).unwrap();
        for program in [&built, &parsed, &reloaded] {
            assert_eq!(program.fingerprint(), fresh_hash(program), "{program}");
        }
        assert_eq!(reloaded.fingerprint(), parsed.fingerprint(), "an image round trip keeps it");
    }

    #[test]
    fn display_lists_instructions() {
        let p = sample_program();
        let text = p.to_string();
        assert!(text.contains("ecall"));
        assert!(text.contains("0x1004"));
    }
}
