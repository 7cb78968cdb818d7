//! Flat little-endian guest memory image.

use std::fmt;

/// Error raised on an out-of-bounds or misaligned guest memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemError {
    /// The access touches bytes outside the allocated guest memory.
    OutOfBounds {
        /// Faulting guest address.
        addr: u64,
        /// Size of the access in bytes.
        size: u64,
        /// Size of the guest memory.
        limit: u64,
    },
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::OutOfBounds { addr, size, limit } => write!(
                f,
                "guest memory access of {size} bytes at {addr:#x} is outside the {limit:#x}-byte image"
            ),
        }
    }
}

impl std::error::Error for MemError {}

/// A flat, byte-addressable, little-endian guest memory.
///
/// Guest addresses start at 0. The DBT platform and the reference
/// interpreter both operate on this type, so architectural results can be
/// compared byte-for-byte.
///
/// # Example
///
/// ```
/// use dbt_riscv::GuestMemory;
/// # fn main() -> Result<(), dbt_riscv::MemError> {
/// let mut mem = GuestMemory::new(4096);
/// mem.store_u32(0x100, 0xdead_beef)?;
/// assert_eq!(mem.load_u32(0x100)?, 0xdead_beef);
/// assert_eq!(mem.load_u8(0x100)?, 0xef);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GuestMemory {
    bytes: Vec<u8>,
}

impl GuestMemory {
    /// Creates a zero-initialised guest memory of `size` bytes.
    pub fn new(size: usize) -> GuestMemory {
        GuestMemory { bytes: vec![0; size] }
    }

    /// Size of the memory image in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Returns `true` if the memory image is empty.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Raw view of the whole image.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    #[inline]
    fn check(&self, addr: u64, size: u64) -> Result<usize, MemError> {
        let limit = self.bytes.len() as u64;
        if addr.checked_add(size).is_none_or(|end| end > limit) {
            return Err(MemError::OutOfBounds { addr, size, limit });
        }
        Ok(addr as usize)
    }

    /// Loads `size` bytes (1, 2, 4 or 8) at `addr` as a zero-extended value.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfBounds`] if the access leaves the image.
    #[inline]
    pub fn load(&self, addr: u64, size: u64) -> Result<u64, MemError> {
        let base = self.check(addr, size)?;
        let bytes = &self.bytes[base..base + size as usize];
        Ok(match *bytes {
            [b] => b as u64,
            [b0, b1] => u16::from_le_bytes([b0, b1]) as u64,
            [b0, b1, b2, b3] => u32::from_le_bytes([b0, b1, b2, b3]) as u64,
            [b0, b1, b2, b3, b4, b5, b6, b7] => {
                u64::from_le_bytes([b0, b1, b2, b3, b4, b5, b6, b7])
            }
            _ => bytes.iter().enumerate().fold(0, |value, (i, &b)| value | (b as u64) << (8 * i)),
        })
    }

    /// Stores the low `size` bytes (1, 2, 4 or 8) of `value` at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfBounds`] if the access leaves the image.
    #[inline]
    pub fn store(&mut self, addr: u64, size: u64, value: u64) -> Result<(), MemError> {
        let base = self.check(addr, size)?;
        let bytes = &mut self.bytes[base..base + size as usize];
        match bytes.len() {
            1 => bytes[0] = value as u8,
            2 => bytes.copy_from_slice(&(value as u16).to_le_bytes()),
            4 => bytes.copy_from_slice(&(value as u32).to_le_bytes()),
            8 => bytes.copy_from_slice(&value.to_le_bytes()),
            _ => {
                for (i, byte) in bytes.iter_mut().enumerate() {
                    *byte = (value >> (8 * i)) as u8;
                }
            }
        }
        Ok(())
    }

    /// Loads a byte.
    pub fn load_u8(&self, addr: u64) -> Result<u8, MemError> {
        Ok(self.load(addr, 1)? as u8)
    }

    /// Loads a 16-bit little-endian value.
    pub fn load_u16(&self, addr: u64) -> Result<u16, MemError> {
        Ok(self.load(addr, 2)? as u16)
    }

    /// Loads a 32-bit little-endian value.
    pub fn load_u32(&self, addr: u64) -> Result<u32, MemError> {
        Ok(self.load(addr, 4)? as u32)
    }

    /// Loads a 64-bit little-endian value.
    pub fn load_u64(&self, addr: u64) -> Result<u64, MemError> {
        self.load(addr, 8)
    }

    /// Stores a byte.
    pub fn store_u8(&mut self, addr: u64, value: u8) -> Result<(), MemError> {
        self.store(addr, 1, value as u64)
    }

    /// Stores a 16-bit little-endian value.
    pub fn store_u16(&mut self, addr: u64, value: u16) -> Result<(), MemError> {
        self.store(addr, 2, value as u64)
    }

    /// Stores a 32-bit little-endian value.
    pub fn store_u32(&mut self, addr: u64, value: u32) -> Result<(), MemError> {
        self.store(addr, 4, value as u64)
    }

    /// Stores a 64-bit little-endian value.
    pub fn store_u64(&mut self, addr: u64, value: u64) -> Result<(), MemError> {
        self.store(addr, 8, value)
    }

    /// Copies `data` into memory starting at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfBounds`] if the copy leaves the image.
    pub fn write_bytes(&mut self, addr: u64, data: &[u8]) -> Result<(), MemError> {
        let base = self.check(addr, data.len() as u64)?;
        self.bytes[base..base + data.len()].copy_from_slice(data);
        Ok(())
    }

    /// Reads `len` bytes starting at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfBounds`] if the read leaves the image.
    pub fn read_bytes(&self, addr: u64, len: usize) -> Result<Vec<u8>, MemError> {
        let base = self.check(addr, len as u64)?;
        Ok(self.bytes[base..base + len].to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn little_endian_roundtrip() {
        let mut mem = GuestMemory::new(64);
        mem.store_u64(8, 0x0102_0304_0506_0708).unwrap();
        assert_eq!(mem.load_u8(8).unwrap(), 0x08);
        assert_eq!(mem.load_u8(15).unwrap(), 0x01);
        assert_eq!(mem.load_u32(8).unwrap(), 0x0506_0708);
        assert_eq!(mem.load_u64(8).unwrap(), 0x0102_0304_0506_0708);
    }

    #[test]
    fn out_of_bounds_is_detected() {
        let mut mem = GuestMemory::new(16);
        assert!(mem.load_u64(9).is_err());
        assert!(mem.store_u8(16, 1).is_err());
        assert!(mem.load_u8(15).is_ok());
        // Address + size overflow must not wrap.
        assert!(mem.load(u64::MAX, 8).is_err());
    }

    #[test]
    fn every_width_reaches_the_last_byte_and_not_one_past() {
        for size in [1u64, 2, 4, 8] {
            let mut mem = GuestMemory::new(64);
            let last = 64 - size;
            let value = 0x8877_6655_4433_2211u64;
            mem.store(last, size, value).unwrap();
            let mask = u64::MAX >> (64 - 8 * size);
            assert_eq!(mem.load(last, size), Ok(value & mask), "{size}-byte load");
            assert_eq!(mem.as_bytes()[last as usize..], value.to_le_bytes()[..size as usize]);
            let past = MemError::OutOfBounds { addr: last + 1, size, limit: 64 };
            assert_eq!(mem.load(last + 1, size), Err(past));
            assert_eq!(mem.store(last + 1, size, value), Err(past));
            assert_eq!(mem.as_bytes()[..last as usize], [0; 64][..last as usize]);
        }
    }

    #[test]
    fn write_and_read_bytes() {
        let mut mem = GuestMemory::new(32);
        mem.write_bytes(4, &[1, 2, 3, 4]).unwrap();
        assert_eq!(mem.read_bytes(4, 4).unwrap(), vec![1, 2, 3, 4]);
        assert!(mem.write_bytes(30, &[0; 4]).is_err());
    }

    #[test]
    fn error_display_is_informative() {
        let mem = GuestMemory::new(16);
        let err = mem.load_u64(12).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("0xc"));
        assert!(msg.contains("8 bytes"));
    }
}
