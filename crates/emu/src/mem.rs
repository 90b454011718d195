//! Sparse, page-granular byte-addressable memory.

use std::collections::HashMap;

const PAGE_SHIFT: u64 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;

/// A sparse 64-bit address space backed by 4 KiB pages allocated on demand.
///
/// Reads from never-written memory return zeroes, matching a zero-initialised
/// BSS. All accesses are little-endian and may be misaligned (RV64 cores,
/// including the one modeled here, handle misaligned accesses in hardware).
#[derive(Clone, Debug, Default)]
pub struct Memory {
    pages: HashMap<u64, Box<[u8; PAGE_SIZE]>>,
}

impl Memory {
    /// Creates an empty address space.
    pub fn new() -> Memory {
        Memory::default()
    }

    /// Number of resident pages.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    #[inline]
    fn page(&self, addr: u64) -> Option<&[u8; PAGE_SIZE]> {
        self.pages.get(&(addr >> PAGE_SHIFT)).map(|b| &**b)
    }

    #[inline]
    fn page_mut(&mut self, addr: u64) -> &mut [u8; PAGE_SIZE] {
        self.pages
            .entry(addr >> PAGE_SHIFT)
            .or_insert_with(|| Box::new([0u8; PAGE_SIZE]))
    }

    /// Reads a single byte.
    #[inline]
    pub fn read_u8(&self, addr: u64) -> u8 {
        match self.page(addr) {
            Some(p) => p[(addr as usize) & (PAGE_SIZE - 1)],
            None => 0,
        }
    }

    /// Writes a single byte.
    #[inline]
    pub fn write_u8(&mut self, addr: u64, value: u8) {
        let off = (addr as usize) & (PAGE_SIZE - 1);
        self.page_mut(addr)[off] = value;
    }

    /// Reads `N <= 8` bytes little-endian. Crossing page boundaries is fine.
    #[inline]
    pub fn read(&self, addr: u64, size: u64) -> u64 {
        debug_assert!(size <= 8);
        let off = (addr as usize) & (PAGE_SIZE - 1);
        // Fast path: within one page.
        if off + size as usize <= PAGE_SIZE {
            match self.page(addr) {
                Some(p) => {
                    let mut buf = [0u8; 8];
                    buf[..size as usize].copy_from_slice(&p[off..off + size as usize]);
                    u64::from_le_bytes(buf)
                }
                None => 0,
            }
        } else {
            let mut v = 0u64;
            for i in 0..size {
                v |= (self.read_u8(addr.wrapping_add(i)) as u64) << (8 * i);
            }
            v
        }
    }

    /// Writes `N <= 8` bytes little-endian. Crossing page boundaries is fine.
    #[inline]
    pub fn write(&mut self, addr: u64, size: u64, value: u64) {
        debug_assert!(size <= 8);
        let off = (addr as usize) & (PAGE_SIZE - 1);
        if off + size as usize <= PAGE_SIZE {
            let bytes = value.to_le_bytes();
            self.page_mut(addr)[off..off + size as usize].copy_from_slice(&bytes[..size as usize]);
        } else {
            for i in 0..size {
                self.write_u8(addr.wrapping_add(i), (value >> (8 * i)) as u8);
            }
        }
    }

    /// Copies a byte slice into memory at `addr`, one page-sized chunk per
    /// page lookup.
    pub fn write_bytes(&mut self, mut addr: u64, mut bytes: &[u8]) {
        while !bytes.is_empty() {
            let off = (addr as usize) & (PAGE_SIZE - 1);
            let n = bytes.len().min(PAGE_SIZE - off);
            self.page_mut(addr)[off..off + n].copy_from_slice(&bytes[..n]);
            addr = addr.wrapping_add(n as u64);
            bytes = &bytes[n..];
        }
    }

    /// Reads `len` bytes starting at `addr`, one page-sized chunk per page
    /// lookup.
    pub fn read_bytes(&self, mut addr: u64, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        while out.len() < len {
            let off = (addr as usize) & (PAGE_SIZE - 1);
            let n = (len - out.len()).min(PAGE_SIZE - off);
            match self.page(addr) {
                Some(p) => out.extend_from_slice(&p[off..off + n]),
                None => out.resize(out.len() + n, 0),
            }
            addr = addr.wrapping_add(n as u64);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_initialised() {
        let m = Memory::new();
        assert_eq!(m.read(0x1234, 8), 0);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn rw_roundtrip_all_sizes() {
        let mut m = Memory::new();
        for size in [1u64, 2, 4, 8] {
            let v = 0x1122_3344_5566_7788u64 & (u64::MAX >> (64 - 8 * size));
            m.write(0x2000, size, v);
            assert_eq!(m.read(0x2000, size), v, "size {size}");
        }
    }

    #[test]
    fn page_crossing_access() {
        let mut m = Memory::new();
        let addr = 0x2000 - 3; // crosses into next page
        m.write(addr, 8, 0xdead_beef_cafe_f00d);
        assert_eq!(m.read(addr, 8), 0xdead_beef_cafe_f00d);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn little_endian_layout() {
        let mut m = Memory::new();
        m.write(0x100, 4, 0x0403_0201);
        assert_eq!(m.read_u8(0x100), 1);
        assert_eq!(m.read_u8(0x103), 4);
    }

    #[test]
    fn bytes_roundtrip() {
        let mut m = Memory::new();
        m.write_bytes(0xfff, &[9, 8, 7]);
        assert_eq!(m.read_bytes(0xfff, 3), vec![9, 8, 7]);
    }

    #[test]
    fn multi_page_bytes_roundtrip() {
        let mut m = Memory::new();
        // Starts mid-page and spans three page boundaries.
        let start = 0x3000 - 5;
        let bytes: Vec<u8> = (0..3 * PAGE_SIZE + 17).map(|i| (i * 7 + 3) as u8).collect();
        m.write_bytes(start, &bytes);
        assert_eq!(m.resident_pages(), 5);
        assert_eq!(m.read_bytes(start, bytes.len()), bytes);
        for (i, &b) in bytes.iter().enumerate().step_by(511) {
            assert_eq!(m.read_u8(start + i as u64), b, "byte {i}");
        }
        // A read running off the written range into never-touched pages
        // yields zeroes there and maps nothing.
        let tail = m.read_bytes(start + bytes.len() as u64 - 3, 2 * PAGE_SIZE);
        assert_eq!(&tail[..3], &bytes[bytes.len() - 3..]);
        assert!(tail[3..].iter().all(|&b| b == 0));
        assert_eq!(m.resident_pages(), 5);
        // Writing nothing maps nothing.
        m.write_bytes(0x10_0000, &[]);
        assert_eq!(m.resident_pages(), 5);
    }

    #[test]
    fn bytes_wrap_around_the_address_space() {
        let mut m = Memory::new();
        m.write_bytes(u64::MAX - 1, &[1, 2, 3, 4]);
        assert_eq!(m.read_bytes(u64::MAX - 1, 4), vec![1, 2, 3, 4]);
        assert_eq!(m.read_u8(1), 4);
    }
}
