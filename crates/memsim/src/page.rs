//! Fixed-size memory pages.

use std::fmt;
use std::sync::Arc;

/// Page size in bytes, matching the paper's testbed (4096-byte pages on
/// x86-64 Linux).
pub const PAGE_SIZE: usize = 4096;

/// Virtual page number (address / [`PAGE_SIZE`]).
pub type PageIdx = u64;

/// A single 4 KiB page of simulated memory.
///
/// Pages are copy-on-write: cloning shares the backing buffer (an `Arc`),
/// and the first mutation through a shared handle copies it. This makes
/// snapshots and checkpoint captures O(1) per page — the kernel's own
/// fork/CoW trick — while keeping value semantics: a clone never observes
/// later writes to the original.
///
/// A shared buffer is immutable for as long as more than one handle points
/// at it, so [`Page::ptr_eq`] witnesses content equality without comparing
/// bytes.
#[derive(Clone, PartialEq, Eq)]
pub struct Page {
    bytes: Arc<[u8; PAGE_SIZE]>,
}

impl Page {
    /// A page of all zeroes (fresh anonymous mapping semantics).
    pub fn zeroed() -> Self {
        Page {
            bytes: Arc::new([0u8; PAGE_SIZE]),
        }
    }

    /// Build a page from exactly [`PAGE_SIZE`] bytes.
    ///
    /// # Panics
    /// Panics if `data.len() != PAGE_SIZE`.
    pub fn from_bytes(data: &[u8]) -> Self {
        assert_eq!(
            data.len(),
            PAGE_SIZE,
            "page must be exactly {PAGE_SIZE} bytes"
        );
        let mut p = Page::zeroed();
        Arc::get_mut(&mut p.bytes)
            .expect("freshly allocated")
            .copy_from_slice(data);
        p
    }

    /// Read-only view of the page contents.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        &self.bytes[..]
    }

    /// Mutable view of the page contents. If the buffer is shared with any
    /// clone (a snapshot, a cache entry), it is copied first — writes are
    /// never visible through other handles.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        &mut Arc::make_mut(&mut self.bytes)[..]
    }

    /// True if `self` and `other` share the same backing buffer.
    ///
    /// Because a shared buffer is never mutated in place (every write path
    /// goes through [`Page::as_mut_slice`], which copies when shared),
    /// pointer equality implies byte equality — an O(1) version check.
    #[inline]
    pub fn ptr_eq(&self, other: &Page) -> bool {
        Arc::ptr_eq(&self.bytes, &other.bytes)
    }

    /// Overwrite `data.len()` bytes starting at `offset`.
    ///
    /// # Panics
    /// Panics if the write would run off the end of the page.
    pub fn write_at(&mut self, offset: usize, data: &[u8]) {
        assert!(
            offset + data.len() <= PAGE_SIZE,
            "write of {} bytes at offset {offset} exceeds page",
            data.len()
        );
        self.as_mut_slice()[offset..offset + data.len()].copy_from_slice(data);
    }

    /// True if every byte is zero.
    pub fn is_zero(&self) -> bool {
        self.bytes.iter().all(|&b| b == 0)
    }

    /// Number of bytes that differ from `other` at the same offset.
    ///
    /// This is the raw ingredient of the paper's *Jaccard Distance* metric
    /// (Section IV.D): `JD(P, P') = 1 - m/p` where `m` is the count of equal
    /// bytes.
    pub fn diff_bytes(&self, other: &Page) -> usize {
        self.bytes
            .iter()
            .zip(other.bytes.iter())
            .filter(|(a, b)| a != b)
            .count()
    }
}

impl Default for Page {
    fn default() -> Self {
        Page::zeroed()
    }
}

impl fmt::Debug for Page {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let nonzero = self.bytes.iter().filter(|&&b| b != 0).count();
        write!(f, "Page {{ nonzero: {nonzero}/{PAGE_SIZE} }}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_page_is_zero() {
        let p = Page::zeroed();
        assert!(p.is_zero());
        assert_eq!(p.as_slice().len(), PAGE_SIZE);
    }

    #[test]
    fn write_at_modifies_range() {
        let mut p = Page::zeroed();
        p.write_at(10, &[1, 2, 3]);
        assert_eq!(&p.as_slice()[10..13], &[1, 2, 3]);
        assert!(!p.is_zero());
    }

    #[test]
    #[should_panic(expected = "exceeds page")]
    fn write_past_end_panics() {
        let mut p = Page::zeroed();
        p.write_at(PAGE_SIZE - 1, &[1, 2]);
    }

    #[test]
    fn diff_bytes_counts_differences() {
        let mut a = Page::zeroed();
        let b = Page::zeroed();
        assert_eq!(a.diff_bytes(&b), 0);
        a.write_at(0, &[9; 100]);
        assert_eq!(a.diff_bytes(&b), 100);
    }

    #[test]
    fn from_bytes_roundtrip() {
        let data: Vec<u8> = (0..PAGE_SIZE).map(|i| (i % 251) as u8).collect();
        let p = Page::from_bytes(&data);
        assert_eq!(p.as_slice(), &data[..]);
    }

    #[test]
    #[should_panic(expected = "exactly")]
    fn from_bytes_wrong_len_panics() {
        let _ = Page::from_bytes(&[0u8; 100]);
    }

    #[test]
    fn clone_is_deep() {
        let mut a = Page::zeroed();
        let b = a.clone();
        a.write_at(0, &[1]);
        assert!(b.is_zero());
        assert!(!a.is_zero());
    }

    #[test]
    fn clone_shares_until_written() {
        let a = Page::from_bytes(&[7u8; PAGE_SIZE]);
        let mut b = a.clone();
        assert!(a.ptr_eq(&b), "clone shares the buffer");
        b.write_at(0, &[1]);
        assert!(!a.ptr_eq(&b), "write un-shares");
        assert_eq!(a.as_slice()[0], 7);
        assert_eq!(b.as_slice()[0], 1);
    }

    #[test]
    fn ptr_eq_implies_content_eq() {
        let a = Page::from_bytes(&[3u8; PAGE_SIZE]);
        let b = a.clone();
        assert!(a.ptr_eq(&b) && a == b);
        // Equal content in distinct buffers is not ptr-equal.
        let c = Page::from_bytes(&[3u8; PAGE_SIZE]);
        assert!(!a.ptr_eq(&c) && a == c);
    }

    #[test]
    fn unshared_write_keeps_buffer_in_place() {
        let mut a = Page::zeroed();
        let before = a.as_slice().as_ptr();
        a.write_at(0, &[9]);
        assert_eq!(a.as_slice().as_ptr(), before, "sole owner writes in place");
    }
}
