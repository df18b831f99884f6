//! Seeded content hashing for cache keys (replaces `fnv`/`xxhash`).
//!
//! The daemon's `HintStore` (crate `aji-serve`) keys every cache layer by
//! a digest of source text, so the properties that matter here are the
//! ones a *persistent, cross-process* cache needs:
//!
//! * **Stability** — the digest of a given byte string never changes
//!   across runs, platforms or thread counts (unlike `std`'s
//!   `DefaultHasher`, which is randomized per process and explicitly
//!   unstable across releases). Snapshots written by one daemon process
//!   must validate in the next.
//! * **Seedability** — a deployment can pick a seed so that digests are
//!   not portable *between* unrelated stores (a cheap guard against
//!   accidentally mixing snapshot files), and the test suite can prove
//!   key-space separation.
//! * **Speed over cryptography** — keys are content digests for caches
//!   whose values are re-derivable; collision resistance against an
//!   adversary is a non-goal, exactly as with FNV or xxHash.
//!
//! The implementation is 64-bit FNV-1a with the seed folded into the
//! offset basis, plus a [`mix64`] finalizer (xorshift-multiply, the
//! splitmix64 tail) so that short inputs still diffuse into the high
//! bits.
//!
//! # Example
//!
//! ```
//! use aji_support::hash::{fnv64, Fnv64};
//!
//! // One-shot and streaming digests agree.
//! let mut h = Fnv64::new(0);
//! h.write(b"var x = ");
//! h.write(b"1;");
//! assert_eq!(h.finish(), fnv64(0, b"var x = 1;"));
//!
//! // Different seeds give unrelated key spaces.
//! assert_ne!(fnv64(0, b"var x = 1;"), fnv64(7, b"var x = 1;"));
//! ```

/// The FNV-1a 64-bit offset basis.
const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// The FNV-1a 64-bit prime.
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// Streaming seeded FNV-1a 64-bit hasher.
///
/// Feed bytes with [`Fnv64::write`] (or whole values with the helpers
/// below) and read the digest with [`Fnv64::finish`]; `finish` does not
/// consume the hasher, so a prefix digest can be sampled mid-stream —
/// which is exactly how the daemon's parse cache keys "the project up to
/// and including file *i*".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv64 {
    state: u64,
}

impl Fnv64 {
    /// Creates a hasher whose offset basis is perturbed by `seed`
    /// (seed 0 is plain FNV-1a).
    #[must_use]
    pub fn new(seed: u64) -> Self {
        // Diffuse the seed before folding it in so that small seeds
        // (0, 1, 2, …) still flip about half of the basis bits.
        Fnv64 {
            state: OFFSET ^ mix64(seed),
        }
    }

    /// Absorbs bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        let mut s = self.state;
        for &b in bytes {
            s ^= u64::from(b);
            s = s.wrapping_mul(PRIME);
        }
        self.state = s;
    }

    /// Absorbs a `u64` in little-endian byte order (for combining child
    /// digests into a parent digest).
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Absorbs a length-prefixed string, so `("ab","c")` and `("a","bc")`
    /// hash differently when combined field by field.
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }

    /// The digest of everything written so far, finalized through
    /// [`mix64`]. Does not reset the hasher.
    #[must_use]
    pub fn finish(&self) -> u64 {
        mix64(self.state)
    }
}

/// One-shot convenience: digest of `bytes` under `seed`.
#[must_use]
pub fn fnv64(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new(seed);
    h.write(bytes);
    h.finish()
}

/// The splitmix64 finalizer: a fast invertible mix that spreads low-bit
/// differences across the whole word. Used both to diffuse seeds and to
/// finalize digests.
#[must_use]
pub fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// Renders a digest the way snapshots and the `stats` response do:
/// 16 lower-case hex digits, zero-padded, stable across platforms.
#[must_use]
pub fn hex(digest: u64) -> String {
    format!("{digest:016x}")
}

/// Parses [`hex`]'s output back to a digest (used when reloading
/// snapshots).
#[must_use]
pub fn from_hex(s: &str) -> Option<u64> {
    if s.len() != 16 {
        return None;
    }
    u64::from_str_radix(s, 16).ok()
}

/// The multiplier of [`FxHasher`]'s rotate-xor-multiply step.
const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A fast, deterministic, non-cryptographic [`std::hash::Hasher`] for
/// in-memory tables keyed by small integers and short strings (replaces
/// `rustc-hash`).
///
/// Each word is folded in as `hash = (hash.rotl(5) ^ word) * K`. Unlike
/// `std`'s SipHash `RandomState` it is neither keyed nor DoS-resistant,
/// which is fine for tables whose keys the program itself mints (solver
/// cells, tokens, scope ids) — and its iteration order is the same in
/// every run. Never use it for [`Fnv64`]'s job: it is not a stable
/// content digest.
///
/// # Example
///
/// ```
/// use aji_support::hash::FxHashMap;
///
/// let mut m: FxHashMap<u32, &str> = FxHashMap::default();
/// m.insert(7, "seven");
/// assert_eq!(m.get(&7), Some(&"seven"));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl std::hash::Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// The [`std::hash::BuildHasher`] of [`FxHasher`].
pub type FxBuildHasher = std::hash::BuildHasherDefault<FxHasher>;
/// A `HashMap` hashed with [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;
/// A `HashSet` hashed with [`FxHasher`].
pub type FxHashSet<K> = std::collections::HashSet<K, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digests_are_stable_across_calls() {
        let a = fnv64(0, b"hello");
        let b = fnv64(0, b"hello");
        assert_eq!(a, b);
        // Pinned value: the whole point is cross-process stability, so a
        // change here is a cache-invalidation event and must be loud.
        assert_eq!(fnv64(0, b""), mix64(OFFSET ^ mix64(0)));
    }

    #[test]
    fn streaming_matches_oneshot() {
        let mut h = Fnv64::new(42);
        for chunk in ["var ", "x", " = 1;"] {
            h.write(chunk.as_bytes());
        }
        assert_eq!(h.finish(), fnv64(42, b"var x = 1;"));
    }

    #[test]
    fn seed_separates_key_spaces() {
        for s in ["", "a", "var x = 1;"] {
            assert_ne!(fnv64(0, s.as_bytes()), fnv64(1, s.as_bytes()));
            assert_ne!(fnv64(1, s.as_bytes()), fnv64(2, s.as_bytes()));
        }
    }

    #[test]
    fn small_edits_change_the_digest() {
        let base = fnv64(0, b"function f() { return 1; }");
        assert_ne!(base, fnv64(0, b"function f() { return 2; }"));
        assert_ne!(base, fnv64(0, b"function f() { return 1; } "));
        assert_ne!(base, fnv64(0, b"function g() { return 1; }"));
    }

    #[test]
    fn write_str_is_length_prefixed() {
        let mut a = Fnv64::new(0);
        a.write_str("ab");
        a.write_str("c");
        let mut b = Fnv64::new(0);
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn hex_roundtrips() {
        for d in [0u64, 1, u64::MAX, fnv64(3, b"x")] {
            assert_eq!(from_hex(&hex(d)), Some(d));
        }
        assert_eq!(from_hex("xyz"), None);
        assert_eq!(from_hex("0"), None);
    }

    #[test]
    fn fx_hashes_are_deterministic_and_spread() {
        use std::hash::{BuildHasher, Hasher};
        let b = FxBuildHasher::default();
        assert_eq!(b.hash_one("prototype"), b.hash_one("prototype"));
        assert_ne!(b.hash_one("ab"), b.hash_one("ba"));
        // Sequential ids, the solver's common key, do not collide.
        let set: FxHashSet<u64> = (0..1000u32).map(|i| b.hash_one(i)).collect();
        assert_eq!(set.len(), 1000);
        // A tail shorter than a word still counts.
        let raw = |bytes: &[u8]| {
            let mut h = FxHasher::default();
            h.write(bytes);
            h.finish()
        };
        assert_ne!(raw(&[1; 9]), raw(&[1; 8]));
    }
}
