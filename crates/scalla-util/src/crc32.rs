//! Table-driven CRC-32 (IEEE 802.3 / zlib polynomial).
//!
//! The paper keys its file-location hash table with "a CRC32 encoding of the
//! file name" (§III-A1). We implement the standard reflected CRC-32 with
//! polynomial `0xEDB88320`, which is the variant used by zlib and by the
//! production XRootD code base.
//!
//! A manager hashes every requested path at least once (the cache key, and
//! again for each `Locate` it floods), and its export table hashes each
//! component prefix with it, so the hash is on the per-request path, where
//! a bytewise loop was a visible share of a cache hit. It uses
//! slicing-by-8 instead: eight tables, built at compile time, fold eight
//! bytes per step with independent look-ups, and the tail goes a byte at a
//! time through the first table, the classic one-byte table. The output is
//! the same CRC.

/// The reflected IEEE 802.3 polynomial.
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the one-byte table; `TABLES[k][b]` is the CRC of byte `b`
/// followed by `k` zero bytes, so eight look-ups fold eight bytes at once.
const TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Computes the CRC-32 of `data` in one shot.
///
/// ```
/// assert_eq!(scalla_util::crc32(b"123456789"), 0xCBF4_3926);
/// ```
#[inline]
pub fn crc32(data: &[u8]) -> u32 {
    update(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// Feeds `data` into a running (already-inverted) CRC state.
///
/// Callers wanting incremental hashing should start from `0xFFFF_FFFF`,
/// call [`update`] for each chunk, and invert the final value — exactly what
/// [`crc32`] does for the single-chunk case.
#[inline]
pub fn update(mut state: u32, data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = state ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        state = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &byte in words.remainder() {
        state = (state >> 8) ^ t[0][((state ^ byte as u32) & 0xFF) as usize];
    }
    state
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The oracle: the classic one-byte-table loop.
    fn bytewise(mut state: u32, data: &[u8]) -> u32 {
        for &byte in data {
            state = (state >> 8) ^ TABLES[0][((state ^ byte as u32) & 0xFF) as usize];
        }
        state
    }

    proptest! {
        #[test]
        fn sliced_matches_bytewise(
            data in proptest::collection::vec(any::<u8>(), 0..200),
            cuts in proptest::collection::vec(0usize..200, 0..6),
        ) {
            let want = bytewise(0xFFFF_FFFF, &data) ^ 0xFFFF_FFFF;
            prop_assert_eq!(crc32(&data), want);
            // Fed in random chunks, the running state ends where one pass does.
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(data.len())).collect();
            cuts.sort_unstable();
            let (mut state, mut at) = (0xFFFF_FFFF, 0);
            for cut in cuts.into_iter().chain([data.len()]) {
                state = update(state, &data[at..cut]);
                at = cut;
            }
            prop_assert_eq!(state ^ 0xFFFF_FFFF, want);
        }
    }

    #[test]
    fn known_vectors() {
        // Canonical check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(b"abc"), 0x3524_41C2);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data = b"/store/user/babar/run1234/events-0042.root";
        let oneshot = crc32(data);
        let mut state = 0xFFFF_FFFF;
        for chunk in data.chunks(7) {
            state = update(state, chunk);
        }
        assert_eq!(state ^ 0xFFFF_FFFF, oneshot);
    }

    #[test]
    fn distinct_names_distinct_hashes() {
        // Not a guarantee in general, but these representative file names
        // must not collide (they don't under correct CRC-32).
        let names = [
            "/atlas/data/run1/f1.root",
            "/atlas/data/run1/f2.root",
            "/atlas/data/run2/f1.root",
            "/cms/data/run1/f1.root",
        ];
        let mut hashes: Vec<u32> = names.iter().map(|n| crc32(n.as_bytes())).collect();
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), names.len());
    }
}
