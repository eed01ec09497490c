//! The exact per-patch ρ memo behind the correlation paths.
//!
//! Once the query embedding and the frame's resolved concept lists are fixed, a patch's ρ
//! is a pure function of the patch's input: its `(object_id, fraction)` coverage list and
//! its background fraction. The Eq. 1 kernel reads nothing else about the patch — not its
//! position, not its pixels, not its neighbours — and it is deterministic. So two patches
//! with the same input, compared bit for bit, have the same ρ, bit for bit, and the second
//! one need not be evaluated. Video repeats inputs heavily: background patches and
//! object-interior patches share inputs within a frame, and a moving object's dirty
//! patches often see exactly the input they had one capture earlier.
//!
//! [`PatchMemo`] maps inputs to the values the kernel produced. It carries its own
//! validity key ([`MemoKey`]: the query's encoding epoch, the frame fingerprint and the
//! model parameters) and empties itself when a call presents a different key, so no entry
//! outlives the query embedding or concept lists it was computed against. It lives in flat
//! capacity-keeping buffers — open addressing over an entry arena, with the coverage keys
//! concatenated in one list — and empties itself before it would hold more than
//! [`ENTRIES_PER_PATCH`] entries per patch of the grid, so a warm conversation neither
//! allocates nor grows.

/// The memo empties itself before it would hold more than this many entries per patch of
/// the map being computed: a full map fits after emptying, and a conversation's memory
/// stays bounded however long it runs.
const ENTRIES_PER_PATCH: usize = 2;

/// Smallest slot table the memo allocates.
const MIN_SLOTS: usize = 64;

/// Everything besides a patch's own input that its ρ depends on. Entries are valid only
/// under the key they were computed with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MemoKey {
    /// Bumped every time the scratch re-encodes the query embedding.
    pub query_epoch: u64,
    /// `frame_fingerprint` of the frame whose concept lists the kernel resolved.
    pub fingerprint: u64,
    /// The model's embedding dimension.
    pub dim: usize,
    /// The model's contrastive calibration bias, as bits.
    pub bias_bits: u64,
}

/// How many patches the memo looked up and how many of those it had to evaluate, since
/// the counts were last taken.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PatchCounts {
    /// Patches looked up (every patch a map computation considered).
    pub lookups: u64,
    /// Patches run through the Eq. 1 kernel (inputs not already in the memo).
    pub evals: u64,
}

/// One memoized input and its ρ.
#[derive(Debug, Clone, Copy)]
struct Entry {
    hash: u64,
    /// Background fraction, as bits.
    background: u64,
    /// The coverage list is `coverage[start..start + len]`.
    start: u32,
    len: u32,
    /// Valid once the entry has been resolved (index below `PatchMemo::resolved`).
    rho: f64,
}

/// Exact memo from a patch input (coverage list + background fraction, bit for bit) to
/// its ρ. See the module docs.
///
/// Entries are created by [`PatchMemo::lookup_or_insert`] as *pending* and resolved in
/// creation order by [`PatchMemo::resolve`], so the pending entries are always the tail
/// of the arena and a caller evaluates them straight from [`PatchMemo::pending_input`].
#[derive(Debug, Clone, Default)]
pub(crate) struct PatchMemo {
    key: Option<MemoKey>,
    /// Open-addressing table: `0` is empty, otherwise an entry index plus one. Its length
    /// is a power of two at least twice the entry count.
    slots: Vec<u32>,
    entries: Vec<Entry>,
    /// Every entry's coverage list, concatenated.
    coverage: Vec<(u32, f64)>,
    /// Entries below this index hold their ρ; the rest are pending.
    resolved: usize,
    counts: PatchCounts,
}

impl PatchMemo {
    /// Prepares the memo for a call that will look up at most `incoming` patches of a
    /// `patches`-patch grid under `key`: empties it when the key differs from the one its
    /// entries were computed under, or when `incoming` new entries could take it past
    /// [`ENTRIES_PER_PATCH`] per patch. Emptying keeps every buffer's capacity.
    pub(crate) fn begin(&mut self, key: MemoKey, incoming: usize, patches: usize) {
        debug_assert_eq!(self.pending(), 0, "a previous call left entries unresolved");
        if self.key != Some(key) || self.entries.len() + incoming > ENTRIES_PER_PATCH * patches {
            self.slots.fill(0);
            self.entries.clear();
            self.coverage.clear();
            self.resolved = 0;
            self.key = Some(key);
        }
    }

    /// Number of entries (resolved and pending) the memo holds.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Looks up a patch input. `Ok(rho)` is a resolved hit; `Err(entry)` names a pending
    /// entry — inserted now, or earlier in the same call and not yet resolved — whose ρ
    /// [`PatchMemo::rho`] returns once it is.
    pub(crate) fn lookup_or_insert(&mut self, coverage: &[(u32, f64)], background: f64) -> Result<f64, u32> {
        self.counts.lookups += 1;
        let background = background.to_bits();
        let hash = hash_input(coverage, background);
        if 2 * (self.entries.len() + 1) > self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut slot = hash as usize & mask;
        while let Some(index) = self.slots[slot].checked_sub(1) {
            let entry = &self.entries[index as usize];
            if entry.hash == hash
                && entry.background == background
                && same_coverage(
                    &self.coverage[entry.start as usize..(entry.start + entry.len) as usize],
                    coverage,
                )
            {
                return if (index as usize) < self.resolved {
                    Ok(entry.rho)
                } else {
                    Err(index)
                };
            }
            slot = (slot + 1) & mask;
        }
        let index = self.entries.len() as u32;
        self.entries.push(Entry {
            hash,
            background,
            start: self.coverage.len() as u32,
            len: coverage.len() as u32,
            rho: 0.0,
        });
        self.coverage.extend_from_slice(coverage);
        self.slots[slot] = index + 1;
        Err(index)
    }

    /// Number of entries awaiting evaluation.
    pub(crate) fn pending(&self) -> usize {
        self.entries.len() - self.resolved
    }

    /// The input of the `offset`-th pending entry: its coverage list and background
    /// fraction, bit for bit as looked up.
    pub(crate) fn pending_input(&self, offset: usize) -> (&[(u32, f64)], f64) {
        let entry = &self.entries[self.resolved + offset];
        let start = entry.start as usize;
        (
            &self.coverage[start..start + entry.len as usize],
            f64::from_bits(entry.background),
        )
    }

    /// Stores the ρ of the first `values.len()` pending entries, in order.
    pub(crate) fn resolve(&mut self, values: &[f64]) {
        let end = self.resolved + values.len();
        for (entry, &rho) in self.entries[self.resolved..end].iter_mut().zip(values) {
            entry.rho = rho;
        }
        self.resolved = end;
        self.counts.evals += values.len() as u64;
    }

    /// The ρ of a resolved entry.
    pub(crate) fn rho(&self, entry: u32) -> f64 {
        debug_assert!((entry as usize) < self.resolved, "entry {entry} is still pending");
        self.entries[entry as usize].rho
    }

    /// Lookups and evaluations since the last call, resetting both to zero.
    pub(crate) fn take_counts(&mut self) -> PatchCounts {
        std::mem::take(&mut self.counts)
    }

    /// Doubles the slot table (or creates it) and re-inserts every entry.
    fn grow(&mut self) {
        let len = (2 * self.slots.len()).max(MIN_SLOTS);
        self.slots.clear();
        self.slots.resize(len, 0);
        let mask = len - 1;
        for (index, entry) in self.entries.iter().enumerate() {
            let mut slot = entry.hash as usize & mask;
            while self.slots[slot] != 0 {
                slot = (slot + 1) & mask;
            }
            self.slots[slot] = index as u32 + 1;
        }
    }
}

/// Bit-for-bit equality of two coverage lists.
fn same_coverage(a: &[(u32, f64)], b: &[(u32, f64)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
}

/// Multiply-rotate hash of a patch input with a final avalanche, so the low bits the
/// slot index uses depend on every input bit.
fn hash_input(coverage: &[(u32, f64)], background: u64) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut h = background.wrapping_mul(K);
    for &(id, fraction) in coverage {
        h = (h.rotate_left(27) ^ id as u64).wrapping_mul(K);
        h = (h.rotate_left(27) ^ fraction.to_bits()).wrapping_mul(K);
    }
    h ^= h >> 31;
    h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^ (h >> 29)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(epoch: u64) -> MemoKey {
        MemoKey {
            query_epoch: epoch,
            fingerprint: 7,
            dim: 64,
            bias_bits: 0.22f64.to_bits(),
        }
    }

    #[test]
    fn repeated_inputs_hit_and_distinct_inputs_miss() {
        let mut memo = PatchMemo::default();
        memo.begin(key(1), 4, 4);
        let a = [(1u32, 0.5f64)];
        assert_eq!(memo.lookup_or_insert(&a, 0.5), Err(0));
        // Same input while still pending: the same entry, not a new one.
        assert_eq!(memo.lookup_or_insert(&a, 0.5), Err(0));
        // A different background fraction, id or fraction is a different input.
        assert_eq!(memo.lookup_or_insert(&a, 0.25), Err(1));
        assert_eq!(memo.lookup_or_insert(&[(2, 0.5)], 0.5), Err(2));
        assert_eq!(memo.pending(), 3);
        assert_eq!(memo.pending_input(2), (&[(2u32, 0.5f64)][..], 0.5));
        memo.resolve(&[0.1, 0.2, 0.3]);
        assert_eq!(memo.rho(0), 0.1);
        assert_eq!(memo.lookup_or_insert(&a, 0.5), Ok(0.1));
        assert_eq!(memo.lookup_or_insert(&a, 0.25), Ok(0.2));
        assert_eq!(memo.take_counts(), PatchCounts { lookups: 6, evals: 3 });
        assert_eq!(memo.take_counts(), PatchCounts::default());
    }

    #[test]
    fn inputs_compare_bit_for_bit() {
        let mut memo = PatchMemo::default();
        memo.begin(key(1), 8, 8);
        assert_eq!(memo.lookup_or_insert(&[(1, 0.0)], 0.0), Err(0));
        // -0.0 == 0.0 numerically, but the memo only trusts identical bits.
        assert_eq!(memo.lookup_or_insert(&[(1, -0.0)], 0.0), Err(1));
        assert_eq!(memo.lookup_or_insert(&[(1, 0.0)], -0.0), Err(2));
        // Order and length matter.
        assert_eq!(memo.lookup_or_insert(&[(1, 0.0), (2, 0.0)], 0.0), Err(3));
        assert_eq!(memo.lookup_or_insert(&[(2, 0.0), (1, 0.0)], 0.0), Err(4));
        assert_eq!(memo.lookup_or_insert(&[], 0.0), Err(5));
        assert_eq!(memo.lookup_or_insert(&[(1, 0.0)], 0.0), Err(0));
    }

    #[test]
    fn a_new_key_empties_the_memo() {
        let mut memo = PatchMemo::default();
        memo.begin(key(1), 4, 4);
        assert_eq!(memo.lookup_or_insert(&[(1, 1.0)], 0.0), Err(0));
        memo.resolve(&[0.5]);
        memo.begin(key(1), 1, 4);
        assert_eq!(memo.lookup_or_insert(&[(1, 1.0)], 0.0), Ok(0.5));
        for other in [
            key(2),
            MemoKey {
                fingerprint: 8,
                ..key(1)
            },
            MemoKey { dim: 128, ..key(1) },
            MemoKey {
                bias_bits: 0.3f64.to_bits(),
                ..key(1)
            },
        ] {
            memo.begin(other, 1, 4);
            assert_eq!(memo.len(), 0, "{other:?}");
            assert_eq!(memo.lookup_or_insert(&[(1, 1.0)], 0.0), Err(0));
            memo.resolve(&[0.5]);
        }
    }

    #[test]
    fn the_memo_never_holds_more_than_two_entries_per_patch() {
        let mut memo = PatchMemo::default();
        let patches = 10;
        for call in 0..50u32 {
            memo.begin(key(1), patches, patches);
            for i in 0..patches as u32 {
                let _ = memo.lookup_or_insert(&[(call * 100 + i, 1.0)], 0.0);
            }
            memo.resolve(&vec![0.0; memo.pending()]);
            assert!(memo.len() <= ENTRIES_PER_PATCH * patches);
        }
        // A small call after one full map still fits without emptying.
        memo.begin(key(2), patches, patches);
        for i in 0..patches as u32 {
            let _ = memo.lookup_or_insert(&[(i, 1.0)], 0.0);
        }
        memo.resolve(&vec![0.0; memo.pending()]);
        memo.begin(key(2), 3, patches);
        assert_eq!(memo.len(), patches);
        assert_eq!(memo.lookup_or_insert(&[(0, 1.0)], 0.0), Ok(0.0));
    }

    #[test]
    fn growth_keeps_every_entry_reachable() {
        let mut memo = PatchMemo::default();
        let n = 5_000u32;
        memo.begin(key(1), n as usize, n as usize);
        for i in 0..n {
            let cov = [(i % 7, i as f64 / n as f64)];
            assert_eq!(memo.lookup_or_insert(&cov, (i % 3) as f64), Err(i));
        }
        let values: Vec<f64> = (0..n).map(|i| i as f64 / n as f64).collect();
        memo.resolve(&values);
        assert!(memo.slots.len() >= 2 * n as usize && memo.slots.len().is_power_of_two());
        for i in 0..n {
            let cov = [(i % 7, i as f64 / n as f64)];
            assert_eq!(
                memo.lookup_or_insert(&cov, (i % 3) as f64),
                Ok(values[i as usize])
            );
        }
    }
}
