//! The fixed memos behind [`chain_step_n`](crate::chain::chain_step_n) and
//! the beacon MAC.
//!
//! In the engine's receiver loop every station that hears a beacon repeats
//! the same pure calls: the same chain walk to validate the disclosed key,
//! the same HMAC to authenticate the buffered beacon. A memo serves the
//! repeats from a thread-local table, so a broadcast costs each distinct
//! call once; the cached output is bit-identical to a recompute, and
//! thread-local storage keeps parallel sweeps race-free.

/// Entries per memo. One entry thrashes on the delivery path's own
/// traffic, and two are not enough:
///
/// * after a reference change, receivers that validate the new reference
///   from its anchor interleave with receivers that hold a retired
///   verifier for it: two distinct chain walks alternate;
/// * the reference's own signature MACs the beacon every receiver
///   authenticates one BP later, and the next signature comes first;
/// * a receiver whose previous beacon was lost MACs an older beacon than
///   its peers (and walks one step further), which locks a two-entry MAC
///   memo into two misses per BP.
///
/// Four entries serve all three with one HMAC per BP.
pub(crate) const MEMO_WAYS: usize = 4;

/// [`MEMO_WAYS`] entries of `E`, compared where they sit and replaced
/// round-robin in place: a miss overwrites one entry, never the array.
pub(crate) struct Memo<E> {
    entries: [E; MEMO_WAYS],
    next: usize,
    /// Misses so far: one per [`victim`](Memo::victim) call.
    #[cfg(test)]
    misses: u64,
}

impl<E: Copy> Memo<E> {
    /// A memo whose every entry is `empty`, which must match no lookup.
    pub(crate) const fn new(empty: E) -> Self {
        Memo {
            entries: [empty; MEMO_WAYS],
            next: 0,
            #[cfg(test)]
            misses: 0,
        }
    }
}

impl<E> Memo<E> {
    /// The first entry `hit` maps to a value.
    #[inline]
    pub(crate) fn find<T>(&self, hit: impl FnMut(&E) -> Option<T>) -> Option<T> {
        self.entries.iter().find_map(hit)
    }

    /// The entry a miss overwrites: the oldest one written.
    #[inline]
    pub(crate) fn victim(&mut self) -> &mut E {
        #[cfg(test)]
        {
            self.misses += 1;
        }
        let i = self.next;
        self.next = (i + 1) % MEMO_WAYS;
        &mut self.entries[i]
    }

    /// Misses so far.
    #[cfg(test)]
    pub(crate) fn misses(&self) -> u64 {
        self.misses
    }
}
