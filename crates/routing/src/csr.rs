//! Flat CSR **crossing-comms index**: `link slot → sorted comm/slot ids`.
//!
//! The engines keep asking the same structural question: *which
//! communications can this link affect?* — XYI keys it by the current path
//! crossing the link, PR by band membership, and the
//! [`RoutingSession`](crate::session::RoutingSession) keeps both flavours
//! resident across requests. The historical representation was a
//! `Vec<Vec<usize>>` per consumer: one heap allocation per link slot
//! (`p·q·4` of them — 262 144 on a 256×256 mesh), pointer-chasing on every
//! candidate scan, and an `O(slots)` clear per rebuild.
//!
//! [`CrossingIndex`] is the flat CSR replacement, following the
//! `first_out`/`head` layout of `rust_road_router`'s `FirstOutGraph` (the
//! same idiom as [`Band`](pamr_mesh::Band)'s group table): all rows live in
//! one arena, a row is a slice, and a bulk [`rebuild`](CrossingIndex::rebuild)
//! lays the rows out exactly-fit in two counting passes. Dynamic consumers
//! (the session's incremental mutations, pending-link XYI's accepted flips)
//! get sorted insert/remove with per-row amortised doubling: an overflowing
//! row relocates to the end of the arena, so one insert costs `O(row)`
//! worst case and `O(log row)` search — never a whole-index rebuild. A
//! rebuilt row keeps emission order and nothing is sorted afterwards: a
//! consumer that wants another order emits in it, as banded PR emits its
//! bands in decreasing weight so each row lists the link's users in the
//! order its removal scan visits them.
//!
//! **Bit-identity.** Row contents and row order are exactly what the
//! Vec-of-Vec index held, so every consumer iterates candidates in the same
//! order and computes the same floats. The Vec-of-Vec index survives in
//! `pr::reference` as the oracle side (`xyi::reference` keeps no index: it
//! probes every communication); `tests/scaling_differential.rs` and
//! `crates/routing/tests/csr_prop.rs` pin the equivalence.

/// A flat CSR map from dense row ids (link slots) to sorted ascending
/// `u32` entries (comm indices or session slots). See the [module
/// docs](self).
#[derive(Debug, Default, Clone)]
pub struct CrossingIndex {
    /// Arena offset of each row's slab.
    start: Vec<u32>,
    /// Slab capacity of each row (`len ≤ cap`).
    cap: Vec<u32>,
    /// Live entries of each row.
    len: Vec<u32>,
    /// The slab arena. Freed slabs (row relocations) are abandoned until
    /// the next [`rebuild`](Self::rebuild) compacts the arena; leaked space
    /// is bounded by the doubling schedule (< 2× the live total).
    data: Vec<u32>,
}

impl CrossingIndex {
    /// A new, empty index. Size it with [`CrossingIndex::clear`] or
    /// [`CrossingIndex::rebuild`] before use.
    pub fn new() -> Self {
        CrossingIndex::default()
    }

    /// Number of rows.
    #[inline]
    pub fn num_rows(&self) -> usize {
        self.start.len()
    }

    /// Empties the index and resizes it to `n_rows` zero-capacity rows,
    /// keeping allocations. Subsequent inserts grow rows individually.
    pub fn clear(&mut self, n_rows: usize) {
        self.start.clear();
        self.start.resize(n_rows, 0);
        self.cap.clear();
        self.cap.resize(n_rows, 0);
        self.len.clear();
        self.len.resize(n_rows, 0);
        self.data.clear();
    }

    /// Bulk rebuild from an emitter called **twice** (count pass, fill
    /// pass): `emit` must invoke its callback with the same `(row, value)`
    /// sequence both times. Rows are laid out exactly-fit in arena order of
    /// first appearance of their counts (dense prefix sums), each row
    /// receiving its values in emission order — identical row contents, in
    /// identical order, to pushing into a `Vec<Vec<_>>`. A consumer that
    /// wants its rows ordered emits in that order: banded PR emits its
    /// bands in decreasing weight, so no row is ever sorted afterwards.
    pub fn rebuild<F>(&mut self, n_rows: usize, mut emit: F)
    where
        F: FnMut(&mut dyn FnMut(usize, u32)),
    {
        self.len.clear();
        self.len.resize(n_rows, 0);
        let len = &mut self.len;
        emit(&mut |row, _| len[row] += 1);
        self.start.clear();
        self.start.reserve(n_rows);
        self.cap.clear();
        self.cap.reserve(n_rows);
        let mut total = 0u32;
        for &n in &self.len {
            self.start.push(total);
            self.cap.push(n);
            total += n;
        }
        self.data.clear();
        self.data.resize(total as usize, 0);
        self.len.iter_mut().for_each(|n| *n = 0);
        let (start, len, data) = (&self.start, &mut self.len, &mut self.data);
        emit(&mut |row, value| {
            data[(start[row] + len[row]) as usize] = value;
            len[row] += 1;
        });
    }

    /// The entries of `row`, in insertion/sorted order.
    #[inline]
    pub fn row(&self, row: usize) -> &[u32] {
        let lo = self.start[row] as usize;
        &self.data[lo..lo + self.len[row] as usize]
    }

    /// Number of entries in `row`.
    #[inline]
    pub fn len_of(&self, row: usize) -> usize {
        self.len[row] as usize
    }

    /// Entry `i` of `row`.
    #[inline]
    pub fn get(&self, row: usize, i: usize) -> u32 {
        debug_assert!(i < self.len_of(row));
        self.data[self.start[row] as usize + i]
    }

    /// Inserts `value` into `row`, keeping the row sorted ascending.
    ///
    /// # Panics
    /// Panics if `value` is already present — callers insert a comm into
    /// the rows of exactly the links it does not yet occupy.
    pub fn insert_sorted(&mut self, row: usize, value: u32) {
        if self.len[row] == self.cap[row] {
            self.grow(row);
        }
        let lo = self.start[row] as usize;
        let n = self.len[row] as usize;
        let pos = self.data[lo..lo + n]
            .binary_search(&value)
            // pamr-lint: allow(P001, reason = "callers insert a comm into a row it cannot occupy yet: a fresh slot, or a link its old path did not cross")
            .expect_err("value cannot already be indexed in this row");
        self.data.copy_within(lo + pos..lo + n, lo + pos + 1);
        self.data[lo + pos] = value;
        self.len[row] += 1;
    }

    /// Removes `value` from a sorted row.
    ///
    /// # Panics
    /// Panics if `value` is absent — callers remove a comm from the rows of
    /// exactly the links it currently occupies.
    pub fn remove_sorted(&mut self, row: usize, value: u32) {
        let lo = self.start[row] as usize;
        let n = self.len[row] as usize;
        let pos = self.data[lo..lo + n]
            .binary_search(&value)
            // pamr-lint: allow(P001, reason = "callers remove a comm from the rows of exactly the links its current path or band occupies")
            .expect("value is indexed in this row");
        self.data.copy_within(lo + pos + 1..lo + n, lo + pos);
        self.len[row] -= 1;
    }

    /// Relocates `row` to the end of the arena with doubled capacity. The
    /// old slab is abandoned (compacted away by the next rebuild).
    fn grow(&mut self, row: usize) {
        let new_cap = (self.cap[row] * 2).max(4);
        let lo = self.start[row] as usize;
        let n = self.len[row] as usize;
        let new_lo = self.data.len();
        self.data.extend_from_within(lo..lo + n);
        self.data.resize(new_lo + new_cap as usize, 0);
        self.start[row] = new_lo as u32;
        self.cap[row] = new_cap;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Vec-of-Vec model the index replaces.
    fn naive(n_rows: usize, pairs: &[(usize, u32)]) -> Vec<Vec<u32>> {
        let mut v = vec![Vec::new(); n_rows];
        for &(r, x) in pairs {
            v[r].push(x);
        }
        v
    }

    #[test]
    fn rebuild_matches_vec_of_vec() {
        let pairs = [(3, 7), (0, 1), (3, 2), (5, 9), (0, 4), (3, 3)];
        let mut idx = CrossingIndex::new();
        idx.rebuild(7, |push| {
            for &(r, x) in &pairs {
                push(r, x);
            }
        });
        let model = naive(7, &pairs);
        for (r, row) in model.iter().enumerate() {
            assert_eq!(idx.row(r), row.as_slice(), "row {r}");
            assert_eq!(idx.len_of(r), row.len());
        }
        assert_eq!(idx.get(3, 1), 2);
    }

    #[test]
    fn sorted_insert_remove_roundtrip() {
        let mut idx = CrossingIndex::new();
        idx.clear(4);
        for v in [5, 1, 9, 3, 7, 0, 8, 2] {
            idx.insert_sorted(2, v);
        }
        assert_eq!(idx.row(2), &[0, 1, 2, 3, 5, 7, 8, 9]);
        idx.remove_sorted(2, 5);
        idx.remove_sorted(2, 0);
        idx.remove_sorted(2, 9);
        assert_eq!(idx.row(2), &[1, 2, 3, 7, 8]);
        assert!(idx.row(0).is_empty());
    }

    #[test]
    fn growth_keeps_other_rows_intact() {
        let mut idx = CrossingIndex::new();
        idx.rebuild(3, |push| {
            push(0, 10);
            push(1, 20);
            push(2, 30);
        });
        // Overflow row 1 far past its exact-fit capacity.
        for v in 0..20 {
            if v != 20 {
                idx.insert_sorted(1, v);
            }
        }
        assert_eq!(idx.row(0), &[10]);
        assert_eq!(idx.row(2), &[30]);
        assert_eq!(idx.len_of(1), 21);
        let row: Vec<u32> = idx.row(1).to_vec();
        assert!(row.windows(2).all(|w| w[0] < w[1]), "row stays sorted");
    }

    #[test]
    #[should_panic(expected = "value cannot already be indexed")]
    fn duplicate_insert_panics() {
        let mut idx = CrossingIndex::new();
        idx.clear(1);
        idx.insert_sorted(0, 4);
        idx.insert_sorted(0, 4);
    }

    #[test]
    #[should_panic(expected = "value is indexed")]
    fn absent_remove_panics() {
        let mut idx = CrossingIndex::new();
        idx.clear(1);
        idx.remove_sorted(0, 4);
    }
}
