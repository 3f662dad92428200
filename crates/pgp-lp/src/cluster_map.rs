//! Neighbour-cluster aggregation map.
//!
//! When the label propagation algorithm visits a node it must find the
//! cluster with the strongest connection among its neighbours' clusters.
//! Cluster IDs are arbitrary values in `0..n`, so the paper uses *hashing
//! with linear probing* sized by the maximum degree, reporting it "much
//! faster than the hash map of the STL" — this module reproduces that
//! structure (and the `cluster_map` Criterion bench compares it against
//! `std::collections::HashMap`).
//!
//! When the keys already live in a small dense range — a PE's label slots
//! during parallel clustering, the `k` block IDs during refinement — the
//! hash is pure overhead: [`DenseRating`] indexes a plain array by key
//! and keeps the same first-touch iteration order.

use pgp_graph::{Node, Weight};

const EMPTY: u64 = u64::MAX;

/// An open-addressing accumulation map `cluster ID → connection weight`
/// with O(degree) clear via a used-slot stack.
pub struct ClusterMap {
    keys: Vec<u64>,
    vals: Vec<Weight>,
    used: Vec<u32>,
    mask: usize,
}

impl ClusterMap {
    /// Creates a map able to aggregate at least `max_degree` distinct
    /// clusters without exceeding 50 % load.
    pub fn with_max_degree(max_degree: usize) -> Self {
        let cap = (max_degree.max(4) * 2).next_power_of_two();
        Self {
            keys: vec![EMPTY; cap],
            vals: vec![0; cap],
            used: Vec::with_capacity(max_degree.max(4)),
            mask: cap - 1,
        }
    }

    /// Removes all entries (O(#entries), not O(capacity)).
    #[inline]
    pub fn clear(&mut self) {
        for &slot in &self.used {
            self.keys[slot as usize] = EMPTY;
            self.vals[slot as usize] = 0;
        }
        self.used.clear();
    }

    /// Number of distinct clusters currently stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.used.len()
    }

    /// True iff no clusters are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.used.is_empty()
    }

    /// Adds `w` to cluster `c`'s accumulated connection weight.
    #[inline]
    pub fn add(&mut self, c: Node, w: Weight) {
        let mut i = splitmix(c as u64) as usize & self.mask;
        loop {
            let k = self.keys[i];
            if k == c as u64 {
                self.vals[i] += w;
                return;
            }
            if k == EMPTY {
                self.keys[i] = c as u64;
                self.vals[i] = w;
                self.used.push(i as u32);
                return;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Accumulated weight of cluster `c` (0 when absent).
    #[inline]
    pub fn get(&self, c: Node) -> Weight {
        let mut i = splitmix(c as u64) as usize & self.mask;
        loop {
            let k = self.keys[i];
            if k == c as u64 {
                return self.vals[i];
            }
            if k == EMPTY {
                return 0;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Iterates over `(cluster, weight)` entries in insertion order.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = (Node, Weight)> + '_ {
        self.used
            .iter()
            .map(move |&slot| (self.keys[slot as usize] as Node, self.vals[slot as usize]))
    }
}

/// Marks a [`DenseRating`] key that has not been touched since the last
/// clear (an accumulated connection weight never reaches `u64::MAX`).
const ABSENT: Weight = Weight::MAX;

/// A dense accumulation array `key → connection weight` for keys in
/// `0..len`, with O(#entries) clear.
///
/// A drop-in for [`ClusterMap`] when keys are small dense integers: it
/// iterates in first-touch order and keeps entries whose accumulated
/// weight is 0 (zero-weight edges), exactly like the hash map, so
/// swapping one for the other changes no tie-breaking decision.
pub struct DenseRating {
    vals: Vec<Weight>,
    touched: Vec<Node>,
}

impl DenseRating {
    /// Creates a rating array for keys in `0..len`.
    pub fn new(len: usize) -> Self {
        Self {
            vals: vec![ABSENT; len],
            touched: Vec::new(),
        }
    }

    /// Grows the key range to at least `0..len` (existing entries stay).
    /// Growth past the current range is by an eighth, not by doubling: a
    /// range that tracks a PE's label slots grows only by the few foreign
    /// labels each phase brings in.
    pub fn ensure_len(&mut self, len: usize) {
        let cur = self.vals.len();
        if cur < len {
            let target = len.max(cur + cur / 8);
            self.vals.reserve_exact(target - cur);
            self.vals.resize(target, ABSENT);
        }
    }

    /// Removes all entries (O(#entries), not O(len)).
    #[inline]
    pub fn clear(&mut self) {
        for &c in &self.touched {
            self.vals[c as usize] = ABSENT;
        }
        self.touched.clear();
    }

    /// Number of distinct keys currently stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.touched.len()
    }

    /// True iff no keys are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.touched.is_empty()
    }

    /// The stored key when exactly one is stored.
    #[inline]
    pub fn only(&self) -> Option<Node> {
        match self.touched[..] {
            [c] => Some(c),
            _ => None,
        }
    }

    /// Adds `w` to key `c`'s accumulated connection weight.
    #[inline]
    pub fn add(&mut self, c: Node, w: Weight) {
        let v = &mut self.vals[c as usize];
        if *v == ABSENT {
            *v = w;
            self.touched.push(c);
        } else {
            *v += w;
        }
        debug_assert_ne!(*v, ABSENT, "connection weight overflow");
    }

    /// Accumulated weight of key `c` (0 when absent).
    #[inline]
    pub fn get(&self, c: Node) -> Weight {
        match self.vals[c as usize] {
            ABSENT => 0,
            w => w,
        }
    }

    /// Iterates over `(key, weight)` entries in first-touch order.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = (Node, Weight)> + '_ {
        self.touched
            .iter()
            .map(move |&c| (c, self.vals[c as usize]))
    }
}

#[inline]
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_and_clears() {
        let mut m = ClusterMap::with_max_degree(8);
        m.add(5, 2);
        m.add(9, 1);
        m.add(5, 3);
        assert_eq!(m.get(5), 5);
        assert_eq!(m.get(9), 1);
        assert_eq!(m.get(7), 0);
        assert_eq!(m.len(), 2);
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.get(5), 0);
    }

    #[test]
    fn survives_many_distinct_keys() {
        let mut m = ClusterMap::with_max_degree(64);
        for c in 0..64u32 {
            m.add(c * 1000, c as Weight + 1);
        }
        assert_eq!(m.len(), 64);
        for c in 0..64u32 {
            assert_eq!(m.get(c * 1000), c as Weight + 1);
        }
    }

    #[test]
    fn iter_matches_adds() {
        let mut m = ClusterMap::with_max_degree(4);
        m.add(1, 10);
        m.add(2, 20);
        m.add(1, 5);
        let mut got: Vec<_> = m.iter().collect();
        got.sort_unstable();
        assert_eq!(got, vec![(1, 15), (2, 20)]);
    }

    #[test]
    fn reuse_after_clear_is_clean() {
        let mut m = ClusterMap::with_max_degree(4);
        for round in 0..100u64 {
            m.clear();
            m.add(round as Node, round);
            m.add((round + 1) as Node, 1);
            assert_eq!(m.len(), 2);
            assert_eq!(m.get(round as Node), round);
        }
    }

    #[test]
    fn dense_rating_matches_cluster_map_order_and_zero_entries() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(5);
        let mut m = ClusterMap::with_max_degree(64);
        let mut d = DenseRating::new(16);
        d.ensure_len(40);
        for _ in 0..20 {
            m.clear();
            d.clear();
            for _ in 0..64 {
                let c: Node = rng.gen_range(0..40);
                let w: Weight = rng.gen_range(0..3);
                m.add(c, w);
                d.add(c, w);
            }
            assert_eq!(m.len(), d.len());
            assert!(m.iter().eq(d.iter()), "same first-touch order and sums");
            for c in 0..40 {
                assert_eq!(m.get(c), d.get(c));
            }
        }
        d.clear();
        assert_eq!(d.only(), None);
        d.add(3, 0);
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![(3, 0)]);
        assert!(!d.is_empty());
        assert_eq!(d.only(), Some(3), "a zero-weight entry still counts");
        d.add(7, 2);
        assert_eq!(d.only(), None);
    }

    #[test]
    fn matches_std_hashmap_on_random_workload() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(3);
        let mut m = ClusterMap::with_max_degree(128);
        let mut reference = std::collections::HashMap::new();
        for _ in 0..128 {
            let c: Node = rng.gen_range(0..40);
            let w: Weight = rng.gen_range(1..10);
            m.add(c, w);
            *reference.entry(c).or_insert(0u64) += w;
        }
        assert_eq!(m.len(), reference.len());
        for (&c, &w) in &reference {
            assert_eq!(m.get(c), w);
        }
    }
}
