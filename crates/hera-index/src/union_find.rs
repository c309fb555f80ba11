//! Union–find over record ids (§III-B2, citing CLRS [14]).

use hera_types::json::Json;
use hera_types::{HeraError, Result};

/// Disjoint-set forest with path halving.
///
/// HERA's narration always keeps the *smaller* rid as the representative
/// (`1 = union(1, 6)` in Example 5), so `union` here is deterministic:
/// the smaller root wins. Rank-based union would be asymptotically nicer,
/// but the determinism is worth more — entity labels, index keys, and test
/// expectations all reference the surviving rid — and path halving alone
/// keeps `find` effectively constant at this workload's scale.
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<u32>,
}

impl UnionFind {
    /// Creates `n` singleton sets `0..n`.
    pub fn new(n: usize) -> Self {
        Self {
            parent: (0..n as u32).collect(),
        }
    }

    /// Number of elements (not sets).
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Appends a fresh singleton element and returns its id (streaming
    /// ER grows the universe one record at a time).
    pub fn push(&mut self) -> u32 {
        let id = self.parent.len() as u32;
        self.parent.push(id);
        id
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Representative of `x`'s set, with path halving.
    pub fn find(&mut self, mut x: u32) -> u32 {
        loop {
            let p = self.parent[x as usize];
            if p == x {
                return x;
            }
            let gp = self.parent[p as usize];
            self.parent[x as usize] = gp;
            x = gp;
        }
    }

    /// Representative without path compression (for `&self` contexts).
    pub fn find_const(&self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            x = self.parent[x as usize];
        }
        x
    }

    /// Merges the sets of `a` and `b`; the **smaller root** becomes the
    /// representative and is returned (the paper's `k = union(i, j)`).
    pub fn union(&mut self, a: u32, b: u32) -> u32 {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return ra;
        }
        let (keep, fold) = if ra < rb { (ra, rb) } else { (rb, ra) };
        self.parent[fold as usize] = keep;
        keep
    }

    /// True if `a` and `b` are in the same set.
    pub fn connected(&mut self, a: u32, b: u32) -> bool {
        self.find(a) == self.find(b)
    }

    /// Encodes the forest as a JSON array of parent pointers, verbatim.
    ///
    /// The parent array is serialized without canonicalization so a
    /// restored forest is *bit-identical* to the live one — `find`'s
    /// path-halving history is part of the state, and replaying it exactly
    /// keeps checkpointed sessions continuation-equivalent.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.parent
                .iter()
                .map(|&p| Json::Int(i64::from(p)))
                .collect(),
        )
    }

    /// Decodes a forest from [`UnionFind::to_json`] output, validating
    /// that every parent pointer stays in bounds.
    pub fn from_json(json: &Json) -> Result<Self> {
        let arr = json.as_arr()?;
        let mut parent = Vec::with_capacity(arr.len());
        for p in arr {
            parent.push(p.as_u32()?);
        }
        let n = parent.len() as u32;
        if let Some(&bad) = parent.iter().find(|&&p| p >= n) {
            return Err(HeraError::Corrupt(format!(
                "union-find parent pointer {bad} out of bounds (len {n})"
            )));
        }
        Ok(Self { parent })
    }

    /// Groups every element by representative; clusters sorted by root
    /// id, members ascending.
    pub fn clusters(&mut self) -> Vec<Vec<u32>> {
        self.grouping().clusters()
    }

    /// Groups every element by representative in one counting pass over
    /// the roots: see [`Grouping`].
    pub fn grouping(&mut self) -> Grouping {
        let n = self.parent.len();
        let roots: Vec<u32> = (0..n as u32).map(|x| self.find(x)).collect();
        // Each root's count lands at `starts[root + 1]`; the prefix sum
        // turns it into the row's start at `starts[root]`, which the
        // filling pass then walks up to the row's end — the next row's
        // start, one slot left of where it belongs.
        let mut starts = vec![0u32; n + 1];
        for &r in &roots {
            starts[r as usize + 1] += 1;
        }
        for i in 1..=n {
            starts[i] += starts[i - 1];
        }
        let mut members = vec![0u32; n];
        for (x, &r) in (0u32..).zip(&roots) {
            let at = &mut starts[r as usize];
            members[*at as usize] = x;
            *at += 1;
        }
        starts.rotate_right(1);
        starts[0] = 0;
        Grouping {
            roots,
            starts,
            members,
        }
    }
}

/// Every element of a [`UnionFind`] grouped by its representative, as
/// compressed rows: a root per element, every element in one array
/// grouped by root, and the start of each root's row. A row lists its
/// members ascending; an element that is no root has an empty row.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Grouping {
    roots: Vec<u32>,
    /// `members[starts[x]..starts[x + 1]]` is element `x`'s row.
    starts: Vec<u32>,
    members: Vec<u32>,
}

impl Grouping {
    /// Number of elements grouped.
    pub fn len(&self) -> usize {
        self.roots.len()
    }

    /// True if no element was grouped.
    pub fn is_empty(&self) -> bool {
        self.roots.is_empty()
    }

    /// Representative of element `x`.
    ///
    /// # Panics
    /// Panics if `x ≥ self.len()`.
    pub fn root_of(&self, x: u32) -> u32 {
        self.roots[x as usize]
    }

    /// The members of the set `root` represents, ascending; `None` when
    /// `root` is no representative.
    pub fn members_of(&self, root: u32) -> Option<&[u32]> {
        let r = root as usize;
        (self.roots.get(r) == Some(&root)).then(|| self.row(r))
    }

    /// Every set, by ascending representative — the order of
    /// [`UnionFind::clusters`].
    pub fn sets(&self) -> impl Iterator<Item = &[u32]> {
        (0..self.len())
            .map(|x| self.row(x))
            .filter(|row| !row.is_empty())
    }

    /// Every set as a vector of its own, in [`Grouping::sets`] order.
    pub fn clusters(&self) -> Vec<Vec<u32>> {
        let mut clusters = Vec::with_capacity(self.sets().count());
        clusters.extend(self.sets().map(<[u32]>::to_vec));
        clusters
    }

    fn row(&self, x: usize) -> &[u32] {
        &self.members[self.starts[x] as usize..self.starts[x + 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn singletons() {
        let mut uf = UnionFind::new(4);
        assert_eq!(uf.clusters().len(), 4);
        assert!(!uf.connected(0, 1));
        assert_eq!(uf.find(3), 3);
    }

    #[test]
    fn smaller_root_wins() {
        let mut uf = UnionFind::new(8);
        assert_eq!(uf.union(5, 2), 2);
        assert_eq!(uf.union(2, 7), 2);
        assert_eq!(uf.union(0, 5), 0); // 5's root is 2; 0 < 2
        assert_eq!(uf.find(7), 0);
    }

    #[test]
    fn paper_example5() {
        // 1 = union(1, 6) — with the paper's 1-based rids.
        let mut uf = UnionFind::new(7);
        assert_eq!(uf.union(1, 6), 1);
        assert!(uf.connected(1, 6));
    }

    #[test]
    fn union_idempotent() {
        let mut uf = UnionFind::new(3);
        uf.union(0, 1);
        assert_eq!(uf.union(0, 1), 0);
        assert_eq!(uf.clusters().len(), 2);
    }

    #[test]
    fn clusters_grouping() {
        let mut uf = UnionFind::new(5);
        uf.union(0, 3);
        uf.union(1, 4);
        let cs = uf.clusters();
        assert_eq!(cs, vec![vec![0, 3], vec![1, 4], vec![2]]);
    }

    #[test]
    fn json_roundtrip_is_bit_identical() {
        let mut uf = UnionFind::new(6);
        uf.union(0, 3);
        uf.union(1, 4);
        uf.union(0, 4);
        let _ = uf.find(3); // path halving mutates parents
        let json = uf.to_json().to_string_compact();
        let back = UnionFind::from_json(&hera_types::json::parse(&json).unwrap()).unwrap();
        assert_eq!(back.parent, uf.parent, "parents restored verbatim");
    }

    #[test]
    fn json_rejects_out_of_bounds_parent() {
        let err = UnionFind::from_json(&hera_types::json::parse("[0,5,2]").unwrap()).unwrap_err();
        assert!(matches!(err, hera_types::HeraError::Corrupt(_)), "{err}");
    }

    proptest! {
        /// After arbitrary unions: find is a congruence (same root ⇔
        /// connected), roots are minimal members, and set count is
        /// n − (number of effective unions).
        #[test]
        fn invariants(ops in proptest::collection::vec((0u32..20, 0u32..20), 0..40)) {
            let mut uf = UnionFind::new(20);
            let mut effective = 0;
            for (a, b) in ops {
                if !uf.connected(a, b) {
                    effective += 1;
                }
                let root = uf.union(a, b);
                prop_assert_eq!(uf.find(a), root);
                prop_assert_eq!(uf.find(b), root);
                prop_assert!(root <= a && root <= b || uf.connected(root, a));
            }
            prop_assert_eq!(uf.clusters().len(), 20 - effective);
            // Every root is the minimum of its cluster.
            for cluster in uf.clusters() {
                let root = uf.find(cluster[0]);
                prop_assert_eq!(root, *cluster.iter().min().unwrap());
            }
        }

        /// The counting pass groups exactly as a map from root to
        /// members does, in the same order, and its rows answer by root
        /// only.
        #[test]
        fn grouping_equals_the_map_oracle(
            n in 0u32..30,
            ops in proptest::collection::vec((0u32..30, 0u32..30), 0..40),
        ) {
            let mut uf = UnionFind::new(n as usize);
            for (a, b) in ops.into_iter().filter(|&(a, b)| a < n && b < n) {
                uf.union(a, b);
            }
            let mut by_root: std::collections::BTreeMap<u32, Vec<u32>> = Default::default();
            for x in 0..n {
                by_root.entry(uf.find(x)).or_default().push(x);
            }
            let grouping = uf.grouping();
            prop_assert_eq!(grouping.len(), n as usize);
            for x in 0..n {
                prop_assert_eq!(grouping.root_of(x), uf.find(x));
                prop_assert_eq!(grouping.members_of(x), by_root.get(&x).map(Vec::as_slice));
            }
            prop_assert_eq!(grouping.members_of(n), None);
            let oracle: Vec<Vec<u32>> = by_root.into_values().collect();
            prop_assert_eq!(uf.clusters(), oracle);
        }
    }
}
