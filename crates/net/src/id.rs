//! Node identifiers.
//!
//! In the paper "each node is identified by a unique ID, chosen when the
//! node becomes active for the first time". The simulation uses dense
//! integer IDs so that node roles (honest / Byzantine / trusted) can be
//! assigned by index ranges and views can be stored compactly.

/// The unique identifier of a node.
///
/// `NodeId` is a transport-level address: it says nothing about the node's
/// role. Role assignment lives in the simulation layer so the protocol
/// code cannot accidentally "cheat" by inspecting an ID.
///
/// # Examples
///
/// ```
/// use raptee_net::NodeId;
/// let a = NodeId(3);
/// assert_eq!(a.index(), 3);
/// assert_eq!(format!("{a}"), "n3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct NodeId(pub u64);

impl NodeId {
    /// The ID as a dense index (for role tables and adjacency vectors).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Stable little-endian byte encoding (for hashing and channel
    /// key-derivation contexts).
    pub fn to_bytes(self) -> [u8; 8] {
        self.0.to_le_bytes()
    }
}

impl From<u64> for NodeId {
    fn from(v: u64) -> Self {
        NodeId(v)
    }
}

impl From<NodeId> for u64 {
    fn from(id: NodeId) -> Self {
        id.0
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A dense arena index for a node — the compact (u32) hot-path identity.
///
/// [`NodeId`] stays the wire/public identity (64-bit, sparse, chosen by
/// the node); `NodeIdx` is the simulation-internal arena slot. A sparse
/// population would assign slots through an [`IdInterner`]; the
/// simulation numbers its actors densely from 0, so there the slot is
/// the identity cast to `u32` ([`NodeIdx::of`], back with
/// [`NodeIdx::id`]) and nothing is interned. Arena-sized
/// buffers (push runs, plan rows, counting-sort scratch, snapshot arenas)
/// store `NodeIdx` and halve their footprint, which is what keeps
/// million-node scratch state in cache-friendly territory.
///
/// # Examples
///
/// ```
/// use raptee_net::{IdInterner, NodeId, NodeIdx};
/// let mut interner = IdInterner::new();
/// let idx = interner.intern(NodeId(7));
/// assert_eq!(idx, interner.intern(NodeId(7))); // stable
/// assert_eq!(NodeIdx(0), interner.intern(NodeId(7)));
/// assert_eq!(NodeIdx::of(NodeId(7)).id(), NodeId(7)); // the dense cast
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct NodeIdx(pub u32);

impl NodeIdx {
    /// The slot of `id` in a population numbered densely from 0, where
    /// the identity *is* the index: a cast, which truncates an ID at or
    /// above 2³².
    #[inline]
    pub fn of(id: NodeId) -> Self {
        NodeIdx(id.0 as u32)
    }

    /// The identity this slot stands for in a dense population (the
    /// inverse of [`NodeIdx::of`]).
    #[inline]
    pub fn id(self) -> NodeId {
        NodeId(u64::from(self.0))
    }

    /// The arena slot as a `usize` (for indexing role tables and SoA
    /// arenas).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeIdx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// The explicit `NodeId` ↔ `NodeIdx` mapping at the simulation boundary.
///
/// Interning is first-come-first-served: the k-th distinct `NodeId`
/// interned gets arena slot `NodeIdx(k)`, so a dense population
/// `NodeId(0..n)` interned in order maps to the *identity*
/// (`NodeId(i)` ↔ `NodeIdx(i)`). The simulation's population is exactly
/// that, so it converts with a cast and builds no interner; this type is
/// the boundary a population with sparse wire IDs would need.
#[derive(Debug, Clone, Default)]
pub struct IdInterner {
    forward: std::collections::HashMap<NodeId, NodeIdx>,
}

impl IdInterner {
    /// An empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty interner with capacity for `n` ids.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            forward: std::collections::HashMap::with_capacity(n),
        }
    }

    /// The arena index for `id`, assigning the next free slot on first
    /// sight.
    ///
    /// # Panics
    ///
    /// Panics if more than `u32::MAX` distinct ids are interned.
    pub fn intern(&mut self, id: NodeId) -> NodeIdx {
        if let Some(&idx) = self.forward.get(&id) {
            return idx;
        }
        let idx = NodeIdx(
            u32::try_from(self.forward.len())
                .expect("arena overflow: more than u32::MAX distinct node ids"),
        );
        self.forward.insert(id, idx);
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_roundtrip() {
        let id = NodeId::from(42u64);
        assert_eq!(u64::from(id), 42);
        assert_eq!(id.index(), 42);
        assert_eq!(id.to_bytes(), 42u64.to_le_bytes());
    }

    #[test]
    fn ordering_follows_integer() {
        assert!(NodeId(1) < NodeId(2));
        assert_eq!(NodeId(5), NodeId(5));
    }

    #[test]
    fn display_format() {
        assert_eq!(format!("{}", NodeId(17)), "n17");
        assert_eq!(format!("{}", NodeIdx(17)), "#17");
    }

    #[test]
    fn interner_assigns_dense_slots_in_first_seen_order() {
        let mut interner = IdInterner::new();
        let a = interner.intern(NodeId(100));
        let b = interner.intern(NodeId(7));
        assert_eq!(a, NodeIdx(0));
        assert_eq!(b, NodeIdx(1));
        assert_eq!(interner.intern(NodeId(100)), a);
        assert_eq!(interner.forward.len(), 2);
    }

    #[test]
    fn dense_population_interns_to_the_identity() {
        let mut interner = IdInterner::with_capacity(10);
        for i in 0..10u32 {
            assert_eq!(interner.intern(NodeId(u64::from(i))), NodeIdx(i));
        }
    }

    #[test]
    fn byte_encoding_is_little_endian() {
        assert_eq!(
            NodeId(0x0102_0304_0506_0708).to_bytes(),
            [8, 7, 6, 5, 4, 3, 2, 1]
        );
    }

    #[test]
    fn defaults_are_slot_and_id_zero() {
        assert_eq!(NodeId::default(), NodeId(0));
        assert_eq!(NodeIdx::default(), NodeIdx(0));
    }

    #[test]
    fn node_idx_indexes_and_orders_like_its_integer() {
        assert_eq!(NodeIdx(9).index(), 9);
        assert_eq!(NodeIdx(u32::MAX).index(), u32::MAX as usize);
        assert!(NodeIdx(1) < NodeIdx(2));
    }

    #[test]
    fn the_dense_cast_round_trips_below_two_to_the_32() {
        for raw in [0, 1, 7, u64::from(u32::MAX)] {
            assert_eq!(NodeIdx::of(NodeId(raw)).id(), NodeId(raw));
            assert_eq!(NodeIdx::of(NodeId(raw)).index() as u64, raw);
        }
    }

    #[test]
    fn dense_ids_interned_out_of_order_are_not_the_identity() {
        let mut interner = IdInterner::new();
        assert_eq!(interner.intern(NodeId(1)), NodeIdx(0));
        assert_eq!(interner.intern(NodeId(0)), NodeIdx(1));
    }

    #[test]
    fn with_capacity_starts_empty() {
        let mut interner = IdInterner::with_capacity(64);
        assert!(interner.forward.is_empty());
        assert_eq!(interner.intern(NodeId(5)), NodeIdx(0));
    }

    #[test]
    fn a_sparse_population_packs_into_dense_slots() {
        let ids = [u64::MAX, 1 << 40, 5, 0, 1 << 40, u64::MAX];
        let mut interner = IdInterner::new();
        let slots: Vec<NodeIdx> = ids.iter().map(|&i| interner.intern(NodeId(i))).collect();
        assert_eq!(
            slots,
            [0, 1, 2, 3, 1, 0].map(NodeIdx),
            "each distinct id gets the next slot, repeats keep theirs"
        );
        assert_eq!(interner.forward.len(), 4);
    }
}
