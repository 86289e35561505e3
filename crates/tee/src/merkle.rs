//! Merkle commitments over per-round view digests.
//!
//! The audit layer needs every trusted-tier node to *commit* to its view
//! each round so a challenger can later demand an opening of any view
//! slot and check it against the committed root.
//!
//! [`MerkleTree`] is the one builder. Its root is defined over the leaves
//! padded to the next power of two with a domain-separated empty digest,
//! so the shape (and therefore the root) of a view of `k` entries is a
//! pure function of the leaf sequence. The padding is implied, never
//! stored or hashed: each level keeps only the nodes that cover a real
//! leaf (half the level below, rounded up), and a node whose right child
//! falls in the padding pairs with the empty subtree of that level, read
//! off a ladder hashed once. A 40-leaf view costs 41 node hashes, not the
//! 63 of its 64-wide padded tree. [`MerkleTree::open`] draws a missing
//! sibling from the same ladder, so roots and proofs are those of the
//! padded tree; [`verify`] checks an opening.
//!
//! Hashing is domain-separated ([`leaf_hash`] prefixes `0x00`, interior
//! nodes `0x01`, the empty pad `0x02`) so a leaf can never be
//! reinterpreted as an interior node — the classic second-preimage
//! defence.
//!
//! [`ViewCommitment`] chains the per-round roots: each commitment binds
//! `(round, root)` to the digest of its predecessor, so a node cannot
//! rewrite history without breaking every later link. A cold-rejoining
//! node restarts its chain from the genesis `prev` (all zeroes); a warm
//! rejoin continues where it left off.

use raptee_crypto::sha256::{Digest, Sha256, DIGEST_LEN};
use std::sync::OnceLock;

/// The all-zero digest used as the genesis `prev` link of a commitment
/// chain.
pub(crate) const GENESIS: Digest = [0u8; DIGEST_LEN];

/// Hashes one leaf payload (domain tag `0x00`).
pub fn leaf_hash(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(&[0x00]);
    h.update(data);
    h.finalize()
}

/// Hashes one interior node from its children (domain tag `0x01`).
fn node_hash(left: &Digest, right: &Digest) -> Digest {
    let mut h = Sha256::new();
    h.update(&[0x01]);
    h.update(left);
    h.update(right);
    h.finalize()
}

/// The empty-subtree digest at `level` (level 0 = the padding leaf,
/// domain tag `0x02`): one ladder as tall as a `usize` leaf count can
/// need, hashed on first use.
fn empty_at(level: usize) -> Digest {
    static LADDER: OnceLock<[Digest; usize::BITS as usize]> = OnceLock::new();
    LADDER.get_or_init(|| {
        let mut d = Sha256::digest(&[0x02]);
        std::array::from_fn(|_| {
            let rung = d;
            d = node_hash(&d, &d);
            rung
        })
    })[level]
}

/// An opening of one leaf: its index and the sibling digests from the
/// leaf's level up to (excluding) the root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MerkleProof {
    /// Index of the opened leaf in the committed sequence.
    pub(crate) index: usize,
    /// Sibling digest per level, leaf level first.
    pub(crate) siblings: Vec<Digest>,
}

/// Verifies that `leaf` (already leaf-hashed) sits at `proof.index`
/// under `root`.
pub fn verify(root: &Digest, leaf: &Digest, proof: &MerkleProof) -> bool {
    let mut acc = *leaf;
    let mut idx = proof.index;
    for sib in &proof.siblings {
        acc = if idx & 1 == 0 {
            node_hash(&acc, sib)
        } else {
            node_hash(sib, &acc)
        };
        idx >>= 1;
    }
    idx == 0 && acc == *root
}

/// Merkle tree over a leaf-digest sequence, with the root and proofs of
/// the tree padded to the next power of two by the empty-leaf digest;
/// the padding itself is implied (see the module docs).
#[derive(Debug, Clone)]
pub struct MerkleTree {
    /// `levels[0]` = the real leaves; each level above is half the one
    /// below, rounded up; the last level is `[root]` (or empty when no
    /// leaf is committed).
    levels: Vec<Vec<Digest>>,
}

impl MerkleTree {
    /// Builds the tree from raw leaf payloads ([`leaf_hash`] applied).
    pub fn from_payloads<T: AsRef<[u8]>>(payloads: &[T]) -> Self {
        payloads.iter().map(|p| leaf_hash(p.as_ref())).collect()
    }

    /// Builds the levels above `leaves`, which become `levels[0]` as
    /// they are.
    fn build(leaves: Vec<Digest>) -> Self {
        let mut levels = vec![leaves];
        while let Some(below) = levels.last().filter(|level| level.len() > 1) {
            let pad = empty_at(levels.len() - 1);
            let next = below
                .chunks(2)
                .map(|pair| node_hash(&pair[0], pair.get(1).unwrap_or(&pad)))
                .collect();
            levels.push(next);
        }
        Self { levels }
    }

    /// Number of real leaves committed.
    pub fn len(&self) -> usize {
        self.levels[0].len()
    }

    /// Whether the tree commits to zero leaves.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The root digest.
    pub fn root(&self) -> Digest {
        let top = &self.levels[self.levels.len() - 1];
        top.first().copied().unwrap_or_else(|| empty_at(0))
    }

    /// Opens the leaf at `index` (must be `< len`; an empty tree opens
    /// index 0 with no siblings).
    pub fn open(&self, index: usize) -> MerkleProof {
        assert!(index < self.len().max(1), "opening an uncommitted leaf");
        let below_root = &self.levels[..self.levels.len() - 1];
        let siblings = below_root
            .iter()
            .enumerate()
            .map(|(level, nodes)| {
                let sibling = nodes.get((index >> level) ^ 1);
                sibling.copied().unwrap_or_else(|| empty_at(level))
            })
            .collect();
        MerkleProof { index, siblings }
    }
}

/// Builds the tree from already-hashed leaves, taking the collected
/// sequence as its leaf level without a copy. An empty sequence commits
/// to the empty-leaf digest.
impl FromIterator<Digest> for MerkleTree {
    fn from_iter<I: IntoIterator<Item = Digest>>(leaves: I) -> Self {
        Self::build(leaves.into_iter().collect())
    }
}

/// One round's chained view commitment: the merkle `root` of the view,
/// the `round` it was taken in, and the digest of the previous
/// commitment (or all zeroes at the chain start).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ViewCommitment {
    /// Round the view was committed in.
    pub(crate) round: u64,
    /// Merkle root over the view's leaf digests.
    pub root: Digest,
    /// Digest of the previous commitment in the chain ([`GENESIS`] for
    /// the first link after boot or a cold rejoin).
    pub(crate) prev: Digest,
}

impl ViewCommitment {
    /// Starts a chain (or restarts it after a cold rejoin).
    pub fn genesis(round: u64, root: Digest) -> Self {
        Self {
            round,
            root,
            prev: GENESIS,
        }
    }

    /// Chains a new commitment onto `prev`.
    pub fn chained(prev: &ViewCommitment, round: u64, root: Digest) -> Self {
        Self {
            round,
            root,
            prev: prev.digest(),
        }
    }

    /// The commitment's own digest (what the next link's `prev` binds).
    pub(crate) fn digest(&self) -> Digest {
        let mut h = Sha256::new();
        h.update(&[0x03]);
        h.update(&self.round.to_le_bytes());
        h.update(&self.root);
        h.update(&self.prev);
        h.finalize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raptee_crypto::sha256::to_hex;

    fn payloads(n: usize) -> Vec<Vec<u8>> {
        (0..n as u64).map(|i| i.to_le_bytes().to_vec()).collect()
    }

    #[test]
    fn roots_differ_by_content_and_order() {
        let a = MerkleTree::from_payloads(&payloads(4));
        let mut swapped = payloads(4);
        swapped.swap(1, 2);
        let b = MerkleTree::from_payloads(&swapped);
        assert_ne!(a.root(), b.root());
    }

    #[test]
    fn every_leaf_opens_and_verifies() {
        for n in 1..=9 {
            let tree = MerkleTree::from_payloads(&payloads(n));
            for i in 0..n {
                let proof = tree.open(i);
                let leaf = leaf_hash(&(i as u64).to_le_bytes());
                assert!(verify(&tree.root(), &leaf, &proof), "n={n} i={i}");
            }
        }
    }

    #[test]
    fn any_single_leaf_tamper_is_detected() {
        // Property: for every leaf position and every byte flip, the
        // tampered leaf fails against the committed root.
        for n in [1usize, 3, 4, 7, 8] {
            let tree = MerkleTree::from_payloads(&payloads(n));
            for i in 0..n {
                let proof = tree.open(i);
                let mut data = (i as u64).to_le_bytes();
                for byte in 0..data.len() {
                    data[byte] ^= 0xA5;
                    let tampered = leaf_hash(&data);
                    assert!(
                        !verify(&tree.root(), &tampered, &proof),
                        "tamper must be detected: n={n} i={i} byte={byte}"
                    );
                    data[byte] ^= 0xA5;
                }
            }
        }
    }

    #[test]
    fn proof_verifies_iff_leaf_in_committed_view() {
        let n = 6;
        let tree = MerkleTree::from_payloads(&payloads(n));
        // Every committed leaf verifies at its own index...
        for i in 0..n {
            let leaf = leaf_hash(&(i as u64).to_le_bytes());
            assert!(verify(&tree.root(), &leaf, &tree.open(i)));
            // ...and at no other index.
            for j in (0..n).filter(|&j| j != i) {
                assert!(!verify(&tree.root(), &leaf, &tree.open(j)));
            }
        }
        // A leaf outside the committed view verifies nowhere.
        let foreign = leaf_hash(&999u64.to_le_bytes());
        for i in 0..n {
            assert!(!verify(&tree.root(), &foreign, &tree.open(i)));
        }
    }

    #[test]
    fn proof_against_wrong_root_fails() {
        let tree = MerkleTree::from_payloads(&payloads(5));
        let other = MerkleTree::from_payloads(&payloads(6));
        let leaf = leaf_hash(&2u64.to_le_bytes());
        assert!(!verify(&other.root(), &leaf, &tree.open(2)));
    }

    #[test]
    fn truncated_proof_fails() {
        let tree = MerkleTree::from_payloads(&payloads(8));
        let mut proof = tree.open(5);
        proof.siblings.pop();
        let leaf = leaf_hash(&5u64.to_le_bytes());
        assert!(!verify(&tree.root(), &leaf, &proof));
    }

    /// The padded tree the implied padding stands for: leaves padded to
    /// the next power of two with the empty-leaf digest, every level
    /// stored in full.
    fn padded_reference(leaves: &[Digest]) -> (Digest, Vec<MerkleProof>) {
        let width = leaves.len().next_power_of_two().max(1);
        let mut level = leaves.to_vec();
        level.resize(width, empty_at(0));
        let mut levels = vec![level];
        while levels.last().unwrap().len() > 1 {
            let next = levels
                .last()
                .unwrap()
                .chunks_exact(2)
                .map(|pair| node_hash(&pair[0], &pair[1]))
                .collect();
            levels.push(next);
        }
        let proofs = (0..leaves.len().max(1))
            .map(|index| MerkleProof {
                index,
                siblings: (0..levels.len() - 1)
                    .map(|l| levels[l][(index >> l) ^ 1])
                    .collect(),
            })
            .collect();
        (levels.last().unwrap()[0], proofs)
    }

    #[test]
    fn implied_padding_matches_the_padded_tree() {
        // Spans the 40-, 100- and 128-leaf shapes the workloads commit.
        for n in 0..=130 {
            let ps = payloads(n);
            let leaves: Vec<Digest> = ps.iter().map(|p| leaf_hash(p)).collect();
            let tree: MerkleTree = leaves.iter().copied().collect();
            let (root, proofs) = padded_reference(&leaves);
            assert_eq!(tree.root(), root, "n={n}");
            assert_eq!(tree.len(), n);
            for (i, proof) in proofs.iter().enumerate() {
                assert_eq!(&tree.open(i), proof, "n={n} i={i}");
            }
        }
    }

    #[test]
    fn every_proof_of_a_collected_tree_verifies() {
        for n in 0..=130 {
            let leaves: Vec<Digest> = payloads(n).iter().map(|p| leaf_hash(p)).collect();
            let tree: MerkleTree = leaves.iter().copied().collect();
            assert_eq!(tree.len(), n);
            for (i, leaf) in leaves.iter().enumerate() {
                assert!(verify(&tree.root(), leaf, &tree.open(i)), "n={n} i={i}");
            }
            if n == 0 {
                assert!(verify(&tree.root(), &empty_at(0), &tree.open(0)));
            }
        }
    }

    /// Pinned at the commit before the hardware compress kernel: a wrong
    /// kernel on some future CPU fails here by name.
    #[test]
    fn pinned_root_and_commitment_digest() {
        let root = MerkleTree::from_payloads(&payloads(40)).root();
        assert_eq!(
            to_hex(&root),
            "c4d019a45bb314beff96c5b7dcc8ab9005748e924698cc3d52395ca684718faa"
        );
        let c0 = ViewCommitment::genesis(3, root);
        let c1 = ViewCommitment::chained(&c0, 4, MerkleTree::from_payloads(&payloads(5)).root());
        assert_eq!(
            to_hex(&c1.digest()),
            "e65b2b30d37be262e239d50bff92011c126c928e789edc635907a08beba303da"
        );
    }

    #[test]
    fn empty_tree_has_stable_root() {
        let a: MerkleTree = std::iter::empty().collect();
        assert_eq!(a.root(), empty_at(0));
        assert!(a.is_empty());
    }

    #[test]
    fn commitment_chain_links_and_breaks() {
        let t0 = MerkleTree::from_payloads(&payloads(4));
        let t1 = MerkleTree::from_payloads(&payloads(5));
        let c0 = ViewCommitment::genesis(0, t0.root());
        let c1 = ViewCommitment::chained(&c0, 1, t1.root());
        assert_eq!(c0.prev, GENESIS);
        assert_eq!(c1.prev, c0.digest());
        // Rewriting the earlier root breaks the link.
        let mut forged = c0;
        forged.root = t1.root();
        assert_ne!(c1.prev, forged.digest());
    }
}
