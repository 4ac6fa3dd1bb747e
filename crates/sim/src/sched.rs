//! First-minimum clock scheduling for the batched event loop.
//!
//! The scheduling spec picks the lowest clock before every access (ties
//! to the lowest core index). The batched loop asks that question after
//! every access: the core it just advanced keeps draining its trace chunk
//! while it is still the pick, and yields as soon as another core is. A
//! linear scan would cost O(cores) data-dependent compares per access;
//! profiled on a 16-core mix it took about a third of the run.
//! [`WinnerTree`] makes the pick a read of the root and the update after
//! an access one leaf-to-root replay of ⌈log₂ cores⌉ compares.
//!
//! Bit-identity matters more than speed here: the tree reproduces the
//! first-minimum semantics of the spec's scan under [`f64::total_cmp`] —
//! `min_by` keeps the *first* of tied elements. Property tests pin it
//! against the verbatim linear scan.

/// Maps a clock to a `u64` whose unsigned order is [`f64::total_cmp`]'s
/// order: negatives have every bit flipped, non-negatives only the sign
/// bit. This is the transform `total_cmp` applies before its signed
/// compare, shifted into unsigned space, so `-0.0 < +0.0`, negatives and
/// NaN payloads a restored snapshot could carry order exactly as the
/// spec's scan orders them.
#[inline(always)]
fn clock_key(clock: f64) -> u64 {
    let bits = clock.to_bits();
    bits ^ (((bits as i64 >> 63) as u64) | (1 << 63))
}

/// One tournament slot: the winning core of a subtree and its clock key.
#[derive(Clone, Copy)]
struct Slot {
    key: u64,
    core: u32,
}

/// A winner tree over the core clocks: a binary tournament whose leaves
/// are the cores (padded with never-winning leaves up to a power of two)
/// and whose root is the first-minimum core. The batched loop reads the
/// pick from the root and replays one leaf-to-root path after each
/// access; it builds the tree once per run and rebuilds it in place after
/// a hook, so nothing is allocated per drain.
///
/// Ties go to the left child. Every core in a left subtree has a lower
/// index than every core in its right sibling, so the root is the lowest
/// index attaining the minimum key — the spec's first-minimum rule. The
/// padding leaves carry the largest key and sit right of every core, so
/// even a core whose clock maps to that key beats them.
pub(crate) struct WinnerTree {
    /// Leaves in the back half (`leaves..2 * leaves`), internal nodes
    /// heap-ordered in front of them with the root at index 1; index 0 is
    /// unused.
    slots: Box<[Slot]>,
    /// Leaf count: the core count rounded up to a power of two.
    leaves: usize,
}

impl WinnerTree {
    /// Builds the tree over `clocks`, one per core.
    ///
    /// # Panics
    ///
    /// Panics if `clocks` is empty or has more than `u32::MAX` entries.
    pub(crate) fn new(clocks: impl ExactSizeIterator<Item = f64>) -> Self {
        let cores = clocks.len();
        assert!(cores > 0, "need at least one core");
        assert!(u32::try_from(cores).is_ok(), "too many cores");
        let leaves = cores.next_power_of_two();
        let pad = Slot {
            key: u64::MAX,
            core: u32::MAX,
        };
        let mut tree = WinnerTree {
            slots: vec![pad; 2 * leaves].into_boxed_slice(),
            leaves,
        };
        tree.rebuild(clocks);
        tree
    }

    /// Reloads every leaf from `clocks` (the same core count the tree was
    /// built for) and replays every match bottom-up, in place.
    pub(crate) fn rebuild(&mut self, clocks: impl ExactSizeIterator<Item = f64>) {
        debug_assert!(clocks.len() <= self.leaves && 2 * clocks.len() > self.leaves);
        for (j, c) in clocks.enumerate() {
            self.slots[self.leaves + j] = Slot {
                key: clock_key(c),
                core: j as u32,
            };
        }
        for p in (1..self.leaves).rev() {
            self.slots[p] = Self::play(self.slots[2 * p], self.slots[2 * p + 1]);
        }
    }

    /// The first-minimum core: the root's winner.
    #[inline(always)]
    pub(crate) fn winner(&self) -> usize {
        // A one-core tree is a lone leaf at index 1, which is the root.
        self.slots[1].core as usize
    }

    /// Sets `core`'s clock and replays its leaf-to-root path.
    #[inline(always)]
    pub(crate) fn update(&mut self, core: usize, clock: f64) {
        let mut n = self.leaves + core;
        let mut cur = Slot {
            key: clock_key(clock),
            core: core as u32,
        };
        self.slots[n] = cur;
        while n > 1 {
            let sibling = self.slots[n ^ 1];
            cur = if n & 1 == 0 {
                Self::play(cur, sibling)
            } else {
                Self::play(sibling, cur)
            };
            n >>= 1;
            self.slots[n] = cur;
        }
    }

    /// One match: the right slot wins only with a strictly smaller key.
    #[inline(always)]
    fn play(left: Slot, right: Slot) -> Slot {
        if right.key < left.key {
            right
        } else {
            left
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The spec's scheduling scan, verbatim.
    fn scan_argmin(clocks: &[f64]) -> usize {
        let mut i = 0;
        for j in 1..clocks.len() {
            if clocks[j].total_cmp(&clocks[i]) == std::cmp::Ordering::Less {
                i = j;
            }
        }
        i
    }

    /// A clock for the tree property test: mostly coarse steps that force
    /// exact ties, plus the IEEE corner cases a restored snapshot could
    /// carry — signed zeros, negatives, infinities and NaNs of either sign
    /// with arbitrary payloads, including the NaN whose key equals the
    /// padding leaves'.
    fn clock(kind: u8, step: u32, payload: u64) -> f64 {
        let payload = payload & 0x000F_FFFF_FFFF_FFFF;
        match kind {
            0 => -0.0,
            1 => 0.0,
            2 => -(step as f64) * 0.5,
            3 => f64::INFINITY,
            4 => f64::NEG_INFINITY,
            5 => f64::from_bits(0x7FF0_0000_0000_0000 | payload.max(1)),
            6 => f64::from_bits(0xFFF0_0000_0000_0000 | payload.max(1)),
            7 => f64::from_bits(u64::MAX >> 1),
            _ => step as f64 * 0.5,
        }
    }

    #[test]
    fn clock_keys_order_like_total_cmp() {
        let probes = [
            f64::NEG_INFINITY,
            -1.5,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            2.5,
            f64::INFINITY,
            f64::NAN,
            -f64::NAN,
            f64::from_bits(u64::MAX),
            f64::from_bits(u64::MAX >> 1),
        ];
        for a in probes {
            for b in probes {
                assert_eq!(
                    clock_key(a).cmp(&clock_key(b)),
                    a.total_cmp(&b),
                    "{a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn one_core_tree_is_its_own_root() {
        let mut tree = WinnerTree::new([3.0].into_iter());
        assert_eq!(tree.winner(), 0);
        tree.update(0, f64::NAN);
        assert_eq!(tree.winner(), 0);
    }

    #[test]
    fn ties_resolve_to_the_first_index() {
        let mut tree = WinnerTree::new([3.0, 1.0, 1.0, 2.0].into_iter());
        assert_eq!(tree.winner(), 1);
        tree.update(1, 2.0);
        assert_eq!(tree.winner(), 2);
        tree.update(2, 2.0);
        assert_eq!(tree.winner(), 1);
    }

    proptest! {
        /// The winner tree picks what the spec's verbatim scan picks after
        /// every leaf update, at every width from the one-leaf tree to 64
        /// cores — non-powers of two included, whose padding leaves must
        /// never win. Coarse clock steps force exact ties across subtrees,
        /// and the IEEE corner cases check the `total_cmp` key transform.
        /// Every few updates the tree is also rebuilt in place from the
        /// clocks, as the batched loop does after a hook.
        #[test]
        fn winner_tree_matches_first_minimum_scan(
            n in 1usize..65,
            start in 0u32..5,
            updates in prop::collection::vec((0usize..64, 0u8..16, 0u32..12, 0u64..1 << 52), 0..300),
        ) {
            let mut clocks: Vec<f64> = (0..n).map(|i| ((i as u32 + start) % 5) as f64).collect();
            let mut tree = WinnerTree::new(clocks.iter().copied());
            prop_assert_eq!(tree.winner(), scan_argmin(&clocks));
            for (k, (slot, kind, step, payload)) in updates.into_iter().enumerate() {
                let i = slot % n;
                clocks[i] = clock(kind, step, payload);
                tree.update(i, clocks[i]);
                prop_assert_eq!(tree.winner(), scan_argmin(&clocks));
                if k % 37 == 36 {
                    tree.rebuild(clocks.iter().copied());
                    prop_assert_eq!(tree.winner(), scan_argmin(&clocks));
                }
            }
        }
    }
}
