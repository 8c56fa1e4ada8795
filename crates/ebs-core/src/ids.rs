//! Typed identifiers for every entity in the EBS hierarchy.
//!
//! All ids are dense `u32` indexes into the owning [`crate::topology::Fleet`]
//! arenas, wrapped in newtypes so that a segment id can never be confused
//! with a queue-pair id at a call site. Ids order and hash like their inner
//! index, which makes them usable as map keys and sortable for deterministic
//! iteration.

use std::fmt;

macro_rules! define_id {
    ($(#[$doc:meta])* $name:ident, $tag:literal) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(pub u32);

        impl $name {
            /// Dense index of this id inside its fleet arena.
            #[inline]
            pub const fn index(self) -> usize {
                self.0 as usize
            }

            /// Build an id from a dense arena index.
            ///
            /// # Panics
            /// Panics if `idx` does not fit in `u32`.
            #[inline]
            pub fn from_index(idx: usize) -> Self {
                Self(u32::try_from(idx).expect("entity index exceeds u32::MAX"))
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($tag, "{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($tag, "-{}"), self.0)
            }
        }

        impl From<$name> for usize {
            #[inline]
            fn from(id: $name) -> usize {
                id.index()
            }
        }
    };
}

define_id!(
    /// A data center ("DC-1" … "DC-3" in the paper).
    DcId, "dc"
);
define_id!(
    /// A tenant / user account.
    UserId, "user"
);
define_id!(
    /// A compute node (CN) hosting VMs and hypervisor worker threads.
    CnId, "cn"
);
define_id!(
    /// A virtual machine (VM).
    VmId, "vm"
);
define_id!(
    /// A virtual disk (VD) mounted in a VM.
    VdId, "vd"
);
define_id!(
    /// An IO queue pair (QP) of a virtual disk; NVMe-style submission /
    /// completion queue virtualized by the hypervisor.
    QpId, "qp"
);
define_id!(
    /// A hypervisor worker thread (WT); globally numbered, each belongs to
    /// exactly one compute node.
    WtId, "wt"
);
define_id!(
    /// A storage node (SN) in the storage cluster.
    SnId, "sn"
);
define_id!(
    /// A BlockServer (BS) process in the forwarding layer.
    BsId, "bs"
);
define_id!(
    /// A 32 GiB segment of a virtual disk's address space.
    SegId, "seg"
);

/// A dense, id-indexed vector: `IdVec<VdId, T>` is a `Vec<T>` whose positions
/// are addressed by typed ids instead of raw `usize`s.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct IdVec<I, T> {
    items: Vec<T>,
    _marker: std::marker::PhantomData<I>,
}

impl<I: Copy + Into<usize>, T> IdVec<I, T> {
    /// Create an empty id-indexed vector.
    pub fn new() -> Self {
        Self {
            items: Vec::new(),
            _marker: std::marker::PhantomData,
        }
    }

    /// Create from an existing dense vector (index `i` ⇒ id with index `i`).
    pub fn from_vec(items: Vec<T>) -> Self {
        Self {
            items,
            _marker: std::marker::PhantomData,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the vector holds no entries.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Append an item, returning nothing; callers mint ids externally.
    pub fn push(&mut self, item: T) {
        self.items.push(item);
    }

    /// Immutable access by typed id.
    pub fn get(&self, id: I) -> Option<&T> {
        self.items.get(id.into())
    }

    /// Mutable access by typed id.
    pub fn get_mut(&mut self, id: I) -> Option<&mut T> {
        self.items.get_mut(id.into())
    }

    /// Iterate over raw items in id order.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.items.iter()
    }

    /// Mutable iteration in id order.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, T> {
        self.items.iter_mut()
    }

    /// Borrow the backing slice.
    pub fn as_slice(&self) -> &[T] {
        &self.items
    }
}

impl<I: Copy + Into<usize>, T> std::ops::Index<I> for IdVec<I, T> {
    type Output = T;
    fn index(&self, id: I) -> &T {
        &self.items[id.into()]
    }
}

impl<I: Copy + Into<usize>, T> std::ops::IndexMut<I> for IdVec<I, T> {
    fn index_mut(&mut self, id: I) -> &mut T {
        &mut self.items[id.into()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_roundtrip_through_index() {
        let vd = VdId::from_index(42);
        assert_eq!(vd.index(), 42);
        assert_eq!(vd, VdId(42));
    }

    #[test]
    fn ids_display_with_tag() {
        assert_eq!(QpId(7).to_string(), "qp-7");
        assert_eq!(format!("{:?}", SegId(3)), "seg3");
    }

    #[test]
    fn ids_order_by_index() {
        let mut v = vec![BsId(3), BsId(1), BsId(2)];
        v.sort();
        assert_eq!(v, vec![BsId(1), BsId(2), BsId(3)]);
    }

    #[test]
    fn idvec_indexes_by_typed_id() {
        let mut v: IdVec<VmId, &str> = IdVec::new();
        v.push("a");
        v.push("b");
        assert_eq!(v[VmId(1)], "b");
        assert_eq!(v.get(VmId(2)), None);
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn idvec_from_vec_preserves_order() {
        let v: IdVec<SegId, u32> = IdVec::from_vec(vec![10, 20, 30]);
        assert_eq!(v[SegId(0)], 10);
        assert_eq!(v.as_slice(), &[10, 20, 30]);
        assert!(!v.is_empty());
    }
}
