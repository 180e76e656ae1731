//! Strongly typed identifiers for road-network entities.
//!
//! Using newtypes instead of bare integers prevents the classic bug of mixing
//! a node index with an edge index (or, higher up the stack, with an order or
//! vehicle id). The ids are plain `u32`s internally: the paper's largest city
//! has 183k nodes and 460k edges, far below `u32::MAX`, and the smaller width
//! keeps adjacency lists compact.

use std::fmt;

/// Identifier of a node (road intersection) in a [`crate::RoadNetwork`].
///
/// Node ids are dense: a network with `n` nodes uses ids `0..n`, which allows
/// all per-node state (distance arrays, visited flags, labels) to live in flat
/// vectors.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Identifier of a directed edge (road segment) in a [`crate::RoadNetwork`].
///
/// Edge ids are dense in insertion order, mirroring the CSR layout of the
/// adjacency structure.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub u32);

impl NodeId {
    /// Returns the id as a `usize` suitable for indexing flat per-node arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a `NodeId` from a dense index.
    ///
    /// # Panics
    /// Panics if `index` does not fit in a `u32`.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        NodeId(u32::try_from(index).expect("node index exceeds u32 range"))
    }
}

impl EdgeId {
    /// Returns the id as a `usize` suitable for indexing flat per-edge arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds an `EdgeId` from a dense index.
    ///
    /// # Panics
    /// Panics if `index` does not fit in a `u32`.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        EdgeId(u32::try_from(index).expect("edge index exceeds u32 range"))
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Debug for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(value: u32) -> Self {
        NodeId(value)
    }
}

impl From<u32> for EdgeId {
    fn from(value: u32) -> Self {
        EdgeId(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_roundtrips_through_index() {
        let id = NodeId::from_index(42);
        assert_eq!(id.index(), 42);
        assert_eq!(id, NodeId(42));
    }

    #[test]
    fn edge_id_roundtrips_through_index() {
        let id = EdgeId::from_index(7);
        assert_eq!(id.index(), 7);
        assert_eq!(id, EdgeId(7));
    }

    #[test]
    fn ids_format_compactly() {
        assert_eq!(format!("{}", NodeId(3)), "n3");
        assert_eq!(format!("{:?}", EdgeId(9)), "e9");
    }

    #[test]
    fn ids_order_by_value() {
        assert!(NodeId(1) < NodeId(2));
        assert!(EdgeId(10) > EdgeId(2));
    }

    #[test]
    #[should_panic(expected = "node index exceeds u32 range")]
    fn node_id_from_huge_index_panics() {
        let _ = NodeId::from_index(usize::MAX);
    }
}
