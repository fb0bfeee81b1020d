//! Pins the in-memory layout of the records the kernels stream against
//! their encoded widths.
//!
//! The scatter and gather loops are bound by memory bandwidth, so the
//! in-memory sizes are what they cost on the host. The encoded widths are
//! what the cost model, frame sizes and spill format see, so they must
//! not move when the in-memory layout does.

use std::mem::size_of;

use chaos_gas::{Record, Update};
use chaos_graph::{Edge, VertexId};

#[test]
fn in_memory_records_use_four_byte_ids() {
    assert_eq!(size_of::<VertexId>(), 4);
    assert_eq!(size_of::<Edge>(), 12, "src + dst + f32 weight");
    assert_eq!(size_of::<Update<f32>>(), 8, "dst + f32 payload");
    assert_eq!(size_of::<Update<()>>(), 4, "dst alone");
}

#[test]
fn encoded_widths_are_unchanged() {
    assert_eq!(Edge::ENCODED_BYTES, 20, "8-byte ids + f32 weight");
    assert_eq!(<Update<f32> as Record>::ENCODED_BYTES, 12);
    assert_eq!(<Update<()> as Record>::ENCODED_BYTES, 8);
}
