//! Graph substrate for the Chaos reproduction.
//!
//! Provides the input representation Chaos consumes (an unsorted edge list,
//! §8 of the paper), the synthetic graph generators used in the evaluation
//! (RMAT and a Data-Commons-shaped web graph), the streaming-partition
//! splitter (§3), the on-storage byte-size model (compact vs non-compact
//! encodings), and independent single-threaded reference implementations of
//! every evaluation algorithm, used as correctness oracles by the test
//! suite.

pub mod builder;
pub mod io;
pub mod partition;
pub mod reference;
pub mod rmat;
pub mod size;
pub mod types;
pub mod webgraph;

pub use partition::{partition_edges, BinSpec, PartitionSpec};
pub use rmat::RmatConfig;
pub use size::SizeModel;
pub use types::{Adjacency, Edge, InputGraph, VertexId, MAX_VERTICES};
pub use webgraph::WebGraphConfig;
