//! Host-replay probes: each calls one layer's public API at the volume a
//! cell's own `RunReport` counted (capped, so a traced run stays within a
//! few seconds per layer) and returns the host time it took with the
//! number of units it processed. Dividing gives the layer's host cost per
//! unit; multiplying back by the workload's count gives its share of
//! `cluster.run_s`.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use chaos_gas::{ActiveSet, GasProgram, Record, Update};
use chaos_graph::{Edge, InputGraph, PartitionSpec};
use chaos_net::{Fabric, FabricConfig};
use chaos_sim::{EventQueue, Rng};
use chaos_storage::{BlockIndex, ChunkIndex, ChunkSet, ExtentFrame};

/// Most queue operations replayed per cell.
const QUEUE_OPS_CAP: u64 = 4_000_000;
/// Most `Fabric::send` calls replayed per cell.
const SENDS_CAP: u64 = 2_000_000;
/// Most edge records appended and served per cell.
const SERVE_RECORDS_CAP: usize = 1 << 20;
/// Most bytes sealed and verified per cell.
const CRC_BYTES_CAP: usize = 8 << 20;

/// Host time and units processed by one replay.
#[derive(Debug, Clone, Copy, Default)]
pub struct Replay {
    /// Host time inside the replayed calls.
    pub time: Duration,
    /// Units processed (ops, sends, records or bytes).
    pub units: u64,
}

impl Replay {
    /// Accumulates another replay of the same layer.
    pub fn add(&mut self, o: Replay) {
        self.time += o.time;
        self.units += o.units;
    }

    /// Host ns per unit (0 when nothing was replayed).
    pub fn ns_per_unit(&self) -> f64 {
        if self.units == 0 {
            0.0
        } else {
            self.time.as_nanos() as f64 / self.units as f64
        }
    }
}

/// Replays `ops` `EventQueue::push`/`pop` operations (default queue kind)
/// against a steady backlog: each pop schedules one successor a random
/// delay later, the shape of an actor answering a message.
pub fn queue(ops: u64, machines: usize, seed: u64) -> Replay {
    // Pending events: about one request window of ten per engine pair.
    let backlog = 20 * machines as u64;
    let mut rng = Rng::new(seed);
    let mut q: EventQueue<[u64; 4]> = EventQueue::new();
    for i in 0..backlog {
        q.push(rng.below(50_000), i as usize, [i; 4]);
    }
    let delays: Vec<u64> = (0..4096).map(|_| 1 + rng.below(50_000)).collect();
    let rounds = ops.min(QUEUE_OPS_CAP) / 2;
    let t = Instant::now();
    for i in 0..rounds {
        let e = q.pop().expect("backlog never drains");
        q.push(e.time + delays[i as usize % delays.len()], e.dst, e.msg);
    }
    let time = t.elapsed();
    black_box(q.len());
    Replay {
        time,
        units: rounds * 2,
    }
}

/// Replays `sends` `Fabric::send` calls over `machines` NICs, with the
/// cell's remote share and mean message size.
pub fn fabric(
    sends: u64,
    remote_share: f64,
    mean_bytes: u64,
    machines: usize,
    seed: u64,
) -> Replay {
    let mut rng = Rng::new(seed);
    let pairs: Vec<(usize, usize)> = (0..4096)
        .map(|_| {
            let from = rng.below(machines as u64) as usize;
            let to = if machines > 1 && rng.chance(remote_share) {
                (from + 1 + rng.below(machines as u64 - 1) as usize) % machines
            } else {
                from
            };
            (from, to)
        })
        .collect();
    let mut f = Fabric::new(FabricConfig::forty_gige(machines));
    let n = sends.min(SENDS_CAP);
    let mut now = 0;
    let t = Instant::now();
    for i in 0..n {
        let (from, to) = pairs[i as usize % pairs.len()];
        now += 500;
        black_box(f.send(now, from, to, mean_bytes));
    }
    Replay {
        time: t.elapsed(),
        units: n,
    }
}

/// Replays the storage serve path on a prefix of `edges`: chunks sorted by
/// source (sort-on-seal) and appended with their chunk and block indexes
/// through `ChunkSet::append_with_blocks`, then one timed epoch of
/// `ChunkSet::serve_next_selective` with the lowest `live_share` of vertex
/// ids active (every vertex when it is 1). Units are records served or
/// skipped.
pub fn serve(
    edges: &[Edge],
    num_vertices: u64,
    per_chunk: usize,
    block_records: u32,
    live_share: f64,
) -> Replay {
    let edges = &edges[..edges.len().min(SERVE_RECORDS_CAP)];
    let mut set: ChunkSet<Edge> = ChunkSet::in_memory(Edge::ENCODED_BYTES as u64);
    for chunk in edges.chunks(per_chunk.max(1)) {
        let mut chunk = chunk.to_vec();
        chunk.sort_by_key(|e| e.src);
        let index = ChunkIndex::from_keys(chunk.iter().map(|e| e.src));
        let blocks = (block_records > 0)
            .then(|| BlockIndex::from_sorted_keys(chunk.iter().map(|e| e.src), block_records))
            .flatten();
        set.append_with_blocks(Arc::new(chunk), Some(index), blocks)
            .expect("in-memory append cannot fail");
    }
    let active = (live_share < 1.0).then(|| {
        let cut = (live_share * num_vertices as f64) as usize;
        ActiveSet::from_fn(0, num_vertices as usize, |v| v < cut)
    });
    let t = Instant::now();
    loop {
        let out = set
            .serve_next_selective(active.as_ref(), false)
            .expect("in-memory serve cannot fail");
        match out.served {
            Some(s) => {
                black_box(s.data.len());
            }
            None => break,
        }
    }
    Replay {
        time: t.elapsed(),
        units: edges.len() as u64,
    }
}

/// Replays frame sealing and verification (`ExtentFrame::seal` +
/// `verify`, both built on `crc32`) over `bytes` bytes of edge records.
/// Units are bytes framed.
pub fn crc(bytes: u64, seed: u64) -> Replay {
    let record = Edge::ENCODED_BYTES;
    let n = (bytes as usize).min(CRC_BYTES_CAP) / record * record;
    let mut rng = Rng::new(seed);
    let buf: Vec<u8> = (0..n).map(|_| rng.next_u64() as u8).collect();
    let t = Instant::now();
    let frame = ExtentFrame::seal(0, &buf, record as u64);
    assert!(frame.verify(&buf), "a freshly sealed extent verifies");
    Replay {
        time: t.elapsed(),
        units: n as u64,
    }
}

/// Replays one scatter and one gather through the program's chunk
/// kernels (`GasProgram::scatter_chunk` / `gather_chunk`) the way the
/// compute engine calls them: per partition of `spec`, on chunks of
/// `per_chunk` edges against partition-local initial states, updates
/// binned by destination partition, timed on a second round so buffers
/// are warm. Units are edge records scattered plus update records
/// gathered.
pub fn kernels<P: GasProgram>(
    program: &P,
    g: &InputGraph,
    spec: &PartitionSpec,
    per_chunk: usize,
) -> Replay {
    let degrees = g.out_degrees();
    let parts = chaos_graph::partition_edges(g, spec);
    let states: Vec<Vec<P::VertexState>> = (0..spec.num_partitions)
        .map(|p| {
            spec.range(p)
                .map(|v| program.init(v, degrees[v as usize]))
                .collect()
        })
        .collect();
    let mut accums: Vec<Vec<P::Accum>> = (0..spec.num_partitions)
        .map(|p| vec![P::Accum::default(); spec.len(p) as usize])
        .collect();
    let mut bins: Vec<Vec<Update<P::Update>>> =
        (0..spec.num_partitions).map(|_| Vec::new()).collect();
    let mut out = Vec::new();
    // The engine reuses its update buffers across chunks and iterations;
    // an untimed first round sizes these the same way.
    let mut time = Duration::ZERO;
    for round in 0..2 {
        bins.iter_mut().for_each(Vec::clear);
        let t = Instant::now();
        for (p, edges) in parts.iter().enumerate() {
            let base = spec.range(p).start;
            for chunk in edges.chunks(per_chunk.max(1)) {
                program.scatter_chunk(base, &states[p], chunk, 0, &mut out);
                for u in out.drain(..) {
                    bins[spec.partition_of(u.dst)].push(u);
                }
            }
        }
        for (p, updates) in bins.iter().enumerate() {
            program.gather_chunk(spec.range(p).start, &states[p], &mut accums[p], updates);
        }
        if round == 1 {
            time = t.elapsed();
        }
    }
    black_box(&accums);
    Replay {
        time,
        units: g.num_edges() + bins.iter().map(|b| b.len() as u64).sum::<u64>(),
    }
}

/// Replays the pre-processing pass `chaos_graph::partition_edges` over
/// the cell's graph with its partition layout. Units are edges binned.
pub fn partition(g: &InputGraph, spec: &PartitionSpec) -> Replay {
    let t = Instant::now();
    let parts = chaos_graph::partition_edges(g, spec);
    let time = t.elapsed();
    black_box(parts.len());
    Replay {
        time,
        units: g.num_edges(),
    }
}
