//! Topology access paths for sampling.

use gnndrive_graph::{CscTopology, NodeId};
use gnndrive_storage::{FileHandle, IoPriority, MmapArray, PageCache, Pod};
use std::collections::HashMap;
use std::sync::Arc;

/// Read access to in-neighbor lists, however they are stored.
pub trait TopoReader: Send + Sync {
    /// Append the in-neighbors of `v` to `out` (cleared by the caller).
    fn neighbors_into(&self, v: NodeId, out: &mut Vec<NodeId>);

    /// The in-neighbor lists of all of `nodes` — one sampling hop — in one
    /// call: `out` is overwritten with the lists back to back and `bounds`
    /// with `nodes.len() + 1` offsets, so node `i`'s list is
    /// `out[bounds[i]..bounds[i + 1]]`. Readers that know every byte range
    /// up front override this to fetch them together.
    fn neighbors_batch(&self, nodes: &[NodeId], out: &mut Vec<NodeId>, bounds: &mut Vec<usize>) {
        out.clear();
        bounds.clear();
        bounds.push(0);
        for &v in nodes {
            self.neighbors_into(v, out);
            bounds.push(out.len());
        }
    }

    /// In-degree of `v` (cheap: indptr is host-resident in every path).
    fn degree(&self, v: NodeId) -> usize;

    fn num_nodes(&self) -> usize;
}

/// Fully host-resident topology (ground truth, tests, and the in-buffer
/// partitions of MariusGNN).
pub struct InMemTopo {
    topo: Arc<CscTopology>,
}

impl InMemTopo {
    pub fn new(topo: Arc<CscTopology>) -> Self {
        InMemTopo { topo }
    }
}

impl TopoReader for InMemTopo {
    fn neighbors_into(&self, v: NodeId, out: &mut Vec<NodeId>) {
        out.extend_from_slice(self.topo.neighbors(v));
    }

    fn degree(&self, v: NodeId) -> usize {
        self.topo.degree(v)
    }

    fn num_nodes(&self) -> usize {
        self.topo.num_nodes()
    }
}

/// Memory-mapped topology: `indptr` resident, `indices` faulting 4 KiB
/// pages through the shared page cache one synchronous read at a time (the
/// paper's sampling path, §4.4 "GNNDrive does memory-mapped sampling like
/// PyG+"; the baselines keep it, the pipeline uses [`AsyncTopo`]).
pub struct MmapTopo {
    indptr: Arc<Vec<u64>>,
    indices: MmapArray<u32>,
}

impl MmapTopo {
    /// `indices_file` must hold `indptr.last()` little-endian u32 entries
    /// (possibly sector-padded; the tail padding is never indexed).
    pub fn new(indptr: Arc<Vec<u64>>, cache: Arc<PageCache>, indices_file: FileHandle) -> Self {
        let indices = MmapArray::new(cache, indices_file);
        assert!(
            indices.len() as u64 >= *indptr.last().expect("nonempty indptr"),
            "indices file too short for indptr"
        );
        MmapTopo { indptr, indices }
    }
}

impl TopoReader for MmapTopo {
    fn neighbors_into(&self, v: NodeId, out: &mut Vec<NodeId>) {
        let s = self.indptr[v as usize] as usize;
        let e = self.indptr[v as usize + 1] as usize;
        let start = out.len();
        out.resize(start + (e - s), 0);
        self.indices.read_slice(s, &mut out[start..]);
    }

    fn degree(&self, v: NodeId) -> usize {
        (self.indptr[v as usize + 1] - self.indptr[v as usize]) as usize
    }

    fn num_nodes(&self) -> usize {
        self.indptr.len() - 1
    }
}

/// Asynchronous topology reader (GNNDrive's own sampler): `indptr` is
/// resident, so the byte ranges a whole hop will touch are known before any
/// is touched, and they go to the page cache as *one* vectored read — the
/// hop's missing pages are all in flight at once on this reader's QoS lane
/// instead of faulting one page per round trip (DESIGN.md §4).
pub struct AsyncTopo {
    indptr: Arc<Vec<u64>>,
    cache: Arc<PageCache>,
    indices_file: FileHandle,
    prio: IoPriority,
}

impl AsyncTopo {
    /// Same file contract as [`MmapTopo::new`]; faults submit on lane `prio`.
    pub fn new(
        indptr: Arc<Vec<u64>>,
        cache: Arc<PageCache>,
        indices_file: FileHandle,
        prio: IoPriority,
    ) -> Self {
        assert!(
            indices_file.len / 4 >= *indptr.last().expect("nonempty indptr"),
            "indices file too short for indptr"
        );
        AsyncTopo {
            indptr,
            cache,
            indices_file,
            prio,
        }
    }
}

impl TopoReader for AsyncTopo {
    fn neighbors_into(&self, v: NodeId, out: &mut Vec<NodeId>) {
        let (mut list, mut bounds) = (Vec::new(), Vec::new());
        self.neighbors_batch(&[v], &mut list, &mut bounds);
        out.append(&mut list);
    }

    fn neighbors_batch(&self, nodes: &[NodeId], out: &mut Vec<NodeId>, bounds: &mut Vec<usize>) {
        out.clear();
        bounds.clear();
        bounds.push(0);
        let mut ranges = Vec::with_capacity(nodes.len());
        let mut total = 0usize;
        for &v in nodes {
            let (s, e) = (self.indptr[v as usize], self.indptr[v as usize + 1]);
            ranges.push((s * 4, (e - s) as usize * 4));
            total += (e - s) as usize;
            bounds.push(total);
        }
        let mut bytes = vec![0u8; total * 4];
        self.cache
            .read_vectored(self.indices_file, &ranges, self.prio, &mut bytes);
        out.extend(bytes.chunks_exact(4).map(<NodeId as Pod>::from_le));
    }

    fn degree(&self, v: NodeId) -> usize {
        (self.indptr[v as usize + 1] - self.indptr[v as usize]) as usize
    }

    fn num_nodes(&self) -> usize {
        self.indptr.len() - 1
    }
}

/// Ginex-style neighbor cache: pin the adjacency lists of the
/// highest-degree nodes up to a byte budget; everything else falls through.
pub struct NeighborCacheTopo<T: TopoReader> {
    cached: HashMap<NodeId, Box<[NodeId]>>,
    fallback: T,
    capacity_bytes: u64,
}

impl<T: TopoReader> NeighborCacheTopo<T> {
    /// Build the cache by degree order (Ginex constructs its neighbor cache
    /// from the highest-degree vertices, which dominate sampling traffic).
    pub fn build(fallback: T, capacity_bytes: u64) -> Self {
        let n = fallback.num_nodes();
        let mut by_degree: Vec<(usize, NodeId)> =
            (0..n as NodeId).map(|v| (fallback.degree(v), v)).collect();
        by_degree.sort_unstable_by(|a, b| b.cmp(a));
        let mut cached = HashMap::new();
        let mut used = 0u64;
        let mut scratch = Vec::new();
        for (deg, v) in by_degree {
            let cost = (deg * 4 + 16) as u64;
            if used + cost > capacity_bytes {
                break;
            }
            scratch.clear();
            fallback.neighbors_into(v, &mut scratch);
            cached.insert(v, scratch.clone().into_boxed_slice());
            used += cost;
        }
        NeighborCacheTopo {
            cached,
            fallback,
            capacity_bytes,
        }
    }

    pub fn cached_nodes(&self) -> usize {
        self.cached.len()
    }

    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }
}

impl<T: TopoReader> TopoReader for NeighborCacheTopo<T> {
    fn neighbors_into(&self, v: NodeId, out: &mut Vec<NodeId>) {
        if let Some(n) = self.cached.get(&v) {
            out.extend_from_slice(n);
        } else {
            self.fallback.neighbors_into(v, out);
        }
    }

    fn degree(&self, v: NodeId) -> usize {
        self.fallback.degree(v)
    }

    fn num_nodes(&self) -> usize {
        self.fallback.num_nodes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnndrive_graph::{Dataset, DatasetSpec};
    use gnndrive_storage::{MemoryGovernor, SimSsd, SsdProfile};

    fn tiny_spec() -> DatasetSpec {
        DatasetSpec {
            name: "t".into(),
            num_nodes: 300,
            num_edges: 3000,
            feat_dim: 8,
            num_classes: 3,
            intra_prob: 0.7,
            feature_signal: 1.0,
            train_fraction: 0.2,
            seed: 3,
        }
    }

    fn tiny_dataset() -> Dataset {
        Dataset::build(tiny_spec(), SimSsd::new(SsdProfile::instant()))
    }

    #[test]
    fn mmap_topo_matches_ground_truth() {
        let ds = tiny_dataset();
        let cache = PageCache::new(Arc::clone(&ds.ssd), MemoryGovernor::unlimited());
        let mmap = MmapTopo::new(Arc::clone(&ds.indptr), cache, ds.indices_file);
        let mut got = Vec::new();
        for v in 0..300u32 {
            got.clear();
            mmap.neighbors_into(v, &mut got);
            assert_eq!(got.as_slice(), ds.topology.neighbors(v), "node {v}");
            assert_eq!(mmap.degree(v), ds.topology.degree(v));
        }
    }

    /// Every reader yields the same samples, bit for bit, for every policy
    /// — under a cache budget tight enough that the asynchronous reader
    /// bypasses, evicts and re-faults while it does.
    #[test]
    fn async_mmap_and_in_memory_readers_sample_identically() {
        use crate::{NeighborSampler, SamplingPolicy};
        let ds = tiny_dataset();
        let cache =
            |pages: u64| PageCache::new(Arc::clone(&ds.ssd), MemoryGovernor::new(pages * 4096));
        let readers: [Arc<dyn TopoReader>; 3] = [
            Arc::new(InMemTopo::new(Arc::clone(&ds.topology))),
            Arc::new(MmapTopo::new(
                Arc::clone(&ds.indptr),
                cache(2),
                ds.indices_file,
            )),
            Arc::new(AsyncTopo::new(
                Arc::clone(&ds.indptr),
                cache(2),
                ds.indices_file,
                IoPriority::Bulk,
            )),
        ];
        for policy in [
            SamplingPolicy::Uniform,
            SamplingPolicy::Full,
            SamplingPolicy::TopDegree,
        ] {
            let samplers: Vec<NeighborSampler> = readers
                .iter()
                .map(|r| NeighborSampler::with_policy(Arc::clone(r), vec![3, 2, 3], policy))
                .collect();
            gnndrive_sync::rng::cases(64, |rng| {
                let seeds: Vec<NodeId> = (0..1 + rng.below(12))
                    .map(|_| rng.below(300) as NodeId)
                    .collect();
                let (batch, salt) = (rng.next_u64(), rng.next_u64());
                let want = samplers[0].sample(batch, &seeds, salt);
                assert_eq!(
                    samplers[1].sample(batch, &seeds, salt),
                    want,
                    "{policy:?} mmap"
                );
                assert_eq!(
                    samplers[2].sample(batch, &seeds, salt),
                    want,
                    "{policy:?} async"
                );
            });
        }
    }

    /// Counts, not clocks: with a cache smaller than the topology, a 3-hop
    /// batch through the asynchronous reader takes at most one device round
    /// trip per hop and at most one device read per missing page, where the
    /// memory-mapped reader takes a round trip for every missing page.
    #[test]
    fn a_hop_faults_in_one_round_trip_not_one_per_page() {
        use crate::NeighborSampler;
        let ds = Dataset::build(
            DatasetSpec {
                num_nodes: 4_000,
                num_edges: 60_000,
                ..tiny_spec()
            },
            SimSsd::new(SsdProfile::instant()),
        );
        let topology_pages = ds.indices_file.len.div_ceil(4096);
        let seeds: Vec<NodeId> = (0..32).map(|i| i * 97).collect();
        let run = |reader: fn(&Dataset, Arc<PageCache>) -> Arc<dyn TopoReader>| {
            let cache = PageCache::new(
                Arc::clone(&ds.ssd),
                MemoryGovernor::new(topology_pages / 4 * 4096),
            );
            let ops = ds.ssd.stats().snapshot().read_ops;
            NeighborSampler::new(reader(&ds, Arc::clone(&cache)), vec![4, 4, 4])
                .sample(0, &seeds, 9);
            (cache.stats(), ds.ssd.stats().snapshot().read_ops - ops)
        };
        let (batched, batched_ops) = run(|ds, cache| {
            Arc::new(AsyncTopo::new(
                Arc::clone(&ds.indptr),
                cache,
                ds.indices_file,
                IoPriority::Bulk,
            ))
        });
        let (paged, paged_ops) = run(|ds, cache| {
            Arc::new(MmapTopo::new(
                Arc::clone(&ds.indptr),
                cache,
                ds.indices_file,
            ))
        });
        assert!(
            batched.misses > 3,
            "the budget must force faults: {batched:?}"
        );
        assert!(batched.fills <= 3, "one round trip per hop: {batched:?}");
        assert!(
            batched_ops <= batched.misses,
            "{batched_ops} reads for {batched:?}"
        );
        assert!(
            paged.fills >= paged.misses,
            "one round trip per page: {paged:?}"
        );
        assert!(paged_ops >= paged.misses);
    }

    #[test]
    fn neighbor_cache_serves_hot_nodes_and_falls_through() {
        let ds = tiny_dataset();
        let inmem = InMemTopo::new(Arc::clone(&ds.topology));
        let cached = NeighborCacheTopo::build(inmem, 4096);
        assert!(cached.cached_nodes() > 0);
        assert!(cached.cached_nodes() < 300);
        let mut a = Vec::new();
        let mut b = Vec::new();
        for v in 0..300u32 {
            a.clear();
            cached.neighbors_into(v, &mut a);
            b.clear();
            InMemTopo::new(Arc::clone(&ds.topology)).neighbors_into(v, &mut b);
            assert_eq!(a, b, "node {v}");
        }
    }

    #[test]
    fn neighbor_cache_prefers_high_degree() {
        let ds = tiny_dataset();
        let inmem = InMemTopo::new(Arc::clone(&ds.topology));
        let cached = NeighborCacheTopo::build(inmem, 2048);
        // The minimum cached degree must be >= the maximum uncached degree
        // (ties aside): the cache is built in degree order.
        let cached_min = cached
            .cached
            .keys()
            .map(|&v| ds.topology.degree(v))
            .min()
            .unwrap();
        let uncached_max = (0..300u32)
            .filter(|v| !cached.cached.contains_key(v))
            .map(|v| ds.topology.degree(v))
            .max()
            .unwrap();
        assert!(
            cached_min + 1 >= uncached_max,
            "{cached_min} vs {uncached_max}"
        );
    }
}
