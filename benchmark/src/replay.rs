//! Serial layer replay: one batch at a time on the harness thread, one span
//! per public call — `NeighborSampler::sample` → `extract_batch` →
//! `FeatureSlab::gather` → `GnnModel::train_step` → `FeatureBufferManager::
//! release` — and then each stage's children run *alone* on the same inputs
//! (the batch's read groups through a bare `IoRing`, `crc32` over the bytes
//! read, the batch's topology pages through `PageCache::read`, the
//! feature-buffer plan/publish/release cycle without I/O, `Matrix::matmul`
//! at the batch's shape). A layer's self time is its span minus its
//! replayed children.
//!
//! The same walk is the output check of every run: gathered feature rows
//! must equal the dataset's ground truth bit for bit, and every sampled
//! edge must be an edge of the ground-truth topology.

use crate::spans::SpanLog;
use crate::stack::{Seeds, SharedStack};
use crate::stats::median;
use crate::workloads::{Workload, BATCH_SIZE};
use gnndrive::core::StagingBuffer;
use gnndrive::nn::build_model;
use gnndrive::prelude::*;
use gnndrive::sampling::{BatchPlan, MiniBatchSample, MmapTopo, TopoReader};
use gnndrive::storage::{FileHandle, PAGE_SIZE, SECTOR_SIZE};
use gnndrive::tensor::{Adam, Matrix, Optimizer};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Epoch whose schedule is replayed (epoch 0 is the warm-up's).
const REPLAY_EPOCH: u64 = 1;

/// One contiguous SSD read covering one or more feature rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadGroup {
    pub start: u64,
    pub len: usize,
}

/// The extractor's read planning, restated from its documented rule
/// (paper §4.4): align each row's window to `align`, and merge rows whose
/// windows touch while the merged read stays within `max_bytes`. `rows`
/// must be sorted.
pub fn plan_read_groups(
    rows: &[u64],
    row_bytes: u64,
    align: u64,
    max_bytes: usize,
    file_len: u64,
) -> Vec<ReadGroup> {
    let mut groups: Vec<ReadGroup> = Vec::new();
    for &row in rows {
        let off = row * row_bytes;
        let start = off / align * align;
        let end = ((off + row_bytes).div_ceil(align) * align).min(file_len);
        if let Some(last) = groups.last_mut() {
            let merged = (end - last.start) as usize;
            if start <= last.start + last.len as u64 && merged <= max_bytes {
                last.len = last.len.max(merged);
                continue;
            }
        }
        groups.push(ReadGroup {
            start,
            len: (end - start) as usize,
        });
    }
    groups
}

/// Per-layer numbers the replay yields (medians over the replayed batches
/// unless the name says otherwise).
#[derive(Debug, Default, Clone)]
pub struct ReplayMetrics {
    pub sample_ms: f64,
    pub extract_ms: f64,
    pub extract_self_ms: f64,
    pub gather_us: f64,
    pub train_step_ms: f64,
    pub forward_ms: f64,
    pub fb_cycle_us: f64,
    /// Host cost of one ring op on an instant-profile device.
    pub ring_us_per_op: f64,
    pub crc32_mib_per_s: f64,
    pub pagecache_read_us: f64,
    pub matmul_gflops: f64,
}

pub struct ReplayOutcome {
    pub violations: Vec<String>,
    /// `None` when only the output check ran.
    pub metrics: Option<ReplayMetrics>,
}

/// Everything one serial walk needs, wired from public constructors the
/// same way `Pipeline::builder(..).build()` wires them.
struct ReplayStack {
    ds: Arc<Dataset>,
    cache: Arc<PageCache>,
    sampler: NeighborSampler,
    ctx: ExtractorContext,
    fb: Arc<FeatureBufferManager>,
    slab: Arc<FeatureSlab>,
    cfg: GnnDriveConfig,
    _resident: gnndrive::storage::MemCharge,
}

impl ReplayStack {
    fn new(w: &Workload, ds: &Arc<Dataset>, seeds: &Seeds) -> Result<ReplayStack, String> {
        let shared = SharedStack::new(w, Arc::clone(ds));
        let cfg = shared
            .config
            .apply_to(SharedStack::trainer_config(w, seeds.trainer));
        // The pipeline charges its host-resident metadata to the governor;
        // charge the same so the page cache gets the same room.
        let resident = (ds.indptr.len() * 8 + ds.labels.len() * 4 + ds.train_idx.len() * 4) as u64;
        let resident = shared
            .governor
            .charge(resident)
            .map_err(|e| format!("replay: resident metadata over budget: {e}"))?;
        let topo: Arc<dyn TopoReader> = Arc::new(MmapTopo::new(
            Arc::clone(&ds.indptr),
            Arc::clone(&shared.cache),
            ds.indices_file,
        ));
        let slab = Arc::new(FeatureSlab::new(cfg.feature_buffer_slots, ds.spec.feat_dim));
        let fb = Arc::new(FeatureBufferManager::new(
            Arc::clone(&slab),
            ds.spec.num_nodes,
            &cfg,
        ));
        let staging = StagingBuffer::new(cfg.staging_bytes(), &shared.governor)
            .map_err(|e| format!("replay: staging buffer over budget: {e}"))?;
        let ctx = ExtractorContext {
            ssd: Arc::clone(&ds.ssd),
            features_file: ds.features_file,
            remap: None,
            feat_dim: ds.spec.feat_dim,
            fb: Arc::clone(&fb),
            staging: Some(staging),
            transfer: Some(Arc::clone(&crate::stack::device(w).transfer)),
            direct_io: cfg.direct_io,
            gpu_direct: cfg.gpu_direct,
            sync_extract: cfg.sync_extract,
            ring_depth: cfg.ring_depth,
            max_joint_read_bytes: cfg.max_joint_read_bytes,
            retry: cfg.retry,
            health: Arc::new(DeviceHealth::new(cfg.health.clone())),
            io_priority: IoPriority::Bulk,
        };
        Ok(ReplayStack {
            ds: Arc::clone(ds),
            cache: shared.cache,
            sampler: NeighborSampler::new(topo, w.fanouts.to_vec()),
            ctx,
            fb,
            slab,
            cfg,
            _resident: resident,
        })
    }
}

/// Check one extracted batch against ground truth.
fn check_batch(
    ds: &Dataset,
    sample: &MiniBatchSample,
    gathered: &[f32],
    violations: &mut Vec<String>,
) {
    let dim = ds.spec.feat_dim;
    let id = sample.batch_id;
    if gathered.len() != sample.input_nodes.len() * dim {
        violations.push(format!(
            "batch {id}: gathered {} floats for {} nodes",
            gathered.len(),
            sample.input_nodes.len()
        ));
        return;
    }
    for (i, &node) in sample.input_nodes.iter().enumerate() {
        let truth = ds.peek_feature_row(node);
        let got = &gathered[i * dim..(i + 1) * dim];
        if got
            .iter()
            .zip(&truth)
            .any(|(a, b)| a.to_bits() != b.to_bits())
        {
            violations.push(format!(
                "batch {id}: feature row of node {node} differs from the dataset"
            ));
            return;
        }
    }
    // Prefix convention: local index i of any block is input_nodes[i].
    for block in &sample.blocks {
        for (&s, &d) in block.edge_src.iter().zip(&block.edge_dst) {
            let (src, dst) = (
                sample.input_nodes[s as usize],
                sample.input_nodes[d as usize],
            );
            if !ds.topology.neighbors(dst).contains(&src) {
                violations.push(format!(
                    "batch {id}: sampled edge {src}->{dst} is not in the graph"
                ));
                return;
            }
        }
    }
    if sample.seeds.len() > BATCH_SIZE {
        violations.push(format!(
            "batch {id}: {} seeds exceed the batch size",
            sample.seeds.len()
        ));
    }
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Walk the first `batches` mini-batches of epoch 1's schedule. With
/// `children`, also replay each stage's children and return the per-layer
/// numbers; without, only check outputs.
pub fn replay(
    w: &Workload,
    ds: &Arc<Dataset>,
    seeds: &Seeds,
    log: &mut SpanLog,
    batches: usize,
    children: bool,
) -> ReplayOutcome {
    let mut violations = Vec::new();
    let st = match ReplayStack::new(w, ds, seeds) {
        Ok(st) => st,
        Err(e) => {
            return ReplayOutcome {
                violations: vec![e],
                metrics: None,
            }
        }
    };
    let dim = ds.spec.feat_dim;
    let mut model = build_model(
        ModelKind::GraphSage,
        dim,
        w.hidden,
        ds.spec.num_classes,
        w.fanouts.len(),
        seeds.trainer,
    );
    let mut opt = Adam::new(0.003);
    let plan = BatchPlan::new(&ds.train_idx, BATCH_SIZE, REPLAY_EPOCH, seeds.trainer);
    let batches = batches.min(plan.num_batches());

    // Children-only fixtures.
    let fb_alone = FeatureBufferManager::new(Arc::clone(&st.slab), ds.spec.num_nodes, &st.cfg);
    let scratch = SimSsd::new(SsdProfile::instant());
    let scratch_file = scratch.create_file(4 << 20);
    let weight = Matrix::from_fn(dim, w.hidden, |r, c| ((r * 31 + c * 17) % 13) as f32 * 0.01);
    let row_bytes = (dim * 4) as u64;
    let max_read = st.cfg.max_joint_read_bytes.max(row_bytes as usize);

    let (mut sample_ms, mut extract_ms, mut self_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut gather_us, mut train_ms, mut forward_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut fb_us, mut page_us) = (Vec::new(), Vec::new());
    let (mut ring_ops, mut ring_secs) = (0u64, 0.0f64);
    let (mut crc_bytes, mut crc_secs) = (0u64, 0.0f64);
    let (mut mm_flops, mut mm_secs) = (0.0f64, 0.0f64);

    for i in 0..batches {
        let key = i as u64;
        let seeds_i = plan.batch(i);

        st.cache.start_trace(seeds.trainer, REPLAY_EPOCH);
        let t = Instant::now();
        let sample = log.scoped("NeighborSampler::sample", "sampling", key, |_| {
            st.sampler
                .sample(key, seeds_i, seeds.trainer ^ REPLAY_EPOCH)
        });
        sample_ms.push(ms(t));
        let pages = st
            .cache
            .finish_trace()
            .map(|t| t.accesses)
            .unwrap_or_default();

        // Rows this extraction will read: input nodes not yet valid in the
        // feature buffer (serial replay, so nobody else is loading them).
        let mut rows: Vec<u64> = sample
            .input_nodes
            .iter()
            .filter(|&&n| !st.fb.entry(n).2)
            .map(|&n| n as u64)
            .collect();
        rows.sort_unstable();

        let t = Instant::now();
        let extracted = log.scoped("extract_batch", "core", key, |_| {
            extract_batch(&st.ctx, sample)
        });
        let this_extract_ms = ms(t);
        let batch = match extracted {
            Ok(b) => b,
            Err(e) => {
                violations.push(format!("batch {i}: extraction failed: {e}"));
                break;
            }
        };
        extract_ms.push(this_extract_ms);
        if batch.loaded_nodes != rows.len() {
            violations.push(format!(
                "batch {i}: extractor loaded {} nodes, feature buffer was missing {}",
                batch.loaded_nodes,
                rows.len()
            ));
        }

        let t = Instant::now();
        let (n, _, data) = log.scoped("FeatureSlab::gather", "device", key, |_| {
            st.slab.gather(&batch.aliases)
        });
        gather_us.push(ms(t) * 1e3);
        check_batch(&st.ds, &batch.sample, &data, &mut violations);

        let input = Matrix::from_vec(n, dim, data);
        let labels: Vec<usize> = batch
            .sample
            .seeds
            .iter()
            .map(|&s| ds.labels[s as usize] as usize)
            .collect();
        let t = Instant::now();
        let step = log.scoped("GnnModel::train_step", "nn", key, |_| {
            let step = model.train_step(&batch.sample.blocks, &input, &labels);
            opt.step(&mut model.params_mut());
            step
        });
        train_ms.push(ms(t));
        if !step.loss.is_finite() {
            violations.push(format!("batch {i}: replayed loss is {}", step.loss));
        }

        log.scoped("FeatureBufferManager::release", "core", key, |_| {
            st.fb.release(&batch.sample.input_nodes)
        });

        if !children {
            continue;
        }

        // ── children, each alone on the same inputs ──────────────────────
        let groups = plan_read_groups(
            &rows,
            row_bytes,
            SECTOR_SIZE,
            max_read,
            ds.features_file.len,
        );
        let mut bufs: Vec<Vec<u8>> = Vec::with_capacity(groups.len());
        let t = Instant::now();
        log.scoped("IoRing (batch read groups)", "storage", key, |_| {
            ring_reads(&ds.ssd, ds.features_file, &groups, st.cfg.ring_depth, |b| {
                bufs.push(b)
            })
        });
        self_ms.push(this_extract_ms - ms(t));

        // The same group shapes against an instant device: what one ring
        // op costs the host when the device charges nothing.
        let wrapped: Vec<ReadGroup> = groups
            .iter()
            .map(|g| ReadGroup {
                start: g.start % (scratch_file.len - max_read as u64) / SECTOR_SIZE * SECTOR_SIZE,
                len: g.len,
            })
            .collect();
        let t = Instant::now();
        log.scoped("IoRing (instant device)", "storage", key, |_| {
            ring_reads(&scratch, scratch_file, &wrapped, st.cfg.ring_depth, |b| {
                black_box(b);
            })
        });
        ring_secs += t.elapsed().as_secs_f64();
        ring_ops += wrapped.len() as u64;

        let t = Instant::now();
        log.scoped("crc32", "storage", key, |_| {
            for b in &bufs {
                for sector in b.chunks(4096) {
                    black_box(crc32(black_box(sector)));
                }
            }
        });
        crc_secs += t.elapsed().as_secs_f64();
        crc_bytes += bufs.iter().map(|b| b.len() as u64).sum::<u64>();

        if !pages.is_empty() {
            let mut page = [0u8; PAGE_SIZE];
            let t = Instant::now();
            log.scoped("PageCache::read", "storage", key, |_| {
                for &(file, page_no) in &pages {
                    let handle = FileHandle {
                        id: file,
                        len: ds.indices_file.len,
                    };
                    st.cache.read(handle, page_no * PAGE_SIZE as u64, &mut page);
                }
            });
            page_us.push(ms(t) * 1e3 / pages.len() as f64);
        }

        let t = Instant::now();
        log.scoped(
            "FeatureBufferManager plan/publish/release",
            "core",
            key,
            |_| {
                let mut plan = fb_alone.plan_batch(&batch.sample.input_nodes);
                for &(_, node) in &plan.to_load {
                    fb_alone.publish(node);
                }
                let _ = fb_alone.wait_ready(&mut plan);
                fb_alone.release(&batch.sample.input_nodes);
            },
        );
        fb_us.push(ms(t) * 1e3);

        let t = Instant::now();
        log.scoped("Matrix::matmul", "tensor", key, |_| {
            black_box(black_box(&input).matmul(&weight));
        });
        mm_secs += t.elapsed().as_secs_f64();
        mm_flops += 2.0 * (n * dim * w.hidden) as f64;

        let t = Instant::now();
        log.scoped("GnnModel::forward", "nn", key, |_| {
            black_box(model.forward(&batch.sample.blocks, &input));
        });
        forward_ms.push(ms(t));
    }

    let metrics = children.then(|| ReplayMetrics {
        sample_ms: median(&sample_ms),
        extract_ms: median(&extract_ms),
        extract_self_ms: median(&self_ms),
        gather_us: median(&gather_us),
        train_step_ms: median(&train_ms),
        forward_ms: median(&forward_ms),
        fb_cycle_us: median(&fb_us),
        ring_us_per_op: ring_secs * 1e6 / ring_ops.max(1) as f64,
        crc32_mib_per_s: crc_bytes as f64 / (1 << 20) as f64 / crc_secs.max(1e-9),
        pagecache_read_us: median(&page_us),
        matmul_gflops: mm_flops / 1e9 / mm_secs.max(1e-9),
    });
    ReplayOutcome {
        violations,
        metrics,
    }
}

/// Push `groups` through a fresh ring with the extractor's submission
/// discipline — prepare, submit, reap whatever already finished, block only
/// when the ring is full — handing each completed buffer to `sink`.
fn ring_reads(
    ssd: &Arc<SimSsd>,
    file: FileHandle,
    groups: &[ReadGroup],
    depth: usize,
    mut sink: impl FnMut(Vec<u8>),
) {
    let mut ring = IoRing::new(Arc::clone(ssd), depth.max(1), true);
    let mut reap = |c: Option<gnndrive::storage::Completion>| {
        if let Some(Ok(buf)) = c.map(|c| c.result) {
            sink(buf);
        }
    };
    for (i, g) in groups.iter().enumerate() {
        while let Err(e) = ring.prepare_read(file, g.start, g.len, i as u64) {
            assert!(
                matches!(e, gnndrive::storage::IoError::RingFull),
                "replayed read group rejected: {e}"
            );
            ring.submit();
            reap(
                ring.wait_completion()
                    .expect("device stays open during replay"),
            );
        }
        ring.submit();
        while let Some(c) = ring.peek_completion() {
            reap(Some(c));
        }
    }
    ring.submit();
    while let Some(c) = ring
        .wait_completion()
        .expect("device stays open during replay")
    {
        reap(Some(c));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_groups_merge_touching_rows_up_to_the_cap() {
        // 512 B rows on 512 B sectors: consecutive rows merge, a gap splits.
        let g = plan_read_groups(&[0, 1, 2, 10, 11], 512, 512, 16 * 1024, 1 << 20);
        assert_eq!(
            g,
            vec![
                ReadGroup {
                    start: 0,
                    len: 1536
                },
                ReadGroup {
                    start: 5120,
                    len: 1024
                }
            ]
        );
        // The cap splits a long run.
        let run: Vec<u64> = (0..40).collect();
        let g = plan_read_groups(&run, 512, 512, 16 * 1024, 1 << 20);
        assert_eq!(g.len(), 2);
        assert_eq!(g[0].len, 16 * 1024);
        assert_eq!(
            g[1],
            ReadGroup {
                start: 16 * 1024,
                len: 8 * 512
            }
        );
    }

    #[test]
    fn read_groups_align_and_clamp_at_eof() {
        // 100 B rows, 512 B alignment: rows 0..5 share a sector.
        let g = plan_read_groups(&[0, 4, 6], 100, 512, 4096, 1000);
        assert_eq!(
            g,
            vec![ReadGroup {
                start: 0,
                len: 1000
            }]
        );
    }
}
