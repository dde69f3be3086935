//! `replay` — one deterministic, single-threaded replay of the feature and
//! topology I/O that training issues, with exact committed gates.
//!
//! It runs the code the pipeline runs, on a pinned seed, without threads:
//!
//! * **Sampling** — the real [`NeighborSampler`] over the `AsyncTopo`
//!   reader of a built [`Pipeline`], batch by batch; its page cache's hits
//!   and fills are the topology counts.
//! * **Feature buffer** — one [`FeatureBufferManager`] per variant, driven
//!   as extraction drives it ([`replay_buffer`]), later batches announced
//!   as the samplers announce them.
//! * **Read planning** — each batch's loads through [`ReadGeometry::plan`],
//!   the planner extraction calls: device ops, bytes and rows bridged. The
//!   `harvest` variant offers each window's
//!   [`ReadGroup::bridged_rows`](gnndrive_core::ReadGroup::bridged_rows) to
//!   [`FeatureBufferManager::harvest`], as extraction does once a window
//!   verifies.
//! * **OPT** — [`NextUse`], Belady's MIN over the same batches and the
//!   same slots: the ceiling no online variant can pass.
//!
//! Two points restate the `io_bound` and `mem_tight` workloads of the
//! `benchmark/` harness ([`POINTS`]). Every count is a pure function of
//! the seed, so `gnndrive replay --check` compares them exactly against
//! the committed `results/baselines/BENCH_replay.json`.

use crate::Row;
use gnndrive_core::feature_buffer::Announced;
use gnndrive_core::{
    ExtractPlan, FeatureBufferManager, GnnDriveConfig, Pipeline, ReadGeometry, StackConfig,
};
use gnndrive_device::GpuDevice;
use gnndrive_graph::{Dataset, MiniDataset, NodeId};
use gnndrive_sampling::{BatchPlan, MiniBatchSample, NeighborSampler};
use gnndrive_storage::{NextUse, PageCache, SimSsd, SsdProfile};
use gnndrive_telemetry::Json;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// Version of the `BENCH_replay.json` layout. Bump when a field changes
/// meaning; [`check_replay`] refuses to diff across versions.
pub const REPLAY_SCHEMA_VERSION: u64 = 1;

/// Seed of the batch schedule and the sampler.
const REPLAY_SEED: u64 = 7;

/// Epochs replayed at every point; the first only warms the caches.
const EPOCHS: u64 = 4;

/// Batches a batch stays pinned behind: the ones between its extraction
/// and its release (two extracting, four queued for training).
const PINNED: usize = 6;

/// The variants of every point, in table order: the classless buffer,
/// popularity classes, classes with the run-ahead horizon, those with the
/// bridged rows harvested, and Belady.
const VARIANTS: [&str; 5] = ["lru", "classes", "classes_horizon", "harvest", "opt"];

/// Mini-batch seeds and fanouts of both points.
const BATCH_SIZE: usize = 32;
const FANOUTS: [usize; 3] = [4, 4, 4];

/// One replayed point of `papers100m-mini` on the `pm883_repro` device.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    pub name: &'static str,
    /// Host-memory budget the page cache shares.
    pub budget_mib: u64,
    /// Mini-batches per epoch.
    pub epoch_batches: usize,
    /// Feature-buffer slots.
    pub slots: usize,
    /// How far the samplers announce ahead of extraction (the
    /// `classes_horizon` variant).
    pub ahead: Ahead,
}

/// The gated points, restating `benchmark/src/workloads.rs`: 32 768 slots
/// is eight worst-case batches rounded up to a power of two. Past the
/// extract queue's six places the pipeline announces a sample only while
/// the governor grants its bytes without reclaiming: at 32 MiB that runs
/// to the epoch's end, and at 6 MiB, where the page cache holds the whole
/// budget, never.
pub const POINTS: [Point; 2] = [
    Point {
        name: "io_bound",
        budget_mib: 32,
        epoch_batches: 32,
        slots: 32_768,
        ahead: Ahead::RunAhead(6),
    },
    Point {
        name: "mem_tight",
        budget_mib: 6,
        epoch_batches: 16,
        slots: 32_768,
        ahead: Ahead::Batches(6),
    },
];

/// How far [`replay_buffer`] announces ahead of the batch it plans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ahead {
    /// The next `n` batches, as `n` places on the extract queue give.
    Batches(usize),
    /// The epoch driver's run-ahead under a governor that grants every
    /// charge: the next `n` batches, then more until the epoch ends or the
    /// announced rows reach twice the slots.
    RunAhead(usize),
}

/// Replay `epochs` through `fb` on one thread, as extraction and release
/// drive it: each epoch opens its own horizon, each batch is planned and
/// its loads published in order, and it stays pinned until `pinned` later
/// batches were planned; every batch still pinned is released at the
/// epoch's end. With a `harvest` geometry the loads are read in its
/// windows, window by window, each window's bridged rows offered to the
/// buffer and landed with its loads. `visit(epoch, sample, plan)` sees
/// every batch's plan.
pub fn replay_buffer(
    fb: &FeatureBufferManager,
    epochs: &[Vec<MiniBatchSample>],
    pinned: usize,
    ahead: Ahead,
    harvest: Option<&ReadGeometry>,
    mut visit: impl FnMut(usize, &MiniBatchSample, &ExtractPlan),
) {
    let (places, run_ahead) = match ahead {
        Ahead::Batches(n) => (n, false),
        Ahead::RunAhead(n) => (n, true),
    };
    let max_rows = 2 * fb.num_slots();
    for (epoch, samples) in epochs.iter().enumerate() {
        let horizon = fb.horizon(0..samples.len() as u64);
        // Batches `i + 1 .. next` are announced while batch `i` is planned.
        let mut queued: VecDeque<Announced<()>> = VecDeque::new();
        let mut next = 0;
        let mut held = VecDeque::new();
        for (i, s) in samples.iter().enumerate() {
            if next > i {
                queued
                    .pop_front()
                    .expect("batch i was announced")
                    .withdraw();
            } else {
                next = i + 1;
            }
            while next < samples.len()
                && (next <= i + places || run_ahead && fb.announced_rows() < max_rows)
            {
                queued.push_back(horizon.announce(samples[next].clone(), ()));
                next += 1;
            }
            let mut plan = fb.plan_batch(&s.input_nodes);
            visit(epoch, s, &plan);
            match harvest {
                None => plan.to_load.iter().for_each(|&(_, n)| fb.publish(n)),
                Some(geometry) => {
                    let mut rows: Vec<_> = (plan.to_load.iter())
                        .map(|&(i, n)| (n.into(), n, plan.aliases[i]))
                        .collect();
                    rows.sort_unstable();
                    for mut g in geometry.plan(&rows) {
                        let bridged = g.bridged_rows(geometry.row_bytes);
                        let offers: Vec<NodeId> = bridged.map(|row| row as NodeId).collect();
                        let loaded = g.rows.len();
                        let taken = fb.harvest(&offers);
                        g.rows
                            .extend(taken.iter().map(|&(n, slot)| (n.into(), n, slot)));
                        fb.publish_window(&g.rows, loaded);
                    }
                }
            }
            fb.wait_ready(&mut plan).expect("nothing aborts");
            held.push_back(&s.input_nodes);
            if held.len() > pinned {
                fb.release(held.pop_front().expect("non-empty"));
            }
        }
        held.into_iter().for_each(|nodes| fb.release(nodes));
        drop(queued);
        drop(horizon);
        fb.check_invariants();
    }
}

/// One variant's totals over a point's measured batches.
#[derive(Debug, Default)]
struct Counts {
    input_rows: u64,
    rows_loaded: u64,
    ops: u64,
    bytes: u64,
    /// Rows read inside a window without being loaded.
    rows_bridged: u64,
}

impl Counts {
    /// Add one batch of `input_rows` rows that loads the rows of `nodes`
    /// (any order), read as `geometry` plans them. Which slot a row lands
    /// in does not change the plan.
    fn add_batch(&mut self, geometry: &ReadGeometry, input_rows: usize, nodes: &[NodeId]) {
        let mut rows: Vec<_> = nodes.iter().map(|&n| (n as u64, n, 0)).collect();
        rows.sort_unstable();
        self.input_rows += input_rows as u64;
        self.rows_loaded += rows.len() as u64;
        for g in geometry.plan(&rows) {
            self.ops += 1;
            self.bytes += g.window_len as u64;
            self.rows_bridged += g.bridged_rows(geometry.row_bytes).count() as u64;
        }
    }

    fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.set("input_rows", self.input_rows.into())
            .set("rows_loaded", self.rows_loaded.into())
            .set("ops", self.ops.into())
            .set("bytes", self.bytes.into())
            .set("rows_bridged", self.rows_bridged.into());
        o
    }
}

/// Replay every point of `points` over one papers100m-mini build at
/// `scale` (1.0: the full mini dataset) into a `BENCH_replay.json`
/// document.
pub fn run_replay(scale: f64, points: &[Point]) -> Result<Json, String> {
    let ds = Arc::new(Dataset::build(
        MiniDataset::Papers100M.spec_scaled(scale),
        SimSsd::new(SsdProfile::pm883_repro()),
    ));
    let mut out = Json::obj();
    for p in points {
        out.set(p.name, replay_point(&ds, p)?);
    }
    let mut doc = Json::obj();
    doc.set("schema_version", REPLAY_SCHEMA_VERSION.into())
        .set("kind", "bench_replay".into())
        .set("seed", REPLAY_SEED.into())
        .set("scale", scale.into())
        .set("points", out);
    Ok(doc)
}

/// One point: build the pipeline the benchmark's trainer builds, sample
/// [`EPOCHS`] epochs through its topology reader, then replay them
/// through every variant.
fn replay_point(ds: &Arc<Dataset>, p: &Point) -> Result<Json, String> {
    let stack = StackConfig::default()
        .with_memory_budget(p.budget_mib << 20)
        .with_fanouts(FANOUTS.to_vec())
        .with_batch_size(BATCH_SIZE);
    let governor = stack.governor();
    let cache = PageCache::new(Arc::clone(&ds.ssd), Arc::clone(&governor));
    let cfg = GnnDriveConfig {
        num_samplers: 2,
        num_extractors: 2,
        feature_buffer_slots: p.slots,
        staging_bytes_per_extractor: ((p.budget_mib << 20) / 32).clamp(64 << 10, 1 << 20),
        seed: REPLAY_SEED,
        ..Default::default()
    };
    let pipeline = Pipeline::builder(Arc::clone(ds), GpuDevice::rtx3090())
        .with_config(cfg)
        .with_stack(&stack)
        .with_governor(governor)
        .with_page_cache(Arc::clone(&cache))
        .build()
        .map_err(|e| format!("{}: pipeline build failed: {e}", p.name))?;
    let cfg = pipeline.config();

    let sampler = NeighborSampler::new(Arc::clone(pipeline.topology()), cfg.fanouts.clone());
    let sample_epoch = |epoch: u64| -> Vec<MiniBatchSample> {
        let plan = BatchPlan::new(&ds.train_idx, cfg.batch_size, epoch, cfg.seed);
        (0..p.epoch_batches)
            .map(|i| sampler.sample(i as u64, plan.batch(i), cfg.seed ^ epoch))
            .collect()
    };
    let mut epochs = vec![sample_epoch(0)];
    let warm = cache.stats();
    epochs.extend((1..EPOCHS).map(sample_epoch));
    let end = cache.stats();

    let geometry = ReadGeometry::new(
        ds.spec.feat_dim,
        ds.features_file.len,
        ds.ssd.profile().op_cost_bytes(),
        cfg.max_joint_read_bytes,
        cfg.direct_io,
        cfg.gpu_direct,
    );
    let slab = pipeline.feature_buffer().slab();
    let classes = || FeatureBufferManager::with_out_degrees(Arc::clone(slab), &ds.out_degrees, cfg);
    let lru = FeatureBufferManager::new(Arc::clone(slab), ds.spec.num_nodes, cfg);
    let online = [
        (lru, Ahead::Batches(0), None),
        (classes(), Ahead::Batches(0), None),
        (classes(), p.ahead, None),
        (classes(), p.ahead, Some(&geometry)),
    ];
    let mut point = Json::obj();
    for ((fb, ahead, harvest), name) in online.into_iter().zip(VARIANTS) {
        let mut counts = Counts::default();
        replay_buffer(
            &fb,
            &epochs,
            PINNED,
            ahead,
            harvest,
            |epoch, sample, plan| {
                if epoch > 0 {
                    let nodes: Vec<NodeId> = plan.to_load.iter().map(|&(_, n)| n).collect();
                    counts.add_batch(&geometry, sample.input_nodes.len(), &nodes);
                }
            },
        );
        point.set(name, counts.to_json());
    }

    let mut opt = NextUse::new(epochs.iter().flatten().map(|s| &s.input_nodes[..]), p.slots);
    let mut counts = Counts::default();
    let batches = epochs.iter().enumerate();
    for (step, (epoch, s)) in batches
        .flat_map(|(e, b)| b.iter().map(move |s| (e, s)))
        .enumerate()
    {
        let (mut load, mut evict) = (Vec::new(), Vec::new());
        opt.access(step, &s.input_nodes, &mut load, &mut evict);
        if epoch > 0 {
            counts.add_batch(&geometry, s.input_nodes.len(), &load);
        }
    }
    point.set(VARIANTS[4], counts.to_json());

    let mut topology = Json::obj();
    topology
        .set("page_hits", (end.hits - warm.hits).into())
        .set("fills", (end.fills - warm.fills).into());
    point
        .set(
            "config",
            format!(
                "{} {p:?}, batch {BATCH_SIZE}, fanouts {FANOUTS:?}, {EPOCHS} epochs \
                 (first warm-up), {PINNED} pinned, op cost {} B",
                ds.spec.name, geometry.op_cost_bytes
            )
            .into(),
        )
        .set(
            "measured_batches",
            ((EPOCHS - 1) * p.epoch_batches as u64).into(),
        )
        .set("topology", topology);
    Ok(point)
}

/// The artifact's file name, under `--out` and `--baseline`.
pub const REPLAY_FILE: &str = "BENCH_replay.json";

/// Every count of `doc` by its path below `points`
/// (`io_bound.lru.ops`, `io_bound.topology.fills`,
/// `io_bound.measured_batches`), after the schema is checked.
fn counts(doc: &Json) -> Result<BTreeMap<String, u64>, String> {
    let v = doc
        .get("schema_version")
        .and_then(Json::as_u64)
        .ok_or("missing schema_version")?;
    if v != REPLAY_SCHEMA_VERSION {
        return Err(format!("schema_version {v} != {REPLAY_SCHEMA_VERSION}"));
    }
    if doc.get("kind").and_then(Json::as_str) != Some("bench_replay") {
        return Err("kind != bench_replay".into());
    }
    fn flatten(path: &str, j: &Json, out: &mut BTreeMap<String, u64>) {
        if let Some(o) = j.as_object() {
            for (k, v) in o {
                flatten(&format!("{path}.{k}"), v, out);
            }
        } else if let Some(n) = j.as_u64() {
            out.insert(path.to_string(), n);
        }
    }
    let points = doc.get("points").and_then(Json::as_object);
    let mut out = BTreeMap::new();
    for (name, point) in points.ok_or("missing points")? {
        flatten(name, point, &mut out);
    }
    Ok(out)
}

/// The point names of a [`counts`] map, in document order.
fn names(counts: &BTreeMap<String, u64>) -> Vec<&str> {
    counts
        .keys()
        .filter_map(|k| k.strip_suffix(".measured_batches"))
        .collect()
}

fn count(counts: &BTreeMap<String, u64>, key: &str) -> Result<u64, String> {
    counts
        .get(key)
        .copied()
        .ok_or_else(|| format!("missing {key}"))
}

/// Everything `--check` fails on, one line each: a count worse than in
/// `baseline` (topology page hits lower, any other count higher; the
/// replay is deterministic, so that is a regression, not noise), OPT
/// loading more rows than an online variant, and rows loaded out of the
/// order harvest ≤ classes + horizon ≤ classes ≤ LRU.
pub fn check_replay(baseline: &Json, current: &Json) -> Result<Vec<String>, String> {
    let cur = counts(current)?;
    let mut out = Vec::new();
    for name in names(&cur) {
        let loaded = VARIANTS.map(|v| cur.get(&format!("{name}.{v}.rows_loaded")).copied());
        let [Some(lru), Some(classes), Some(horizon), Some(harvest), Some(opt)] = loaded else {
            return Err(format!("{name}: a variant lacks rows_loaded"));
        };
        if opt > harvest.min(horizon).min(classes).min(lru) {
            out.push(format!(
                "{name}: OPT loads {opt} rows, more than an online variant"
            ));
        }
        if !(harvest <= horizon && horizon <= classes && classes <= lru) {
            out.push(format!(
                "{name}: rows loaded out of order: harvest {harvest}, \
                 classes_horizon {horizon}, classes {classes}, lru {lru}"
            ));
        }
    }
    for (key, &base) in &counts(baseline)? {
        let now = count(&cur, key)?;
        if key.ends_with(".measured_batches") && now != base {
            return Err(format!("{key}: {now} vs the baseline's {base}"));
        }
        let worse = if key.ends_with(".page_hits") {
            now < base
        } else {
            now > base
        };
        if worse {
            out.push(format!("{key} regressed {base} -> {now}"));
        }
    }
    Ok(out)
}

/// Per-batch table rows ([`REPLAY_HEADER`]), one per point and variant;
/// the topology columns are the point's.
pub fn replay_rows(doc: &Json) -> Result<Vec<Row>, String> {
    let c = counts(doc)?;
    let mut rows = Vec::new();
    for name in names(&c) {
        let batches = count(&c, &format!("{name}.measured_batches"))? as f64;
        let get = |key: String| count(&c, &format!("{name}.{key}")).map(|n| n as f64);
        let per = |key: String, unit: f64| get(key).map(|n| format!("{:.1}", n / unit / batches));
        for v in VARIANTS {
            let reuse = 1.0 - get(format!("{v}.rows_loaded"))? / get(format!("{v}.input_rows"))?;
            rows.push(
                Row::new(format!("{name} {v}"))
                    .cell(per(format!("{v}.input_rows"), 1.0)?)
                    .cell(per(format!("{v}.rows_loaded"), 1.0)?)
                    .cell(per(format!("{v}.ops"), 1.0)?)
                    .cell(per(format!("{v}.bytes"), 1024.0)?)
                    .cell(per(format!("{v}.rows_bridged"), 1.0)?)
                    .cell(format!("{reuse:.3}"))
                    .cell(per("topology.page_hits".into(), 1.0)?)
                    .cell(per("topology.fills".into(), 1.0)?),
            );
        }
    }
    Ok(rows)
}

/// Column headers of [`replay_rows`]; `hits` and `fills` are the
/// topology page cache's.
pub const REPLAY_HEADER: [&str; 8] = [
    "input", "loaded", "ops", "KiB", "bridged", "reuse", "hits", "fills",
];

#[cfg(test)]
mod tests {
    use super::*;
    use gnndrive_device::FeatureSlab;
    use gnndrive_graph::generate_graph;
    use gnndrive_sampling::InMemTopo;

    /// A small point: a 0.1-scale graph whose batches outgrow the slots
    /// over an epoch, so the variants differ.
    const SMALL: Point = Point {
        name: "small",
        budget_mib: 2,
        epoch_batches: 8,
        slots: 8_192,
        ahead: Ahead::RunAhead(6),
    };

    /// Rows `replay_buffer` loads through `fb`, harvesting in `harvest`'s
    /// windows if given.
    fn loads(
        fb: &FeatureBufferManager,
        epochs: &[Vec<MiniBatchSample>],
        pinned: usize,
        ahead: Ahead,
        harvest: Option<&ReadGeometry>,
    ) -> u64 {
        let mut n = 0;
        replay_buffer(fb, epochs, pinned, ahead, harvest, |_, _, p| {
            n += p.to_load.len() as u64
        });
        n
    }

    /// Two epochs of `batches` mini-batches of a quarter-scale
    /// papers100m-mini (fanouts 4,4,4, batch 32, ≈2 500 rows a batch), and
    /// its out-degrees.
    fn quarter_scale_epochs(batches: usize) -> (Vec<Vec<MiniBatchSample>>, Vec<u32>) {
        let spec = MiniDataset::Papers100M.spec_scaled(0.25);
        let g = generate_graph(
            spec.num_nodes,
            spec.num_edges,
            spec.num_classes,
            spec.intra_prob,
            spec.seed,
        );
        let degrees = g.topology.out_degrees();
        let sampler = NeighborSampler::new(
            Arc::new(InMemTopo::new(Arc::new(g.topology))),
            vec![4, 4, 4],
        );
        let train: Vec<NodeId> = (0..spec.num_nodes as NodeId).step_by(5).collect();
        let epochs = (0..2)
            .map(|epoch| {
                let plan = BatchPlan::new(&train, 32, epoch, 7);
                assert!(plan.num_batches() >= batches);
                (0..batches)
                    .map(|i| sampler.sample(i as u64, plan.batch(i), 7 ^ epoch))
                    .collect()
            })
            .collect();
        (epochs, degrees)
    }

    /// The deterministic count behind the standby classes: the same batch
    /// stream through the same buffer loads strictly fewer rows with
    /// popularity classes than through plain LRU, fewer again with the
    /// next batches announced, and fewer still with their rows harvested
    /// from `pm883_repro`'s bridged 512-byte windows. The stream is two
    /// 40-batch epochs through 12 288 slots, with three batches pinned and
    /// six announced.
    #[test]
    fn classes_and_announcements_load_fewer_rows_than_lru() {
        const SLOTS: usize = 12_288;
        const PINNED: usize = 3;
        let (epochs, degrees) = quarter_scale_epochs(40);
        let cfg = GnnDriveConfig::default();
        let slab = || Arc::new(FeatureSlab::new(SLOTS, 2));
        let classes = || FeatureBufferManager::with_out_degrees(slab(), &degrees, &cfg);
        let file_len = degrees.len() as u64 * 512;
        let op_cost = SsdProfile::pm883_repro().op_cost_bytes();
        let geometry = ReadGeometry::new(128, file_len, op_cost, 16 << 10, true, false);
        let [lru, classes, both, harvest] = [
            (
                FeatureBufferManager::new(slab(), degrees.len(), &cfg),
                0,
                None,
            ),
            (classes(), 0, None),
            (classes(), 6, None),
            (classes(), 6, Some(&geometry)),
        ]
        .map(|(fb, ahead, h)| loads(&fb, &epochs, PINNED, Ahead::Batches(ahead), h));
        assert!(
            harvest < both && both < classes && classes < lru,
            "rows loaded: LRU {lru}, classes {classes}, classes + announcements {both}, \
             + harvest {harvest}"
        );
    }

    /// The exact counts behind the run-ahead horizon: two 40- and two
    /// 160-batch epochs through 16 384 slots (≈6.5 batches, as io_bound's
    /// 32 768 slots hold ≈10.7 of its larger batches), three batches
    /// pinned. Announcing further ahead never loads more rows, up to the
    /// run-ahead horizon, which stops at the epoch's end or at twice the
    /// slots in announced rows. With one flat announced class instead of
    /// the next-use buckets, rows a far batch announced crowd out rows a
    /// near one needs as soon as the horizon outgrows the buffer, and loads
    /// climb back past six ahead.
    #[test]
    fn a_longer_horizon_never_loads_more_rows() {
        const SLOTS: usize = 16_384;
        const PINNED: usize = 3;
        // (epoch length, rows loaded six ahead, rows loaded running ahead)
        for (batches, six_ahead, run_ahead) in [(40, 46_309, 38_755), (160, 147_299, 106_363)] {
            let (epochs, degrees) = quarter_scale_epochs(batches);
            let cfg = GnnDriveConfig::default();
            let counts: Vec<(Ahead, u64)> = [0, 6, 12, 24, 48]
                .map(Ahead::Batches)
                .into_iter()
                .chain([Ahead::RunAhead(6)])
                .map(|ahead| {
                    let slab = Arc::new(FeatureSlab::new(SLOTS, 2));
                    let fb = FeatureBufferManager::with_out_degrees(slab, &degrees, &cfg);
                    (ahead, loads(&fb, &epochs, PINNED, ahead, None))
                })
                .collect();
            for w in counts.windows(2) {
                assert!(w[1].1 <= w[0].1, "{batches}-batch epochs: {counts:?}");
            }
            assert_eq!(
                (counts[1].1, counts[5].1),
                (six_ahead, run_ahead),
                "{counts:?}"
            );
        }
    }

    /// `doc` with one count of the small point mapped through `f`.
    fn with_count(doc: &Json, variant: &str, key: &str, f: impl Fn(u64) -> u64) -> Json {
        let mut doc = doc.clone();
        let mut points = doc.get("points").unwrap().clone();
        let mut point = points.get("small").unwrap().clone();
        let mut counts = point.get(variant).unwrap().clone();
        let v = counts.get(key).and_then(Json::as_u64).unwrap();
        counts.set(key, f(v).into());
        point.set(variant, counts);
        points.set("small", point);
        doc.set("points", points);
        doc
    }

    /// The replay is a pure function of its seed: two runs in one process
    /// serialize byte for byte alike and pass the check against each
    /// other. The check flags a count raised by one (and not one lowered),
    /// an OPT above the online variants, LRU below classes and classes +
    /// horizon below harvest.
    #[test]
    fn two_runs_serialize_identically_and_the_check_flags_one_more() {
        let doc = run_replay(0.1, &[SMALL]).unwrap();
        let again = run_replay(0.1, &[SMALL]).unwrap();
        assert_eq!(doc.to_json_string(), again.to_json_string());
        assert_eq!(check_replay(&doc, &again), Ok(vec![]));
        for (variant, key) in [
            ("lru", "ops"),
            ("classes_horizon", "rows_loaded"),
            ("harvest", "ops"),
            ("opt", "bytes"),
        ] {
            let worse = with_count(&doc, variant, key, |v| v + 1);
            let regs = check_replay(&doc, &worse).unwrap();
            assert_eq!(regs.len(), 1, "{regs:?}");
            assert!(regs[0].starts_with(&format!("small.{variant}.{key} regressed")));
            assert_eq!(check_replay(&worse, &doc), Ok(vec![]));
        }
        for (variant, error) in [
            ("opt", "OPT loads"),
            ("classes", "out of order"),
            ("classes_horizon", "out of order"),
        ] {
            let worse = with_count(&doc, variant, "rows_loaded", |_| u64::MAX);
            let lines = check_replay(&doc, &worse).unwrap();
            assert!(lines.iter().any(|l| l.contains(error)), "{lines:?}");
        }
    }
}
