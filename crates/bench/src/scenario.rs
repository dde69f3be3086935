//! Experimental points and uniform system construction.

use gnndrive_baselines::{Ginex, GinexConfig, MariusConfig, MariusGnn, PygPlus, PygPlusConfig};
use gnndrive_core::{GnnDriveConfig, Pipeline, StackConfig, TrainingSystem};
use gnndrive_device::GpuDevice;
use gnndrive_graph::{catalog::scaled_memory_budget, Dataset, MiniDataset};
use gnndrive_nn::ModelKind;
use gnndrive_storage::{MemoryGovernor, PageCache, SimSsd, SsdProfile};
use gnndrive_sync::{LockRank, OrderedMutex};
use std::collections::HashMap;
use std::sync::Arc;

/// Harness knobs from the environment (see crate docs).
#[derive(Debug, Clone)]
pub struct EnvKnobs {
    /// Extra dataset scale multiplier (`REPRO_SCALE`).
    pub scale: f64,
    /// Measured mini-batches per epoch (`REPRO_MAX_BATCHES`); `None` runs
    /// whole epochs (`REPRO_FULL=1`).
    pub max_batches: Option<usize>,
}

/// Read the `REPRO_*` environment variables.
pub fn env_knobs() -> EnvKnobs {
    let full = std::env::var("REPRO_FULL")
        .map(|v| v == "1")
        .unwrap_or(false);
    let scale = std::env::var("REPRO_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1.0);
    let max_batches = if full {
        None
    } else {
        Some(
            std::env::var("REPRO_MAX_BATCHES")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(12),
        )
    };
    EnvKnobs { scale, max_batches }
}

/// One experimental point.
#[derive(Debug, Clone)]
pub struct Scenario {
    pub dataset: MiniDataset,
    /// Extra node/edge scale multiplier on the mini analog.
    pub scale: f64,
    /// Feature dimension (paper default 128; MAG240M 768).
    pub dim: usize,
    pub model: ModelKind,
    pub hidden: usize,
    /// Paper-scale host memory in GB (scaled to MiB by the governor).
    pub memory_gb: u64,
    pub batch_size: usize,
    pub fanouts: Vec<usize>,
    pub ssd: SsdProfile,
    /// Override GNNDrive's feature-buffer slot count (Fig 12 sweeps it).
    pub fb_slots_override: Option<usize>,
}

impl Scenario {
    /// The paper's default configuration for `dataset`: dim 128 (768 for
    /// MAG240M), GraphSAGE, 32 GB host memory, fanouts scaled from the
    /// paper's (10,10,10) to (4,4,4) and batch from 1000 to 32 (see
    /// DESIGN.md on batch-subsystem scaling).
    pub fn default_for(dataset: MiniDataset, knobs: &EnvKnobs) -> Self {
        let spec = dataset.spec();
        Scenario {
            dataset,
            scale: knobs.scale,
            dim: spec.feat_dim,
            model: ModelKind::GraphSage,
            hidden: 16,
            memory_gb: 32,
            batch_size: 32,
            fanouts: vec![4, 4, 4],
            ssd: SsdProfile::pm883_repro(),
            fb_slots_override: None,
        }
    }

    /// Host budget in bytes, scaled with the dataset scale so the
    /// dataset-to-memory ratio stays at the paper's value.
    pub fn budget_bytes(&self) -> u64 {
        let base = scaled_memory_budget(self.memory_gb) as f64;
        // Feature bytes scale with dim relative to the analog's default.
        (base * self.scale) as u64
    }

    /// The shared storage-stack knobs of this experimental point, in the
    /// form both the pipeline builder ([`PipelineBuilder::with_stack`]
    /// [`gnndrive_core::PipelineBuilder::with_stack`]) and the serving
    /// tier's `ServeConfig` consume — one struct, so a trainer and a
    /// server co-located on this scenario cannot drift apart on them.
    pub fn stack(&self) -> StackConfig {
        StackConfig::default()
            .with_memory_budget(self.budget_bytes())
            .with_fanouts(self.fanouts.clone())
            .with_batch_size(self.batch_size)
    }

    fn dataset_key(&self) -> DatasetKey {
        (
            self.dataset.name().to_string(),
            self.dim,
            (self.scale * 1_000_000.0) as u64,
            // The SimSsd lives inside the cached Dataset, so the profile
            // must be part of the key — otherwise a scenario's `ssd`
            // override is silently dropped whenever an earlier scenario
            // already built the same graph with another profile.
            format!("{}:{}", self.ssd.name, self.ssd.read_latency.as_nanos()),
        )
    }
}

type DatasetKey = (String, usize, u64, String);
static DATASET_CACHE: OrderedMutex<Option<HashMap<DatasetKey, Arc<Dataset>>>> =
    OrderedMutex::new(LockRank::Pipeline, None);

/// Build (or fetch from the process cache) the dataset of a scenario.
/// Each cached dataset owns its own simulated SSD.
pub fn dataset_for(sc: &Scenario) -> Arc<Dataset> {
    let key = sc.dataset_key();
    let mut cache = DATASET_CACHE.lock();
    let map = cache.get_or_insert_with(HashMap::new);
    if let Some(ds) = map.get(&key) {
        return Arc::clone(ds);
    }
    let spec = sc.dataset.spec_scaled(sc.scale).with_dim(sc.dim);
    let ssd = SimSsd::new(sc.ssd.clone());
    let ds = Arc::new(Dataset::build(spec, ssd));
    map.insert(key, Arc::clone(&ds));
    ds
}

/// The five systems the paper evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemKind {
    GnnDriveGpu,
    GnnDriveCpu,
    PygPlus,
    Ginex,
    Marius,
}

impl SystemKind {
    pub const ALL: [SystemKind; 5] = [
        SystemKind::GnnDriveGpu,
        SystemKind::GnnDriveCpu,
        SystemKind::PygPlus,
        SystemKind::Ginex,
        SystemKind::Marius,
    ];

    pub const MAIN_FOUR: [SystemKind; 4] = [
        SystemKind::PygPlus,
        SystemKind::Ginex,
        SystemKind::GnnDriveGpu,
        SystemKind::GnnDriveCpu,
    ];

    pub fn name(self) -> &'static str {
        match self {
            SystemKind::GnnDriveGpu => "GNNDrive-GPU",
            SystemKind::GnnDriveCpu => "GNNDrive-CPU",
            SystemKind::PygPlus => "PyG+",
            SystemKind::Ginex => "Ginex",
            SystemKind::Marius => "MariusGNN",
        }
    }

    /// The system a command-line name selects, in any case: `gnndrive`
    /// (the GPU variant), `gnndrive-gpu`, `gnndrive-cpu`, `pyg+`/`pygplus`,
    /// `ginex`, `marius`/`mariusgnn`.
    pub fn by_name(name: &str) -> Option<SystemKind> {
        match name.to_ascii_lowercase().as_str() {
            "gnndrive-gpu" | "gnndrive" => Some(SystemKind::GnnDriveGpu),
            "gnndrive-cpu" => Some(SystemKind::GnnDriveCpu),
            "pyg+" | "pygplus" => Some(SystemKind::PygPlus),
            "ginex" => Some(SystemKind::Ginex),
            "marius" | "mariusgnn" => Some(SystemKind::Marius),
            _ => None,
        }
    }
}

/// The dataset analog a name selects, in any case (`papers100m-mini`, …).
pub fn dataset_by_name(name: &str) -> Option<MiniDataset> {
    MiniDataset::ALL
        .into_iter()
        .find(|d| d.name().eq_ignore_ascii_case(name))
}

/// The model a name selects, in any case: `sage`/`graphsage`, `gcn`, `gat`.
pub fn model_by_name(name: &str) -> Option<ModelKind> {
    match name.to_ascii_lowercase().as_str() {
        "sage" | "graphsage" => Some(ModelKind::GraphSage),
        "gcn" => Some(ModelKind::Gcn),
        "gat" => Some(ModelKind::Gat),
        _ => None,
    }
}

/// Construct a system for a scenario over `ds`. Every system gets its own
/// governor (the host-memory budget), page cache, and device, so sweep
/// points are independent. Returns `Err(reason)` on OOM at construction,
/// which the harness reports like the paper reports OOM cells.
pub fn build_system(
    kind: SystemKind,
    sc: &Scenario,
    ds: &Arc<Dataset>,
) -> Result<Box<dyn TrainingSystem>, String> {
    let governor = MemoryGovernor::new(sc.budget_bytes());
    let cache = PageCache::new(Arc::clone(&ds.ssd), Arc::clone(&governor));
    let seed = 0x5EED ^ sc.dataset.spec().seed;
    match kind {
        SystemKind::GnnDriveGpu | SystemKind::GnnDriveCpu => {
            let gpu = kind == SystemKind::GnnDriveGpu;
            build_gnndrive_pipeline(sc, ds, gpu).map(|p| Box::new(p) as Box<dyn TrainingSystem>)
        }
        SystemKind::PygPlus => {
            let cfg = PygPlusConfig {
                num_workers: 4,
                prefetch: 4,
                fanouts: sc.fanouts.clone(),
                batch_size: sc.batch_size,
                seed,
            };
            Ok(Box::new(PygPlus::new(
                Arc::clone(ds),
                sc.model,
                sc.hidden,
                cfg,
                GpuDevice::rtx3090(),
                governor,
                cache,
            )))
        }
        SystemKind::Ginex => {
            // Paper defaults: 6 GB neighbor + 24 GB feature cache at 32 GB
            // memory; for other budgets the two caches take ≥85% of it
            // (§5 "Memory Capacity").
            let budget = sc.budget_bytes();
            let (neigh, feat) = if sc.memory_gb == 32 {
                (budget * 6 / 32, budget * 24 / 32)
            } else {
                (budget * 17 / 100, budget * 68 / 100)
            };
            let cfg = GinexConfig {
                superbatch_size: 25,
                neighbor_cache_bytes: neigh,
                feature_cache_bytes: feat,
                io_threads: 8,
                num_samplers: 4,
                fanouts: sc.fanouts.clone(),
                batch_size: sc.batch_size,
                seed,
            };
            Ginex::new(
                Arc::clone(ds),
                sc.model,
                sc.hidden,
                cfg,
                GpuDevice::rtx3090(),
                governor,
                cache,
            )
            .map(|g| Box::new(g) as Box<dyn TrainingSystem>)
            .map_err(|e| format!("OOM: {e}"))
        }
        SystemKind::Marius => {
            let cfg = MariusConfig {
                num_partitions: 12,
                buffer_partitions: 4,
                fanouts: sc.fanouts.clone(),
                batch_size: sc.batch_size,
                seed,
            };
            MariusGnn::new(
                Arc::clone(ds),
                sc.model,
                sc.hidden,
                cfg,
                GpuDevice::rtx3090(),
                governor,
            )
            .map(|m| Box::new(m) as Box<dyn TrainingSystem>)
            .map_err(|e| format!("OOM: {e}"))
        }
    }
}

/// Construct a concrete GNNDrive [`Pipeline`] for a scenario — the same
/// configuration [`build_system`] uses, but returning the concrete type so
/// callers reach the checkpoint/resume API
/// ([`Pipeline::checkpoint`] / [`Pipeline::restore`] /
/// [`Pipeline::train_epoch_range`]) the `TrainingSystem` trait does not
/// expose.
pub fn build_gnndrive_pipeline(
    sc: &Scenario,
    ds: &Arc<Dataset>,
    gpu: bool,
) -> Result<Pipeline, String> {
    let stack = sc.stack();
    let governor = stack.governor();
    let cache = PageCache::new(Arc::clone(&ds.ssd), Arc::clone(&governor));
    let seed = 0x5EED ^ sc.dataset.spec().seed;
    let device = if gpu {
        GpuDevice::rtx3090()
    } else {
        GpuDevice::cpu()
    };
    // Feature buffer ≈ 4 batches of worst-case unique nodes, the
    // paper's ~2.38 GB default at reproduction scale; staging is a
    // small bounded region (the point of the design). CPU mode
    // holds the buffer in host memory, so it runs 2 extractors and
    // a smaller buffer to respect the Ne × Mb reservation within
    // the host budget (§4.4).
    let extractors = if gpu { 4 } else { 2 };
    let slots = sc
        .fb_slots_override
        .unwrap_or_else(|| feature_buffer_slots_for(sc, extractors));
    // The staging buffer is deliberately small (its bound is the
    // design, §4.2); at reduced scales it shrinks with the budget.
    let staging = (sc.budget_bytes() / 32).clamp(64 * 1024, 1024 * 1024);
    let cfg = GnnDriveConfig {
        num_samplers: 4,
        num_extractors: extractors,
        feature_buffer_slots: slots,
        staging_bytes_per_extractor: staging,
        seed,
        ..Default::default()
    };
    // `with_stack` overlays the shared knobs (fanouts, batch size, budget)
    // from the scenario's StackConfig; the explicit governor keeps the
    // page cache and the pipeline on the same instance.
    Pipeline::builder(Arc::clone(ds), device)
        .with_model(sc.model, sc.hidden)
        .with_config(cfg)
        .with_stack(&stack)
        .with_gpu_mode(gpu)
        .with_governor(governor)
        .with_page_cache(cache)
        .build()
        .map_err(|e| e.to_string())
}

/// Build `workers` identical GNNDrive pipelines for data-parallel training
/// (Fig 13). Each worker gets its own device; topology page cache and the
/// host governor are shared, as in the paper's multi-subprocess setup.
pub fn build_gnndrive_workers(
    sc: &Scenario,
    ds: &Arc<Dataset>,
    workers: usize,
    gpu: bool,
    k80_era: bool,
) -> Result<Vec<Pipeline>, String> {
    let governor = MemoryGovernor::new(sc.budget_bytes() * 8); // 256 GB-class host (paper: "not restricted")
    let cache = PageCache::new(Arc::clone(&ds.ssd), Arc::clone(&governor));
    let seed = 0xDA7A ^ sc.dataset.spec().seed;
    let extractors = if gpu { 4 } else { 2 };
    let mut out = Vec::with_capacity(workers);
    for _ in 0..workers {
        let device = match (gpu, k80_era) {
            (true, true) => GpuDevice::k80(),
            (true, false) => GpuDevice::rtx3090(),
            (false, _) => GpuDevice::cpu(),
        };
        let cfg = GnnDriveConfig {
            num_samplers: 2,
            num_extractors: extractors,
            feature_buffer_slots: feature_buffer_slots_for(sc, extractors),
            staging_bytes_per_extractor: 1024 * 1024,
            fanouts: sc.fanouts.clone(),
            batch_size: sc.batch_size,
            seed,
            ..Default::default()
        };
        let p = Pipeline::builder(Arc::clone(ds), device)
            .with_model(sc.model, sc.hidden)
            .with_config(cfg)
            .with_gpu_mode(gpu)
            .with_governor(Arc::clone(&governor))
            .with_page_cache(Arc::clone(&cache))
            .build()
            .map_err(|e| e.to_string())?;
        out.push(p);
    }
    Ok(out)
}

/// Worst-case unique nodes of one mini-batch (`Mb` in the paper's
/// deadlock reservation): batch_size × Σ fanout products, plus the seeds.
pub fn worst_case_batch_nodes(sc: &Scenario) -> usize {
    let per_seed: usize = sc
        .fanouts
        .iter()
        .scan(1usize, |acc, &f| {
            *acc *= f;
            Some(*acc)
        })
        .sum::<usize>()
        + 1;
    sc.batch_size * per_seed
}

/// Feature-buffer sizing: ≥ Ne × Mb for the deadlock reservation (§4.2),
/// then rounded up a power of two — about 4 worst-case batches at the
/// default Ne = 4, mirroring the paper's ~2.38 GB default (≈ 4.2 × Mb).
pub fn feature_buffer_slots_for(sc: &Scenario, extractors: usize) -> usize {
    let mb = worst_case_batch_nodes(sc).min(sc.dataset.spec_scaled(sc.scale).num_nodes);
    (extractors * mb).next_power_of_two()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn knobs() -> EnvKnobs {
        EnvKnobs {
            scale: 0.05,
            max_batches: Some(2),
        }
    }

    #[test]
    fn dataset_cache_reuses_instances() {
        let sc = Scenario::default_for(MiniDataset::Twitter, &knobs());
        let a = dataset_for(&sc);
        let b = dataset_for(&sc);
        assert!(Arc::ptr_eq(&a, &b));
        let mut sc2 = sc.clone();
        sc2.dim = 64;
        let c = dataset_for(&sc2);
        assert!(!Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn all_five_systems_build_and_run_a_batch() {
        let sc = Scenario {
            memory_gb: 128, // roomy so every system builds at tiny scale
            ..Scenario::default_for(MiniDataset::Twitter, &knobs())
        };
        let ds = dataset_for(&sc);
        for kind in SystemKind::ALL {
            let mut sys = build_system(kind, &sc, &ds)
                .unwrap_or_else(|e| panic!("{} failed to build: {e}", kind.name()));
            let r = sys.train_epoch(0, Some(2));
            assert!(r.error.is_none(), "{}: {:?}", kind.name(), r.error);
            assert!(r.batches >= 1, "{} ran no batches", kind.name());
            assert!(r.loss.is_finite());
        }
    }

    #[test]
    fn budget_scales_with_dataset_scale() {
        let mut sc = Scenario::default_for(MiniDataset::Papers100M, &knobs());
        sc.scale = 1.0;
        let full = sc.budget_bytes();
        sc.scale = 0.25;
        assert_eq!(sc.budget_bytes(), full / 4);
    }

    #[test]
    fn feature_buffer_covers_reservation() {
        let sc = Scenario::default_for(MiniDataset::Papers100M, &knobs());
        assert!(feature_buffer_slots_for(&sc, 4) >= 4 * worst_case_batch_nodes(&sc));
        assert!(feature_buffer_slots_for(&sc, 2) >= 2 * worst_case_batch_nodes(&sc));
    }
}
