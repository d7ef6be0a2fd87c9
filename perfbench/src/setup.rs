//! Building a served galaxy pyramid, one timed public call per layer.

use kyrix_core::compile;
use kyrix_lod::{build_pyramid, build_pyramid_on_shards, lod_app, LodConfig, LodPyramid};
use kyrix_parallel::Partitioner;
use kyrix_server::{BoxPolicy, FetchPlan, KyrixServer, PlanPolicy, ServerConfig, TileDesign};
use kyrix_storage::Database;
use kyrix_workload::{galaxy_rows, galaxy_schema, index_galaxy, load_zipf_galaxy, GalaxyConfig};
use std::sync::Arc;
use std::time::Instant;

/// The viewport every session uses (canvas units).
pub const VIEWPORT: (f64, f64) = (1024.0, 1024.0);
/// Pyramid height above the raw level.
pub const LEVELS: usize = 3;
/// Cluster spacing on every clustered level.
pub const SPACING: f64 = 24.0;

/// What to build: the galaxy size and, for a sharded build, the grid.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub galaxy: GalaxyConfig,
    /// `(cols, rows)` of the `SpatialGrid` partitioning; `None` builds
    /// and serves single-node.
    pub grid: Option<(u32, u32)>,
}

impl Scale {
    pub fn lod(&self) -> LodConfig {
        LodConfig::new("galaxy", self.galaxy.width, self.galaxy.height, LEVELS)
            .with_measure("mass")
            .with_measure("lum")
            .with_spacing(SPACING)
    }
}

/// Wall time of each set-up stage, seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Generate the galaxy rows, load them and build the raw spatial index.
    pub generate_s: f64,
    /// `build_pyramid` / `build_pyramid_on_shards`.
    pub build_s: f64,
    /// `compile` of the generated LoD app.
    pub compile_s: f64,
    /// `KyrixServer::launch` / `launch_sharded`.
    pub launch_s: f64,
}

impl SetupTimes {
    pub fn total_s(&self) -> f64 {
        self.generate_s + self.build_s + self.compile_s + self.launch_s
    }
}

/// A launched server over a freshly built pyramid.
pub struct Served {
    pub server: Arc<KyrixServer>,
    /// The pyramid's maintenance handle (single node only is mutated).
    pub pyramid: LodPyramid,
    pub lod: LodConfig,
    pub times: SetupTimes,
}

/// The plan policy every workload serves with: tiles on the clustered
/// levels, exact dynamic boxes on the raw level, as the LoD app hints.
/// Deterministic, unlike `Measured`, whose choice can flip on near-ties.
/// Prefetch stays off (the `ServerConfig` default).
fn config() -> ServerConfig {
    ServerConfig::from_policy(PlanPolicy::SpecHints {
        tiles: FetchPlan::StaticTiles {
            size: VIEWPORT.0,
            design: TileDesign::SpatialIndex,
        },
        boxes: FetchPlan::DynamicBox {
            policy: BoxPolicy::Exact,
        },
    })
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Generate, build, compile and launch, timing each stage.
pub fn build(scale: &Scale) -> Result<Served, String> {
    let lod = scale.lod();
    let g = &scale.galaxy;
    let mut times = SetupTimes::default();
    let served = match scale.grid {
        None => {
            let t = Instant::now();
            let mut db = Database::new();
            load_zipf_galaxy(&mut db, g).map_err(|e| format!("load galaxy: {e}"))?;
            index_galaxy(&mut db).map_err(|e| format!("index galaxy: {e}"))?;
            times.generate_s = secs(t);
            let t = Instant::now();
            let pyramid =
                build_pyramid(&mut db, &lod).map_err(|e| format!("build pyramid: {e}"))?;
            times.build_s = secs(t);
            let t = Instant::now();
            let app =
                compile(&lod_app(&lod, VIEWPORT), &db).map_err(|e| format!("compile: {e}"))?;
            times.compile_s = secs(t);
            let t = Instant::now();
            let (server, _) =
                KyrixServer::launch(app, db, config()).map_err(|e| format!("launch: {e}"))?;
            times.launch_s = secs(t);
            Served {
                server: Arc::new(server),
                pyramid,
                lod,
                times,
            }
        }
        Some((cols, rows)) => {
            let n = (cols * rows) as usize;
            let part = Partitioner::SpatialGrid {
                x_column: "x".into(),
                y_column: "y".into(),
                cols,
                rows,
                width: g.width,
                height: g.height,
            };
            let t = Instant::now();
            let schema = galaxy_schema();
            let mut shards = Vec::with_capacity(n);
            for _ in 0..n {
                let mut db = Database::new();
                db.create_table("galaxy", schema.clone())
                    .map_err(|e| format!("create shard table: {e}"))?;
                shards.push(db);
            }
            for row in galaxy_rows(g) {
                let s = part
                    .route(&schema, &row, n)
                    .map_err(|e| format!("route row: {e}"))?;
                shards[s]
                    .insert("galaxy", row)
                    .map_err(|e| format!("insert row: {e}"))?;
            }
            for db in &mut shards {
                index_galaxy(db).map_err(|e| format!("index galaxy: {e}"))?;
            }
            times.generate_s = secs(t);
            let t = Instant::now();
            let pyramid = build_pyramid_on_shards(&mut shards, &part, &lod)
                .map_err(|e| format!("build pyramid on shards: {e}"))?;
            times.build_s = secs(t);
            let router = pyramid
                .shard_router()
                .ok_or("sharded pyramid has no router")?
                .clone();
            let t = Instant::now();
            let app = compile(&lod_app(&lod, VIEWPORT), &shards[0])
                .map_err(|e| format!("compile: {e}"))?;
            times.compile_s = secs(t);
            let t = Instant::now();
            let server = KyrixServer::launch_sharded(app, shards, router, config())
                .map_err(|e| format!("launch sharded: {e}"))?;
            times.launch_s = secs(t);
            Served {
                server: Arc::new(server),
                pyramid,
                lod,
                times,
            }
        }
    };
    Ok(served)
}
