//! Properties of `fetch_region` across shard grids.
//!
//! * Against an independent oracle: on 1×1, 2×1 and 2×2 grids, under
//!   every fetch plan (and, on one shard, over materialized and tuple–tile
//!   mapping stores too), a region fetch at a pinned view returns exactly
//!   the rows an unindexed range scan of that view plus an exact mark-box
//!   test finds — also right after `mutate_shards` inserts a point on a
//!   tile corner or shard seam, and after it deletes it again.
//! * Across grids: a scatter-gather fetch over 2, 4 or 8 shards returns the
//!   same row *multiset* as the one-shard server, whose statements skip the
//!   coordinator merge.
//!
//! Genuinely duplicated raw rows (two marks at the same position,
//! including on a shard boundary) must survive as two rows, and the
//! synthesized tuple ids must still be unique within each response after
//! the coordinator merge renumbers them.

use kyrix_core::{
    compile, AppSpec, CanvasSpec, LayerSpec, MarkEncoding, PlacementSpec, RenderSpec, TransformSpec,
};
use kyrix_parallel::{Partitioner, QueryRouter};
use kyrix_server::{
    BoxPolicy, DirtyRegion, FetchPlan, KyrixServer, LayerStore, PlanPolicy, ServerConfig,
    SnapshotView, TileDesign, Tiling,
};
use kyrix_storage::{DataType, Database, IndexKind, Rect, Row, Schema, SpatialCols, Value};
use proptest::prelude::*;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Mutex, OnceLock};

const TILE: f64 = 10.0;
const EXTENT: f64 = 50.0;

fn dots_schema() -> Schema {
    Schema::empty()
        .with("id", DataType::Int)
        .with("x", DataType::Float)
        .with("y", DataType::Float)
}

/// Dots on a 50x50 integer grid (1x1 boxes: every dot at a multiple of
/// the tile size straddles a tile edge), plus deliberate duplicate rows —
/// one pair on a tile corner, one in a tile interior, one exactly on the
/// 2x2 grid's shard boundary.
fn dots_rows() -> Vec<Row> {
    let mut rows = Vec::new();
    let mut insert = |id: i64, x: f64, y: f64| {
        rows.push(Row::new(vec![
            Value::Int(id),
            Value::Float(x),
            Value::Float(y),
        ]));
    };
    for i in 0..2500i64 {
        insert(i, (i % 50) as f64, (i / 50) as f64);
    }
    insert(9000, 20.0, 20.0);
    insert(9000, 20.0, 20.0);
    insert(9001, 13.5, 7.5);
    insert(9001, 13.5, 7.5);
    insert(9002, 25.0, 25.0);
    insert(9002, 25.0, 25.0);
    rows
}

fn index_dots(db: &mut Database) {
    db.create_index(
        "dots",
        "dots_xy",
        IndexKind::Spatial(SpatialCols::Point {
            x: "x".into(),
            y: "y".into(),
        }),
    )
    .unwrap();
}

fn dots_app(db: &Database) -> kyrix_core::CompiledApp {
    let spec = AppSpec::new("propgrid")
        .add_transform(TransformSpec::query("t", "SELECT * FROM dots"))
        .add_canvas(
            CanvasSpec::new("main", EXTENT, EXTENT).layer(LayerSpec::dynamic(
                "t",
                PlacementSpec::point("x", "y"),
                RenderSpec::Marks(MarkEncoding::circle()),
            )),
        )
        .initial("main", 25.0, 25.0)
        .viewport(10.0, 10.0);
    compile(&spec, db).unwrap()
}

fn config() -> ServerConfig {
    ServerConfig::new(FetchPlan::StaticTiles {
        size: TILE,
        design: TileDesign::SpatialIndex,
    })
}

/// The one-shard reference plus one sharded server per grid in
/// {2 (2x1), 4 (2x2), 8 (4x2)} — identical rows, plan, and app.
fn servers() -> &'static (KyrixServer, Vec<KyrixServer>) {
    static SERVERS: OnceLock<(KyrixServer, Vec<KyrixServer>)> = OnceLock::new();
    SERVERS.get_or_init(|| {
        let rows = dots_rows();
        let schema = dots_schema();

        let mut db = Database::new();
        db.create_table("dots", schema.clone()).unwrap();
        for row in &rows {
            db.insert("dots", row.clone()).unwrap();
        }
        index_dots(&mut db);
        let app = dots_app(&db);
        let (single, reports) = KyrixServer::launch(app, db, config()).unwrap();
        assert!(
            reports[0].skipped_separable,
            "the property targets the SeparableRaw store"
        );

        let mut sharded = Vec::new();
        for (cols, grid_rows) in [(2u32, 1u32), (2, 2), (4, 2)] {
            let n = (cols * grid_rows) as usize;
            let part = Partitioner::SpatialGrid {
                x_column: "x".into(),
                y_column: "y".into(),
                cols,
                rows: grid_rows,
                width: EXTENT,
                height: EXTENT,
            };
            let mut shards: Vec<Database> = (0..n)
                .map(|_| {
                    let mut db = Database::new();
                    db.create_table("dots", schema.clone()).unwrap();
                    db
                })
                .collect();
            for row in &rows {
                let s = part.route(&schema, row, n).unwrap();
                shards[s].insert("dots", row.clone()).unwrap();
            }
            for db in &mut shards {
                index_dots(db);
            }
            let app = dots_app(&shards[0]);
            let mut router = QueryRouter::new(n).unwrap();
            router.register("dots", part).unwrap();
            let server = KyrixServer::launch_sharded(app, shards, router, config()).unwrap();
            assert_eq!(server.shard_count(), n);
            sharded.push(server);
        }
        (single, sharded)
    })
}

/// Sorted multiset of row contents, ignoring the synthesized trailing
/// tuple_id (its numbering differs between backends).
fn content_multiset(rows: &[Row], width: usize) -> Vec<Vec<u8>> {
    let mut keys: Vec<Vec<u8>> = rows
        .iter()
        .map(|r| Row::new(r.values[..width - 1].to_vec()).encode())
        .collect();
    keys.sort();
    keys
}

/// The 2x2-style grid of `cols` by `rows` shards over the dots canvas.
fn grid(cols: u32, rows: u32) -> Partitioner {
    Partitioner::SpatialGrid {
        x_column: "x".into(),
        y_column: "y".into(),
        cols,
        rows,
        width: EXTENT,
        height: EXTENT,
    }
}

/// The dots rows spread over one database per cell of `part`, each with
/// the raw spatial index.
fn dots_shards(part: &Partitioner) -> Vec<Database> {
    let schema = dots_schema();
    let n = part.shard_count(0);
    let mut shards: Vec<Database> = (0..n)
        .map(|_| {
            let mut db = Database::new();
            db.create_table("dots", schema.clone()).unwrap();
            db
        })
        .collect();
    for row in dots_rows() {
        let s = part.route(&schema, &row, n).unwrap();
        shards[s].insert("dots", row).unwrap();
    }
    for db in &mut shards {
        index_dots(db);
    }
    shards
}

const TILES: FetchPlan = FetchPlan::StaticTiles {
    size: TILE,
    design: TileDesign::SpatialIndex,
};
const MAPPING: FetchPlan = FetchPlan::StaticTiles {
    size: TILE,
    design: TileDesign::TupleTileMapping,
};
const EXACT: FetchPlan = FetchPlan::DynamicBox {
    policy: BoxPolicy::Exact,
};
const PCT: FetchPlan = FetchPlan::DynamicBox {
    policy: BoxPolicy::PctLarger(0.5),
};
const DENSE: FetchPlan = FetchPlan::DynamicBox {
    policy: BoxPolicy::DensityAdaptive {
        target_tuples: 60,
        max_pct: 1.0,
    },
};

/// Canvases every grid serves: the separable `SELECT *` layer under each
/// spatial plan.
const SEPARABLE: [(&str, &str, FetchPlan); 4] = [
    ("tiles", "raw", TILES),
    ("dbox", "raw", EXACT),
    ("pct", "raw", PCT),
    ("dense", "raw", DENSE),
];

/// Canvases only one shard can serve: tuple–tile mapping tables, and a
/// projected transform that must be materialized.
const ONE_SHARD_ONLY: [(&str, &str, FetchPlan); 4] = [
    ("mapping", "raw", MAPPING),
    ("mat_tiles", "projected", TILES),
    ("mat_dbox", "projected", EXACT),
    ("mat_mapping", "projected", MAPPING),
];

/// One canvas per `(canvas, transform, plan)` entry, and the policy that
/// pins each canvas to its plan.
fn oracle_app(
    db: &Database,
    canvases: &[(&str, &str, FetchPlan)],
) -> (kyrix_core::CompiledApp, ServerConfig) {
    let mut spec = AppSpec::new("oracle")
        .add_transform(TransformSpec::query("raw", "SELECT * FROM dots"))
        .add_transform(TransformSpec::query(
            "projected",
            "SELECT id, x, y FROM dots",
        ));
    for (canvas, transform, _) in canvases {
        spec = spec.add_canvas(
            CanvasSpec::new(*canvas, EXTENT, EXTENT).layer(LayerSpec::dynamic(
                *transform,
                PlacementSpec::point("x", "y"),
                RenderSpec::Marks(MarkEncoding::circle()),
            )),
        );
    }
    let spec = spec.initial(canvases[0].0, 25.0, 25.0).viewport(10.0, 10.0);
    let policy = PlanPolicy::PerLayer {
        default: EXACT,
        overrides: canvases
            .iter()
            .map(|(canvas, _, plan)| ((canvas.to_string(), 0), *plan))
            .collect(),
    };
    (
        compile(&spec, db).unwrap(),
        ServerConfig::from_policy(policy),
    )
}

/// A server under test, the grid it was partitioned by, and its canvases.
struct OracleServer {
    server: KyrixServer,
    part: Partitioner,
    canvases: Vec<(&'static str, &'static str, FetchPlan)>,
}

/// Mutable separable servers on 1x1 (through `launch`), 2x1 and 2x2
/// grids, plus one 1x1 server that also carries the one-shard-only
/// stores (its `dots` feeds materialized copies, so it is not mutated).
fn oracle_servers() -> &'static Mutex<Vec<OracleServer>> {
    static SERVERS: OnceLock<Mutex<Vec<OracleServer>>> = OnceLock::new();
    SERVERS.get_or_init(|| {
        let mut out = Vec::new();
        for (cols, rows) in [(1u32, 1u32), (2, 1), (2, 2)] {
            let part = grid(cols, rows);
            let shards = dots_shards(&part);
            let (app, config) = oracle_app(&shards[0], &SEPARABLE);
            let server = if shards.len() == 1 {
                let db = shards.into_iter().next().unwrap();
                KyrixServer::launch(app, db, config).unwrap().0
            } else {
                let mut router = QueryRouter::new(shards.len()).unwrap();
                router.register("dots", part.clone()).unwrap();
                KyrixServer::launch_sharded(app, shards, router, config).unwrap()
            };
            for (canvas, _, _) in SEPARABLE {
                assert!(matches!(
                    server.store(canvas, 0).unwrap(),
                    LayerStore::SeparableRaw { .. }
                ));
            }
            out.push(OracleServer {
                server,
                part,
                canvases: SEPARABLE.to_vec(),
            });
        }
        let part = grid(1, 1);
        let db = dots_shards(&part).pop().unwrap();
        let canvases: Vec<_> = SEPARABLE.iter().chain(&ONE_SHARD_ONLY).copied().collect();
        let (app, config) = oracle_app(&db, &canvases);
        let server = KyrixServer::launch(app, db, config).unwrap().0;
        for (canvas, want) in [
            ("mapping", "mapping"),
            ("mat_tiles", "spatial"),
            ("mat_dbox", "spatial"),
            ("mat_mapping", "mapping"),
        ] {
            let got = match server.store(canvas, 0).unwrap() {
                LayerStore::Spatial { .. } => "spatial",
                LayerStore::TileMapping { .. } => "mapping",
                _ => "other",
            };
            assert_eq!(got, want, "store of canvas {canvas}");
        }
        out.push(OracleServer {
            server,
            part,
            canvases,
        });
        Mutex::new(out)
    })
}

/// Side of every dot's square mark (`PlacementSpec::point`).
const MARK: f64 = 1.0;

/// The oracle: rows of `dots` whose mark box intersects `rect`, found by
/// a range scan on the unindexed coordinate columns of `view` (a
/// broadcast to every shard) and the exact box test — as encoded
/// `(id, x, y)` rows, sorted.
fn naive_rows(view: &dyn SnapshotView, rect: &Rect) -> Vec<Vec<u8>> {
    let reach = MARK / 2.0 + 1.0;
    let result = view
        .query(
            "SELECT * FROM dots WHERE x >= $1 AND x <= $2 AND y >= $3 AND y <= $4",
            &[
                Value::Float(rect.min_x - reach),
                Value::Float(rect.max_x + reach),
                Value::Float(rect.min_y - reach),
                Value::Float(rect.max_y + reach),
            ],
        )
        .unwrap();
    let mut rows: Vec<Vec<u8>> = result
        .rows
        .iter()
        .filter(|row| {
            let (x, y) = (row.get(1).as_f64().unwrap(), row.get(2).as_f64().unwrap());
            Rect::centered(x, y, MARK, MARK).intersects(rect)
        })
        .map(|row| row.encode())
        .collect();
    rows.sort();
    rows
}

/// The region a plan must cover for `vp`, where it follows from the plan
/// alone: the covering tiles, or the clamped exact / inflated box.
fn expected_region(plan: &FetchPlan, vp: &Rect) -> Option<Rect> {
    let bounds = Rect::new(0.0, 0.0, EXTENT, EXTENT);
    match plan {
        FetchPlan::StaticTiles { size, .. } => {
            let tiling = Tiling::new(*size);
            let tiles = tiling.covering(vp).unwrap();
            Some(
                tiles
                    .into_iter()
                    .fold(Rect::empty(), |acc, t| acc.union(&tiling.tile_rect(t))),
            )
        }
        FetchPlan::DynamicBox { policy } => match policy {
            BoxPolicy::DensityAdaptive { .. } => None,
            _ => Some(policy.compute(vp, &bounds, None)),
        },
    }
}

/// Fetch `vp` on every canvas of `s` at a freshly pinned view and check
/// the response against the oracle on that same view.
fn check_against_oracle(s: &OracleServer, vp: &Rect, when: &str) {
    let pin = s.server.snapshot();
    for (canvas, _, plan) in &s.canvases {
        let region = s.server.fetch_region_at(&*pin, canvas, 0, vp).unwrap();
        let at = format!(
            "{canvas} on {} shards, viewport {vp:?}, {when}",
            s.server.shard_count()
        );
        // a box-cache hit serves a shelved box that contains the viewport
        if region.metrics.cache_hits > 0 && matches!(plan, FetchPlan::DynamicBox { .. }) {
            assert!(region.rect.contains(vp), "shelved box: {at}");
        } else if let Some(want) = expected_region(plan, vp) {
            assert_eq!(region.rect, want, "fetched region: {at}");
        }
        let layout = s.server.store(canvas, 0).unwrap().layout().unwrap();
        let mut got: Vec<Vec<u8>> = region
            .rows
            .iter()
            .map(|r| Row::new(r.values[..layout.n_data_cols].to_vec()).encode())
            .collect();
        got.sort();
        assert_eq!(got, naive_rows(&*pin, &region.rect), "rows: {at}");
        let mut ids: Vec<i64> = region.rows.iter().map(|r| layout.tuple_id(r)).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), region.rows.len(), "tuple ids unique: {at}");
    }
}

/// Fresh ids for inserted points (the fixture's ids stay below 10 000).
static NEXT_ID: AtomicI64 = AtomicI64::new(100_000);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn region_fetch_matches_a_naive_scan_on_every_grid_and_plan(
        (x0, y0) in (-5.0f64..50.0, -5.0f64..50.0),
        w in 0.5f64..25.0,
        h in 0.5f64..25.0,
        snap in any::<bool>(),
        // where in the viewport to insert a point between fetches (None:
        // no mutation); half the inserts snap onto the 5-unit lattice of
        // tile corners (multiples of 10) and the 2x2 seams (25)
        insert in prop::option::of((0.0f64..1.0, 0.0f64..1.0, any::<bool>())),
    ) {
        let (x0, y0) = if snap {
            ((x0 / TILE).round() * TILE, (y0 / TILE).round() * TILE)
        } else {
            (x0, y0)
        };
        let vp = Rect::new(x0, y0, x0 + w, y0 + h);
        let servers = oracle_servers().lock().unwrap();
        for s in servers.iter() {
            check_against_oracle(s, &vp, "before any mutation");
        }
        let Some((fx, fy, lattice)) = insert else {
            return;
        };
        let mx = (x0 + fx * w).clamp(0.0, EXTENT);
        let my = (y0 + fy * h).clamp(0.0, EXTENT);
        let (mx, my) = if lattice {
            ((mx / 5.0).round() * 5.0, (my / 5.0).round() * 5.0)
        } else {
            (mx, my)
        };
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let dirty = vec![DirtyRegion::new("dots", Rect::new(mx, my, mx, my))];
        let schema = dots_schema();
        // the one-shard-only server feeds materialized copies from `dots`
        // and refuses mutation; the mutable servers come first
        for s in servers.iter().filter(|s| s.canvases.len() == SEPARABLE.len()) {
            let row = Row::new(vec![Value::Int(id), Value::Float(mx), Value::Float(my)]);
            s.server
                .mutate_shards(&["dots"], |shards| {
                    let i = s.part.route(&schema, &row, shards.len())?;
                    shards[i].insert("dots", row.clone())?;
                    Ok(((), dirty.clone()))
                })
                .unwrap();
            check_against_oracle(s, &vp, &format!("after inserting ({mx}, {my})"));
            s.server
                .mutate_shards(&["dots"], |shards| {
                    let mut deleted = 0;
                    for db in shards.iter_mut() {
                        deleted += db.delete_where("dots", "id = $1", &[Value::Int(id)])?;
                    }
                    assert_eq!(deleted, 1, "the inserted point lives on one shard");
                    Ok(((), dirty.clone()))
                })
                .unwrap();
            check_against_oracle(s, &vp, &format!("after deleting ({mx}, {my})"));
        }
    }
}

/// Shard statements report to the storage query observer: a fetch across
/// the 2x2 seams moves `sql.rows_scanned` by exactly the rows the four
/// shards scanned for that statement.
#[test]
fn seam_fetch_counts_every_shards_rows_scanned() {
    let part = grid(2, 2);
    let shards = dots_shards(&part);
    // observer-free copies to replay the statement on
    let probes = shards.clone();
    let (app, config) = oracle_app(&shards[0], &SEPARABLE[1..2]);
    let mut router = QueryRouter::new(4).unwrap();
    router.register("dots", part).unwrap();
    let server = KyrixServer::launch_sharded(app, shards, router.clone(), config).unwrap();

    let vp = Rect::new(20.0, 20.0, 30.0, 30.0);
    let raw = Rect::new(19.5, 19.5, 30.5, 30.5); // vp widened by half a mark
    assert_eq!(router.route_rect("dots", &raw), Some(vec![0, 1, 2, 3]));
    let scanned = server.obs().counter("sql.rows_scanned");
    let before = scanned.get();
    let region = server.fetch_region("dbox", 0, &vp).unwrap();
    assert!(!region.rows.is_empty());
    let params = [
        Value::Float(raw.min_x),
        Value::Float(raw.min_y),
        Value::Float(raw.max_x),
        Value::Float(raw.max_y),
    ];
    let per_shard: Vec<u64> = probes
        .iter()
        .map(|db| {
            db.query(
                "SELECT * FROM dots WHERE bbox && rect($1, $2, $3, $4)",
                &params,
            )
            .unwrap()
            .stats
            .rows_scanned
        })
        .collect();
    assert!(per_shard.iter().all(|&n| n > 0), "every shard scanned rows");
    assert_eq!(scanned.get() - before, per_shard.iter().sum::<u64>());
}

/// EXPLAIN of a layer's fetch SQL broadcasts (its rectangle is a
/// parameter), so every shard plans it; the server keeps one copy of the
/// identical per-shard plan lines.
#[test]
fn explain_runs_on_every_shard_of_a_sharded_server() {
    let part = grid(2, 2);
    let shards = dots_shards(&part);
    let (app, config) = oracle_app(&shards[0], &SEPARABLE[1..2]);
    let mut router = QueryRouter::new(4).unwrap();
    router.register("dots", part).unwrap();
    let server = KyrixServer::launch_sharded(app, shards, router, config).unwrap();
    let rows = server
        .snapshot()
        .query(
            "EXPLAIN SELECT * FROM dots WHERE bbox && rect($1, $2, $3, $4)",
            &[],
        )
        .unwrap()
        .rows;
    let ex = server.explain("dbox", 0).unwrap();
    assert!(!ex.storage_plan.is_empty());
    assert_eq!(rows.len(), 4 * ex.storage_plan.len(), "one plan per shard");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn sharded_region_fetch_matches_single_node(
        x0 in -5.0f64..50.0,
        y0 in -5.0f64..50.0,
        w in 0.5f64..25.0,
        h in 0.5f64..25.0,
        // half the cases snap the viewport onto tile-edge multiples, where
        // straddlers, boundary marks, and shard seams concentrate
        snap in any::<bool>(),
    ) {
        let (x0, y0) = if snap {
            ((x0 / TILE).round() * TILE, (y0 / TILE).round() * TILE)
        } else {
            (x0, y0)
        };
        let vp = Rect::new(x0, y0, x0 + w, y0 + h);
        let (single, sharded) = servers();
        let store = single.store("main", 0).unwrap();
        let width = store.layout().unwrap().width();

        let reference = single.fetch_region("main", 0, &vp).unwrap();
        let want = content_multiset(&reference.rows, width);

        for server in sharded {
            let region = server.fetch_region("main", 0, &vp).unwrap();
            prop_assert_eq!(
                region.rect, reference.rect,
                "covered area diverged on {} shards for viewport {:?}",
                server.shard_count(), vp
            );
            let got = content_multiset(&region.rows, width);
            prop_assert_eq!(
                &got, &want,
                "row multiset on {} shards for viewport {:?}",
                server.shard_count(), vp
            );

            // merge renumbered the synthesized ids: unique per response
            let layout = server.store("main", 0).unwrap();
            let layout = layout.layout().unwrap();
            let mut ids: Vec<i64> = region.rows.iter().map(|r| layout.tuple_id(r)).collect();
            ids.sort_unstable();
            ids.dedup();
            prop_assert_eq!(
                ids.len(), region.rows.len(),
                "tuple ids not unique on {} shards", server.shard_count()
            );
        }
    }
}
