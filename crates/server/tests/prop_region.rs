//! Property: the plan-agnostic `fetch_region` over a `SeparableRaw` store
//! under a static-tile plan returns exactly the same row *multiset* as a
//! single direct `fetch_rect` over the covered area. This exercises the
//! content-keyed cross-tile deduplication in `server.rs`: separable stores
//! synthesize tuple ids per fetch, so a mark whose box straddles a tile
//! edge arrives via several tiles and must be re-unified by content — while
//! genuinely duplicated raw rows (two marks at the same position) must
//! survive as two rows, not collapse to one.

use kyrix_core::{
    compile, AppSpec, CanvasSpec, LayerSpec, MarkEncoding, PlacementSpec, RenderSpec, TransformSpec,
};
use kyrix_server::{fetch_rect, FetchPlan, KyrixServer, ServerConfig, TileDesign};
use kyrix_storage::{DataType, Database, IndexKind, Rect, Row, Schema, SpatialCols, Value};
use proptest::prelude::*;
use std::sync::OnceLock;

const TILE: f64 = 10.0;

/// Dots on a 50x50 integer grid (1x1 boxes: every dot at a multiple of the
/// tile size straddles a tile edge), plus deliberate duplicate rows.
fn server() -> &'static KyrixServer {
    static SERVER: OnceLock<KyrixServer> = OnceLock::new();
    SERVER.get_or_init(|| {
        let mut db = Database::new();
        db.create_table(
            "dots",
            Schema::empty()
                .with("id", DataType::Int)
                .with("x", DataType::Float)
                .with("y", DataType::Float),
        )
        .unwrap();
        let mut insert = |id: i64, x: f64, y: f64| {
            db.insert(
                "dots",
                Row::new(vec![Value::Int(id), Value::Float(x), Value::Float(y)]),
            )
            .unwrap();
        };
        for i in 0..2500i64 {
            insert(i, (i % 50) as f64, (i / 50) as f64);
        }
        // duplicated marks: same id and position twice, sitting on a tile
        // corner and in a tile interior
        insert(9000, 20.0, 20.0);
        insert(9000, 20.0, 20.0);
        insert(9001, 13.5, 7.5);
        insert(9001, 13.5, 7.5);
        db.create_index(
            "dots",
            "dots_xy",
            IndexKind::Spatial(SpatialCols::Point {
                x: "x".into(),
                y: "y".into(),
            }),
        )
        .unwrap();
        let spec = AppSpec::new("propgrid")
            .add_transform(TransformSpec::query("t", "SELECT * FROM dots"))
            .add_canvas(
                CanvasSpec::new("main", 50.0, 50.0).layer(LayerSpec::dynamic(
                    "t",
                    PlacementSpec::point("x", "y"),
                    RenderSpec::Marks(MarkEncoding::circle()),
                )),
            )
            .initial("main", 25.0, 25.0)
            .viewport(10.0, 10.0);
        let app = compile(&spec, &db).unwrap();
        let (server, reports) = KyrixServer::launch(
            app,
            db,
            ServerConfig::new(FetchPlan::StaticTiles {
                size: TILE,
                design: TileDesign::SpatialIndex,
            }),
        )
        .unwrap();
        assert!(
            reports[0].skipped_separable,
            "the property targets the SeparableRaw store"
        );
        server
    })
}

/// Sorted multiset of row contents, ignoring the synthesized trailing
/// tuple_id (its numbering differs between the two fetch paths).
fn content_multiset(rows: &[Row], width: usize) -> Vec<Vec<u8>> {
    let mut keys: Vec<Vec<u8>> = rows
        .iter()
        .map(|r| Row::new(r.values[..width - 1].to_vec()).encode())
        .collect();
    keys.sort();
    keys
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn region_fetch_matches_direct_rect_fetch(
        x0 in -5.0f64..50.0,
        y0 in -5.0f64..50.0,
        w in 0.5f64..25.0,
        h in 0.5f64..25.0,
        // half the cases snap the viewport onto tile-edge multiples, where
        // straddlers and boundary marks concentrate
        snap in any::<bool>(),
    ) {
        let (x0, y0) = if snap {
            ((x0 / TILE).round() * TILE, (y0 / TILE).round() * TILE)
        } else {
            (x0, y0)
        };
        let vp = Rect::new(x0, y0, x0 + w, y0 + h);
        let server = server();
        let store = server.store("main", 0).unwrap();
        let width = store.layout().unwrap().width();

        let region = server.fetch_region("main", 0, &vp).unwrap();
        // compare against one direct spatial query over the same covered
        // (tile-aligned) area
        let (direct, _) = fetch_rect(&*server.snapshot(), &store, &region.rect).unwrap();

        let got = content_multiset(&region.rows, width);
        let want = content_multiset(&direct, width);
        prop_assert_eq!(
            got.len(), want.len(),
            "row multiset size for viewport {:?} (covered {:?})", vp, region.rect
        );
        prop_assert_eq!(got, want, "row multiset for viewport {:?}", vp);

        // synthesized ids were renumbered: unique within the response
        let mut ids: Vec<i64> = region
            .rows
            .iter()
            .map(|r| store.layout().unwrap().tuple_id(r))
            .collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), region.rows.len(), "tuple ids not unique");
    }
}
