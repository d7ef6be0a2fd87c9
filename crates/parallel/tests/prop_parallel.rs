//! Property: for any data distribution and any supported query, the
//! scatter-gather engine over partitioned shards returns exactly what a
//! single node would — whether the statement scatters, routes to one
//! shard, or routes to none.

use kyrix_obs::Registry;
use kyrix_parallel::{load_rows, query_shards, Partitioner, QueryRouter, ShardTelemetry};
use kyrix_storage::{
    DataType, Database, IndexKind, QueryResult, Result, Row, Schema, SpatialCols, Value,
};
use proptest::prelude::*;
use std::sync::Arc;

fn schema() -> Schema {
    Schema::empty()
        .with("id", DataType::Int)
        .with("x", DataType::Float)
        .with("y", DataType::Float)
        .with("g", DataType::Int)
}

fn make_row(id: i64, x: f64, y: f64, g: i64) -> Row {
    Row::new(vec![
        Value::Int(id),
        Value::Float(x),
        Value::Float(y),
        Value::Int(g),
    ])
}

/// Queries whose parallel/serial agreement we pin. Chosen to cover: plain
/// scans, filters, multi-key order + offset/limit, global and grouped
/// aggregates, HAVING, AVG decomposition, and spatial predicates.
const QUERIES: &[&str] = &[
    "SELECT COUNT(*) FROM pts",
    "SELECT id, g FROM pts ORDER BY g DESC, id LIMIT 9 OFFSET 2",
    "SELECT g, COUNT(*) AS n, SUM(id), AVG(x), MIN(y), MAX(y) FROM pts GROUP BY g",
    "SELECT g, AVG(y) FROM pts GROUP BY g HAVING avg_y > 30 ORDER BY avg_y DESC",
    "SELECT AVG(x), COUNT(id) FROM pts WHERE g = 1",
    "SELECT id FROM pts WHERE x BETWEEN 10 AND 70 ORDER BY y, id",
    "SELECT SUM(g) FROM pts WHERE id != 3",
];

/// Value equality with float tolerance: partial sums combine in a
/// different order than a sequential fold, so floats may differ in the
/// final ulps. HAVING/ORDER results can differ only if a value sits within
/// tolerance of the predicate threshold, which the query constants avoid.
fn value_approx_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => {
            let scale = x.abs().max(y.abs()).max(1.0);
            (x - y).abs() <= scale * 1e-9
        }
        _ => a == b,
    }
}

fn rows_approx_eq(a: &[Row], b: &[Row]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(ra, rb)| {
            ra.values.len() == rb.values.len()
                && ra
                    .values
                    .iter()
                    .zip(&rb.values)
                    .all(|(x, y)| value_approx_eq(x, y))
        })
}

fn partitioners() -> Vec<(usize, Partitioner)> {
    vec![
        (
            4,
            Partitioner::Hash {
                column: "id".into(),
            },
        ),
        (
            3,
            Partitioner::Range {
                column: "x".into(),
                bounds: vec![30.0, 60.0],
            },
        ),
        (
            4,
            Partitioner::SpatialGrid {
                x_column: "x".into(),
                y_column: "y".into(),
                cols: 2,
                rows: 2,
                width: 100.0,
                height: 100.0,
            },
        ),
    ]
}

/// Every shard and the single-node reference carry the same catalog: the
/// point table with a spatial index, and a small `labels` table that the
/// router does not partition (so it is replicated on every shard).
fn create_tables(db: &mut Database) {
    db.create_table("pts", schema()).unwrap();
    db.create_index(
        "pts",
        "pts_xy",
        IndexKind::Spatial(SpatialCols::Point {
            x: "x".into(),
            y: "y".into(),
        }),
    )
    .unwrap();
    db.create_table(
        "labels",
        Schema::empty()
            .with("g", DataType::Int)
            .with("name", DataType::Text),
    )
    .unwrap();
}

fn labels() -> Vec<Row> {
    (0..5)
        .map(|g| Row::new(vec![Value::Int(g), Value::Text(format!("g{g}"))]))
        .collect()
}

fn single_node(rows: Vec<Row>) -> Database {
    let mut db = Database::new();
    create_tables(&mut db);
    for r in rows {
        db.insert("pts", r).unwrap();
    }
    for r in labels() {
        db.insert("labels", r).unwrap();
    }
    db
}

/// `pts` partitioned over `n` shards by `p`, queried through the engine
/// with telemetry into a registry of its own.
struct Shards {
    dbs: Vec<Database>,
    router: QueryRouter,
    obs: Arc<Registry>,
    telemetry: ShardTelemetry,
}

impl Shards {
    fn new(n: usize, p: Partitioner, rows: Vec<Row>) -> Shards {
        let mut router = QueryRouter::new(n).unwrap();
        router.register("pts", p).unwrap();
        let mut dbs: Vec<Database> = (0..n).map(|_| Database::new()).collect();
        for db in &mut dbs {
            create_tables(db);
        }
        load_rows(&mut dbs, &router, "pts", rows).unwrap();
        load_rows(&mut dbs, &router, "labels", labels()).unwrap();
        let obs = Arc::new(Registry::new());
        Shards {
            dbs,
            router,
            telemetry: ShardTelemetry::new(Arc::clone(&obs)),
            obs,
        }
    }

    fn query(&self, sql: &str, params: &[Value]) -> Result<QueryResult> {
        query_shards(&self.dbs, &self.router, sql, params, Some(&self.telemetry))
    }

    /// (shard statements run, statements scattered to several shards).
    fn work(&self) -> (u64, u64) {
        let count = |name: &str| self.obs.histogram(name).snapshot().count();
        (count("fetch.shard"), count("span.shard.scatter"))
    }
}

/// Whether the engine's answer equals the single node's: same schema
/// width, same rows (sorted first when the statement fixes no order —
/// row order is then unspecified).
fn same_answer(sql: &str, par: &QueryResult, seq: &QueryResult) -> bool {
    let by_all_cols = |a: &Row, b: &Row| {
        a.values
            .iter()
            .zip(&b.values)
            .map(|(x, y)| x.total_cmp(y))
            .find(|o| *o != std::cmp::Ordering::Equal)
            .unwrap_or(std::cmp::Ordering::Equal)
    };
    let (mut pr, mut sr) = (par.rows.clone(), seq.rows.clone());
    if !sql.contains("ORDER BY") {
        pr.sort_by(by_all_cols);
        sr.sort_by(by_all_cols);
    }
    par.schema.len() == seq.schema.len() && rows_approx_eq(&pr, &sr)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn parallel_equals_single_node(
        points in prop::collection::vec(
            (0..1000i64, 0.0..100.0f64, 0.0..100.0f64, 0..5i64),
            0..80,
        ),
    ) {
        let rows = || points.iter().map(|(id, x, y, g)| make_row(*id, *x, *y, *g));
        let reference = single_node(rows().collect());
        for (n, p) in partitioners() {
            let shards = Shards::new(n, p, rows().collect());
            for q in QUERIES {
                let par = shards.query(q, &[]).unwrap();
                let seq = reference.query(q, &[]).unwrap();
                prop_assert!(
                    same_answer(q, &par, &seq),
                    "query {}\n parallel: {:?}\n   serial: {:?}",
                    q,
                    par.rows,
                    seq.rows
                );
            }
        }
    }
}

// ------------------------------------------------------ one-shard routing

/// 120 rows with repeated keys: every `id` three times, every `x` four
/// times, so key-equality statements group, order and limit real rows.
fn keyed_rows() -> Vec<Row> {
    (0..120)
        .map(|i| make_row(i % 40, (i % 30) as f64 * 3.0, (i * 7 % 100) as f64, i % 5))
        .collect()
}

/// A statement the router sends to exactly one shard takes the shortcut
/// (the statement runs there unrewritten, no merge) under every
/// partitioner, and still answers like a single node: key equality on
/// Hash and Range, a one-cell rect on SpatialGrid, each with ORDER BY /
/// LIMIT / GROUP BY / AVG shapes and a partitioned ⋈ replicated join.
#[test]
fn one_target_shortcut_matches_single_node_under_every_partitioner() {
    let reference = single_node(keyed_rows());
    let [hash, range, grid] = <[_; 3]>::try_from(partitioners()).ok().unwrap();
    let cases = vec![
        (
            hash,
            "id = $1",
            [0, 7, 39, 1000].map(|k| vec![Value::Int(k)]).to_vec(),
        ),
        (
            range,
            "x = $1",
            [0.0, 33.0, 60.0, 87.0, 1.5]
                .map(|k| vec![Value::Float(k)])
                .to_vec(),
        ),
        (
            grid,
            "bbox && rect($1, $2, $3, $4)",
            [
                [5.0, 5.0, 45.0, 45.0],
                [55.0, 10.0, 95.0, 40.0],
                [60.0, 60.0, 99.0, 99.0],
            ]
            .map(|r| r.map(Value::Float).to_vec())
            .to_vec(),
        ),
    ];
    for ((n, p), pred, param_sets) in cases {
        let shards = Shards::new(n, p, keyed_rows());
        let mut queries = vec![
            format!("SELECT id, x, y FROM pts WHERE {pred} ORDER BY y DESC, id LIMIT 2"),
            format!("SELECT g, COUNT(*) AS n, AVG(x) FROM pts WHERE {pred} GROUP BY g ORDER BY g"),
            format!("SELECT AVG(y), MAX(x), COUNT(*) FROM pts WHERE {pred}"),
        ];
        // the storage engine plans `bbox && rect(..)` on single-table
        // scans only, so the join routes by key equality
        if !pred.starts_with("bbox") {
            queries.push(format!(
                "SELECT p.id, p.y, l.name FROM pts p JOIN labels l ON p.g = l.g \
                 WHERE {pred} ORDER BY p.y, p.id"
            ));
        }
        for params in &param_sets {
            for q in &queries {
                let (runs, scatters) = shards.work();
                let par = shards.query(q, params).unwrap();
                assert_eq!(
                    shards.work(),
                    (runs + 1, scatters),
                    "exactly one shard runs {q} {params:?}"
                );
                let seq = reference.query(q, params).unwrap();
                assert!(
                    same_answer(q, &par, &seq),
                    "{q} {params:?}\n parallel: {:?}\n   serial: {:?}",
                    par.rows,
                    seq.rows
                );
            }
        }
    }
}

/// A statement whose routed conjunct matches no row anywhere routes to no
/// shard; it runs on shard 0 and keeps the single-node shape (a plain
/// select keeps its columns, a global aggregate its one row, EXPLAIN its
/// plan).
#[test]
fn statement_routed_to_no_shard_matches_single_node() {
    let reference = single_node(keyed_rows());
    let [_, range, grid] = <[_; 3]>::try_from(partitioners()).ok().unwrap();
    for ((n, p), pred) in [
        (range, "x BETWEEN 50 AND 10"),
        (grid, "bbox && rect(60, 60, 10, 10)"),
    ] {
        let shards = Shards::new(n, p, keyed_rows());
        for q in [
            format!("SELECT id FROM pts WHERE {pred}"),
            format!("SELECT COUNT(*) FROM pts WHERE {pred}"),
            format!("SELECT SUM(id), MAX(y) FROM pts WHERE {pred}"),
            format!("EXPLAIN SELECT id FROM pts WHERE {pred}"),
        ] {
            let (runs, scatters) = shards.work();
            let par = shards.query(&q, &[]).unwrap();
            assert_eq!(shards.work(), (runs + 1, scatters), "{q}");
            let seq = reference.query(&q, &[]).unwrap();
            assert_eq!(par.schema.len(), seq.schema.len(), "schema width: {q}");
            assert_eq!(par.rows, seq.rows, "{q}");
        }
    }
}

// ------------------------------------------------------------- edge cases

#[test]
fn empty_partitioned_table_answers_all_query_shapes() {
    let p = Partitioner::Hash {
        column: "id".into(),
    };
    let shards = Shards::new(4, p, Vec::new());

    let r = shards.query("SELECT COUNT(*) FROM pts", &[]).unwrap();
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.rows[0].get(0), &Value::Int(0));

    let r = shards
        .query("SELECT g, SUM(x) FROM pts GROUP BY g", &[])
        .unwrap();
    assert!(r.rows.is_empty());

    let r = shards
        .query("SELECT id FROM pts ORDER BY x DESC LIMIT 3", &[])
        .unwrap();
    assert!(r.rows.is_empty());
    assert_eq!(r.schema.len(), 1);
}

#[test]
fn limit_zero_and_huge_offset() {
    let p = Partitioner::Hash {
        column: "id".into(),
    };
    let rows = (0..20).map(|i| make_row(i, i as f64, 0.0, i % 3)).collect();
    let shards = Shards::new(2, p, rows);
    let r = shards.query("SELECT id FROM pts LIMIT 0", &[]).unwrap();
    assert!(r.rows.is_empty());
    let r = shards
        .query("SELECT id FROM pts ORDER BY id LIMIT 5 OFFSET 1000", &[])
        .unwrap();
    assert!(r.rows.is_empty());
    let r = shards
        .query("SELECT id FROM pts ORDER BY id LIMIT 5 OFFSET 18", &[])
        .unwrap();
    assert_eq!(r.rows.len(), 2);
    assert_eq!(r.rows[0].get(0), &Value::Int(18));
}

#[test]
fn coordinator_having_uses_original_params() {
    let p = Partitioner::Range {
        column: "x".into(),
        bounds: vec![30.0, 60.0],
    };
    let rows = (0..90).map(|i| make_row(i, i as f64, 0.0, i % 2)).collect();
    let shards = Shards::new(3, p, rows);
    // HAVING references a parameter, evaluated at the coordinator
    let r = shards
        .query(
            "SELECT g, COUNT(*) AS n FROM pts GROUP BY g HAVING n > $1",
            &[Value::Int(44)],
        )
        .unwrap();
    assert_eq!(r.rows.len(), 2); // both groups have 45
    let r = shards
        .query(
            "SELECT g, COUNT(*) AS n FROM pts GROUP BY g HAVING n > $1",
            &[Value::Int(45)],
        )
        .unwrap();
    assert!(r.rows.is_empty());
}
