//! The scatter-gather engine: the one query path over N shard databases.
//!
//! [`query_shards`] routes a statement with a [`QueryRouter`], runs it on
//! the shards that can hold its rows and, when more than one must answer,
//! recombines their outputs through a [`ShardPlan`] so the result equals
//! what one database holding every row would return. [`load_rows`] is the
//! matching write side: it places rows on the shards the same router will
//! later send their queries to.

use crate::merge::ShardPlan;
use crate::router::QueryRouter;
use kyrix_obs::{HistogramFamily, Registry};
use kyrix_storage::sql::{parse_statement, Statement};
use kyrix_storage::{Database, QueryResult, Result, Row, StorageError, Value};
use std::sync::Arc;
use std::time::Instant;

/// Where [`query_shards`] reports: the `shard.scatter` / `shard.merge`
/// spans and the per-shard `fetch.shard{i}` latency family (whose total
/// counts every shard statement run).
#[derive(Clone)]
pub struct ShardTelemetry {
    obs: Arc<Registry>,
    family: HistogramFamily,
}

impl ShardTelemetry {
    /// Report into `obs`.
    pub fn new(obs: Arc<Registry>) -> Self {
        let family = obs.histogram_family("fetch.shard");
        ShardTelemetry { obs, family }
    }
}

fn check_shards(shards: &[Database], router: &QueryRouter) -> Result<()> {
    if shards.len() != router.shard_count() {
        return Err(StorageError::ExecError(format!(
            "router implies {} shards, got {}",
            router.shard_count(),
            shards.len()
        )));
    }
    Ok(())
}

/// Execute one SELECT or EXPLAIN over `shards`, laid out as `router` says.
///
/// A statement routed to one shard runs there as [`Database::query`]
/// would run it: the other shards hold no rows for it, so there is no
/// rewrite and no merge. A statement routed to no shard (its routed
/// conjunct matches no row anywhere, e.g. an empty `BETWEEN`) runs on
/// shard 0 the same way, which gives the single-node answer, shape
/// included. Otherwise every routed shard runs the [`ShardPlan`] rewrite
/// in parallel (`shard.scatter` span) and the coordinator merges the
/// partials (`shard.merge` span); a multi-shard EXPLAIN concatenates the
/// per-shard plans. Every shard statement goes through
/// [`Database::query_statement`], so each shard's query observer sees it,
/// and records its latency under `fetch.shard{i}`.
pub fn query_shards(
    shards: &[Database],
    router: &QueryRouter,
    sql: &str,
    params: &[Value],
    telemetry: Option<&ShardTelemetry>,
) -> Result<QueryResult> {
    check_shards(shards, router)?;
    let stmt = parse_statement(sql)?;
    let (Statement::Select(select) | Statement::Explain(select)) = &stmt else {
        return Err(StorageError::PlanError(
            "shard queries are read-only: SELECT or EXPLAIN only".to_string(),
        ));
    };
    let run = |i: usize, stmt: &Statement| {
        let start = Instant::now();
        let result = shards[i].query_statement(stmt, sql, params);
        if let Some(t) = telemetry {
            t.family.record_duration(&i.to_string(), start.elapsed());
        }
        result
    };
    let targets = router.targets(select, params);
    if targets.len() <= 1 {
        return run(targets.first().copied().unwrap_or(0), &stmt);
    }
    let scatter = |stmt: &Statement| -> Result<Vec<QueryResult>> {
        let _scatter = telemetry.map(|t| t.obs.span("shard.scatter"));
        std::thread::scope(|s| {
            let handles: Vec<_> = targets
                .iter()
                .map(|&i| s.spawn(move || run(i, stmt)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard query panicked"))
                .collect()
        })
    };
    if let Statement::Explain(_) = stmt {
        let mut results = scatter(&stmt)?.into_iter();
        let mut out = results.next().expect("two or more targets");
        out.rows.extend(results.flat_map(|r| r.rows));
        return Ok(out);
    }
    let plan = ShardPlan::new(select)?;
    let results = scatter(&Statement::Select(plan.shard_stmt.clone()))?;
    let _merge = telemetry.map(|t| t.obs.span("shard.merge"));
    plan.merge(results, params)
}

/// Insert `rows` of `table` onto `shards`: a table `router` partitions
/// sends each row to the shard its partitioner picks, any other table is
/// replicated, one copy per shard. The table must already exist on every
/// shard (DDL is the caller's loop over the shards).
pub fn load_rows(
    shards: &mut [Database],
    router: &QueryRouter,
    table: &str,
    rows: impl IntoIterator<Item = Row>,
) -> Result<()> {
    check_shards(shards, router)?;
    match router.partitioner(table) {
        Some(part) => {
            let schema = shards[0].table(table)?.schema.clone();
            for row in rows {
                let i = part.route(&schema, &row, shards.len())?;
                shards[i].insert(table, row)?;
            }
        }
        None => {
            let (last, rest) = shards.split_last_mut().expect("at least one shard");
            for row in rows {
                for db in rest.iter_mut() {
                    db.insert(table, row.clone())?;
                }
                last.insert(table, row)?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Partitioner;
    use kyrix_storage::catalog::SpatialCols;
    use kyrix_storage::{DataType, IndexKind, Schema};

    fn dots_schema() -> Schema {
        Schema::empty()
            .with("id", DataType::Int)
            .with("x", DataType::Float)
            .with("y", DataType::Float)
            .with("w", DataType::Int)
    }

    fn dot(i: i64) -> Row {
        Row::new(vec![
            Value::Int(i),
            Value::Float((i % 20) as f64 * 10.0),
            Value::Float((i / 20) as f64 * 10.0),
            Value::Int(i % 7),
        ])
    }

    fn labels_schema() -> Schema {
        Schema::empty()
            .with("w", DataType::Int)
            .with("name", DataType::Text)
    }

    fn labels() -> Vec<Row> {
        (0..7)
            .map(|w| Row::new(vec![Value::Int(w), Value::Text(format!("w{w}"))]))
            .collect()
    }

    /// N shards under one router, reporting into their own registry.
    struct Cluster {
        shards: Vec<Database>,
        router: QueryRouter,
        obs: Arc<Registry>,
        telemetry: ShardTelemetry,
    }

    impl Cluster {
        fn new(n: usize, table: &str, part: Partitioner) -> Cluster {
            let mut router = QueryRouter::new(n).unwrap();
            router.register(table, part).unwrap();
            let obs = Arc::new(Registry::new());
            Cluster {
                shards: (0..n).map(|_| Database::new()).collect(),
                router,
                telemetry: ShardTelemetry::new(Arc::clone(&obs)),
                obs,
            }
        }

        fn create(&mut self, table: &str, schema: Schema, rows: Vec<Row>) {
            for db in &mut self.shards {
                db.create_table(table, schema.clone()).unwrap();
            }
            load_rows(&mut self.shards, &self.router, table, rows).unwrap();
        }

        fn query(&self, sql: &str, params: &[Value]) -> QueryResult {
            query_shards(
                &self.shards,
                &self.router,
                sql,
                params,
                Some(&self.telemetry),
            )
            .unwrap()
        }

        /// Shard statements run so far (the `fetch.shard` family total).
        fn shard_runs(&self) -> u64 {
            self.obs.histogram("fetch.shard").snapshot().count()
        }

        /// Statements that fanned out to more than one shard.
        fn scatters(&self) -> u64 {
            self.obs.histogram("span.shard.scatter").snapshot().count()
        }
    }

    /// 4-shard spatial grid over a 200×200 canvas with a 20×20 dot grid.
    fn grid_cluster() -> Cluster {
        let p = Partitioner::SpatialGrid {
            x_column: "x".into(),
            y_column: "y".into(),
            cols: 2,
            rows: 2,
            width: 200.0,
            height: 200.0,
        };
        let mut c = Cluster::new(4, "dots", p);
        c.create("dots", dots_schema(), (0..400).map(dot).collect());
        for db in &mut c.shards {
            db.create_index("dots", "sp", spatial_index()).unwrap();
        }
        c
    }

    fn spatial_index() -> IndexKind {
        IndexKind::Spatial(SpatialCols::Point {
            x: "x".into(),
            y: "y".into(),
        })
    }

    /// A single-node database with identical content, as ground truth.
    fn reference_db() -> Database {
        let mut db = Database::new();
        db.create_table("dots", dots_schema()).unwrap();
        db.create_index("dots", "sp", spatial_index()).unwrap();
        for i in 0..400 {
            db.insert("dots", dot(i)).unwrap();
        }
        db.create_table("labels", labels_schema()).unwrap();
        for r in labels() {
            db.insert("labels", r).unwrap();
        }
        db
    }

    #[test]
    fn load_distributes_across_shards() {
        let c = grid_cluster();
        let sizes: Vec<usize> = c
            .shards
            .iter()
            .map(|db| db.table("dots").unwrap().len())
            .collect();
        assert_eq!(sizes, vec![100, 100, 100, 100]);
    }

    #[test]
    fn spatial_query_routes_to_intersecting_shards() {
        let c = grid_cluster();
        // viewport entirely inside shard 0's cell
        let r = c.query(
            "SELECT COUNT(*) FROM dots WHERE bbox && rect(0, 0, 40, 40)",
            &[],
        );
        assert_eq!(r.rows[0].get(0), &Value::Int(25));
        assert_eq!((c.shard_runs(), c.scatters()), (1, 0));
        // viewport spanning all four cells
        let r = c.query(
            "SELECT COUNT(*) FROM dots WHERE bbox && rect(80, 80, 120, 120)",
            &[],
        );
        assert_eq!(r.rows[0].get(0), &Value::Int(25));
        assert_eq!((c.shard_runs(), c.scatters()), (1 + 4, 1));
    }

    #[test]
    fn parallel_results_match_single_node() {
        let c = grid_cluster();
        let reference = reference_db();
        let queries: &[&str] = &[
            "SELECT COUNT(*) FROM dots",
            "SELECT * FROM dots WHERE bbox && rect(35, 35, 95, 95) ORDER BY id",
            "SELECT id, x FROM dots WHERE w = 3 ORDER BY x DESC, id LIMIT 10",
            "SELECT w, COUNT(*) AS n, AVG(x), MIN(y), MAX(y), SUM(id) FROM dots GROUP BY w",
            "SELECT w, COUNT(*) AS n FROM dots GROUP BY w HAVING n > 57 ORDER BY n DESC",
            "SELECT id FROM dots ORDER BY y DESC, x, id LIMIT 7 OFFSET 3",
            "SELECT AVG(x) FROM dots WHERE y > 150",
            "SELECT SUM(w) FROM dots WHERE id BETWEEN 100 AND 200",
        ];
        for q in queries {
            let par = c.query(q, &[]);
            let seq = reference.query(q, &[]).unwrap();
            assert_eq!(par.rows, seq.rows, "query: {q}");
            assert_eq!(par.schema.len(), seq.schema.len(), "schema width: {q}");
        }
    }

    #[test]
    fn hash_partitioning_routes_point_lookups() {
        let p = Partitioner::Hash {
            column: "id".into(),
        };
        let mut c = Cluster::new(8, "dots", p);
        let rows = (0..100)
            .map(|i| {
                Row::new(vec![
                    Value::Int(i),
                    Value::Float(i as f64),
                    Value::Float(0.0),
                    Value::Int(0),
                ])
            })
            .collect();
        c.create("dots", dots_schema(), rows);
        let r = c.query("SELECT x FROM dots WHERE id = $1", &[Value::Int(42)]);
        assert_eq!(r.rows[0].get(0), &Value::Float(42.0));
        assert_eq!(c.shard_runs(), 1, "point lookup must route");
        // a non-key predicate broadcasts
        c.query("SELECT COUNT(*) FROM dots WHERE x < 50", &[]);
        assert_eq!((c.shard_runs(), c.scatters()), (1 + 8, 1));
    }

    #[test]
    fn replicated_tables_join_against_partitioned() {
        let mut c = grid_cluster();
        c.create("labels", labels_schema(), labels());
        for db in &c.shards {
            assert_eq!(db.table("labels").unwrap().len(), 7, "replicated");
        }
        // a replicated-only query runs on one shard
        let r = c.query("SELECT COUNT(*) FROM labels", &[]);
        assert_eq!(r.rows[0].get(0), &Value::Int(7));
        assert_eq!(c.shard_runs(), 1);
        // partitioned ⋈ replicated matches single node
        let q = "SELECT d.id, l.name FROM dots d JOIN labels l ON d.w = l.w \
                 WHERE d.id < 20 ORDER BY d.id";
        let seq = reference_db().query(q, &[]).unwrap();
        assert_eq!(c.query(q, &[]).rows, seq.rows);
    }

    #[test]
    fn mismatched_shard_count_is_an_error() {
        let mut c = grid_cluster();
        c.shards.pop();
        assert!(
            query_shards(&c.shards, &c.router, "SELECT COUNT(*) FROM dots", &[], None).is_err()
        );
        assert!(load_rows(&mut c.shards, &c.router, "dots", vec![dot(0)]).is_err());
    }

    #[test]
    fn writes_are_refused() {
        let c = grid_cluster();
        let err = query_shards(&c.shards, &c.router, "DELETE FROM dots", &[], None);
        assert!(matches!(err, Err(StorageError::PlanError(m)) if m.contains("read-only")));
    }
}
