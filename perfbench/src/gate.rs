//! The correctness gate: what a session holds must equal a naive filter
//! over the snapshot it pinned.

use kyrix_client::Session;
use kyrix_server::{KyrixServer, LayerStore, SnapshotView};
use kyrix_storage::{Rect, Row, Value};
use std::sync::Arc;

/// The rows a session shows for one viewport, captured right after the
/// interaction that fetched them.
pub struct HeldView {
    pub canvas: String,
    pub view: Rect,
    pub snapshot: Arc<dyn SnapshotView>,
    /// Encoded data columns of every visible row, sorted.
    pub rows: Vec<Vec<u8>>,
}

/// Capture what `session` currently shows on its (single-layer) canvas.
pub fn hold(server: &KyrixServer, session: &mut Session) -> Result<HeldView, String> {
    let canvas = session.canvas_id().to_string();
    let bounds = server
        .app()
        .canvas(&canvas)
        .ok_or_else(|| format!("unknown canvas {canvas}"))?
        .bounds();
    let view = session.viewport().rect().intersection(&bounds);
    let layout = server
        .store(&canvas, 0)
        .map_err(|e| e.to_string())?
        .layout()
        .ok_or("layer 0 has no row layout")?;
    let visible = session.visible(usize::MAX).map_err(|e| e.to_string())?;
    let mut rows: Vec<Vec<u8>> = visible
        .into_iter()
        .filter(|(layer, _)| *layer == 0)
        .flat_map(|(_, rows)| rows)
        .map(|r| Row::new(r.values[..layout.n_data_cols].to_vec()).encode())
        .collect();
    rows.sort_unstable();
    Ok(HeldView {
        canvas,
        view,
        snapshot: session.pinned_snapshot(),
        rows,
    })
}

/// Re-derive the view's rows from the pinned snapshot with a plain scan:
/// a range predicate on the unindexed coordinate columns (no index can
/// serve it), then the exact mark-box test in the harness. Returns the
/// heap rows the scan examined, so callers can keep the gate's own work
/// out of the storage counters.
pub fn check(server: &KyrixServer, held: &HeldView) -> Result<u64, String> {
    match compare(server, held)? {
        (scanned, None) => Ok(scanned),
        (_, Some(mismatch)) => Err(mismatch),
    }
}

/// [`check`] for a step taken while a mutator publishes. The session pins
/// the head when the step starts, but `KyrixServer::fetch_region` pins the
/// head again when it fetches, so a publish that lands in between leaves
/// the session holding rows of a newer snapshot than the one it names.
/// `newer` is the head right after the step, passed only when a publish
/// landed during it; the rows must then equal a scan of the pinned
/// snapshot or of that head. Returns the rows scanned and whether only
/// the newer head matched.
pub fn check_racing(
    server: &KyrixServer,
    held: HeldView,
    newer: Option<Arc<dyn SnapshotView>>,
) -> Result<(u64, bool), String> {
    let (scanned, mismatch) = compare(server, &held)?;
    let (Some(mismatch), Some(head)) = (mismatch.clone(), newer) else {
        return mismatch.map_or(Ok((scanned, false)), Err);
    };
    let held = HeldView {
        snapshot: head,
        ..held
    };
    match compare(server, &held)? {
        (more, None) => Ok((scanned + more, true)),
        (_, Some(_)) => Err(mismatch),
    }
}

/// The rows scanned, and a description of the difference if the held rows
/// differ from the scan.
fn compare(server: &KyrixServer, held: &HeldView) -> Result<(u64, Option<String>), String> {
    let store = server.store(&held.canvas, 0).map_err(|e| e.to_string())?;
    let LayerStore::SeparableRaw {
        table,
        x_affine,
        y_affine,
        obj_w,
        obj_h,
        ..
    } = &store
    else {
        return Err(format!("{}: layer 0 is not served separably", held.canvas));
    };
    let (Some(xcol), Some(ycol)) = (x_affine.var.as_deref(), y_affine.var.as_deref()) else {
        return Err("placement without a column".into());
    };
    // raw-coordinate range of every mark whose box can reach the view,
    // widened by one unit; the exact test below decides
    let range = |a: &kyrix_expr::Affine, lo: f64, hi: f64| -> Result<(f64, f64), String> {
        let (p, q) = (
            a.invert(lo).ok_or("zero-scale placement")?,
            a.invert(hi).ok_or("zero-scale placement")?,
        );
        Ok((p.min(q) - 1.0, p.max(q) + 1.0))
    };
    let (x0, x1) = range(
        x_affine,
        held.view.min_x - obj_w / 2.0,
        held.view.max_x + obj_w / 2.0,
    )?;
    let (y0, y1) = range(
        y_affine,
        held.view.min_y - obj_h / 2.0,
        held.view.max_y + obj_h / 2.0,
    )?;
    let sql = format!(
        "SELECT * FROM {table} WHERE {xcol} >= $1 AND {xcol} <= $2 AND {ycol} >= $3 AND {ycol} <= $4"
    );
    let result = held
        .snapshot
        .query(
            &sql,
            &[
                Value::Float(x0),
                Value::Float(x1),
                Value::Float(y0),
                Value::Float(y1),
            ],
        )
        .map_err(|e| format!("gate scan: {e}"))?;
    let xi = result.schema.index_of(xcol).map_err(|e| e.to_string())?;
    let yi = result.schema.index_of(ycol).map_err(|e| e.to_string())?;
    let mut want = Vec::new();
    for row in &result.rows {
        let (Ok(x), Ok(y)) = (row.get(xi).as_f64(), row.get(yi).as_f64()) else {
            return Err(format!("{table}: non-numeric coordinates"));
        };
        let bbox = Rect::centered(x_affine.apply(x), y_affine.apply(y), *obj_w, *obj_h);
        if bbox.intersects(&held.view) {
            want.push(row.encode());
        }
    }
    want.sort_unstable();
    if want != held.rows {
        let missing = want
            .iter()
            .filter(|r| held.rows.binary_search(r).is_err())
            .count();
        let extra = held
            .rows
            .iter()
            .filter(|r| want.binary_search(r).is_err())
            .count();
        let mismatch = format!(
            "{} at {:?} (version {}): session holds {} rows, the scan finds {} \
             ({missing} missing, {extra} extra)",
            held.canvas,
            held.view,
            held.snapshot.version(),
            held.rows.len(),
            want.len()
        );
        return Ok((result.stats.rows_scanned, Some(mismatch)));
    }
    Ok((result.stats.rows_scanned, None))
}

/// After a published insert every point of the batch is in the raw table
/// at its position; after the matching delete none is. Probes the raw
/// table's R-tree directly, which records no query telemetry.
pub fn check_batch(
    snap: &dyn SnapshotView,
    table: &str,
    points: &[(f64, f64)],
    present: bool,
) -> Result<(), String> {
    for &(x, y) in points {
        let n = snap
            .spatial_count(table, &Rect::new(x, y, x, y))
            .map_err(|e| e.to_string())?
            .ok_or("raw table has no spatial index")?;
        if (n > 0) != present {
            return Err(format!(
                "point ({x}, {y}) {} at version {}",
                if present {
                    "missing after its insert published"
                } else {
                    "still present after its delete published"
                },
                snap.version()
            ));
        }
    }
    Ok(())
}
