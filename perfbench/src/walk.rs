//! Seeded viewport walks: the only input the sessions receive.

use kyrix_lod::LodConfig;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One interaction of a walk: center the viewport on `(cx, cy)` of the
/// canvas of pyramid level `level`.
#[derive(Debug, Clone, PartialEq)]
pub struct Step {
    pub level: usize,
    pub canvas: String,
    pub cx: f64,
    pub cy: f64,
}

/// Level order of one lap: coarsest → raw → coarsest, every adjacent
/// boundary crossed twice.
fn lap_levels(levels: usize) -> Vec<usize> {
    let mut visit: Vec<usize> = (0..=levels).rev().collect();
    visit.extend(1..=levels);
    visit
}

fn clamp_center(v: f64, extent: f64, view: f64) -> f64 {
    v.clamp(view / 2.0, (extent - view / 2.0).max(view / 2.0))
}

/// Point `i` of the R2 low-discrepancy sequence in the unit square,
/// shifted by a seeded offset: successive points spread evenly, so a walk
/// covers the canvas evenly and two seeds differ by where, not by how
/// evenly, they look.
fn r2(i: usize, shift: (f64, f64)) -> (f64, f64) {
    // 1/g and 1/g^2 for the plastic number g
    const A1: f64 = 0.754_877_666_246_692_7;
    const A2: f64 = 0.569_840_290_998_053_3;
    let n = (i + 1) as f64;
    ((shift.0 + A1 * n).fract(), (shift.1 + A2 * n).fract())
}

/// The `explore` zoom walk: each lap picks a focus on the raw canvas and
/// zooms coarsest → raw → coarsest around it, taking `steps_per_level`
/// pans per level within ±1.5 viewports of the focus. Pans stay near the
/// focus, so the walk revisits tiles and frontend regions (the hit path).
pub fn explore_walk(
    lod: &LodConfig,
    viewport: (f64, f64),
    laps: usize,
    steps_per_level: usize,
    seed: u64,
) -> Vec<Step> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let shift = (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0));
    let mut out = Vec::new();
    for lap in 0..laps {
        let (fx, fy) = r2(lap, shift);
        let (fx, fy) = (0.1 + 0.8 * fx, 0.1 + 0.8 * fy);
        for k in lap_levels(lod.levels) {
            let canvas = lod.level_canvas(k);
            let (w, h) = lod.level_size(k);
            for _ in 0..steps_per_level {
                let dx = rng.gen_range(-1.5..1.5) * viewport.0;
                let dy = rng.gen_range(-1.5..1.5) * viewport.1;
                out.push(Step {
                    level: k,
                    canvas: canvas.clone(),
                    cx: clamp_center(fx * w + dx, w, viewport.0),
                    cy: clamp_center(fy * h + dy, h, viewport.1),
                });
            }
        }
    }
    out
}

/// The `sharded_roam` tour: the same level order, but every step jumps to
/// the next point of an R2 sequence over the whole level canvas, so the
/// tour's working set is the whole pyramid, far beyond the backend tile
/// cache, and every run samples dense cores and empty field alike.
pub fn roam_tour(
    lod: &LodConfig,
    viewport: (f64, f64),
    laps: usize,
    steps_per_level: usize,
    seed: u64,
) -> Vec<Step> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let shift = (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0));
    let mut visits = vec![0usize; lod.levels + 1];
    let mut out = Vec::new();
    for _ in 0..laps {
        for k in lap_levels(lod.levels) {
            let canvas = lod.level_canvas(k);
            let (w, h) = lod.level_size(k);
            for _ in 0..steps_per_level {
                let (u, v) = r2(visits[k], shift);
                visits[k] += 1;
                out.push(Step {
                    level: k,
                    canvas: canvas.clone(),
                    cx: clamp_center(u * w, w, viewport.0),
                    cy: clamp_center(v * h, h, viewport.1),
                });
            }
        }
    }
    out
}

/// Steps in one lap of either walk.
pub fn lap_len(levels: usize, steps_per_level: usize) -> usize {
    lap_levels(levels).len() * steps_per_level
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walks_are_seeded_and_stay_on_canvas() {
        let lod = LodConfig::new("galaxy", 4096.0, 4096.0, 2);
        let a = explore_walk(&lod, (256.0, 256.0), 2, 5, 7);
        assert_eq!(a, explore_walk(&lod, (256.0, 256.0), 2, 5, 7));
        assert_ne!(a, explore_walk(&lod, (256.0, 256.0), 2, 5, 8));
        assert_eq!(a.len(), 2 * lap_len(2, 5));
        for s in a.iter().chain(&roam_tour(&lod, (256.0, 256.0), 2, 5, 7)) {
            let (w, h) = lod.level_size(s.level);
            assert!(s.cx >= 128.0 && s.cx <= w - 128.0, "{s:?}");
            assert!(s.cy >= 128.0 && s.cy <= h - 128.0, "{s:?}");
        }
    }
}
