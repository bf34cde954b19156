//! Adversarially shaped link families shared by the equivalence suites of
//! the static conflict-graph build (`grid_vs_naive.rs`) and the incremental
//! engine (`wagg-engine`'s `far_from_origin.rs`): uniform squares, tight
//! chains over four length classes, degenerate links, and all three moved
//! far from the origin.

use wagg_geometry::Point;
use wagg_sinr::Link;

/// Links at uniform positions and angles, of the drawn lengths.
pub fn uniform_square(raw: &[(f64, f64, f64, f64)]) -> Vec<Link> {
    raw.iter()
        .enumerate()
        .map(|(i, &(x, y, angle, len))| {
            let s = Point::new(x, y);
            let r = Point::new(x + len * angle.cos(), y + len * angle.sin());
            Link::new(i, s, r)
        })
        .collect()
}

/// Links along a line, lengths cycling through 1, 4, 16, 64 (four length
/// classes), separated by the drawn gaps.
pub fn diverse_chain(gaps: &[f64]) -> Vec<Link> {
    let mut x = 0.0;
    gaps.iter()
        .enumerate()
        .map(|(i, &gap)| {
            let len = 4.0f64.powi((i % 4) as i32);
            let link = Link::new(i, Point::on_line(x), Point::on_line(x + len));
            x += len + gap;
            link
        })
        .collect()
}

/// Horizontal links of the drawn lengths, with the links at `degenerate_at`
/// collapsed onto their senders under fresh ids.
pub fn with_degenerate(raw: &[(f64, f64, f64)], degenerate_at: &[usize]) -> Vec<Link> {
    let mut links: Vec<Link> = raw
        .iter()
        .enumerate()
        .map(|(i, &(x, y, len))| Link::new(i, Point::new(x, y), Point::new(x + len, y)))
        .collect();
    for &d in degenerate_at {
        let p = links[d].sender;
        links[d] = Link::new(1000 + d, p, p);
    }
    links
}

/// `links` scaled by `scale` about the origin, then moved by `(dx, dy)`.
fn translated(links: &[Link], scale: f64, dx: f64, dy: f64) -> Vec<Link> {
    let map = |p: Point| Point::new(p.x * scale + dx, p.y * scale + dy);
    links
        .iter()
        .map(|l| Link::new(l.id.0, map(l.sender), map(l.receiver)))
        .collect()
}

/// One of the three families above (`family` 0, 1 or 2, from the drawn
/// inputs), scaled so its shortest link is about `1e-6` of the offset
/// `10^exponent` and translated by `±offset` on each axis (`signs` picks the
/// signs): reach margins must absorb rounding at every magnitude.
pub fn far_from_origin(
    family: u8,
    exponent: f64,
    signs: u8,
    uniform: &[(f64, f64, f64, f64)],
    gaps: &[f64],
    degenerate: &[(f64, f64, f64)],
    degenerate_at: &[usize],
) -> Vec<Link> {
    let offset = 10f64.powf(exponent);
    let (links, shortest) = match family {
        0 => (uniform_square(uniform), 0.1),
        1 => (diverse_chain(gaps), 1.0),
        _ => (with_degenerate(degenerate, degenerate_at), 0.2),
    };
    let dx = if signs & 1 == 0 { offset } else { -offset };
    let dy = if signs & 2 == 0 { offset } else { -offset };
    translated(&links, 1e-6 * offset / shortest, dx, dy)
}
