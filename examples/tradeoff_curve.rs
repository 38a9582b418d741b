//! Prints the paper's central picture: the time/cost tradeoff frontier on
//! one instance, from `Cheap` (minimal cost) through `FastWithRelabeling`
//! (interior) to `Fast` (minimal time), with a crude ASCII scatter.
//!
//! ```text
//! cargo run --release --example tradeoff_curve
//! ```

use rendezvous_bench::x4_tradeoff;
use rendezvous_runner::Runner;

fn main() {
    let (n, l) = (12, 64);
    println!("time/cost tradeoff on the oriented {n}-ring, label space L = {l}\n");
    let points = x4_tradeoff::run(n, l, &[1, 2, 3, 4, 5], &Runner::sequential());
    print!("{}", x4_tradeoff::render(&points));

    // ASCII scatter: x = time bound, y = cost bound (log-ish bucketing).
    println!("\ncost");
    let max_cost = points.iter().map(|p| p.cost_bound).max().unwrap_or(1);
    let max_time = points.iter().map(|p| p.time_bound).max().unwrap_or(1);
    let rows = 12usize;
    let cols = 60usize;
    let mut canvas = vec![vec![' '; cols + 1]; rows + 1];
    for p in &points {
        let x = (p.time_bound * cols as u64 / max_time) as usize;
        let y = rows - (p.cost_bound * rows as u64 / max_cost) as usize;
        let tag = p.algorithm.chars().next().unwrap_or('?');
        canvas[y][x.min(cols)] = tag;
    }
    for row in canvas {
        println!("  |{}", row.iter().collect::<String>());
    }
    println!("  +{}\u{2192} time", "-".repeat(cols));
    println!("\n  c = cheap variants, f = fast / fwr(w)");
    println!("  lower-left is impossible: Thm 3.1 and Thm 3.2 pin both ends.");
}
