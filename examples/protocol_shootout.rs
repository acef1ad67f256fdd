//! Protocol shootout: all seven protocols (TSF, ATSP, TATSP, SATSF, ASP, RK
//! and SSTSP) across network sizes — the scalability comparison the
//! paper's related-work section frames (Sec. 2), run as one rayon-parallel
//! sweep.
//!
//! ```text
//! cargo run --release --example protocol_shootout            # up to 500 stations
//! cargo run --release --example protocol_shootout -- quick   # up to 100
//! ```

use rayon::prelude::*;
use sstsp::report::render_table;
use sstsp::{Network, ProtocolKind, RunResult, ScenarioConfig};

fn main() {
    let quick = std::env::args().any(|a| a == "quick");
    let sizes: &[u32] = if quick {
        &[25, 50, 100]
    } else {
        &[50, 100, 200, 500]
    };
    let duration_s = if quick { 60.0 } else { 120.0 };
    let protocols = ProtocolKind::ALL;

    println!(
        "Scalability shootout: {} protocols × {:?} stations, {duration_s} s each\n",
        protocols.len(),
        sizes
    );

    // One deterministic run per (protocol, size); rayon over the grid.
    let grid: Vec<(ProtocolKind, u32)> = protocols
        .iter()
        .flat_map(|&p| sizes.iter().map(move |&n| (p, n)))
        .collect();
    let results: Vec<RunResult> = grid
        .par_iter()
        .map(|&(p, n)| Network::build(&ScenarioConfig::new(p, n, duration_s, 77)).run())
        .collect();

    // Steady-state spread over the final third of each run.
    let tail_from = simcore::SimTime::from_secs_f64(duration_s * 2.0 / 3.0);
    let tail_to = simcore::SimTime::from_secs_f64(duration_s);
    let mut rows = Vec::new();
    for (&(p, n), r) in grid.iter().zip(&results) {
        rows.push(vec![
            p.name().to_string(),
            n.to_string(),
            r.sync_latency_s
                .map_or("never".into(), |l| format!("{l:.1}s")),
            format!(
                "{:.1}",
                r.spread.max_in(tail_from, tail_to).unwrap_or(f64::NAN)
            ),
            format!("{:.0}", r.peak_spread_us),
            format!(
                "{:.1}%",
                100.0 * r.tx_collisions as f64 / (r.tx_successes + r.tx_collisions).max(1) as f64
            ),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "protocol",
                "stations",
                "sync latency",
                "steady spread µs",
                "peak spread µs",
                "collision rate"
            ],
            &rows
        )
    );

    // Who stays under the 25 µs industrial bound at the largest size?
    let biggest = *sizes.last().unwrap();
    println!("\nAt {biggest} stations (steady-state ≤ 25 µs):");
    for (&(p, n), r) in grid.iter().zip(&results) {
        if n == biggest {
            let tail = r.spread.max_in(tail_from, tail_to).unwrap_or(f64::NAN);
            println!(
                "  {:<6} {}",
                p.name(),
                if tail <= 25.0 {
                    "synchronized".to_string()
                } else {
                    format!("NOT synchronized ({tail:.0} µs)")
                }
            );
        }
    }
}
