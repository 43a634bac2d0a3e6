//! `CheckStats`' `--stats` line: its total wall is compile plus explore.

use std::time::Duration;

use fdrlite::CheckStats;

#[test]
fn the_stats_line_total_is_compile_plus_explore() {
    let stats = CheckStats {
        wall: Duration::from_micros(5_000),
        compile_wall: Duration::from_micros(22_000),
        normalise_wall: Duration::from_micros(13_000),
        ..CheckStats::default()
    };
    let line = stats.to_string();
    assert!(
        line.contains("wall 27.000 ms (compile 22.000 [norm 13.000] + explore 5.000)"),
        "{line}"
    );
    let json = stats.to_json();
    assert!(
        json.contains("\"wall_us\":5000"),
        "`wall` stays the exploration: {json}"
    );
    assert!(json.contains("\"explore_us\":5000"), "{json}");
    assert!(json.contains("\"compile_us\":22000"), "{json}");
}
