//! The unified optimizer (the paper's stated future work): jointly search
//! the disk layout (stripe unit / factor / starting iodevice) and the code
//! restructuring for minimum disk energy.
//!
//! Usage: `cargo run --release --bin layout_sweep [scale] [app]`
//! (default: small AST).

use disk_reuse::optimizer::{unified_optimize, LayoutSearchSpace};
use disk_reuse::prelude::*;

fn main() {
    let scale = dpm_apps::scale_arg(Scale::Small);
    let app_name = std::env::args().nth(2).unwrap_or_else(|| "AST".into());
    let app = by_name(&app_name, scale).expect("unknown app");
    let program = app.program();

    let space = LayoutSearchSpace {
        stripe_units: vec![8 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10],
        num_disks: vec![4, 8],
        start_disks: vec![0, 3],
    };
    println!(
        "unified layout × restructuring search on {} ({} candidates × 2 transforms)",
        app.name,
        space.candidates().len()
    );
    let ranked = unified_optimize(&program, &space, PowerPolicy::Tpm(TpmConfig::proactive()));
    println!(
        "{:<10} {:>8} {:>6} {:>6} {:>14} {:>12} {:>9}",
        "transform", "stripe", "disks", "start", "energy (J)", "io (s)", "requests"
    );
    for c in ranked.iter().take(12) {
        println!(
            "{:<10} {:>6}KB {:>6} {:>6} {:>14.1} {:>12.1} {:>9}",
            match c.transform {
                Transform::Original => "original",
                Transform::DiskReuse => "disk-reuse",
                _ => "parallel",
            },
            c.striping.stripe_unit() >> 10,
            c.striping.num_disks(),
            c.striping.start_disk(),
            c.energy_j,
            c.io_time_ms / 1000.0,
            c.requests,
        );
    }
    let best = &ranked[0];
    println!(
        "\nbest: {:?} with {} — the optimizer picks layout and transform together,\n\
         which is exactly the unified framework the paper's conclusion proposes.",
        best.transform, best.striping
    );
}
