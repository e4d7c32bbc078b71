//! Micro-benchmarks for the compiler passes: parsing, dependence
//! analysis, single-processor restructuring (Figure 3, bitset engine vs
//! the reference engine), and the two parallelization schemes (§6),
//! measured on the benchmark applications.
//!
//! Manual harness (`dpm_bench::microbench`); run with `cargo bench`.

use dpm_apps::Scale;
use dpm_bench::microbench::{bench, group};
use dpm_core::{
    parallelize_baseline, parallelize_layout_aware, restructure_single,
    restructure_single_reference,
};
use dpm_layout::LayoutMap;

fn main() {
    group("parse");
    for app in dpm_apps::suite(Scale::Tiny) {
        bench(&format!("parse/{}", app.name), || {
            dpm_ir::parse_program(&app.source).unwrap()
        });
    }

    group("dependence_analysis");
    for app in dpm_apps::suite(Scale::Tiny) {
        let p = app.program();
        bench(&format!("dependence_analysis/{}", app.name), || {
            dpm_ir::analyze(&p)
        });
    }

    group("restructure_single");
    for app in dpm_apps::suite(Scale::Small) {
        let p = app.program();
        let layout = LayoutMap::new(&p, dpm_apps::paper_striping());
        let deps = dpm_ir::analyze(&p);
        bench(&format!("restructure_single/{}", app.name), || {
            restructure_single(&p, &layout, &deps)
        });
    }

    group("restructure_single_engines (AST, Tiny)");
    let app = dpm_apps::by_name("AST", Scale::Tiny).unwrap();
    let p = app.program();
    let layout = LayoutMap::new(&p, dpm_apps::paper_striping());
    let deps = dpm_ir::analyze(&p);
    bench("restructure_single/bitset", || {
        restructure_single(&p, &layout, &deps)
    });
    bench("restructure_single/reference", || {
        restructure_single_reference(&p, &layout, &deps)
    });

    group("parallelize");
    let app = dpm_apps::by_name("AST", Scale::Small).unwrap();
    let p = app.program();
    let layout = LayoutMap::new(&p, dpm_apps::paper_striping());
    let deps = dpm_ir::analyze(&p);
    bench("parallelize/baseline_4p", || {
        parallelize_baseline(&p, &layout, &deps, 4, true)
    });
    bench("parallelize/layout_aware_4p", || {
        parallelize_layout_aware(&p, &layout, &deps, 4, true)
    });
}
