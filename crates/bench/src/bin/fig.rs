//! `fig <id>… | all | list` — regenerate paper exhibits from the one
//! `voxel_bench::EXHIBITS` table (DESIGN.md §5).

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    voxel_bench::fig(&args)
}
