//! The one reader of the harness's count knobs, `VOXEL_TRIALS` (the `fig`
//! library) and `VOXEL_SEEDS` (the `conformance` binary, which includes
//! this file as its own module).

/// The positive integer in the environment variable `var`, or `default`
/// when it is unset. Any other value prints the variable and its value
/// and exits 2, before anything runs, so a typo never runs at a silent
/// default.
pub(crate) fn positive_count(var: &str, default: usize) -> usize {
    let Some(raw) = std::env::var_os(var) else {
        return default;
    };
    match raw.to_str().and_then(|v| v.parse().ok()) {
        Some(n) if n >= 1 => n,
        _ => {
            eprintln!("{var}={raw:?} is not a positive integer");
            std::process::exit(2)
        }
    }
}
