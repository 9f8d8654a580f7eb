//! Seeded-bad fixture: every rule family must fire on this tree. This
//! file is never compiled — it only feeds the lint engine's own tests.

use std::collections::HashMap;
use std::rc::Rc;

pub struct Conn {
    pub state: *mut u8,
}

static mut GLOBAL_SEQ: u64 = 0;

pub fn acquire_ab(a: &Mutex<u32>, b: &Mutex<u32>) {
    let _a = a.lock();
    let _b = b.lock();
}

pub fn acquire_ba(a: &Mutex<u32>, b: &Mutex<u32>) {
    let _b = b.lock();
    let _a = a.lock();
}

// lint: allow(panic) nothing in this fn panics, so this waiver is stale
pub fn emit(tracer: &Tracer, now_ms: u64, ssim: f64) {
    trace_event!(
        tracer,
        now_ms,
        Layer::Quic,
        "mystery_kind",
        "v" = 1,
    );
    let t = std::time::Instant::now();
    if ssim == 1.0 {
        let _ = t;
    }
}

pub fn broken(x: Option<u32>) -> u32 {
    // lint: allow(float-eq)
    let _exact = qoe != 0.0;
    x.as_ref()
        .unwrap();
    x.expect("fixture")
}
