//! Seeded-bad fixture: every voxel-lint rule must fire on this tree. This
//! file is never compiled — it only feeds the lint engine's own tests.

pub struct Conn {
    pub seq: u64,
}

pub fn acquire_ab(a: &Mutex<u32>, b: &Mutex<u32>) {
    let _a = a.lock();
    let _b = b.lock();
}

pub fn acquire_ba(a: &Mutex<u32>, b: &Mutex<u32>) {
    let _b = b.lock();
    let _a = a.lock();
}

pub fn emit(tracer: &Tracer, now_ms: u64) {
    trace_event!(
        tracer,
        now_ms,
        Layer::Quic,
        "mystery_kind",
        "v" = 1,
    );
}
