//! Seeded-clean fixture: the engine must stay quiet on this tree. This
//! file is never compiled — it only feeds the lint engine's own tests.

use std::collections::BTreeMap;

pub struct Conn {
    pub seq: u64,
}

pub fn emit(tracer: &Tracer, now_ms: u64) {
    trace_event!(
        tracer,
        now_ms,
        Layer::Quic,
        "pkt_sent",
        "v" = 1,
    );
    tracer.count("quic.packets_sent", 1);
}

pub fn ordered(a: &Mutex<u32>, b: &Mutex<u32>) {
    let _a = a.lock();
    let _b = b.lock();
}

pub fn ordered_again(a: &Mutex<u32>, b: &Mutex<u32>) {
    let _a = a.lock();
    let _b = b.lock();
}

fn lookup(memo: &BTreeMap<u64, u64>, k: u64) -> Option<u64> {
    memo.get(&k).copied()
}
