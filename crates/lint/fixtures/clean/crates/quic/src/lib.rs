//! Seeded-clean fixture: the engine must stay quiet on this tree. This
//! file is never compiled — it only feeds the lint engine's own tests.

use std::collections::BTreeMap;

pub struct Conn {
    pub seq: u64,
}

pub fn emit(conn: &Conn) -> u64 {
    conn.seq
}

fn lookup(memo: &BTreeMap<u64, u64>, k: u64) -> Option<u64> {
    memo.get(&k).copied()
}
