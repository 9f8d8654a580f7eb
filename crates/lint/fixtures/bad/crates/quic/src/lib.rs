//! Seeded-bad fixture: the API baseline must fire on this tree, in both
//! directions. This file is never compiled — it only feeds the lint
//! engine's own tests.

pub struct Conn {
    pub seq: u64,
}

pub fn emit(conn: &Conn) -> u64 {
    conn.seq
}
