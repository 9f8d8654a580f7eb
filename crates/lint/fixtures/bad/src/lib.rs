//! Seeded-bad fixture: the API baseline must fire on this crate in both
//! directions.

pub struct Conn {
    pub seq: u64,
}

pub fn emit(conn: &Conn) -> u64 {
    conn.seq
}
