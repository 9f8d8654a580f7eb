//! Seeded-clean fixture: the engine must stay quiet on this crate. Its
//! surface is a re-export from a private module, and `shard::hidden` is
//! `pub` in a private module that nobody re-exports, so it is not API.

mod conn {
    pub struct Conn {
        pub seq: u64,
    }
}

mod shard {
    pub fn hidden() {}
}

pub use conn::Conn;

pub fn emit(conn: &Conn) -> u64 {
    shard::hidden();
    conn.seq
}
