//! Cross-commit byte pins, shared by `driver_golden.rs` (the run
//! driver's traces) and the broker cells in `serve_broker.rs` and
//! `serve_recovery.rs`.
//!
//! Every other determinism gate compares two runs of the same build, so a
//! reordered event would pass as long as it reproduced. A pin holds the
//! FNV-1a hash of a whole serialised stream equal to a constant generated
//! on an earlier commit (each caller names which), so a refactor is
//! shown, not assumed, to emit the bytes its parent did.
//!
//! On mismatch the stream is written to `$TMPDIR/<family>.<cell>.jsonl`
//! (`.json` for the untraced report pins; the panic names the file): check out the commit whose constants these
//! are, make the cell fail there too (edit the constant), and diff the
//! two files. A constant changes only with a PR that *means* to move
//! those bytes, and that PR says so.

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// Hold `stream` to `expected`, leaving the bytes behind on mismatch.
pub fn pin(family: &str, cell: &str, stream: &str, expected: u64) {
    pin_as(family, cell, "jsonl", stream, expected);
}

/// [`pin`], leaving the bytes in a `.{ext}` file on mismatch.
pub fn pin_as(family: &str, cell: &str, ext: &str, stream: &str, expected: u64) {
    let got = fnv1a(stream.as_bytes());
    if got != expected {
        let path = std::env::temp_dir().join(format!("{family}.{cell}.{ext}"));
        std::fs::write(&path, stream).expect("write the mismatching stream");
        panic!(
            "{cell}: stream hashes to {got:#018x}, pinned {expected:#018x}; \
             the bytes are in {} — diff them against the parent commit's",
            path.display()
        );
    }
}
