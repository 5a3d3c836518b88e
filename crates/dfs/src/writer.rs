//! Streaming, record-aligned block writer.

use std::sync::Arc;

use crate::config::NodeId;
use crate::namespace::{Dfs, DfsError};

/// Writes newline-terminated records into a DFS file, sealing a block
/// whenever the buffer would exceed the configured block size. Blocks are
/// always sealed at a record boundary.
///
/// Append failures (the file deleted under the writer, injected namespace
/// faults) are latched and surfaced by [`FileWriter::close`]; subsequent
/// writes become no-ops. Dropping the writer without calling `close`
/// flushes the tail block too (RAII) but swallows any latched error, so
/// `close` is preferred wherever the result can be checked.
pub struct FileWriter {
    dfs: Dfs,
    path: String,
    node: NodeId,
    buf: Vec<u8>,
    closed: bool,
    err: Option<DfsError>,
}

impl FileWriter {
    pub(crate) fn new(dfs: Dfs, path: String, node: NodeId) -> FileWriter {
        let cap = dfs.config().block_size as usize;
        FileWriter {
            dfs,
            path,
            node,
            buf: Vec::with_capacity(cap.min(1 << 20)),
            closed: false,
            err: None,
        }
    }

    /// Appends one record (a newline is added).
    pub fn write_line(&mut self, line: &str) {
        let needed = line.len() + 1;
        let block_size = self.dfs.config().block_size as usize;
        if !self.buf.is_empty() && self.buf.len() + needed > block_size {
            self.seal_block();
        }
        self.buf.extend_from_slice(line.as_bytes());
        self.buf.push(b'\n');
    }

    /// Appends pre-formatted text that already contains its newlines —
    /// the same bytes and the same block boundaries as one
    /// [`FileWriter::write_line`] per line, but every run of whole lines
    /// that fits the open block is appended in one copy.
    pub fn write_str(&mut self, text: &str) {
        let block_size = self.dfs.config().block_size as usize;
        let mut rest = text;
        while !rest.is_empty() {
            let room = block_size.saturating_sub(self.buf.len()).min(rest.len());
            match rest.as_bytes()[..room].iter().rposition(|&b| b == b'\n') {
                Some(last) => {
                    self.buf.extend_from_slice(&rest.as_bytes()[..=last]);
                    rest = &rest[last + 1..];
                }
                // The next line does not fit (or is the unterminated
                // tail): `write_line` seals the block / adds the newline.
                None => {
                    let (line, tail) = rest.split_once('\n').unwrap_or((rest, ""));
                    self.write_line(line);
                    rest = tail;
                }
            }
        }
    }

    /// Appends raw bytes (binary block formats). The chunk is cut into
    /// block-size pieces; unlike [`FileWriter::write_line`] no record
    /// alignment is attempted — binary files are always read whole, so
    /// blocks may split anywhere.
    pub fn write_chunk(&mut self, chunk: &[u8]) {
        let block_size = self.dfs.config().block_size as usize;
        let mut rest = chunk;
        while !rest.is_empty() {
            let room = block_size.saturating_sub(self.buf.len()).max(1);
            let take = room.min(rest.len());
            self.buf.extend_from_slice(&rest[..take]);
            rest = &rest[take..];
            if self.buf.len() >= block_size {
                self.seal_block();
            }
        }
    }

    /// The node this writer is (nominally) running on — first replicas of
    /// its blocks land here.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Flushes the tail block and finishes the file, surfacing the first
    /// append error hit during the write (if any).
    pub fn close(mut self) -> Result<(), DfsError> {
        self.finish();
        match self.err.take() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    fn seal_block(&mut self) {
        if self.buf.is_empty() || self.err.is_some() {
            return;
        }
        // Copied out, not moved: an `Arc<[u8]>` would copy an owned `Vec`
        // too, and the buffer keeps its capacity for the next block.
        let data: Arc<[u8]> = Arc::from(&self.buf[..]);
        self.buf.clear();
        if let Err(e) = self.dfs.append_block(&self.path, data, self.node) {
            self.err = Some(e);
        }
    }

    fn finish(&mut self) {
        if !self.closed {
            self.seal_block();
            self.closed = true;
        }
    }
}

impl Drop for FileWriter {
    fn drop(&mut self) {
        // RAII flush; a latched error has nowhere to go from a destructor.
        self.finish();
    }
}

#[cfg(test)]
mod tests {
    use crate::config::ClusterConfig;
    use crate::namespace::Dfs;

    #[test]
    fn drop_flushes_tail() {
        let fs = Dfs::new(ClusterConfig::small_for_tests());
        {
            let mut w = fs.create("/f").unwrap();
            w.write_line("tail");
        } // dropped without close()
        assert_eq!(fs.read_to_string("/f").unwrap(), "tail\n");
    }

    #[test]
    fn oversized_record_gets_its_own_block() {
        let fs = Dfs::new(ClusterConfig::small_for_tests()); // 8 KiB blocks
        let mut w = fs.create("/f").unwrap();
        let huge = "h".repeat(20_000);
        w.write_line("small");
        w.write_line(&huge);
        w.write_line("after");
        w.close().unwrap();
        let stat = fs.stat("/f").unwrap();
        assert_eq!(stat.num_blocks, 3);
        let text = fs.read_to_string("/f").unwrap();
        assert!(text.starts_with("small\n"));
        assert!(text.ends_with("after\n"));
    }

    #[test]
    fn write_chunk_splits_on_block_size_and_roundtrips() {
        let fs = Dfs::new(ClusterConfig::small_for_tests()); // 8 KiB blocks
        let blob: Vec<u8> = (0..20_000u32).map(|i| (i % 251) as u8).collect();
        let mut w = fs.create("/bin").unwrap();
        w.write_chunk(&blob);
        w.close().unwrap();
        let stat = fs.stat("/bin").unwrap();
        assert_eq!(stat.len, blob.len() as u64);
        assert_eq!(stat.num_blocks, 3);
        assert_eq!(fs.read_bytes("/bin").unwrap(), blob);
    }

    #[test]
    fn close_surfaces_append_failure() {
        use crate::namespace::DfsError;
        let fs = Dfs::new(ClusterConfig::small_for_tests());
        let mut w = fs.create("/gone").unwrap();
        w.write_line("doomed");
        // Deleting the file under an open writer turns the flush into a
        // structured error instead of a worker panic.
        fs.delete("/gone");
        assert_eq!(w.close(), Err(DfsError::NotFound("/gone".to_string())));
    }

    #[test]
    fn write_str_seals_the_same_blocks_as_write_line() {
        let fs = Dfs::new(ClusterConfig::small_for_tests()); // 8 KiB blocks
        let huge = "h".repeat(9_000);
        let mut lines: Vec<String> = (0..3000).map(|i| format!("row {i} {}", i * 7)).collect();
        lines.insert(1500, huge);
        lines.insert(20, String::new());
        let mut by_line = fs.create("/by-line").unwrap();
        for l in &lines {
            by_line.write_line(l);
        }
        by_line.close().unwrap();
        // One call, final newline left off: the tail line still gets it.
        let text = lines.join("\n");
        let mut whole = fs.create("/whole").unwrap();
        whole.write_str(&text);
        whole.close().unwrap();
        let blocks = |p: &str| -> Vec<u64> {
            fs.block_locations(p)
                .unwrap()
                .iter()
                .map(|b| b.len)
                .collect()
        };
        assert_eq!(blocks("/whole"), blocks("/by-line"));
        assert_eq!(
            fs.read_to_string("/whole").unwrap(),
            fs.read_to_string("/by-line").unwrap()
        );
    }

    #[test]
    fn write_str_matches_write_line() {
        let fs = Dfs::new(ClusterConfig::small_for_tests());
        fs.write_string("/a", "1 2\n3 4\n").unwrap();
        let mut w = fs.create("/b").unwrap();
        w.write_line("1 2");
        w.write_line("3 4");
        w.close().unwrap();
        assert_eq!(
            fs.read_to_string("/a").unwrap(),
            fs.read_to_string("/b").unwrap()
        );
    }
}
